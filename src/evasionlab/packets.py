"""Typed IPv4/TCP packet model with byte-exact serialization.

All header types are frozen dataclasses and nothing mutates a packet once
it is shared. The transforms of :mod:`evasionlab.synth` and the receiver's
reassembly build each new header with one positional constructor call,
reading unchanged fields from the source header. Addresses are kept as
32-bit ints; helpers convert to/from dotted quads for display only.

Each header field holds the wire's bits. ``Ipv4Header.flags`` is the 3-bit
field above the fragment offset (reserved, ``IP_DF``, ``IP_MF``) and
``TcpHeader.flags`` the 12 bits below the data offset (the reserved nibble,
NS, CWR, ECE and the six classic bits ``TCP_FIN`` to ``TCP_URG``). Both
headers keep their options as the raw bytes they carry; nothing parses
them on decode, so ``encode(decode(frame)) == frame`` for every frame that
decodes, whatever its option bytes hold. Readers of option values walk the
bytes themselves (see :mod:`evasionlab.features`).

``Ipv4Header.with_checksum`` and ``PacketRecord.with_checksums`` are the
public copy API: they take the field changes themselves and copy with
``dataclasses.replace``, so an unknown field raises ``TypeError`` and the
copy's ``__post_init__`` validates it. A header's ``_write_checksum``
computes its checksum and writes it into the header (XOR a mask, for chaff
whose checksum must be wrong); it is only called on a header just built
that nothing else holds yet, so no shared header ever changes.

Checksums are summed from the header fields, never from the stored
checksum, so a packet that arrives with a wrong checksum leaves with a
valid one. RFC 1071 section 2 lets the one's-complement sum run over words
of any width in any order, as long as the carries are folded back in, so
no header is encoded to be summed: an IP header adds its field words, its
two 32-bit addresses and its options as one integer (each congruent modulo
0xFFFF to the sum of its 16-bit words), and a TCP segment adds the
pseudo-header, the TCP field words, the options integer and the payload's
integer. The payload's integer, the one large one, is reduced modulo
0xFFFF once (and shifted left by 8 when its length is odd, which pads it
for summation). The byte-level ``ipv4_checksum`` and ``tcp_checksum`` sum
encoded bytes and are the oracle for the field sums.

Each header and record sums its checksum at most once and keeps the
result: an IP header keeps the checksum of its fields with the checksum
field zeroed (``_write_checksum`` fills it as it writes the field), and a
record keeps its TCP verdict. Both depend only on frozen fields other than
a checksum that ``_write_checksum`` may still write, so a kept value never
goes stale. They are plain class attributes, not dataclass fields: copies
made by ``dataclasses.replace`` compute their own, and ``==``, ``hash`` and
``repr`` never see them.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from types import MappingProxyType

from .errors import OddLengthError

IPPROTO_TCP = 6

TCP_OPT_EOL = 0
TCP_OPT_NOP = 1
TCP_OPT_MSS = 2
TCP_OPT_WSCALE = 3
TCP_OPT_TIMESTAMP = 8

IP_OPT_RECORD_ROUTE = 7
IP_OPT_LSRR = 131
IP_OPT_SSRR = 137

_IP_FIXED = struct.Struct("!BBHHHBBHII")  # the 20 bytes before the IP options
_TCP_FIXED = struct.Struct("!HHIIHHHH")  # the 20 bytes before the TCP options

# bits of Ipv4Header.flags
IP_MF = 0x1
IP_DF = 0x2

# bits of TcpHeader.flags
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20


# writes a just-built header's checksum and memos past the frozen __setattr__
_setattr = object.__setattr__

_NO_CHANGES: Mapping = MappingProxyType({})


def ipv4_checksum(data: bytes) -> int:
    """RFC 1071 internet checksum over an even-length byte string.

    The 16-bit one's-complement of the one's-complement sum of all
    big-endian 16-bit words. RFC 1071 section 2 lets the sum run on
    words of any width in any order, as long as the carries are folded
    back in: here the whole input is one integer, folded by ``_fold``.
    The checksum field inside ``data`` must already be zeroed by the
    caller.
    """
    if len(data) % 2:
        raise OddLengthError(f"checksum input has odd length {len(data)}")
    return 0xFFFF - _fold(int.from_bytes(data, "big"))


def _fold(n: int) -> int:
    """End-around-carry fold of a nonnegative sum ``n`` to 16 bits.

    As 2**16 = 1 (mod 0xFFFF), the fold is ``n % 0xFFFF``, except that
    the fold of a nonzero sum is never 0: a nonzero multiple of 0xFFFF
    folds to 0xFFFF.
    """
    return n % 0xFFFF or (0xFFFF if n else 0)


def _pseudo_payload_sum(
    src_addr: int, dst_addr: int, header_length: int, payload: bytes
) -> int:
    """Sum of the IPv4 pseudo-header and a TCP payload carried under a
    header of ``header_length`` bytes, congruent modulo 0xFFFF to their
    unfolded RFC 1071 sum.

    As 2**16 = 1 (mod 0xFFFF), the payload's integer is congruent to the
    sum of its words; it is reduced modulo 0xFFFF once, then shifted left
    by 8 when the payload's length is odd, which zero-pads it for
    summation. A 32-bit address counts as its two 16-bit words. The sum is
    positive, as the pseudo-header adds protocol 6.
    """
    length = header_length + len(payload)
    if length > 0xFFFF:
        raise ValueError(f"TCP segment length {length} exceeds 65535")
    n = int.from_bytes(payload, "big") % 0xFFFF
    if len(payload) % 2:
        n <<= 8
    return n + src_addr + dst_addr + IPPROTO_TCP + length


def tcp_checksum(src_addr: int, dst_addr: int, tcp_bytes: bytes, payload: bytes) -> int:
    """TCP checksum with the IPv4 pseudo-header (src, dst, proto 6, length).

    ``tcp_bytes`` is the serialized TCP header with its checksum field
    zeroed; it must be whole 16-bit words. Odd-length payloads are
    zero-padded for summation only.
    """
    if len(tcp_bytes) % 2:
        raise OddLengthError(f"TCP header has odd length {len(tcp_bytes)}")
    n = _pseudo_payload_sum(src_addr, dst_addr, len(tcp_bytes), payload)
    return 0xFFFF - _fold(n + int.from_bytes(tcp_bytes, "big"))


@dataclass(frozen=True)
class Ipv4Header:
    ihl: int
    tos: int
    total_length: int
    identification: int
    flags: int  # reserved, DF, MF: the 3 bits above frag_offset
    frag_offset: int  # 8-byte units
    ttl: int
    protocol: int
    checksum: int
    src_addr: int
    dst_addr: int
    options: bytes = b""
    version: int = 4

    def __post_init__(self) -> None:
        if self.version != 4:
            raise ValueError(f"IPv4 version must be 4, got {self.version}")
        if not 5 <= self.ihl <= 15:
            raise ValueError(f"ihl {self.ihl} out of range [5, 15]")
        if not 0 <= self.flags <= 7:
            raise ValueError(f"IP flags {self.flags} out of range [0, 7]")
        if len(self.options) != (self.ihl - 5) * 4:
            raise ValueError(
                f"options length {len(self.options)} != (ihl-5)*4 = {(self.ihl - 5) * 4}"
            )
        if self.frag_offset * 8 + (self.total_length - self.ihl * 4) > 0xFFFF:
            raise ValueError("fragment extends past the 65535-byte datagram limit")

    @property
    def header_length(self) -> int:
        return self.ihl * 4

    def encode(self) -> bytes:
        return (
            _IP_FIXED.pack(
                (self.version << 4) | self.ihl,
                self.tos,
                self.total_length,
                self.identification,
                (self.flags << 13) | (self.frag_offset & 0x1FFF),
                self.ttl,
                self.protocol,
                self.checksum,
                self.src_addr,
                self.dst_addr,
            )
            + self.options
        )

    @classmethod
    def decode(cls, data: bytes, start: int = 0, end: int | None = None) -> "Ipv4Header":
        """The header at the start of ``data[start:end]``."""
        if end is None:
            end = len(data)
        if end - start < 20:
            raise ValueError(f"IPv4 header needs 20 bytes, got {max(end - start, 0)}")
        (ver_ihl, tos, total_length, ident, flags_frag, ttl, proto, checksum,
         src, dst) = _IP_FIXED.unpack_from(data, start)
        ihl = ver_ihl & 0x0F
        if end - start < ihl * 4:
            raise ValueError("buffer shorter than declared header length")
        return cls(
            ihl, tos, total_length, ident, flags_frag >> 13, flags_frag & 0x1FFF,
            ttl, proto, checksum, src, dst, bytes(data[start + 20 : start + ihl * 4]),
            ver_ihl >> 4,
        )

    _zeroed = None  # the checksum _zeroed_checksum computed, once it has

    def _zeroed_checksum(self) -> int:
        """The checksum of this header with its checksum field zeroed.

        Summed from the field values, as ``encode`` lays them out, the
        first time it is asked for, and kept. The sum is positive, as the
        version nibble is 4.
        """
        zeroed = self._zeroed
        if zeroed is None:
            n = (
                ((self.version << 12) | (self.ihl << 8) | self.tos)
                + self.total_length
                + self.identification
                + ((self.flags << 13) | (self.frag_offset & 0x1FFF))
                + ((self.ttl << 8) | self.protocol)
                + self.src_addr
                + self.dst_addr
                + int.from_bytes(self.options, "big")
            )
            zeroed = 0xFFFF - _fold(n)
            _setattr(self, "_zeroed", zeroed)
        return zeroed

    def _write_checksum(self, mask: int = 0) -> "Ipv4Header":
        """Write the recomputed checksum, XOR ``mask``, into this header.

        Only for a header just built that nothing else holds yet.
        """
        _setattr(self, "checksum", self._zeroed_checksum() ^ mask)
        return self

    def with_checksum(self, **changes) -> "Ipv4Header":
        """One copy with ``changes`` applied and its checksum recomputed.

        The checksum is computed from the copy's fields with the field
        zeroed and written into the copy before it is returned.
        """
        return replace(self, **changes)._write_checksum()

    def checksum_valid(self) -> bool:
        """Whether the stored checksum equals the one computed with the
        checksum field zeroed.

        The comparison is exact, so a stored 0xFFFF is never valid, even
        though an RFC 1071 verifier summing the header in place accepts it
        where the computed checksum is 0x0000.
        """
        return self._zeroed_checksum() == self.checksum


@dataclass(frozen=True)
class TcpHeader:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    data_offset: int
    flags: int = 0  # the 12 bits below data_offset
    window: int = 65535
    checksum: int = 0
    urgent: int = 0
    options: bytes = b""

    def __post_init__(self) -> None:
        if not 5 <= self.data_offset <= 15:
            raise ValueError(f"data_offset {self.data_offset} out of range [5, 15]")
        if not 0 <= self.flags <= 0xFFF:
            raise ValueError(f"TCP flags {self.flags:#x} out of range [0, 0xfff]")
        if len(self.options) != (self.data_offset - 5) * 4:
            raise ValueError(
                f"options length {len(self.options)} != "
                f"(data_offset-5)*4 = {(self.data_offset - 5) * 4}"
            )

    @property
    def header_length(self) -> int:
        return self.data_offset * 4

    def encode(self) -> bytes:
        return (
            _TCP_FIXED.pack(
                self.src_port,
                self.dst_port,
                self.seq,
                self.ack,
                (self.data_offset << 12) | self.flags,
                self.window,
                self.checksum,
                self.urgent,
            )
            + self.options
        )

    @classmethod
    def decode(cls, data: bytes, start: int = 0, end: int | None = None) -> "TcpHeader":
        """The header at the start of ``data[start:end]``."""
        if end is None:
            end = len(data)
        if end - start < 20:
            raise ValueError(f"TCP header needs 20 bytes, got {max(end - start, 0)}")
        (src_port, dst_port, seq, ack, off_flags, window, checksum,
         urgent) = _TCP_FIXED.unpack_from(data, start)
        data_offset = off_flags >> 12
        if data_offset < 5 or end - start < data_offset * 4:
            raise ValueError("buffer shorter than declared TCP header length")
        return cls(
            src_port, dst_port, seq, ack, data_offset, off_flags & 0xFFF, window,
            checksum, urgent, bytes(data[start + 20 : start + data_offset * 4]),
        )

    def _write_checksum(
        self, ip: Ipv4Header, payload: bytes, mask: int = 0
    ) -> "TcpHeader":
        """Write the recomputed checksum of this header carried under ``ip``
        with ``payload``, XOR ``mask``, into this header.

        Only for a header just built that nothing else holds yet.
        """
        _setattr(self, "checksum", _zeroed_tcp_checksum(ip, self, payload) ^ mask)
        return self


def _zeroed_tcp_checksum(ip: Ipv4Header, tcp: TcpHeader, payload: bytes) -> int:
    """TCP checksum of ``tcp`` and ``payload`` under ``ip``, computed with
    the field zeroed: the pseudo-header, the TCP field words as ``encode``
    lays them out, the options integer and the payload, summed without
    encoding the header."""
    n = (
        _pseudo_payload_sum(ip.src_addr, ip.dst_addr, tcp.data_offset * 4, payload)
        + tcp.src_port
        + tcp.dst_port
        + tcp.seq
        + tcp.ack
        + ((tcp.data_offset << 12) | tcp.flags)
        + tcp.window
        + tcp.urgent
        + int.from_bytes(tcp.options, "big")
    )
    return 0xFFFF - _fold(n)


@dataclass(frozen=True)
class PacketRecord:
    """One captured IPv4 packet.

    ``tcp`` is None for IP fragments whose TCP header is unavailable
    (any packet with MF set or a nonzero fragment offset); ``payload``
    then holds the raw IP payload bytes of the fragment instead of the
    TCP payload.
    """

    ts: float
    ip: Ipv4Header
    tcp: TcpHeader | None
    payload: bytes = b""

    def __post_init__(self) -> None:
        expected = self.ip.ihl * 4 + len(self.payload)
        if self.tcp is not None:
            expected += self.tcp.data_offset * 4
        if self.ip.total_length != expected:
            raise ValueError(
                f"ip.total_length {self.ip.total_length} != header+payload {expected}"
            )

    @property
    def is_fragment(self) -> bool:
        return bool(self.ip.flags & IP_MF) or self.ip.frag_offset > 0

    def ip_payload(self) -> bytes:
        """The bytes carried after the IP header (TCP header included)."""
        if self.tcp is None:
            return self.payload
        return self.tcp.encode() + self.payload

    def encode(self) -> bytes:
        return self.ip.encode() + self.ip_payload()

    @classmethod
    def decode(
        cls, data: bytes, ts: float = 0.0, start: int = 0, end: int | None = None
    ) -> "PacketRecord":
        """The packet at the start of ``data[start:end]``; bytes past its
        ``total_length`` are ignored."""
        if end is None:
            end = len(data)
        ip = Ipv4Header.decode(data, start, end)
        stop = start + ip.total_length
        if end < stop:
            raise ValueError("buffer shorter than ip.total_length")
        body = start + ip.ihl * 4
        if ip.protocol == IPPROTO_TCP and not ip.flags & IP_MF and ip.frag_offset == 0:
            tcp = TcpHeader.decode(data, body, stop)
            return cls(ts, ip, tcp, bytes(data[body + tcp.data_offset * 4 : stop]))
        return cls(ts, ip, None, bytes(data[body:stop]))

    def with_checksums(
        self,
        ip_changes: Mapping = _NO_CHANGES,
        tcp_changes: Mapping = _NO_CHANGES,
        **changes,
    ) -> "PacketRecord":
        """Copy with valid IP (and, when present, TCP) checksums.

        ``ip_changes`` and ``tcp_changes`` are applied to the headers and
        ``changes`` (``ts``, ``payload``) to the record. The result is one
        new record, one new IP header, and a new TCP header only when a TCP
        field changes or its recomputed checksum differs from the stored
        one. Each checksum is computed on the new header and written into
        it before the copy is returned.
        """
        ip = replace(self.ip, **ip_changes)._write_checksum()
        tcp = self.tcp
        if tcp is not None:
            payload = changes.get("payload", self.payload)
            if tcp_changes:
                tcp = replace(tcp, **tcp_changes)._write_checksum(ip, payload)
            else:
                checksum = _zeroed_tcp_checksum(ip, tcp, payload)
                if checksum != tcp.checksum:
                    tcp = replace(tcp, checksum=checksum)
        return replace(self, ip=ip, tcp=tcp, **changes)

    _tcp_valid = None  # the verdict tcp_checksum_valid computed, once it has

    def tcp_checksum_valid(self) -> bool:
        """Whether a TCP header is present and its stored checksum equals
        the one computed (pseudo-header included) with the field zeroed.

        The comparison is exact, so a stored 0xFFFF is never valid, even
        though an RFC 1071 verifier summing the segment in place accepts it
        where the computed checksum is 0x0000. The verdict is computed the
        first time it is asked for, and kept.
        """
        valid = self._tcp_valid
        if valid is None:
            tcp = self.tcp
            valid = tcp is not None and (
                _zeroed_tcp_checksum(self.ip, tcp, self.payload) == tcp.checksum
            )
            _setattr(self, "_tcp_valid", valid)
        return valid


FlowKey = tuple[int, int, int, int]  # (src_addr, src_port, dst_addr, dst_port)


@dataclass
class FlowTrace:
    """Packets of one unidirectional TCP flow, in capture order: a list,
    or the row view of a packet table that ``group_flows`` returns."""

    key: FlowKey
    packets: Sequence[PacketRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.packets:
            raise ValueError("FlowTrace must contain at least one packet")

    def __len__(self) -> int:
        return len(self.packets)
