"""Typed IPv4/TCP packet model with byte-exact serialization.

All header types are frozen dataclasses and nothing mutates a packet once
it is shared. The transforms of :mod:`evasionlab.synth` build each new
header with one positional constructor call, reading unchanged fields from
the source header; :func:`evolve` makes a validated copy with some fields
changed, for callers that change a few fields of one header. Addresses are
kept as 32-bit ints; helpers convert to/from dotted quads for display only.

Each header field holds the wire's bits. ``Ipv4Header.flags`` is the 3-bit
field above the fragment offset (reserved, ``IP_DF``, ``IP_MF``) and
``TcpHeader.flags`` the 12 bits below the data offset (the reserved nibble,
NS, CWR, ECE and the six classic bits ``TCP_FIN`` to ``TCP_URG``). Both
headers keep their options as the raw bytes they carry; nothing parses
them on decode, so ``encode(decode(frame)) == frame`` for every frame that
decodes, whatever its option bytes hold. Readers of option values walk the
bytes themselves (see :mod:`evasionlab.features`).

``Ipv4Header.with_checksum`` and ``PacketRecord.with_checksums`` are the
public copy API: they take the field changes themselves, so a rewritten
packet costs one copy per header it changes plus one record. A header's
``_write_checksum`` computes its checksum and writes it into the header
(XOR a mask, for chaff whose checksum must be wrong); it is only called on
a header just built that nothing else holds yet, so no shared header ever
changes. Checksums are always recomputed from the header bytes, never
updated from the stored value, so a packet that arrives with a wrong
checksum leaves with a valid one.

The TCP checksum sums its segment as two integers, the encoded header and
the payload, and never concatenates them: the payload's integer, the one
large one, is reduced modulo 0xFFFF once (and shifted left by 8 when its
length is odd, which pads it for summation), and the header's integer and
the pseudo-header's words are added to that small integer.
"""

from __future__ import annotations

import functools
import operator
import struct
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import repeat
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


# evolve sets each field of a copy directly, past the frozen __setattr__
_new = object.__new__
_setattr = object.__setattr__
_consume = deque(maxlen=0).extend  # runs an iterator to its end

_NO_CHANGES: Mapping = MappingProxyType({})


@functools.cache
def _field_reader(cls: type) -> tuple[tuple[str, ...], operator.attrgetter]:
    """The field names of a packet dataclass and a getter of their values.

    Every packet dataclass has several fields, so the getter returns a tuple.
    """
    names = tuple(cls.__dataclass_fields__)
    return names, operator.attrgetter(*names)


def evolve(obj, **changes):
    """Copy of the frozen packet dataclass ``obj`` with ``changes`` applied.

    The same result as ``dataclasses.replace``, without its field walk in
    Python and the generated ``__init__``: C-level loops set the copy's
    fields in field order, as ``__init__`` does, so the copy is laid out
    like a constructed instance and its fields read as fast. (A copy given
    a copied ``__dict__`` is cheaper to make, but CPython 3.11 reads its
    fields on an unspecialized, slower path.) As with ``replace``, an
    unknown field name raises ``TypeError`` and the copy's
    ``__post_init__`` runs, so an invalid change raises ``ValueError``.
    """
    cls = type(obj)
    names, values_of = _field_reader(cls)
    if not changes.keys() <= cls.__dataclass_fields__.keys():
        unknown = sorted(changes.keys() - cls.__dataclass_fields__.keys())
        raise TypeError(f"{cls.__name__} has no field(s) {', '.join(unknown)}")
    new = _new(cls)
    _consume(map(_setattr, repeat(new), names, values_of(obj)))
    _consume(map(_setattr, repeat(new), changes.keys(), changes.values()))
    new.__post_init__()
    return new


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


def _tcp_sum(src_addr: int, dst_addr: int, header: bytes, payload: bytes) -> int:
    """Sum of the IPv4 pseudo-header and a TCP segment, congruent modulo
    0xFFFF to the unfolded RFC 1071 sum.

    The segment is summed as two integers, ``header`` (whole 16-bit words)
    and ``payload``. As 2**16 = 1 (mod 0xFFFF), the payload's integer is
    congruent to the sum of its words; it is reduced modulo 0xFFFF once,
    then shifted left by 8 when the payload's length is odd, which zero-pads
    it for summation. The header's integer and the pseudo-header's words
    are added to that small integer: a 32-bit address counts as its two
    16-bit words.
    """
    length = len(header) + len(payload)
    if length > 0xFFFF:
        raise ValueError(f"TCP segment length {length} exceeds 65535")
    n = int.from_bytes(payload, "big") % 0xFFFF
    if len(payload) % 2:
        n <<= 8
    return n + int.from_bytes(header, "big") + src_addr + dst_addr + IPPROTO_TCP + length


def _checksum_if_zeroed(n: int, stored: int) -> int:
    """Checksum of the bytes summed in ``n`` with their field ``stored`` zeroed.

    Zeroing the field takes ``stored`` off the sum modulo 0xFFFF, so no
    zeroed copy is needed: ``n + 0xFFFF - stored`` is congruent to the
    zeroed sum. Like that sum it is never zero (``n`` is positive, as an
    IPv4 header's version nibble is 4 and the TCP pseudo-header adds
    protocol 6, and ``stored`` is at most 0xFFFF), so both fold to the
    same value.
    """
    return 0xFFFF - _fold(n + 0xFFFF - stored)


def tcp_checksum(src_addr: int, dst_addr: int, tcp_bytes: bytes, payload: bytes) -> int:
    """TCP checksum with the IPv4 pseudo-header (src, dst, proto 6, length).

    ``tcp_bytes`` is the serialized TCP header with its checksum field
    zeroed; it must be whole 16-bit words. Odd-length payloads are
    zero-padded for summation only.
    """
    if len(tcp_bytes) % 2:
        raise OddLengthError(f"TCP header has odd length {len(tcp_bytes)}")
    return _checksum_if_zeroed(_tcp_sum(src_addr, dst_addr, tcp_bytes, payload), 0)


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

    def _zeroed_checksum(self) -> int:
        return _checksum_if_zeroed(int.from_bytes(self.encode(), "big"), self.checksum)

    def _write_checksum(self, mask: int = 0) -> "Ipv4Header":
        """Write the recomputed checksum, XOR ``mask``, into this header.

        Only for a header just built that nothing else holds yet.
        """
        _setattr(self, "checksum", self._zeroed_checksum() ^ mask)
        return self

    def with_checksum(self, **changes) -> "Ipv4Header":
        """One copy with ``changes`` applied and its checksum recomputed.

        The checksum is computed over the copy's encoding with the field
        zeroed and written into the copy before it is returned.
        """
        return evolve(self, **changes)._write_checksum()

    def checksum_valid(self) -> bool:
        """Whether the stored checksum equals the one computed over the
        encoding with the checksum field zeroed.

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
    the field zeroed."""
    n = _tcp_sum(ip.src_addr, ip.dst_addr, tcp.encode(), payload)
    return _checksum_if_zeroed(n, tcp.checksum)


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
        ip = evolve(self.ip, **ip_changes)._write_checksum()
        tcp = self.tcp
        if tcp is not None:
            payload = changes.get("payload", self.payload)
            if tcp_changes:
                tcp = evolve(tcp, **tcp_changes)._write_checksum(ip, payload)
            else:
                checksum = _zeroed_tcp_checksum(ip, tcp, payload)
                if checksum != tcp.checksum:
                    tcp = evolve(tcp, checksum=checksum)
        return evolve(self, ip=ip, tcp=tcp, **changes)

    def tcp_checksum_valid(self) -> bool:
        """Whether a TCP header is present and its stored checksum equals
        the one computed (pseudo-header included) with the field zeroed.

        The comparison is exact, so a stored 0xFFFF is never valid, even
        though an RFC 1071 verifier summing the segment in place accepts it
        where the computed checksum is 0x0000.
        """
        if self.tcp is None:
            return False
        return _zeroed_tcp_checksum(self.ip, self.tcp, self.payload) == self.tcp.checksum


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
