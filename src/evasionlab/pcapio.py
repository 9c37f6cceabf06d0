"""Classic pcap (v2.4) reading and writing over an Ethernet link layer.

Both byte orders are accepted on read, detected from the magic number.
A capture is read whole, with one ``read()`` call that runs to the end of
the stream, however short the stream's reads, and decoded into one
columnar :class:`PacketTable` over that buffer:

- one loop over the record headers finds every frame's offsets;
- numpy gathers the fixed IP and TCP header fields of every frame at once,
  and only from frames whose earlier checks have passed, so a header
  length can never send a gather past its frame;
- frames that are not IPv4/TCP are dropped and counted by reason;
- every TCP segment's RFC 1071 sum comes from two ``np.add.reduceat``
  passes, over the bytes at even and at odd file positions (section 2 of
  the RFC lets the sum run over words in any order, so a segment's sum
  is 256 times the sum of its high bytes plus the sum of its low bytes,
  and the segment's start parity says which half holds the high bytes).

No header is copied out of the buffer. ``Capture.records`` is the table
itself: a read-only ``Sequence[PacketRecord]`` that decodes a record with
:meth:`PacketRecord.decode` at the stored offsets only when a caller
indexes or iterates it. :func:`group_flows` keys the table's columns into
flows whose ``packets`` are row views of the table, and
:func:`evasionlab.features.feature_matrix` reads those rows' features from
the columns. Writes always use the little-endian magic with microsecond
timestamps.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadMagicError, TruncatedFileError
from .packets import (
    IPPROTO_TCP,
    FlowTrace,
    PacketRecord,
)

PCAP_MAGIC_LE = 0xA1B2C3D4
PCAP_MAGIC_BE = 0xD4C3B2A1  # the LE magic seen through the wrong byte order

LINKTYPE_ETHERNET = 1
ETHERTYPE_IPV4 = 0x0800
ETH_HEADER_LEN = 14

# Locally administered unicast MACs; real capture hardware never matters here.
MAC_SRC = bytes.fromhex("020000000001")
MAC_DST = bytes.fromhex("020000000002")

GLOBAL_HEADER = struct.Struct("IHHiIII")  # magic, major, minor, tz, sigfigs, snaplen, network
RECORD_HEADER = struct.Struct("IIII")  # ts_sec, ts_usec, incl_len, orig_len
_ETHERTYPE = struct.Struct("!H")
_ETHERTYPE_HI, _ETHERTYPE_LO = _ETHERTYPE.pack(ETHERTYPE_IPV4)  # read byte by byte

# The fixed 20 bytes of each header, and the ports that lead a first fragment.
_IP_FIELDS = np.dtype([
    ("ver_ihl", "u1"), ("tos", "u1"), ("total_length", ">u2"), ("ident", ">u2"),
    ("flags_frag", ">u2"), ("ttl", "u1"), ("protocol", "u1"), ("checksum", ">u2"),
    ("src", ">u4"), ("dst", ">u4"),
])
_TCP_FIELDS = np.dtype([
    ("sport", ">u2"), ("dport", ">u2"), ("seq", ">u4"), ("ack", ">u4"),
    ("off_flags", ">u2"), ("window", ">u2"), ("checksum", ">u2"), ("urgent", ">u2"),
])
_PORT_FIELDS = np.dtype([("sport", ">u2"), ("dport", ">u2")])


@dataclass
class CaptureStats:
    packets_total: int = 0
    packets_tcp: int = 0
    packets_skipped: int = 0
    flows: int = 0
    skipped_link: int = 0
    skipped_protocol: int = 0


def _gather(buf: np.ndarray, at: np.ndarray, fields: np.dtype) -> np.ndarray:
    """The fixed-size record ``fields`` at each offset in ``at`` of ``buf``,
    copied out through a sliding-window view (no index block per byte)."""
    if not len(at):
        return np.zeros(0, dtype=fields)
    return sliding_window_view(buf, fields.itemsize)[at].view(fields)[:, 0]


def _segment_sums(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Unfolded RFC 1071 sums of the byte ranges ``[lo, hi)`` of ``buf``.

    The ranges must lie in increasing order without overlapping, each at
    least 2 bytes long. The bytes at file positions of one parity are one
    strided half of the buffer; each range's part of a half is summed by
    one ``reduceat`` over pairs of (first, past-the-end) indices, of which
    only the first of each pair is kept (the second sums the gap up to the
    next range). A past-the-end index equal to the half's length is left
    out: the last range then runs to the end of the half. An odd-length
    range ends on a high byte, so the zero that pads it adds nothing.
    """
    if not len(lo):
        return np.zeros(0, dtype=np.int64)
    halves = []
    for parity in (0, 1):
        half = buf[parity::2]
        bounds = np.column_stack(((lo - parity + 1) // 2, (hi - parity + 1) // 2)).ravel()
        if bounds[-1] == len(half):
            bounds = bounds[:-1]
        halves.append(np.add.reduceat(half, bounds, dtype=np.uint32)[::2].astype(np.int64))
    even, odd = halves
    return np.where(lo % 2 == 0, (even << 8) + odd, (odd << 8) + even)


class PacketTable(Sequence[PacketRecord]):
    """IPv4/TCP packets as columns over the wire bytes that hold them.

    Row ``i`` is the packet whose IP header starts at ``ip[i]`` of
    ``data`` and whose frame ends at ``end[i]``; ``has_tcp[i]`` says
    whether it carries a TCP header (otherwise it is a fragment whose TCP
    header, if any, is not readable). The columns are numpy arrays, one
    value per row. ``sport`` and ``dport`` also hold the first four
    payload bytes of a fragment that has them, where a first fragment
    carries its TCP ports. ``checksum_valid`` is the exact compare of
    feature dim 4: the stored TCP checksum equals the one computed over
    the segment as sent, with the field zeroed.

    As a sequence, row ``i`` is a :class:`PacketRecord`, decoded from the
    bytes when it is asked for (or, for a table built from records, the
    record itself).
    """

    def __init__(
        self,
        data: bytes,
        ts: np.ndarray,
        ip: np.ndarray,
        end: np.ndarray,
        has_tcp: np.ndarray,
        ip_fields: np.ndarray,
        tcp_fields: np.ndarray,
        records: list[PacketRecord] | None = None,
    ) -> None:
        self.data, self.ts, self.ip, self.end, self.has_tcp = data, ts, ip, end, has_tcp
        self._records = records
        self.ihl4 = (ip_fields["ver_ihl"] & 0x0F).astype(np.intp) * 4
        self.total_length = ip_fields["total_length"].astype(np.intp)
        self.ident = ip_fields["ident"]
        self.ip_flags = ip_fields["flags_frag"] >> 13
        self.frag_offset = ip_fields["flags_frag"] & 0x1FFF
        self.tos, self.ttl = ip_fields["tos"], ip_fields["ttl"]
        self.src, self.dst = ip_fields["src"], ip_fields["dst"]
        self.tcp_at = ip + self.ihl4
        self.payload_at = self.tcp_at + np.where(
            has_tcp, (tcp_fields["off_flags"] >> 12).astype(np.intp) * 4, 0
        )
        self.payload_len = ip + self.total_length - self.payload_at
        self.seq = tcp_fields["seq"]
        self.tcp_flags = tcp_fields["off_flags"] & 0xFFF
        buf = np.frombuffer(data, dtype=np.uint8)
        self.sport, self.dport = tcp_fields["sport"].copy(), tcp_fields["dport"].copy()
        ported = np.flatnonzero(~has_tcp & (self.payload_len >= 4))
        ports = _gather(buf, self.payload_at[ported], _PORT_FIELDS)
        self.sport[ported], self.dport[ported] = ports["sport"], ports["dport"]

        tcp = np.flatnonzero(has_tcp)
        seg_end = ip[tcp] + self.total_length[tcp]
        src, dst = self.src[tcp].astype(np.int64), self.dst[tcp].astype(np.int64)
        stored = tcp_fields["checksum"][tcp].astype(np.int64)
        # the zeroed sum: the pseudo-header's words (addresses, protocol,
        # length) plus the segment, less the stored field; it is never
        # zero, as the protocol adds 6
        zeroed = (
            _segment_sums(buf, self.tcp_at[tcp], seg_end)
            + (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
            + IPPROTO_TCP + (seg_end - self.tcp_at[tcp]) - stored
        )
        folded = zeroed % 0xFFFF
        folded[folded == 0] = 0xFFFF
        self.checksum_valid = np.zeros(len(ip), dtype=bool)
        self.checksum_valid[tcp] = 0xFFFF - folded == stored

    @classmethod
    def from_records(cls, records: Iterable[PacketRecord]) -> "PacketTable":
        """The table of ``records`` laid end to end as their encodings."""
        records = list(records)
        encoded = [pkt.encode() for pkt in records]
        data = b"".join(encoded)
        n = len(records)
        lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=n)
        end = np.cumsum(lengths)
        ip = end - lengths
        has_tcp = np.fromiter((pkt.tcp is not None for pkt in records), dtype=bool, count=n)
        ts = np.fromiter((pkt.ts for pkt in records), dtype=np.float64, count=n)
        buf = np.frombuffer(data, dtype=np.uint8)
        ip_fields = _gather(buf, ip, _IP_FIELDS)
        tcp_fields = np.zeros(n, dtype=_TCP_FIELDS)
        tcp_at = ip[has_tcp] + (ip_fields["ver_ihl"][has_tcp] & 0x0F).astype(np.intp) * 4
        tcp_fields[has_tcp] = _gather(buf, tcp_at, _TCP_FIELDS)
        return cls(data, ts, ip, end, has_tcp, ip_fields, tcp_fields, records)

    def __len__(self) -> int:
        return len(self.ip)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if self._records is not None:
            return self._records[i]
        return PacketRecord.decode(
            self.data, float(self.ts[i]), int(self.ip[i]), int(self.end[i])
        )


@dataclass
class Capture:
    """Decoded contents of one pcap file; ``records`` decodes lazily."""

    records: PacketTable
    stats: CaptureStats = field(default_factory=CaptureStats)


def read_pcap(fh: BinaryIO) -> Capture:
    """Parse a classic pcap stream into a table of IPv4/TCP packets."""
    data = fh.read()
    if len(data) < GLOBAL_HEADER.size:
        raise TruncatedFileError(
            f"pcap global header needs {GLOBAL_HEADER.size} bytes, got {len(data)}"
        )
    (magic_le,) = struct.unpack_from("<I", data)
    if magic_le == PCAP_MAGIC_LE:
        endian = "<"
    elif magic_le == PCAP_MAGIC_BE:
        endian = ">"
    else:
        raise BadMagicError(f"not a classic pcap file (magic 0x{magic_le:08x})")
    network = struct.unpack_from(endian + GLOBAL_HEADER.format, data)[-1]
    if network != LINKTYPE_ETHERNET:
        raise BadMagicError(f"unsupported link type {network}, want Ethernet (1)")

    unpack_length = struct.Struct(endian + "I").unpack_from
    heads: list[int] = []
    pos, size = GLOBAL_HEADER.size, len(data)
    while pos + RECORD_HEADER.size <= size:
        heads.append(pos)
        pos += RECORD_HEADER.size + unpack_length(data, pos + 8)[0]
    if pos > size:
        start = heads[-1] + RECORD_HEADER.size
        raise TruncatedFileError(
            f"expected {pos - start} bytes for pcap record body, got {size - start}"
        )
    if pos < size:
        raise TruncatedFileError("pcap record header truncated at end of file")

    buf = np.frombuffer(data, dtype=np.uint8)
    frame = np.array(heads, dtype=np.intp)
    record = _gather(buf, frame, np.dtype(
        [(name, endian + "u4") for name in ("ts_sec", "ts_usec", "incl_len", "orig_len")]
    ))
    frame += RECORD_HEADER.size
    frame_len = record["incl_len"].astype(np.intp)
    rows = np.flatnonzero(frame_len >= ETH_HEADER_LEN)
    ethertype = frame[rows] + 12
    rows = rows[(buf[ethertype] == _ETHERTYPE_HI) & (buf[ethertype + 1] == _ETHERTYPE_LO)]
    skipped_link = len(heads) - len(rows)
    ipv4 = len(rows)

    # PacketRecord.decode raises ValueError on each frame dropped below
    rows = rows[frame_len[rows] - ETH_HEADER_LEN >= 20]
    ip = frame[rows] + ETH_HEADER_LEN
    room = frame_len[rows] - ETH_HEADER_LEN
    ip_fields = _gather(buf, ip, _IP_FIELDS)
    ihl4 = (ip_fields["ver_ihl"] & 0x0F).astype(np.intp) * 4
    total = ip_fields["total_length"].astype(np.intp)
    flags_frag = ip_fields["flags_frag"].astype(np.intp)
    keep = (
        (ip_fields["ver_ihl"] >> 4 == 4)
        & (ihl4 >= 20)
        & (ihl4 <= total)
        & (total <= room)
        & ((flags_frag & 0x1FFF) * 8 + total - ihl4 <= 0xFFFF)
        & (ip_fields["protocol"] == IPPROTO_TCP)
    )
    has_tcp = flags_frag & 0x3FFF == 0  # MF clear, offset 0
    tcp = np.flatnonzero(keep & has_tcp)
    short = total[tcp] - ihl4[tcp] < 20
    keep[tcp[short]] = False
    tcp = tcp[~short]
    tcp_fields = np.zeros(len(ip), dtype=_TCP_FIELDS)
    tcp_fields[tcp] = _gather(buf, ip[tcp] + ihl4[tcp], _TCP_FIELDS)
    doff4 = (tcp_fields["off_flags"][tcp] >> 12).astype(np.intp) * 4
    keep[tcp[(doff4 < 20) | (doff4 > total[tcp] - ihl4[tcp])]] = False

    ts = record["ts_sec"][rows] + record["ts_usec"][rows] / 1_000_000
    table = PacketTable(
        data, ts[keep], ip[keep], (frame + frame_len)[rows][keep], has_tcp[keep],
        ip_fields[keep], tcp_fields[keep],
    )
    skipped_protocol = ipv4 - len(table)
    stats = CaptureStats(
        packets_total=len(heads),
        packets_tcp=len(table),
        packets_skipped=skipped_link + skipped_protocol,
        skipped_link=skipped_link,
        skipped_protocol=skipped_protocol,
    )
    return Capture(records=table, stats=stats)


def write_pcap(fh: BinaryIO, packets: Iterable[PacketRecord], snaplen: int = 65535) -> None:
    """Write packets as a little-endian classic pcap with Ethernet framing."""
    fh.write(
        GLOBAL_HEADER.pack(PCAP_MAGIC_LE, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET)
    )
    eth = MAC_DST + MAC_SRC + _ETHERTYPE.pack(ETHERTYPE_IPV4)
    for pkt in packets:
        frame = eth + pkt.encode()
        ts_sec = int(pkt.ts)
        ts_usec = int(round((pkt.ts - ts_sec) * 1_000_000))
        if ts_usec >= 1_000_000:
            ts_sec += 1
            ts_usec -= 1_000_000
        fh.write(RECORD_HEADER.pack(ts_sec, ts_usec, len(frame), len(frame)))
        fh.write(frame)


class FlowGrouping:
    """The flows of one :func:`group_flows` call over one table.

    Their rows lie end to end in ``order``: flow ``f`` holds rows
    ``order[starts[f]:starts[f + 1]]`` of ``table``. ``matrix`` holds the
    feature rows of all of them once
    :func:`evasionlab.features.feature_matrix` has computed it.
    """

    def __init__(self, table: PacketTable, order: np.ndarray, sizes: np.ndarray) -> None:
        self.table, self.order = table, order
        self.starts = np.concatenate(([0], np.cumsum(sizes)))
        self.matrix: np.ndarray | None = None


class FlowRows(Sequence[PacketRecord]):
    """The packets of one flow of a grouping: rows ``order[lo:hi]`` of its
    table, each decoded when it is asked for."""

    def __init__(self, grouping: FlowGrouping, lo: int, hi: int) -> None:
        self.grouping, self.lo, self.hi = grouping, lo, hi

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if not -len(self) <= i < len(self):
            raise IndexError(f"packet {i} of a {len(self)}-packet flow")
        return self.grouping.table[self.grouping.order[self.lo + i % len(self)]]


def group_flows(records: Sequence[PacketRecord]) -> list[FlowTrace]:
    """Split packets into unidirectional flows keyed by (src, sport, dst, dport).

    Later fragments carry no ports, so they join the flow claimed by the
    offset-zero fragment with the same (src, dst, IP id); that first
    fragment still has the TCP ports at the start of its payload. An
    offset-zero fragment whose (src, dst, IP id) is already claimed
    overlaps the first one (its leading bytes may be junk), so it joins
    that flow too. Trailing fragments whose first piece never appeared are
    dropped.

    A list of records is first laid out as a :class:`PacketTable`; each
    flow's ``packets`` are row views of the table.
    """
    table = records if isinstance(records, PacketTable) else PacketTable.from_records(records)
    src, dst, ident = (column.tolist() for column in (table.src, table.dst, table.ident))
    source = np.arange(len(table))  # the row whose (src, sport, dst, dport) keys each row
    fragments = np.flatnonzero(~table.has_tcp)
    # a first fragment has TCP source/destination ports leading its payload
    may_own = (table.frag_offset[fragments] == 0) & (table.payload_len[fragments] >= 4)
    owners: dict[tuple[int, int, int], int] = {}
    for row, first in zip(fragments.tolist(), may_own.tolist()):
        frag = (src[row], dst[row], ident[row])
        owner = owners.get(frag)
        if owner is None and first:
            owner = owners[frag] = row
        source[row] = -1 if owner is None else owner
    rows = np.flatnonzero(source >= 0)  # orphan fragments are dropped
    source = source[rows]
    # number each row's 96-bit key: number its two 48-bit halves, then the pairs
    halves = [
        np.unique((addr[source].astype(np.int64) << 16) | port[source], return_inverse=True)[1]
        for addr, port in ((table.src, table.sport), (table.dst, table.dport))
    ]
    _, first, inverse = np.unique(
        halves[0] * len(rows) + halves[1], return_index=True, return_inverse=True
    )
    by_first = np.argsort(first)  # flows in order of their first packet
    flow = np.argsort(by_first)[inverse]
    grouping = FlowGrouping(table, rows[np.argsort(flow, kind="stable")], np.bincount(flow))
    key_rows = source[first[by_first]]
    keys = zip(*(column[key_rows].tolist()
                 for column in (table.src, table.sport, table.dst, table.dport)))
    bounds = grouping.starts.tolist()
    return [
        FlowTrace(key=key, packets=FlowRows(grouping, lo, hi))
        for key, lo, hi in zip(keys, bounds, bounds[1:])
    ]


def read_flows(path: str) -> tuple[list[FlowTrace], CaptureStats]:
    with open(path, "rb") as fh:
        capture = read_pcap(fh)
    flows = group_flows(capture.records)
    capture.stats.flows = len(flows)
    return flows, capture.stats


__all__ = [
    "Capture",
    "CaptureStats",
    "PacketTable",
    "FlowRows",
    "read_pcap",
    "write_pcap",
    "group_flows",
    "read_flows",
    "PCAP_MAGIC_LE",
    "LINKTYPE_ETHERNET",
]
