"""Per-packet 16-dimension feature rows and fixed-frame windowing.

Dimension layout (canonical order used everywhere, including on disk):

====  ==================  =========================================================
 dim  name                value
====  ==================  =========================================================
  0   iplen               IP total_length in bytes
  1   ipoffsetoverlap     cur.frag_offset - prev.frag_offset (8-byte units)
  2   ipflag              IP flags & (DF|MF): mf=1 df=2; the reserved bit is left out
  3   ipttldiff           cur.ttl - prev.ttl
  4   tcpchecksum_valid   1 if the stored TCP checksum equals the one computed
                          with the field zeroed, else 0 (0xFFFF is never valid)
  5   tcplen              TCP payload bytes
  6   tcpflag             TCP flags & 0x3F: fin=1 syn=2 rst=4 psh=8 ack=16 urg=32;
                          ECE, CWR, NS and the reserved bits feed no dim
  7   tcpsyn              the SYN bit, 0/1
  8   tcpseqdelta         seq - expected next seq (bytes, wrap-centered)
  9   tcpoverlap          max(0, prev.seq + prev payload len - cur.seq)
 10   tcpmss              value of the first MSS option (kind 2)
 11   tcpwscale           value of the first window-scale option (kind 3)
 12   tcptsval_present    1 if a timestamp option (kind 8) is present, else 0
 13   iproute             1 if a record-route, loose or strict source-route
                          IP option (kind 7, 131, 137) is present, else 0
 14   ipoptlen            (ihl-5)*4 bytes
 15   iptos               TOS byte
====  ==================  =========================================================

Sentinels: -1 means "no predecessor" (dims 1, 3, 9 on the first row);
-2 means "field absent" (TCP dims on fragments, options not present).

Both option blocks are read by one walk over their bytes: EOL (0) ends the
block, NOP (1) is one byte, and every other option is kind, length, value.
A length byte that is missing, below 2 or past the end of the block ends
the walk; that option's kind still counts as present (dims 12, 13), but its
value cannot be read, so dims 10 and 11 read -2 for it.

:func:`feature_matrix` takes two routes to the same values. A flow that
:func:`evasionlab.pcapio.group_flows` returned holds row views of a packet
table over wire bytes (``Capture.records`` is such a table, a lazy
``Sequence`` that decodes a record only when asked); the first call on any
flow of a grouping computes every flow of that grouping in one columnar
pass over the table's columns, and each call returns a copy of its flow's
rows. A flow of packet objects, as synthesis builds them, goes through one
loop over the packets: laying a few small flows out as columns costs more
than the loop saves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TraceTooShortError
from .packets import (
    IP_DF,
    IP_MF,
    IP_OPT_LSRR,
    IP_OPT_RECORD_ROUTE,
    IP_OPT_SSRR,
    TCP_FIN,
    TCP_OPT_EOL,
    TCP_OPT_MSS,
    TCP_OPT_NOP,
    TCP_OPT_TIMESTAMP,
    TCP_OPT_WSCALE,
    TCP_SYN,
    FlowTrace,
    _zeroed_tcp_checksum,
)
from .pcapio import FlowRows, PacketTable

FEATURE_DIM = 16
FRAME_MIN = 3
FRAME_MAX = 7

NO_PREDECESSOR = -1.0
ABSENT = -2.0

FEATURE_NAMES = (
    "iplen",
    "ipoffsetoverlap",
    "ipflag",
    "ipttldiff",
    "tcpchecksum_valid",
    "tcplen",
    "tcpflag",
    "tcpsyn",
    "tcpseqdelta",
    "tcpoverlap",
    "tcpmss",
    "tcpwscale",
    "tcptsval_present",
    "iproute",
    "ipoptlen",
    "iptos",
)

_ROUTE_KINDS = frozenset((IP_OPT_RECORD_ROUTE, IP_OPT_LSRR, IP_OPT_SSRR))


def _option_values(block: bytes) -> dict[int, bytes | None]:
    """The first value of each option kind in an IP or TCP option block.

    Both blocks share EOL (0) and NOP (1). A kind whose length byte is
    missing, below 2 or past the end of the block maps to None and ends
    the walk.
    """
    values: dict[int, bytes | None] = {}
    i, end = 0, len(block)
    while i < end:
        kind = block[i]
        if kind == TCP_OPT_EOL:
            break
        if kind == TCP_OPT_NOP:
            i += 1
            continue
        length = block[i + 1] if i + 1 < end else 0
        if length < 2 or i + length > end:
            values.setdefault(kind, None)
            break
        values.setdefault(kind, block[i + 2 : i + length])
        i += length
    return values


def _option_number(values: dict[int, bytes | None], kind: int) -> float:
    value = values.get(kind)
    return ABSENT if value is None else float(int.from_bytes(value, "big"))


# A sequence number difference is taken mod 2**32 and read in [-2**31, 2**31):
# ((d + _HALF_WRAP) & 0xFFFFFFFF) - _HALF_WRAP.
_HALF_WRAP = 1 << 31


def _centered(delta: np.ndarray) -> np.ndarray:
    return ((delta + _HALF_WRAP) & 0xFFFFFFFF) - _HALF_WRAP


def _table_matrix(table: PacketTable, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Feature rows of the packets at rows ``order`` of ``table``, flows laid
    end to end with one starting at each index in ``starts``.

    The same values as the loop in :func:`feature_matrix`, from columns: a
    row's predecessor is the row before it unless it starts a flow, and a
    TCP row's sequence expectation comes from the last TCP row before it in
    its flow. Option blocks are walked only where they are not empty.
    """
    n = len(order)
    index = np.arange(n)
    first = np.zeros(n, dtype=bool)
    first[starts[:-1]] = True
    tcp = table.has_tcp[order]
    out = np.empty((n, FEATURE_DIM))
    out[:, 0] = table.total_length[order]
    out[1:, 1] = np.diff(table.frag_offset[order].astype(np.int64))
    out[1:, 3] = np.diff(table.ttl[order].astype(np.int64))
    out[:, 2] = table.ip_flags[order] & (IP_DF | IP_MF)

    seq = table.seq[order].astype(np.int64)
    length = table.payload_len[order]
    flags = table.tcp_flags[order].astype(np.int64)
    syn = (flags & TCP_SYN) >> 1
    out[:, 4] = table.checksum_valid[order]
    out[:, 5] = length
    out[:, 6] = flags & 0x3F
    out[:, 7] = syn
    expected = (seq + length + syn + (flags & TCP_FIN)) & 0xFFFFFFFF
    last_tcp = np.maximum.accumulate(np.where(tcp, index, -1))
    prior = np.concatenate(([-1], last_tcp[:-1]))
    flow_start = np.maximum.accumulate(np.where(first, index, 0))
    out[:, 8] = np.where(prior >= flow_start, _centered(seq - expected[prior]), 0)
    out[1:, 9] = np.where(
        tcp[:-1], np.maximum(0, _centered(seq[:-1] + length[:-1] - seq[1:])), ABSENT
    )
    out[:, 10:12] = ABSENT
    out[:, 12] = 0.0
    data = table.data
    rows = order.tolist()
    tcp_at, payload_at = table.tcp_at, table.payload_at
    for i in np.flatnonzero(tcp & (payload_at[order] - tcp_at[order] > 20)).tolist():
        row = rows[i]
        options = _option_values(data[tcp_at[row] + 20 : payload_at[row]])
        out[i, 10] = _option_number(options, TCP_OPT_MSS)
        out[i, 11] = _option_number(options, TCP_OPT_WSCALE)
        out[i, 12] = 1.0 if TCP_OPT_TIMESTAMP in options else 0.0
    out[~tcp, 4:13] = ABSENT  # a fragment exposes no TCP header

    ihl4 = table.ihl4[order]
    out[:, 13] = 0.0
    ip = table.ip
    for i in np.flatnonzero(ihl4 > 20).tolist():
        row = rows[i]
        if not _ROUTE_KINDS.isdisjoint(_option_values(data[ip[row] + 20 : tcp_at[row]])):
            out[i, 13] = 1.0
    out[:, 14] = ihl4 - 20
    out[:, 15] = table.tos[order]
    out[first, 1] = out[first, 3] = out[first, 9] = NO_PREDECESSOR
    return out.astype(np.float32)


def feature_matrix(trace: FlowTrace) -> np.ndarray:
    """One row per packet, shape (len(trace), 16), float32, which the caller
    owns.

    The sequence delta of the first TCP packet reads 0: it sets the
    stream's first expectation. A flow of :func:`evasionlab.pcapio.group_flows`
    is read from its grouping's columns (see the module docstring). Any
    other flow takes one pass that reads each header field once and keeps
    what the next row needs of this packet; an option block is walked only
    when it is not empty. The rows' values go into one flat list, converted
    once.
    """
    packets = trace.packets
    if isinstance(packets, FlowRows):
        grouping = packets.grouping
        if grouping.matrix is None:
            grouping.matrix = _table_matrix(grouping.table, grouping.order, grouping.starts)
        return grouping.matrix[packets.lo : packets.hi].copy()
    values: list = []
    expected_seq: int | None = None
    prev_offset = prev_ttl = 0
    prev_end: int | None = None  # seq + payload length of a TCP predecessor
    for pkt in packets:
        ip, tcp = pkt.ip, pkt.tcp
        offset, ttl, ip_options = ip.frag_offset, ip.ttl, ip.options
        if ip_options and not _ROUTE_KINDS.isdisjoint(_option_values(ip_options)):
            iproute = 1.0
        else:
            iproute = 0.0
        if tcp is None:
            # a fragment exposes no TCP header: dims 4-8 and 10-12 absent
            valid = length = flags = syn = seq_delta = overlap = mss = wscale = tsval = ABSENT
            end = None
        else:
            payload, seq, tcp_flags, tcp_options = pkt.payload, tcp.seq, tcp.flags, tcp.options
            valid = 1.0 if _zeroed_tcp_checksum(ip, tcp, payload) == tcp.checksum else 0.0
            length = len(payload)
            flags = tcp_flags & 0x3F
            syn = 1 if tcp_flags & TCP_SYN else 0
            if expected_seq is None:
                seq_delta = 0
            else:
                seq_delta = ((seq - expected_seq + _HALF_WRAP) & 0xFFFFFFFF) - _HALF_WRAP
            if prev_end is None:
                overlap = ABSENT
            else:
                overlap = max(0, ((prev_end - seq + _HALF_WRAP) & 0xFFFFFFFF) - _HALF_WRAP)
            if tcp_options:
                options = _option_values(tcp_options)
                mss = _option_number(options, TCP_OPT_MSS)
                wscale = _option_number(options, TCP_OPT_WSCALE)
                tsval = 1.0 if TCP_OPT_TIMESTAMP in options else 0.0
            else:
                mss = wscale = ABSENT
                tsval = 0.0
            end = seq + length
            expected_seq = (end + syn + (tcp_flags & TCP_FIN)) & 0xFFFFFFFF
        if not values:  # the first row
            d_offset = d_ttl = overlap = NO_PREDECESSOR
        else:
            d_offset = offset - prev_offset
            d_ttl = ttl - prev_ttl
        values += (
            ip.total_length, d_offset, ip.flags & (IP_DF | IP_MF), d_ttl,
            valid, length, flags, syn, seq_delta, overlap, mss, wscale, tsval,
            iproute, len(ip_options), ip.tos,
        )
        prev_offset, prev_ttl, prev_end = offset, ttl, end
    return np.array(values, dtype=np.float32).reshape(-1, FEATURE_DIM)


@dataclass
class FeatureSequence:
    """One classifier sample: 3 to 7 consecutive feature rows plus a label."""

    rows: np.ndarray  # (n, 16) float32
    label: int

    def __post_init__(self) -> None:
        if self.rows.ndim != 2 or self.rows.shape[1] != FEATURE_DIM:
            raise ValueError(f"rows must be (n, {FEATURE_DIM}), got {self.rows.shape}")
        if not FRAME_MIN <= len(self.rows) <= FRAME_MAX:
            raise ValueError(
                f"sequence length {len(self.rows)} outside [{FRAME_MIN}, {FRAME_MAX}]"
            )
        if not 0 <= self.label <= 255:
            raise ValueError(f"label {self.label} does not fit in a byte")


def window_matrix(matrix: np.ndarray, frame: int) -> list[np.ndarray]:
    """Non-overlapping windows of ``frame`` rows; a short tail is kept only
    when it still has at least 3 rows."""
    if not FRAME_MIN <= frame <= FRAME_MAX:
        raise ValueError(f"frame must be in [{FRAME_MIN}, {FRAME_MAX}], got {frame}")
    out = []
    for start in range(0, len(matrix), frame):
        window = matrix[start : start + frame]
        if len(window) >= FRAME_MIN:
            out.append(np.array(window, dtype=np.float32))
    return out


def extract_sequences(
    trace: FlowTrace, frame: int, label: int
) -> list[FeatureSequence]:
    if len(trace.packets) < FRAME_MIN:
        raise TraceTooShortError(
            f"trace has {len(trace.packets)} packets, need at least {FRAME_MIN}"
        )
    matrix = feature_matrix(trace)
    return [FeatureSequence(rows=w, label=label) for w in window_matrix(matrix, frame)]


@dataclass
class FeatureScaler:
    """Optional per-dimension affine map x -> (x - shift) / scale.

    Fit on the training split only; near-constant dims keep scale 1 so the
    map stays invertible.
    """

    shift: np.ndarray  # (16,) float64
    scale: np.ndarray  # (16,) float64

    @classmethod
    def fit(cls, samples: list[FeatureSequence]) -> "FeatureScaler":
        if not samples:
            raise ValueError("cannot fit a scaler on zero samples")
        stacked = np.concatenate([s.rows for s in samples]).astype(np.float64)
        shift = stacked.mean(axis=0)
        scale = stacked.std(axis=0)
        scale[scale < 1e-6] = 1.0
        return cls(shift=shift, scale=scale)

    def transform(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(rows - shift) / scale`` in float64, written into ``out`` when
        given (a float64 array of the rows' shape), else into one new array."""
        out = np.subtract(rows, self.shift, out=out, dtype=np.float64)
        out /= self.scale
        return out


__all__ = [
    "FEATURE_DIM",
    "FRAME_MIN",
    "FRAME_MAX",
    "FEATURE_NAMES",
    "NO_PREDECESSOR",
    "ABSENT",
    "feature_matrix",
    "FeatureSequence",
    "window_matrix",
    "extract_sequences",
    "FeatureScaler",
]
