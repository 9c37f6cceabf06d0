"""Per-packet 16-dimension feature rows and fixed-frame windowing.

Dimension layout (canonical order used everywhere, including on disk):

====  ==================  =========================================================
 dim  name                value
====  ==================  =========================================================
  0   iplen               IP total_length in bytes
  1   ipoffsetoverlap     cur.frag_offset - prev.frag_offset (8-byte units)
  2   ipflag              mf + 2*df
  3   ipttldiff           cur.ttl - prev.ttl
  4   tcpchecksum_valid   1 if the stored TCP checksum equals the one computed
                          with the field zeroed, else 0 (0xFFFF is never valid)
  5   tcplen              TCP payload bytes
  6   tcpflag             fin=1 syn=2 rst=4 psh=8 ack=16 urg=32 bitmask
  7   tcpsyn              0/1
  8   tcpseqdelta         seq - expected next seq (bytes, wrap-centered)
  9   tcpoverlap          max(0, prev.seq + prev payload len - cur.seq)
 10   tcpmss              MSS option value
 11   tcpwscale           window-scale option value
 12   tcptsval_present    0/1
 13   iproute             1 if a route/record-route IP option is present
 14   ipoptlen            (ihl-5)*4 bytes
 15   iptos               TOS byte
====  ==================  =========================================================

Sentinels: -1 means "no predecessor" (dims 1, 3, 9 on the first row);
-2 means "field absent" (TCP dims on fragments, options not present).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TraceTooShortError
from .packets import (
    FlowTrace,
    PacketRecord,
    TCP_OPT_MSS,
    TCP_OPT_TIMESTAMP,
    TCP_OPT_WSCALE,
)

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

_ROUTE_KINDS = {7, 131, 137}  # record-route, loose source route, strict source route


def _ip_option_kinds(options: bytes) -> set[int]:
    kinds: set[int] = set()
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == 0:  # end of options
            break
        kinds.add(kind)
        if kind == 1:  # no-op
            i += 1
            continue
        if i + 1 >= len(options):
            break
        length = options[i + 1]
        if length < 2 or i + length > len(options):
            break
        i += length
    return kinds


def _centered_u32(delta: int) -> int:
    delta &= 0xFFFFFFFF
    return delta - (1 << 32) if delta >= (1 << 31) else delta


def intra_features(pkt: PacketRecord, expected_seq: int | None) -> list[float]:
    """The 13 single-packet dims, canonical order 0,2,4,5,6,7,8,10,11,12,13,14,15.

    ``expected_seq`` is the stream's next expected sequence number, or None
    when no TCP packet has been seen yet (then the seq delta reads 0).
    """
    ip = pkt.ip
    iproute = 1.0 if _ip_option_kinds(ip.options) & _ROUTE_KINDS else 0.0
    tcp = pkt.tcp
    if tcp is None:
        # a fragment exposes no TCP header: dims 4,5,6,7,8,10,11,12 absent
        tcp_part = [ABSENT] * 8
    else:
        if expected_seq is None:
            seq_delta = 0.0
        else:
            seq_delta = float(_centered_u32(tcp.seq - expected_seq))
        mss_opt = tcp.find_option(TCP_OPT_MSS)
        ws_opt = tcp.find_option(TCP_OPT_WSCALE)
        mss = (
            float(int.from_bytes(mss_opt.payload, "big")) if mss_opt else ABSENT
        )
        wscale = (
            float(int.from_bytes(ws_opt.payload, "big")) if ws_opt else ABSENT
        )
        tcp_part = [
            1.0 if pkt.tcp_checksum_valid() else 0.0,
            float(len(pkt.payload)),
            float(tcp.flags),
            1.0 if tcp.flag_syn else 0.0,
            seq_delta,
            mss,
            wscale,
            1.0 if tcp.find_option(TCP_OPT_TIMESTAMP) else 0.0,
        ]
    row = [
        float(ip.total_length),
        float(ip.flag_mf) + 2.0 * float(ip.flag_df),
        *tcp_part,
        iproute,
        float((ip.ihl - 5) * 4),
        float(ip.tos),
    ]
    return row


def inter_features(
    prev: PacketRecord | None, cur: PacketRecord
) -> tuple[float, float, float]:
    """Dims (1, 3, 9) from a consecutive packet pair; all -1 with no prev."""
    if prev is None:
        return (NO_PREDECESSOR, NO_PREDECESSOR, NO_PREDECESSOR)
    d_offset = float(cur.ip.frag_offset - prev.ip.frag_offset)
    d_ttl = float(cur.ip.ttl - prev.ip.ttl)
    if prev.tcp is None or cur.tcp is None:
        overlap = ABSENT
    else:
        prev_end = prev.tcp.seq + len(prev.payload)
        overlap = float(max(0, _centered_u32(prev_end - cur.tcp.seq)))
    return (d_offset, d_ttl, overlap)


def feature_matrix(trace: FlowTrace) -> np.ndarray:
    """One row per packet, shape (len(trace), 16), float32."""
    rows = np.empty((len(trace.packets), FEATURE_DIM), dtype=np.float32)
    expected_seq: int | None = None
    prev: PacketRecord | None = None
    for i, pkt in enumerate(trace.packets):
        intra = intra_features(pkt, expected_seq)
        d_offset, d_ttl, overlap = inter_features(prev, pkt)
        row = list(intra)
        row.insert(1, d_offset)       # dim 1
        row.insert(3, d_ttl)          # dim 3
        row.insert(9, overlap)        # dim 9
        rows[i] = row
        if pkt.tcp is not None:
            advance = len(pkt.payload) + int(pkt.tcp.flag_syn) + int(pkt.tcp.flag_fin)
            expected_seq = (pkt.tcp.seq + advance) & 0xFFFFFFFF
        prev = pkt
    return rows


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

    def transform(self, rows: np.ndarray) -> np.ndarray:
        return (rows.astype(np.float64) - self.shift) / self.scale


__all__ = [
    "FEATURE_DIM",
    "FRAME_MIN",
    "FRAME_MAX",
    "FEATURE_NAMES",
    "NO_PREDECESSOR",
    "ABSENT",
    "intra_features",
    "inter_features",
    "feature_matrix",
    "FeatureSequence",
    "window_matrix",
    "extract_sequences",
    "FeatureScaler",
]
