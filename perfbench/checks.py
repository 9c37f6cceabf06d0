"""The benchmark's correctness checks.

Each check compares evasionlab's output with a computation of the
benchmark's own (a regenerated clean flow, a header decoder with its own
RFC 1071 sum, a window-count formula, a macro accuracy) or with a property
of the method (chaff conservation, determinism). A failed check raises
:class:`CheckFailed`.
"""

from __future__ import annotations

import struct

import numpy as np

from evasionlab.features import ABSENT
from evasionlab.neural import softmax_xent
from evasionlab.synth import EvasionLabel

FRAME_MIN = 3  # a short tail window is kept when it has at least this many rows

# The drop counter each chaff class must feed, one drop per original packet.
CHAFF_DROP_REASON = {
    EvasionLabel.IP_CHAFF: "dropped_ip_checksum",
    EvasionLabel.IP_TTL: "dropped_ttl",
    EvasionLabel.TCP_CHAFF: "dropped_tcp_checksum",
}
DROP_REASONS = ("dropped_ip_checksum", "dropped_ttl", "dropped_tcp_checksum")


class CheckFailed(Exception):
    """An output of evasionlab disagrees with the benchmark's own result."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- corpus: delivery and conservation --------------------------------------


def check_delivery(trace, delivered: bytes, clean_long, n_range: tuple[int, int]) -> int:
    """The receiver delivered the payload of the clean flow the trace came from.

    ``clean_long`` is the clean flow regenerated from the trace's seed with
    the longest length the corpus allows; a shorter clean flow from the same
    seed is a prefix of it, so the delivered bytes must end on one of its
    packet boundaries within ``n_range``. Returns the clean flow's packet
    count.
    """
    require(trace.key == clean_long.key, f"flow key {trace.key} is not its seed's {clean_long.key}")
    end = 0
    for n_packets, pkt in enumerate(clean_long.packets[1:], start=2):
        end += len(pkt.payload)
        if end == len(delivered):
            require(n_range[0] <= n_packets <= n_range[1],
                    f"flow of {n_packets} packets outside {n_range}")
            clean = b"".join(p.payload for p in clean_long.packets[1:n_packets])
            require(delivered == clean, f"flow {trace.key}: delivered bytes differ from the clean flow")
            return n_packets
    raise CheckFailed(
        f"flow {trace.key}: {len(delivered)} delivered bytes end on no packet boundary of the clean flow"
    )


def check_conservation(label: int, n_clean: int, n_sent: int, report) -> None:
    """Chaff classes lose exactly one packet per original, under their own
    drop reason; every other class loses none."""
    reason = CHAFF_DROP_REASON.get(label)
    drops = {r: getattr(report, r) for r in DROP_REASONS}
    if reason is None:
        require(not any(drops.values()), f"class {label} dropped packets: {drops}")
        return
    require(n_sent == 2 * n_clean, f"class {label}: {n_sent} packets sent for {n_clean} originals")
    expected = {r: (n_clean if r == reason else 0) for r in DROP_REASONS}
    require(drops == expected, f"class {label}: drops {drops}, expected {expected}")


# -- windows and the NEDS round trip ----------------------------------------


def expected_windows(n_rows: int, frame: int) -> int:
    return n_rows // frame + (1 if n_rows % frame >= FRAME_MIN else 0)


def check_window_count(n_rows: int, frame: int, got: int) -> None:
    want = expected_windows(n_rows, frame)
    require(got == want, f"{n_rows} rows at frame {frame} gave {got} windows, expected {want}")


def check_samples_equal(written, read) -> None:
    require(len(written) == len(read), f"{len(written)} samples written, {len(read)} read back")
    for i, (a, b) in enumerate(zip(written, read)):
        require(a.label == b.label, f"sample {i}: label {a.label} read back as {b.label}")
        require(np.array_equal(a.rows, b.rows), f"sample {i}: rows differ after read back")


# -- features: an independent header decoder --------------------------------


def internet_checksum(data: bytes) -> int:
    """RFC 1071: the complement of the one's complement sum of big-endian
    16-bit words, odd length zero-padded."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def decoded_dims(raw: bytes) -> dict[int, float]:
    """Feature dims 0, 2, 4, 14 and 15 recomputed from one packet's bytes.

    Dim 4 is 1 when the stored TCP checksum equals the one computed over
    the segment with the field zeroed, as features.py defines it. (Summing
    with the field in place and testing for 0xFFFF would also accept 0xFFFF
    where 0x0000 is computed; see CHANGES.md.)
    """
    ihl = raw[0] & 0x0F
    total_length, flags_frag = struct.unpack("!H2xH", raw[2:8])
    mf = (flags_frag >> 13) & 1
    df = (flags_frag >> 14) & 1
    if mf or flags_frag & 0x1FFF:
        tcp_valid = ABSENT
    else:
        segment = bytearray(raw[ihl * 4 : total_length])
        stored = int.from_bytes(segment[16:18], "big")
        segment[16:18] = b"\x00\x00"
        pseudo = raw[12:20] + struct.pack("!BBH", 0, 6, len(segment))
        tcp_valid = 1.0 if internet_checksum(pseudo + bytes(segment)) == stored else 0.0
    return {
        0: float(total_length),
        2: float(mf + 2 * df),
        4: tcp_valid,
        14: float((ihl - 5) * 4),
        15: float(raw[1]),
    }


def check_feature_dims(raw_packets: list[bytes], matrix: np.ndarray) -> None:
    require(len(raw_packets) == len(matrix), f"{len(raw_packets)} packets, {len(matrix)} rows")
    for i, raw in enumerate(raw_packets):
        for dim, want in decoded_dims(raw).items():
            got = float(matrix[i, dim])
            require(got == want, f"packet {i} dim {dim}: feature {got}, decoder {want}")


# -- models -----------------------------------------------------------------

# A central difference at step eps carries round-off of about
# eps_mach * |loss| / eps: each of its two losses is rounded once more or
# less, and their difference is divided by 2 * eps. Entries are allowed this
# many times that as absolute error; on the train workload's check, the
# worst over 200 seeds was 0.7 times it at step 1e-5.
ROUNDOFF_MARGIN = 64.0


def central_differences(model, x, mask, labels, eps: float) -> tuple[np.ndarray, float]:
    """Numeric gradient of the mean cross-entropy, one central difference
    per parameter, through the model's public forward pass; and the loss."""
    theta = model.flatten()
    numeric = np.empty_like(theta)
    try:
        for i in range(theta.size):
            losses = []
            for step in (eps, -eps):
                bumped = theta.copy()
                bumped[i] += step
                model.load_flat(bumped)
                losses.append(softmax_xent(model.forward(x, mask)[0], labels)[0])
            numeric[i] = (losses[0] - losses[1]) / (2.0 * eps)
    finally:
        model.load_flat(theta)
    return numeric, softmax_xent(model.forward(x, mask)[0], labels)[0]


def check_gradient(analytic: np.ndarray, numeric: np.ndarray, loss: float, eps: float,
                   rtol: float) -> float:
    """Every entry agrees within ``rtol`` relative error, or within the
    central difference's round-off (:data:`ROUNDOFF_MARGIN`) where the
    entry is too small for a relative error to mean anything. Returns the
    worst relative error over the entries above that floor."""
    require(analytic.shape == numeric.shape, f"gradient shapes {analytic.shape} and {numeric.shape}")
    floor = ROUNDOFF_MARGIN * np.finfo(np.float64).eps * abs(loss) / eps
    err = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    excess = err - (rtol * scale + floor)
    i = int(np.argmax(excess))
    require(excess[i] <= 0.0, f"{int((excess > 0).sum())} gradient entries disagree with central "
            f"differences; worst, entry {i}: analytic {analytic[i]:.6e}, numeric {numeric[i]:.6e}")
    above = scale > floor / rtol
    return float(np.max(err[above] / scale[above])) if above.any() else 0.0


def macro_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean over the classes present in y_true of their recall."""
    return float(np.mean([np.mean(y_pred[y_true == c] == c) for c in np.unique(y_true)]))


def check_floor(value: float, floor: float, what: str) -> None:
    require(value >= floor, f"{what} {value:.4f} below its floor {floor}")


def check_loss_falls(history: list[float], span: int = 3) -> None:
    head = float(np.mean(history[:span]))
    tail = float(np.mean(history[-span:]))
    require(tail < head, f"loss did not fall: first {span} batches {head:.4f}, last {span} {tail:.4f}")


def check_same(a: np.ndarray, b: np.ndarray, what: str) -> None:
    require(a.shape == b.shape and np.array_equal(a, b), f"{what} differ")


def check_verdicts_agree(batched_probs: np.ndarray, single_probs: np.ndarray, tol: float) -> None:
    """Batched forward and per-window predict give the same argmax and
    probabilities within ``tol``."""
    require(batched_probs.shape == single_probs.shape, "batched and single verdict shapes differ")
    same_class = np.argmax(batched_probs, axis=1) == np.argmax(single_probs, axis=1)
    require(bool(same_class.all()), f"{int((~same_class).sum())} windows change class between batched and single")
    worst = float(np.max(np.abs(batched_probs - single_probs)))
    require(worst <= tol, f"batched and single probabilities differ by {worst:.3e} > {tol}")


# -- capture round trip -----------------------------------------------------


def check_regrouped(written_flows, regrouped_flows, feature_matrix) -> None:
    """Every written flow comes back as one flow, in order, with the same
    feature matrix as the in-memory trace."""
    require(len(written_flows) == len(regrouped_flows),
            f"{len(written_flows)} flows written, {len(regrouped_flows)} regrouped")
    for want, got in zip(written_flows, regrouped_flows):
        require(want.key == got.key, f"flow {want.key} regrouped as {got.key}")
        require(len(want) == len(got), f"flow {want.key}: {len(want)} packets written, {len(got)} read")
        require(np.array_equal(feature_matrix(want), feature_matrix(got)),
                f"flow {want.key}: features differ after the capture round trip")
