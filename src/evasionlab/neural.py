"""From-scratch bidirectional LSTM classifier with exact backpropagation.

Everything is plain numpy. A model owns one contiguous float64 vector,
``params``; its cell tensors and head are views into it (documented order
below), so the optimizers, the gradient checker and the checkpoint writer
all read and write that one vector. backward() returns a gradient vector
of the same layout, filled through views of its own.

Flatten order: for each layer, forward cell then backward cell (when
bidirectional), each cell as w_x, w_h, b row-major; then head weight, head
bias. Gate blocks inside the 4H axis are ordered i, f, g, o. _param_shapes
is the only place this order is written.

Sequence handling: batches are (B, T, D) with a 0/1 mask (B, T) marking
real steps; padding is always at the tail. Masked steps carry the previous
state forward, so the state after step T-1 is the state at the last real
step. The backward direction runs the same cell over each sample's
reversed valid prefix; the padded tail stays in place.

Scan layout: inside forward and backward everything is time-major. Each
forward call allocates one float64 block that holds, for every layer and
direction, the activated gate slab (T, B, 4H) and the carried c, the
carried h and tanh of each step's fresh cell state (each (T, B, H));
each direction's scan takes its slabs as views of the block, as the cell
tensors are views of params. Nothing is pooled or reused across calls:
the tape's caches view the block and keep it alive for backward. Each
direction projects its whole input in one product, x (T*B, D) @ w_x.T,
written into its gate slab, then adds b; each step then writes one
recurrent product into a (B, 4H) buffer that every scan of the call
reuses, adds it into its (B, 4H) row block and activates that with one
tanh call (sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5 on i, f, o; the model
builds the per-column constants once). Which steps have a padded sample
is worked out once per forward call, and only those steps make the
masked state copies. The backward direction reads its input through one
gather index built from the lengths per forward call, and the same index
puts its outputs and gradients back in input order. The tape also keeps
each layer's time-major input; BPTT fills a gradient slab of the same
(T, B, 4H) layout.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    CheckpointFormatError,
    EmptySequenceError,
    ShapeMismatchError,
    TapeReuseError,
    TruncatedFileError,
)
from .features import FeatureScaler

CHECKPOINT_MAGIC = b"BLSM"
CHECKPOINT_VERSION = 1
# magic, version, input_dim, hidden, classes, frame, layers, bidirectional,
# readout code, scaler flag
_HEADER = struct.Struct("<4sHHHHHHBBB")

READOUT_FINAL = "final"
READOUT_MEAN = "mean"


@dataclass(frozen=True)
class ModelConfig:
    hidden: int
    input_dim: int = 16
    classes: int = 8
    frame: int = 5
    layers: int = 2
    bidirectional: bool = True
    readout: str = READOUT_FINAL

    def __post_init__(self) -> None:
        if self.hidden < 1 or self.input_dim < 1 or self.classes < 2:
            raise ValueError("hidden/input_dim/classes out of range")
        if self.layers not in (1, 2):
            raise ValueError("layers must be 1 or 2")
        if self.frame < 1:
            raise ValueError("frame must be >= 1")
        if self.readout not in (READOUT_FINAL, READOUT_MEAN):
            raise ValueError(f"unknown readout {self.readout!r}")

    @property
    def directions(self) -> int:
        return 2 if self.bidirectional else 1

    @property
    def rep_dim(self) -> int:
        return self.hidden * self.directions


@dataclass
class LstmCellParams:
    w_x: np.ndarray  # (4H, D)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]


def _param_shapes(config: ModelConfig) -> list[tuple[int, ...]]:
    """Shape of every parameter tensor, in flatten order."""
    h = config.hidden
    shapes: list[tuple[int, ...]] = []
    d_in = config.input_dim
    for _ in range(config.layers):
        shapes += [(4 * h, d_in), (4 * h, h), (4 * h,)] * config.directions
        d_in = config.rep_dim
    return shapes + [(config.classes, config.rep_dim), (config.classes,)]


def lstm_param_count(config: ModelConfig) -> int:
    """Entries in the parameter vector of a model with this config."""
    return sum(math.prod(shape) for shape in _param_shapes(config))


def _unpack(
    config: ModelConfig, flat: np.ndarray
) -> tuple[list[list[LstmCellParams]], np.ndarray, np.ndarray]:
    """(layers, head_w, head_b) as views into flat, in flatten order."""
    views = []
    pos = 0
    for shape in _param_shapes(config):
        size = math.prod(shape)
        views.append(flat[pos : pos + size].reshape(shape))
        pos += size
    it = iter(views)
    layers = [
        [LstmCellParams(next(it), next(it), next(it)) for _ in range(config.directions)]
        for _ in range(config.layers)
    ]
    return layers, next(it), next(it)


def _xavier(rng: np.random.Generator, out: np.ndarray, fan_in: int, fan_out: int) -> None:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    out[...] = rng.uniform(-limit, limit, size=out.shape)


def _gate_constants(h: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (scale, shift) of the fused [i f g o] gate activation,
    read-only.

    sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5, so scale * tanh(scale * a) + shift
    is the logistic sigmoid on the i, f and o columns (scale 0.5, shift 0.5)
    and tanh on the g columns (scale 1, shift 0).
    """
    scale = np.full(4 * h, 0.5)
    scale[2 * h : 3 * h] = 1.0
    shift = np.full(4 * h, 0.5)
    shift[2 * h : 3 * h] = 0.0
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _time_major_reversal(lengths: np.ndarray, t_len: int) -> np.ndarray:
    """Row index that reverses each sample's first lengths[b] steps of a
    time-major (T, B, K) array seen as (T * B, K) rows and leaves the padded
    tail in place; see _gather_rows."""
    b_sz = len(lengths)
    steps = np.arange(t_len)[:, None]
    back = (lengths - 1) - steps  # (T, B), negative on the padded tail
    return (np.where(back < 0, steps, back) * b_sz + np.arange(b_sz)).ravel()


def _gather_rows(arr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """arr (T, B, K) reordered by a (T * B,) row index, as a new array."""
    return arr.reshape(rows.size, -1).take(rows, axis=0).reshape(arr.shape)


@dataclass
class _DirectionCache:
    """One direction's scan, time-major, in the order the scan ran."""

    gates: np.ndarray  # activated gates [i f g o] (T, B, 4H)
    c: np.ndarray  # carried cell states (T, B, H)
    h: np.ndarray  # carried hidden states (T, B, H)
    tanh_c: np.ndarray  # tanh of each step's fresh cell state (T, B, H)


@dataclass
class ForwardTape:
    """Everything backward() needs; consumed exactly once."""

    x: np.ndarray
    mask: np.ndarray
    lengths: np.ndarray
    layer_inputs: list[np.ndarray]  # time-major (T, B, D) per layer
    caches: list[list[_DirectionCache]]  # [layer][direction]
    dropout_masks: list[np.ndarray | None]  # per layer boundary, time-major
    rep_mask: np.ndarray | None
    rep: np.ndarray
    logits: np.ndarray
    reversal: np.ndarray | None  # _time_major_reversal of lengths when bidirectional
    consumed: bool = False


class BiLstmModel:
    """Stacked (1-2 layer) bidirectional LSTM with a softmax head."""

    def __init__(
        self,
        config: ModelConfig,
        params: np.ndarray,
        scaler: FeatureScaler | None = None,
    ):
        """Wrap params (float64, lstm_param_count(config) entries) without
        copying it; layers ([layer][direction]) and head_* are views into it."""
        self.config = config
        self.params = params
        self.layers, self.head_w, self.head_b = _unpack(config, params)
        self.scaler = scaler
        self._gate_scale, self._gate_shift = _gate_constants(config.hidden)

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int) -> "BiLstmModel":
        rng = np.random.default_rng(seed)
        h = config.hidden
        model = cls(config, np.zeros(lstm_param_count(config)))
        for cells in model.layers:
            for cell in cells:
                _xavier(rng, cell.w_x, cell.w_x.shape[1], h)
                _xavier(rng, cell.w_h, h, h)
                cell.b[h : 2 * h] = 1.0  # forget-gate bias starts open
        _xavier(rng, model.head_w, config.rep_dim, config.classes)
        return model

    # -- parameter vector plumbing ------------------------------------------

    @property
    def n_params(self) -> int:
        return self.params.size

    def flatten(self) -> np.ndarray:
        return self.params.copy()

    def load_flat(self, vec: np.ndarray) -> None:
        if vec.size != self.n_params:
            raise ShapeMismatchError(
                f"flat vector has {vec.size} entries, model needs {self.n_params}"
            )
        self.params[:] = vec

    # -- forward ------------------------------------------------------------

    def _run_direction(
        self,
        z: np.ndarray,
        carry: list[np.ndarray | None],
        cell: LstmCellParams,
        block: np.ndarray,
        rec: np.ndarray,
    ) -> _DirectionCache:
        """Scan one cell over time-major inputs z (T, B, D). carry[t] is
        None when no sample's step t is padded, else the (B, 1) mask of the
        samples whose step t carries the previous state. block (7, T, B, H)
        holds the scan's slabs: the gates in its first four (T, B, H) planes,
        read as one (T, B, 4H) slab, then c, h and tanh_c. rec (B, 4H) is
        scratch for one step's recurrent product."""
        t_len, b_sz, d = z.shape
        h = cell.hidden
        gates = block[:4].reshape(t_len, b_sz, 4 * h)
        c, hs, tanh_c = block[4], block[5], block[6]
        np.matmul(z.reshape(-1, d), cell.w_x.T, out=gates.reshape(-1, 4 * h))
        gates += cell.b
        gate_i, gate_f, gate_g, gate_o = (gates[..., k * h : (k + 1) * h] for k in range(4))
        f_c = rec[:, :h]  # f * c_prev, written once rec is added into the gates
        w_h_t = cell.w_h.T
        scale, shift = self._gate_scale, self._gate_shift
        c_prev = h_prev = None  # the state before step 0 is zero
        for a, i, f, g, o, c_t, h_t, tanh_t, where in zip(
            gates, gate_i, gate_f, gate_g, gate_o, c, hs, tanh_c, carry
        ):
            if h_prev is not None:
                np.matmul(h_prev, w_h_t, out=rec)
                a += rec
            a *= scale  # activate in place; tanh saturates, so any finite a is safe
            np.tanh(a, out=a)
            a *= scale
            a += shift
            np.multiply(i, g, out=c_t)
            if c_prev is not None:
                np.multiply(f, c_prev, out=f_c)
                c_t += f_c
            np.tanh(c_t, out=tanh_t)
            np.multiply(o, tanh_t, out=h_t)
            if where is not None:
                np.copyto(c_t, c_prev, where=where)
                np.copyto(h_t, h_prev, where=where)
            c_prev, h_prev = c_t, h_t
        return _DirectionCache(gates, c, hs, tanh_c)

    def forward(
        self,
        x: np.ndarray,
        mask: np.ndarray,
        train: bool = False,
        dropout: float = 0.0,
        dropout_seed: int = 0,
    ) -> tuple[np.ndarray, ForwardTape]:
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != cfg.input_dim:
            raise ShapeMismatchError(
                f"batch must be (B, T, {cfg.input_dim}), got {x.shape}"
            )
        if mask.shape != x.shape[:2]:
            raise ShapeMismatchError(f"mask {mask.shape} does not match {x.shape[:2]}")
        lengths = mask.sum(axis=1).astype(int)
        if not lengths.all():
            raise EmptySequenceError("a sequence in the batch has an all-zero mask")

        use_dropout = train and dropout > 0.0
        drop_rng = np.random.default_rng(dropout_seed) if use_dropout else None
        keep = 1.0 - dropout

        b_sz, t_len = mask.shape
        h = cfg.hidden
        padded = mask.T == 0.0
        pad = padded[:, :, None]
        # padded samples carry the previous state; step 0 is real in every sample
        carry = [
            pad[t] if t and any_padded else None
            for t, any_padded in enumerate(padded.any(axis=1).tolist())
        ]
        # one block for every scan's slabs; the tape's caches keep it alive
        blocks = np.empty((cfg.layers, cfg.directions, 7, t_len, b_sz, h))
        rec = np.empty((b_sz, 4 * h))  # every scan's recurrent product, step by step
        reversal = _time_major_reversal(lengths, t_len) if cfg.bidirectional else None
        layer_inputs: list[np.ndarray] = []
        caches: list[list[_DirectionCache]] = []
        dropout_masks: list[np.ndarray | None] = []
        cur = np.ascontiguousarray(x.transpose(1, 0, 2))
        last = len(self.layers) - 1
        for li, cells in enumerate(self.layers):
            layer_inputs.append(cur)
            layer_caches = [self._run_direction(cur, carry, cells[0], blocks[li, 0], rec)]
            if reversal is not None:
                layer_caches.append(self._run_direction(
                    _gather_rows(cur, reversal), carry, cells[1], blocks[li, 1], rec
                ))
            caches.append(layer_caches)
            if reversal is not None:
                out = np.concatenate(
                    [layer_caches[0].h, _gather_rows(layer_caches[1].h, reversal)], axis=2
                )
            else:
                out = layer_caches[0].h
            if li < last:
                if use_dropout:
                    assert drop_rng is not None
                    # drawn in batch-major order, as (B, T, features)
                    draw = drop_rng.random((b_sz, t_len, out.shape[2]))
                    dmask = np.ascontiguousarray(((draw >= dropout) / keep).transpose(1, 0, 2))
                    dropout_masks.append(dmask)
                    cur = out * dmask
                else:
                    dropout_masks.append(None)
                    cur = out

        if cfg.readout == READOUT_FINAL:
            rep = np.concatenate(
                [c.h[-1] for c in caches[-1]], axis=1
            )  # carried final state = last real step
        else:
            counts = lengths.astype(np.float64)[:, None]
            rep = np.where(pad, 0.0, out).sum(axis=0) / counts

        rep_mask: np.ndarray | None = None
        if use_dropout:
            assert drop_rng is not None
            rep_mask = (drop_rng.random(rep.shape) >= dropout) / keep
            rep = rep * rep_mask

        logits = rep @ self.head_w.T + self.head_b
        tape = ForwardTape(
            x=x, mask=mask, lengths=lengths, layer_inputs=layer_inputs,
            caches=caches, dropout_masks=dropout_masks, rep_mask=rep_mask,
            rep=rep, logits=logits, reversal=reversal,
        )
        return logits, tape

    # -- backward -----------------------------------------------------------

    def _direction_backward(
        self,
        cache: _DirectionCache,
        z: np.ndarray,
        cell: LstmCellParams,
        grad: LstmCellParams,
        d_h: np.ndarray,
        rows: np.ndarray | None,
        need_dz: bool,
    ) -> np.ndarray | None:
        """Backpropagate one direction scan: writes the cell's gradients
        into grad and returns dz (input order), or None unless need_dz.

        d_h is the upstream gradient of each step's h, time-major in scan
        order. It is zero on padded steps: a padded step only copies the
        state, so with nothing arriving from above or from later steps it
        passes nothing back, and the scan needs no mask. z is the layer input
        in input step order; rows, when given, is the reversal between the
        two orders.
        """
        gates, c, tanh_c = cache.gates, cache.c, cache.tanh_c
        t_len, b_sz, h4 = gates.shape
        h = h4 // 4
        # partner: gradient of each gate's pre-activation per unit of the
        # step's dc (i, f, g columns) or dh (o columns):
        # g * i', c_prev * f', i * g', tanh_c * o'
        g = gates[..., 2 * h : 3 * h]
        partner = np.empty_like(gates)
        partner[..., :h] = g
        partner[0, :, h : 2 * h] = 0.0
        partner[1:, :, h : 2 * h] = c[:-1]
        partner[..., 2 * h : 3 * h] = gates[..., :h]
        partner[..., 3 * h :] = tanh_c
        d_act = gates * (1.0 - gates)  # sigmoid' on i, f, o
        d_act[..., 2 * h : 3 * h] = 1.0 - g * g  # tanh' on g
        partner *= d_act
        dh_to_dc = gates[..., 3 * h :] * (1.0 - tanh_c * tanh_c)
        f = gates[..., h : 2 * h]

        d_a = np.empty_like(gates)
        scale = np.empty((b_sz, 4, h))  # [dc, dc, dc, dh] of one step
        dh_carry = np.zeros((b_sz, h))
        dc_carry = np.zeros((b_sz, h))
        w_h = cell.w_h
        for t in range(t_len - 1, -1, -1):
            dh = d_h[t] + dh_carry
            dc = dc_carry + dh * dh_to_dc[t]
            scale[:, :3] = dc[:, None, :]
            scale[:, 3] = dh
            np.multiply(partner[t], scale.reshape(b_sz, h4), out=d_a[t])
            if t:
                dh_carry = d_a[t] @ w_h
                dc_carry = dc * f[t]

        flat_a = d_a.reshape(-1, h4)
        z_scan = z if rows is None else _gather_rows(z, rows)
        np.matmul(flat_a.T, z_scan.reshape(-1, z.shape[2]), out=grad.w_x)
        np.matmul(d_a[1:].reshape(-1, h4).T, cache.h[:-1].reshape(-1, h), out=grad.w_h)
        flat_a.sum(axis=0, out=grad.b)
        if not need_dz:
            return None
        dz = (flat_a @ cell.w_x).reshape(z.shape)
        return dz if rows is None else _gather_rows(dz, rows)  # back to input step order

    def backward(self, tape: ForwardTape, labels: np.ndarray) -> np.ndarray:
        """Gradient of mean cross-entropy over the batch, in flatten order."""
        if tape.consumed:
            raise TapeReuseError("forward tape already consumed by a backward pass")
        tape.consumed = True
        cfg = self.config
        labels = np.asarray(labels, dtype=int)
        b_sz = tape.logits.shape[0]
        if labels.shape != (b_sz,):
            raise ShapeMismatchError(f"labels {labels.shape} vs batch {b_sz}")

        probs = softmax(tape.logits)
        d_logits = probs.copy()
        d_logits[np.arange(b_sz), labels] -= 1.0
        d_logits /= b_sz

        grads = np.empty(self.params.size)
        grad_layers, grad_head_w, grad_head_b = _unpack(cfg, grads)
        np.matmul(d_logits.T, tape.rep, out=grad_head_w)
        d_logits.sum(axis=0, out=grad_head_b)
        d_rep = d_logits @ self.head_w
        if tape.rep_mask is not None:
            d_rep = d_rep * tape.rep_mask

        h = cfg.hidden
        t_len = tape.x.shape[1]

        # Per-step upstream gradient for the top layer's concatenated output.
        if cfg.readout == READOUT_FINAL:
            # The carried final state is h at each sample's last real step:
            # input step lengths - 1 forward, input step 0 backward.
            d_out = np.zeros((t_len, b_sz, cfg.rep_dim))
            d_out[tape.lengths - 1, np.arange(b_sz), :h] = d_rep[:, :h]
            d_out[0, :, h:] = d_rep[:, h:]
        else:
            weights = np.where(tape.mask.T == 0.0, 0.0, 1.0 / tape.lengths)
            d_out = weights[:, :, None] * d_rep

        for li in range(len(self.layers) - 1, -1, -1):
            d_in: np.ndarray | None = None
            cells = zip(self.layers[li], tape.caches[li], grad_layers[li])
            for di, (cell, cache, grad) in enumerate(cells):
                rows = tape.reversal if di else None
                d_h = d_out[..., di * h : (di + 1) * h]
                dz = self._direction_backward(
                    cache, tape.layer_inputs[li], cell, grad,
                    d_h if rows is None else _gather_rows(d_h, rows), rows,
                    need_dz=li > 0,
                )
                if dz is not None:
                    d_in = dz if d_in is None else d_in + dz
            if li > 0:
                dmask = tape.dropout_masks[li - 1]
                d_out = d_in if dmask is None else d_in * dmask
        return grads

    # -- inference ----------------------------------------------------------

    def predict(self, rows: np.ndarray) -> tuple[int, np.ndarray]:
        """Classify one sequence of feature rows (n, input_dim); ties go to
        the lowest code."""
        cfg = self.config
        rows = np.asarray(rows)  # cast once, as the rows go into the batch
        if rows.ndim != 2 or rows.shape[1] != cfg.input_dim:
            raise ShapeMismatchError(f"expected (n, {cfg.input_dim}) rows, got {rows.shape}")
        n = rows.shape[0]
        if n == 0:
            raise EmptySequenceError("no rows to classify")
        t_len = max(cfg.frame, n)
        x = np.zeros((1, t_len, cfg.input_dim))
        mask = np.zeros((1, t_len))
        if self.scaler is None:
            x[0, :n] = rows
        else:
            self.scaler.transform(rows, out=x[0, :n])
        mask[0, :n] = 1.0
        logits, _ = self.forward(x, mask)
        probs = softmax(logits)[0]
        return int(np.argmax(probs)), probs


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def softmax_xent(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and the stabilized softmax probabilities."""
    labels = np.asarray(labels, dtype=int)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    total = ez.sum(axis=-1, keepdims=True)
    true_shifted = shifted[np.arange(len(labels)), labels]
    loss = float(np.mean(np.log(total[:, 0]) - true_shifted))
    return loss, ez / total


def grad_check(
    model: BiLstmModel,
    x: np.ndarray,
    mask: np.ndarray,
    labels: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Worst per-entry error of the analytic gradient against central
    differences, scaled so that the result is at most 1e-4 exactly when
    every entry agrees within 1e-4 relative error or within the round-off
    floor ``64 * eps_mach * |loss| / eps`` of the central difference.

    Each entry's absolute error is divided by its magnitude plus
    ``floor / 1e-4``. Far above the floor that is its relative error; far
    below it, an entry is compared with the floor itself, so round-off on
    tiny entries does not read as gradient error.
    """
    logits, tape = model.forward(x, mask)
    loss, _ = softmax_xent(logits, labels)
    analytic = model.backward(tape, labels)
    theta = model.params
    numeric = np.empty_like(theta)
    for idx in range(theta.size):
        saved = theta[idx]
        bumped_losses = []
        try:
            for step in (eps, -eps):
                theta[idx] = saved + step
                bumped_losses.append(softmax_xent(model.forward(x, mask)[0], labels)[0])
        finally:
            theta[idx] = saved
        numeric[idx] = (bumped_losses[0] - bumped_losses[1]) / (2.0 * eps)
    floor = 64 * np.finfo(np.float64).eps * abs(loss) / eps
    scale = np.maximum(np.abs(analytic), np.abs(numeric)) + floor / 1e-4
    return float(np.max(np.abs(analytic - numeric) / scale))


# -- checkpoint io ----------------------------------------------------------


def save_model(model: BiLstmModel, path: str) -> None:
    cfg = model.config
    buf = io.BytesIO()
    buf.write(
        _HEADER.pack(
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            cfg.input_dim,
            cfg.hidden,
            cfg.classes,
            cfg.frame,
            cfg.layers,
            1 if cfg.bidirectional else 0,
            0 if cfg.readout == READOUT_FINAL else 1,
            0 if model.scaler is None else 1,
        )
    )
    if model.scaler is not None:
        buf.write(np.ascontiguousarray(model.scaler.shift, dtype="<f8").tobytes())
        buf.write(np.ascontiguousarray(model.scaler.scale, dtype="<f8").tobytes())
    buf.write(struct.pack("<Q", model.params.size))
    buf.write(np.ascontiguousarray(model.params, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_model(path: str) -> BiLstmModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"not a model checkpoint (magic {data[:4]!r})")
    if len(data) < _HEADER.size:
        raise TruncatedFileError("checkpoint header truncated")
    (_, version, input_dim, hidden, classes, frame, layers, bi, readout_code,
     scaler_flag) = _HEADER.unpack_from(data)
    if version != CHECKPOINT_VERSION:
        raise BadMagicError(f"unsupported checkpoint version {version}")
    if not {bi, readout_code, scaler_flag} <= {0, 1}:
        raise CheckpointFormatError(
            f"checkpoint flag bytes must be 0 or 1, got bidi {bi}, "
            f"readout {readout_code}, scaler {scaler_flag}"
        )
    try:
        config = ModelConfig(
            hidden=hidden,
            input_dim=input_dim,
            classes=classes,
            frame=frame,
            layers=layers,
            bidirectional=bool(bi),
            readout=READOUT_FINAL if readout_code == 0 else READOUT_MEAN,
        )
    except ValueError as exc:
        raise CheckpointFormatError(f"checkpoint header: {exc}") from exc
    pos = _HEADER.size
    scaler = None
    if scaler_flag:
        need = 2 * input_dim * 8
        if pos + need > len(data):
            raise TruncatedFileError("checkpoint scaler block truncated")
        shift = np.frombuffer(data, dtype="<f8", count=input_dim, offset=pos).copy()
        pos += input_dim * 8
        scale = np.frombuffer(data, dtype="<f8", count=input_dim, offset=pos).copy()
        pos += input_dim * 8
        scaler = FeatureScaler(shift=shift, scale=scale)
    if pos + 8 > len(data):
        raise TruncatedFileError("checkpoint parameter count truncated")
    (count,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    n_params = lstm_param_count(config)
    if count != n_params:
        raise CheckpointFormatError(
            f"checkpoint has {count} parameters, its header needs {n_params}"
        )
    if pos + count * 8 > len(data):
        raise TruncatedFileError("checkpoint parameter block truncated")
    if pos + count * 8 != len(data):
        raise CheckpointFormatError(
            f"{len(data) - pos - count * 8} bytes after the checkpoint parameter block"
        )
    flat = np.frombuffer(data, dtype="<f8", count=count, offset=pos).astype(np.float64)
    return BiLstmModel(config, flat, scaler)


__all__ = [
    "ModelConfig",
    "LstmCellParams",
    "BiLstmModel",
    "ForwardTape",
    "softmax",
    "softmax_xent",
    "grad_check",
    "save_model",
    "load_model",
    "lstm_param_count",
    "CHECKPOINT_MAGIC",
]
