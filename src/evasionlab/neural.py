"""From-scratch bidirectional LSTM classifier with exact backpropagation.

Everything is plain numpy. Parameters live in small structured objects but
flatten to one contiguous float64 vector (documented order below) so the
optimizers, the gradient checker and the checkpoint writer all speak the
same language.

Flatten order: for each layer, forward cell then backward cell (when
bidirectional), each cell as w_x, w_h, b row-major; then head weight, head
bias. Gate blocks inside the 4H axis are ordered i, f, g, o.

Sequence handling: batches are (B, T, D) with a 0/1 mask (B, T) marking
real steps; padding is always at the tail. Masked steps carry the previous
state forward, so the state after step T-1 is the state at the last real
step. The backward direction runs the same cell over each sample's
reversed valid prefix (reverse_padded); the padded tail stays in place.

Scan layout: inside forward and backward everything is time-major. Each
direction projects its whole input in one product, x (T*B, D) @ w_x.T + b,
into a (T, B, 4H) gate slab; each step then adds one recurrent product
into its (B, 4H) row block and activates it with one tanh call
(sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5 on i, f, o). The backward
direction reads its input through one gather index built from the
lengths per forward call, and the same index puts its outputs and
gradients back in input order. The tape keeps, per layer, the time-major
input and, per direction, the activated gate slab, the carried c and h,
and tanh of each step's fresh cell state; BPTT fills a gradient slab of
the same (T, B, 4H) layout.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagicError,
    EmptySequenceError,
    ShapeMismatchError,
    TapeReuseError,
    TruncatedFileError,
)
from .features import FeatureScaler

CHECKPOINT_MAGIC = b"BLSM"
CHECKPOINT_VERSION = 1

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


def _xavier(rng: np.random.Generator, shape: tuple[int, int], fan_in: int, fan_out: int):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _init_cell(rng: np.random.Generator, d: int, h: int) -> LstmCellParams:
    w_x = _xavier(rng, (4 * h, d), d, h)
    w_h = _xavier(rng, (4 * h, h), h, h)
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0  # forget-gate bias starts open
    return LstmCellParams(w_x=w_x, w_h=w_h, b=b)


def _gate_constants(h: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (scale, shift) of the fused [i f g o] gate activation.

    sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5, so scale * tanh(scale * a) + shift
    is the logistic sigmoid on the i, f and o columns (scale 0.5, shift 0.5)
    and tanh on the g columns (scale 1, shift 0).
    """
    scale = np.full(4 * h, 0.5)
    scale[2 * h : 3 * h] = 1.0
    shift = np.full(4 * h, 0.5)
    shift[2 * h : 3 * h] = 0.0
    return scale, shift


def _activate_gates(a: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> None:
    """Turn gate pre-activations (..., 4H) into activations, in place.

    tanh saturates instead of overflowing, so any finite input is safe.
    """
    a *= scale
    np.tanh(a, out=a)
    a *= scale
    a += shift


def lstm_cell_forward(
    x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: LstmCellParams
) -> tuple[np.ndarray, np.ndarray, dict]:
    """One cell step on vectors (or batches of vectors along axis 0)."""
    h = p.hidden
    if x.shape[-1] != p.w_x.shape[1] or h_prev.shape[-1] != h or c_prev.shape[-1] != h:
        raise ShapeMismatchError(
            f"cell shapes: x {x.shape}, h {h_prev.shape}, c {c_prev.shape} "
            f"vs w_x {p.w_x.shape}, w_h {p.w_h.shape}"
        )
    gates = x @ p.w_x.T + h_prev @ p.w_h.T + p.b
    _activate_gates(gates, *_gate_constants(h))
    i, f, g, o = (gates[..., k * h : (k + 1) * h] for k in range(4))
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h_out = o * tanh_c
    cache = {"i": i, "f": f, "g": g, "o": o, "c": c, "tanh_c": tanh_c}
    return h_out, c, cache


def _reversed_steps(lengths: np.ndarray, t_len: int) -> np.ndarray:
    """(B, T): the step reverse_padded reads for each output step."""
    steps = np.arange(t_len)
    n = np.asarray(lengths)[:, None]
    return np.where(steps < n, n - 1 - steps, steps)


def reverse_padded(arr: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Reverse the first lengths[b] steps of each sample (B, T, ...), leave the tail.

    An involution: applying it twice restores the input.
    """
    src = _reversed_steps(lengths, arr.shape[1])
    return arr[np.arange(arr.shape[0])[:, None], src]


def _time_major_reversal(lengths: np.ndarray, t_len: int) -> np.ndarray:
    """Row index that applies reverse_padded to a time-major (T, B, K) array
    seen as (T * B, K) rows; see _gather_rows."""
    b_sz = len(lengths)
    return (_reversed_steps(lengths, t_len).T * b_sz + np.arange(b_sz)).ravel()


def _gather_rows(arr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """arr (T, B, K) reordered by a (T * B,) row index, as a new array."""
    return np.take(arr.reshape(rows.size, -1), rows, axis=0).reshape(arr.shape)


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
        layers: list[list[LstmCellParams]],
        head_w: np.ndarray,
        head_b: np.ndarray,
        scaler: FeatureScaler | None = None,
    ):
        self.config = config
        self.layers = layers  # [layer][direction]
        self.head_w = head_w
        self.head_b = head_b
        self.scaler = scaler

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int) -> "BiLstmModel":
        rng = np.random.default_rng(seed)
        h = config.hidden
        layers: list[list[LstmCellParams]] = []
        d_in = config.input_dim
        for _ in range(config.layers):
            cells = [_init_cell(rng, d_in, h)]
            if config.bidirectional:
                cells.append(_init_cell(rng, d_in, h))
            layers.append(cells)
            d_in = config.rep_dim
        head_w = _xavier(
            rng, (config.classes, config.rep_dim), config.rep_dim, config.classes
        )
        head_b = np.zeros(config.classes)
        return cls(config, layers, head_w, head_b)

    # -- parameter vector plumbing ------------------------------------------

    def _tensors(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for cells in self.layers:
            for cell in cells:
                out += [cell.w_x, cell.w_h, cell.b]
        out += [self.head_w, self.head_b]
        return out

    @property
    def n_params(self) -> int:
        return sum(t.size for t in self._tensors())

    def flatten(self) -> np.ndarray:
        return np.concatenate([t.ravel() for t in self._tensors()])

    def load_flat(self, vec: np.ndarray) -> None:
        if vec.size != self.n_params:
            raise ShapeMismatchError(
                f"flat vector has {vec.size} entries, model needs {self.n_params}"
            )
        pos = 0
        for t in self._tensors():
            t[...] = vec[pos : pos + t.size].reshape(t.shape)
            pos += t.size

    # -- forward ------------------------------------------------------------

    def _run_direction(
        self, z: np.ndarray, pad: np.ndarray, cell: LstmCellParams
    ) -> _DirectionCache:
        """Scan one cell over time-major inputs z (T, B, D); pad (T, B, 1)
        marks padded steps, which carry the previous state."""
        t_len, b_sz, d = z.shape
        h = cell.hidden
        scale, shift = _gate_constants(h)
        gates = (z.reshape(-1, d) @ cell.w_x.T).reshape(t_len, b_sz, 4 * h)
        gates += cell.b
        shape = (t_len, b_sz, h)
        cache = _DirectionCache(
            gates=gates, c=np.empty(shape), h=np.empty(shape), tanh_c=np.empty(shape)
        )
        w_h_t = cell.w_h.T
        for t in range(t_len):
            a = gates[t]
            if t:  # the state before step 0 is zero
                a += cache.h[t - 1] @ w_h_t
            _activate_gates(a, scale, shift)
            c_t, h_t = cache.c[t], cache.h[t]
            np.multiply(a[:, :h], a[:, 2 * h : 3 * h], out=c_t)
            if t:
                c_t += a[:, h : 2 * h] * cache.c[t - 1]
            np.tanh(c_t, out=cache.tanh_c[t])
            np.multiply(a[:, 3 * h :], cache.tanh_c[t], out=h_t)
            if t:  # step 0 is real in every sample
                np.copyto(c_t, cache.c[t - 1], where=pad[t])
                np.copyto(h_t, cache.h[t - 1], where=pad[t])
        return cache

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
        if (lengths == 0).any():
            raise EmptySequenceError("a sequence in the batch has an all-zero mask")

        use_dropout = train and dropout > 0.0
        drop_rng = np.random.default_rng(dropout_seed) if use_dropout else None
        keep = 1.0 - dropout

        b_sz, t_len = mask.shape
        pad = (mask.T == 0.0)[:, :, None]
        reversal = _time_major_reversal(lengths, t_len) if cfg.bidirectional else None
        layer_inputs: list[np.ndarray] = []
        caches: list[list[_DirectionCache]] = []
        dropout_masks: list[np.ndarray | None] = []
        cur = np.ascontiguousarray(x.transpose(1, 0, 2))
        for li, cells in enumerate(self.layers):
            layer_inputs.append(cur)
            layer_caches = [self._run_direction(cur, pad, cells[0])]
            if reversal is not None:
                layer_caches.append(
                    self._run_direction(_gather_rows(cur, reversal), pad, cells[1])
                )
                out = np.concatenate(
                    [layer_caches[0].h, _gather_rows(layer_caches[1].h, reversal)], axis=2
                )
            else:
                out = layer_caches[0].h
            caches.append(layer_caches)
            if li < len(self.layers) - 1:
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
            else:
                last_out = out

        if cfg.readout == READOUT_FINAL:
            rep = np.concatenate(
                [c.h[-1] for c in caches[-1]], axis=1
            )  # carried final state = last real step
        else:
            counts = lengths.astype(np.float64)[:, None]
            rep = np.where(pad, 0.0, last_out).sum(axis=0) / counts

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
        d_h: np.ndarray,
        rows: np.ndarray | None,
        need_dz: bool,
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
        """Returns (dz, dw_x, dw_h, db) for one direction scan.

        d_h is the upstream gradient of each step's h, time-major in scan
        order. It is zero on padded steps: a padded step only copies the
        state, so with nothing arriving from above or from later steps it
        passes nothing back, and the scan needs no mask. z is the layer input
        in input step order; rows, when given, is the reversal between the
        two orders. dz (input order) is None unless need_dz.
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
        dw_x = flat_a.T @ z_scan.reshape(-1, z.shape[2])
        dw_h = d_a[1:].reshape(-1, h4).T @ cache.h[:-1].reshape(-1, h)
        db = flat_a.sum(axis=0)
        dz = None
        if need_dz:
            dz = (flat_a @ cell.w_x).reshape(z.shape)
            if rows is not None:
                dz = _gather_rows(dz, rows)  # back to input step order
        return dz, dw_x, dw_h, db

    def backward(self, tape: ForwardTape, labels: np.ndarray) -> np.ndarray:
        """Gradient of mean cross-entropy over the batch, flattened."""
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

        d_head_w = d_logits.T @ tape.rep
        d_head_b = d_logits.sum(axis=0)
        d_rep = d_logits @ self.head_w
        if tape.rep_mask is not None:
            d_rep = d_rep * tape.rep_mask

        h = cfg.hidden
        t_len = tape.x.shape[1]
        grads_per_layer: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
            [] for _ in self.layers
        ]

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
            for di, (cell, cache) in enumerate(zip(self.layers[li], tape.caches[li])):
                rows = tape.reversal if di else None
                d_h = d_out[..., di * h : (di + 1) * h]
                dz, dw_x, dw_h, db = self._direction_backward(
                    cache, tape.layer_inputs[li], cell,
                    d_h if rows is None else _gather_rows(d_h, rows), rows,
                    need_dz=li > 0,
                )
                grads_per_layer[li].append((dw_x, dw_h, db))
                if dz is not None:
                    d_in = dz if d_in is None else d_in + dz
            if li > 0:
                dmask = tape.dropout_masks[li - 1]
                d_out = d_in if dmask is None else d_in * dmask

        flat_parts: list[np.ndarray] = []
        for layer_grads in grads_per_layer:
            for dw_x, dw_h, db in layer_grads:
                flat_parts += [dw_x.ravel(), dw_h.ravel(), db.ravel()]
        flat_parts += [d_head_w.ravel(), d_head_b.ravel()]
        return np.concatenate(flat_parts)

    # -- inference ----------------------------------------------------------

    def predict(self, rows: np.ndarray) -> tuple[int, np.ndarray]:
        """Classify one sequence of feature rows; ties go to the lowest code."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise EmptySequenceError(f"expected (n, dim) rows, got {rows.shape}")
        if self.scaler is not None:
            rows = self.scaler.transform(rows)
        t_len = max(self.config.frame, rows.shape[0])
        x = np.zeros((1, t_len, self.config.input_dim))
        mask = np.zeros((1, t_len))
        x[0, : rows.shape[0]] = rows
        mask[0, : rows.shape[0]] = 1.0
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
    lse = np.log(np.exp(shifted).sum(axis=-1))
    true_shifted = shifted[np.arange(len(labels)), labels]
    loss = float(np.mean(lse - true_shifted))
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
    return loss, probs


def dropout_forward(
    activations: np.ndarray, rate: float, seed: int, train_mode: bool
) -> np.ndarray:
    """Inverted dropout: scales kept units by 1/(1-rate); identity in eval."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if not train_mode or rate == 0.0:
        return activations
    rng = np.random.default_rng(seed)
    mask = (rng.random(activations.shape) >= rate) / (1.0 - rate)
    return activations * mask


def grad_check(
    model: BiLstmModel,
    x: np.ndarray,
    mask: np.ndarray,
    labels: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients."""
    logits, tape = model.forward(x, mask)
    del logits
    analytic = model.backward(tape, labels)
    theta = model.flatten()
    numeric = np.empty_like(theta)
    for idx in range(theta.size):
        for sign, slot in ((+1.0, 0), (-1.0, 1)):
            bumped = theta.copy()
            bumped[idx] += sign * eps
            model.load_flat(bumped)
            logits, _ = model.forward(x, mask)
            loss, _ = softmax_xent(logits, labels)
            if slot == 0:
                up = loss
            else:
                down = loss
        numeric[idx] = (up - down) / (2.0 * eps)
    model.load_flat(theta)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# -- checkpoint io ----------------------------------------------------------


def save_model(model: BiLstmModel, path: str) -> None:
    cfg = model.config
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<H", CHECKPOINT_VERSION))
    buf.write(
        struct.pack(
            "<HHHHHBB",
            cfg.input_dim,
            cfg.hidden,
            cfg.classes,
            cfg.frame,
            cfg.layers,
            1 if cfg.bidirectional else 0,
            0 if cfg.readout == READOUT_FINAL else 1,
        )
    )
    if model.scaler is not None:
        buf.write(struct.pack("<B", 1))
        buf.write(np.ascontiguousarray(model.scaler.shift, dtype="<f8").tobytes())
        buf.write(np.ascontiguousarray(model.scaler.scale, dtype="<f8").tobytes())
    else:
        buf.write(struct.pack("<B", 0))
    flat = model.flatten()
    buf.write(struct.pack("<Q", flat.size))
    buf.write(np.ascontiguousarray(flat, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_model(path: str) -> BiLstmModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"not a model checkpoint (magic {data[:4]!r})")
    pos = 4
    (version,) = struct.unpack_from("<H", data, pos)
    pos += 2
    if version != CHECKPOINT_VERSION:
        raise BadMagicError(f"unsupported checkpoint version {version}")
    input_dim, hidden, classes, frame, layers, bi, readout_code = struct.unpack_from(
        "<HHHHHBB", data, pos
    )
    pos += 12
    (scaler_flag,) = struct.unpack_from("<B", data, pos)
    pos += 1
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
    (count,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    if pos + count * 8 > len(data):
        raise TruncatedFileError("checkpoint parameter block truncated")
    flat = np.frombuffer(data, dtype="<f8", count=count, offset=pos).copy()
    config = ModelConfig(
        hidden=hidden,
        input_dim=input_dim,
        classes=classes,
        frame=frame,
        layers=layers,
        bidirectional=bool(bi),
        readout=READOUT_FINAL if readout_code == 0 else READOUT_MEAN,
    )
    model = BiLstmModel.initialize(config, seed=0)
    model.scaler = scaler
    model.load_flat(flat)
    return model


__all__ = [
    "ModelConfig",
    "LstmCellParams",
    "BiLstmModel",
    "ForwardTape",
    "lstm_cell_forward",
    "reverse_padded",
    "softmax",
    "softmax_xent",
    "dropout_forward",
    "grad_check",
    "save_model",
    "load_model",
    "CHECKPOINT_MAGIC",
]
