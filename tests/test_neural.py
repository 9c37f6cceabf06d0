"""Recurrent model: cell wiring, masking, gradients, checkpoints.

The cell wiring tests pin which quarter of the fused parameter block
drives which gate. Biases saturate three gates and set the fourth to a
known value, so a permuted implementation produces different numbers.
"""

import functools
import math

import numpy as np
import pytest

from evasionlab.errors import (
    BadMagicError,
    EmptySequenceError,
    ShapeMismatchError,
    TapeReuseError,
    TruncatedFileError,
)
from evasionlab.features import FeatureScaler
from evasionlab.neural import (
    BiLstmModel,
    LstmCellParams,
    ModelConfig,
    dropout_forward,
    grad_check,
    load_model,
    lstm_cell_forward,
    reverse_padded,
    save_model,
    softmax,
    softmax_xent,
)

ATANH_HALF = 0.5493061443340548  # atanh(0.5)


def scalar_cell(b_i, b_f, b_g, b_o):
    return LstmCellParams(
        w_x=np.zeros((4, 1)),
        w_h=np.zeros((4, 1)),
        b=np.array([b_i, b_f, b_g, b_o], dtype=np.float64),
    )


def step(p, h, c, x=0.0):
    h_out, c_out, _ = lstm_cell_forward(
        np.array([x]), np.array([h]), np.array([c]), p
    )
    return float(h_out[0]), float(c_out[0])


def test_all_zero_cell_is_silent():
    h, c = step(scalar_cell(0, 0, 0, 0), 0.0, 0.0)
    assert h == 0.0
    assert c == 0.0


def test_input_gate_times_candidate_fills_cell():
    # i ~ 1, f ~ 0, g = 0.5, o ~ 1 -> c = 0.5, h = tanh(0.5)
    p = scalar_cell(30.0, -30.0, ATANH_HALF, 30.0)
    h, c = step(p, 0.0, 0.0)
    assert c == pytest.approx(0.5, abs=1e-12)
    assert h == pytest.approx(math.tanh(0.5), abs=1e-12)


def test_forget_gate_slot_accumulates():
    # with f ~ 1 the cell integrates: two steps give c = 1.0
    p = scalar_cell(30.0, 30.0, ATANH_HALF, 30.0)
    h, c = step(p, 0.0, 0.0)
    h, c = step(p, h, c)
    assert c == pytest.approx(1.0, abs=1e-12)
    assert h == pytest.approx(math.tanh(1.0), abs=1e-12)


def test_closed_forget_gate_drops_state():
    p = scalar_cell(30.0, -30.0, ATANH_HALF, 30.0)
    h, c = step(p, 0.0, 0.0)
    h, c = step(p, h, c)
    assert c == pytest.approx(0.5, abs=1e-12)  # old half forgotten


def test_output_gate_slot_mutes_hidden():
    p = scalar_cell(30.0, -30.0, ATANH_HALF, -30.0)
    h, c = step(p, 0.0, 0.0)
    assert c == pytest.approx(0.5, abs=1e-12)
    assert h == pytest.approx(0.0, abs=1e-12)


def test_cell_batches_match_single_calls():
    rng = np.random.default_rng(1)
    p = LstmCellParams(
        w_x=rng.normal(size=(12, 2)),
        w_h=rng.normal(size=(12, 3)),
        b=rng.normal(size=12),
    )
    x = rng.normal(size=(4, 2))
    h0 = rng.normal(size=(4, 3))
    c0 = rng.normal(size=(4, 3))
    h_b, c_b, _ = lstm_cell_forward(x, h0, c0, p)
    for k in range(4):
        h_s, c_s, _ = lstm_cell_forward(x[k], h0[k], c0[k], p)
        assert np.allclose(h_b[k], h_s, atol=1e-14)
        assert np.allclose(c_b[k], c_s, atol=1e-14)


def test_cell_shape_mismatch():
    p = scalar_cell(0, 0, 0, 0)
    with pytest.raises(ShapeMismatchError):
        lstm_cell_forward(np.zeros(2), np.zeros(1), np.zeros(1), p)


# -- reversal ---------------------------------------------------------------


def test_reverse_padded_known_case():
    arr = np.arange(8, dtype=float).reshape(1, 4, 2)
    out = reverse_padded(arr, np.array([3]))
    assert out[0].tolist() == [[4, 5], [2, 3], [0, 1], [6, 7]]


def test_reverse_padded_is_involution():
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(5, 7, 3))
    lengths = rng.integers(1, 8, size=5)
    assert np.array_equal(reverse_padded(reverse_padded(arr, lengths), lengths), arr)


def reverse_padded_loop(arr, lengths):
    out = arr.copy()
    for b, n in enumerate(lengths):
        out[b, :n] = arr[b, :n][::-1]
    return out


def test_reverse_padded_matches_loop():
    rng = np.random.default_rng(3)
    for _ in range(25):
        b_sz, t_len = (int(v) for v in rng.integers(1, 9, size=2))
        arr = rng.normal(size=(b_sz, t_len, 3))
        lengths = rng.integers(1, t_len + 1, size=b_sz)
        assert np.array_equal(
            reverse_padded(arr, lengths), reverse_padded_loop(arr, lengths)
        )


# -- forward pass -----------------------------------------------------------


CONFIGS = [
    ModelConfig(hidden=5, input_dim=4, classes=3, frame=4, layers=1),
    ModelConfig(hidden=5, input_dim=4, classes=3, frame=4, layers=2),
    ModelConfig(hidden=5, input_dim=4, classes=3, frame=4, layers=2, readout="mean"),
    ModelConfig(hidden=5, input_dim=4, classes=3, frame=4, layers=2, bidirectional=False),
]


def ragged_batch(config, seed):
    """One sample of each length 1..T, junk in the padding."""
    rng = np.random.default_rng(seed)
    t_len = config.frame + 2
    x = rng.normal(size=(t_len, t_len, config.input_dim)) * 2.0
    mask = (np.arange(t_len)[None, :] < np.arange(1, t_len + 1)[:, None]).astype(float)
    labels = rng.integers(0, config.classes, size=t_len)
    return x, mask, labels


def reference_logits(model, x, mask):
    """Plain per-sample scan of lstm_cell_forward.

    Padded steps carry the state (documented carry rule); the backward
    direction reads each sample's valid prefix reversed and leaves the
    padded tail in place (documented reversal rule).
    """
    cfg = model.config
    logits = []
    for b in range(x.shape[0]):
        n = int(mask[b].sum())
        seq = x[b]
        t_len = seq.shape[0]
        for cells in model.layers:
            outputs, finals = [], []
            for di, cell in enumerate(cells):
                order = list(range(t_len)) if di == 0 else (
                    list(range(n - 1, -1, -1)) + list(range(n, t_len))
                )
                h = np.zeros(cfg.hidden)
                c = np.zeros(cfg.hidden)
                hs = np.empty((t_len, cfg.hidden))
                for k, t in enumerate(order):
                    h_new, c_new, _ = lstm_cell_forward(seq[t], h, c, cell)
                    if k < n:
                        h, c = h_new, c_new
                    hs[t] = h
                outputs.append(hs)
                finals.append(h)
            seq = np.concatenate(outputs, axis=1)
        rep = np.concatenate(finals) if cfg.readout == "final" else seq[:n].mean(axis=0)
        logits.append(rep @ model.head_w.T + model.head_b)
    return np.array(logits)


@pytest.mark.parametrize("config", CONFIGS)
def test_forward_matches_reference_scan(config):
    model = BiLstmModel.initialize(config, seed=21)
    x, mask, _ = ragged_batch(config, seed=22)
    logits, _ = model.forward(x, mask)
    assert np.max(np.abs(logits - reference_logits(model, x, mask))) < 1e-12


def central_differences(model, x, mask, labels, eps=1e-5):
    theta = model.flatten()
    numeric = np.empty_like(theta)
    for idx in range(theta.size):
        losses = []
        for step in (eps, -eps):
            bumped = theta.copy()
            bumped[idx] += step
            model.load_flat(bumped)
            losses.append(softmax_xent(model.forward(x, mask)[0], labels)[0])
        numeric[idx] = (losses[0] - losses[1]) / (2.0 * eps)
    model.load_flat(theta)
    return numeric


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("config", CONFIGS)
def test_gradients_on_ragged_batch(config, dropout):
    model = BiLstmModel.initialize(config, seed=23)
    x, mask, labels = ragged_batch(config, seed=24)
    if dropout:
        # every forward of the check draws the same dropout masks
        model.forward = functools.partial(
            BiLstmModel.forward, model, train=True, dropout=dropout, dropout_seed=25
        )
    analytic = model.backward(model.forward(x, mask)[1], labels)
    numeric = central_differences(model, x, mask, labels)
    # Central-difference round-off here is about 1e-10. grad_check divides
    # by max(|entry|, 1e-8), so on entries of 1e-8 to 1e-6 that round-off
    # alone reads up to 1e-3; bound every entry by the largest one instead.
    assert np.max(np.abs(analytic - numeric)) < 1e-6 * np.max(np.abs(numeric))


@pytest.mark.filterwarnings("error")
def test_saturated_gates_stay_finite():
    config = ModelConfig(hidden=3, input_dim=2, classes=2, frame=4, layers=2)
    model = BiLstmModel.initialize(config, seed=26)
    for layer in model.layers:
        for cell in layer:
            cell.w_x[:] = 0.0
            cell.w_h[:] = 0.0
            cell.b[:] = np.tile([1000.0, -1000.0], 6)  # pre-activations exactly +-1000
    x = np.ones((2, 4, 2))
    mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
    logits, tape = model.forward(x, mask)
    for cache in (cache for layer in tape.caches for cache in layer):
        assert np.all(np.isfinite(cache.h)) and np.all(np.isfinite(cache.c))
        assert set(np.unique(cache.gates)) <= {0.0, 1.0, -1.0}
    assert np.all(np.isfinite(logits))
    assert np.all(np.isfinite(model.backward(tape, np.array([0, 1]))))
    p = LstmCellParams(w_x=np.zeros((8, 1)), w_h=np.zeros((8, 2)), b=np.tile([-1000.0, 1000.0], 4))
    h, c, _ = lstm_cell_forward(np.ones(1), np.ones(2), np.ones(2), p)
    assert np.all(np.isfinite(h)) and np.all(np.isfinite(c))


@pytest.mark.parametrize("config", CONFIGS)
def test_padding_does_not_change_logits(config):
    model = BiLstmModel.initialize(config, seed=3)
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(3, 4))

    trimmed = np.zeros((1, 3, 4))
    trimmed[0] = rows
    logits_a, _ = model.forward(trimmed, np.ones((1, 3)))

    padded = rng.normal(size=(1, 6, 4))  # junk everywhere
    padded[0, :3] = rows
    mask = np.zeros((1, 6))
    mask[0, :3] = 1.0
    logits_b, _ = model.forward(padded, mask)

    assert np.allclose(logits_a, logits_b, atol=1e-12)


def test_batching_does_not_change_logits():
    config = ModelConfig(hidden=6, input_dim=4, classes=3, frame=5)
    model = BiLstmModel.initialize(config, seed=5)
    rng = np.random.default_rng(6)
    x = np.zeros((2, 5, 4))
    mask = np.zeros((2, 5))
    x[0, :5] = rng.normal(size=(5, 4))
    mask[0, :5] = 1.0
    x[1, :3] = rng.normal(size=(3, 4))
    mask[1, :3] = 1.0
    together, _ = model.forward(x, mask)
    alone0, _ = model.forward(x[:1], mask[:1])
    alone1, _ = model.forward(x[1:, :3], mask[1:, :3])
    assert np.allclose(together[0], alone0[0], atol=1e-12)
    assert np.allclose(together[1], alone1[0], atol=1e-12)


def test_initialize_deterministic():
    config = ModelConfig(hidden=4, input_dim=3, classes=2, frame=3)
    a = BiLstmModel.initialize(config, seed=11)
    b = BiLstmModel.initialize(config, seed=11)
    assert np.array_equal(a.flatten(), b.flatten())
    c = BiLstmModel.initialize(config, seed=12)
    assert not np.array_equal(a.flatten(), c.flatten())


def test_forget_bias_initialized_open():
    config = ModelConfig(hidden=4, input_dim=3, classes=2, frame=3)
    model = BiLstmModel.initialize(config, seed=0)
    for layer in model.layers:
        for cell in layer:
            assert np.all(cell.b[4:8] == 1.0)
            assert np.all(cell.b[:4] == 0.0)
            assert np.all(cell.b[8:] == 0.0)


def test_empty_mask_rejected():
    config = ModelConfig(hidden=4, input_dim=3, classes=2, frame=3)
    model = BiLstmModel.initialize(config, seed=0)
    with pytest.raises(EmptySequenceError):
        model.forward(np.zeros((1, 3, 3)), np.zeros((1, 3)))


def test_bad_input_shape_rejected():
    config = ModelConfig(hidden=4, input_dim=3, classes=2, frame=3)
    model = BiLstmModel.initialize(config, seed=0)
    with pytest.raises(ShapeMismatchError):
        model.forward(np.zeros((1, 3, 5)), np.ones((1, 3)))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden=0)
    with pytest.raises(ValueError):
        ModelConfig(hidden=4, layers=3)
    with pytest.raises(ValueError):
        ModelConfig(hidden=4, readout="max")
    with pytest.raises(ValueError):
        ModelConfig(hidden=4, classes=1)


# -- softmax and loss -------------------------------------------------------


def test_softmax_uniform():
    loss, probs = softmax_xent(np.zeros((2, 8)), np.array([0, 5]))
    assert loss == pytest.approx(math.log(8.0), abs=1e-12)
    assert np.allclose(probs, 1.0 / 8.0)


def test_softmax_xent_hand_case():
    logits = np.array([[1.0, 2.0, 3.0]])
    loss, probs = softmax_xent(logits, np.array([2]))
    assert loss == pytest.approx(0.40760596444438084, abs=1e-12)
    assert probs[0, 2] == pytest.approx(0.6652409557748219, abs=1e-12)


def test_softmax_extreme_logits_stay_finite():
    loss, probs = softmax_xent(np.array([[1000.0, 0.0]]), np.array([0]))
    assert math.isfinite(loss)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert probs[0, 0] == pytest.approx(1.0)
    out = softmax(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out))


# -- dropout ----------------------------------------------------------------


def test_dropout_identity_cases():
    x = np.ones((4, 6))
    assert dropout_forward(x, 0.0, seed=1, train_mode=True) is x
    assert dropout_forward(x, 0.5, seed=1, train_mode=False) is x


def test_dropout_scales_survivors():
    x = np.ones((2000,))
    out = dropout_forward(x, 0.25, seed=9, train_mode=True)
    kept = out[out != 0]
    assert np.allclose(kept, 1.0 / 0.75)
    # survivor fraction near 75%
    assert 0.70 < kept.size / x.size < 0.80


def test_dropout_seed_reproducible():
    x = np.ones((50, 8))
    a = dropout_forward(x, 0.5, seed=3, train_mode=True)
    b = dropout_forward(x, 0.5, seed=3, train_mode=True)
    assert np.array_equal(a, b)


def test_dropout_bad_rate():
    with pytest.raises(ValueError):
        dropout_forward(np.ones(3), 1.0, seed=0, train_mode=True)


# -- gradients --------------------------------------------------------------


def test_gradients_match_finite_differences():
    config = ModelConfig(hidden=4, input_dim=3, classes=3, frame=4, layers=2)
    model = BiLstmModel.initialize(config, seed=7)
    rng = np.random.default_rng(8)
    x = np.zeros((2, 4, 3))
    mask = np.zeros((2, 4))
    x[0] = rng.normal(size=(4, 3))
    mask[0] = 1.0
    x[1, :2] = rng.normal(size=(2, 3))
    mask[1, :2] = 1.0
    labels = np.array([0, 2])
    assert grad_check(model, x, mask, labels) < 1e-4


def test_gradients_mean_readout_unidirectional():
    config = ModelConfig(
        hidden=3, input_dim=2, classes=2, frame=3, layers=1,
        bidirectional=False, readout="mean",
    )
    model = BiLstmModel.initialize(config, seed=9)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 2))
    mask = np.ones((2, 3))
    mask[1, 2] = 0.0
    labels = np.array([1, 0])
    assert grad_check(model, x, mask, labels) < 1e-4


def test_tape_single_use():
    config = ModelConfig(hidden=4, input_dim=3, classes=2, frame=3)
    model = BiLstmModel.initialize(config, seed=0)
    x = np.ones((1, 3, 3))
    _, tape = model.forward(x, np.ones((1, 3)))
    model.backward(tape, np.array([1]))
    with pytest.raises(TapeReuseError):
        model.backward(tape, np.array([1]))


def test_backward_label_shape_rejected():
    config = ModelConfig(hidden=4, input_dim=3, classes=2, frame=3)
    model = BiLstmModel.initialize(config, seed=0)
    _, tape = model.forward(np.ones((2, 3, 3)), np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        model.backward(tape, np.array([1]))


def test_flatten_load_flat_round_trip():
    config = ModelConfig(hidden=4, input_dim=3, classes=2, frame=3)
    model = BiLstmModel.initialize(config, seed=1)
    theta = model.flatten()
    bumped = theta + 0.5
    model.load_flat(bumped)
    assert np.array_equal(model.flatten(), bumped)
    assert model.n_params == theta.size


# -- prediction -------------------------------------------------------------


def test_predict_returns_class_and_distribution():
    config = ModelConfig(hidden=4, input_dim=3, classes=5, frame=4)
    model = BiLstmModel.initialize(config, seed=2)
    label, probs = model.predict(np.ones((3, 3)))
    assert 0 <= label < 5
    assert probs.shape == (5,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert label == int(np.argmax(probs))


def test_predict_pads_short_input_to_frame():
    config = ModelConfig(hidden=4, input_dim=3, classes=3, frame=6)
    model = BiLstmModel.initialize(config, seed=2)
    label, _ = model.predict(np.ones((3, 3)))
    assert 0 <= label < 3


def test_predict_empty_rejected():
    config = ModelConfig(hidden=4, input_dim=3, classes=3, frame=4)
    model = BiLstmModel.initialize(config, seed=2)
    with pytest.raises(EmptySequenceError):
        model.predict(np.ones((0, 3)))


# -- checkpoints ------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    config = ModelConfig(hidden=6, input_dim=16, classes=8, frame=5)
    model = BiLstmModel.initialize(config, seed=13)
    model.scaler = FeatureScaler(
        shift=np.arange(16, dtype=np.float64),
        scale=np.ones(16, dtype=np.float64) * 2.0,
    )
    path = tmp_path / "model.blsm"
    save_model(model, str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"BLSM"

    back = load_model(str(path))
    assert back.config == config
    assert np.array_equal(back.flatten(), model.flatten())
    assert np.array_equal(back.scaler.shift, model.scaler.shift)
    assert np.array_equal(back.scaler.scale, model.scaler.scale)

    again = tmp_path / "again.blsm"
    save_model(back, str(again))
    assert again.read_bytes() == raw


def test_checkpoint_without_scaler(tmp_path):
    config = ModelConfig(hidden=3, input_dim=4, classes=2, frame=3,
                         layers=1, bidirectional=False, readout="mean")
    model = BiLstmModel.initialize(config, seed=14)
    path = tmp_path / "m.blsm"
    save_model(model, str(path))
    back = load_model(str(path))
    assert back.scaler is None
    assert back.config == config
    assert np.array_equal(back.flatten(), model.flatten())


def test_checkpoint_predictions_survive(tmp_path):
    config = ModelConfig(hidden=5, input_dim=4, classes=3, frame=4)
    model = BiLstmModel.initialize(config, seed=15)
    rows = np.random.default_rng(16).normal(size=(4, 4))
    before = model.predict(rows)
    path = tmp_path / "m.blsm"
    save_model(model, str(path))
    after = load_model(str(path)).predict(rows)
    assert before[0] == after[0]
    assert np.array_equal(before[1], after[1])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.blsm"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(BadMagicError):
        load_model(str(path))


def test_checkpoint_truncated(tmp_path):
    config = ModelConfig(hidden=3, input_dim=4, classes=2, frame=3)
    model = BiLstmModel.initialize(config, seed=17)
    path = tmp_path / "m.blsm"
    save_model(model, str(path))
    clipped = tmp_path / "clipped.blsm"
    clipped.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(TruncatedFileError):
        load_model(str(clipped))
