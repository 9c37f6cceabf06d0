"""Training loop, evaluation reports, parameter budgets, sweeps."""

import hashlib

import numpy as np
import pytest

from evasionlab.dataset import batches, split
from evasionlab.errors import (
    DimMismatchError,
    DivergenceError,
    EmptyDatasetError,
    EmptyTestSetError,
)
from evasionlab.features import FeatureScaler, FeatureSequence
from evasionlab.neural import BiLstmModel, ModelConfig, load_model, softmax, softmax_xent
from evasionlab.optim import Optimizer, OptimizerConfig
from evasionlab.synth import SynthParams, build_labeled_corpus
from evasionlab.training import (
    _DROPOUT_SEED_STRIDE,
    _EPOCH_SEED_STRIDE,
    EvalReport,
    TrainConfig,
    evaluate,
    lstm_param_count,
    prepare_batch,
    sweep,
    timing_bench,
    train,
)
from helpers import matched_uni_hidden


def toy_samples(n_per_class=8, classes=3, seed=0):
    """Separable synthetic sequences: class k has mean k in every column."""
    rng = np.random.default_rng(seed)
    out = []
    for label in range(classes):
        for _ in range(n_per_class):
            length = int(rng.integers(3, 8))
            rows = rng.normal(loc=float(label) * 2.0, scale=0.3, size=(length, 16))
            out.append(FeatureSequence(rows=rows.astype(np.float32), label=label))
    return out


def toy_config(**kw):
    model = ModelConfig(hidden=8, input_dim=16, classes=3, frame=5)
    defaults = dict(
        model=model,
        optimizer=OptimizerConfig(kind="adam", lr=0.02),
        batch_size=8,
        epochs=8,
        seed=1,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


# -- batching ---------------------------------------------------------------


def test_prepare_batch_pads_to_frame():
    samples = [
        FeatureSequence(rows=np.ones((3, 16), dtype=np.float32), label=0),
        FeatureSequence(rows=np.ones((4, 16), dtype=np.float32), label=1),
    ]
    x, mask, labels = prepare_batch(samples, frame=5, scaler=None)
    assert x.shape == (2, 5, 16)
    assert mask.tolist() == [[1, 1, 1, 0, 0], [1, 1, 1, 1, 0]]
    assert labels.tolist() == [0, 1]
    assert x.dtype == np.float64


def test_prepare_batch_grows_past_frame():
    samples = [FeatureSequence(rows=np.ones((7, 16), dtype=np.float32), label=0)]
    x, mask, _ = prepare_batch(samples, frame=5, scaler=None)
    assert x.shape == (1, 7, 16)
    assert mask.sum() == 7


def test_prepare_batch_applies_scaler():
    rows = np.full((3, 16), 10.0, dtype=np.float32)
    samples = [FeatureSequence(rows=rows, label=0)]
    scaler = FeatureScaler(shift=np.full(16, 10.0), scale=np.full(16, 2.0))
    x, _, _ = prepare_batch(samples, frame=3, scaler=scaler)
    assert np.allclose(x[0], 0.0)


def scaled_by_parent_expression(rows, scaler):
    return (rows.astype(np.float64) - scaler.shift) / scaler.scale


SCALER_DIGEST = "fc14a175cc1e919fb4441bf8eb996c04464a46f88fec08ad8daec7df49ca64f7"


def test_scaled_rows_batches_and_predictions_are_pinned():
    """transform, prepare_batch and predict under a non-trivial scaler, on
    float32 and float64 rows, equal the allocate-and-divide expression bit
    for bit; transform and the batches (elementwise IEEE arithmetic, no
    BLAS) are also pinned by digest."""
    rng = np.random.default_rng(11)
    scaler = FeatureScaler(shift=rng.normal(3.0, 5.0, 16), scale=rng.uniform(0.1, 40.0, 16))
    lengths = (3, 5, 7, 4)
    cases = {
        dtype: [rng.normal(2.0, 30.0, (n, 16)).astype(dtype) for n in lengths]
        for dtype in (np.float32, np.float64)
    }
    model = BiLstmModel.initialize(ModelConfig(hidden=8, input_dim=16, classes=3, frame=5), 4)
    model.scaler = scaler
    digest = hashlib.sha256()
    for all_rows in cases.values():
        for rows in all_rows:
            out = scaler.transform(rows)
            assert out.dtype == np.float64
            assert out.tobytes() == scaled_by_parent_expression(rows, scaler).tobytes()
            digest.update(out.tobytes())

            x = np.zeros((1, 5 if len(rows) <= 5 else len(rows), 16))
            x[0, : len(rows)] = scaled_by_parent_expression(rows, scaler)
            mask = (np.arange(x.shape[1]) < len(rows)).astype(np.float64)[None]
            expected = softmax(model.forward(x, mask)[0])[0]
            assert model.predict(rows)[1].tobytes() == expected.tobytes()

        samples = [FeatureSequence(rows=r, label=i) for i, r in enumerate(all_rows)]
        x, mask, _ = prepare_batch(samples, frame=5, scaler=scaler)
        for i, rows in enumerate(all_rows):
            expected = scaled_by_parent_expression(rows, scaler)
            assert x[i, : len(rows)].tobytes() == expected.tobytes()
            assert not x[i, len(rows) :].any()  # padding stays zero, unscaled
        digest.update(x.tobytes())
        digest.update(mask.tobytes())
    assert digest.hexdigest() == SCALER_DIGEST


# -- training ---------------------------------------------------------------


def test_training_learns_separable_toy_data():
    samples = toy_samples()
    model, history = train(samples, toy_config())
    assert history[-1] < history[0]
    report = evaluate(model, samples)
    assert report.overall_accuracy > 0.9


def test_training_is_deterministic():
    samples = toy_samples()
    cfg = toy_config(epochs=2, dropout=0.1)
    model_a, hist_a = train(samples, cfg)
    model_b, hist_b = train(samples, cfg)
    assert hist_a == hist_b
    assert np.array_equal(model_a.flatten(), model_b.flatten())


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_train_matches_hand_loop(dropout):
    # train() is exactly this public call sequence, bit for bit
    samples = toy_samples()
    cfg = toy_config(epochs=2, dropout=dropout)
    model = BiLstmModel.initialize(cfg.model, cfg.seed)
    opt = Optimizer(cfg.optimizer, model.n_params)
    step = 0
    for epoch in range(cfg.epochs):
        for batch in batches(samples, cfg.batch_size, cfg.seed + _EPOCH_SEED_STRIDE * (epoch + 1)):
            x, mask, labels = prepare_batch(batch, cfg.model.frame, None)
            logits, tape = model.forward(
                x, mask, train=True, dropout=cfg.dropout,
                dropout_seed=cfg.seed + _DROPOUT_SEED_STRIDE * (step + 1),
            )
            softmax_xent(logits, labels)
            grads = model.backward(tape, labels)
            model.load_flat(opt.step(model.flatten(), grads))
            step += 1
    trained, history = train(samples, cfg)
    assert len(history) == step
    assert np.array_equal(trained.flatten(), model.flatten())


def test_training_seed_changes_outcome():
    samples = toy_samples()
    _, hist_a = train(samples, toy_config(epochs=1, seed=1))
    _, hist_b = train(samples, toy_config(epochs=1, seed=2))
    assert hist_a != hist_b


def test_training_empty_set_rejected():
    with pytest.raises(EmptyDatasetError):
        train([], toy_config())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_detected():
    samples = toy_samples(n_per_class=4)
    # bounded gates keep the logits finite until the parameters
    # themselves overflow, which takes a rate near the float64 edge
    cfg = toy_config(
        optimizer=OptimizerConfig(kind="gd", lr=1e308), epochs=3
    )
    with pytest.raises(DivergenceError):
        train(samples, cfg)


def test_training_writes_checkpoint(tmp_path):
    samples = toy_samples(n_per_class=4)
    path = tmp_path / "toy.blsm"
    cfg = toy_config(epochs=1, checkpoint_path=str(path))
    model, _ = train(samples, cfg)
    back = load_model(str(path))
    assert np.array_equal(back.flatten(), model.flatten())


def test_scale_features_fits_scaler_on_train_set():
    samples = toy_samples(n_per_class=4)
    model, _ = train(samples, toy_config(epochs=1, scale_features=True))
    assert model.scaler is not None
    model2, _ = train(samples, toy_config(epochs=1))
    assert model2.scaler is None


# -- evaluation -------------------------------------------------------------


def test_evaluate_report_consistency():
    samples = toy_samples()
    model, _ = train(samples, toy_config(epochs=2))
    report = evaluate(model, samples)
    assert isinstance(report, EvalReport)
    assert report.confusion.sum() == len(samples)
    assert 0.0 <= report.overall_accuracy <= 1.0
    assert 0.0 <= report.macro_accuracy <= 1.0
    assert len(report.auc) == 3
    for a in report.auc:
        assert np.isnan(a) or 0.0 <= a <= 1.0
    assert report.roc_micro[-1] == (1.0, 1.0)
    assert report.wall_time_seconds > 0


def test_evaluate_empty_set_rejected():
    samples = toy_samples(n_per_class=2)
    model, _ = train(samples, toy_config(epochs=1))
    with pytest.raises(EmptyTestSetError):
        evaluate(model, [])


def test_evaluate_rejects_unknown_labels():
    samples = toy_samples(n_per_class=2)
    model, _ = train(samples, toy_config(epochs=1))
    alien = [FeatureSequence(rows=np.ones((3, 16), dtype=np.float32), label=7)]
    with pytest.raises(DimMismatchError):
        evaluate(model, alien)


def test_chunked_evaluation_matches_single_batch():
    samples = toy_samples(n_per_class=6)
    model, _ = train(samples, toy_config(epochs=1))
    a = evaluate(model, samples, eval_batch=4)
    b = evaluate(model, samples, eval_batch=1000)
    assert np.array_equal(a.confusion, b.confusion)
    assert a.overall_accuracy == b.overall_accuracy


# -- parameter budgets ------------------------------------------------------


def expected_param_count(cfg):
    d_dir = 2 if cfg.bidirectional else 1
    total = 0
    d_in = cfg.input_dim
    for _ in range(cfg.layers):
        per_cell = 4 * cfg.hidden * (d_in + cfg.hidden + 1)
        total += per_cell * d_dir
        d_in = cfg.hidden * d_dir
    total += cfg.classes * (cfg.hidden * d_dir) + cfg.classes
    return total


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("bidirectional", [True, False])
def test_param_count_formula(layers, bidirectional):
    cfg = ModelConfig(
        hidden=10, input_dim=16, classes=8, frame=5,
        layers=layers, bidirectional=bidirectional,
    )
    assert lstm_param_count(cfg) == expected_param_count(cfg)
    from evasionlab.neural import BiLstmModel

    model = BiLstmModel.initialize(cfg, seed=0)
    assert model.n_params == lstm_param_count(cfg)


def test_matched_uni_hidden_is_locally_optimal():
    bi = ModelConfig(hidden=16, input_dim=16, classes=8, frame=5)
    h = matched_uni_hidden(bi)
    target = lstm_param_count(bi)

    def gap(hh):
        uni = ModelConfig(
            hidden=hh, input_dim=16, classes=8, frame=5, bidirectional=False
        )
        return abs(lstm_param_count(uni) - target)

    assert gap(h) <= gap(h - 1)
    assert gap(h) <= gap(h + 1)
    assert h > 16  # a single direction needs more width for the same budget


# -- sweeps and timing ------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_grid_and_error_capture():
    corpus = build_labeled_corpus(6, SynthParams(), seed=3)
    base = TrainConfig(
        model=ModelConfig(hidden=6, input_dim=16, classes=8, frame=5),
        epochs=1,
        batch_size=16,
        seed=0,
    )
    rows = sweep(
        corpus,
        frames=[3, 5],
        optimizers=["adam", "gd"],
        lrs=[0.01, 1e308],
        dropouts=[0.0],
        batch_sizes=[16],
        base=base,
    )
    assert len(rows) == 4  # 2 optimizers x 2 lrs
    blown = [r for r in rows if r.lr == 1e308]
    assert blown and all(r.error is not None for r in blown)
    healthy = [r for r in rows if r.lr == 0.01]
    for row in healthy:
        assert row.error is None
        assert set(row.accuracy_by_frame) == {3, 5}
        for acc in row.accuracy_by_frame.values():
            assert 0.0 <= acc <= 1.0
        assert row.seconds_per_epoch > 0


def test_timing_bench_measures_each_batch_size():
    samples = toy_samples(n_per_class=4)
    base = TrainConfig(
        model=ModelConfig(hidden=4, input_dim=16, classes=3, frame=5),
        epochs=1,
        seed=0,
    )
    out = timing_bench(samples, base, [4, 12])
    assert [bs for bs, _ in out] == [4, 12]
    assert all(sec > 0 for _, sec in out)


# -- end-to-end on synthesized traffic --------------------------------------


def test_small_corpus_end_to_end():
    from evasionlab.features import extract_sequences

    corpus = build_labeled_corpus(12, SynthParams(), seed=9)
    samples = []
    for trace, label in corpus:
        samples.extend(extract_sequences(trace, 5, label))
    train_set, test_set = split(samples, seed=1)
    cfg = TrainConfig(
        model=ModelConfig(hidden=24, input_dim=16, classes=8, frame=5),
        optimizer=OptimizerConfig(kind="adam", lr=0.005),
        batch_size=32,
        epochs=6,
        seed=0,
    )
    model, history = train(train_set, cfg)
    assert history[-1] < history[0]
    report = evaluate(model, test_set)
    # tiny corpus, so just demand clearly-better-than-chance behavior
    assert report.overall_accuracy > 0.5
