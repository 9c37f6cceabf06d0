"""Training loop, evaluation report, hyperparameter sweep, timing bench.

Determinism contract: given one TrainConfig (seed included) and one sample
list, training produces bit-identical checkpoints. All randomness comes
from three derived streams: model init (seed), per-epoch batch shuffles
(seed, epoch), and per-step dropout masks (seed, step).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import batches, split
from .errors import (
    DimMismatchError,
    DivergenceError,
    EmptyDatasetError,
    EmptyTestSetError,
)
from .features import FeatureScaler, FeatureSequence, feature_matrix, window_matrix
from .metrics import (
    confusion_matrix,
    macro_accuracy,
    overall_accuracy,
    per_class_accuracy,
    roc_micro_average,
    roc_one_vs_rest,
)
from .neural import (
    BiLstmModel,
    ModelConfig,
    lstm_param_count,
    save_model,
    softmax,
    softmax_xent,
)
from .optim import Optimizer, OptimizerConfig

_EPOCH_SEED_STRIDE = 1_000_003
_DROPOUT_SEED_STRIDE = 7_919


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 50
    epochs: int = 10
    dropout: float = 0.0
    seed: int = 0
    scale_features: bool = False
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


def prepare_batch(
    samples: list[FeatureSequence],
    frame: int,
    scaler: FeatureScaler | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad a list of sequences to a dense (B, T, D) batch with tail masks.

    Each sample's rows are written (and scaled) straight into the float64
    batch; the float32 to float64 cast is exact.
    """
    t_len = max(frame, max(len(s.rows) for s in samples))
    dim = samples[0].rows.shape[1]
    x = np.zeros((len(samples), t_len, dim))
    mask = np.zeros((len(samples), t_len))
    labels = np.empty(len(samples), dtype=int)
    for i, s in enumerate(samples):
        n = len(s.rows)
        if scaler is None:
            x[i, :n] = s.rows
        else:
            scaler.transform(s.rows, out=x[i, :n])
        mask[i, :n] = 1.0
        labels[i] = s.label
    return x, mask, labels


def train(
    train_set: list[FeatureSequence], config: TrainConfig
) -> tuple[BiLstmModel, list[float]]:
    """Train a fresh model; returns it with the per-batch loss history."""
    if not train_set:
        raise EmptyDatasetError("training set is empty")
    model = BiLstmModel.initialize(config.model, config.seed)
    if config.scale_features:
        model.scaler = FeatureScaler.fit(train_set)
    opt = Optimizer(config.optimizer, model.n_params)
    history: list[float] = []
    step = 0
    for epoch in range(config.epochs):
        epoch_seed = config.seed + _EPOCH_SEED_STRIDE * (epoch + 1)
        for batch in batches(train_set, config.batch_size, epoch_seed):
            x, mask, labels = prepare_batch(batch, config.model.frame, model.scaler)
            logits, tape = model.forward(
                x,
                mask,
                train=True,
                dropout=config.dropout,
                dropout_seed=config.seed + _DROPOUT_SEED_STRIDE * (step + 1),
            )
            loss, _ = softmax_xent(logits, labels)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"loss became {loss} at epoch {epoch} step {step}"
                )
            grads = model.backward(tape, labels)
            model.load_flat(opt.step(model.params, grads))
            history.append(loss)
            step += 1
    if config.checkpoint_path is not None:
        save_model(model, config.checkpoint_path)
    return model, history


@dataclass
class EvalReport:
    confusion: np.ndarray  # (C, C), rows true
    per_class_accuracy: np.ndarray  # percent
    overall_accuracy: float  # fraction
    macro_accuracy: float  # fraction
    roc: list[list[tuple[float, float]]]
    auc: list[float]
    roc_micro: list[tuple[float, float]]
    wall_time_seconds: float


def evaluate(
    model: BiLstmModel,
    test_set: list[FeatureSequence],
    eval_batch: int = 256,
) -> EvalReport:
    if not test_set:
        raise EmptyTestSetError("evaluation set is empty")
    classes = model.config.classes
    worst = max(s.label for s in test_set)
    if worst >= classes:
        raise DimMismatchError(
            f"test set contains label {worst}, model knows {classes} classes"
        )
    start = time.perf_counter()
    all_probs = np.empty((len(test_set), classes))
    pos = 0
    for i in range(0, len(test_set), eval_batch):
        chunk = test_set[i : i + eval_batch]
        x, mask, _ = prepare_batch(chunk, model.config.frame, model.scaler)
        logits, _ = model.forward(x, mask)
        all_probs[pos : pos + len(chunk)] = softmax(logits)
        pos += len(chunk)
    y_true = np.array([s.label for s in test_set], dtype=int)
    y_pred = np.argmax(all_probs, axis=1)
    conf = confusion_matrix(y_true, y_pred, classes)
    curves, aucs = roc_one_vs_rest(all_probs, y_true, classes)
    micro = roc_micro_average(all_probs, y_true, classes)
    return EvalReport(
        confusion=conf,
        per_class_accuracy=per_class_accuracy(conf),
        overall_accuracy=overall_accuracy(conf),
        macro_accuracy=macro_accuracy(conf),
        roc=curves,
        auc=aucs,
        roc_micro=micro,
        wall_time_seconds=time.perf_counter() - start,
    )


@dataclass
class SweepRow:
    optimizer: str
    lr: float
    dropout: float
    batch_size: int
    accuracy_by_frame: dict[int, float | None]  # macro accuracy, None on failure
    seconds_per_epoch: float | None
    error: str | None = None


def sweep(
    traces_with_labels: list,
    frames: list[int],
    optimizers: list[str],
    lrs: list[float],
    dropouts: list[float],
    batch_sizes: list[int],
    base: TrainConfig,
    split_seed: int = 1,
    train_fraction: float = 0.8,
) -> list[SweepRow]:
    """Grid run mirroring the optimizer/lr/dropout table, one accuracy
    column per frame length. Per-run failures mark the row, never abort."""
    matrices = [(feature_matrix(t), label) for t, label in traces_with_labels]
    per_frame_splits: dict[int, tuple[list, list]] = {}
    for frame in frames:
        samples = [
            FeatureSequence(rows=w, label=label)
            for matrix, label in matrices
            for w in window_matrix(matrix, frame)
        ]
        per_frame_splits[frame] = split(samples, seed=split_seed,
                                        train_fraction=train_fraction)

    rows: list[SweepRow] = []
    for opt_kind in optimizers:
        for lr in lrs:
            for dropout in dropouts:
                for batch_size in batch_sizes:
                    acc: dict[int, float | None] = {}
                    secs: float | None = None
                    err: str | None = None
                    for frame in frames:
                        tr, te = per_frame_splits[frame]
                        cfg = replace(
                            base,
                            model=replace(base.model, frame=frame),
                            optimizer=replace(
                                base.optimizer, kind=opt_kind, lr=lr
                            ),
                            dropout=dropout,
                            batch_size=batch_size,
                        )
                        try:
                            t0 = time.perf_counter()
                            model, _ = train(tr, cfg)
                            elapsed = (time.perf_counter() - t0) / cfg.epochs
                            report = evaluate(model, te)
                            acc[frame] = report.macro_accuracy
                            secs = elapsed
                        except Exception as exc:  # keep the grid alive
                            acc[frame] = None
                            err = f"frame {frame}: {exc}"
                    rows.append(
                        SweepRow(
                            optimizer=opt_kind,
                            lr=lr,
                            dropout=dropout,
                            batch_size=batch_size,
                            accuracy_by_frame=acc,
                            seconds_per_epoch=secs,
                            error=err,
                        )
                    )
    return rows


def timing_bench(
    train_set: list[FeatureSequence],
    base: TrainConfig,
    batch_sizes: list[int],
) -> list[tuple[int, float]]:
    """Seconds per epoch at each batch size, same samples and model shape."""
    out = []
    for bs in batch_sizes:
        cfg = replace(base, batch_size=bs, epochs=1)
        t0 = time.perf_counter()
        train(train_set, cfg)
        out.append((bs, time.perf_counter() - t0))
    return out


__all__ = [
    "TrainConfig",
    "EvalReport",
    "prepare_batch",
    "train",
    "evaluate",
    "sweep",
    "SweepRow",
    "timing_bench",
    "lstm_param_count",
]
