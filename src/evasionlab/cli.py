"""Command-line entry point.

Subcommands: synth, extract, train, eval, sweep, bench, gradcheck.

Exit codes: 0 success, 1 usage problem, 2 data problem (unreadable or
inconsistent files), 3 numeric failure (divergence, failed gradient check).

Every flag can also come from a key=value configuration file (``--config``
or the EVASIONLAB_CONFIG environment variable); explicit flags win over
file values, and unknown keys are rejected by name.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .dataset import (
    class_histogram,
    export_csv,
    read_dataset,
    split,
    write_dataset,
)
from .errors import (
    BadMagicError,
    CheckpointFormatError,
    DatasetFormatError,
    DimMismatchError,
    DivergenceError,
    EmptyDatasetError,
    EmptyPayloadError,
    EmptySequenceError,
    EmptyTestSetError,
    IncompleteStreamError,
    NonFiniteGradientError,
    TraceTooShortError,
    TruncatedFileError,
)
from .features import (
    FRAME_MAX,
    FRAME_MIN,
    FeatureSequence,
    extract_sequences,
)
from .metrics import auc_trapezoid
from .neural import (
    READOUT_FINAL,
    READOUT_MEAN,
    BiLstmModel,
    ModelConfig,
    grad_check,
    load_model,
)
from .optim import ADAM, KINDS, OptimizerConfig
from .pcapio import read_flows, write_pcap
from .synth import (
    CLEAN_LABEL,
    EvasionLabel,
    SynthParams,
    build_labeled_corpus,
)
from .training import TrainConfig, evaluate, sweep, timing_bench, train

PROG = "evasionlab"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage problems."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _frame_arg(text: str) -> int:
    value = int(text)
    if not FRAME_MIN <= value <= FRAME_MAX:
        raise argparse.ArgumentTypeError(
            f"frame must be in [{FRAME_MIN}, {FRAME_MAX}], got {value}"
        )
    return value


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _str_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _label_arg(text: str) -> int:
    if text.lower() == "clean":
        return CLEAN_LABEL
    return int(EvasionLabel.from_tag(text))


def _label_tag(code: int) -> str:
    return "clean" if code == CLEAN_LABEL else EvasionLabel(code).tag


# --------------------------------------------------------------------------
# configuration file support
# --------------------------------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    for no, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _convert_config(sub: argparse.ArgumentParser, raw: dict[str, str]) -> dict:
    actions = {a.dest: a for a in sub._actions}
    out = {}
    for key, text in raw.items():
        action = actions.get(key)
        if action is None or key in ("help", "config", "command"):
            raise _UsageError(f"unknown configuration key {key!r}")
        if action.nargs == 0 and isinstance(action.const, bool):
            out[key] = text.lower() in ("1", "true", "yes", "on")
        elif isinstance(action, argparse.BooleanOptionalAction):
            out[key] = text.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            try:
                out[key] = action.type(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise _UsageError(f"config key {key!r}: {exc}") from exc
        else:
            out[key] = text
    return out


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _synth_params(args) -> SynthParams:
    try:
        return SynthParams(
            seed=args.seed,
            frag_units=args.frag_units,
            seg_bytes=args.seg_bytes,
            chaff_rate=args.chaff_rate,
            ttl_floor=args.ttl_floor,
            tos_values=tuple(args.tos_values),
            overlap=args.overlap,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def cmd_synth(args) -> int:
    params = _synth_params(args)
    if args.min_packets < FRAME_MIN:
        raise _UsageError(f"--min-packets must be >= {FRAME_MIN}")
    corpus = build_labeled_corpus(
        args.flows_per_class,
        params,
        seed=args.seed,
        n_packets_range=(args.min_packets, args.max_packets),
        payload_len_range=(args.min_payload, args.max_payload),
        include_clean=args.include_clean,
    )
    samples = [
        window
        for trace, label in corpus
        for window in extract_sequences(trace, args.frame, label)
    ]
    class_count = 9 if args.include_clean else 8
    count = write_dataset(samples, args.out, class_count=class_count)
    print(f"wrote {count} samples ({class_count} classes) to {args.out}")
    flow_hist: dict[int, int] = {}
    for _, label in corpus:
        flow_hist[label] = flow_hist.get(label, 0) + 1
    sample_hist = class_histogram(samples)
    print("class        flows  samples")
    for code in sorted(flow_hist):
        print(
            f"{_label_tag(code):<12} {flow_hist[code]:>5}  "
            f"{sample_hist.get(code, 0):>7}"
        )
    if args.csv:
        rows = export_csv(samples, args.csv)
        print(f"exported {rows} feature rows to {args.csv}")
    if args.emit_pcap:
        os.makedirs(args.emit_pcap, exist_ok=True)
        counters: dict[int, int] = {}
        for trace, label in corpus:
            i = counters.get(label, 0)
            counters[label] = i + 1
            name = os.path.join(args.emit_pcap, f"{_label_tag(label)}_{i:05d}.pcap")
            with open(name, "wb") as fh:
                write_pcap(fh, trace.packets)
        print(f"emitted {len(corpus)} pcap files under {args.emit_pcap}")
    return 0


def cmd_extract(args) -> int:
    flows, stats = read_flows(args.pcap)
    samples: list[FeatureSequence] = []
    skipped = 0
    for flow in flows:
        try:
            samples.extend(extract_sequences(flow, args.frame, args.label))
        except TraceTooShortError:
            skipped += 1
    if not samples:
        print(
            f"warning: no usable samples in {args.pcap} "
            f"({stats.packets_total} packets, {stats.flows} flows); nothing written"
        )
        return 0
    class_count = 9 if args.label == CLEAN_LABEL else 8
    count = write_dataset(samples, args.out, class_count=class_count)
    print(
        f"wrote {count} samples (label {_label_tag(args.label)}) to {args.out}; "
        f"{stats.flows} flows, {skipped} too short, "
        f"{stats.packets_skipped} non-TCP frames skipped"
    )
    return 0


def _model_config(args, class_count: int) -> ModelConfig:
    return ModelConfig(
        hidden=args.hidden,
        classes=class_count,
        frame=args.frame,
        layers=args.layers,
        bidirectional=not args.unidirectional,
        readout=args.readout,
    )


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(
        kind=args.optimizer,
        lr=args.lr,
        l1=args.l1,
        l2_shrink=args.l2_shrink,
        l2_weight_decay=args.l2_weight_decay,
    )


def cmd_train(args) -> int:
    samples, class_count = read_dataset(args.data)
    train_set, test_set = split(samples, args.split_seed, args.train_fraction)
    config = TrainConfig(
        model=_model_config(args, class_count),
        optimizer=_optimizer_config(args),
        batch_size=args.batch_size,
        epochs=args.epochs,
        dropout=args.dropout,
        seed=args.seed,
        scale_features=args.scale,
        checkpoint_path=args.model_out,
    )
    t0 = time.perf_counter()
    model, history = train(train_set, config)
    wall = time.perf_counter() - t0
    print(
        f"trained on {len(train_set)} samples ({len(test_set)} held out), "
        f"{config.epochs} epochs, {len(history)} steps, {wall:.1f}s"
    )
    print(f"loss first={history[0]:.4f} last={history[-1]:.4f}")
    print(f"checkpoint written to {args.model_out}")
    if args.loss_csv:
        with open(args.loss_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss"])
            writer.writerows((i, f"{v:.6f}") for i, v in enumerate(history))
        print(f"loss history written to {args.loss_csv}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    samples, class_count = read_dataset(args.data)
    if class_count != model.config.classes:
        raise DimMismatchError(
            f"dataset has {class_count} classes, model expects "
            f"{model.config.classes}"
        )
    if args.on == "all":
        subset = samples
    else:
        train_set, test_set = split(samples, args.split_seed, args.train_fraction)
        subset = train_set if args.on == "train" else test_set
    report = evaluate(model, subset)
    tags = [_label_tag(c) for c in range(model.config.classes)]
    width = max(len(t) for t in tags) + 1
    print(f"evaluated {len(subset)} samples in {report.wall_time_seconds:.2f}s")
    print("confusion matrix (rows = true class):")
    header = " " * width + " ".join(f"{t:>9}" for t in tags)
    print(header)
    for i, tag in enumerate(tags):
        cells = " ".join(f"{int(v):>9}" for v in report.confusion[i])
        print(f"{tag:<{width}}{cells}  acc={report.per_class_accuracy[i]:6.2f}%")
    print(f"overall accuracy: {100 * report.overall_accuracy:.2f}%")
    print(f"macro accuracy:   {100 * report.macro_accuracy:.2f}%")
    for i, tag in enumerate(tags):
        auc = report.auc[i]
        print(f"auc[{tag}] = {auc:.4f}" if np.isfinite(auc) else f"auc[{tag}] = n/a")
    print(f"micro-average auc = {auc_trapezoid(report.roc_micro):.4f}")
    if args.confusion_csv:
        with open(args.confusion_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["true_class", *tags])
            for i, tag in enumerate(tags):
                writer.writerow([tag, *map(int, report.confusion[i])])
        print(f"confusion matrix written to {args.confusion_csv}")
    if args.roc_csv:
        with open(args.roc_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class", "fpr", "tpr"])
            for i, tag in enumerate(tags):
                for fpr, tpr in report.roc[i]:
                    writer.writerow([tag, f"{fpr:.6f}", f"{tpr:.6f}"])
            for fpr, tpr in report.roc_micro:
                writer.writerow(["micro", f"{fpr:.6f}", f"{tpr:.6f}"])
        print(f"roc points written to {args.roc_csv}")
    return 0


def cmd_sweep(args) -> int:
    params = _synth_params(args)
    corpus = build_labeled_corpus(args.flows_per_class, params, seed=args.seed)
    base = TrainConfig(
        model=ModelConfig(
            hidden=args.hidden, classes=8, frame=5, layers=args.layers
        ),
        optimizer=OptimizerConfig(kind=ADAM),
        epochs=args.epochs,
        seed=args.seed,
        scale_features=args.scale,
    )
    rows = sweep(
        corpus,
        frames=args.frames,
        optimizers=args.optimizers,
        lrs=args.lrs,
        dropouts=args.dropouts,
        batch_sizes=args.batch_sizes,
        base=base,
        split_seed=args.split_seed,
    )
    frame_cols = [f"acc_L{f}" for f in args.frames]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["optimizer", "lr", "dropout", "batch_size", *frame_cols,
             "seconds_per_epoch", "error"]
        )
        for row in rows:
            accs = [
                "" if row.accuracy_by_frame.get(f) is None
                else f"{row.accuracy_by_frame[f]:.4f}"
                for f in args.frames
            ]
            writer.writerow(
                [row.optimizer, row.lr, row.dropout, row.batch_size, *accs,
                 "" if row.seconds_per_epoch is None
                 else f"{row.seconds_per_epoch:.3f}",
                 row.error or ""]
            )
    print(f"swept {len(rows)} combinations -> {args.out}")
    failures = [r for r in rows if r.error]
    if failures:
        print(f"{len(failures)} combinations failed (marked in the table)")
    return 0


def cmd_bench(args) -> int:
    params = _synth_params(args)
    corpus = build_labeled_corpus(args.flows_per_class, params, seed=args.seed)
    samples = [
        window
        for trace, label in corpus
        for window in extract_sequences(trace, args.frame, label)
    ]
    train_set, _ = split(samples, args.split_seed, 0.8)
    base = TrainConfig(
        model=ModelConfig(hidden=args.hidden, classes=8, frame=args.frame,
                          layers=args.layers),
        optimizer=OptimizerConfig(kind=ADAM),
        seed=args.seed,
        scale_features=args.scale,
    )
    results = timing_bench(train_set, base, args.batch_sizes)
    print("batch_size  seconds_per_epoch")
    for bs, secs in results:
        print(f"{bs:>10}  {secs:.3f}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["batch_size", "seconds_per_epoch"])
            writer.writerows((bs, f"{secs:.4f}") for bs, secs in results)
        print(f"timings written to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    ok = True
    for trial in range(args.trials):
        layers = 2 if trial % 2 else 1
        readout = READOUT_MEAN if trial == 3 else READOUT_FINAL
        bidirectional = trial != 4
        config = ModelConfig(
            hidden=6, input_dim=4, classes=3, frame=5, layers=layers,
            bidirectional=bidirectional, readout=readout,
        )
        model = BiLstmModel.initialize(config, seed=int(rng.integers(1 << 31)))
        x = rng.standard_normal((2, 5, 4))
        lengths = rng.integers(3, 6, size=2)
        mask = np.zeros((2, 5))
        for b, n in enumerate(lengths):
            mask[b, :n] = 1.0
        labels = rng.integers(0, 3, size=2)
        err = grad_check(model, x, mask, labels, eps=args.eps)
        worst = max(worst, err)
        verdict = "PASS" if err < 1e-4 else "FAIL"
        print(
            f"trial {trial}: layers={layers} bidirectional={bidirectional} "
            f"readout={readout} max_rel_err={err:.3e} {verdict}"
        )
        ok = ok and err < 1e-4
    print(f"worst max_rel_err={worst:.3e} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------


def _add_synth_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--flows-per-class", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--frag-units", type=int, default=1)
    sub.add_argument("--seg-bytes", type=int, default=8)
    sub.add_argument("--chaff-rate", type=float, default=1.0)
    sub.add_argument("--ttl-floor", type=int, default=1)
    sub.add_argument("--tos-values", type=_int_list, default=[16, 24, 17, 8])
    sub.add_argument("--overlap", action="store_true")


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--hidden", type=int, default=64)
    sub.add_argument("--layers", type=int, default=2, choices=(1, 2))
    sub.add_argument("--frame", type=_frame_arg, default=5)
    sub.add_argument("--unidirectional", action="store_true")
    sub.add_argument("--readout", choices=(READOUT_FINAL, READOUT_MEAN),
                     default=READOUT_FINAL)
    sub.add_argument("--optimizer", choices=KINDS, default=ADAM)
    sub.add_argument("--lr", type=float, default=1e-3)
    sub.add_argument("--dropout", type=float, default=0.0)
    sub.add_argument("--l1", type=float, default=0.0)
    sub.add_argument("--l2-shrink", type=float, default=0.0)
    sub.add_argument("--l2-weight-decay", type=float, default=0.0)
    sub.add_argument("--batch-size", type=int, default=50)
    sub.add_argument("--epochs", type=int, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--scale", action=argparse.BooleanOptionalAction, default=False)


def _add_split_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--split-seed", type=int, default=1)
    sub.add_argument("--train-fraction", type=float, default=0.8)


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="key=value file; flags override it")
    parser = _Parser(prog=PROG, description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    s = subs.add_parser("synth", parents=[common],
                        help="build a labeled synthetic corpus")
    _add_synth_flags(s)
    s.add_argument("--frame", type=_frame_arg, default=5)
    s.add_argument("--min-packets", type=int, default=4)
    s.add_argument("--max-packets", type=int, default=8)
    s.add_argument("--min-payload", type=int, default=16)
    s.add_argument("--max-payload", type=int, default=64)
    s.add_argument("--include-clean", action="store_true")
    s.add_argument("--out", required=True)
    s.add_argument("--csv", default=None)
    s.add_argument("--emit-pcap", default=None, metavar="DIR")
    s.set_defaults(func=cmd_synth)
    registry["synth"] = s

    s = subs.add_parser("extract", parents=[common],
                        help="extract features from an external pcap")
    s.add_argument("--pcap", required=True)
    s.add_argument("--label", type=_label_arg, required=True,
                   help="evasion tag (ip_opt, tcp_seg, ...) or 'clean'")
    s.add_argument("--frame", type=_frame_arg, default=5)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_extract)
    registry["extract"] = s

    s = subs.add_parser("train", parents=[common], help="train a classifier")
    s.add_argument("--data", required=True)
    s.add_argument("--model-out", required=True)
    _add_train_flags(s)
    _add_split_flags(s)
    s.add_argument("--loss-csv", default=None)
    s.set_defaults(func=cmd_train)
    registry["train"] = s

    s = subs.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--on", choices=("test", "train", "all"), default="test")
    _add_split_flags(s)
    s.add_argument("--confusion-csv", default=None)
    s.add_argument("--roc-csv", default=None)
    s.set_defaults(func=cmd_eval)
    registry["eval"] = s

    s = subs.add_parser("sweep", parents=[common],
                        help="hyperparameter grid over a synthetic corpus")
    _add_synth_flags(s)
    _add_split_flags(s)
    s.add_argument("--optimizers", type=_str_list, default=["adam"])
    s.add_argument("--lrs", type=_float_list, default=[1e-3])
    s.add_argument("--dropouts", type=_float_list, default=[0.0])
    s.add_argument("--batch-sizes", type=_int_list, default=[50])
    s.add_argument("--frames", type=_int_list, default=[3, 4, 5, 6, 7])
    s.add_argument("--epochs", type=int, default=3)
    s.add_argument("--hidden", type=int, default=32)
    s.add_argument("--layers", type=int, default=1, choices=(1, 2))
    s.add_argument("--scale", action=argparse.BooleanOptionalAction, default=False)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep)
    registry["sweep"] = s

    s = subs.add_parser("bench", parents=[common],
                        help="seconds-per-epoch at several batch sizes")
    _add_synth_flags(s)
    _add_split_flags(s)
    s.add_argument("--batch-sizes", type=_int_list, default=[10, 50, 200])
    s.add_argument("--frame", type=_frame_arg, default=5)
    s.add_argument("--hidden", type=int, default=32)
    s.add_argument("--layers", type=int, default=1, choices=(1, 2))
    s.add_argument("--scale", action=argparse.BooleanOptionalAction, default=False)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_bench)
    registry["bench"] = s

    s = subs.add_parser("gradcheck", parents=[common],
                        help="finite-difference check of the BPTT gradients")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=int, default=5)
    s.add_argument("--eps", type=float, default=1e-5)
    s.set_defaults(func=cmd_gradcheck)
    registry["gradcheck"] = s

    return parser, registry


_DATA_ERRORS = (
    BadMagicError,
    CheckpointFormatError,
    TruncatedFileError,
    DatasetFormatError,
    DimMismatchError,
    EmptyDatasetError,
    EmptyTestSetError,
    EmptyPayloadError,
    EmptySequenceError,
    IncompleteStreamError,
    TraceTooShortError,
    OSError,
)

_NUMERIC_ERRORS = (DivergenceError, NonFiniteGradientError)


def main(argv: list[str] | None = None) -> int:
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
        config_path = args.config or os.environ.get("EVASIONLAB_CONFIG")
        if config_path:
            values = _convert_config(
                registry[args.command], _read_config_file(config_path)
            )
            registry[args.command].set_defaults(**values)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else 1
    except _UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"{PROG}: numeric failure: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"{PROG}: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
