#!/usr/bin/env python3
"""Benchmark of evasionlab: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload corpus|train|detect --seed N \
        --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

import os

# One BLAS thread: steadier and no slower on this model size (README.md).
# It must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"  # scratch files and traces; ignored by git

MIN_ROUNDS = 4  # in a traced run, at least two untraced and two traced rounds

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "request_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span name; value is the span's self time per round
LAYER_SPANS = {
    "synth.build_s": "synth.build",
    "receiver.normalize_s": "receiver.normalize",
    "features.extract_s": "features.extract",
    "dataset.write_s": "dataset.write",
    "pcapio.write_s": "pcapio.write",
    "pcapio.read_s": "pcapio.read",
    "pcapio.group_s": "pcapio.group",
    "training.prepare_batch_s": "training.prepare_batch",
    "neural.forward_s": "neural.forward",
    "neural.backward_s": "neural.backward",
    "optim.step_s": "optim.step",
    "bench.glue_s": "round",
}

COUNTS = (
    "synth.packets",
    "receiver.drops",
    "receiver.fragments_reassembled",
    "features.windows",
    "pcapio.packets",
    "pcapio.flows",
    "training.steps",
)


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "train", "detect"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def measure(workload, seconds: float, tracer, null_tracer, probe, rounds: list) -> None:
    """Appends whole rounds to ``rounds`` until ``seconds`` have passed;
    with a tracer, every second round is traced. The speed probe runs
    between rounds, and each round is scaled by the mean of the probes on
    either side of it."""
    probe.measure()  # the first call pays for lazy set-up in numpy and the interpreter
    before = probe.measure()
    start = time.perf_counter()
    r = 1
    while r <= MIN_ROUNDS or time.perf_counter() - start < seconds:
        if tracer is not None and r % 2 == 0:
            tracer.run_id = f"round-{r}"
            rnd = workload.round(r, tracer)
            rnd.run_id = tracer.run_id
        else:
            rnd = workload.round(r, null_tracer)
        after = probe.measure()
        rnd.probe_s = (before + after) / 2
        rnd.scale = probe.scale(rnd.probe_s)
        rounds.append(rnd)
        before = after
        r += 1


def _scaled_latencies(rounds) -> list[float]:
    return [lat * rnd.scale for rnd in rounds for lat in rnd.latencies]


def end_to_end(rounds, setup_s: float) -> dict[str, float]:
    latencies = _scaled_latencies(rounds) or [rnd.seconds * rnd.scale for rnd in rounds]
    return {
        "items_per_s": statistics.median(rnd.items / (rnd.seconds * rnd.scale) for rnd in rounds),
        "request_p50_ms": 1000.0 * statistics.median(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds, tracer, setup_scale: float) -> dict[str, tuple[float, str]]:
    plain = [rnd for rnd in rounds if rnd.run_id is None]
    traced = [rnd for rnd in rounds if rnd.run_id is not None]
    self_times = tracer.self_times()
    out = {
        name: (statistics.median(self_times[rnd.run_id].get(span, 0.0) * rnd.scale
                                 for rnd in traced), "s")
        for name, span in LAYER_SPANS.items()
    }
    out["setup.synth.build_s"] = (self_times["setup"].get("synth.build", 0.0) * setup_scale, "s")
    latencies = _scaled_latencies(plain)
    p99 = statistics.quantiles(latencies, n=100)[98] if len(latencies) >= 2 else 0.0
    out["neural.predict_p99_ms"] = (1000.0 * p99, "ms")
    out["cpu_s"] = (statistics.median(rnd.cpu_seconds * rnd.scale for rnd in plain), "s")
    out["cpu_per_wall"] = (
        statistics.median(rnd.cpu_seconds / rnd.busy_seconds for rnd in plain), "ratio"
    )
    for name in COUNTS:
        out[name] = (float(statistics.median(rnd.counts.get(name, 0) for rnd in rounds)), "count")
    out["probe_ms"] = (1000.0 * statistics.median(rnd.probe_s for rnd in rounds), "ms")
    out["wall.items_per_s"] = (statistics.median(rnd.items / rnd.seconds for rnd in plain), "1/s")

    def per_item(group):
        return statistics.median(rnd.busy_seconds * rnd.scale / rnd.items for rnd in group)

    out["trace.overhead_pct"] = (100.0 * (per_item(traced) / per_item(plain) - 1.0), "%")
    return out


def result_line(correct: bool, rounds, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    })


def run(args, workdir: str) -> int:
    import checks
    from probe import SpeedProbe
    from tracer import NullTracer, Tracer
    from workloads import CorpusWorkload, DetectWorkload, TrainWorkload

    kinds = {"corpus": CorpusWorkload, "train": TrainWorkload, "detect": DetectWorkload}
    null_tracer = NullTracer()
    tracer = Tracer() if args.trace else None
    rounds = []
    try:
        workload = kinds[args.workload](args.seed, workdir, tracer or null_tracer)
        raw_setup_s = process_age_s()
        probe = SpeedProbe()
        measure(workload, args.seconds, tracer, null_tracer, probe, rounds)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(result_line(False, rounds, {}))
        return 1
    # Set-up is one cold block, too long to bracket with probes; the run's
    # median probe gives the speed of the tens of seconds around it.
    setup_scale = probe.scale(statistics.median(rnd.probe_s for rnd in rounds))
    if tracer is None:
        metrics = end_to_end(rounds, raw_setup_s * setup_scale)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        metrics = per_layer(rounds, tracer, setup_scale)
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"))
    print(result_line(True, rounds, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evasionlab" / "__init__.py").is_file():
        print(f"run.py: evasionlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
