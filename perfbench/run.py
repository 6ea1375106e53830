"""Benchmark of modnlp: one workload, closed loop of solve() calls.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the repository root; the solver is imported from ./src. The run
builds the workload's tasks from the seed, then solves every task in turn
(one pass) and repeats whole passes while the next one fits in --seconds
and until at least MIN_SAMPLES solves are timed. Every answer is checked. The last line of
standard output is one JSON object with the keys correct, attempted, failed
(solves that raised) and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A traced run alternates untraced and
traced passes and writes its spans to .perfbench_out/. See README.md.
"""
from __future__ import annotations

import os

# The benchmark process uses one BLAS thread; the solver's dense kernels are
# small and one thread keeps timings reproducible.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "scaled_qp", "scaled_ipm", "fit")
MIN_SAMPLES = 100  # so that at least 10 timed solves lie beyond p90
# Reported times are reference times: wall time scaled by CALIBRATION_S over
# the time the calibration kernel takes right before and after the timed
# work. The machine's speed drifts by up to 2x within minutes; the kernel
# drifts with it, and the scaled times do not.
CALIBRATION_S = 2e-4
MAX_MEASURE_S = 120.0
SETUP_REPEATS = 3  # this process plus two fresh interpreters
EVALS_SHIFT = 10.0  # shift of the geometric mean of objective evaluations
UNITS = {
    "setup_s": "s",
    "solve_ms_geomean": "ms",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "solved_frac": "ratio",
    "objective_evals_per_solve": "count",
    "peak_rss_mb": "MB",
}


def calibration_kernel() -> float:
    """A fixed mix like the solver's own work: interpreter steps with tiny
    numpy calls, then a sweep of rank-1 updates of a shrinking block. It
    uses no modnlp code, so no change to the solver moves it."""
    a = np.arange(16.0)
    total = 0.0
    for i in range(100):
        total += float(a[i % 16])
        a = a * 1.0000001
    m = np.eye(48) + 0.01
    for k in range(24):
        col = m[k + 1:, k]
        m[k + 1:, k + 1:] -= np.outer(col, col) * 1e-3
    return total + float(m[-1, -1])


def calibrate(repeats: int) -> float:
    """Median seconds of the calibration kernel over ``repeats`` runs."""
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        calibration_kernel()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, print the set-up seconds and exit")
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Import modnlp and build the workload's tasks (generated instances are
    derivative-checked here); returns (modnlp, workloads, tasks, reference
    seconds of the set-up)."""
    if not (ROOT / "src" / "modnlp" / "__init__.py").is_file():
        raise SystemExit("perfbench: no solver source at %s" % (ROOT / "src" / "modnlp"))
    sys.path.insert(0, str(ROOT / "src"))
    # workloads reads the corpus optima from tests/test_corpus_optima.py,
    # which imports pytest; that import is no part of the solver's set-up
    import pytest  # noqa: F401

    before = calibrate(repeats=9)
    start = perf_counter()
    import modnlp
    import workloads

    tasks = workloads.WORKLOADS[workload](np.random.default_rng(seed))
    seconds = perf_counter() - start
    after = calibrate(repeats=9)
    return modnlp, workloads, tasks, seconds * CALIBRATION_S / (0.5 * (before + after))


def setup_samples(workload: str, seed: int, own: float) -> list[float]:
    """Set-up seconds of this process and of fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(child.stdout.split()[-1]))
    return samples


def timed(workloads, task, call=None):
    """Run one task between two calibrations; sets its reference seconds."""
    before = calibrate(repeats=3)
    outcome = workloads.run_task(task, call)
    after = calibrate(repeats=3)
    outcome.reference_seconds = outcome.seconds * CALIBRATION_S / (0.5 * (before + after))
    return outcome


def run_pass(workloads, tasks, tracer=None, modnlp=None):
    if tracer is None:
        return [timed(workloads, task) for task in tasks]
    import layers

    outcomes = []
    with layers.installed(tracer, modnlp):
        for task in tasks:
            traced = tracer.traced_model(task.model)
            outcomes.append(timed(
                workloads, task, lambda: tracer.solve(modnlp.solve, traced, task.options)))
    return outcomes


def measure(workloads, tasks, seconds, tracer=None, modnlp=None):
    """Whole passes while the next one fits in the time, at least one. An
    untraced run also goes on until MIN_SAMPLES solves are timed; a traced
    run alternates untraced and traced passes. Returns (untraced passes,
    traced passes)."""
    plain, traced = [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        plain.append(run_pass(workloads, tasks))
        if tracer is not None:
            traced.append(run_pass(workloads, tasks, tracer, modnlp))
        now = perf_counter()
        short = tracer is None and len(plain) * len(tasks) < MIN_SAMPLES
        if now - start > MAX_MEASURE_S or (now - start + (now - round_start) > seconds
                                           and not short):
            break
    return plain, traced


def geometric_mean(values, shift=0.0):
    return math.exp(sum(math.log(v + shift) for v in values) / len(values)) - shift


def end_to_end(tasks, passes, setup_s):
    times_ms = [out.reference_seconds * 1e3 for outcomes in passes for out in outcomes]
    deciles = statistics.quantiles(times_ms, n=10)
    outcomes = [out for p in passes for out in p]
    evals = [out.objective_evaluations for out in passes[0]
             if out.objective_evaluations is not None]
    return {
        "setup_s": statistics.median(setup_s),
        "solve_ms_geomean": geometric_mean(times_ms),
        "solve_ms_p50": statistics.median(times_ms),
        "solve_ms_p90": deciles[-1],
        "solved_frac": sum(out.solved for out in outcomes) / len(outcomes),
        "objective_evals_per_solve": geometric_mean(evals, EVALS_SHIFT) if evals else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def summary(args, tasks, passes, setup_s, split_groups):
    """Human-readable lines: configuration table, crashes, groups without
    an agreed objective, samples."""
    first = passes[0]
    lines = ["perfbench workload=%s seed=%d blas_threads=%d passes=%d solves_per_pass=%d "
             "timed_solves=%d setup_samples_s=%s" % (
                 args.workload, args.seed, BLAS_THREADS, len(passes), len(tasks),
                 len(passes) * len(tasks), ",".join("%.4f" % s for s in setup_s))]
    for config in dict.fromkeys(task.config for task in tasks):
        rows = [(t, o) for t, o in zip(tasks, first) if t.config == config]
        seconds = sum(o.seconds for p in passes for t, o in zip(tasks, p) if t.config == config)
        lines.append(
            "  %-9s solved %d/%d  crashed %d  objective_evals %d  wall solves_per_s %.2f" % (
                config, sum(o.solved for _, o in rows), len(rows),
                sum(o.objective_evaluations is None for _, o in rows),
                sum(o.objective_evaluations or 0 for _, o in rows),
                len(rows) * len(passes) / seconds))
    crashes = [(t, o) for t, o in zip(tasks, first) if o.objective_evaluations is None]
    lines.append("  crash_frac %.4f ratio" % (len(crashes) / len(tasks)))
    for task, out in crashes:
        lines.append("  crash: problem=%s config=%s seed=%d %s: %s" % (
            task.problem, task.config, args.seed, out.status[6:], out.message))
    for group in split_groups:
        lines.append("  no agreed objective: group=%s seed=%d" % (group, args.seed))
    return lines


def write_spans(args, spans):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("spans-%s-seed%d.json.gz" % (args.workload, args.seed))
    with gzip.open(path, "wt") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": spans}, handle)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    warnings.simplefilter("ignore")
    modnlp, workloads, tasks, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(own_setup))
        return 0
    setup_s = [own_setup] if args.trace else setup_samples(args.workload, args.seed, own_setup)

    import layers

    tracer = layers.Tracer() if args.trace else None
    plain, traced = measure(workloads, tasks, args.seconds, tracer, modnlp)

    measured = plain + traced
    split_groups = sorted({group for outcomes in measured
                           for group in workloads.check_answers(tasks, outcomes)})
    correct = all(workloads.answers_correct(tasks, outcomes) for outcomes in measured)

    if tracer is None:
        metrics = end_to_end(tasks, plain, setup_s)
        units = UNITS
    else:
        metrics = layers.layer_metrics(tracer.spans, len(traced))
        plain_s = statistics.mean(sum(o.reference_seconds for o in p) for p in plain)
        traced_s = statistics.mean(sum(o.reference_seconds for o in p) for p in traced)
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
        units = {name: layers.unit(name) for name in metrics}
        print("spans written to %s" % write_spans(args, tracer.spans))

    for line in summary(args, tasks, plain, setup_s, split_groups):
        print(line)
    for name, value in metrics.items():
        print("  %-36s %.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p) for p in measured),
        "failed": sum(o.objective_evaluations is None for p in measured for o in p),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
