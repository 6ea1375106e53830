"""Replay the QPs of one benchmark pass through two checkouts, interleaved.

    python3 tools/qp_replay.py [--root CHECKOUT] --workload W --seed S [--rounds R]

It solves the tasks of one pass of workload W, built from seed S by
CHECKOUT/perfbench/workloads.py (default: this checkout; the tool only
reads that file), with this checkout's solver, and records every qp_solve
call the solver makes: its QPData, warm start, iteration limit and start.
It then replays each call through the qp_solve of CHECKOUT/src, imported
under another package name, and through this checkout's, R rounds
(default 5) with one BLAS thread, alternating which of the two goes first.

For each kind of QP (plain or elastic, warm or cold, with or without phase
I, as this checkout solves it) it prints the count, the mean microseconds
per QP of each checkout (the median of its rounds, per QP), their ratio,
and the factorizations (_kkt_factorization calls) per QP of each. The last
line counts the QPs whose results differ byte for byte between the two: in
status, d, y, z, active set, iterations or objective, or in the exception
raised. The tool exits 1 when any does.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent.parent


def load_package(src: Path, name: str):
    """The modnlp package of src, imported as name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "modnlp" / "__init__.py", submodule_search_locations=[str(src / "modnlp")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def capture(modnlp, root: Path, workload: str, seed: int) -> tuple[list[tuple], list[str]]:
    """(qp, warm_start, max_iter, start) of every qp_solve call of one pass,
    copied as the solver passed them, and the exceptions of the solves that
    raised."""
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    calls, raised = [], []
    owners = (modnlp.relaxation, modnlp.driver)
    original = modnlp.linalg.qp_solve

    def recorded(qp, warm_start=None, max_iter=None, start=None):
        calls.append(copy.deepcopy((qp, warm_start, max_iter, start)))
        return original(qp, warm_start, max_iter, start)

    for owner in owners:
        owner.qp_solve = recorded
    try:
        for task in workloads.WORKLOADS[workload](np.random.default_rng(seed)):
            try:
                modnlp.solve(task.model, task.options)
            except Exception as exc:  # noqa: BLE001 - a crash ends its solve, not the capture
                raised.append("%s: %s" % (type(exc).__name__, exc))
    finally:
        for owner in owners:
            owner.qp_solve = original
    return calls, raised


def as_qpdata(linalg, qp):
    """qp as linalg's QPData (the fields both versions have)."""
    names = {field.name for field in dataclasses.fields(linalg.QPData)}
    return linalg.QPData(**{k: v for k, v in vars(qp).items() if k in names})


def outcome(linalg, call) -> tuple:
    """The bytes of one replayed call's result, or of the exception it raised."""
    qp, warm_start, max_iter, start = call
    try:
        sol = linalg.qp_solve(as_qpdata(linalg, qp), warm_start, max_iter, start)
    except Exception as exc:  # noqa: BLE001 - a raise is a result to compare
        return ("raise", type(exc).__name__, str(exc))
    return (sol.status, sol.d.tobytes(), sol.multipliers_eq.tobytes(),
            sol.multipliers_bounds.tobytes(), sol.active_set, sol.iterations,
            np.float64(sol.objective_value).tobytes())


def counted(linalg, name: str, call) -> int:
    """How many times linalg.name runs during one replay of call."""
    original, calls = getattr(linalg, name), [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(linalg, name, counting)
    try:
        outcome(linalg, call)
    finally:
        setattr(linalg, name, original)
    return calls[0]


def kind(linalg, call) -> str:
    """plain or elastic, warm or cold, and whether phase I runs."""
    qp, warm_start = call[0], call[1]
    original, phase1 = linalg._active_set_loop, [False]

    def loop(W, *args):
        phase1[0] |= W is None
        return original(W, *args)

    linalg._active_set_loop = loop
    try:
        outcome(linalg, call)
    finally:
        linalg._active_set_loop = original
    return " ".join(("elastic" if qp.step_columns is not None else "plain",
                     "warm" if warm_start else "cold") + (("+ phase I",) if phase1[0] else ()))


def timed(linalg, call) -> float:
    start = perf_counter()
    outcome(linalg, call)
    return perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    sys.path.insert(0, str(HERE / "src"))
    import modnlp
    import modnlp.linalg

    load_package(args.root.resolve() / "src", "modnlp_root")
    import modnlp_root.linalg

    sides = (("root", modnlp_root.linalg), ("here", modnlp.linalg))
    calls, raised = capture(modnlp, args.root.resolve(), args.workload, args.seed)
    kinds = [kind(modnlp.linalg, call) for call in calls]
    factorizations = [[counted(linalg, "_kkt_factorization", call) for call in calls]
                      for _, linalg in sides]
    differ = sum(outcome(sides[0][1], call) != outcome(sides[1][1], call) for call in calls)

    seconds = [[[] for _ in calls] for _ in sides]
    gc.disable()
    try:
        for round_ in range(args.rounds):
            for i, call in enumerate(calls):
                order = (0, 1) if (round_ + i) % 2 == 0 else (1, 0)
                for side in order:
                    seconds[side][i].append(timed(sides[side][1], call))
            gc.collect()
    finally:
        gc.enable()
    per_qp = [[statistics.median(s) for s in side] for side in seconds]

    print("%s seed %d: %d QPs, %d rounds; root = %s, here = %s"
          % (args.workload, args.seed, len(calls), args.rounds, args.root.resolve(), HERE))
    for message in raised:
        print("a solve of the capture raised %s" % message)
    print("%-26s %6s %10s %10s %7s %9s %9s" % ("kind", "QPs", "root us", "here us", "ratio",
                                                "root fact", "here fact"))
    for label in sorted(set(kinds)) + ["all"]:
        chosen = [i for i, k in enumerate(kinds) if label in (k, "all")]
        mean = [1e6 * sum(side[i] for i in chosen) / len(chosen) for side in per_qp]
        fact = [sum(side[i] for i in chosen) / len(chosen) for side in factorizations]
        print("%-26s %6d %10.1f %10.1f %7.3f %9.3f %9.3f"
              % (label, len(chosen), *mean, mean[1] / mean[0], *fact))
    print("%d of %d QPs differ byte for byte" % (differ, len(calls)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
