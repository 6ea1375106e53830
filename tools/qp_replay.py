"""Replay the QPs and interior-point steps of one benchmark pass through two
checkouts, interleaved.

    python3 tools/qp_replay.py [--root CHECKOUT] --workload W --seed S [--rounds R]

It solves the tasks of one pass of workload W, built from seed S by
CHECKOUT/perfbench/workloads.py (default: this checkout; the tool only
reads that file), with this checkout's solver, and records every qp_solve
call the solver makes (its QPData, warm start and start) and every
ipm_solve_step call (its evaluations, point, multipliers, bounds, mu,
regularization schedule and tau_min). It then replays each call through
CHECKOUT/src, imported under another package name, and through this
checkout, R rounds (default 5) with one BLAS thread, alternating which of
the two goes first. qp_solve is called with its warm start and start by
keyword. An IPM step is replayed with a fresh copy of the schedule it was
called with, and with its bounds as the checkout takes them: a
state.Bounds of that checkout, or, for a CHECKOUT older than Bounds
(whose ipm_solve_step takes the lower and the upper bounds as two
arrays), those two arrays. Either way the step is the same step, so such
a CHECKOUT is compared byte for byte like any other.

For each kind of QP (plain or elastic, warm or cold, with or without phase
I, as this checkout solves it) it prints the count, the mean microseconds
per QP of each checkout (the median of its rounds, per QP), their ratio,
and the factorizations (_kkt_factorization calls) per QP of each. The IPM
steps get the same table by the certificate path of the factorization
that the step solves with, as this checkout takes it: range space, null
space, or eigenvalues (no certificate). Each line gives, and each table
ends with, the number of calls whose results differ byte for byte between
the two: for a QP in status, d, y, z, active set, iterations or
objective; for an IPM step in any field of its Direction or the schedule
it leaves; for either in the exception raised. The IPM table also gives,
per path, the largest relative difference of dx and of dy between the
two checkouts (the largest entry of the difference over the largest entry
of the root's), and how many steps changed path or inertia: took another
certificate path in the two checkouts, or made factorizations of other
inertias (one per trial of the regularization schedule). A kernel change
that moves only roundoff shows as small relative differences and no
changed step. The tool exits 1 when any call differs byte for byte. A
workload with no call of one kind prints no table for it.
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


def capture(modnlp, root: Path, workload: str, seed: int):
    """The arguments of every qp_solve call and of every ipm_solve_step call
    of one pass, copied as the solver passed them, and the exceptions of the
    solves that raised."""
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    qps, steps, raised = [], [], []
    qp_solve, ipm_solve_step = modnlp.linalg.qp_solve, modnlp.subproblem.ipm_solve_step

    def recorded_qp(qp, warm_start=None, start=None):
        qps.append(copy.deepcopy((qp, warm_start, start)))
        return qp_solve(qp, warm_start=warm_start, start=start)

    def recorded_step(evals, x, y, zl, zu, bounds, mu, schedule, tau_min):
        args = (evals, x, y, zl, zu, bounds, mu, schedule, tau_min)
        steps.append(copy.deepcopy(args))
        return ipm_solve_step(*args)

    bindings = [(modnlp.relaxation, "qp_solve", recorded_qp), (modnlp.driver, "qp_solve", recorded_qp),
                (modnlp.relaxation, "ipm_solve_step", recorded_step)]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in bindings]
    for owner, name, wrapper in bindings:
        setattr(owner, name, wrapper)
    try:
        for task in workloads.WORKLOADS[workload](np.random.default_rng(seed)):
            try:
                modnlp.solve(task.model, task.options)
            except Exception as exc:  # noqa: BLE001 - a crash ends its solve, not the capture
                raised.append("%s: %s" % (type(exc).__name__, exc))
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    return qps, steps, raised


def converted(cls, value):
    """value as an instance of the dataclass cls (the fields both have)."""
    names = {field.name for field in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(value).items() if k in names})


def qp_outcome(package, call) -> tuple:
    """The bytes of one replayed qp_solve call's result, or of the exception
    it raised."""
    linalg = package.linalg
    qp, warm_start, start = call
    try:
        sol = linalg.qp_solve(converted(linalg.QPData, qp), warm_start=warm_start, start=start)
    except Exception as exc:  # noqa: BLE001 - a raise is a result to compare
        return ("raise", type(exc).__name__, str(exc))
    return (sol.status, sol.d.tobytes(), sol.multipliers_eq.tobytes(),
            sol.multipliers_bounds.tobytes(), sol.active_set, sol.iterations,
            np.float64(sol.objective_value).tobytes())


def run_step(package, call):
    """The Direction of one replayed ipm_solve_step call and the schedule it
    leaves. The step runs on a fresh copy of the captured schedule, with
    the bounds as the package takes them (module docstring)."""
    evals, x, y, zl, zu, bounds, mu, schedule, tau_min = call
    schedule = converted(package.linalg.RegularizationSchedule, schedule)
    if hasattr(package.state, "Bounds"):
        bounds = (package.state.Bounds(bounds.lower, bounds.upper),)
    else:
        bounds = (bounds.lower, bounds.upper)
    direction = package.subproblem.ipm_solve_step(
        converted(package.model.Evaluations, evals), x, y, zl, zu, *bounds, mu, schedule,
        tau_min)
    return direction, schedule


def step_outcome(package, call) -> tuple:
    """The bytes of one replayed ipm_solve_step call's Direction and of the
    schedule it leaves, or of the exception it raised."""
    try:
        direction, schedule = run_step(package, call)
    except Exception as exc:  # noqa: BLE001 - a raise is a result to compare
        return ("raise", type(exc).__name__, str(exc))
    fields = [getattr(direction, field.name) for field in dataclasses.fields(direction)]
    return tuple(np.asarray(value).tobytes() if isinstance(value, (np.ndarray, float))
                 else value for value in fields) + (np.float64(schedule.last_successful).tobytes(),)


def rebound(module, name, wrapper, run):
    """run() with module.name rebound to wrapper(original)."""
    original = getattr(module, name)
    setattr(module, name, wrapper(original))
    try:
        run()
    finally:
        setattr(module, name, original)


def counted(package, outcome, call) -> int:
    """How many times linalg._kkt_factorization runs during one replay."""
    calls = [0]

    def counting(original):
        def wrapped(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)
        return wrapped

    rebound(package.linalg, "_kkt_factorization", counting, lambda: outcome(package, call))
    return calls[0]


def qp_kind(package, call) -> str:
    """plain or elastic, warm or cold, and whether phase I runs."""
    qp, warm_start = call[0], call[1]
    phase1 = [False]

    def loop(original):
        def wrapped(W, *args):
            phase1[0] |= W is None
            return original(W, *args)
        return wrapped

    rebound(package.linalg, "_active_set_loop", loop, lambda: qp_outcome(package, call))
    return " ".join(("elastic" if qp.step_columns is not None else "plain",
                     "warm" if warm_start else "cold") + (("+ phase I",) if phase1[0] else ()))


def step_trace(package, call) -> tuple:
    """(path, inertias, dx, dy) of one replayed ipm_solve_step call: the
    certificate path of the factorization the step solves with (range
    space, null space, or eigenvalues: no certificate), the inertia of
    every factorization the step makes, and its dx and dy (None where the
    step raised)."""
    path, inertias = ["eigenvalues"], []

    def certified(original):
        def wrapped(H, *args):
            fact = original(H, *args)
            if fact is not None:
                path[0] = "range space" if np.ndim(H) < 2 else "null space"
            return fact
        return wrapped

    def kkt(original):
        def wrapped(*args, **kwargs):
            path[0] = "eigenvalues"  # the last factorization is the one taken
            fact = original(*args, **kwargs)
            inertias.append(fact.inertia)
            return fact
        return wrapped

    step = [None]

    def run():
        try:
            step[0] = run_step(package, call)[0]
        except Exception:  # noqa: BLE001 - a raise has no direction
            pass

    rebound(package.linalg, "_certified_factorization", certified,
            lambda: rebound(package.linalg, "_kkt_factorization", kkt, run))
    direction = step[0]
    return (path[0], tuple(inertias),
            *((direction.dx, direction.dy) if direction is not None else (None, None)))


def step_kind(package, call) -> str:
    """The certificate path of the factorization the step solves with."""
    return step_trace(package, call)[0]


def relative_difference(root, here) -> float:
    """max |here - root| / max |root| (inf where only one side has a value
    or the shapes differ, 0 where both are empty or equal)."""
    if root is None or here is None or root.shape != here.shape:
        return 0.0 if root is None and here is None else np.inf
    difference = float(np.abs(here - root).max(initial=0.0))
    scale = float(np.abs(root).max(initial=0.0))
    return difference / scale if scale else (np.inf if difference else 0.0)


def step_differences(sides, call) -> tuple:
    """(relative difference of dx, of dy, whether the path or the inertias
    changed) of one IPM step between the two sides."""
    root, here = (step_trace(package, call) for package in sides)
    return (relative_difference(root[2], here[2]), relative_difference(root[3], here[3]),
            root[:2] != here[:2])


def timed(package, outcome, call) -> float:
    start = perf_counter()
    outcome(package, call)
    return perf_counter() - start


def replay(title, calls, outcome, kind, sides, rounds, differences=None) -> int:
    """Time calls through both sides (the root package, then this one),
    print the table by kind with how many calls of each kind differ byte for
    byte, and return how many calls differ. With differences (a function of
    the sides and a call giving the relative differences of dx and dy and
    whether the path or the inertias changed), the table also gives their
    largest values and the count of changed calls."""
    if not calls:
        return 0
    root, here = sides
    kinds = [kind(here, call) for call in calls]
    factorizations = [[counted(package, outcome, call) for call in calls] for package in sides]
    differs = [outcome(root, call) != outcome(here, call) for call in calls]
    moved = [differences(sides, call) for call in calls] if differences else None

    seconds = [[[] for _ in calls] for _ in sides]
    gc.disable()
    try:
        for round_ in range(rounds):
            for i, call in enumerate(calls):
                order = (0, 1) if (round_ + i) % 2 == 0 else (1, 0)
                for side in order:
                    seconds[side][i].append(timed(sides[side], outcome, call))
            gc.collect()
    finally:
        gc.enable()
    per_call = [[statistics.median(s) for s in side] for side in seconds]

    header = "%-26s %6s %10s %10s %7s %9s %9s %6s" % (
        title, "calls", "root us", "here us", "ratio", "root fact", "here fact", "differ")
    print(header + (" %10s %10s %7s" % ("max rel dx", "max rel dy", "changed") if moved else ""))
    for label in sorted(set(kinds)) + ["all"]:
        chosen = [i for i, k in enumerate(kinds) if label in (k, "all")]
        mean = [1e6 * sum(side[i] for i in chosen) / len(chosen) for side in per_call]
        fact = [sum(side[i] for i in chosen) / len(chosen) for side in factorizations]
        line = "%-26s %6d %10.1f %10.1f %7.3f %9.3f %9.3f %6d" % (
            label, len(chosen), *mean, mean[1] / mean[0], *fact, sum(differs[i] for i in chosen))
        if moved:
            line += " %10.2e %10.2e %7d" % (max(moved[i][0] for i in chosen),
                                            max(moved[i][1] for i in chosen),
                                            sum(moved[i][2] for i in chosen))
        print(line)
    print("%d of %d %s differ byte for byte" % (sum(differs), len(calls), title))
    return sum(differs)


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
    import modnlp.state
    import modnlp.subproblem

    root = load_package(args.root.resolve() / "src", "modnlp_root")
    import modnlp_root.linalg  # noqa: F401
    import modnlp_root.state  # noqa: F401
    import modnlp_root.subproblem  # noqa: F401

    sides = (root, modnlp)
    qps, steps, raised = capture(modnlp, args.root.resolve(), args.workload, args.seed)
    print("%s seed %d: %d QPs, %d IPM steps, %d rounds; root = %s, here = %s"
          % (args.workload, args.seed, len(qps), len(steps), args.rounds,
             args.root.resolve(), HERE))
    for message in raised:
        print("a solve of the capture raised %s" % message)
    differ = replay("QPs", qps, qp_outcome, qp_kind, sides, args.rounds)
    differ += replay("IPM steps", steps, step_outcome, step_kind, sides, args.rounds,
                     step_differences)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
