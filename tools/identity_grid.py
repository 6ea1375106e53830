"""Identity check of the solver between two checkouts.

    python3 tools/identity_grid.py OUT.json [--root CHECKOUT] [--benchmark] [--seeded K]
    python3 tools/identity_grid.py --compare A.json B.json [--x-tol TOL]

The first form imports modnlp from CHECKOUT/src (default: this checkout)
and solves the default-start grid: every legal combination of the four
parts (30, ``modnlp.corpus.legal_combinations``) on every corpus problem
(28). With --benchmark it also solves the task lists of the benchmark's
corpus seeds 1 and 2, scaled_qp seed 1 and scaled_ipm seed 1, built by
CHECKOUT/perfbench/workloads.py. With --seeded K it also solves every
legal combination on every corpus problem from K seeded starts
(``modnlp.corpus.seeded_starts``: x0 + N(0, I) clipped to the bounds),
each judged like a grid record. For each solve it writes the status,
iterations, the five callback counts the solve reports (objective,
constraints, gradient, Jacobian, Hessian), subproblem_solves, x, the
multipliers y and z, rho and the message to OUT.json; a solve that
raises is recorded as "crash:<ExceptionType>". Each grid record also gets
``right``, the verdict of CHECKOUT's own answer judge,
``modnlp.corpus.is_right``. A checkout whose modnlp has no
``corpus.legal_combinations`` is refused (exit 2): run it with its own
copy of this tool. It also writes every field of
``preset_options(name)`` for each preset and of ``Options()``, so that two
checkouts are seen to resolve the presets to the same options. JSON
floats round-trip exactly, so equal values in the file mean bit-identical
values.

--compare lists every solve whose record differs between two files, and
the largest |dx| over the solves whose x has the same shape. It exits 1
when any solve differs. With --x-tol, x, y, z and rho may differ by up to
TOL in every component (such solves are counted, not listed); status,
iterations, the callback counts, subproblem_solves and the message must
still match exactly. Before its last line it prints, for each source of
records (the grid, the presets and Options, and each benchmark run), how
many are identical, how many differ within TOL, how many differ, and the
largest |dx|; the totals of the five callback counts in A and in B, and how
many records differ only by fewer callback calls in B (such records still
differ: the report does not change the exit code); how many statuses
changed from failure to success (FeasibleKKT or LooseToleranceKKT), from
success to failure, and otherwise, with the objective-call totals of those
records in A and in B; and, per combination of the four parts, the grid's
right answers in each file (a combination with fewer in B is marked
"lost"). For the seeded records it also prints the right answers, in all
and per combination (marked "lost" in the same way), and the count of
each status and of each message in A and in B. Last, for the grid and
the seeded records, it lists every record whose answer was right in A and
is not in B, so that a lost answer is not hidden by a gain elsewhere in
a count.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from collections import Counter
from pathlib import Path

BENCHMARK_RUNS = (("corpus", 1), ("corpus", 2), ("scaled_qp", 1), ("scaled_ipm", 1))
# the record fields compared under --x-tol; every other field must match exactly
TOLERANT = ("x", "y", "z", "rho")
SUCCESS = ("FeasibleKKT", "LooseToleranceKKT")


def record(modnlp, model, options, problem=None) -> dict:
    """The record of one solve; for the corpus problem named by problem,
    also "right", the answer judge's verdict (False for a solve that
    raises)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = modnlp.solve(model, options)
    except Exception as exc:  # noqa: BLE001 - a raising solve is a result to compare
        crash = {"status": "crash:" + type(exc).__name__}
        return crash if problem is None else dict(crash, right=False)
    out = {
        "status": result.status,
        "iterations": result.iterations,
        "counts": list(dataclasses.astuple(result.counts)),
        "subproblem_solves": result.subproblem_solves,
        "x": [float(v) for v in result.x],
        "y": [float(v) for v in result.y],
        "z": [float(v) for v in result.z],
        "rho": float(result.rho),
        "message": result.message,
    }
    if problem is not None:
        out["right"] = modnlp.corpus.is_right(problem, result)
    return out


def grid(modnlp, count: int) -> dict:
    """Every legal combination on every corpus problem from the default
    start ("grid" records) and from count seeded starts ("seeded")."""
    legal = modnlp.corpus.legal_combinations()
    out = {}
    for problem in modnlp.corpus_names():
        model = modnlp.corpus_get(problem)
        starts = [("grid " + problem, model)] + [
            ("seeded %s #%d" % (problem, k), start)
            for k, start in enumerate(modnlp.corpus.seeded_starts(model, count))]
        for prefix, start in starts:
            for combo, options in legal:
                out["%s %s" % (prefix, " ".join(combo))] = record(modnlp, start, options, problem)
    return out


def presets(modnlp) -> dict:
    out = {"preset %s" % name: dataclasses.asdict(modnlp.preset_options(name))
           for name in modnlp.driver.PRESETS}
    out["options defaults"] = dataclasses.asdict(modnlp.Options())
    return out


def benchmark(modnlp, root: Path) -> dict:
    import numpy as np

    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    out = {}
    for workload, seed in BENCHMARK_RUNS:
        tasks = workloads.WORKLOADS[workload](np.random.default_rng(seed))
        for k, task in enumerate(tasks):
            key = "%s seed %d #%d %s %s" % (workload, seed, k, task.problem, task.config)
            out[key] = record(modnlp, task.model, task.options)
    return out


def source(key: str) -> str:
    """The source of a record: the grid, the presets and Options, or the
    benchmark run ("corpus seed 1", ...) whose task list it comes from."""
    if key.startswith("grid "):
        return "grid"
    if key.startswith("seeded "):
        return "seeded"
    if key.startswith("preset ") or key == "options defaults":
        return "presets and Options"
    return key.split(" #")[0]


def right_answers(records: dict, kind: str = "grid") -> dict:
    """Per combination (the label that ends a grid or seeded key), [right
    answers, records] over the records of that kind that carry a
    judgement."""
    tally = {}
    for key, rec in records.items():
        if source(key) == kind and "right" in rec:
            label = key.split(" ", 3 if kind == "seeded" else 2)[-1]
            counts = tally.setdefault(label, [0, 0])
            counts[0] += bool(rec["right"])
            counts[1] += 1
    return tally


def print_right_answers(prefix: str, right_a: dict, right_b: dict) -> None:
    """Right answers per combination in A and in B, a combination with
    fewer in B marked "lost"."""
    for combo in sorted(set(right_a) | set(right_b)):
        ca, cb = right_a.get(combo, [0, 0]), right_b.get(combo, [0, 0])
        print("  %s, %s: %d/%d -> %d/%d%s"
              % (prefix, combo, *ca, *cb, "  lost" if cb[0] < ca[0] else ""))


def seeded_tallies(records: dict) -> tuple:
    """Over the seeded records: the right answers, and the count of each
    status and of each message."""
    seeded = [rec for key, rec in records.items() if key.startswith("seeded ")]
    return (sum(bool(rec.get("right")) for rec in seeded),
            Counter(rec["status"] for rec in seeded),
            Counter(rec.get("message", "") for rec in seeded))


def close(a, b, tol: float) -> bool:
    """Whether two values of a TOLERANT field have the same shape and
    differ by at most tol in every component (NaN is never close)."""
    if isinstance(a, float) and isinstance(b, float):
        a, b = [a], [b]
    if not (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)):
        return False
    return all(abs(u - v) <= tol for u, v in zip(a, b))


def fewer_calls(counts_a: list, counts_b: list) -> bool:
    """Whether B made no callback call more than A and at least one fewer."""
    return all(nb <= na for na, nb in zip(counts_a, counts_b)) and counts_a != counts_b


def compare(path_a: str, path_b: str, x_tol: float = 0.0) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    # per source: identical, differ within x_tol, differ, max |dx|
    summary = {}
    # per source: the five callback totals of A and of B, and the records
    # that differ only by fewer callback calls in B
    calls = {}
    # per source: statuses changed to success, to failure and otherwise,
    # and the objective calls of those records in A and in B
    changes = {}
    # per source: the records right in A and not in B
    wrong_now = {}
    for key in sorted(set(a) | set(b)):
        tally = summary.setdefault(source(key), [0, 0, 0, 0.0])
        totals = calls.setdefault(source(key), [[0] * 5, [0] * 5, 0])
        ra, rb = a.get(key), b.get(key)
        for side, rec in enumerate((ra, rb)):
            if rec is not None and "counts" in rec:
                totals[side] = [t + c for t, c in zip(totals[side], rec["counts"])]
        if (ra or {}).get("right") and not (rb or {}).get("right"):
            wrong_now.setdefault(source(key), []).append(key)
        if ra is None or rb is None:
            print("%s: only in %s" % (key, path_a if rb is None else path_b))
            tally[2] += 1
            continue
        status_a, status_b = ra.get("status"), rb.get("status")
        if status_a != status_b:
            moved = changes.setdefault(source(key), [0, 0, 0, 0, 0])
            won, lost = status_b in SUCCESS, status_a in SUCCESS
            moved[0 if won > lost else 1 if lost > won else 2] += 1
            moved[3] += ra.get("counts", [0])[0]
            moved[4] += rb.get("counts", [0])[0]
        xa, xb = ra.get("x"), rb.get("x")
        if xa is not None and xb is not None and len(xa) == len(xb):
            tally[3] = max(tally[3], max((abs(u - v) for u, v in zip(xa, xb)), default=0.0))
        fields = [name for name in sorted(set(ra) | set(rb)) if ra.get(name) != rb.get(name)]
        if fields == ["counts"] and fewer_calls(ra["counts"], rb["counts"]):
            totals[2] += 1
        if fields and all(name in TOLERANT and close(ra.get(name), rb.get(name), x_tol)
                          for name in fields):
            tally[1] += 1
        elif fields:
            tally[2] += 1
            print("%s: %s" % (key, "; ".join(
                "%s differs" % name if name in ("x", "y", "z")
                else "%s %s -> %s" % (name, ra.get(name), rb.get(name)) for name in fields)))
        else:
            tally[0] += 1
    for name, (same, within, differ, dx) in summary.items():
        print("  %s: %d identical, %d within %g, %d differ, max |dx| %.3g"
              % (name, same, within, x_tol, differ, dx))
        calls_a, calls_b, fewer = calls[name]
        if any(calls_a) or any(calls_b):
            print("  %s: callbacks (f, c, g, J, H) %s -> %s, %d differ only by fewer calls"
                  % (name, "/".join(map(str, calls_a)), "/".join(map(str, calls_b)), fewer))
        if name in changes:
            to_success, to_failure, other, f_a, f_b = changes[name]
            print("  %s: statuses %d failure -> success, %d success -> failure, %d otherwise;"
                  " their objective calls %d -> %d"
                  % (name, to_success, to_failure, other, f_a, f_b))
    right_a, right_b = right_answers(a), right_answers(b)
    print_right_answers("right answers", right_a, right_b)
    if right_a or right_b:
        print("  right answers: %d/%d -> %d/%d" % (
            sum(c[0] for c in right_a.values()), sum(c[1] for c in right_a.values()),
            sum(c[0] for c in right_b.values()), sum(c[1] for c in right_b.values())))
    if "seeded" in summary:
        (right_a, statuses_a, messages_a), (right_b, statuses_b, messages_b) = (
            seeded_tallies(a), seeded_tallies(b))
        print("  seeded: right answers %d -> %d" % (right_a, right_b))
        print_right_answers("seeded right answers", right_answers(a, "seeded"),
                            right_answers(b, "seeded"))
        for status in sorted(set(statuses_a) | set(statuses_b)):
            print("  seeded: status %s %d -> %d"
                  % (status, statuses_a[status], statuses_b[status]))
        for message in sorted(set(messages_a) | set(messages_b)):
            print("  seeded: message %r %d -> %d"
                  % (message, messages_a[message], messages_b[message]))
    for name in ("grid", "seeded"):
        if name in summary:
            print("  %s: %d right answers lost" % (name, len(wrong_now.get(name, []))))
            for key in wrong_now.get(name, []):
                print("  right answer lost: %s (%s -> %s)" % (
                    key, a[key].get("status"), b[key].get("status") if key in b else "absent"))
    differ = sum(tally[2] for tally in summary.values())
    x_within = sum(tally[1] for tally in summary.values())
    max_dx = max((tally[3] for tally in summary.values()), default=0.0)
    print("%d solves, %d differ, %d differ in x by at most %g, max |dx| %.3g"
          % (len(set(a) | set(b)), differ, x_within, x_tol, max_dx))
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="JSON file to write")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose src/ and perfbench/ are used")
    parser.add_argument("--benchmark", action="store_true",
                        help="also solve the benchmark's task lists")
    parser.add_argument("--seeded", type=int, default=0, metavar="K",
                        help="also solve the grid from K seeded starts per problem")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--x-tol", type=float, default=0.0, metavar="TOL",
                        help="with --compare: largest |dx| per component counted as equal")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, x_tol=args.x_tol)
    if args.out is None:
        parser.error("give OUT.json or --compare A B")
    root = Path(args.root).resolve()
    # the solver's dense kernels are small: one BLAS thread, as in the benchmark
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(root / "src"))
    import modnlp

    if not hasattr(modnlp.corpus, "legal_combinations"):
        print("identity_grid: %s has no modnlp.corpus.legal_combinations; run that "
              "checkout's own tools/identity_grid.py" % root, file=sys.stderr)
        return 2
    results = grid(modnlp, args.seeded)
    results.update(presets(modnlp))
    if args.benchmark:
        results.update(benchmark(modnlp, root))
    Path(args.out).write_text(json.dumps(results, indent=0))
    print("%d solves written to %s" % (len(results), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
