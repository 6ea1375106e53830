"""Time the certified KKT kernel against the eigenvalues and an LU, the
choice that linalg's _CERTIFY_MIN_ORDER and _SCALAR_MIN_ORDER gate.

    python3 tools/kernel_timing.py [--root CHECKOUT]

It imports modnlp from CHECKOUT/src (default: this checkout) and runs with
one BLAS thread. For each order N = n + m and each of three shapes, m/N
about 0.2, 0.35 and 0.49, it draws one random KKT system and times, best
of REPEAT rounds:

- certified: _kkt_factorization(H, A, delta_w, 0) with both gates at 0,
  the path it takes at or above its gate, and one solve_factorized;
- eigen: ldlt_factorize_scaled(assemble_kkt(H, A, delta_w, 0)), the path
  below the gate, and one solve_factorized (an LU).

"general" systems have a dense positive definite H of order n and
delta_w = 0, as a chain's interior-point step, which take the null-space
proof; "diagonal" ones have a random positive diagonal H and delta_w = 0,
as a control instance's interior-point step; "scalar" ones have H = 0 and
delta_w = 1e-4, as a working-set step of the QP's elastic phase I. The last
two take the range-space proof. Each round times the two paths back to
back; each line gives their best times and the median of the rounds'
ratios, for the shape where that ratio is worst. The last line of each
kind is the crossover: the smallest order from which the certificate is
faster on every shape at every larger order timed.

It then replays the KKT systems that _kkt_factorization receives at
delta_c = 0 on one pass of each REPLAY workload and seed, whose tasks
CHECKOUT/perfbench/workloads.py builds (the tool only reads that file).
The certified path runs _kkt_factorization with both gates at 0, so that
a refused system pays the certificate and then the eigenvalues and LU, as
it would above its gate; the eigen path runs it with both gates past
every order. Each path solves once where the record's inertia is
(n, m, 0). The systems are grouped by kind (a scalar H, a matrix H with
no off-diagonal entry, or another matrix) and order, and each group is
timed whole, as above: its line gives the mean times per system, the
ratio, and how many of its systems the certificate refused. The
crossover is read as above.
"""
from __future__ import annotations

import argparse
import os
import sys
import timeit
import warnings
from contextlib import contextmanager
from pathlib import Path

ORDERS = {"general": range(32, 129, 8), "diagonal": range(16, 97, 8),
          "scalar": range(16, 65, 4)}
SHAPES = (0.2, 0.35, 0.49)
REPEAT = 7
REPLAY = (("scaled_qp", 1), ("scaled_ipm", 1))


def system(np, rng, kind: str, order: int, share: float):
    """(H, A, delta_w) of one random KKT system of order n + m = order."""
    m = max(1, round(share * order))
    n = order - m
    A = rng.standard_normal((m, n))
    if kind == "scalar":
        return 0.0, A, 1e-4
    if kind == "diagonal":
        return np.diag(10.0 ** rng.uniform(-2.0, 2.0, n)), A, 0.0
    G = rng.standard_normal((n, n))
    return G @ G.T / n + np.eye(n), A, 0.0


@contextmanager
def gates_at(linalg, order: int):
    """Both certificate gates of linalg at order for the block."""
    saved = linalg._CERTIFY_MIN_ORDER, linalg._SCALAR_MIN_ORDER
    linalg._CERTIFY_MIN_ORDER = linalg._SCALAR_MIN_ORDER = order
    try:
        yield
    finally:
        linalg._CERTIFY_MIN_ORDER, linalg._SCALAR_MIN_ORDER = saved


def time_order(np, linalg, rng, kind: str, order: int):
    """(certified seconds, eigen seconds, ratio) for the shape where the
    certificate compares worst: each path's best loop, and the median
    ratio of the rounds, which time the two paths back to back so that a
    change of core speed between rounds cancels."""
    worst = None
    for share in SHAPES:
        H, A, delta_w = system(np, rng, kind, order, share)
        rhs = rng.standard_normal(order)
        with gates_at(linalg, 0):
            if linalg._kkt_factorization(H, A, delta_w, 0.0).solve is None:
                raise SystemExit("%s order %d: the certificate refused" % (kind, order))

        def certified():
            fact = linalg._kkt_factorization(H, A, delta_w, 0.0)
            linalg.solve_factorized(fact, rhs)

        def eigen():
            K = linalg.assemble_kkt(H, A, delta_w, 0.0)
            linalg.solve_factorized(linalg.ldlt_factorize_scaled(K), rhs)

        number = max(1, 20000 // order)
        with gates_at(linalg, 0):
            rounds = np.array([[timeit.timeit(f, number=number) / number
                                for f in (certified, eigen)] for _ in range(REPEAT)])
        ratio = float(np.median(rounds[:, 0] / rounds[:, 1]))
        if worst is None or ratio > worst[2]:
            worst = (*rounds.min(axis=0), ratio)
    return worst


def crossover(kind: str, orders, slower) -> str:
    """The line that names the smallest order from which the certificate
    is faster at every larger order timed (slower: the orders where not)."""
    faster = [order for order in orders if not slower or order > slower[-1]]
    return "%-7s crossover: %s" % (
        kind, "N = %d" % faster[0] if faster else "none up to N = %d" % orders[-1])


def kind_of(np, H) -> str:
    """The kind of a replayed H: scalar, diagonal (a matrix with no
    off-diagonal entry) or general."""
    if not isinstance(H, np.ndarray):
        return "scalar"
    return "diagonal" if np.count_nonzero(H) == np.count_nonzero(H.diagonal()) else "general"


def replayed_systems(np, linalg, root: Path) -> dict:
    """{(kind, order): [(H, A, delta_w, equilibrate, rhs), ...]} of the KKT
    systems at delta_c = 0 that _kkt_factorization receives on one pass of
    each REPLAY workload, with a random right-hand side each."""
    import modnlp

    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    rng = np.random.default_rng(0)
    groups, kkt = {}, linalg._kkt_factorization

    def recorded(H, A, delta_w, delta_c, equilibrate=True):
        if delta_c == 0.0:
            groups.setdefault((kind_of(np, H), sum(A.shape)), []).append((
                H.copy() if isinstance(H, np.ndarray) else H, A.copy(), delta_w, equilibrate,
                rng.standard_normal(sum(A.shape))))
        return kkt(H, A, delta_w, delta_c, equilibrate)

    linalg._kkt_factorization = recorded
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for workload, seed in REPLAY:
                for task in workloads.WORKLOADS[workload](np.random.default_rng(seed)):
                    modnlp.solve(task.model, task.options)
    finally:
        linalg._kkt_factorization = kkt
    return groups


def time_group(np, linalg, systems):
    """(certified seconds, eigen seconds, ratio) of one pass over systems
    through _kkt_factorization with both gates at 0 (certified) and past
    every order (eigen), and one solve each at the target inertia; best
    loops and the median ratio of REPEAT rounds, as time_order."""
    def replay():
        for H, A, delta_w, equilibrate, rhs in systems:
            fact = linalg._kkt_factorization(H, A, delta_w, 0.0, equilibrate)
            if fact.inertia == (A.shape[1], A.shape[0], 0):
                linalg.solve_factorized(fact, rhs)

    number = max(1, 100 // len(systems))
    rounds = []
    for _ in range(REPEAT):
        row = []
        for gate in (0, sys.maxsize):
            with gates_at(linalg, gate):
                row.append(timeit.timeit(replay, number=number) / number)
        rounds.append(row)
    rounds = np.array(rounds)
    return (*rounds.min(axis=0), float(np.median(rounds[:, 0] / rounds[:, 1])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(args.root / "src"))
    import numpy as np

    from modnlp import linalg

    rng = np.random.default_rng(0)
    for kind, orders in ORDERS.items():
        slower = []  # orders at which the certificate is not faster
        for order in orders:
            certified, eigen, ratio = time_order(np, linalg, rng, kind, order)
            print("%-7s N=%4d  certified %8.1f us  eigen %8.1f us  ratio %.2f"
                  % (kind, order, 1e6 * certified, 1e6 * eigen, ratio))
            if ratio >= 1.0:
                slower.append(order)
        print(crossover(kind, orders, slower))

    groups = replayed_systems(np, linalg, args.root)
    print("replayed: the KKT systems of one pass of %s, per order all of its systems"
          % " and ".join("%s seed %d" % replay for replay in REPLAY))
    for kind in ORDERS:
        orders = sorted(order for k, order in groups if k == kind)
        slower, count, refused = [], 0, 0
        for order in orders:
            systems = groups[kind, order]
            certified, eigen, ratio = time_group(np, linalg, systems)
            with gates_at(linalg, 0):
                rejected = sum(
                    linalg._kkt_factorization(H, A, delta_w, 0.0, equilibrate).solve is None
                    for H, A, delta_w, equilibrate, _ in systems)
            print("%-7s N=%4d  certified %8.1f us  eigen %8.1f us  ratio %.2f  (%d systems, "
                  "%d refused)" % (kind, order, 1e6 * certified / len(systems),
                                   1e6 * eigen / len(systems), ratio, len(systems), rejected))
            if ratio >= 1.0:
                slower.append(order)
            count, refused = count + len(systems), refused + rejected
        if orders:
            print("%s  (replayed; the certificate refused %d of %d systems)"
                  % (crossover(kind, orders, slower), refused, count))
    return 0


if __name__ == "__main__":
    sys.exit(main())
