"""Time the certified KKT kernel against the eigenvalues and an LU, the
choice that linalg's _CERTIFY_MIN_ORDER and _SCALAR_MIN_ORDER gate.

    python3 tools/kernel_timing.py [--root CHECKOUT]

It imports modnlp from CHECKOUT/src (default: this checkout) and runs with
one BLAS thread. For each order N = n + m and each of three shapes, m/N
about 0.2, 0.35 and 0.49, it draws one random KKT system and times, best
of REPEAT rounds:

- certified: _certified_factorization(H, A, delta_w, True), the path that
  _kkt_factorization takes at or above its gate, and one solve_factorized;
- eigen: ldlt_factorize_scaled(assemble_kkt(H, A, delta_w, 0)), the path
  below the gate, and one solve_factorized (an LU).

"general" systems have a positive definite H of order n and delta_w = 0,
as an interior-point step; "scalar" ones have H = 0 and delta_w = 1e-4, as
a working-set step of the QP's elastic phase I. Each round times the two
paths back to back; each line gives their best times and the median of
the rounds' ratios, for the shape where that ratio is worst. The last
line of each kind is the crossover: the smallest order from which the
certificate is faster on every shape at every larger order timed.
"""
from __future__ import annotations

import argparse
import os
import sys
import timeit
from pathlib import Path

ORDERS = {"general": range(32, 129, 8), "scalar": range(16, 65, 4)}
SHAPES = (0.2, 0.35, 0.49)
REPEAT = 7


def system(np, rng, kind: str, order: int, share: float):
    """(H, A, delta_w) of one random KKT system of order n + m = order."""
    m = max(1, round(share * order))
    n = order - m
    A = rng.standard_normal((m, n))
    if kind == "scalar":
        return 0.0, A, 1e-4
    G = rng.standard_normal((n, n))
    return G @ G.T / n + np.eye(n), A, 0.0


def time_order(np, linalg, rng, kind: str, order: int):
    """(certified seconds, eigen seconds, ratio) for the shape where the
    certificate compares worst: each path's best loop, and the median
    ratio of the rounds, which time the two paths back to back so that a
    change of core speed between rounds cancels."""
    worst = None
    for share in SHAPES:
        H, A, delta_w = system(np, rng, kind, order, share)
        rhs = rng.standard_normal(order)
        if linalg._certified_factorization(H, A, delta_w, True) is None:
            raise SystemExit("%s order %d: the certificate refused" % (kind, order))

        def certified():
            fact = linalg._certified_factorization(H, A, delta_w, True)
            linalg.solve_factorized(fact, rhs)

        def eigen():
            K = linalg.assemble_kkt(H, A, delta_w, 0.0)
            linalg.solve_factorized(linalg.ldlt_factorize_scaled(K), rhs)

        number = max(1, 20000 // order)
        rounds = np.array([[timeit.timeit(f, number=number) / number for f in (certified, eigen)]
                           for _ in range(REPEAT)])
        ratio = float(np.median(rounds[:, 0] / rounds[:, 1]))
        if worst is None or ratio > worst[2]:
            worst = (*rounds.min(axis=0), ratio)
    return worst


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
        faster = [order for order in orders if not slower or order > slower[-1]]
        print("%-7s crossover: %s" % (
            kind, "N = %d" % faster[0] if faster else "none up to N = %d" % orders[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
