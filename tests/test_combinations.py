"""Every legal combination of the four ingredients, pinned.

The 30 legal combinations run on maratos, and the 15 feasibility_restoration
ones also on infeasible1, where QP, LP and interior-point restoration all
run. Each solve must return, with the status, iteration count, the five
callback counts (objective, constraints, gradient, Jacobian, Hessian) and
the subproblem solves recorded here.
"""
import itertools
import warnings

import pytest

from modnlp.corpus import corpus_get
from modnlp.driver import MECHANISMS, RELAXATIONS, STRATEGIES, SUBPROBLEMS, Options, solve
from modnlp.model import instrument

SHORT = {
    "feasibility_restoration": "FR", "l1_relaxation": "L1",
    "QP": "QP", "LP": "LP", "primal_dual_IPM": "IPM",
    "leyffer_filter_method": "leyffer", "waechter_filter_method": "waechter",
    "l1_merit": "merit",
}

# (status, iterations, (f, c, gradient, Jacobian, Hessian) calls, subproblem solves)
PINNED = {
    "maratos": {
        "FR LP merit LS": ("IterationLimit", 0, (2, 2, 4, 4, 1), 1),
        "FR LP merit TR": ("FeasibleKKT", 25, (97, 97, 29, 29, 70), 70),
        "FR LP leyffer LS": ("IterationLimit", 0, (2, 2, 4, 4, 1), 1),
        "FR LP leyffer TR": ("FeasibleKKT", 25, (97, 97, 29, 29, 70), 70),
        "FR LP waechter LS": ("IterationLimit", 0, (2, 2, 4, 4, 1), 1),
        "FR LP waechter TR": ("FeasibleKKT", 27, (103, 103, 31, 31, 74), 74),
        "FR QP merit LS": ("FeasibleKKT", 6, (19, 19, 10, 10, 6), 6),
        "FR QP merit TR": ("FeasibleKKT", 6, (18, 18, 10, 10, 10), 10),
        "FR QP leyffer LS": ("FeasibleKKT", 6, (19, 19, 10, 10, 6), 6),
        "FR QP leyffer TR": ("FeasibleKKT", 6, (18, 18, 10, 10, 10), 10),
        "FR QP waechter LS": ("FeasibleKKT", 6, (19, 19, 10, 10, 6), 6),
        "FR QP waechter TR": ("FeasibleKKT", 6, (18, 18, 10, 10, 10), 10),
        "FR IPM merit LS": ("FeasibleKKT", 6, (19, 19, 10, 10, 6), 6),
        "FR IPM leyffer LS": ("FeasibleKKT", 6, (19, 19, 10, 10, 6), 6),
        "FR IPM waechter LS": ("FeasibleKKT", 6, (19, 19, 10, 10, 6), 6),
        "L1 LP merit LS": ("IterationLimit", 0, (2, 2, 4, 4, 1), 1),
        "L1 LP merit TR": ("FeasibleKKT", 31, (113, 113, 35, 35, 82), 82),
        "L1 LP leyffer LS": ("IterationLimit", 0, (2, 2, 4, 4, 1), 1),
        "L1 LP leyffer TR": ("FeasibleKKT", 23, (89, 89, 27, 27, 66), 66),
        "L1 LP waechter LS": ("IterationLimit", 0, (2, 2, 4, 4, 1), 1),
        "L1 LP waechter TR": ("FeasibleKKT", 25, (95, 95, 29, 29, 70), 70),
        "L1 QP merit LS": ("FeasibleKKT", 40, (335, 335, 44, 44, 42), 42),
        "L1 QP merit TR": ("FeasibleKKT", 22, (66, 66, 26, 26, 60), 60),
        "L1 QP leyffer LS": ("FeasibleKKT", 14, (68, 68, 18, 18, 16), 16),
        "L1 QP leyffer TR": ("FeasibleKKT", 6, (15, 15, 10, 10, 25), 25),
        "L1 QP waechter LS": ("IterationLimit", 47, (444, 444, 51, 51, 50), 50),
        "L1 QP waechter TR": ("FeasibleKKT", 6, (15, 15, 10, 10, 25), 25),
        "L1 IPM merit LS": ("FeasibleKKT", 79, (835, 835, 254, 254, 92), 92),
        "L1 IPM leyffer LS": ("FeasibleKKT", 1, (19, 19, 20, 20, 14), 14),
        "L1 IPM waechter LS": ("FeasibleKKT", 1, (19, 19, 20, 20, 14), 14),
    },
    "infeasible1": {
        "FR LP merit LS": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR LP merit TR": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR LP leyffer LS": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR LP leyffer TR": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR LP waechter LS": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR LP waechter TR": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR QP merit LS": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR QP merit TR": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR QP leyffer LS": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR QP leyffer TR": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR QP waechter LS": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR QP waechter TR": ("InfeasibleStationary", 9, (20, 20, 13, 13, 19), 19),
        "FR IPM merit LS": ("InfeasibleStationary", 7, (59, 59, 20, 20, 8), 8),
        "FR IPM leyffer LS": ("InfeasibleStationary", 7, (59, 59, 20, 20, 8), 8),
        "FR IPM waechter LS": ("InfeasibleStationary", 7, (59, 59, 20, 20, 8), 8),
    },
}

LEGAL = [
    combo for combo in itertools.product(RELAXATIONS, SUBPROBLEMS, STRATEGIES, MECHANISMS)
    if not (combo[1] == "primal_dual_IPM" and combo[3] == "TR")
]


def test_thirty_legal_combinations():
    assert len(LEGAL) == 30
    assert len(PINNED["maratos"]) == 30 and len(PINNED["infeasible1"]) == 15


def short(combo):
    return " ".join(SHORT.get(part, part) for part in combo)


CASES = [
    (problem, combo) for problem in PINNED for combo in LEGAL
    if problem == "maratos" or combo[0] == "feasibility_restoration"
]


@pytest.mark.parametrize("problem, combo", CASES,
                         ids=["%s-%s" % (p, short(c).replace(" ", "-")) for p, c in CASES])
def test_combination_pinned(problem, combo):
    relaxation, subproblem, strategy, mechanism = combo
    options = Options(
        constraint_relaxation_strategy=relaxation, subproblem=subproblem,
        globalization_strategy=strategy, globalization_mechanism=mechanism,
    )
    model, counts = instrument(corpus_get(problem))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # feasibility_restoration + l1_merit
        result = solve(model, options)
    observed = (
        result.status,
        result.iterations,
        (counts.objective, counts.constraints, counts.objective_gradient,
         counts.constraint_jacobian, counts.hessian),
        result.subproblem_solves,
    )
    assert observed == PINNED[problem][short(combo)]
