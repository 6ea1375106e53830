"""Every legal combination of the four ingredients, pinned.

The 30 legal combinations run on maratos, and the 15 feasibility_restoration
ones also on infeasible1, where QP, LP and interior-point restoration all
run. Each solve must return, with the status, iteration count, the five
callback counts (objective, constraints, gradient, Jacobian, Hessian) and
the subproblem solves recorded here. The four presets run again on hs071
and maratos with every numeric option off its default, and their QP
phase-I and phase-II loops, active-set iterations and KKT factorizations
over the 28 default starts are counted. Four small problems also run under
every legal combination from seeded starts. The legal combinations and the
seeded starts are those of modnlp.corpus, checked here against their rules.
Three known false statuses are pinned as strict xfails.
"""
import itertools
import warnings
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

import modnlp.linalg as linalg
from modnlp.corpus import corpus_get, corpus_names, is_right, legal_combinations, seeded_starts
from modnlp.driver import (
    PARTS,
    PRESETS,
    STATUSES,
    Options,
    preset_options,
    solve,
    validate_options,
)
from modnlp.errors import ConfigurationError

SHORT = {
    "feasibility_restoration": "FR", "l1_relaxation": "L1",
    "QP": "QP", "LP": "LP", "primal_dual_IPM": "IPM",
    "leyffer_filter_method": "leyffer", "waechter_filter_method": "waechter",
    "l1_merit": "merit",
}

# (status, iterations, (f, c, gradient, Jacobian, Hessian) calls, subproblem
# solves); the LP's QP has no W, so it calls no Hessian. While the LP had no box
# under the line search, each of the six maratos LP LS entries was
# ("IterationLimit", 0, (1, 1, 1, 1, 0), 1): an unbounded first LP.
PINNED = {
    "maratos": {
        "FR LP merit LS": ("LooseToleranceKKT", 98, (214, 214, 99, 99, 0), 98),
        "FR LP merit TR": ("FeasibleKKT", 25, (71, 71, 26, 26, 0), 70),
        "FR LP leyffer LS": ("LooseToleranceKKT", 92, (202, 202, 93, 93, 0), 92),
        "FR LP leyffer TR": ("FeasibleKKT", 25, (71, 71, 26, 26, 0), 70),
        "FR LP waechter LS": ("LooseToleranceKKT", 121, (260, 260, 122, 122, 0), 121),
        "FR LP waechter TR": ("FeasibleKKT", 27, (75, 75, 28, 28, 0), 74),
        "FR QP merit LS": ("FeasibleKKT", 6, (12, 12, 7, 7, 6), 6),
        "FR QP merit TR": ("FeasibleKKT", 6, (11, 11, 7, 7, 6), 10),
        "FR QP leyffer LS": ("FeasibleKKT", 6, (12, 12, 7, 7, 6), 6),
        "FR QP leyffer TR": ("FeasibleKKT", 6, (11, 11, 7, 7, 6), 10),
        "FR QP waechter LS": ("FeasibleKKT", 6, (12, 12, 7, 7, 6), 6),
        "FR QP waechter TR": ("FeasibleKKT", 6, (11, 11, 7, 7, 6), 10),
        "FR IPM merit LS": ("FeasibleKKT", 6, (12, 12, 7, 7, 6), 6),
        "FR IPM leyffer LS": ("FeasibleKKT", 6, (12, 12, 7, 7, 6), 6),
        "FR IPM waechter LS": ("FeasibleKKT", 6, (12, 12, 7, 7, 6), 6),
        "L1 LP merit LS": ("LooseToleranceKKT", 84, (183, 183, 85, 85, 0), 86),
        "L1 LP merit TR": ("FeasibleKKT", 31, (81, 81, 32, 32, 0), 82),
        "L1 LP leyffer LS": ("LooseToleranceKKT", 74, (164, 164, 75, 75, 0), 76),
        "L1 LP leyffer TR": ("FeasibleKKT", 23, (65, 65, 24, 24, 0), 66),
        "L1 LP waechter LS": ("LooseToleranceKKT", 103, (222, 222, 104, 104, 0), 105),
        "L1 LP waechter TR": ("FeasibleKKT", 25, (69, 69, 26, 26, 0), 70),
        "L1 QP merit LS": ("FeasibleKKT", 40, (294, 294, 41, 41, 42), 42),
        "L1 QP merit TR": ("FeasibleKKT", 22, (42, 42, 22, 22, 40), 60),
        "L1 QP leyffer LS": ("FeasibleKKT", 14, (53, 53, 15, 15, 16), 16),
        "L1 QP leyffer TR": ("FeasibleKKT", 6, (7, 7, 6, 6, 24), 25),
        "L1 QP waechter LS": ("IterationLimit", 47, (396, 396, 48, 48, 50), 50),
        "L1 QP waechter TR": ("FeasibleKKT", 6, (7, 7, 6, 6, 24), 25),
        "L1 IPM merit LS": ("FeasibleKKT", 79, (584, 584, 80, 80, 92), 92),
        "L1 IPM leyffer LS": ("FeasibleKKT", 1, (2, 2, 2, 2, 14), 14),
        "L1 IPM waechter LS": ("FeasibleKKT", 1, (2, 2, 2, 2, 14), 14),
    },
    "infeasible1": {
        "FR LP merit LS": ("InfeasibleStationary", 9, (10, 10, 10, 10, 0), 19),
        "FR LP merit TR": ("InfeasibleStationary", 9, (10, 10, 10, 10, 0), 19),
        "FR LP leyffer LS": ("InfeasibleStationary", 9, (10, 10, 10, 10, 0), 19),
        "FR LP leyffer TR": ("InfeasibleStationary", 9, (10, 10, 10, 10, 0), 19),
        "FR LP waechter LS": ("InfeasibleStationary", 9, (10, 10, 10, 10, 0), 19),
        "FR LP waechter TR": ("InfeasibleStationary", 9, (10, 10, 10, 10, 0), 19),
        "FR QP merit LS": ("InfeasibleStationary", 9, (10, 10, 10, 10, 18), 19),
        "FR QP merit TR": ("InfeasibleStationary", 9, (10, 10, 10, 10, 18), 19),
        "FR QP leyffer LS": ("InfeasibleStationary", 9, (10, 10, 10, 10, 18), 19),
        "FR QP leyffer TR": ("InfeasibleStationary", 9, (10, 10, 10, 10, 18), 19),
        "FR QP waechter LS": ("InfeasibleStationary", 9, (10, 10, 10, 10, 18), 19),
        "FR QP waechter TR": ("InfeasibleStationary", 9, (10, 10, 10, 10, 18), 19),
        "FR IPM merit LS": ("InfeasibleStationary", 7, (42, 42, 8, 8, 8), 8),
        "FR IPM leyffer LS": ("InfeasibleStationary", 7, (42, 42, 8, 8, 8), 8),
        "FR IPM waechter LS": ("InfeasibleStationary", 7, (42, 42, 8, 8, 8), 8),
    },
}

# each legal combination's four part names, and its Options
LEGAL = dict(legal_combinations())


def test_thirty_legal_combinations():
    # the products of the part tables that validate_options accepts, in
    # product order, each with default Options but for its parts; listing
    # them warns of nothing
    def accepted(options):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                return validate_options(options) is options
        except ConfigurationError:
            return False

    products = [(combo, Options(**dict(zip(PARTS, combo))))
                for combo in itertools.product(*PARTS.values())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert legal_combinations() == [pair for pair in products if accepted(pair[1])]
    assert (len(products), len(LEGAL)) == (36, 30)
    assert len(PINNED["maratos"]) == 30 and len(PINNED["infeasible1"]) == 15


def short(combo):
    return " ".join(SHORT.get(part, part) for part in combo)


CASES = [
    (problem, combo) for problem in PINNED for combo in LEGAL
    if problem == "maratos" or combo[0] == "feasibility_restoration"
]


def observed(problem, options):
    """The pinned tuple of one solve of the corpus problem under options."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # feasibility_restoration + l1_merit
        result = solve(corpus_get(problem), options)
    return result.status, result.iterations, astuple(result.counts), result.subproblem_solves


@pytest.mark.parametrize("problem, combo", CASES,
                         ids=["%s-%s" % (p, short(c).replace(" ", "-")) for p, c in CASES])
def test_combination_pinned(problem, combo):
    assert observed(problem, LEGAL[combo]) == PINNED[problem][short(combo)]


# hs021 under the six LP + line-search combinations. While the LP had no box
# under the line search, each was ("IterationLimit", 1000,
# (14456, 14458, 1002, 1003, 0), 1000): the outer limit, and no answer.
HS021_LP_LS = {
    "FR LP merit LS": ("FeasibleKKT", 30, (84, 86, 32, 33, 0), 30),
    "FR LP leyffer LS": ("FeasibleKKT", 15, (56, 58, 17, 18, 0), 15),
    "FR LP waechter LS": ("FeasibleKKT", 30, (84, 86, 32, 33, 0), 30),
    "L1 LP merit LS": ("FeasibleKKT", 30, (84, 86, 32, 33, 0), 30),
    "L1 LP leyffer LS": ("FeasibleKKT", 15, (56, 58, 17, 18, 0), 15),
    "L1 LP waechter LS": ("FeasibleKKT", 30, (84, 86, 32, 33, 0), 30),
}


@pytest.mark.parametrize("combo", [c for c in LEGAL if short(c) in HS021_LP_LS],
                         ids=lambda combo: short(combo).replace(" ", "-"))
def test_lp_with_the_line_search_is_boxed_on_hs021(combo):
    assert observed("hs021", LEGAL[combo]) == HS021_LP_LS[short(combo)]


# Every numeric option moved off its default to a legal value, in two sets,
# so an option wired to the wrong part, or not wired at all, moves a pin
# below. "strong" scales every function hard (s_max = 1) and discards the
# multiplier estimate (y_max = 0.01); the two sets exercise different
# options. multiplier_scaling_cap keeps its default: test_driver pins it.
PERTURBED = {
    "mild": dict(
        tolerance=1e-7, max_iterations=100, loose_tolerance_factor=50.0,
        loose_tolerance_window=10, armijo_sigma=1e-3, filter_sigma=1e-6, filter_delta=0.5,
        filter_beta=0.99, filter_gamma=1e-4, filter_capacity=50, theta_min_factor=1e-3,
        eta_max_factor=1e3, restoration_exit_factor=0.8, steering_epsilon1=0.2,
        steering_epsilon2=0.3, rho_initial=0.5, rho_decrease_factor=0.2, rho_min=1e-12,
        mu_initial=0.05, kappa_epsilon=5.0, kappa_mu=0.3, theta_mu=1.3, tau_min=0.95,
        interior_push=5e-3, backtrack_factor=0.6, alpha_min=1e-8, max_inner=40,
        radius_initial=5.0, radius_min=1e-14, radius_max=1e20, radius_increase_factor=3.0,
        radius_decrease_factor=0.4, activity_tolerance_rel=1e-9, y_max=500.0, s_max=50.0,
    ),
    "strong": dict(
        tolerance=1e-7, max_iterations=100, loose_tolerance_factor=50.0,
        loose_tolerance_window=10, armijo_sigma=0.3, filter_sigma=0.3, filter_delta=10.0,
        filter_beta=0.9, filter_gamma=0.1, filter_capacity=2, theta_min_factor=10.0,
        eta_max_factor=2.0, restoration_exit_factor=0.5, steering_epsilon1=0.9,
        steering_epsilon2=0.9, rho_initial=0.5, rho_decrease_factor=0.5, rho_min=1e-3,
        mu_initial=0.05, kappa_epsilon=5.0, kappa_mu=0.3, theta_mu=1.3, tau_min=0.95,
        interior_push=5e-3, backtrack_factor=0.6, alpha_min=1e-3, max_inner=8,
        radius_initial=5.0, radius_min=1e-6, radius_max=8.0, radius_increase_factor=3.0,
        radius_decrease_factor=0.4, activity_tolerance_rel=0.1, y_max=1e-2, s_max=1.0,
    ),
}

PRESET_CONFIGS = {**{name: preset_options(name) for name in PRESETS},
                  "byrd_TR": replace(preset_options("byrd"), globalization_mechanism="TR")}

# (status, iterations, (f, c, gradient, Jacobian, Hessian) calls, subproblem solves).
# While the slack start evaluated c(x0) a second time, each hs071 entry read
# one more constraint call; while f was evaluated at x0 before the interior
# push moved it, hs071 under ipopt read f 13 (mild) and 12 (strong).
PERTURBED_PINNED = {
    ("mild", "hs071", "filtersqp"): ("FeasibleKKT", 5, (6, 6, 6, 6, 5), 5),
    ("mild", "hs071", "ipopt"): ("FeasibleKKT", 11, (12, 13, 13, 13, 11), 11),
    ("mild", "hs071", "byrd"): ("LooseToleranceKKT", 41, (42, 42, 42, 42, 41), 41),
    ("mild", "hs071", "byrd_TR"): ("FeasibleKKT", 5, (6, 6, 6, 6, 5), 5),
    ("mild", "maratos", "filtersqp"): ("FeasibleKKT", 25, (51, 51, 26, 26, 25), 50),
    ("mild", "maratos", "ipopt"): ("FeasibleKKT", 5, (9, 9, 6, 6, 5), 5),
    # the outer limit: the returned iterate's gradient and Jacobian give its residuals
    ("mild", "maratos", "byrd"): ("IterationLimit", 100, (1809, 1809, 101, 101, 100), 100),
    ("mild", "maratos", "byrd_TR"): ("FeasibleKKT", 26, (56, 56, 27, 27, 27), 56),
    ("strong", "hs071", "filtersqp"): ("FeasibleKKT", 5, (6, 6, 6, 6, 5), 5),
    ("strong", "hs071", "ipopt"): ("FeasibleKKT", 10, (11, 12, 12, 12, 10), 10),
    ("strong", "hs071", "byrd"): ("LooseToleranceKKT", 34, (35, 35, 35, 35, 34), 34),
    ("strong", "hs071", "byrd_TR"): ("FeasibleKKT", 5, (6, 6, 6, 6, 5), 5),
    ("strong", "maratos", "filtersqp"): ("FeasibleKKT", 26, (52, 52, 27, 27, 26), 51),
    ("strong", "maratos", "ipopt"): ("FeasibleKKT", 7, (14, 14, 8, 8, 7), 7),
    ("strong", "maratos", "byrd"): ("FeasibleKKT", 10, (23, 23, 11, 11, 10), 10),
    ("strong", "maratos", "byrd_TR"): ("SmallTrustRegion", 57, (139, 139, 58, 58, 58), 138),
}


@pytest.mark.parametrize("perturbation", list(PERTURBED))
def test_perturbed_options_cover_every_numeric_option(perturbation):
    values = PERTURBED[perturbation]
    numeric = {f.name for f in fields(Options)
               if f.type in ("int", "float") and f.name != "multiplier_scaling_cap"}
    assert set(values) == numeric
    for name, value in values.items():
        for config in PRESET_CONFIGS.values():
            assert value != getattr(config, name)
    validate_options(replace(Options(), **values))


@pytest.mark.parametrize("perturbation, problem, config", list(PERTURBED_PINNED),
                         ids=["-".join(key) for key in PERTURBED_PINNED])
def test_perturbed_options_pinned(perturbation, problem, config):
    options = replace(PRESET_CONFIGS[config], **PERTURBED[perturbation])
    assert observed(problem, options) == PERTURBED_PINNED[(perturbation, problem, config)]


# (phase I, phase II) active-set loops over the 28 corpus default starts.
# While phase I also ran for a nonconvex W and after a projection that left
# the box, these were filtersqp (74, 135), ipopt (0, 17), byrd (3, 298) and
# byrd_TR (113, 263). While a cold elastic QP started from its exact
# elastics, byrd_TR read (57, 263).
LOOPS_PINNED = {"filtersqp": (47, 135), "ipopt": (0, 17), "byrd": (3, 298), "byrd_TR": (56, 261)}
# The active-set iterations of those loops, both phases together. While a
# cold elastic QP started from its exact elastics, and walked each of them
# to zero one iteration at a time, byrd read 582 and byrd_TR 605. While
# phase II started at a projection wherever its start missed A d = b, and
# stepped from there to the working set's minimizer, filtersqp read 382,
# byrd 574 and byrd_TR 583.
ITERATIONS_PINNED = {"filtersqp": 337, "ipopt": 19, "byrd": 382, "byrd_TR": 549}
# The _kkt_factorization calls of those solves, the interior-point steps
# and least-squares multipliers included. While phase II started at a
# projection wherever its start missed A d = b, these were filtersqp 485,
# ipopt 288, byrd 626 and byrd_TR 870; ipopt's was 276 while each barrier
# update re-anchored the filter's upper bound. They may only fall.
FACTORIZATIONS_PINNED = {"filtersqp": 428, "ipopt": 271, "byrd": 381, "byrd_TR": 740}


@pytest.mark.parametrize("config", list(LOOPS_PINNED))
def test_active_set_loops_per_preset_pinned(config, monkeypatch):
    loops, iterations, loop = [0, 0], [0], linalg._active_set_loop
    factorizations, kkt = [0], linalg._kkt_factorization

    def counted_loop(W, *args):
        loops[W is not None] += 1
        result = loop(W, *args)
        iterations[0] += result[3]
        return result

    def counted_kkt(*args, **kwargs):
        factorizations[0] += 1
        return kkt(*args, **kwargs)

    monkeypatch.setattr(linalg, "_active_set_loop", counted_loop)
    monkeypatch.setattr(linalg, "_kkt_factorization", counted_kkt)
    for name in corpus_names():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            solve(corpus_get(name), PRESET_CONFIGS[config])
    assert tuple(loops) == LOOPS_PINNED[config]
    assert iterations[0] == ITERATIONS_PINNED[config]
    assert factorizations[0] == FACTORIZATIONS_PINNED[config]


# The seeded-start slice: every legal combination on four small problems
# from two seeded starts (corpus.seeded_starts), at 20 iterations each.
SEEDED_PROBLEMS = ("hs006", "hs007", "maratos", "hs071")


def test_seeded_starts_are_drawn_per_problem_and_clipped():
    # the k-th start is x0 plus the k-th draw of default_rng(7), clipped
    # to the bounds, whatever else was drawn before
    model = corpus_get("hs071")  # 1 <= x <= 5, x0 = (1, 5, 5, 1)
    first, second = seeded_starts(model, 2)
    rng = np.random.default_rng(7)
    for start in (first, second):
        expected = np.clip(model.initial_point + rng.standard_normal(4), 1.0, 5.0)
        assert np.array_equal(start.initial_point, expected)
    assert np.array_equal(seeded_starts(model, 1)[0].initial_point, first.initial_point)
    assert first.eval_objective is model.eval_objective


@pytest.mark.parametrize("problem", SEEDED_PROBLEMS)
def test_seeded_starts_end_in_a_status(problem):
    # every legal combination returns a documented status from any start
    for model in seeded_starts(corpus_get(problem), 2):
        for combo, options in LEGAL.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                result = solve(model, replace(options, max_iterations=20))
            assert result.status in STATUSES, (problem, short(combo))


# Known false statuses, each pinned as a strict xfail: the change that
# mends one makes its test pass, and must remove the mark.
LP_MERIT_LS = dict(subproblem="LP", globalization_strategy="l1_merit",
                   globalization_mechanism="LS")


def quiet_solve(model, options):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # feasibility_restoration + l1_merit
        return solve(model, options)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a tiny s_max certifies a wrong point")
@pytest.mark.parametrize("preset, s_max", [("filtersqp", 1e-10), ("byrd", 1e-10),
                                           ("ipopt", 1e-300)])
def test_a_tiny_function_scaling_certifies_no_wrong_point(preset, s_max):
    # hs071 returns FeasibleKKT at f = 16 at iteration 0 (filtersqp, byrd)
    # and at f = 36.91 (ipopt); its optimum is 17.014
    result = solve(corpus_get("hs071"), replace(preset_options(preset), s_max=s_max))
    assert not result.success or is_right("hs071", result)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the elastic LP fails its KKT check")
@pytest.mark.parametrize("start", [0, 1])
def test_elastic_lp_keeps_its_feasibility(start):
    # infeasible2 from either seeded start under L1 + LP + l1_merit + LS
    # ends in IterationLimit with "QP feasibility violated"
    model = seeded_starts(corpus_get("infeasible2"), 2)[start]
    result = quiet_solve(model, Options(constraint_relaxation_strategy="l1_relaxation",
                                        **LP_MERIT_LS))
    assert "QP feasibility violated" not in result.message


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a false infeasibility certificate")
@pytest.mark.parametrize("relaxation", ["feasibility_restoration", "l1_relaxation"])
def test_a_feasible_problem_is_not_certified_infeasible(relaxation):
    # hs006 from seeded start 1 under LP + l1_merit + LS returns
    # InfeasibleStationary at (0.99985, 0.99970); hs006 is feasible
    model = seeded_starts(corpus_get("hs006"), 2)[1]
    result = quiet_solve(model, Options(constraint_relaxation_strategy=relaxation,
                                        **LP_MERIT_LS))
    assert result.status != "InfeasibleStationary"
