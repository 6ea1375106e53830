from dataclasses import replace

import numpy as np
import pytest

from modnlp.corpus import corpus_get
from modnlp.driver import (
    Options,
    _build_ingredients,
    estimate_initial_multipliers,
    preprocess_initial_point,
    preset_options,
    validate_options,
)
from modnlp.globalization import FilterMethod
from modnlp.linalg import OPTIMAL, qp_solve
from modnlp.model import EvaluationRecord, Evaluations, instrument
from modnlp.reformulation import scale_functions, to_equality_form
from modnlp.relaxation import (
    L1Relaxation,
    LPSubproblem,
    OPTIMALITY,
    RESTORATION,
    QPSubproblem,
    error_measure,
    l1_sign_residual,
    projected_stationarity_l1,
)
from modnlp.state import Bounds, Iterate, Workspace
from modnlp.subproblem import initial_bound_multipliers, push_to_interior

INF = np.inf


def prepared(name, preset="byrd"):
    opts = validate_options(preset_options(preset))
    counted, _ = instrument(corpus_get(name))
    working, _, start = scale_functions(
        to_equality_form(EvaluationRecord(counted, counted.initial_point)), 100.0)
    ws = Workspace(working)
    start = preprocess_initial_point(start)
    y0 = estimate_initial_multipliers(start, np.zeros(working.n), 1e3)
    it = Iterate(start.x, y0, np.zeros(working.n), np.zeros(working.n), start)
    _, relaxation, mechanism = _build_ingredients(ws, opts)
    relaxation.initialize(it)
    return ws, it, relaxation, mechanism


class TestErrorMeasure:
    def evals_for(self, grad, jac, c):
        return Evaluations(
            f=0.0, c=np.asarray(c, dtype=float),
            grad_f=np.asarray(grad, dtype=float), jac_c=np.asarray(jac, dtype=float),
        )

    def test_zero_at_kkt_point(self):
        # min (x-1)^2 unconstrained-in-c with one equality x1 - 1 = 0
        ev = self.evals_for([0.0], [[1.0]], [0.0])
        e = error_measure(ev, np.array([1.0]), np.array([0.0]), 1.0,
                          Bounds(np.array([-INF]), np.array([INF])))
        assert e == 0.0

    def test_feasible_wrong_multiplier(self):
        ev = self.evals_for([0.5], [[1.0]], [0.0])
        e = error_measure(ev, np.array([1.0]), np.array([0.0]), 1.0,
                          Bounds(np.array([-INF]), np.array([INF])))
        assert e == pytest.approx(0.5)

    def test_l1_subgradient_consistency(self):
        # upper violated constraint with y = -1 contributes nothing
        ev = self.evals_for([0.0], [[0.0]], [2.0])
        e = l1_sign_residual(ev.c, np.array([-1.0]))
        assert e == 0.0
        assert l1_sign_residual(ev.c, np.array([0.0])) == pytest.approx(2.0)

    def test_bound_projection(self):
        # at an active lower bound a positive reduced gradient is optimal
        ev = self.evals_for([1.0], np.zeros((0, 1)), np.zeros(0))
        e = error_measure(ev, np.array([0.0]), np.zeros(0), 1.0,
                          Bounds(np.array([0.0]), np.array([INF])))
        assert e == 0.0
        ev = self.evals_for([-1.0], np.zeros((0, 1)), np.zeros(0))
        e = error_measure(ev, np.array([0.0]), np.zeros(0), 1.0,
                          Bounds(np.array([0.0]), np.array([INF])))
        assert e == pytest.approx(1.0)


class TestSteering:
    def test_no_steering_when_linearization_consistent(self):
        ws, it, relaxation, _ = prepared("hs028")
        d = relaxation.compute_direction(it)
        assert not d.info["steered"]
        assert relaxation.rho == 1.0

    def test_steering_reduces_rho_until_linearized_feasible(self):
        # maratos at its on-circle start needs |y| approx 1.5 > 1: the elastic
        # QP violates at rho = 1 and steering must bring l(d) to zero
        ws, it, relaxation, _ = prepared("maratos")
        d = relaxation.compute_direction(it)
        info = d.info
        assert info["steered"]
        assert relaxation.rho < 1.0
        c = np.asarray(it.evals.c)
        jac = np.asarray(it.evals.jac_c)
        assert np.abs(c + jac @ d.dx).sum() <= 1e-9 * (1.0 + info["l0"])

    def test_steering_conditions_verified_by_rho_grid_oracle(self):
        # sweep rho over a grid and check that the returned rho satisfies the
        # conditions while every larger scheduled rho fails at least one
        ws, it, relaxation, _ = prepared("maratos")
        d = relaxation.compute_direction(it)
        rho_star = relaxation.rho
        c = np.asarray(it.evals.c)
        jac = np.asarray(it.evals.jac_c)
        l0 = float(np.sum(np.abs(c)))

        def l_at(rho):
            probe = L1Relaxation(
                ws, QPSubproblem(ws, relaxation.opts), relaxation.strategy,
                replace(relaxation.opts, rho_initial=rho),
            )
            direction = probe._solve_at(it, rho, np.inf)
            return float(np.abs(c + jac @ direction.dx).sum())

        assert l_at(rho_star) <= 1e-9 * (1.0 + l0)
        rho = 1.0
        while rho > rho_star * 1.001:
            assert l_at(rho) > 1e-9 * (1.0 + l0)  # cond1 fails above rho*
            rho *= relaxation.opts.rho_decrease_factor

    def test_cap_no_decrease_at_feasible_points(self):
        # at a feasible point whose feasibility step stays linearized-feasible
        # the dual-residual cap must not collapse rho
        ws, it, relaxation, _ = prepared("hs048")
        relaxation.compute_direction(it)
        assert relaxation.rho > 1e-3

    def test_rho_nonincreasing_over_solve(self):
        from modnlp.driver import solve

        seen = []
        result = solve(
            corpus_get("hs063"), preset_options("byrd"),
            log=lambda rec: seen.append(rec["rho"]),
        )
        assert all(b <= a + 1e-15 for a, b in zip(seen, seen[1:]))


class TestRestoration:
    def test_consistent_linearization_stays_optimality(self):
        ws, it, relaxation, _ = prepared("hs028", preset="filtersqp")
        d = relaxation.compute_direction(it, trust_radius=10.0)
        assert relaxation.phase == OPTIMALITY
        assert d.status == OPTIMAL

    def test_infeasible_qp_switches_and_fqp_is_feasible(self):
        ws, it, relaxation, _ = prepared("infeasible1", preset="filtersqp")
        # tiny trust region + inconsistent rows make the optimality QP infeasible
        d = relaxation.compute_direction(it, trust_radius=1e-3)
        assert relaxation.phase == RESTORATION
        assert d.status == OPTIMAL  # the elastic FQP is always feasible
        assert np.all(it.y == 0.0)  # multipliers reset on entry

    def test_filter_recorded_on_entry(self):
        ws, it, relaxation, _ = prepared("infeasible1", preset="filtersqp")
        assert isinstance(relaxation.strategy, FilterMethod)
        before = len(relaxation.strategy.entries)
        relaxation.compute_direction(it, trust_radius=1e-3)
        assert len(relaxation.strategy.entries) == before + 1

    def test_small_step_in_restoration_is_retried_after_a_barrier_decrease(self):
        # a collapsed step in restoration gets a new restoration direction
        # only once mu has decreased: never with an active-set subproblem,
        # whose mu is fixed
        ws, it, relaxation, _ = prepared("infeasible1", preset="filtersqp")
        relaxation._enter_restoration(it)
        assert relaxation.handle_small_step(it) is None
        ws, it, relaxation, _ = prepared("maratos", preset="ipopt")
        relaxation._enter_restoration(it)
        relaxation.subproblem.mu = 1e3  # far above the restoration problem's KKT error
        d = relaxation.handle_small_step(it)
        assert relaxation.subproblem.mu < 1e3
        assert relaxation.phase == RESTORATION and d.status == OPTIMAL

    def test_restoration_converges_to_certificate(self):
        from modnlp.driver import solve

        result = solve(corpus_get("infeasible1"), preset_options("filtersqp"))
        assert result.status == "InfeasibleStationary"
        # analytic minimum of |x^2| + |x^2 + 1| is 1 at x = 0; the certificate
        # tolerances admit points within O(sqrt(10 eps)) of it
        assert result.feasibility == pytest.approx(1.0, abs=1e-4)
        assert abs(result.x[0]) <= 1e-2

    def test_restoration_certificate_infeasible2(self):
        from modnlp.driver import solve

        result = solve(corpus_get("infeasible2"), preset_options("filtersqp"))
        assert result.status == "InfeasibleStationary"
        # analytic l1 minimum on the circle: eta = 3 - sqrt(2) at x = (1,1)/sqrt(2)
        np.testing.assert_allclose(result.x, np.full(2, np.sqrt(0.5)), atol=1e-4)

    def test_elastic_fqp_never_infeasible(self):
        rng = np.random.RandomState(3)
        from modnlp.linalg import extend_with_elastics
        from modnlp.subproblem import build_sqp_qp

        for _ in range(25):
            n, m = 3, 2
            ev = Evaluations(
                f=0.0, c=rng.randn(m), grad_f=rng.randn(n), jac_c=rng.randn(m, n),
                hessian=np.eye(n),
            )
            qp, _ = build_sqp_qp(
                ev, ev.hessian, rng.rand(n), 0.0, Bounds(np.zeros(n), np.full(n, INF)),
                10 ** rng.uniform(-3, 1), None,
            )
            sol = qp_solve(extend_with_elastics(qp))
            assert sol.status == OPTIMAL


@pytest.mark.parametrize("name", ["hs028", "hs035", "hs076"])
def test_trust_region_pinned_components_have_no_bound_multipliers(name):
    # where the trust region, not a variable bound, pins dx, the QP's
    # multiplier belongs to the trust region: the step takes zl and zu to 0
    ws, it, _, _ = prepared(name, preset="filtersqp")
    it.zl, it.zu = np.ones(ws.model.n), np.ones(ws.model.n)
    radius = 1e-2
    d = QPSubproblem(ws, Options()).optimality_direction(it, radius)
    assert d.status == OPTIMAL
    tol = 1e-10
    pinned = ((d.dx <= -radius + tol) & (ws.bounds.lower - it.x < -radius)) | (
        (d.dx >= radius - tol) & (ws.bounds.upper - it.x > radius))
    assert np.any(pinned)
    assert np.all(it.zl[pinned] + d.dzl[pinned] == 0.0)
    assert np.all(it.zu[pinned] + d.dzu[pinned] == 0.0)


@pytest.mark.parametrize("preset, made", [("filtersqp", 1), ("ipopt", 2)])
def test_each_bound_set_is_made_once_per_solve(monkeypatch, preset, made):
    # the bounds of x, and under an interior subproblem those of the elastic
    # space (x, u+, u-) too, each with its finite masks, at the solve's start
    from modnlp.driver import solve

    original, made_now = Bounds.__init__, []

    def counted(self, lower, upper):
        made_now.append(self)
        original(self, lower, upper)

    monkeypatch.setattr(Bounds, "__init__", counted)
    result = solve(corpus_get("hs071"), preset_options(preset))
    assert result.status == "FeasibleKKT" and len(made_now) == made


def test_ipm_elastic_direction_curvature_is_base_hessian():
    ws, it, relaxation, _ = prepared("hs071", preset="ipopt")
    it.x = push_to_interior(it.x, ws.bounds, relaxation.subproblem.opts.interior_push)
    it.zl, it.zu = initial_bound_multipliers(ws.bounds)
    it.evals = EvaluationRecord(ws.model, it.x)
    for rho in (0.0, 0.37, 1.0):
        direction = relaxation.subproblem.feasibility_direction(it, rho, None)
        W = ws.model.eval_lagrangian_hessian(it.x, rho, it.y)
        assert direction.dwd == pytest.approx(float(direction.dx @ W @ direction.dx), rel=1e-12)


def test_l1_residuals_equal_the_component_loops():
    # the array expressions give the component loops' sums bit for bit, on
    # data with zero constraint values, infinite bounds and both bounds
    # active (a fixed variable)
    def sign_loop(c, y):
        total = 0.0
        for cj, yj in zip(c, y):
            if cj > 0.0:
                total += abs((yj + 1.0) * cj)
            elif cj < 0.0:
                total += abs((yj - 1.0) * cj)
            else:
                total += abs(yj * cj)
        return total

    def stationarity_loop(g, x, lower, upper):
        total = 0.0
        for gi, xi, lo, hi in zip(g, x, lower, upper):
            at_lower = np.isfinite(lo) and xi - lo <= 1e-5 * (1.0 + abs(lo))
            at_upper = np.isfinite(hi) and hi - xi <= 1e-5 * (1.0 + abs(hi))
            if at_lower and at_upper:
                continue
            if at_lower:
                total += max(-gi, 0.0)
            elif at_upper:
                total += max(gi, 0.0)
            else:
                total += abs(gi)
        return total

    rng = np.random.RandomState(17)
    for trial in range(200):
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        c = rng.randn(m) * 10.0 ** rng.uniform(-8.0, 3.0, m)
        c[rng.rand(m) < 0.3] = 0.0
        y = rng.randn(m) * 10.0 ** rng.uniform(-3.0, 3.0, m)
        assert l1_sign_residual(c, y) == sign_loop(c, y)
        lower = rng.randn(n) - 1.0
        upper = lower + rng.rand(n) * 3.0
        lower[rng.rand(n) < 0.3] = -INF
        upper[rng.rand(n) < 0.3] = INF
        x = np.clip(rng.randn(n), lower, upper)
        x = np.where(rng.rand(n) < 0.3, lower, np.where(rng.rand(n) < 0.3, upper, x))
        x = np.where(np.isfinite(x), x, 0.0)
        fixed = rng.rand(n) < 0.2
        upper[fixed] = lower[fixed] = np.where(np.isfinite(lower[fixed]), lower[fixed], 1.0)
        x[fixed] = lower[fixed]
        g = rng.randn(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        g[rng.rand(n) < 0.1] = 0.0
        assert projected_stationarity_l1(g, x, Bounds(lower, upper)) == \
            stationarity_loop(g, x, lower, upper)


def per_trial_acceptance(relaxation, iterate, trial, direction, alpha):
    """The acceptance decision as it was made before the iterate side was
    computed once per direction: everything recomputed at each trial. The
    oracle of acceptance_test."""
    from modnlp.globalization import infeasibility_armijo
    from modnlp.relaxation import FeasibilityRestoration

    if relaxation._is_zero_step(iterate, direction):
        return True
    current = relaxation.measures_from(iterate)
    trial_m = relaxation.measures_from(trial)
    models = relaxation.reduction_models(iterate, direction)
    strategy = relaxation.strategy
    if not isinstance(relaxation, FeasibilityRestoration) or relaxation.phase == OPTIMALITY:
        return strategy.check_acceptance(current, trial_m, models, alpha)
    if not relaxation.subproblem.is_interior:
        least = strategy.least_infeasibility(relaxation.reference)
        if relaxation._optimality_feasible and trial_m.eta < least:
            relaxation._exit_restoration(current)
            return strategy.check_acceptance(current, trial_m, models, alpha)
        return infeasibility_armijo(current, trial_m, models, alpha, strategy.sigma)
    accepted = infeasibility_armijo(current, trial_m, models, alpha, strategy.sigma) or (
        relaxation.subproblem.smoothed_infeasibility_armijo(
            iterate, trial, direction, alpha, strategy.sigma))
    if (accepted and strategy.admits(trial_m)
            and trial_m.eta <= relaxation.restoration_exit_factor * current.eta):
        relaxation._exit_restoration(current)
    return accepted


@pytest.mark.filterwarnings("ignore:feasibility_restoration does not steer")
def test_iterate_side_of_the_acceptance_test_once_per_direction(monkeypatch):
    # line searches under both relaxations and all three subproblems. Each
    # trial's decision, and the phase and filter it leaves, equal the
    # per-trial oracle's on a copy of the relaxation; inside a trial only
    # the trial's measures are computed. Under FR + QP + l1_merit on
    # hs014, restoration is left inside a trial that is rejected, and the
    # next trial of that search is decided in the optimality phase.
    import copy

    from modnlp.driver import solve
    from modnlp.relaxation import ConstraintRelaxationStrategy

    base = ConstraintRelaxationStrategy
    calls = {"measures_from": 0, "reduction_models": 0, "_is_zero_step": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(base, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(base, name, counted)

    seen = {"directions": 0, "trials": 0, "exits then optimality": 0}
    acceptance_test = base.acceptance_test

    def checked_test(self, iterate, direction):
        accepts = acceptance_test(self, iterate, direction)
        seen["directions"] += 1
        exited = [False]

        def checked(trial, alpha):
            twin = copy.copy(self)
            twin.strategy = copy.deepcopy(self.strategy)
            expected = per_trial_acceptance(twin, iterate, trial, direction, alpha)
            phase = getattr(self, "phase", None)
            before = dict(calls)
            accepted = accepts(trial, alpha)
            assert accepted == expected
            assert getattr(twin, "phase", None) == getattr(self, "phase", None)
            assert (getattr(twin.strategy, "entries", None)
                    == getattr(self.strategy, "entries", None))
            assert calls["reduction_models"] == before["reduction_models"]
            assert calls["_is_zero_step"] == before["_is_zero_step"]
            assert calls["measures_from"] - before["measures_from"] in (0, 1)  # 0: a zero step
            seen["trials"] += 1
            seen["exits then optimality"] += exited[0] and phase == OPTIMALITY
            exited[0] = phase == RESTORATION and self.phase == OPTIMALITY and not accepted
            return accepted

        return checked

    monkeypatch.setattr(base, "acceptance_test", checked_test)
    runs = [("byrd", "hs014"), ("byrd", "hs071"), ("ipopt", "hs071"), ("ipopt", "infeasible1")]
    for preset, name in runs:
        solve(corpus_get(name), preset_options(preset))
    for subproblem in ("QP", "LP"):
        solve(corpus_get("hs014"), replace(
            Options(), subproblem=subproblem, globalization_strategy="l1_merit",
            globalization_mechanism="LS"))
    assert seen["trials"] > 2 * seen["directions"] > 100
    assert seen["exits then optimality"] > 0


def test_acceptance_test_reads_the_phase_at_each_trial():
    # restoration with an active-set subproblem: the first trial beats the
    # least infeasibility the strategy remembers, returns to optimality and
    # is rejected there; the second, with eta above that, is decided in the
    # optimality phase (accepted by the strategy), not by the restoration
    # phase's infeasibility Armijo test (which it fails)
    from modnlp.globalization import GlobalizationStrategy, ProgressMeasures
    from modnlp.relaxation import FeasibilityRestoration
    from modnlp.subproblem import Direction

    class Scripted(GlobalizationStrategy):
        sigma = 0.1

        def __init__(self, decisions):
            self.decisions = list(decisions)

        def check_acceptance(self, current, trial, models, step):
            return self.decisions.pop(0)

        def least_infeasibility(self, reference):
            return 1.0

    def point(c):
        c = np.array([c])
        return Iterate(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                       Evaluations(0.0, c, np.zeros(1), np.ones((1, 1))))

    strategy = Scripted([False, True])
    relaxation = FeasibilityRestoration(None, QPSubproblem(None, Options()), strategy, Options())
    relaxation.phase = RESTORATION
    relaxation.reference = ProgressMeasures(eta=1.5, f=0.0)
    relaxation._optimality_feasible = True
    direction = Direction(np.array([-1.5]), np.zeros(1), np.zeros(1), np.zeros(1), OPTIMAL)
    accepts = relaxation.acceptance_test(point(1.5), direction)
    assert not accepts(point(0.5), 1.0) and relaxation.phase == OPTIMALITY
    assert accepts(point(2.0), 0.5) and not strategy.decisions


class TestStepBox:
    """Under the line search (an infinite radius) the LP takes the box
    min(10, max(1e-8, 2 ||dx||_inf)) of the last nonzero accepted step dx;
    the QP and the IPM take none."""

    @staticmethod
    def built(monkeypatch):
        """The (radius, QP) of each build_sqp_qp call the subproblems make."""
        import modnlp.relaxation as relaxation

        seen, original = [], relaxation.build_sqp_qp

        def spy(evals, hessian, x, rho, bounds, trust_radius, schedule):
            qp, masks = original(evals, hessian, x, rho, bounds, trust_radius, schedule)
            seen.append((trust_radius, qp))
            return qp, masks

        monkeypatch.setattr(relaxation, "build_sqp_qp", spy)
        return seen

    @pytest.mark.parametrize("last_step, box", [(INF, 10.0), (0.3, 0.6), (7.0, 10.0),
                                                (1e-12, 1e-8)])
    def test_lp_box_is_twice_the_last_step_clipped(self, monkeypatch, last_step, box):
        seen = self.built(monkeypatch)
        ws, it, _, _ = prepared("hs071", preset="filtersqp")
        assert it.last_step == INF  # no step yet: the first box is 10
        it.last_step = last_step
        lp = LPSubproblem(ws, Options())
        lp.optimality_direction(it, INF)
        lp.feasibility_direction(it, 0.5, INF)
        lp.optimality_direction(it, 0.25)  # a finite radius is the box as given
        assert [radius for radius, _ in seen] == [box, box, 0.25]

    def test_qp_under_the_line_search_is_unboxed_and_convex(self, monkeypatch):
        seen = self.built(monkeypatch)
        ws, it, _, _ = prepared("hs071", preset="filtersqp")
        assert np.linalg.eigvalsh(it.evals.lagrangian_hessian(1.0, it.y)).min() < 0.0
        it.last_step = 0.3
        QPSubproblem(ws, Options()).optimality_direction(it, INF)
        (radius, qp), = seen
        assert radius == INF
        assert np.array_equal(qp.d_lower, ws.bounds.lower - it.x)
        assert np.array_equal(qp.d_upper, ws.bounds.upper - it.x)
        assert np.all(np.linalg.eigvalsh(qp.W) > 0.0)

    def test_ipm_does_not_read_the_last_step(self):
        ws, it, relaxation, _ = prepared("hs071", preset="ipopt")
        it.x = push_to_interior(it.x, ws.bounds, relaxation.subproblem.opts.interior_push)
        it.zl, it.zu = initial_bound_multipliers(ws.bounds)
        it.evals = EvaluationRecord(ws.model, it.x)
        first = relaxation.subproblem.optimality_direction(it, INF)
        it.last_step = 1e-3
        again = relaxation.subproblem.optimality_direction(it, INF)
        assert np.array_equal(first.dx, again.dx) and np.array_equal(first.dy, again.dy)

    def test_a_zero_step_keeps_the_last_step(self, monkeypatch):
        # the outer loop sets each accepted iterate's last_step: the step
        # that led to it, or after a zero step the one before
        from modnlp import mechanism
        from modnlp.driver import solve

        original = mechanism.BacktrackingLineSearch.compute_acceptable_iterate
        seen = []

        def scripted(self, iterate):
            seen.append((iterate.x.copy(), iterate.last_step))
            if len(seen) == 2:  # a zero step
                return Iterate(iterate.x.copy(), iterate.y, iterate.zl, iterate.zu, iterate.evals)
            return original(self, iterate)

        monkeypatch.setattr(mechanism.BacktrackingLineSearch, "compute_acceptable_iterate",
                            scripted)
        solve(corpus_get("hs021"), Options(subproblem="LP", globalization_mechanism="LS",
                                           max_iterations=4))
        (x0, s0), (x1, s1), (x2, s2), (x3, s3) = seen
        assert s0 == INF
        assert s1 == np.abs(x1 - x0).max() > 0.0
        assert np.array_equal(x2, x1) and s2 == s1
        assert s3 == np.abs(x3 - x2).max() > 0.0


@pytest.mark.parametrize("relaxation_name, strategy, mechanism", [
    ("feasibility_restoration", "leyffer_filter_method", "TR"),
    ("l1_relaxation", "l1_merit", "LS")])
def test_an_lp_carries_no_hessian(monkeypatch, relaxation_name, strategy, mechanism):
    # every QP an LP solve hands the active-set solver, elastic or not,
    # takes its no-Hessian path: W is None, not a zero matrix
    import modnlp.relaxation as relaxation
    from modnlp.driver import solve

    hessians, original = [], relaxation.qp_solve

    def spy(qp, *args, **kwargs):
        hessians.append(qp.W)
        return original(qp, *args, **kwargs)

    monkeypatch.setattr(relaxation, "qp_solve", spy)
    solve(corpus_get("hs071"), Options(constraint_relaxation_strategy=relaxation_name,
                                       subproblem="LP", globalization_strategy=strategy,
                                       globalization_mechanism=mechanism))
    assert hessians and all(W is None for W in hessians)
