"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import modnlp.mechanism
from modnlp.corpus import corpus_get, corpus_names, is_right
from modnlp.driver import SUCCESS_STATUSES, Options, preset_options, solve, validate_options
from modnlp.errors import ConfigurationError
from modnlp.globalization import Filter
from modnlp.linalg import ldlt_factorize, qp_solve
from modnlp.model import EvaluationRecord, check_derivatives, evaluate
from modnlp.reformulation import scale_functions, to_equality_form
from modnlp.relaxation import (
    L1Relaxation,
    error_measure,
    l1_sign_residual,
)
from modnlp.state import Bounds

EPSILON = 1e-6
PRESETS = ("filtersqp", "ipopt", "byrd")


def report(number, passed, text):
    print("ACCEPTANCE %2d: %s - %s" % (number, "PASS" if passed else "FAIL", text))
    assert passed, text


def run_corpus(opts):
    results = {}
    for name in corpus_names():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results[name] = solve(corpus_get(name), opts)
    return results


@pytest.fixture(scope="module")
def preset_results():
    outcomes = {}
    start = time.perf_counter()
    for preset in PRESETS:
        outcomes[preset] = run_corpus(preset_options(preset))
    outcomes["__elapsed__"] = time.perf_counter() - start
    return outcomes


def test_criterion_1_corpus_convergence(preset_results):
    failures = []
    for preset in PRESETS:
        for name, result in preset_results[preset].items():
            if not is_right(name, result) or result.iterations > 1000:
                failures.append((preset, name, result.status))
    elapsed = preset_results["__elapsed__"]
    ok = not failures and elapsed < 60.0
    report(
        1, ok,
        "all presets give right answers on the corpus (failures=%s, elapsed=%.1fs < 60s)"
        % (failures, elapsed),
    )


def test_criterion_2_eval_count_calibration(preset_results):
    # booth-class: 2 variables, consistent linear equalities, f = 0
    booth_class = []
    for name in corpus_names():
        model = corpus_get(name)
        all_linear_eq = (
            model.m > 0
            and len(model.linear_rows) == model.m
            and np.all(model.constraint_lower == model.constraint_upper)
        )
        zero_objective = model.eval_objective(model.initial_point) == 0.0 and np.all(
            model.eval_objective_gradient(model.initial_point + 1.234) == 0.0
        )
        if model.n == 2 and all_linear_eq and zero_objective:
            booth_class.append(name)
    assert "booth" in booth_class
    bad = []
    for name in booth_class:
        fs = preset_results["filtersqp"][name].objective_evaluations
        by = preset_results["byrd"][name].objective_evaluations
        if fs > 3 or by > 4:
            bad.append((name, fs, by))
    report(
        2, not bad,
        "booth-class problems %s: filtersqp <= 3 and byrd <= 4 objective evaluations (%s)"
        % (booth_class, bad),
    )


def test_criterion_3_novel_combination(preset_results):
    tr_opts = replace(preset_options("byrd"), globalization_mechanism="TR")
    tr_results = run_corpus(tr_opts)

    def right_answers(results):
        return sum(is_right(name, result) for name, result in results.items())

    ls_rate = right_answers(preset_results["byrd"])
    tr_rate = right_answers(tr_results)
    report(
        3, tr_rate >= ls_rate,
        "byrd + TR right on %d/%d vs byrd %d/%d" % (tr_rate, len(corpus_names()),
                                                  ls_rate, len(corpus_names())),
    )


def test_criterion_4_qp_oracle():
    import sys, os
    sys.path.insert(0, os.path.dirname(__file__))
    from test_linalg import enumerate_qp_oracle, random_convex_qp

    rng = np.random.RandomState(42)
    worst_obj = worst_sol = 0.0
    for _ in range(200):
        qp = random_convex_qp(rng)
        expected_obj, expected_d = enumerate_qp_oracle(qp)
        sol = qp_solve(qp)
        assert sol.status == "Optimal" and expected_d is not None
        worst_obj = max(worst_obj, abs(sol.objective_value - expected_obj) / (1 + abs(expected_obj)))
        worst_sol = max(worst_sol, float(np.max(np.abs(sol.d - expected_d))))
    ok = worst_obj <= 1e-8 and worst_sol <= 1e-6
    report(4, ok, "200 random convex QPs vs enumeration oracle "
                  "(max objective err %.2e <= 1e-8, max solution err %.2e <= 1e-6)"
                  % (worst_obj, worst_sol))


def test_criterion_5_inertia_oracle():
    import sys, os
    sys.path.insert(0, os.path.dirname(__file__))
    from test_linalg import jacobi_eigenvalues, sign_counts

    rng = np.random.RandomState(123)
    mismatches = 0
    for trial in range(200):
        n = rng.randint(1, 13)
        M = rng.randn(n, n)
        M = M + M.T
        if trial % 4 == 0:
            r = rng.randint(0, n)
            B = rng.randn(n, r)
            M = B @ B.T - (B[:, : r // 2] @ B[:, : r // 2].T if r else 0.0)
            M = 0.5 * (M + M.T)
        fact = ldlt_factorize(M)
        if fact.inertia != sign_counts(jacobi_eigenvalues(M), fact.zero_tol):
            mismatches += 1
    report(5, mismatches == 0,
           "eigvalsh inertia equals Jacobi sign counts on 200 matrices "
           "(%d mismatches)" % mismatches)


def test_criterion_6_filter_properties():
    rng = np.random.RandomState(2024)
    violations = 0
    for _ in range(1000):
        flt = Filter(replace(Options(), filter_beta=0.999, filter_gamma=1e-3))
        for _ in range(rng.randint(1, 20)):
            flt.add(float(rng.rand() * 2), float(rng.randn()))
        entries = flt.entries
        for i, (ea, pa) in enumerate(entries):
            for j, (eb, pb) in enumerate(entries):
                if i != j and ea <= eb and pa <= pb and (ea < eb or pa < pb):
                    violations += 1
        probe = (float(rng.rand() * 2), float(rng.randn()))
        if flt.acceptable(*probe) and entries:
            shrunk = Filter(replace(Options(), filter_beta=0.999, filter_gamma=1e-3))
            shrunk.eta_max = flt.eta_max
            keep = rng.rand(len(entries)) < 0.5
            shrunk.entries = [e for e, k in zip(entries, keep) if k]
            if not shrunk.acceptable(*probe):
                violations += 1
    report(6, violations == 0,
           "1000 random filter sequences preserve dominance and envelope "
           "monotonicity (%d violations)" % violations)


def test_criterion_7_barrier_invariants(monkeypatch):
    # instrument the acceptance path of an ipopt run and check positivity and
    # the fraction-to-boundary inequalities at every accepted trial
    from modnlp.relaxation import FeasibilityRestoration

    records = []
    original = FeasibilityRestoration.acceptance_test

    def spy(self, iterate, direction):
        accepts = original(self, iterate, direction)

        def spied(trial, alpha):
            accepted = accepts(trial, alpha)
            if accepted and self.subproblem.is_interior:
                tau = max(self.subproblem.opts.tau_min, 1.0 - self.subproblem.mu)
                records.append((iterate, trial, direction, alpha, tau, self.ws))
            return accepted

        return spied

    monkeypatch.setattr(FeasibilityRestoration, "acceptance_test", spy)
    for name in ("hs035", "hs071", "hs021", "boxqp1"):
        solve(corpus_get(name), preset_options("ipopt"))

    assert records
    violations = 0
    for iterate, trial, direction, alpha, tau, ws in records:
        lo, hi = ws.bounds.lower, ws.bounds.upper
        finite_lo, finite_hi = np.isfinite(lo), np.isfinite(hi)
        if np.any(trial.x[finite_lo] <= lo[finite_lo]) or np.any(
            trial.x[finite_hi] >= hi[finite_hi]
        ):
            violations += 1
        if np.any(trial.zl[finite_lo] <= 0.0) or np.any(trial.zu[finite_hi] <= 0.0):
            violations += 1
        # Eq. (8): x + alpha dx >= l + (1 - tau)(x - l), dual side likewise
        gap = iterate.x[finite_lo] - lo[finite_lo]
        lhs = trial.x[finite_lo] - lo[finite_lo]
        if np.any(lhs < (1.0 - tau) * gap - 1e-12):
            violations += 1
        zl_new = iterate.zl[finite_lo] + direction.dual_scale * direction.dzl[finite_lo]
        if np.any(zl_new < (1.0 - tau) * iterate.zl[finite_lo] - 1e-12):
            violations += 1

    # dz recovery must reproduce the linearized complementarity row
    from modnlp.linalg import RegularizationSchedule
    from modnlp.model import Evaluations
    from modnlp.subproblem import ipm_solve_step

    rng = np.random.RandomState(7)
    worst = 0.0
    for _ in range(20):
        n, m = 4, 2
        x = 0.2 + rng.rand(n)
        zl = 0.2 + rng.rand(n)
        W = rng.randn(n, n)
        W = W + W.T
        ev = Evaluations(0.0, rng.randn(m), rng.randn(n), rng.randn(m, n), W)
        mu = 0.03
        d = ipm_solve_step(ev, x, rng.randn(m), zl, np.zeros(n),
                           Bounds(np.zeros(n), np.full(n, np.inf)),
                           mu, RegularizationSchedule(), Options().tau_min)
        resid = x * (zl + d.dzl) + zl * d.dx - mu
        worst = max(worst, float(np.max(np.abs(resid))))
    ok = violations == 0 and worst <= 1e-10
    report(7, ok,
           "%d accepted IPM iterates keep strict interiority and Eq. (8); "
           "complementarity-row recovery residual %.2e <= 1e-10 "
           "(%d violations)" % (len(records), worst, violations))


def test_criterion_8_derivative_checks():
    worst = 0.0
    for name in corpus_names():
        model = corpus_get(name)
        rng = np.random.RandomState(abs(hash(name)) % 2**32)
        points = [model.initial_point] + [
            np.clip(rng.uniform(-2, 2, model.n), model.variable_lower, model.variable_upper)
            for _ in range(10)
        ]
        for x in points:
            rep = check_derivatives(model, x)
            worst = max(worst, rep.gradient_error, rep.jacobian_error, rep.hessian_error)
    report(8, worst <= 1e-5,
           "finite-difference verification over the corpus (max relative error "
           "%.2e <= 1e-5)" % worst)


def test_criterion_9_steering_postconditions():
    # re-assert the three steering conditions at every direction returned
    # during byrd-preset corpus runs
    violations = []
    original = L1Relaxation.compute_direction

    def spy(self, iterate, trust_radius=None):
        direction = original(self, iterate, trust_radius)
        info = direction.info
        if info.get("steered") and "skipped" not in info:
            c = np.asarray(iterate.evals.c, dtype=float)
            jac = np.asarray(iterate.evals.jac_c, dtype=float)
            l0 = float(np.sum(np.abs(c)))
            feas_tol = 1e-9 * (1.0 + l0)
            l_d = float(np.abs(c + jac @ direction.dx).sum())
            if info["l_bar"] <= feas_tol:
                cond1 = l_d <= feas_tol * 10
            else:
                cond1 = l0 - l_d >= 0.1 * (l0 - info["l_bar"]) - 1e-10 * (1 + l0)
            dm = self.reduction_models(iterate, direction, self.rho).merit_reduction(1.0)
            cond2 = dm >= 0.1 * info["dm0_bar"] - 1e-10 * (1 + abs(info["dm0_bar"]))
            cond3 = self.rho <= info["cap"] * (1 + 1e-12) or info["cap"] == np.inf
            if not (cond1 and cond2 and cond3):
                violations.append((iterate.x.copy(), info, l_d, dm))
        return direction

    L1Relaxation.compute_direction = spy
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name in corpus_names():
                solve(corpus_get(name), preset_options("byrd"))
    finally:
        L1Relaxation.compute_direction = original
    report(9, not violations,
           "steering conditions re-asserted across byrd corpus runs "
           "(%d violations)" % len(violations))


def test_criterion_10_termination_cross_check(preset_results):
    bad = []
    for preset in PRESETS:
        for name, result in preset_results[preset].items():
            model = corpus_get(name)
            working, factors, _ = scale_functions(
                to_equality_form(EvaluationRecord(model, model.initial_point)), 100.0)
            if result.status == "FeasibleKKT":
                x_full = _lift(working, model, result.x)
                ev = evaluate(working, x_full)
                e = error_measure(ev, x_full, result.y, result.rho,
                                  Bounds(working.variable_lower, working.variable_upper))
                if e > 10 * EPSILON:
                    bad.append((preset, name, "E=%.2e" % e))
            elif result.status == "InfeasibleStationary" and result.iterations > 0:
                x_full = _lift(working, model, result.x)
                ev = evaluate(working, x_full)
                eta = float(np.max(np.abs(ev.c)))
                sign = l1_sign_residual(ev.c, result.y)
                if eta <= EPSILON or sign > 10 * EPSILON:
                    bad.append((preset, name, "eta=%.2e sign=%.2e" % (eta, sign)))
    report(10, not bad,
           "independent error measure at every FeasibleKKT/InfeasibleStationary "
           "result (%s)" % bad)


def _lift(working, model, x_original):
    """Rebuild the working-space point: original variables plus slacks set to
    the (clipped) constraint values."""
    x_full = working.initial_point.copy()
    x_full[: model.n] = x_original
    raw = np.asarray(model.eval_constraints(x_original), dtype=float)
    k = model.n
    for j in range(model.m):
        lo, hi = model.constraint_lower[j], model.constraint_upper[j]
        if lo < hi:
            x_full[k] = np.clip(raw[j], lo, hi)
            k += 1
    return x_full


def test_criterion_11_prohibited_and_warned_combinations():
    with pytest.raises(ConfigurationError):
        validate_options(Options(subproblem="primal_dual_IPM", globalization_mechanism="TR"))
    warned = Options(
        constraint_relaxation_strategy="feasibility_restoration",
        globalization_strategy="l1_merit",
        globalization_mechanism="LS",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = solve(corpus_get("hs028"), warned)
    relevant = [w for w in caught if "merit" in str(w.message)]
    ok = len(relevant) == 1 and result.status in SUCCESS_STATUSES
    report(11, ok,
           "IPM+TR rejected at configuration; restoration + l1 merit warns "
           "exactly once (%d warnings) and still solves (%s)"
           % (len(relevant), result.status))
