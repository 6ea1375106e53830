import numpy as np
import pytest

from modnlp.corpus import corpus_get
from modnlp.driver import (
    EVALUATION_ERROR,
    FEASIBLE_FJ,
    FEASIBLE_KKT,
    INFEASIBLE_STATIONARY,
    ITERATION_LIMIT,
    LOOSE_KKT,
    SMALL_TRUST_REGION,
    Options,
    Residuals,
    SolveResult,
    TerminationState,
    estimate_initial_multipliers,
    load_options_file,
    preprocess_initial_point,
    preset_options,
    solve,
    validate_options,
)
from modnlp.errors import (
    ConfigurationError,
    InfeasibleLinearConstraintsError,
    UnknownOptionError,
    UnknownPresetError,
)
from modnlp.model import Model, evaluate
from modnlp.reformulation import to_equality_form

INF = np.inf
STATUSES = (FEASIBLE_KKT, FEASIBLE_FJ, INFEASIBLE_STATIONARY, SMALL_TRUST_REGION, LOOSE_KKT,
            ITERATION_LIMIT, EVALUATION_ERROR)


def linear_model(A, b, lower=None, upper=None, x0=None):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    return Model(
        name="test",
        n=n,
        m=m,
        variable_lower=np.full(n, -INF) if lower is None else np.asarray(lower, float),
        variable_upper=np.full(n, INF) if upper is None else np.asarray(upper, float),
        constraint_lower=np.zeros(m),
        constraint_upper=np.zeros(m),
        eval_objective=lambda x: 0.0,
        eval_constraints=lambda x: A @ x - b,
        eval_objective_gradient=lambda x: np.zeros(n),
        eval_constraint_jacobian=lambda x: A.copy(),
        eval_lagrangian_hessian=lambda x, rho, y: np.zeros((n, n)),
        initial_point=np.zeros(n) if x0 is None else np.asarray(x0, float),
        linear_rows=tuple(range(m)),
    )


class TestPreprocessing:
    def test_projection_onto_simplex_slice(self):
        model = linear_model([[1.0, 1.0]], [2.0], lower=[0.0, 0.0])
        x = preprocess_initial_point(model, np.zeros(2))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-9)

    def test_feasible_point_unchanged(self):
        model = linear_model([[1.0, 1.0]], [2.0], lower=[0.0, 0.0])
        x = preprocess_initial_point(model, np.array([0.5, 1.5]))
        np.testing.assert_allclose(x, [0.5, 1.5], atol=1e-9)

    def test_inconsistent_linear_rows(self):
        model = linear_model([[1.0], [1.0]], [1.0, 2.0])
        with pytest.raises(InfeasibleLinearConstraintsError):
            preprocess_initial_point(model, np.zeros(1))


class TestMultiplierEstimate:
    def test_exact_stationarity(self):
        # grad f = (1, 0), one constraint with gradient (1, 0): y = 1
        model = linear_model([[1.0, 0.0]], [0.0])
        object.__setattr__(model, "eval_objective_gradient", lambda x: np.array([1.0, 0.0]))
        y = estimate_initial_multipliers(model, np.zeros(2), np.zeros(2), y_max=1e3)
        np.testing.assert_allclose(y, [1.0], atol=1e-10)

    def test_threshold_discards(self):
        model = linear_model([[1e-4, 0.0]], [0.0])
        object.__setattr__(model, "eval_objective_gradient", lambda x: np.array([1.0, 0.0]))
        y = estimate_initial_multipliers(model, np.zeros(2), np.zeros(2), y_max=10.0)
        np.testing.assert_allclose(y, [0.0])

    def test_no_constraints(self):
        model = linear_model(np.zeros((0, 2)), np.zeros(0))
        y = estimate_initial_multipliers(model, np.zeros(2), np.zeros(2), y_max=10.0)
        assert y.size == 0


class TestTermination:
    def residuals(self, stat=0.0, stat0=0.0, feas=0.0, comp=0.0, sign=0.0):
        return Residuals(stat, stat0, feas, comp, sign)

    def test_feasible_kkt(self):
        state = TerminationState(epsilon=1e-6)
        assert state.check(self.residuals(), rho=1.0, steered_to_zero=False) == "FeasibleKKT"

    def test_feasible_fj(self):
        state = TerminationState(epsilon=1e-6)
        res = self.residuals(stat=1.0, stat0=0.0)
        assert state.check(res, rho=1e-15, steered_to_zero=True) == "FeasibleFJ"

    def test_infeasible_stationary(self):
        state = TerminationState(epsilon=1e-6)
        res = self.residuals(stat=5.0, stat0=0.0, feas=1.0, sign=1e-6)
        assert state.check(res, rho=0.0, steered_to_zero=False) == "InfeasibleStationary"

    def test_loose_window(self):
        state = TerminationState(epsilon=1e-6, loose_factor=100.0, loose_window=15)
        res = self.residuals(stat=5e-5, stat0=1.0, feas=5e-5, comp=0.0, sign=1.0)
        for k in range(14):
            assert state.check(res, 1.0, False) is None
        assert state.check(res, 1.0, False) == "LooseToleranceKKT"

    def test_loose_window_resets(self):
        state = TerminationState(epsilon=1e-6, loose_window=15)
        good = self.residuals(stat=5e-5)
        bad = self.residuals(stat=1.0)
        for _ in range(10):
            state.check(good, 1.0, False)
        state.check(bad, 1.0, False)
        assert state.consecutive_loose == 0


class TestOptions:
    def test_presets(self):
        fs = preset_options("filtersqp")
        assert (fs.constraint_relaxation_strategy, fs.subproblem,
                fs.globalization_strategy, fs.globalization_mechanism) == (
            "feasibility_restoration", "QP", "leyffer_filter_method", "TR")
        ip = preset_options("ipopt")
        assert (ip.constraint_relaxation_strategy, ip.subproblem,
                ip.globalization_strategy, ip.globalization_mechanism) == (
            "feasibility_restoration", "primal_dual_IPM", "waechter_filter_method", "LS")
        by = preset_options("byrd")
        assert (by.constraint_relaxation_strategy, by.subproblem,
                by.globalization_strategy, by.globalization_mechanism) == (
            "l1_relaxation", "QP", "l1_merit", "LS")

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError):
            preset_options("unknown")

    def test_preset_override_keeps_rest(self):
        opts = preset_options("byrd").updated({"globalization_mechanism": "TR"})
        assert opts.globalization_mechanism == "TR"
        assert opts.constraint_relaxation_strategy == "l1_relaxation"
        assert opts.globalization_strategy == "l1_merit"

    def test_unknown_option_lists_near_misses(self):
        with pytest.raises(UnknownOptionError) as err:
            Options().updated({"tolerence": "1e-8"})
        assert "tolerance" in str(err.value)

    def test_type_coercion(self):
        opts = Options().updated(
            {"tolerance": "1e-8", "max_iterations": "50", "scale_functions": "false"}
        )
        assert opts.tolerance == 1e-8
        assert opts.max_iterations == 50
        assert opts.scale_functions is False

    def test_option_file(self, tmp_path):
        path = tmp_path / "opts.txt"
        path.write_text("# comment line\ntolerance 1e-7\nmax_iterations 123  # trailing\n")
        mapping = load_options_file(str(path))
        assert mapping == {"tolerance": "1e-7", "max_iterations": "123"}

    def test_malformed_option_file(self, tmp_path):
        path = tmp_path / "opts.txt"
        path.write_text("justakey\n")
        with pytest.raises(ConfigurationError):
            load_options_file(str(path))

    def test_unparsable_value(self):
        with pytest.raises(ConfigurationError, match="tolerance"):
            Options().updated({"tolerance": "abc"})

    @pytest.mark.parametrize("key, value", [
        ("backtrack_factor", 2.0), ("backtrack_factor", 0.0), ("alpha_min", 1e-20),
        ("radius_initial", -1.0), ("radius_increase_factor", 1.0),
        ("radius_decrease_factor", 1.0), ("filter_capacity", 0),
        ("tolerance", 0.0), ("max_iterations", 0), ("mu_initial", 0.0),
        ("kappa_epsilon", -1.0), ("kappa_mu", 1.0), ("kappa_mu", 0.0),
        ("theta_mu", 1.0), ("theta_mu", 2.0), ("tau_min", 1.0), ("tau_min", 0.0),
    ])
    def test_out_of_range_value(self, key, value):
        opts = Options().updated({key: value})
        with pytest.raises(ConfigurationError, match=key):
            validate_options(opts)
        with pytest.raises(ConfigurationError, match=key):
            solve(corpus_get("booth"), opts)

    def test_prohibited_combination(self):
        opts = Options(subproblem="primal_dual_IPM", globalization_mechanism="TR")
        with pytest.raises(ConfigurationError):
            validate_options(opts)

    def test_warned_combination(self):
        opts = Options(
            constraint_relaxation_strategy="feasibility_restoration",
            globalization_strategy="l1_merit",
            globalization_mechanism="LS",
        )
        with pytest.warns(UserWarning):
            validate_options(opts)


class TestSolve:
    def test_hs028_analytic_kkt(self):
        # f = (x1+x2)^2 + (x2+x3)^2 with x1 + 2x2 + 3x3 = 1 has its minimum 0
        # at points where both squared terms vanish
        result = solve(corpus_get("hs028"), preset_options("filtersqp"))
        assert result.status == "FeasibleKKT"
        assert result.objective_value == pytest.approx(0.0, abs=1e-10)
        x = result.x
        assert x[0] + 2 * x[1] + 3 * x[2] == pytest.approx(1.0, abs=1e-8)
        assert x[0] + x[1] == pytest.approx(0.0, abs=1e-6)

    def test_evaluation_error_at_initial_point(self):
        model = corpus_get("hs007")
        from dataclasses import replace

        broken = replace(model, initial_point=np.array([np.nan, 1.0]))
        result = solve(broken, preset_options("filtersqp"))
        assert result.status == "EvaluationError"
        assert result.iterations == 0

    def test_inconsistent_linear_rows_terminate_with_certificate(self):
        model = linear_model([[1.0], [1.0]], [1.0, 2.0])
        result = solve(model, preset_options("filtersqp"))
        assert result.status == "InfeasibleStationary"
        assert "inconsistent" in result.message

    def test_determinism(self):
        runs = []
        for _ in range(2):
            seen = []
            result = solve(
                corpus_get("hs071"), preset_options("ipopt"),
                log=lambda rec: seen.append((rec["iteration"], rec["eta"], rec["objective"])),
            )
            runs.append((result.status, result.objective_value, tuple(seen)))
        assert runs[0] == runs[1]

    def test_objective_counter_matches_wrapper(self):
        model = corpus_get("hs035")
        result = solve(model, preset_options("byrd"))
        # counter equals reported metric by construction; sanity: small count
        assert 0 < result.objective_evaluations < 50

    def test_scaling_preserves_argmin(self):
        from dataclasses import replace

        for name in ("hs063", "hs071", "hs035"):
            base = preset_options("filtersqp")
            with_scaling = solve(corpus_get(name), replace(base, scale_functions=True))
            without = solve(corpus_get(name), replace(base, scale_functions=False))
            assert with_scaling.status == without.status == "FeasibleKKT"
            np.testing.assert_allclose(with_scaling.x, without.x, atol=1e-5)

    def test_rho_reported(self):
        restoration = solve(corpus_get("hs028"), preset_options("filtersqp"))
        assert restoration.rho == 1.0
        infeasible = solve(corpus_get("infeasible1"), preset_options("filtersqp"))
        assert infeasible.rho == 0.0

    def test_kkt_cross_check_with_error_measure(self):
        from modnlp.relaxation import error_measure
        from modnlp.reformulation import scale_functions as scale_op

        model = corpus_get("hs063")
        result = solve(model, preset_options("byrd"))
        assert result.status == "FeasibleKKT"
        working = to_equality_form(model)
        working, _ = scale_op(working, working.initial_point, 100.0)
        # rebuild the full working-space point (slack = constraint value)
        x_full = np.concatenate([result.x, np.zeros(working.n - model.n)])
        ev = evaluate(working, x_full)
        x_full[model.n:] = ev.c[: working.n - model.n] * 0  # no slacks on hs063
        e = error_measure(ev, x_full, result.y, result.rho,
                          working.variable_lower, working.variable_upper)
        assert e <= 10 * 1e-6

    def test_qp_kkt_violation_ends_in_a_status(self):
        # the LP's active-set solve returns an Optimal that fails its KKT
        # check; the typed error becomes a status instead of a crash
        opts = Options(
            constraint_relaxation_strategy="feasibility_restoration", subproblem="LP",
            globalization_strategy="leyffer_filter_method", globalization_mechanism="TR",
        )
        result = solve(corpus_get("genhs28"), opts)
        assert isinstance(result, SolveResult)
        assert result.status in STATUSES

    def test_non_finite_kkt_matrix_ends_in_a_status(self, monkeypatch):
        # mu = 0 (let past the range check) puts NaN into the barrier KKT
        # matrix; the factorization's typed error becomes a status
        monkeypatch.setattr("modnlp.driver.validate_options", lambda opts: opts)
        opts = preset_options("ipopt").updated({"mu_initial": 0.0})
        with np.errstate(all="ignore"):
            result = solve(corpus_get("hs071"), opts)
        assert result.status == ITERATION_LIMIT
        assert "non-finite" in result.message
