from dataclasses import fields, replace

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
    MECHANISMS,
    PARTS,
    PRESETS,
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
    InconsistentBoundsError,
    InfeasibleLinearConstraintsError,
    InnerIterationLimitError,
    ModNLPError,
    NonFiniteEvaluationError,
    QPFailureError,
    RegularizationFailedError,
    SingularMatrixError,
    StepTooSmallError,
    TinyRadiusError,
    UnknownOptionError,
    UnknownPresetError,
)
from modnlp.globalization import FilterMethod
from modnlp.model import EvaluationCounts, EvaluationRecord, Model, evaluate, instrument
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
        x = preprocess_initial_point(EvaluationRecord(model, np.zeros(2))).x
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-9)

    def test_feasible_point_unchanged(self):
        model = linear_model([[1.0, 1.0]], [2.0], lower=[0.0, 0.0])
        x = preprocess_initial_point(EvaluationRecord(model, np.array([0.5, 1.5]))).x
        np.testing.assert_allclose(x, [0.5, 1.5], atol=1e-9)

    def test_inconsistent_linear_rows(self):
        model = linear_model([[1.0], [1.0]], [1.0, 2.0])
        with pytest.raises(InfeasibleLinearConstraintsError):
            preprocess_initial_point(EvaluationRecord(model, np.zeros(1)))

    def test_no_linear_rows_clips_without_a_qp(self, monkeypatch):
        # without linear rows the projection onto the bounds is the clipped x0
        import modnlp.driver

        def no_qp(*args, **kwargs):
            raise AssertionError("qp_solve called")

        monkeypatch.setattr(modnlp.driver, "qp_solve", no_qp)
        model = replace(linear_model([[1.0, 1.0]], [2.0], lower=[0.0, -1.0], upper=[1.0, INF]),
                        linear_rows=())
        x = preprocess_initial_point(EvaluationRecord(model, np.array([3.0, -5.0]))).x
        assert x.tolist() == [1.0, -1.0]


class TestMultiplierEstimate:
    def test_exact_stationarity(self):
        # grad f = (1, 0), one constraint with gradient (1, 0): y = 1
        model = linear_model([[1.0, 0.0]], [0.0])
        object.__setattr__(model, "eval_objective_gradient", lambda x: np.array([1.0, 0.0]))
        start = EvaluationRecord(model, np.zeros(2))
        y = estimate_initial_multipliers(start, np.zeros(2), y_max=1e3)
        np.testing.assert_allclose(y, [1.0], atol=1e-10)

    def test_threshold_discards(self):
        model = linear_model([[1e-4, 0.0]], [0.0])
        object.__setattr__(model, "eval_objective_gradient", lambda x: np.array([1.0, 0.0]))
        start = EvaluationRecord(model, np.zeros(2))
        y = estimate_initial_multipliers(start, np.zeros(2), y_max=10.0)
        np.testing.assert_allclose(y, [0.0])

    def test_no_constraints(self):
        model = linear_model(np.zeros((0, 2)), np.zeros(0))
        start = EvaluationRecord(model, np.zeros(2))
        y = estimate_initial_multipliers(start, np.zeros(2), y_max=10.0)
        assert y.size == 0


class TestTermination:
    def residuals(self, stat=0.0, stat0=0.0, feas=0.0, comp=0.0, sign=0.0):
        return Residuals(stat, stat0, feas, comp, sign)

    def test_feasible_kkt(self):
        state = TerminationState(replace(Options(), tolerance=1e-6))
        assert state.check(self.residuals(), rho=1.0, steered_to_zero=False) == "FeasibleKKT"

    def test_feasible_fj(self):
        state = TerminationState(replace(Options(), tolerance=1e-6))
        res = self.residuals(stat=1.0, stat0=0.0)
        assert state.check(res, rho=1e-15, steered_to_zero=True) == "FeasibleFJ"

    def test_infeasible_stationary(self):
        state = TerminationState(replace(Options(), tolerance=1e-6))
        res = self.residuals(stat=5.0, stat0=0.0, feas=1.0, sign=1e-6)
        assert state.check(res, rho=0.0, steered_to_zero=False) == "InfeasibleStationary"

    def test_loose_window(self):
        state = TerminationState(replace(
            Options(), tolerance=1e-6, loose_tolerance_factor=100.0, loose_tolerance_window=15))
        res = self.residuals(stat=5e-5, stat0=1.0, feas=5e-5, comp=0.0, sign=1.0)
        for k in range(14):
            assert state.check(res, 1.0, False) is None
        assert state.check(res, 1.0, False) == "LooseToleranceKKT"

    def test_loose_window_resets(self):
        state = TerminationState(replace(Options(), tolerance=1e-6, loose_tolerance_window=15))
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
        opts = Options().updated({"tolerance": "1e-8", "max_iterations": "50"})
        assert opts.tolerance == 1e-8
        assert opts.max_iterations == 50

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
        ("filter_sigma", 0.0), ("filter_sigma", 1.0), ("filter_beta", 1.0),
        ("filter_gamma", 0.0), ("filter_delta", 0.0), ("armijo_sigma", 1.0),
        ("restoration_exit_factor", 0.0), ("restoration_exit_factor", 1.5),
        ("steering_epsilon1", 0.0), ("steering_epsilon2", 1.0),
        ("rho_initial", 0.0), ("rho_initial", np.inf), ("rho_decrease_factor", 1.0),
        ("rho_decrease_factor", 0.0), ("rho_min", 0.0), ("y_max", -1.0), ("s_max", 0.0),
        ("multiplier_scaling_cap", 0.0), ("filter_beta", np.nan),
        ("loose_tolerance_factor", 0.5), ("loose_tolerance_window", 0),
        ("theta_min_factor", 0.0), ("eta_max_factor", 0.0), ("eta_max_factor", -1.0),
        ("interior_push", 0.0), ("interior_push", -1.0), ("max_inner", 0),
        ("radius_min", -1.0), ("radius_max", 0.0), ("radius_max", -1.0),
        ("activity_tolerance_rel", 1.0), ("activity_tolerance_rel", -0.1),
    ])
    def test_out_of_range_value(self, key, value):
        opts = Options().updated({key: value})
        with pytest.raises(ConfigurationError, match=key):
            validate_options(opts)
        with pytest.raises(ConfigurationError, match=key):
            solve(corpus_get("booth"), opts)

    @pytest.mark.parametrize("key", list(PARTS))
    def test_unknown_part_value(self, key):
        opts = Options().updated({key: "bogus"})
        with pytest.raises(ConfigurationError, match="unknown %s 'bogus'" % key):
            validate_options(opts)
        with pytest.raises(ConfigurationError, match="unknown %s 'bogus'" % key):
            solve(corpus_get("booth"), opts)

    def test_unhashable_part_value_is_refused(self):
        # used to raise TypeError (unhashable list) out of validate_options
        with pytest.raises(ConfigurationError, match=r"unknown subproblem \['QP'\]"):
            validate_options(replace(Options(), subproblem=["QP"]))

    def test_presets_name_every_part(self):
        # a preset does not inherit a part from the Options defaults
        for overrides in PRESETS.values():
            assert all(overrides[key] in table for key, table in PARTS.items())

    def test_every_numeric_option_has_a_range(self):
        numeric = {f.name for f in fields(Options) if f.type in ("int", "float")}
        assert {f.name for f in fields(Options) if "interval" in f.metadata} == numeric

    def test_non_finite_value_is_refused_where_inf_means_nothing(self):
        # +inf lies beyond every interval open at inf; only the options that
        # declare what inf means are closed there, and each solves with it
        reals = [f for f in fields(Options) if f.type == "float"]
        means_inf = {f.name for f in reals if f.metadata["inf"]}
        assert {f.name for f in reals if f.metadata["interval"].endswith(", inf]")} == means_inf
        assert len(means_inf) == 5
        for key in (f.name for f in reals):
            for value in (np.inf, -np.inf, np.nan):
                opts = Options().updated({key: value})
                if key in means_inf and value == np.inf:
                    continue
                with pytest.raises(ConfigurationError, match="option %s must be" % key):
                    validate_options(opts)
        for key in means_inf:
            for preset in ("filtersqp", "ipopt", "byrd"):
                opts = validate_options(preset_options(preset).updated({key: "inf"}))
                assert solve(corpus_get("hs071"), opts).status in STATUSES
        # an int option given a float inf (not through the parser) is refused too
        with pytest.raises(ConfigurationError, match="max_iterations must be an integer"):
            validate_options(replace(Options(), max_iterations=np.inf))

    @pytest.mark.parametrize("key, value", [
        ("tolerance", "1e-6"), ("tolerance", None), ("max_iterations", 2.5),
        ("max_iterations", True), ("max_inner", 50.0), ("filter_capacity", 3.7),
    ])
    def test_wrongly_typed_value_is_refused(self, key, value):
        # a string or None used to raise TypeError out of validate_options;
        # a float or a bool for a count passed it, and a float raised
        # TypeError out of solve() (max_iterations = 2.5 after 4 callback calls)
        opts = replace(Options(), **{key: value})
        kind = "an integer" if isinstance(getattr(Options(), key), int) else "a number"
        with pytest.raises(ConfigurationError, match="option %s must be %s" % (key, kind)):
            validate_options(opts)
        counted, counts = instrument(corpus_get("hs071"))
        with pytest.raises(ConfigurationError, match=key):
            solve(counted, opts)
        assert counts == EvaluationCounts()

    def test_updated_does_not_truncate(self):
        # a non-string value used to pass through int(): 2.5 became 2
        opts = Options().updated({"max_iterations": 2.5})
        assert opts.max_iterations == 2.5
        with pytest.raises(ConfigurationError, match="max_iterations must be an integer"):
            validate_options(opts)

    def test_legal_values_of_other_types_pass(self):
        opts = replace(Options(), tolerance=1, max_iterations=np.int64(5))
        assert validate_options(opts) is opts
        assert solve(corpus_get("hs071"), opts).status in STATUSES

    def test_every_range_admits_defaults_and_presets(self):
        for opts in [Options()] + [preset_options(name) for name in PRESETS]:
            validate_options(opts)

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

    # While f was read first at x0, the nan start read (1, 0, 0, 0, 0) and the
    # pole (2, 1, 2, 2, 0): now x0's check reads c first, and f only where
    # iteration 0 would start
    @pytest.mark.parametrize("case, pinned", [
        # (1, 1, 0, 0, 0) while f at x0 filled the exit's objective value
        ("nan start", ("EvaluationError", (0, 1, 0, 0, 0))),
        ("inconsistent rows", ("InfeasibleStationary", (1, 1, 1, 1, 0))),
        ("pole at the preprocessed point", ("EvaluationError", (1, 1, 2, 2, 0))),
    ])
    def test_early_exits_pinned(self, case, pinned):
        # each exit before the first iteration keeps its callback calls
        pole = replace(
            linear_model([[1.0]], [1.0]),  # preprocessing moves x0 = 0 onto x = 1
            eval_objective=lambda x: 1.0 / (x[0] - 1.0),
            eval_objective_gradient=lambda x: -1.0 / (x[:1] - 1.0) ** 2,
        )
        model = {
            "nan start": replace(corpus_get("hs007"), initial_point=np.array([np.nan, 1.0])),
            "inconsistent rows": linear_model([[1.0], [1.0]], [1.0, 2.0]),
            "pole at the preprocessed point": pole,
        }[case]
        counted, counts = instrument(model)
        with np.errstate(all="ignore"):
            result = solve(counted, preset_options("filtersqp"))
        observed = (counts.objective, counts.constraints, counts.objective_gradient,
                    counts.constraint_jacobian, counts.hessian)
        assert (result.status, observed) == pinned
        assert result.iterations == 0 and result.subproblem_solves == 0
        assert np.all(result.y == 0.0) and np.all(result.z == 0.0)
        assert np.isnan(result.objective_value) == (case == "nan start")
        if case == "inconsistent rows":
            assert (result.stationarity, result.feasibility, result.complementarity) == (
                0.0, 2.0, 0.0)
            assert result.rho == 0.0

    @pytest.mark.parametrize("problem, preset, scaled", [
        ("hs071", "filtersqp", True),
        *[(problem, preset, False) for problem in ("hs006", "hs039", "hs063")
          for preset in ("filtersqp", "ipopt", "byrd")],
    ])
    def test_iteration_limit_reports_the_returned_iterate(self, problem, preset, scaled):
        # at the outer limit the residuals are those of the returned x:
        # its violation, recomputed through the model, is the reported
        # feasibility (hs071 under filtersqp used to report 1.625, the
        # violation one step earlier, against 0.0946 at the returned x)
        model = corpus_get(problem)
        options = replace(preset_options(preset), max_iterations=2,
                          s_max=100.0 if scaled else np.inf)
        result = solve(model, options)
        c = np.asarray(model.eval_constraints(result.x))
        violation = max(np.max(np.maximum(model.constraint_lower - c, c - model.constraint_upper)),
                        np.max(np.maximum(model.variable_lower - result.x,
                                          result.x - model.variable_upper), initial=0.0))
        assert result.status == ITERATION_LIMIT and result.iterations == 2
        assert result.feasibility == pytest.approx(max(violation, 0.0), rel=1e-12, abs=1e-15)

    def test_multiplier_scaling_cap_reaches_the_barrier_update(self):
        # the cap scales the barrier KKT error that decides each mu decrease,
        # as it scales the termination residuals
        opts = replace(preset_options("ipopt"), multiplier_scaling_cap=1e-3)
        records = []
        result = solve(corpus_get("hs071"), opts, log=records.append)
        mus = [record["mu"] for record in records]
        assert mus[:3] == pytest.approx([0.1, 0.02, 0.02**1.5])
        # 9 objective calls while f was also read at x0, before the interior push
        assert (result.status, result.iterations, result.objective_evaluations) == (
            "FeasibleKKT", 7, 8)
        default = []
        solve(corpus_get("hs071"), preset_options("ipopt"), log=default.append)
        assert [record["mu"] for record in default][:3] == pytest.approx([0.1, 0.1, 0.02])

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
            with_scaling = solve(corpus_get(name), base)
            without = solve(corpus_get(name), replace(base, s_max=np.inf))
            assert with_scaling.status == without.status == "FeasibleKKT"
            np.testing.assert_allclose(with_scaling.x, without.x, atol=1e-5)

    def test_rho_reported(self):
        restoration = solve(corpus_get("hs028"), preset_options("filtersqp"))
        assert restoration.rho == 1.0
        infeasible = solve(corpus_get("infeasible1"), preset_options("filtersqp"))
        assert infeasible.rho == 0.0

    def test_kkt_cross_check_with_error_measure(self):
        from modnlp.relaxation import error_measure
        from modnlp.state import Bounds
        from modnlp.reformulation import scale_functions as scale_op

        model = corpus_get("hs063")
        result = solve(model, preset_options("byrd"))
        assert result.status == "FeasibleKKT"
        working, _, _ = scale_op(to_equality_form(EvaluationRecord(model, model.initial_point)),
                                 100.0)
        # rebuild the full working-space point (slack = constraint value)
        x_full = np.concatenate([result.x, np.zeros(working.n - model.n)])
        ev = evaluate(working, x_full)
        x_full[model.n:] = ev.c[: working.n - model.n] * 0  # no slacks on hs063
        e = error_measure(ev, x_full, result.y, result.rho,
                          Bounds(working.variable_lower, working.variable_upper))
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

    def test_a_huge_initial_mu_ends_in_a_status(self, monkeypatch):
        # mu**theta_mu overflows a Python float from mu ~ 3e205 at theta_mu =
        # 1.5. The filter's upper bound is set once, at initialization: when
        # each mu decrease re-anchored it at the current eta, eta climbed
        # from 2.5e2 to 3.9e122 in this run
        bounds = []
        initialize = FilterMethod.initialize

        def recorded(self, eta0):
            initialize(self, eta0)
            bounds.append(self.filter.eta_max)

        monkeypatch.setattr(FilterMethod, "initialize", recorded)
        opts = replace(preset_options("ipopt"), mu_initial=1e300)
        records = []
        with np.errstate(all="ignore"):
            assert solve(corpus_get("hs071"), opts, log=records.append).status in STATUSES
        assert len(bounds) == 1 and records
        assert max(record["eta"] for record in records) <= bounds[0]

    @pytest.mark.parametrize("problem, base, mu_initial", [
        # mu**2 overflows in the feasibility step's elastics from mu ~ 1.3e154
        ("maratos", preset_options("byrd").updated({"subproblem": "primal_dual_IPM"}), 1e200),
        ("hs071", Options(subproblem="primal_dual_IPM", globalization_mechanism="LS"), 1e200),
        # 0/0 in the same elastics at the smallest mu and c = 0
        ("maratos", preset_options("byrd").updated({"subproblem": "primal_dual_IPM"}), 5e-324),
    ])
    def test_a_non_finite_ipm_step_ends_in_a_status(self, problem, base, mu_initial):
        # used to raise NonFiniteEvaluationError out of solve()
        with np.errstate(all="ignore"):
            result = solve(corpus_get(problem), base.updated({"mu_initial": mu_initial}))
        assert result.status == EVALUATION_ERROR
        assert result.message == "IPM step requires finite evaluations"

    def test_steering_stops_after_max_inner_reductions(self):
        # a factor this close to 1 needs ~3e17 reductions from 1 to rho_min
        opts = replace(preset_options("byrd"), rho_decrease_factor=np.nextafter(1.0, 0.0))
        result = solve(corpus_get("maratos"), opts)
        assert result.status == ITERATION_LIMIT
        assert result.message == "steering exceeded 50 penalty reductions"

    def test_a_scaling_factor_that_underflows_is_refused(self):
        opts = replace(preset_options("filtersqp"), s_max=np.nextafter(0.0, 1.0))
        with pytest.raises(ConfigurationError, match="s_max"):
            solve(corpus_get("hs071"), opts)

    @pytest.mark.parametrize("preset", ["filtersqp", "ipopt", "byrd"])
    def test_inverted_variable_bounds_are_refused(self, preset):
        # refused before any callback runs, as inverted row bounds are; they
        # used to run to a misleading status: filtersqp to "feasibility QP
        # unexpectedly failed" at iteration 0, ipopt and byrd to "stagnation:
        # 50 zero steps" after 49 iterations
        model = corpus_get("hs071")
        counted, counts = instrument(replace(model, variable_lower=model.variable_upper + 1.0))
        with pytest.raises(InconsistentBoundsError,
                           match="^variable 0 has lower bound 6 > upper bound 5$"):
            solve(counted, preset_options(preset))
        assert counts == EvaluationCounts()

    @pytest.mark.parametrize("preset", ["filtersqp", "ipopt", "byrd"])
    def test_nan_bounds_are_refused(self, preset):
        # a NaN bound compares false with its partner; it used to pass the
        # inverted-bounds test, and np.clip then turned x0[0] into NaN, so
        # the solve ended in EvaluationError after 2 calls of each of f, c,
        # the gradient and the Jacobian. Infinite bounds stay legal.
        model = corpus_get("hs071")
        lower = model.variable_lower.copy()
        lower[0] = np.nan
        counted, counts = instrument(replace(model, variable_lower=lower))
        with pytest.raises(ConfigurationError,
                           match="^variable 0 has lower bound nan unordered with upper bound 5$"):
            solve(counted, preset_options(preset))
        assert counts == EvaluationCounts()


# the status each error class a part raises ends the solve in, at an
# infeasible start (hs071) and, for a collapsed radius, at a feasible one
# (hs003, bounds only)
PART_FAILURES = [
    (StepTooSmallError, "hs071", ITERATION_LIMIT),
    (InnerIterationLimitError, "hs071", ITERATION_LIMIT),
    (QPFailureError, "hs071", ITERATION_LIMIT),
    (RegularizationFailedError, "hs071", ITERATION_LIMIT),
    (SingularMatrixError, "hs071", ITERATION_LIMIT),
    (NonFiniteEvaluationError, "hs071", EVALUATION_ERROR),
    (TinyRadiusError, "hs003", SMALL_TRUST_REGION),
    (TinyRadiusError, "hs071", ITERATION_LIMIT),
]


@pytest.mark.parametrize("error, problem, status", PART_FAILURES)
def test_a_part_failure_ends_in_its_status(monkeypatch, error, problem, status):
    message = "%s raised by a part" % error.__name__

    def fail(self, iterate):
        raise error(message)

    for mechanism in MECHANISMS.values():
        monkeypatch.setattr(mechanism, "compute_acceptable_iterate", fail)
    for preset in ("filtersqp", "ipopt"):  # a trust region and a line search
        result = solve(corpus_get(problem), preset_options(preset))
        assert (result.status, result.message, result.iterations) == (status, message, 0)


def test_the_status_table_names_every_error_a_part_raises():
    # the parts' modules raise no ModNLPError class that the table leaves out
    import ast
    from pathlib import Path

    import modnlp

    package = Path(modnlp.__file__).resolve().parent
    raised = {
        node.exc.func.id
        for name in ("globalization", "linalg", "mechanism", "relaxation", "subproblem")
        for node in ast.walk(ast.parse((package / (name + ".py")).read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
    }
    errors = {name for name in raised if issubclass(getattr(modnlp.errors, name, Exception),
                                                    ModNLPError)}
    assert errors == {error.__name__ for error, _, _ in PART_FAILURES}


TINY = float(np.nextafter(0.0, 1.0))
BELOW_ONE = float(np.nextafter(1.0, 0.0))
ABOVE_ONE = float(np.nextafter(1.0, 2.0))
HUGE = 1e300
# each numeric option just inside each end of its range: the next float at
# an open end, the end itself at a closed one, HUGE (int(HUGE) for a count)
# where the range has no end
LEGAL_EXTREMES = {
    "tolerance": (TINY, HUGE), "max_iterations": (1, int(HUGE)),
    "loose_tolerance_factor": (1.0, HUGE), "loose_tolerance_window": (1, int(HUGE)),
    "mu_initial": (TINY, HUGE), "kappa_epsilon": (TINY, HUGE), "kappa_mu": (TINY, BELOW_ONE),
    "theta_mu": (ABOVE_ONE, float(np.nextafter(2.0, 1.0))), "tau_min": (TINY, BELOW_ONE),
    "interior_push": (TINY, HUGE), "backtrack_factor": (TINY, BELOW_ONE),
    "alpha_min": (float(np.finfo(float).eps), HUGE), "max_inner": (1, int(HUGE)),
    "radius_initial": (TINY, HUGE), "radius_min": (0.0, HUGE), "radius_max": (TINY, HUGE),
    "radius_increase_factor": (ABOVE_ONE, HUGE), "radius_decrease_factor": (TINY, BELOW_ONE),
    "activity_tolerance_rel": (0.0, BELOW_ONE), "filter_capacity": (1, int(HUGE)),
    "filter_sigma": (TINY, BELOW_ONE), "filter_beta": (TINY, BELOW_ONE),
    "filter_gamma": (TINY, BELOW_ONE), "filter_delta": (TINY, HUGE),
    "theta_min_factor": (TINY, HUGE), "eta_max_factor": (1.0, HUGE),
    "armijo_sigma": (TINY, BELOW_ONE), "restoration_exit_factor": (TINY, 1.0),
    "steering_epsilon1": (TINY, BELOW_ONE), "steering_epsilon2": (TINY, BELOW_ONE),
    "rho_initial": (TINY, 1.0), "rho_decrease_factor": (TINY, BELOW_ONE),
    "rho_min": (TINY, HUGE), "y_max": (0.0, HUGE), "s_max": (TINY, HUGE),
    "multiplier_scaling_cap": (TINY, HUGE),
}
SWEPT_CONFIGS = {
    "filtersqp": preset_options("filtersqp"),
    "ipopt": preset_options("ipopt"),
    "byrd": preset_options("byrd"),
    "byrd_TR": replace(preset_options("byrd"), globalization_mechanism="TR"),
    "byrd_IPM": replace(preset_options("byrd"), subproblem="primal_dual_IPM"),
}


def test_legal_extremes_are_just_inside_every_range():
    def admits(key, value):
        try:
            validate_options(replace(Options(), **{key: value}))
        except ConfigurationError:
            return False
        return True

    assert set(LEGAL_EXTREMES) == {f.name for f in fields(Options) if "interval" in f.metadata}
    for key, (low, high) in LEGAL_EXTREMES.items():
        assert admits(key, low) and admits(key, high)
        if isinstance(low, float):
            assert not admits(key, float(np.nextafter(low, -np.inf)))
        if high != HUGE and high != int(HUGE):
            assert not admits(key, float(np.nextafter(high, np.inf)))


def test_no_legal_extreme_crashes_a_solve():
    """Every numeric option at each end of its range, one at a time, under
    five configurations on hs071, 20 iterations: a SolveResult or a
    ConfigurationError, never another exception (about 7 s)."""
    model = corpus_get("hs071")
    for key, ends in LEGAL_EXTREMES.items():
        for value in ends:
            for label, base in SWEPT_CONFIGS.items():
                opts = replace(base, **{"max_iterations": 20, key: value})
                try:
                    with np.errstate(all="ignore"):
                        result = solve(model, opts)
                except ConfigurationError:
                    continue
                assert result.status in STATUSES, (key, value, label)



def compute_residuals_oracle(ws, iterate, rho, scaling_cap):
    """compute_residuals, dual_scaling and l1_sign_residual as they were
    before they took fewer numpy passes: the oracle of their values. The two
    complementarity sides are joined by a max that a NaN side makes NaN."""
    ev = iterate.evals
    grad = np.asarray(ev.grad_f)
    J = np.asarray(ev.jac_c)
    jty = J.T @ iterate.y if iterate.y.size else np.zeros_like(grad)
    z = iterate.z
    mass = float(np.sum(np.abs(iterate.y)) + np.sum(np.abs(iterate.zl))
                 + np.sum(np.abs(iterate.zu)))
    s_d = max(1.0, mass / (scaling_cap * max(1, iterate.zl.size + iterate.y.size)))
    stat = float(np.max(np.abs(rho * grad - jty - z), initial=0.0)) / s_d
    stat0 = float(np.max(np.abs(-jty - z), initial=0.0)) / s_d
    feas = float(np.max(np.abs(ev.c), initial=0.0))
    lower, upper = ws.bounds.lower, ws.bounds.upper
    gap_lo = np.where(np.isfinite(lower), iterate.x - lower, 0.0)
    gap_hi = np.where(np.isfinite(upper), upper - iterate.x, 0.0)
    comp = float(np.max([
        np.max(np.abs(gap_lo * iterate.zl), initial=0.0),
        np.max(np.abs(gap_hi * iterate.zu), initial=0.0),
    ])) / s_d
    c = np.asarray(ev.c, dtype=float)
    terms = np.abs((np.asarray(iterate.y, dtype=float) + np.sign(c)) * c)
    sign_res = float(np.cumsum(np.concatenate(([0.0], terms)))[-1])
    return Residuals(stat, stat0, feas, comp, sign_res)


def test_compute_residuals_equals_the_oracle():
    # every corpus problem in equality form (finite and infinite bounds;
    # boxqp1 and hs003 have m = 0) at random points and multipliers, some
    # planted with NaN and inf, at rho 1, 0.3 and 0: the residuals equal
    # the oracle's byte for byte, and each takes the same callbacks from a
    # fresh record, but for the Jacobian at m = 0: the oracle evaluates it,
    # compute_residuals does not
    from modnlp.corpus import corpus_names
    from modnlp.driver import compute_residuals
    from modnlp.state import Iterate, Workspace

    rng = np.random.RandomState(29)
    empty_rows = 0
    for name in corpus_names():
        counted, counts = instrument(corpus_get(name))
        working = to_equality_form(EvaluationRecord(counted, counted.initial_point)).model
        ws = Workspace(working)
        n, m = working.n, working.m
        lower = np.where(ws.bounds.lower_finite, ws.bounds.lower, -3.0)
        upper = np.where(ws.bounds.upper_finite, ws.bounds.upper, 3.0)
        for trial in range(12):
            x = lower + (upper - lower) * rng.rand(n)
            y = rng.randn(m) * 10.0 ** rng.uniform(-3, 3, m)
            zl, zu = rng.rand(n), rng.rand(n)
            if trial % 4 == 3:
                for v in (y, zl, zu):
                    if v.size:
                        v[rng.randint(v.size)] = (np.nan, np.inf, -np.inf)[rng.randint(3)]
            rho = (1.0, 0.3, 0.0)[trial % 3]
            outcomes = []
            for compute in (compute_residuals_oracle, compute_residuals):
                before = dict(vars(counts))
                iterate = Iterate(x, y, zl, zu, EvaluationRecord(working, x))
                with np.errstate(all="ignore"):
                    res = compute(ws, iterate, rho, 100.0)
                taken = {k: v - before[k] for k, v in vars(counts).items()}
                outcomes.append(([np.float64(v).tobytes() for v in vars(res).values()], taken))
            values, calls = outcomes[0]
            if m == 0:
                assert calls["constraint_jacobian"] == 1
                calls = dict(calls, constraint_jacobian=0)
                empty_rows += 1
            assert outcomes[1] == (values, calls), (name, trial)
    assert empty_rows == 24
