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
    PARTS,
    PRESETS,
    _RANGES,
    INFINITE_MEANS,
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
from modnlp.model import EvaluationRecord, Model, evaluate, instrument
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

    def test_presets_name_every_part(self):
        # a preset does not inherit a part from the Options defaults
        for overrides in PRESETS.values():
            assert all(overrides[key] in table for key, table in PARTS.items())

    def test_every_numeric_option_has_a_range(self):
        numeric = {f.name for f in fields(Options) if f.type in ("int", "float")}
        assert {key for key, _, _ in _RANGES} == numeric

    def test_non_finite_value_is_refused_where_inf_means_nothing(self):
        # +inf passes every range that has no upper end; only the options
        # of INFINITE_MEANS admit it, and each of those solves with it
        reals = [key for key, _, _ in _RANGES if isinstance(getattr(Options(), key), float)]
        assert set(INFINITE_MEANS) <= set(reals)
        for key in reals:
            for value in (np.inf, -np.inf, np.nan):
                opts = Options().updated({key: value})
                if key in INFINITE_MEANS and value == np.inf:
                    continue
                with pytest.raises(ConfigurationError, match="option %s must be" % key):
                    validate_options(opts)
        for key in INFINITE_MEANS:
            for preset in ("filtersqp", "ipopt", "byrd"):
                opts = validate_options(preset_options(preset).updated({key: "inf"}))
                assert solve(corpus_get("hs071"), opts).status in STATUSES
        # an int option given a float inf (not through the parser) is refused too
        with pytest.raises(ConfigurationError, match="max_iterations must be finite"):
            validate_options(replace(Options(), max_iterations=np.inf))

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

    @pytest.mark.parametrize("case, pinned", [
        ("nan start", ("EvaluationError", (1, 0, 0, 0, 0))),
        ("inconsistent rows", ("InfeasibleStationary", (1, 1, 1, 1, 0))),
        ("pole at the preprocessed point", ("EvaluationError", (2, 1, 2, 2, 0))),
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
        options = replace(preset_options(preset), max_iterations=2, scale_functions=scaled)
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
        assert (result.status, result.iterations, result.objective_evaluations) == (
            "FeasibleKKT", 7, 9)
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
        working, _, _ = scale_op(EvaluationRecord(working, working.initial_point), 100.0)
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


def compute_residuals_oracle(ws, iterate, rho, scaling_cap):
    """compute_residuals, dual_scaling and l1_sign_residual as they were
    before they took fewer numpy passes: the oracle of their values."""
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
    gap_lo = np.where(np.isfinite(ws.lower), iterate.x - ws.lower, 0.0)
    gap_hi = np.where(np.isfinite(ws.upper), ws.upper - iterate.x, 0.0)
    comp = max(
        float(np.max(np.abs(gap_lo * iterate.zl), initial=0.0)),
        float(np.max(np.abs(gap_hi * iterate.zu), initial=0.0)),
    ) / s_d
    c = np.asarray(ev.c, dtype=float)
    terms = np.abs((np.asarray(iterate.y, dtype=float) + np.sign(c)) * c)
    sign_res = float(np.cumsum(np.concatenate(([0.0], terms)))[-1])
    return Residuals(stat, stat0, feas, comp, sign_res)


def test_compute_residuals_equals_the_oracle():
    # every corpus problem in equality form (finite and infinite bounds;
    # boxqp1 and hs003 have m = 0) at random points and multipliers, some
    # planted with NaN and inf, at rho 1, 0.3 and 0: the residuals equal
    # the oracle's byte for byte, and each takes the same callbacks from a
    # fresh record (at m = 0 too, one Jacobian call)
    from modnlp.corpus import corpus_names
    from modnlp.driver import compute_residuals
    from modnlp.state import Iterate, Workspace

    rng = np.random.RandomState(29)
    empty_rows = 0
    for name in corpus_names():
        counted, counts = instrument(corpus_get(name))
        working = to_equality_form(counted)
        ws = Workspace(working)
        n, m = working.n, working.m
        lower = np.where(np.isfinite(ws.lower), ws.lower, -3.0)
        upper = np.where(np.isfinite(ws.upper), ws.upper, 3.0)
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
            assert outcomes[0] == outcomes[1], (name, trial)
            if m == 0:
                assert outcomes[1][1]["constraint_jacobian"] == 1
                empty_rows += 1
    assert empty_rows == 24
