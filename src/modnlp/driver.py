"""Outer solver loop: option handling, presets, preprocessing, composition
and validation of the four ingredients, termination, and IEEE-exception
recovery policy.
"""
from __future__ import annotations

import difflib
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    ConfigurationError,
    InfeasibleLinearConstraintsError,
    InnerIterationLimitError,
    QPFailureError,
    RegularizationFailedError,
    SingularMatrixError,
    StepTooSmallError,
    TinyRadiusError,
    UnknownOptionError,
    UnknownPresetError,
)
from .globalization import FilterMethod, MeritL1
from .linalg import INFEASIBLE, OPTIMAL, QPData, ldlt_factorize, qp_solve, solve_factorized
from .mechanism import (
    BacktrackingLineSearch,
    LineSearchConfig,
    TrustRegionConfig,
    TrustRegionMethod,
)
from .model import Model, evaluate, instrument
from .reformulation import scale_functions, to_equality_form
from .relaxation import (
    FeasibilityRestoration,
    IPMSubproblem,
    L1Relaxation,
    LPSubproblem,
    QPSubproblem,
    SteeringState,
    l1_sign_residual,
)
from .state import Iterate, Workspace
from .subproblem import BarrierState, initial_bound_multipliers, push_to_interior

RELAXATIONS = ("feasibility_restoration", "l1_relaxation")
SUBPROBLEMS = ("QP", "LP", "primal_dual_IPM")
STRATEGIES = ("leyffer_filter_method", "waechter_filter_method", "l1_merit")
MECHANISMS = ("LS", "TR")
PRESETS = ("filtersqp", "ipopt", "byrd")

# terminal statuses
FEASIBLE_KKT = "FeasibleKKT"
FEASIBLE_FJ = "FeasibleFJ"
INFEASIBLE_STATIONARY = "InfeasibleStationary"
SMALL_TRUST_REGION = "SmallTrustRegion"
LOOSE_KKT = "LooseToleranceKKT"
ITERATION_LIMIT = "IterationLimit"
EVALUATION_ERROR = "EvaluationError"

SUCCESS_STATUSES = (FEASIBLE_KKT, LOOSE_KKT)


@dataclass
class Options:
    """Every hyperparameter of the solver; loadable from file and overridable
    on the command line (command line beats file beats preset beats these
    defaults)."""

    constraint_relaxation_strategy: str = "feasibility_restoration"
    subproblem: str = "QP"
    globalization_strategy: str = "leyffer_filter_method"
    globalization_mechanism: str = "TR"

    tolerance: float = 1e-6
    max_iterations: int = 1000
    loose_tolerance_factor: float = 100.0
    loose_tolerance_window: int = 15

    armijo_sigma: float = 1e-4
    filter_sigma: float = 1e-8
    filter_delta: float = 1.0
    filter_beta: float = 0.999
    filter_gamma: float = 1e-3
    filter_capacity: int = 200
    theta_min_factor: float = 1e-4
    eta_max_factor: float = 1e4
    restoration_exit_factor: float = 0.9

    steering_epsilon1: float = 0.1
    steering_epsilon2: float = 0.1
    rho_initial: float = 1.0
    rho_decrease_factor: float = 0.1
    rho_min: float = 1e-14

    mu_initial: float = 0.1
    kappa_epsilon: float = 10.0
    kappa_mu: float = 0.2
    theta_mu: float = 1.5
    tau_min: float = 0.99
    interior_push: float = 1e-2

    backtrack_factor: float = 0.5
    alpha_min: float = 1e-7
    max_inner: int = 50

    radius_initial: float = 10.0
    radius_min: float = 1e-16
    radius_max: float = 1e30
    radius_increase_factor: float = 2.0
    radius_decrease_factor: float = 0.5
    activity_tolerance_rel: float = 1e-10

    y_max: float = 1e3
    s_max: float = 100.0
    scale_functions: bool = True
    multiplier_scaling_cap: float = 100.0

    def updated(self, mapping: dict) -> "Options":
        known = {f.name: f.type for f in fields(self)}
        values = {}
        for key, raw in mapping.items():
            if key not in known:
                near = difflib.get_close_matches(key, known, n=3)
                hint = (" did you mean: " + ", ".join(near) + "?") if near else ""
                raise UnknownOptionError("unknown option %r;%s" % (key, hint))
            try:
                values[key] = _coerce(raw, getattr(self, key))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError("option %s: cannot parse %r" % (key, raw)) from exc
        return replace(self, **values)


def _coerce(raw, current):
    if isinstance(raw, str):
        if isinstance(current, bool):
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ConfigurationError("expected a boolean, got %r" % raw)
        if isinstance(current, int) and not isinstance(current, bool):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        return raw
    return type(current)(raw) if current is not None else raw


def load_options_file(path: str) -> dict:
    """Plain-text option file: one `key value` pair per line, '#' comments."""
    mapping = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split(None, 1)
            if len(parts) != 2:
                raise ConfigurationError(
                    "%s:%d: expected 'key value', got %r" % (path, line_no, line.rstrip())
                )
            mapping[parts[0]] = parts[1].strip()
    return mapping


def preset_options(name: str) -> Options:
    """Named ingredient combinations with their lineage constants."""
    base = Options()
    if name == "filtersqp":
        return replace(
            base,
            constraint_relaxation_strategy="feasibility_restoration",
            subproblem="QP",
            globalization_strategy="leyffer_filter_method",
            globalization_mechanism="TR",
            filter_beta=0.999,
            filter_gamma=1e-3,
            filter_sigma=1e-8,
            filter_delta=1.0,
        )
    if name == "ipopt":
        return replace(
            base,
            constraint_relaxation_strategy="feasibility_restoration",
            subproblem="primal_dual_IPM",
            globalization_strategy="waechter_filter_method",
            globalization_mechanism="LS",
            filter_beta=1.0 - 1e-5,
            filter_gamma=1e-5,
            filter_sigma=1e-8,
            filter_delta=1.0,
        )
    if name == "byrd":
        return replace(
            base,
            constraint_relaxation_strategy="l1_relaxation",
            subproblem="QP",
            globalization_strategy="l1_merit",
            globalization_mechanism="LS",
            armijo_sigma=1e-4,
        )
    raise UnknownPresetError("unknown preset %r; known: %s" % (name, ", ".join(PRESETS)))


# (option, admits its value, the admitted range)
_RANGES = (
    ("tolerance", lambda v: v > 0.0, "> 0"),
    ("max_iterations", lambda v: v >= 1, ">= 1"),
    ("mu_initial", lambda v: v > 0.0, "> 0"),
    ("kappa_epsilon", lambda v: v > 0.0, "> 0"),
    ("kappa_mu", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("theta_mu", lambda v: 1.0 < v < 2.0, "in (1, 2)"),
    ("tau_min", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("backtrack_factor", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("alpha_min", lambda v: v >= np.finfo(float).eps, ">= machine epsilon"),
    ("radius_initial", lambda v: v > 0.0, "> 0"),
    ("radius_increase_factor", lambda v: v > 1.0, "> 1"),
    ("radius_decrease_factor", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("filter_capacity", lambda v: v >= 1, ">= 1"),
)


def validate_options(opts: Options) -> Options:
    for key, admits, bounds in _RANGES:
        value = getattr(opts, key)
        if not admits(value):
            raise ConfigurationError("option %s must be %s, got %r" % (key, bounds, value))
    if opts.constraint_relaxation_strategy not in RELAXATIONS:
        raise ConfigurationError(
            "unknown constraint_relaxation_strategy %r" % opts.constraint_relaxation_strategy
        )
    if opts.subproblem not in SUBPROBLEMS:
        raise ConfigurationError("unknown subproblem %r" % opts.subproblem)
    if opts.globalization_strategy not in STRATEGIES:
        raise ConfigurationError(
            "unknown globalization_strategy %r" % opts.globalization_strategy
        )
    if opts.globalization_mechanism not in MECHANISMS:
        raise ConfigurationError(
            "unknown globalization_mechanism %r" % opts.globalization_mechanism
        )
    if opts.subproblem == "primal_dual_IPM" and opts.globalization_mechanism == "TR":
        raise ConfigurationError(
            "the combination primal_dual_IPM + TR is prohibited: a box trust "
            "region would defeat the purpose of an interior-point method"
        )
    if (
        opts.constraint_relaxation_strategy == "feasibility_restoration"
        and opts.globalization_strategy == "l1_merit"
    ):
        warnings.warn(
            "feasibility_restoration does not steer the penalty parameter: "
            "subproblem directions may not be descent directions for the "
            "l1 merit function",
            stacklevel=2,
        )
    return opts


@dataclass
class SolveResult:
    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    rho: float
    objective_value: float
    iterations: int
    objective_evaluations: int
    constraint_evaluations: int
    subproblem_solves: int
    stationarity: float
    feasibility: float
    complementarity: float
    message: str = ""

    @property
    def success(self) -> bool:
        return self.status in SUCCESS_STATUSES


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def preprocess_initial_point(model: Model, x0: np.ndarray) -> np.ndarray:
    """Proximal QP: the closest point to x0 satisfying the linear constraints
    and the bounds. Raises if the linear constraints alone are infeasible."""
    x0 = np.clip(x0, model.variable_lower, model.variable_upper)
    rows = list(model.linear_rows)
    n = model.n
    if rows:
        c0 = np.asarray(model.eval_constraints(x0), dtype=float)
        J0 = np.asarray(model.eval_constraint_jacobian(x0), dtype=float).reshape(model.m, n)
        A = J0[rows]
        b = -c0[rows]
    else:
        A = np.zeros((0, n))
        b = np.zeros(0)
    qp = QPData(
        W=np.eye(n),
        g=np.zeros(n),
        A=A,
        b=b,
        d_lower=model.variable_lower - x0,
        d_upper=model.variable_upper - x0,
    )
    try:
        sol = qp_solve(qp)
    except QPFailureError:  # an Optimal that fails its KKT check
        return x0
    if sol.status == INFEASIBLE:
        raise InfeasibleLinearConstraintsError(
            "the linear constraints and bounds are inconsistent"
        )
    if sol.status != OPTIMAL:
        return x0
    return x0 + sol.d


def estimate_initial_multipliers(
    model: Model, x0: np.ndarray, z0: np.ndarray, y_max: float
) -> np.ndarray:
    """Least-squares estimate of y from the stationarity equation; discarded
    (y = 0) when it exceeds y_max in the infinity norm or the system is
    singular."""
    m, n = model.m, model.n
    if m == 0:
        return np.zeros(0)
    grad = np.asarray(model.eval_objective_gradient(x0), dtype=float)
    J = np.asarray(model.eval_constraint_jacobian(x0), dtype=float).reshape(m, n)
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(J))):
        return np.zeros(m)
    K = np.zeros((n + m, n + m))
    K[:n, :n] = np.eye(n)
    K[:n, n:] = J.T
    K[n:, :n] = J
    rhs = np.concatenate([grad - z0, np.zeros(m)])
    try:
        y0 = solve_factorized(ldlt_factorize(K), rhs)[n:]
    except SingularMatrixError:
        return np.zeros(m)
    if not np.all(np.isfinite(y0)) or float(np.max(np.abs(y0), initial=0.0)) > y_max:
        return np.zeros(m)
    return y0


# ---------------------------------------------------------------------------
# Termination
# ---------------------------------------------------------------------------


@dataclass
class Residuals:
    stationarity: float
    stationarity_rho0: float
    feasibility: float
    complementarity: float
    sign_residual: float


def compute_residuals(ws: Workspace, iterate: Iterate, rho: float, scaling_cap: float) -> Residuals:
    ev = iterate.evals
    grad = np.asarray(ev.grad_f)
    J = np.asarray(ev.jac_c)
    jty = J.T @ iterate.y if iterate.y.size else np.zeros_like(grad)
    z = iterate.z
    n, m = ws.model.n, ws.model.m
    mass = float(np.sum(np.abs(iterate.y)) + np.sum(np.abs(iterate.zl)) + np.sum(np.abs(iterate.zu)))
    s_d = max(1.0, mass / (scaling_cap * max(1, n + m)))
    stat = float(np.max(np.abs(rho * grad - jty - z), initial=0.0)) / s_d
    stat0 = float(np.max(np.abs(-jty - z), initial=0.0)) / s_d
    feas = float(np.max(np.abs(ev.c), initial=0.0))
    gap_lo = np.where(np.isfinite(ws.lower), iterate.x - ws.lower, 0.0)
    gap_hi = np.where(np.isfinite(ws.upper), ws.upper - iterate.x, 0.0)
    comp = max(
        float(np.max(np.abs(gap_lo * iterate.zl), initial=0.0)),
        float(np.max(np.abs(gap_hi * iterate.zu), initial=0.0)),
    ) / s_d
    sign_res = l1_sign_residual(np.asarray(ev.c), iterate.y)
    return Residuals(stat, stat0, feas, comp, sign_res)


@dataclass
class TerminationState:
    epsilon: float
    loose_factor: float = 100.0
    loose_window: int = 15
    rho_min: float = 1e-14
    consecutive_loose: int = 0

    def check(self, res: Residuals, rho: float, steered_to_zero: bool) -> str | None:
        eps = self.epsilon
        if res.feasibility <= eps:
            if res.stationarity <= eps and res.complementarity <= eps and rho > 0.0:
                if steered_to_zero:
                    return FEASIBLE_FJ
                return FEASIBLE_KKT
            if steered_to_zero and res.stationarity_rho0 <= eps and res.complementarity <= eps:
                return FEASIBLE_FJ
        else:
            if res.stationarity_rho0 <= eps and res.sign_residual <= 10.0 * eps:
                return INFEASIBLE_STATIONARY
        loose = self.loose_factor * eps
        if (
            res.feasibility <= loose
            and res.stationarity <= loose
            and res.complementarity <= loose
        ):
            self.consecutive_loose += 1
            if self.consecutive_loose >= self.loose_window:
                return LOOSE_KKT
        else:
            self.consecutive_loose = 0
        return None


def check_termination(ws, iterate, rho, epsilon, state: TerminationState,
                      scaling_cap: float = 100.0, steered_to_zero: bool = False):
    res = compute_residuals(ws, iterate, rho, scaling_cap)
    return state.check(res, rho, steered_to_zero), res


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


def _build_ingredients(ws: Workspace, opts: Options):
    mechanism_is_ls = opts.globalization_mechanism == "LS"
    if opts.subproblem == "QP":
        sub = QPSubproblem(regularize=mechanism_is_ls)
    elif opts.subproblem == "LP":
        sub = LPSubproblem(regularize=False)
    else:
        barrier = BarrierState(
            mu=opts.mu_initial,
            tau_min=opts.tau_min,
            kappa_epsilon=opts.kappa_epsilon,
            kappa_mu=opts.kappa_mu,
            theta_mu=opts.theta_mu,
        )
        sub = IPMSubproblem(barrier, opts.tolerance)

    if opts.globalization_strategy == "l1_merit":
        strategy = MeritL1(sigma=opts.armijo_sigma)
        restoration_sigma = opts.armijo_sigma
    else:
        variant = "leyffer" if opts.globalization_strategy == "leyffer_filter_method" else "waechter"
        strategy = FilterMethod(
            variant=variant,
            sigma=opts.filter_sigma,
            delta=opts.filter_delta,
            beta=opts.filter_beta,
            gamma=opts.filter_gamma,
            capacity=opts.filter_capacity,
            eta_max_factor=opts.eta_max_factor,
            theta_min_factor=opts.theta_min_factor,
        )
        restoration_sigma = opts.filter_sigma

    if opts.constraint_relaxation_strategy == "l1_relaxation":
        steering = SteeringState(
            rho=opts.rho_initial,
            epsilon1=opts.steering_epsilon1,
            epsilon2=opts.steering_epsilon2,
            rho_decrease_factor=opts.rho_decrease_factor,
            rho_min=opts.rho_min,
        )
        relaxation = L1Relaxation(ws, sub, strategy, steering, restoration_sigma)
    else:
        relaxation = FeasibilityRestoration(
            ws, sub, strategy, restoration_sigma, opts.restoration_exit_factor
        )

    if mechanism_is_ls:
        mechanism = BacktrackingLineSearch(
            relaxation,
            LineSearchConfig(opts.backtrack_factor, opts.alpha_min, opts.max_inner),
        )
    else:
        mechanism = TrustRegionMethod(
            relaxation,
            TrustRegionConfig(
                radius=opts.radius_initial,
                radius_min=opts.radius_min,
                radius_max=opts.radius_max,
                increase_factor=opts.radius_increase_factor,
                decrease_factor=opts.radius_decrease_factor,
                activity_tolerance_rel=opts.activity_tolerance_rel,
                max_inner=opts.max_inner,
            ),
        )
    return relaxation, mechanism


def solve(model: Model, options: Options | None = None, log=None) -> SolveResult:
    """Run the composed iterative method on the model."""
    opts = validate_options(options or Options())
    counted, counts = instrument(model)
    working = to_equality_form(counted)

    def result(status, iterate, res, rho, k, message="", s_f=1.0):
        n_orig = model.n
        return SolveResult(
            status=status,
            x=iterate.x[:n_orig].copy() if iterate is not None else np.array([]),
            y=iterate.y.copy() if iterate is not None else np.array([]),
            z=iterate.z[:n_orig].copy() if iterate is not None else np.array([]),
            rho=rho,
            objective_value=(iterate.evals.f / s_f) if iterate is not None else np.nan,
            iterations=k,
            objective_evaluations=counts.objective,
            constraint_evaluations=counts.constraints,
            subproblem_solves=ws.subproblem_solves if ws is not None else 0,
            stationarity=res.stationarity if res else np.nan,
            feasibility=res.feasibility if res else np.nan,
            complementarity=res.complementarity if res else np.nan,
            message=message,
        )

    ws = None
    ev0 = evaluate(working, working.initial_point)
    if not ev0.is_finite:
        ws = Workspace(working)
        dummy = Iterate(
            working.initial_point, np.zeros(working.m),
            np.zeros(working.n), np.zeros(working.n), 1.0, ev0,
        )
        return result(
            EVALUATION_ERROR, dummy, None, 1.0, 0,
            message="IEEE exception at the initial point", s_f=1.0,
        )

    s_f = 1.0
    if opts.scale_functions:
        working, factors = scale_functions(working, working.initial_point, opts.s_max)
        s_f = factors.s_f

    ws = Workspace(working)
    try:
        x0 = preprocess_initial_point(working, working.initial_point)
    except InfeasibleLinearConstraintsError as exc:
        dummy = Iterate(
            working.initial_point, np.zeros(working.m),
            np.zeros(working.n), np.zeros(working.n), 0.0,
            evaluate(working, working.initial_point, with_derivatives=False),
        )
        res = compute_residuals(ws, _with_derivatives(ws, dummy), 0.0, opts.multiplier_scaling_cap)
        return result(INFEASIBLE_STATIONARY, dummy, res, 0.0, 0, message=str(exc), s_f=s_f)

    is_ipm = opts.subproblem == "primal_dual_IPM"
    if is_ipm:
        if not working.is_equality_form:
            raise ConfigurationError("interior-point methods require the equality form")
        x0 = push_to_interior(x0, working.variable_lower, working.variable_upper,
                              opts.interior_push)
        zl, zu = initial_bound_multipliers(working.variable_lower, working.variable_upper)
    else:
        zl = np.zeros(working.n)
        zu = np.zeros(working.n)

    y0 = estimate_initial_multipliers(working, x0, zl - zu, opts.y_max)
    if opts.scale_functions or not np.array_equal(x0, working.initial_point):
        ev = evaluate(working, x0)
    else:
        ev = ev0
    if not ev.is_finite:
        dummy = Iterate(x0, y0, zl, zu, 1.0, ev)
        return result(EVALUATION_ERROR, dummy, None, 1.0, 0,
                      message="IEEE exception at the preprocessed initial point", s_f=s_f)

    relaxation, mechanism = _build_ingredients(ws, opts)
    rho0 = opts.rho_initial if opts.constraint_relaxation_strategy == "l1_relaxation" else 1.0
    iterate = Iterate(x=x0, y=y0, zl=zl, zu=zu, rho=rho0, evals=ev)
    relaxation.initialize(iterate)

    termination = TerminationState(
        epsilon=opts.tolerance,
        loose_factor=opts.loose_tolerance_factor,
        loose_window=opts.loose_tolerance_window,
        rho_min=opts.rho_min,
    )

    status = None
    res = None
    message = ""
    k = 0
    zero_steps = 0
    for k in range(opts.max_iterations):
        ws.ensure_derivatives(iterate)
        rho_report = _reporting_rho(relaxation)
        steered_to_zero = _steered_to_zero(relaxation)
        status, res = check_termination(
            ws, iterate, rho_report, opts.tolerance, termination,
            opts.multiplier_scaling_cap, steered_to_zero,
        )
        if status is not None:
            break
        try:
            new_iterate = mechanism.compute_acceptable_iterate(iterate)
        except StepTooSmallError as exc:
            status, message = ITERATION_LIMIT, str(exc)
            break
        except TinyRadiusError as exc:
            status = (
                SMALL_TRUST_REGION
                if res is not None and res.feasibility <= opts.tolerance
                else ITERATION_LIMIT
            )
            message = str(exc)
            break
        except (
            InnerIterationLimitError, QPFailureError, RegularizationFailedError,
            SingularMatrixError,
        ) as exc:
            status, message = ITERATION_LIMIT, str(exc)
            break
        if not new_iterate.evals.is_finite:
            status, message = EVALUATION_ERROR, "accepted trial is non-finite"
            break
        step = float(np.max(np.abs(new_iterate.x - iterate.x), initial=0.0))
        zero_steps = zero_steps + 1 if step == 0.0 else 0
        iterate = new_iterate
        if log is not None:
            log(_log_record(k, mechanism, relaxation, iterate))
        if zero_steps >= 50:
            status, message = ITERATION_LIMIT, "stagnation: 50 zero steps"
            break
    else:
        k = opts.max_iterations

    if status is None:
        status, message = ITERATION_LIMIT, message or "outer iteration limit reached"
        ws.ensure_derivatives(iterate)
    if res is None:
        res = compute_residuals(
            ws, iterate, _reporting_rho(relaxation), opts.multiplier_scaling_cap
        )
    rho_final = 0.0 if status == INFEASIBLE_STATIONARY else _reporting_rho(relaxation)
    return result(status, iterate, res, rho_final, k, message=message, s_f=s_f)


def _with_derivatives(ws, iterate):
    ws.ensure_derivatives(iterate)
    return iterate


def _reporting_rho(relaxation) -> float:
    if isinstance(relaxation, L1Relaxation):
        return relaxation.steering.rho
    return 1.0


def _steered_to_zero(relaxation) -> bool:
    return (
        isinstance(relaxation, L1Relaxation)
        and relaxation.steering.rho <= relaxation.steering.rho_min
    )


def _log_record(k, mechanism, relaxation, iterate) -> dict:
    measures = relaxation.measures_from(iterate)
    record = {
        "iteration": k,
        "eta": measures.eta,
        "objective": iterate.evals.f,
        "rho": _reporting_rho(relaxation),
    }
    if relaxation.strategy.uses_fixed_rho_one:
        record["phi"] = measures.phi
    else:
        record["merit"] = measures.merit
    if isinstance(mechanism, TrustRegionMethod):
        record["radius"] = mechanism.radius
    else:
        record["step_length"] = mechanism.last_step_length
    if relaxation.subproblem.is_interior:
        record["mu"] = relaxation.subproblem.barrier.mu
    if isinstance(relaxation, FeasibilityRestoration):
        record["phase"] = relaxation.phase
    return record
