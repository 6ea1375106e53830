"""Outer solver loop: option handling, presets, preprocessing, composition
and validation of the four ingredients, termination, and IEEE-exception
recovery policy.
"""
from __future__ import annotations

import difflib
import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    ConfigurationError,
    InfeasibleLinearConstraintsError,
    ModNLPError,
    NonFiniteEvaluationError,
    QPFailureError,
    TinyRadiusError,
    UnknownOptionError,
    UnknownPresetError,
)
from .globalization import FilterMethod, MeritL1, WaechterFilter
from .linalg import (
    INFEASIBLE,
    OPTIMAL,
    QPData,
    ldlt_factorize,  # noqa: F401 -- bound here for perfbench/layers.py
    least_squares_multipliers,
    qp_solve,
    solve_factorized,  # noqa: F401 -- bound here for perfbench/layers.py
)
from .mechanism import BacktrackingLineSearch, TrustRegionMethod
from .model import EvaluationRecord, Model, instrument
from .reformulation import scale_functions, to_equality_form
from .relaxation import (
    FeasibilityRestoration,
    IPMSubproblem,
    L1Relaxation,
    LPSubproblem,
    QPSubproblem,
    l1_sign_residual,
)
from .state import Iterate, Workspace
from .subproblem import kkt_residuals

# each option value names the part class that implements it
RELAXATIONS = {"feasibility_restoration": FeasibilityRestoration, "l1_relaxation": L1Relaxation}
SUBPROBLEMS = {"QP": QPSubproblem, "LP": LPSubproblem, "primal_dual_IPM": IPMSubproblem}
STRATEGIES = {
    "leyffer_filter_method": FilterMethod,
    "waechter_filter_method": WaechterFilter,
    "l1_merit": MeritL1,
}
MECHANISMS = {"LS": BacktrackingLineSearch, "TR": TrustRegionMethod}
# the options that select a part, each with its table; validate_options and
# the CLI read them from here
PARTS = {
    "constraint_relaxation_strategy": RELAXATIONS,
    "subproblem": SUBPROBLEMS,
    "globalization_strategy": STRATEGIES,
    "globalization_mechanism": MECHANISMS,
}
# named part combinations, with the lineage constants that differ from Options
PRESETS = {
    "filtersqp": dict(
        constraint_relaxation_strategy="feasibility_restoration", subproblem="QP",
        globalization_strategy="leyffer_filter_method", globalization_mechanism="TR",
    ),
    "ipopt": dict(
        constraint_relaxation_strategy="feasibility_restoration", subproblem="primal_dual_IPM",
        globalization_strategy="waechter_filter_method", globalization_mechanism="LS",
        filter_beta=1.0 - 1e-5, filter_gamma=1e-5,
    ),
    "byrd": dict(
        constraint_relaxation_strategy="l1_relaxation", subproblem="QP",
        globalization_strategy="l1_merit", globalization_mechanism="LS",
    ),
}

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
    """Every hyperparameter of the solver, and the only place that gives one
    a default: each part takes this object and reads its own constants from
    it. Loadable from file and overridable on the command line (command line
    beats file beats preset beats these defaults). validate_options admits
    each numeric value in its range (_RANGES), finite except for the
    options of INFINITE_MEANS."""

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
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        return raw
    return type(current)(raw)


def load_options_file(path: str) -> dict:
    """Plain-text option file: one `key value` pair per line, '#' comments."""
    mapping = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError("cannot read options file %s: %s" % (path, exc)) from exc
    for line_no, line in enumerate(lines, 1):
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
    """The Options of a named preset."""
    if name not in PRESETS:
        raise UnknownPresetError("unknown preset %r; known: %s" % (name, ", ".join(PRESETS)))
    return replace(Options(), **PRESETS[name])


# (option, admits its value, the admitted range)
_RANGES = (
    ("tolerance", lambda v: v > 0.0, "> 0"),
    ("max_iterations", lambda v: v >= 1, ">= 1"),
    ("loose_tolerance_factor", lambda v: v >= 1.0, ">= 1"),
    ("loose_tolerance_window", lambda v: v >= 1, ">= 1"),
    ("mu_initial", lambda v: v > 0.0, "> 0"),
    ("kappa_epsilon", lambda v: v > 0.0, "> 0"),
    ("kappa_mu", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("theta_mu", lambda v: 1.0 < v < 2.0, "in (1, 2)"),
    ("tau_min", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("interior_push", lambda v: v > 0.0, "> 0"),
    ("backtrack_factor", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("alpha_min", lambda v: v >= np.finfo(float).eps, ">= machine epsilon"),
    ("max_inner", lambda v: v >= 1, ">= 1"),
    ("radius_initial", lambda v: v > 0.0, "> 0"),
    ("radius_min", lambda v: v >= 0.0, ">= 0"),
    ("radius_max", lambda v: v > 0.0, "> 0"),
    ("radius_increase_factor", lambda v: v > 1.0, "> 1"),
    ("radius_decrease_factor", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("activity_tolerance_rel", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    ("filter_capacity", lambda v: v >= 1, ">= 1"),
    ("filter_sigma", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("filter_beta", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("filter_gamma", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("filter_delta", lambda v: v > 0.0, "> 0"),
    ("theta_min_factor", lambda v: v > 0.0, "> 0"),
    # eta_max = factor * max(1, eta0) must admit the starting point
    ("eta_max_factor", lambda v: v >= 1.0, ">= 1"),
    ("armijo_sigma", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("restoration_exit_factor", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("steering_epsilon1", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("steering_epsilon2", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("rho_initial", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("rho_decrease_factor", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("rho_min", lambda v: v > 0.0, "> 0"),
    ("y_max", lambda v: v >= 0.0, ">= 0"),
    ("s_max", lambda v: v > 0.0, "> 0"),
    ("multiplier_scaling_cap", lambda v: v > 0.0, "> 0"),
)


# the options for which inf means something, and what it means; every other
# numeric option must be finite (tolerance = inf would accept any point)
INFINITE_MEANS = {
    "y_max": "keep every least-squares multiplier estimate",
    "s_max": "no function scaling",
    "multiplier_scaling_cap": "residuals without dual scaling",
    "radius_max": "no cap on the trust radius",
    "eta_max_factor": "no upper bound on the constraint violation",
}


def validate_options(opts: Options) -> Options:
    for key, admits, bounds in _RANGES:
        value = getattr(opts, key)
        if not admits(value):
            raise ConfigurationError("option %s must be %s, got %r" % (key, bounds, value))
        if isinstance(value, float) and not math.isfinite(value) and key not in INFINITE_MEANS:
            raise ConfigurationError("option %s must be finite, got %r" % (key, value))
    for option, table in PARTS.items():
        value = getattr(opts, option)
        if value not in table:
            raise ConfigurationError("unknown %s %r" % (option, value))
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


def preprocess_initial_point(start: EvaluationRecord) -> EvaluationRecord:
    """Proximal QP: the closest point to x0 (start's point) satisfying the
    linear constraints and the bounds, returned as its record (start itself
    when the point stays x0 byte for byte). Raises if the linear
    constraints alone are infeasible."""
    model = start.model
    clipped = start.at(np.clip(start.x, model.variable_lower, model.variable_upper))
    rows = list(model.linear_rows)
    if not rows:
        return clipped  # the clipped point is the projection onto the bounds
    x0 = clipped.x
    qp = QPData(
        W=np.eye(model.n),
        g=np.zeros(model.n),
        A=clipped.jac_c[rows],
        b=-clipped.c[rows],
        d_lower=model.variable_lower - x0,
        d_upper=model.variable_upper - x0,
    )
    try:
        sol = qp_solve(qp)
    except QPFailureError:  # an Optimal that fails its KKT check
        return clipped
    if sol.status == INFEASIBLE:
        raise InfeasibleLinearConstraintsError(
            "the linear constraints and bounds are inconsistent"
        )
    if sol.status != OPTIMAL:
        return clipped
    return clipped.at(x0 + sol.d)


def estimate_initial_multipliers(
    start: EvaluationRecord, z0: np.ndarray, y_max: float
) -> np.ndarray:
    """Least-squares estimate of y from the stationarity equation at start's
    point; discarded (y = 0) when it exceeds y_max in the infinity norm or
    the system is singular."""
    m = start.model.m
    if m == 0:
        return np.zeros(0)
    grad, J = start.grad_f, start.jac_c
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(J))):
        return np.zeros(m)
    y0 = least_squares_multipliers(J, grad - z0)
    if float(np.max(np.abs(y0), initial=0.0)) > y_max:
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
    return Residuals(*kkt_residuals(ev, iterate.x, iterate.y, iterate.zl, iterate.zu, ws.bounds,
                                    rho, 0.0, scaling_cap),
                     l1_sign_residual(ev.c, iterate.y))


class TerminationState:
    """Termination tests at opts.tolerance, and the count of consecutive
    iterates that meet the loose tolerance."""

    def __init__(self, opts: Options):
        self.opts = opts
        self.consecutive_loose = 0

    def check(self, res: Residuals, rho: float, steered_to_zero: bool) -> str | None:
        eps = self.opts.tolerance
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
        loose = self.opts.loose_tolerance_factor * eps
        if (
            res.feasibility <= loose
            and res.stationarity <= loose
            and res.complementarity <= loose
        ):
            self.consecutive_loose += 1
            if self.consecutive_loose >= self.opts.loose_tolerance_window:
                return LOOSE_KKT
        else:
            self.consecutive_loose = 0
        return None


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


def _build_ingredients(ws: Workspace, opts: Options):
    """The subproblem, the relaxation and the mechanism the options name
    (the strategy lives inside the relaxation), the subproblem and the
    relaxation built with the workspace; each reads its constants from
    opts. Building them makes no callback call."""
    subproblem = SUBPROBLEMS[opts.subproblem](ws, opts)
    strategy = STRATEGIES[opts.globalization_strategy](opts)
    relaxation = RELAXATIONS[opts.constraint_relaxation_strategy](ws, subproblem, strategy, opts)
    return subproblem, relaxation, MECHANISMS[opts.globalization_mechanism](relaxation, opts)


def solve(model: Model, options: Options | None = None, log=None) -> SolveResult:
    """Run the composed iterative method on the model. A part that cannot go
    on ends the solve with its message: in SmallTrustRegion (a collapsed
    radius at a feasible point), EvaluationError (a non-finite value) or
    IterationLimit."""
    opts = validate_options(options or Options())
    counted, counts = instrument(model)
    start = to_equality_form(EvaluationRecord(counted, counted.initial_point))
    ws, s_f = None, 1.0

    def result(status, x, evals, k=0, y=None, z=None, res=None, rho=1.0, message=""):
        """The result at x with its evaluations; multipliers default to zero."""
        return SolveResult(
            status=status,
            x=x[:model.n].copy(),
            y=np.zeros(model.m) if y is None else y.copy(),
            z=np.zeros(model.n) if z is None else z[:model.n].copy(),
            rho=rho,
            objective_value=evals.f / s_f,
            iterations=k,
            objective_evaluations=counts.objective,
            constraint_evaluations=counts.constraints,
            subproblem_solves=ws.subproblem_solves if ws is not None else 0,
            stationarity=res.stationarity if res else np.nan,
            feasibility=res.feasibility if res else np.nan,
            complementarity=res.complementarity if res else np.nan,
            message=message,
        )

    # x0 is read only as processing the start needs; f is first read where
    # iteration 0 starts, since preprocessing and the interior push may move x0
    if not (np.isfinite(start.c).all() and np.isfinite(start.grad_f).all()
            and np.isfinite(start.jac_c).all()):
        return result(EVALUATION_ERROR, start.x, start,
                      message="IEEE exception at the initial point")

    working, factors, start = scale_functions(start, opts.s_max)
    s_f = factors.s_f
    initial = start

    ws = Workspace(working)
    subproblem, relaxation, mechanism = _build_ingredients(ws, opts)
    try:
        start = preprocess_initial_point(start)
    except InfeasibleLinearConstraintsError as exc:
        # the certificate's residuals: zero multipliers at rho = 0
        zeros = np.zeros(working.n)
        certificate = Iterate(start.x, np.zeros(working.m), zeros, zeros, start)
        res = compute_residuals(ws, certificate, 0.0, opts.multiplier_scaling_cap)
        return result(INFEASIBLE_STATIONARY, start.x, start, res=res, rho=0.0,
                      message=str(exc))

    x0, zl, zu = subproblem.initial_point(start.x)
    start = start.at(x0)
    y0 = estimate_initial_multipliers(start, zl - zu, opts.y_max)
    if not _finite_with_derivatives(start):
        where = "initial point" if start is initial else "preprocessed initial point"
        return result(EVALUATION_ERROR, x0, start, y=y0, z=zl - zu,
                      message="IEEE exception at the " + where)

    iterate = Iterate(x=x0, y=y0, zl=zl, zu=zu, evals=start)
    relaxation.initialize(iterate)
    termination = TerminationState(opts)

    status = None
    res = measured = None  # the residuals, and the iterate they measure
    message = ""
    k = 0
    zero_steps = 0
    for k in range(opts.max_iterations):
        rho = relaxation.measure_rho()
        res, measured = compute_residuals(ws, iterate, rho, opts.multiplier_scaling_cap), iterate
        status = termination.check(res, rho, relaxation.steered_to_zero())
        if status is not None:
            break
        try:
            new_iterate = mechanism.compute_acceptable_iterate(iterate)
        except TinyRadiusError as exc:
            status = SMALL_TRUST_REGION if res.feasibility <= opts.tolerance else ITERATION_LIMIT
            message = str(exc)
            break
        except NonFiniteEvaluationError as exc:  # e.g. an IPM step at an extreme mu
            status, message = EVALUATION_ERROR, str(exc)
            break
        except ModNLPError as exc:  # any other part that cannot go on
            status, message = ITERATION_LIMIT, str(exc)
            break
        if not new_iterate.evals.is_finite:
            status, message = EVALUATION_ERROR, "accepted trial is non-finite"
            break
        step = float(np.abs(new_iterate.x - iterate.x).max(initial=0.0))
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
    if measured is not iterate:  # an iterate accepted in the last iteration
        res = compute_residuals(ws, iterate, relaxation.measure_rho(), opts.multiplier_scaling_cap)
    rho_final = 0.0 if status == INFEASIBLE_STATIONARY else relaxation.measure_rho()
    return result(status, iterate.x, iterate.evals, k, iterate.y, iterate.z, res, rho_final,
                  message)


def _finite_with_derivatives(record: EvaluationRecord) -> bool:
    """Whether f, c, the gradient and the Jacobian at a start point are
    finite."""
    return record.is_finite and bool(
        np.isfinite(record.grad_f).all() and np.isfinite(record.jac_c).all()
    )


def _log_record(k, mechanism, relaxation, iterate) -> dict:
    return {"iteration": k, "objective": iterate.evals.f,
            **relaxation.log_fields(iterate), **mechanism.log_fields()}
