"""Outer solver loop: option handling, presets, preprocessing, composition
and validation of the four ingredients, termination, and IEEE-exception
recovery policy.
"""
from __future__ import annotations

import difflib
import math
import numbers
import warnings
from dataclasses import dataclass, field, fields, replace

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


# each declared type's class: the class of its default, and the parser of a
# string value (options file, -option)
_CLASSES = {"int": int, "float": float, "str": str}
# the numbers each numeric type admits
_NUMBERS = {"int": numbers.Integral, "float": numbers.Real}


def _option(default, interval: str, inf: str | None = None):
    """A numeric Options field: its default, the interval it admits, each end
    open or closed ("(0, 1]", "[eps, inf)", eps being machine epsilon), and,
    where it is closed at inf, what inf means; an interval open at inf
    refuses inf (tolerance = inf would accept any point)."""
    return field(default=default, metadata={"interval": interval, "inf": inf})


@dataclass
class Options:
    """Every hyperparameter of the solver, and the only place that gives one
    a default: each part takes this object and reads its own constants from
    it. Loadable from file and overridable on the command line (command line
    beats file beats preset beats these defaults). Each numeric option is
    declared once, with its type, default, admitted interval and, for the
    five that admit inf, what inf means; validate_options refuses a value
    outside the interval or of another type (a string, None, a bool, or a
    float for an int option)."""

    constraint_relaxation_strategy: str = "feasibility_restoration"
    subproblem: str = "QP"
    globalization_strategy: str = "leyffer_filter_method"
    globalization_mechanism: str = "TR"

    tolerance: float = _option(1e-6, "(0, inf)")
    max_iterations: int = _option(1000, "[1, inf)")
    loose_tolerance_factor: float = _option(100.0, "[1, inf)")
    loose_tolerance_window: int = _option(15, "[1, inf)")

    armijo_sigma: float = _option(1e-4, "(0, 1)")
    filter_sigma: float = _option(1e-8, "(0, 1)")
    filter_delta: float = _option(1.0, "(0, inf)")
    filter_beta: float = _option(0.999, "(0, 1)")
    filter_gamma: float = _option(1e-3, "(0, 1)")
    filter_capacity: int = _option(200, "[1, inf)")
    theta_min_factor: float = _option(1e-4, "(0, inf)")
    # eta_max = factor * max(1, eta0) must admit the starting point
    eta_max_factor: float = _option(1e4, "[1, inf]", "no upper bound on the constraint violation")
    restoration_exit_factor: float = _option(0.9, "(0, 1]")

    steering_epsilon1: float = _option(0.1, "(0, 1)")
    steering_epsilon2: float = _option(0.1, "(0, 1)")
    rho_initial: float = _option(1.0, "(0, 1]")
    rho_decrease_factor: float = _option(0.1, "(0, 1)")
    rho_min: float = _option(1e-14, "(0, inf)")

    mu_initial: float = _option(0.1, "(0, inf)")
    kappa_epsilon: float = _option(10.0, "(0, inf)")
    kappa_mu: float = _option(0.2, "(0, 1)")
    theta_mu: float = _option(1.5, "(1, 2)")
    tau_min: float = _option(0.99, "(0, 1)")
    interior_push: float = _option(1e-2, "(0, inf)")

    backtrack_factor: float = _option(0.5, "(0, 1)")
    alpha_min: float = _option(1e-7, "[eps, inf)")
    max_inner: int = _option(50, "[1, inf)")

    radius_initial: float = _option(10.0, "(0, inf)")
    radius_min: float = _option(1e-16, "[0, inf)")
    radius_max: float = _option(1e30, "(0, inf]", "no cap on the trust radius")
    radius_increase_factor: float = _option(2.0, "(1, inf)")
    radius_decrease_factor: float = _option(0.5, "(0, 1)")
    activity_tolerance_rel: float = _option(1e-10, "[0, 1)")

    y_max: float = _option(1e3, "[0, inf]", "keep every least-squares multiplier estimate")
    s_max: float = _option(100.0, "(0, inf]", "no function scaling")
    multiplier_scaling_cap: float = _option(100.0, "(0, inf]", "residuals without dual scaling")

    def updated(self, mapping: dict) -> "Options":
        """A copy with mapping's values. A string (as the options file and
        -option give) is parsed as its option's declared type; any other
        value is kept as given, for validate_options to judge."""
        known = {f.name: f.type for f in fields(self)}
        values = {}
        for key, raw in mapping.items():
            if key not in known:
                near = difflib.get_close_matches(key, known, n=3)
                hint = (" did you mean: " + ", ".join(near) + "?") if near else ""
                raise UnknownOptionError("unknown option %r;%s" % (key, hint))
            try:
                values[key] = _CLASSES[known[key]](raw) if isinstance(raw, str) else raw
            except ValueError as exc:
                raise ConfigurationError("option %s: cannot parse %r" % (key, raw)) from exc
        return replace(self, **values)


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


def _has_type(value, kind: str) -> bool:
    """Whether value is a number of the kind "int" (integral) or "float"
    (real); a bool is neither."""
    return isinstance(value, _NUMBERS[kind]) and not isinstance(value, bool)


def _admits(kind: str, interval: str):
    """The test that a value has the type kind and lies in interval."""
    low, high = (float(np.finfo(float).eps) if end == "eps" else float(end)
                 for end in interval[1:-1].split(", "))
    low_closed, high_closed = interval[0] == "[", interval[-1] == "]"
    exact = _CLASSES[kind]  # the common case, tested without a call
    return lambda v: ((type(v) is exact or _has_type(v, kind))
                      and (low < v or low_closed and v == low)
                      and (v < high or high_closed and v == high))


def _refusal(option, value) -> str:
    """Why validate_options refuses value for a numeric option."""
    interval = option.metadata["interval"]
    low, high = interval[1:-1].split(", ")
    if not _has_type(value, option.type):
        bounds = "an integer" if option.type == "int" else "a number"
    elif high != "inf":
        bounds = "in " + interval
    elif value == math.inf:
        bounds = "finite"
    else:
        bounds = (">= " if interval[0] == "[" else "> ") + low.replace("eps", "machine epsilon")
    return "option %s must be %s, got %r" % (option.name, bounds, value)


# (option, its field, the test of its value) for each numeric option
_NUMERIC = tuple((f.name, f, _admits(f.type, f.metadata["interval"]))
                 for f in fields(Options) if f.metadata)


def validate_options(opts: Options) -> Options:
    for key, option, admits in _NUMERIC:
        value = getattr(opts, key)
        if not admits(value):
            raise ConfigurationError(_refusal(option, value))
    for option, table in PARTS.items():
        value = getattr(opts, option)
        if not (isinstance(value, str) and value in table):
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

    def result(status, x, f, k=0, y=None, z=None, res=None, rho=1.0, message=""):
        """The result at x with objective value f; multipliers default to zero."""
        return SolveResult(
            status=status,
            x=x[:model.n].copy(),
            y=np.zeros(model.m) if y is None else y.copy(),
            z=np.zeros(model.n) if z is None else z[:model.n].copy(),
            rho=rho,
            objective_value=f / s_f,
            iterations=k,
            objective_evaluations=counts.objective,
            constraint_evaluations=counts.constraints,
            subproblem_solves=ws.subproblem_solves if ws is not None else 0,
            stationarity=res.stationarity if res else np.nan,
            feasibility=res.feasibility if res else np.nan,
            complementarity=res.complementarity if res else np.nan,
            message=message,
        )

    # x0 is read only as processing the start needs, f first where iteration 0
    # starts (preprocessing and the interior push may move x0): no f at this exit
    if not (np.isfinite(start.c).all() and np.isfinite(start.grad_f).all()
            and np.isfinite(start.jac_c).all()):
        return result(EVALUATION_ERROR, start.x, np.nan,
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
        return result(INFEASIBLE_STATIONARY, start.x, start.f, res=res, rho=0.0,
                      message=str(exc))

    x0, zl, zu = subproblem.initial_point(start.x)
    start = start.at(x0)
    y0 = estimate_initial_multipliers(start, zl - zu, opts.y_max)
    if not _finite_with_derivatives(start):
        where = "initial point" if start is initial else "preprocessed initial point"
        return result(EVALUATION_ERROR, x0, start.f, y=y0, z=zl - zu,
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
    return result(status, iterate.x, iterate.evals.f, k, iterate.y, iterate.z, res, rho_final,
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
