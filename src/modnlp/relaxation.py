"""Subproblem methods and constraint relaxation strategies.

The QP, LP and interior-point subproblems are built with the workspace of
the solve, whose bounds carry their finite masks, and answer the same
calls, each carrying only what changes per call: an optimality direction,
a feasibility (elastic) direction at a given rho, and the barrier
questions. Each asks the iterate's evaluation record for the Hessian it
needs (hessian: one evaluation per (rho, y) at a point, however many
steering re-solves or trust-region cycles ask; the LP overrides it to give
None, a QP without W) and returns a finished direction; the
interior-point one owns the elastic barrier problem (elastic_evaluations,
over bounds it makes once) and its smoothed infeasibility. The l1
relaxation with penalty steering and feasibility restoration with phase
switching build the progress measures and reduction models at their rho
(the strategy reads its own measure off them) and drive a subproblem
through these calls alone, without knowing which one it is.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InnerIterationLimitError, QPFailureError
from .globalization import (
    GlobalizationStrategy,
    ProgressMeasures,
    ReductionModels,
    barrier_value,
    infeasibility_armijo,
    sufficient_decrease,
)
from .linalg import (
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    QPData,
    RegularizationSchedule,
    central_elastics,
    extend_with_elastics,
    ldlt_factorize,  # noqa: F401 -- bound here for perfbench/layers.py
    least_squares_multipliers,
    qp_solve,
    solve_factorized,  # noqa: F401 -- bound here for perfbench/layers.py
)
from .model import Evaluations
from .state import Bounds, Iterate, Workspace
from .subproblem import (
    Direction,
    barrier_gradient_terms,
    build_sqp_qp,
    initial_bound_multipliers,
    ipm_solve_step,
    kkt_residuals,
    push_to_interior,
    update_barrier_parameter,
)

OPTIMALITY, RESTORATION = "Optimality", "Restoration"


def l1_sign_residual(c: np.ndarray, y: np.ndarray) -> float:
    """Complementarity-type terms of the l1 error measure: |y_j c_j| on the
    satisfied rows, |(y_j + 1) c_j| where c_j > 0, |(y_j - 1) c_j| where
    c_j < 0; summed in index order."""
    c = np.asarray(c, dtype=float)
    terms = np.abs((np.asarray(y, dtype=float) + np.sign(c)) * c)
    return float(terms.cumsum()[-1]) if terms.size else 0.0


def projected_stationarity_l1(g: np.ndarray, x: np.ndarray, bounds: Bounds) -> float:
    """l1 norm of the distance of g = rho grad_f - J^T y from the multiplier
    cone allowed by the bound activities (the implicit optimal z); summed in
    index order. An infinite bound is never active."""
    g, x = np.asarray(g, dtype=float), np.asarray(x, dtype=float)
    lower, upper = bounds.lower, bounds.upper
    at_lower = bounds.lower_finite & (x - lower <= 1e-5 * (1.0 + np.abs(lower)))
    at_upper = bounds.upper_finite & (upper - x <= 1e-5 * (1.0 + np.abs(upper)))
    terms = np.where(at_lower, np.maximum(-g, 0.0),
                     np.where(at_upper, np.maximum(g, 0.0), np.abs(g)))
    terms[at_lower & at_upper] = 0.0
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def error_measure(
    evals: Evaluations, x: np.ndarray, y: np.ndarray, rho: float, bounds: Bounds
) -> float:
    """E_rho: aggregated dual Fritz John residuals of the l1 problem."""
    g = rho * np.asarray(evals.grad_f) - (np.asarray(evals.jac_c).T @ y if y.size else 0.0)
    return projected_stationarity_l1(g, x, bounds) + l1_sign_residual(evals.c, y)


# ---------------------------------------------------------------------------
# Subproblem methods
# ---------------------------------------------------------------------------


class QPSubproblem:
    """Inequality-constrained QP subproblem solved by the active-set solver,
    built with the workspace it solves in.

    Both calls take the Lagrangian Hessian W_rho they need from the
    iterate's evaluation record (hessian; the LP's is None) and return a
    direction with gtd = grad_f'dx and dwd = dx'W_rho dx (0 for the LP).
    Where the trust region pins a component, the direction takes its bound
    multipliers to zero. Each QP is warm-started from the last optimal
    working set of its kind (optimality or elastic). The elastic QP is given
    only its step start; qp_solve completes the elastics, and an elastic QP
    with no warm set starts with every elastic at zero. There
    is no barrier: mu never changes, the barrier term is 0, and both the
    start and restoration keep the given point with zero multipliers.
    """

    is_interior = False

    def __init__(self, ws: Workspace, opts):
        self.ws = ws
        self.schedule = RegularizationSchedule()
        self.warm_sets = {False: None, True: None}  # the last optimal working set, by elastic

    def hessian(self, iterate, rho) -> np.ndarray | None:
        """W_rho at the iterate's (x, y), from its evaluation record."""
        return iterate.evals.lagrangian_hessian(rho, iterate.y)

    def _direction(self, iterate, rho, trust_radius, elastic, start_dx=None) -> Direction:
        """Build the QP at rho, with elastics if elastic, solve it from the
        last optimal working set of its kind and start_dx, keep the new
        working set and finish the direction. The radius is the step box,
        inf for none (the line search), and a QP without a box has W_rho
        made positive definite."""
        hessian = self.hessian(iterate, rho)
        qp, tr_masks = build_sqp_qp(iterate.evals, hessian, iterate.x, rho, self.ws.bounds,
                                    trust_radius, self.schedule)
        self.ws.subproblem_solves += 1
        sol = qp_solve(extend_with_elastics(qp) if elastic else qp,
                       warm_start=self.warm_sets[elastic], start=start_dx)
        if sol.status == OPTIMAL:
            self.warm_sets[elastic] = sol.active_set
        # dwd's W_rho is the unshifted one, None for the LP
        return _qp_direction(sol, iterate, hessian, trust_radius, tr_masks)

    def optimality_direction(self, iterate, trust_radius) -> Direction:
        return self._direction(iterate, 1.0, trust_radius, elastic=False)

    def feasibility_direction(self, iterate, rho, trust_radius, start_dx=None) -> Direction:
        """Solve the elastic QP (rho possibly 0: the feasibility QP) from the
        step start_dx (zero if None). qp_solve clips it to the step bounds
        and completes its elastics. With the last optimal elastic working
        set, that set is pinned; without one (until an elastic QP has solved
        to optimality), every elastic starts at zero and the step is projected onto J d = -c, or,
        where no projection lands feasible, keeps its exact elastics."""
        return self._direction(iterate, rho, trust_radius, elastic=True, start_dx=start_dx)

    def initial_point(self, x0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The starting point and its lower/upper bound multipliers."""
        return x0, np.zeros(self.ws.model.n), np.zeros(self.ws.model.n)

    def maybe_update_mu(self, iterate, elastic_rho=None) -> bool:
        return False

    def barrier_term(self, x) -> float:
        return 0.0

    def restoration_multipliers(self, iterate) -> np.ndarray:
        return np.zeros_like(iterate.y)

    def log_fields(self) -> dict:
        return {}


class LPSubproblem(QPSubproblem):
    """Sequential linear programming: no second-order information, so no
    Hessian call and dwd = 0 in the merit model of every step.

    An LP needs a step bound. It replaces an infinite radius (the line
    search) with the box min(10, max(1e-8, 2 ||dx||_inf)), dx the last
    nonzero accepted change in x (the iterate's last_step; 10 before the
    first), and so runs the trust region's boxed path: SLP with an
    inf-norm step bound (Fletcher & Sainz de la Maza, Math. Prog. 43,
    1989) and the LP trust region of SLQP (Byrd, Gould, Nocedal & Waltz,
    Math. Prog. 100, 2004)."""

    def hessian(self, iterate, rho) -> None:
        return None

    def _direction(self, iterate, rho, trust_radius, elastic, start_dx=None) -> Direction:
        if not math.isfinite(trust_radius):
            trust_radius = min(10.0, max(1e-8, 2.0 * iterate.last_step))
        return super()._direction(iterate, rho, trust_radius, elastic, start_dx)


def elastic_evaluations(record, y, u, rho, bounds: Bounds, with_hessian=False) -> Evaluations:
    """The elastic problem over (x, u+, u-), u = (u+, u-):

        min  rho f(x) + sum(u+) + sum(u-)
        s.t. c(x) - u+ + u- = 0,  u+ >= 0,  u- >= 0  (plus the bounds on x),

    evaluated at (x, u) in the elastic layout of linalg.extend_with_elastics,
    from the evaluation record of x (the Hessian W_rho at y on request),
    bounds those of x. rho = 0 is the l1 feasibility problem; the elastic
    identity blocks make the constraint Jacobian full row rank everywhere."""
    m = u.size // 2
    W = record.lagrangian_hessian(rho, y) if with_hessian else None
    layout = extend_with_elastics(
        QPData(W, rho * record.grad_f, record.jac_c, -record.c, bounds.lower, bounds.upper)
    )
    f = rho * record.f + float(np.sum(u))
    return Evaluations(f, record.c - u[:m] + u[m:], layout.g, layout.A, layout.W)


class IPMSubproblem:
    """Primal-dual interior-point subproblem on the symmetrized system, with
    the same calls as QPSubproblem, built with the workspace it solves in;
    it also owns the barrier parameter mu (the one copy: each step and
    barrier term is given it) and the elastic barrier problem of its
    feasibility steps, whose bounds over (x, u+, u-) it makes once. Reads
    mu_initial, tau_min, kappa_epsilon, kappa_mu, theta_mu, tolerance,
    interior_push and multiplier_scaling_cap from the options."""

    is_interior = True

    def __init__(self, ws: Workspace, opts):
        self.ws = ws
        self.opts = opts
        self.mu = opts.mu_initial
        self.schedule = RegularizationSchedule()
        # the bounds of the elastic space (x, u+, u-), fixed for the solve
        n, m = ws.model.n, ws.model.m
        layout = extend_with_elastics(QPData(None, np.zeros(n), np.zeros((m, n)), np.zeros(m),
                                             ws.bounds.lower, ws.bounds.upper))
        self.elastic_bounds = Bounds(layout.d_lower, layout.d_upper)

    def initial_point(self, x0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """x0 pushed strictly inside its bounds, with unit multipliers on the
        finite bounds."""
        x0 = push_to_interior(x0, self.ws.bounds, self.opts.interior_push)
        zl, zu = initial_bound_multipliers(self.ws.bounds)
        return x0, zl, zu

    def maybe_update_mu(self, iterate, elastic_rho=None) -> bool:
        """Decrease mu when the barrier problem being solved (the elastic one
        at elastic_rho during relaxation or restoration) is converged to its
        mu-tolerance; a NaN part of its error holds mu."""
        opts = self.opts
        if elastic_rho is None:
            problem = (iterate.evals, iterate.x, iterate.zl, iterate.zu, self.ws.bounds)
        else:
            problem = self._elastic_problem(iterate, elastic_rho)
        evals, x, zl, zu, bounds = problem
        previous = self.mu
        stationarity, _, feasibility, complementarity = kkt_residuals(
            evals, x, iterate.y, zl, zu, bounds, 1.0, previous, opts.multiplier_scaling_cap
        )
        error = float(np.max((stationarity, feasibility, complementarity)))
        self.mu = update_barrier_parameter(
            previous, error, opts.tolerance, opts.kappa_epsilon, opts.kappa_mu, opts.theta_mu
        )
        return self.mu < previous

    def barrier_term(self, x) -> float:
        return barrier_value(x, self.ws.bounds, self.mu)

    def log_fields(self) -> dict:
        return {"mu": self.mu}

    def optimality_direction(self, iterate, trust_radius) -> Direction:
        self.ws.subproblem_solves += 1
        return ipm_solve_step(
            iterate.evals.with_hessian(1.0, iterate.y), iterate.x, iterate.y, iterate.zl,
            iterate.zu, self.ws.bounds, self.mu, self.schedule, self.opts.tau_min,
        )

    def _elastic_problem(self, iterate, rho, with_hessian=False):
        """The elastic problem at rho at the iterate lifted to the elastic
        space (re-seeded every step): its evaluations, the lifted point w, the
        bound multipliers of w and the bounds of w. The elastic values are on
        the central path (central_elastics), so w is strictly interior with
        exact equality residuals and mu-consistent complementarity."""
        mu = self.mu
        u = np.concatenate(central_elastics(iterate.evals.c, mu))
        eev = elastic_evaluations(iterate.evals, iterate.y, u, rho, self.ws.bounds, with_hessian)
        w = np.concatenate([iterate.x, u])
        zl_full = np.concatenate([iterate.zl, mu / u])
        zu_full = np.concatenate([iterate.zu, np.zeros(u.size)])
        return eev, w, zl_full, zu_full, self.elastic_bounds

    def feasibility_direction(self, iterate, rho, trust_radius, start_dx=None) -> Direction:
        """Step of the barrier problem on the elastic problem at rho, with gtd
        and dwd of the base model: the x-block of the elastic Hessian is the
        base W at rho. An interior step has no trust region or start."""
        n = self.ws.model.n
        eev, w, zl, zu, bounds = self._elastic_problem(iterate, rho, with_hessian=True)
        self.ws.subproblem_solves += 1
        full = ipm_solve_step(
            eev, w, iterate.y, zl, zu, bounds, self.mu, self.schedule, self.opts.tau_min
        )
        dx = full.dx[:n]
        return Direction(
            dx=dx,
            dy=full.dy,
            dzl=full.dzl[:n],
            dzu=full.dzu[:n],
            status=full.status,
            alpha_max=full.alpha_max,
            dual_scale=full.dual_scale,
            gtd=float(np.asarray(iterate.evals.grad_f) @ dx),
            dwd=float(dx @ eev.hessian[:n, :n] @ dx),
        )

    def restoration_multipliers(self, iterate) -> np.ndarray:
        """Least-squares multipliers of the l1 feasibility problem (the
        elastic problem at rho = 0): without them the restoration Hessian has
        no curvature in the unbounded primal block."""
        eev, _, zl, zu, _ = self._elastic_problem(iterate, 0.0)
        y = least_squares_multipliers(np.asarray(eev.jac_c), np.asarray(eev.grad_f) - (zl - zu))
        return np.clip(y, -1.0, 1.0)  # elastic multipliers live in [-1, 1]

    def smoothed_infeasibility_armijo(self, iterate, trial, direction, alpha, sigma) -> bool:
        """Sufficient decrease of the barrier-smoothed infeasibility, the
        elastic barrier objective at rho = 0 with the elastic block
        eliminated at its central values: sum(u+ + u- - mu log(u+ u-)) plus
        the x-block barrier. An interior restoration step targets it, and it
        can fall where raw eta rises near an l1 kink."""
        mu = self.mu

        def smoothed(x, c):
            u_plus, u_minus = central_elastics(c, mu)
            if np.any(u_plus <= 0.0) or np.any(u_minus <= 0.0):
                return np.inf
            value = float(np.sum(u_plus + u_minus) - mu * np.sum(np.log(u_plus) + np.log(u_minus)))
            return value + barrier_value(x, self.ws.bounds, mu)

        c = np.asarray(iterate.evals.c, dtype=float)
        u_plus, _ = central_elastics(c, mu)
        y_central = mu / u_plus - 1.0
        grad = -(np.asarray(iterate.evals.jac_c).T @ y_central) + barrier_gradient_terms(
            iterate.x, self.ws.bounds, mu
        )
        slope = float(grad @ direction.dx)
        if slope >= 0.0:
            return False
        current_value = smoothed(iterate.x, c)
        trial_value = smoothed(trial.x, np.asarray(trial.evals.c))
        return sufficient_decrease(current_value, trial_value, sigma * (-slope) * alpha)


def _qp_direction(sol, iterate, W, trust_radius, tr_masks) -> Direction:
    dx = sol.d[:iterate.x.size].copy()
    gtd = float(np.asarray(iterate.evals.grad_f) @ dx)
    dwd = 0.0 if W is None else float(dx @ W @ dx)
    if sol.status != OPTIMAL:
        return Direction(
            dx=dx,
            dy=np.zeros_like(iterate.y),
            dzl=np.zeros_like(iterate.zl),
            dzu=np.zeros_like(iterate.zu),
            status=sol.status,
            gtd=gtd,
            dwd=dwd,
        )
    n = dx.size
    z_hat = sol.multipliers_bounds[:n]
    zl_hat = np.maximum(z_hat, 0.0)
    zu_hat = np.maximum(-z_hat, 0.0)
    if math.isfinite(trust_radius):
        # a component the trust region pins has no bound multiplier
        tol = 1e-10 * max(1.0, trust_radius)
        pinned = ((tr_masks[0][:n] & (dx <= -trust_radius + tol))
                  | (tr_masks[1][:n] & (dx >= trust_radius - tol)))
        zl_hat[pinned] = zu_hat[pinned] = 0.0
    return Direction(
        dx=dx,
        dy=sol.multipliers_eq - iterate.y,
        dzl=zl_hat - iterate.zl,
        dzu=zu_hat - iterate.zu,
        status=OPTIMAL,
        gtd=gtd,
        dwd=dwd,
    )


# ---------------------------------------------------------------------------
# Relaxation strategies
# ---------------------------------------------------------------------------


class ConstraintRelaxationStrategy:
    """Base: owns the subproblem method and the globalization strategy; builds
    the progress measures and reduction models its strategy reads."""

    def __init__(self, ws: Workspace, subproblem, strategy: GlobalizationStrategy):
        self.ws = ws
        self.subproblem = subproblem
        self.strategy = strategy
        self._zero_tol = 5e-15

    # -- measures -----------------------------------------------------------

    def measure_rho(self) -> float:
        return 1.0

    def steered_to_zero(self) -> bool:
        """Whether the objective multiplier was driven to its floor (the
        limit is then a Fritz John point)."""
        return False

    def log_fields(self, iterate: Iterate) -> dict:
        """eta, rho, the strategy's measure and the subproblem's fields at
        the iterate."""
        measures = self.measures_from(iterate)
        return {"eta": measures.eta, "rho": measures.rho,
                **self.strategy.log_fields(measures), **self.subproblem.log_fields()}

    def measures_from(self, iterate: Iterate) -> ProgressMeasures:
        f = float(iterate.evals.f)  # f is evaluated before c
        return ProgressMeasures(float(np.abs(iterate.evals.c).sum()), f, self.measure_rho(),
                                float(self.subproblem.barrier_term(iterate.x)))

    def reduction_models(self, iterate: Iterate, direction: Direction, rho=None) -> ReductionModels:
        """The models of a step along the direction, at the given rho
        (default: the relaxation's)."""
        return ReductionModels(
            c=np.asarray(iterate.evals.c, dtype=float),
            jd=np.asarray(iterate.evals.jac_c, dtype=float) @ direction.dx,
            gtd=direction.gtd,
            dwd=direction.dwd,
            rho=self.measure_rho() if rho is None else rho,
            btd=direction.btd,
            dbd=direction.dbd,
        )

    def _is_zero_step(self, iterate: Iterate, direction: Direction) -> bool:
        scale = 1.0 + float(np.abs(iterate.x).max(initial=0.0))
        return float(np.abs(direction.dx).max(initial=0.0)) <= self._zero_tol * scale

    def _barrier_elastic_rho(self):
        """The rho of the elastic problem whose barrier problem is currently
        being solved, or None for the original problem."""
        return None

    def _maybe_update_barrier(self, iterate: Iterate) -> bool:
        if not self.subproblem.maybe_update_mu(iterate, self._barrier_elastic_rho()):
            return False
        # filter entries depend on mu through xi: flush on every update
        self.strategy.reset()
        return True

    def initialize(self, iterate: Iterate) -> None:
        self.strategy.initialize(float(np.abs(iterate.evals.c).sum()))

    # -- interface used by the mechanisms ------------------------------------

    def compute_direction(self, iterate: Iterate, trust_radius=math.inf) -> Direction:
        raise NotImplementedError

    def acceptance_test(self, iterate: Iterate, direction: Direction):
        """The test of the trials along direction from iterate, a function
        of (trial, alpha) that says whether the trial is accepted. What does
        not depend on the trial is computed here, once per direction: the
        zero-step test (a zero step is accepted), the iterate's measures and
        the reduction models. What the test reads of the relaxation's state
        (a phase, the strategy's memory) it reads at each call, since an
        earlier trial may have changed it."""
        if self._is_zero_step(iterate, direction):
            return lambda trial, alpha: True
        current = self.measures_from(iterate)
        models = self.reduction_models(iterate, direction)

        def accepts(trial: Iterate, alpha: float) -> bool:
            return self._accepts(current, self.measures_from(trial), models, alpha,
                                 iterate, trial, direction)

        return accepts

    def _accepts(self, current, trial_m, models, alpha, iterate, trial, direction) -> bool:
        """The decision on one trial, given the iterate's measures, the
        trial's and the models: the strategy's."""
        return self.strategy.check_acceptance(current, trial_m, models, alpha)

    def handle_small_step(self, iterate: Iterate) -> Direction | None:
        return None


class L1Relaxation(ConstraintRelaxationStrategy):
    """Penalty steering on the smooth elastic l1 relaxation (inverse penalty
    parameter rho, held here alone, decreases until the step makes
    sufficient progress on the linearized infeasibility and the merit
    model). Reads rho_initial,
    rho_min, rho_decrease_factor and steering_epsilon1/2 from the options,
    and max_inner: the most rho reductions one direction may take."""

    def __init__(self, ws, subproblem, strategy, opts):
        super().__init__(ws, subproblem, strategy)
        self.opts = opts
        self.rho = opts.rho_initial
        self._feas_tol = 1e-9

    def measure_rho(self) -> float:
        return self.rho

    def steered_to_zero(self) -> bool:
        return self.rho <= self.opts.rho_min

    def _barrier_elastic_rho(self):
        return self.rho

    def _solve_at(self, iterate: Iterate, rho: float, trust_radius):
        """Direction of the elastic subproblem at the given rho."""
        direction = self.subproblem.feasibility_direction(iterate, rho, trust_radius)
        if direction.status in (UNBOUNDED, ITERATION_LIMIT):
            raise QPFailureError("elastic QP failed with status " + direction.status)
        return direction

    def compute_direction(self, iterate: Iterate, trust_radius=math.inf) -> Direction:
        self._maybe_update_barrier(iterate)
        opts = self.opts
        l0 = float(np.abs(np.asarray(iterate.evals.c, dtype=float)).sum())
        feas_tol = self._feas_tol * (1.0 + l0)

        def solve_at(rho):
            """The direction at rho, its models and l(d) = ||c + J d||_1."""
            direction = self._solve_at(iterate, rho, trust_radius)
            models = self.reduction_models(iterate, direction, rho)
            return direction, models, models.linearized_eta(1.0)

        direction, models, l_d = solve_at(self.rho)
        info = {"steered": False, "rho": self.rho, "l0": l0, "l_d": l_d}
        if l_d <= feas_tol:
            direction.info = info
            return direction

        # Steering (the penalty update may involve several subproblem solves).
        info["steered"] = True
        d_bar, models_bar, l_bar = solve_at(0.0)
        if l_bar > l0 + feas_tol:
            # a nonconvex subproblem returned a feasibility step that worsens
            # the linearization; no rho can be blamed for that, so leave the
            # penalty alone and let the globalization mechanism recover
            info.update(steered=False, skipped="feasibility step made no progress")
            direction.info = info
            return direction
        dm0_bar = models_bar.merit_reduction(1.0)
        reductions = 0

        def conditions(solved):
            """The two steering conditions of a solve, and its merit model's
            reduction."""
            _, models, l_d = solved
            if l_bar <= feas_tol:
                cond1 = l_d <= feas_tol
            else:
                cond1 = l0 - l_d >= opts.steering_epsilon1 * (l0 - l_bar) - 1e-12 * (1.0 + l0)
            dm = models.merit_reduction(1.0)
            cond2 = dm >= opts.steering_epsilon2 * dm0_bar - 1e-12 * (1.0 + abs(dm0_bar))
            return cond1, cond2, dm

        def reduce_while(unmet, rho, solved, held):
            """Reduce rho and re-solve while unmet(cond1, cond2) and rho >
            rho_min; returns the last rho, solve and conditions."""
            nonlocal reductions
            while unmet(*held[:2]) and rho > opts.rho_min:
                # a factor near 1 would take ~1e17 re-solves to reach rho_min
                reductions += 1
                if reductions > opts.max_inner:
                    raise InnerIterationLimitError(
                        "steering exceeded %d penalty reductions" % opts.max_inner
                    )
                rho *= opts.rho_decrease_factor
                solved = solve_at(rho)
                held = conditions(solved)
            return rho, solved, held

        solved = (direction, models, l_d)
        state = reduce_while(lambda cond1, cond2: not cond1, self.rho, solved, conditions(solved))
        state = reduce_while(lambda cond1, cond2: cond1 and not cond2, *state)
        rho, (direction, _, l_d), (cond1, cond2, dm) = state
        if not (cond1 and cond2) and d_bar.status == OPTIMAL:
            # nonconvex subproblems can defeat the steering conditions at any
            # rho; the collapse carries no evidence, so take the pure
            # feasibility step instead and keep the entry penalty
            info.update(skipped="steering conditions unattainable", l_bar=l_bar)
            d_bar.info = info
            return d_bar

        # Cap by the scaled dual FJ residual at the feasibility multipliers.
        # The cap only means something when even the pure feasibility step
        # cannot zero the linearized constraints (E_0 vanishes at any
        # linearized-feasible point, which would spuriously collapse rho).
        y_bar = iterate.y + d_bar.dy
        e0 = error_measure(iterate.evals, iterate.x, y_bar, 0.0, self.ws.bounds)
        cap = (e0 / max(1.0, l0)) ** 2 if l_bar > feas_tol else np.inf
        if cap < rho:
            rho = max(cap, opts.rho_min)
            solved = solve_at(rho)
            state = reduce_while(lambda cond1, cond2: not (cond1 and cond2),
                                 rho, solved, conditions(solved))
            rho, (direction, _, l_d), (cond1, cond2, dm) = state

        self.rho = rho
        info.update(rho=rho, l_d=l_d, l_bar=l_bar, dm0_bar=dm0_bar, cap=cap,
                    cond1=cond1, cond2=cond2, dm=dm)
        direction.info = info
        return direction


class FeasibilityRestoration(ConstraintRelaxationStrategy):
    """Optimality phase on the original problem; on subproblem infeasibility
    (or a collapsed line-search step) temporarily minimize the l1
    infeasibility through the elastic feasibility subproblem. Restoration
    steps are accepted on the strategy's own sigma. How restoration ends
    depends on the subproblem (is_interior), not on the mechanism. With an
    active-set subproblem (QP or LP, under LS or TR), each restoration
    direction also probes the optimality subproblem, and a trial returns to
    optimality, before the strategy's test, once that one was feasible and
    the trial beats the least infeasibility the strategy remembers. With an
    interior subproblem, an accepted trial returns once it is admitted by
    the strategy and eta falls by opts.restoration_exit_factor.

    Each choice was measured against an alternative on the identity grid
    (tools/identity_grid.py --benchmark --seeded 2). Two exit rules stay:
    the interior one for both kinds, without the probe, costs 2% more
    objective calls (8% from seeded starts), and FR + LP + waechter + TR
    loses a right answer. The smoothed test stays: without it interior
    restorations lose their infeasible2 certificates. The interior exit is
    measured from the current eta: from eta at entry (IPOPT's
    required_infeasibility_reduction), hs014 under FR + IPM + l1_merit +
    LS ends in a false InfeasibleStationary.
    """

    def __init__(self, ws, subproblem, strategy, opts):
        super().__init__(ws, subproblem, strategy)
        self.phase = OPTIMALITY
        self.reference: ProgressMeasures | None = None  # measures on entering restoration
        self.restoration_exit_factor = opts.restoration_exit_factor
        self._optimality_feasible = False

    def log_fields(self, iterate: Iterate) -> dict:
        return {**super().log_fields(iterate), "phase": self.phase}

    def _barrier_elastic_rho(self):
        # restoration solves the l1 feasibility problem: the elastic one at rho = 0
        return 0.0 if self.phase == RESTORATION else None

    def _enter_restoration(self, iterate: Iterate) -> None:
        self.phase = RESTORATION
        self.reference = self.measures_from(iterate)
        self.strategy.register_current(self.reference)
        # the restoration problem has its own multipliers; carrying over
        # (possibly diverging) optimality multipliers poisons its Hessian
        iterate.y = self.subproblem.restoration_multipliers(iterate)

    def _exit_restoration(self, iterate_measures: ProgressMeasures) -> None:
        self.phase = OPTIMALITY
        self.strategy.register_current(iterate_measures)

    def compute_direction(self, iterate: Iterate, trust_radius=math.inf) -> Direction:
        self._maybe_update_barrier(iterate)
        if self.phase == RESTORATION:
            return self._restoration_direction(iterate, trust_radius)
        direction = self.subproblem.optimality_direction(iterate, trust_radius)
        if direction.status == OPTIMAL:
            return direction
        if direction.status in (UNBOUNDED, ITERATION_LIMIT):
            raise QPFailureError("optimality QP failed with status " + direction.status)
        # infeasible linearization: switch to restoration
        self._enter_restoration(iterate)
        return self._restoration_direction(iterate, trust_radius, start_dx=direction.dx)

    def _restoration_direction(self, iterate, trust_radius, start_dx=None) -> Direction:
        if not self.subproblem.is_interior:
            # the active-set switch back to optimality needs to know whether
            # the optimality subproblem is feasible at this point and radius
            probe = self.subproblem.optimality_direction(iterate, trust_radius)
            self._optimality_feasible = probe.status == OPTIMAL
        direction = self.subproblem.feasibility_direction(
            iterate, 0.0, trust_radius, start_dx=start_dx
        )
        if direction.status != OPTIMAL:
            raise QPFailureError(
                "feasibility QP unexpectedly failed with status " + direction.status
            )
        return direction

    def _accepts(self, current, trial_m, models, alpha, iterate, trial, direction) -> bool:
        if self.phase == OPTIMALITY:
            return self.strategy.check_acceptance(current, trial_m, models, alpha)

        if not self.subproblem.is_interior:
            # an active-set subproblem (QP or LP, either mechanism): return
            # to optimality before the acceptance test once the optimality
            # subproblem is feasible and the trial beats the least
            # infeasibility the strategy remembers
            least = self.strategy.least_infeasibility(self.reference)
            if self._optimality_feasible and trial_m.eta < least:
                self._exit_restoration(current)
                return self.strategy.check_acceptance(current, trial_m, models, alpha)
            return infeasibility_armijo(current, trial_m, models, alpha, self.strategy.sigma)

        # an interior subproblem: its restoration step targets the barrier-
        # smoothed infeasibility, which can move raw eta the wrong way near
        # an l1 kink; accept on sufficient smoothed decrease too
        sigma = self.strategy.sigma
        accepted = infeasibility_armijo(current, trial_m, models, alpha, sigma) or (
            self.subproblem.smoothed_infeasibility_armijo(
                iterate, trial, direction, alpha, sigma)
        )
        if (
            accepted
            and self.strategy.admits(trial_m)
            and trial_m.eta <= self.restoration_exit_factor * current.eta
        ):
            # the interior switch-back: eta fell by the exit factor
            self._exit_restoration(current)
        return accepted

    def handle_small_step(self, iterate: Iterate) -> Direction | None:
        if self.phase == OPTIMALITY:
            self._enter_restoration(iterate)
            self._maybe_update_barrier(iterate)
        elif not self._maybe_update_barrier(iterate):
            # the restoration barrier problem may simply be over-smoothed for
            # the current point: retry after a barrier decrease, fail otherwise
            return None
        return self._restoration_direction(iterate, math.inf)
