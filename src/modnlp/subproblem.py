"""Local approximations: the SQP/SLP QP (optionally trust-region bounded and
with elastics), and the primal-dual interior-point step with
fraction-to-boundary step caps and barrier-parameter management.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteEvaluationError
from .linalg import (
    OPTIMAL,
    QPData,
    RegularizationSchedule,
    inertia_correct,
    make_positive_definite,
    solve_factorized,
)
from .model import Evaluations


@dataclass
class Direction:
    """Primal-dual direction with step caps and reduction-model ingredients.

    dy is the change of the equality multipliers; dzl/dzu are the changes of
    the bound multipliers (lower/upper side). alpha_max is 1 for SQP/LP
    subproblems and the primal fraction-to-boundary value for IPM; dual_scale
    is the corresponding dual step length (bound multipliers always step by
    dual_scale, independently of the backtracked primal step).
    """

    dx: np.ndarray
    dy: np.ndarray
    dzl: np.ndarray
    dzu: np.ndarray
    status: str
    alpha_max: float = 1.0
    dual_scale: float = 1.0
    gtd: float = 0.0
    dwd: float = 0.0
    btd: float = 0.0
    dbd: float = 0.0
    info: dict = field(default_factory=dict)


def update_barrier_parameter(
    mu: float,
    kkt_error: float,
    epsilon: float,
    kappa_epsilon: float,
    kappa_mu: float,
    theta_mu: float,
) -> float:
    """The next monotone (Fiacco-McCormick) barrier parameter: mu decreases
    once the barrier-problem KKT error is below kappa_epsilon * mu, and never
    rises; the caller must flush the filter on a decrease."""
    if kkt_error > kappa_epsilon * mu:
        return mu
    return min(mu, max(epsilon / 10.0, min(kappa_mu * mu, mu**theta_mu)))


def build_sqp_qp(
    evals: Evaluations,
    x: np.ndarray,
    rho: float,
    lower: np.ndarray,
    upper: np.ndarray,
    trust_radius: float | None = None,
    regularize: bool = False,
    schedule: RegularizationSchedule | None = None,
    second_order: bool = True,
) -> tuple[QPData, np.ndarray]:
    """Assemble the QP  min 1/2 d'Wd + rho grad_f'd  s.t. c + Jd = 0,
    bounds on x + d, and optionally ||d||_inf <= trust_radius.

    With regularize, W is shifted to W + delta_w I positive definite (the
    line-search lineage requirement). With second_order False the QP is an LP
    (W = 0). Returns (qp, trust-region-active-candidate mask pair).
    """
    n = x.size
    if second_order:
        W = np.asarray(evals.hessian, dtype=float)
    else:
        W = np.zeros((n, n))
    if regularize and second_order:
        W, _ = make_positive_definite(W, schedule or RegularizationSchedule())
    g = rho * np.asarray(evals.grad_f, dtype=float)
    A = np.asarray(evals.jac_c, dtype=float)
    b = -np.asarray(evals.c, dtype=float)
    lb = lower - x
    ub = upper - x
    tr_lower = np.zeros(n, dtype=bool)
    tr_upper = np.zeros(n, dtype=bool)
    if trust_radius is not None and np.isfinite(trust_radius):
        tr_lower = -trust_radius > lb
        tr_upper = trust_radius < ub
        lb = np.maximum(lb, -trust_radius)
        ub = np.minimum(ub, trust_radius)
    qp = QPData(W, g, A, b, lb, ub)
    return qp, np.stack([tr_lower, tr_upper])


def fraction_to_boundary(
    x: np.ndarray,
    dx: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    tau: float,
) -> float:
    """Largest alpha in (0, 1] with x + alpha dx >= l + (1 - tau)(x - l) and
    x + alpha dx <= u - (1 - tau)(u - x) componentwise."""
    up = dx > 0.0
    bound = np.where(up, upper, lower)
    moving = np.flatnonzero((up | (dx < 0.0)) & np.isfinite(bound))
    ratios = tau * (bound[moving] - x[moving]) / dx[moving]
    return max(float(np.fmin.reduce(ratios, initial=1.0)), 0.0)  # fmin skips NaN


def fraction_to_boundary_dual(zl, dzl, zu, dzu, tau) -> float:
    alpha = 1.0
    for z, dz in ((zl, dzl), (zu, dzu)):
        neg = dz < 0.0
        if np.any(neg):
            alpha = min(alpha, float(np.min(-tau * z[neg] / dz[neg])))
    return max(min(alpha, 1.0), 0.0)


def push_to_interior(x, lower, upper, kappa: float) -> np.ndarray:
    """Move x strictly inside its finite bounds (at least kappa-relative):
    by kappa max(1, |bound|) from each finite bound, and by at most a
    quarter of the width from either side of a two-sided box."""
    x = np.asarray(x, dtype=float)
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    finite_lo, finite_hi = np.isfinite(lower), np.isfinite(upper)
    pad_lo = np.where(finite_lo, kappa * np.maximum(1.0, np.abs(lower)), 0.0)
    pad_hi = np.where(finite_hi, kappa * np.maximum(1.0, np.abs(upper)), 0.0)
    box = finite_lo & finite_hi
    quarter = 0.25 * (upper[box] - lower[box])
    pad_lo[box] = np.minimum(pad_lo[box], quarter)
    pad_hi[box] = np.minimum(pad_hi[box], quarter)
    x = np.where(finite_lo, np.maximum(x, lower + pad_lo), x)
    return np.where(finite_hi, np.minimum(x, upper - pad_hi), x)


def initial_bound_multipliers(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    zl = np.where(np.isfinite(lower), 1.0, 0.0)
    zu = np.where(np.isfinite(upper), 1.0, 0.0)
    return zl, zu


def barrier_gradient_terms(x, lower, upper, mu) -> np.ndarray:
    """-mu/(x-l) + mu/(u-x) over the finite bounds (gradient of the barrier)."""
    out = np.zeros(x.size)
    finite_lo = np.isfinite(lower)
    finite_hi = np.isfinite(upper)
    out[finite_lo] -= mu / (x[finite_lo] - lower[finite_lo])
    out[finite_hi] += mu / (upper[finite_hi] - x[finite_hi])
    return out


def primal_dual_diagonal(x, lower, upper, zl, zu) -> np.ndarray:
    """Sigma = Zl (X - L)^{-1} + Zu (U - X)^{-1} over the finite bounds."""
    sigma = np.zeros(x.size)
    finite_lo = np.isfinite(lower)
    finite_hi = np.isfinite(upper)
    sigma[finite_lo] += zl[finite_lo] / (x[finite_lo] - lower[finite_lo])
    sigma[finite_hi] += zu[finite_hi] / (upper[finite_hi] - x[finite_hi])
    return sigma


# the constraint regularization dc = 1e-8 mu^(1/4) of a rank-deficient
# Jacobian (Waechter and Biegler, 2006)
_DELTA_C_SCALE = 1e-8


def ipm_solve_step(
    evals: Evaluations,
    x: np.ndarray,
    y: np.ndarray,
    zl: np.ndarray,
    zu: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    mu: float,
    schedule: RegularizationSchedule,
    tau_min: float,
) -> Direction:
    """One primal-dual interior-point step: assemble and solve the
    symmetrized system

        [[W + Sigma + dw I, J^T], [J, -dc I]] (dx, -dy) = -(r_d, c),

    with r_d = grad_f - J^T y - barrier gradient terms, recover the bound
    dual directions, and apply the fraction-to-boundary rule. The system is
    inertia-corrected to (n, m, 0). mu is the barrier parameter, and the
    fraction-to-boundary parameter is tau = max(tau_min, 1 - mu).
    """
    if not evals.is_finite:
        raise NonFiniteEvaluationError("IPM step requires finite evaluations")
    n = x.size
    m = y.size
    W = np.asarray(evals.hessian, dtype=float)
    J = np.asarray(evals.jac_c, dtype=float)
    c = np.asarray(evals.c, dtype=float)
    grad = np.asarray(evals.grad_f, dtype=float)

    sigma = primal_dual_diagonal(x, lower, upper, zl, zu)
    H = W.copy()
    H.flat[:: n + 1] += sigma
    r_d = grad - (J.T @ y if m else 0.0) + barrier_gradient_terms(x, lower, upper, mu)

    fact = inertia_correct(
        H, J, schedule, delta_c_value=_DELTA_C_SCALE * max(mu, 1e-8) ** 0.25
    )
    rhs = np.concatenate([-r_d, -c])
    sol = solve_factorized(fact, rhs)
    dx = sol[:n]
    dy = -sol[n:]

    finite_lo = np.isfinite(lower)
    finite_hi = np.isfinite(upper)
    dzl = np.zeros(n)
    dzu = np.zeros(n)
    gap_lo = x[finite_lo] - lower[finite_lo]
    gap_hi = upper[finite_hi] - x[finite_hi]
    dzl[finite_lo] = (mu - zl[finite_lo] * dx[finite_lo]) / gap_lo - zl[finite_lo]
    dzu[finite_hi] = (mu + zu[finite_hi] * dx[finite_hi]) / gap_hi - zu[finite_hi]

    tau = max(tau_min, 1.0 - mu)
    alpha_x = fraction_to_boundary(x, dx, lower, upper, tau)
    alpha_z = fraction_to_boundary_dual(zl[finite_lo], dzl[finite_lo], zu[finite_hi], dzu[finite_hi], tau)

    gtd = float(grad @ dx)
    dwd = float(dx @ W @ dx)
    btd = float(-barrier_gradient_terms(x, lower, upper, mu) @ dx)
    dbd = float(dx @ H @ dx)
    return Direction(
        dx=dx,
        dy=dy,
        dzl=dzl,
        dzu=dzu,
        status=OPTIMAL,
        alpha_max=alpha_x,
        dual_scale=alpha_z,
        gtd=gtd,
        dwd=dwd,
        btd=btd,
        dbd=dbd,
    )


def dual_scaling(y: np.ndarray, zl: np.ndarray, zu: np.ndarray, scaling_cap: float) -> float:
    """s_d = max(1, (sum |y| + sum |zl| + sum |zu|) / (cap max(1, n + m))),
    n = zl.size and m = y.size: the divisor of the dual residuals in the
    termination and barrier tests (Waechter & Biegler, Math. Prog. 106,
    2006, s_d with s_max = cap)."""
    mass = float(np.abs(y).sum() + np.abs(zl).sum() + np.abs(zu).sum())
    return max(1.0, mass / (scaling_cap * max(1, zl.size + y.size)))


def barrier_kkt_error(
    evals: Evaluations,
    x: np.ndarray,
    y: np.ndarray,
    zl: np.ndarray,
    zu: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    mu: float,
    scaling_cap: float,
) -> float:
    """Scaled KKT error of the barrier problem (drives the mu update)."""
    m = y.size
    grad = np.asarray(evals.grad_f, dtype=float)
    J = np.asarray(evals.jac_c, dtype=float)
    stat = grad - (J.T @ y if m else 0.0) - zl + zu
    finite_lo = np.isfinite(lower)
    finite_hi = np.isfinite(upper)
    comp_lo = (x[finite_lo] - lower[finite_lo]) * zl[finite_lo] - mu
    comp_hi = (upper[finite_hi] - x[finite_hi]) * zu[finite_hi] - mu
    s_d = dual_scaling(y, zl, zu, scaling_cap)
    parts = [float(np.max(np.abs(stat), initial=0.0)) / s_d]
    parts.append(float(np.max(np.abs(evals.c), initial=0.0)))
    parts.append(float(np.max(np.abs(comp_lo), initial=0.0)) / s_d)
    parts.append(float(np.max(np.abs(comp_hi), initial=0.0)) / s_d)
    return max(parts)
