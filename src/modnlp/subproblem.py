"""Local approximations: the SQP/SLP QP (optionally trust-region bounded and
with elastics), and the primal-dual interior-point step with
fraction-to-boundary step caps and barrier-parameter management.
"""
from __future__ import annotations

import math
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
from .state import Bounds


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
    rises; the caller must flush the filter on a decrease. A NaN error
    holds mu. From mu = 1 up, kappa_mu * mu < mu <= mu**theta_mu, so the
    power, which can overflow there, is taken only below 1."""
    if not kkt_error <= kappa_epsilon * mu:
        return mu
    decreased = min(kappa_mu * mu, mu**theta_mu) if mu < 1.0 else kappa_mu * mu
    return min(mu, max(epsilon / 10.0, decreased))


def build_sqp_qp(
    evals: Evaluations,
    hessian: np.ndarray | None,
    x: np.ndarray,
    rho: float,
    bounds: Bounds,
    trust_radius: float,
    schedule: RegularizationSchedule,
) -> tuple[QPData, np.ndarray]:
    """Assemble the QP  min 1/2 d'Wd + rho grad_f'd  s.t. c + Jd = 0,
    bounds on x + d, and ||d||_inf <= trust_radius (inf: no box; a QP
    without a box is made convex).

    W is the given Hessian, or None (an LP) where none is given. Without a
    box (the line-search lineage), a Hessian is shifted to W + delta_w I
    positive definite. Returns (qp, trust-region-active-candidate mask pair).
    """
    n = x.size
    boxed = math.isfinite(trust_radius)
    W = None if hessian is None else np.asarray(hessian, dtype=float)
    if W is not None and not boxed:
        W, _ = make_positive_definite(W, schedule)
    g = rho * np.asarray(evals.grad_f, dtype=float)
    A = np.asarray(evals.jac_c, dtype=float)
    b = -np.asarray(evals.c, dtype=float)
    lb = bounds.lower - x
    ub = bounds.upper - x
    tr_lower = np.zeros(n, dtype=bool)
    tr_upper = np.zeros(n, dtype=bool)
    if boxed:
        tr_lower = -trust_radius > lb
        tr_upper = trust_radius < ub
        lb = np.maximum(lb, -trust_radius)
        ub = np.minimum(ub, trust_radius)
    qp = QPData(W, g, A, b, lb, ub)
    return qp, np.stack([tr_lower, tr_upper])


def fraction_to_boundary(x: np.ndarray, dx: np.ndarray, bounds: Bounds, tau: float) -> float:
    """Largest alpha in (0, 1] with x + alpha dx >= l + (1 - tau)(x - l) and
    x + alpha dx <= u - (1 - tau)(u - x) componentwise, over the finite
    bounds l and u."""
    up = dx > 0.0
    bound = np.where(up, bounds.upper, bounds.lower)
    moving = np.flatnonzero((up | (dx < 0.0))
                            & np.where(up, bounds.upper_finite, bounds.lower_finite))
    ratios = tau * (bound[moving] - x[moving]) / dx[moving]
    return max(float(np.fmin.reduce(ratios, initial=1.0)), 0.0)  # fmin skips NaN


def fraction_to_boundary_dual(zl, dzl, zu, dzu, tau) -> float:
    """Largest alpha in [0, 1] with z + alpha dz >= (1 - tau) z on each
    side: the smallest ratio -tau z / dz over the entries with dz < 0, in
    one pass over both sides. An entry with dz = 0, as at an infinite bound,
    caps nothing, and neither does a side with a NaN ratio."""
    z, dz = np.concatenate((zl, zu)), np.concatenate((dzl, dzu))
    ratios = np.divide(-tau * z, dz, out=np.full(dz.size, np.inf), where=dz < 0.0)
    k = zl.size
    lowest = min(1.0, ratios[:k].min(initial=np.inf), ratios[k:].min(initial=np.inf))
    return max(float(lowest), 0.0)


def push_to_interior(x, bounds: Bounds, kappa: float) -> np.ndarray:
    """Move x strictly inside its finite bounds (at least kappa-relative):
    by kappa max(1, |bound|) from each finite bound, and by at most a
    quarter of the width from either side of a two-sided box."""
    x = np.asarray(x, dtype=float)
    lower, upper = bounds.lower, bounds.upper
    finite_lo, finite_hi = bounds.lower_finite, bounds.upper_finite
    pad_lo = np.where(finite_lo, kappa * np.maximum(1.0, np.abs(lower)), 0.0)
    pad_hi = np.where(finite_hi, kappa * np.maximum(1.0, np.abs(upper)), 0.0)
    box = finite_lo & finite_hi
    quarter = 0.25 * (upper[box] - lower[box])
    pad_lo[box] = np.minimum(pad_lo[box], quarter)
    pad_hi[box] = np.minimum(pad_hi[box], quarter)
    x = np.where(finite_lo, np.maximum(x, lower + pad_lo), x)
    return np.where(finite_hi, np.minimum(x, upper - pad_hi), x)


def initial_bound_multipliers(bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
    """Unit multipliers on the finite bounds, zero on the others."""
    return np.where(bounds.lower_finite, 1.0, 0.0), np.where(bounds.upper_finite, 1.0, 0.0)


def barrier_gradient_terms(x, bounds: Bounds, mu) -> np.ndarray:
    """-mu/(x-l) + mu/(u-x) over the finite bounds (gradient of the barrier)."""
    out = np.zeros(x.size)
    finite_lo, finite_hi = bounds.lower_finite, bounds.upper_finite
    out[finite_lo] -= mu / (x[finite_lo] - bounds.lower[finite_lo])
    out[finite_hi] += mu / (bounds.upper[finite_hi] - x[finite_hi])
    return out


def primal_dual_diagonal(x, bounds: Bounds, zl, zu) -> np.ndarray:
    """Sigma = Zl (X - L)^{-1} + Zu (U - X)^{-1} over the finite bounds."""
    sigma = np.zeros(x.size)
    finite_lo, finite_hi = bounds.lower_finite, bounds.upper_finite
    sigma[finite_lo] += zl[finite_lo] / (x[finite_lo] - bounds.lower[finite_lo])
    sigma[finite_hi] += zu[finite_hi] / (bounds.upper[finite_hi] - x[finite_hi])
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
    bounds: Bounds,
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

    sigma = primal_dual_diagonal(x, bounds, zl, zu)
    H = W.copy()
    H.flat[:: n + 1] += sigma
    barrier = barrier_gradient_terms(x, bounds, mu)
    r_d = grad - (J.T @ y if m else 0.0) + barrier

    fact = inertia_correct(H, J, schedule, _DELTA_C_SCALE * max(mu, 1e-8) ** 0.25)
    rhs = np.concatenate([-r_d, -c])
    sol = solve_factorized(fact, rhs)
    dx = sol[:n]
    dy = -sol[n:]

    dzl = np.zeros(n)
    dzu = np.zeros(n)
    finite_lo, finite_hi = bounds.lower_finite, bounds.upper_finite
    gap_lo = x[finite_lo] - bounds.lower[finite_lo]
    gap_hi = bounds.upper[finite_hi] - x[finite_hi]
    dzl[finite_lo] = (mu - zl[finite_lo] * dx[finite_lo]) / gap_lo - zl[finite_lo]
    dzu[finite_hi] = (mu + zu[finite_hi] * dx[finite_hi]) / gap_hi - zu[finite_hi]

    tau = max(tau_min, 1.0 - mu)
    alpha_x = fraction_to_boundary(x, dx, bounds, tau)
    alpha_z = fraction_to_boundary_dual(zl, dzl, zu, dzu, tau)  # dz = 0 at an infinite bound

    gtd = float(grad @ dx)
    dwd = float(dx @ W @ dx)
    btd = float(-barrier @ dx)
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


def kkt_residuals(
    evals: Evaluations,
    x: np.ndarray,
    y: np.ndarray,
    zl: np.ndarray,
    zu: np.ndarray,
    bounds: Bounds,
    rho: float,
    mu: float,
    scaling_cap: float,
) -> tuple[float, float, float, float]:
    """The residuals of the KKT conditions of the barrier problem at mu
    (mu = 0: of the problem itself) with objective multiplier rho, at
    (x, y, zl, zu): the stationarity rho grad_f - J^T y - (zl - zu) and its
    part at rho = 0, each over s_d (dual_scaling); max |c|; and the
    complementarity, gap * z - mu over the finite bounds and 0 * z at the
    others, over s_d. Each is a largest entry, and a NaN entry makes it NaN.
    The Jacobian is not read when m = 0."""
    finite_lo, finite_hi = bounds.lower_finite, bounds.upper_finite
    stat = rho * np.asarray(evals.grad_f)
    z = zl - zu
    if y.size:
        jty = np.asarray(evals.jac_c).T @ y
        stat -= jty
        stat0 = -jty
        stat0 -= z
    else:
        stat0 = -z  # |-0 - z| = |z|
    stat -= z
    gap_lo = np.where(finite_lo, x - bounds.lower, 0.0)
    gap_lo *= zl
    gap_hi = np.where(finite_hi, bounds.upper - x, 0.0)
    gap_hi *= zu
    np.subtract(gap_lo, mu, out=gap_lo, where=finite_lo)
    np.subtract(gap_hi, mu, out=gap_hi, where=finite_hi)
    s_d = dual_scaling(y, zl, zu, scaling_cap)

    def largest(v):
        return float(np.abs(v, out=v).max(initial=0.0))

    return (largest(stat) / s_d, largest(stat0) / s_d, float(np.abs(evals.c).max(initial=0.0)),
            float(np.maximum(largest(gap_lo), largest(gap_hi))) / s_d)
