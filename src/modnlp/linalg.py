"""Self-contained dense linear algebra: inertia and solves of symmetric
indefinite matrices on LAPACK (eigenvalues for the inertia, LU for the
solves), inertia correction of saddle-point matrices, and a primal
active-set solver for (possibly nonconvex) QPs with equality constraints and
box bounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QPFailureError, RegularizationFailedError, SingularMatrixError


@dataclass
class Factorization:
    """A symmetric matrix with its eigenvalues and inertia, ready to solve.

    The inertia counts the eigenvalues above zero_tol, below -zero_tol and
    in between. When row_scaling is set, matrix is diag(s) M diag(s)
    (congruent, hence same inertia) and solves undo the scaling.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    inertia: tuple[int, int, int]
    zero_tol: float
    row_scaling: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_zero(self) -> int:
        return self.inertia[2]


def _zero_tol(max_abs: float, n: int) -> float:
    """Eigenvalues within this of zero count as zero: wide enough to absorb
    roundoff on exactly singular input, far below any meaningful eigenvalue
    at desk scale."""
    return max(1.0, max_abs) * np.finfo(float).eps * 1000.0 * max(10.0, float(n))


def _eigenvalues(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix A (LAPACK syevd);
    non-finite input raises SingularMatrixError."""
    if not np.all(np.isfinite(A)):
        raise SingularMatrixError("matrix has non-finite entries")
    try:
        return np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("eigenvalues did not converge") from exc


def ldlt_factorize(M: np.ndarray) -> Factorization:
    """Inertia of a dense symmetric matrix from its eigenvalues, kept with
    the matrix for an LU solve by solve_factorized.

    Singular matrices are handled: eigenvalues within zero_tol are recorded
    as zero rather than raised. Non-finite entries raise
    SingularMatrixError.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    A = 0.5 * (M + M.T)  # work on an exactly symmetric copy
    eigenvalues = _eigenvalues(A)
    zero_tol = _zero_tol(float(np.max(np.abs(A), initial=0.0)), n)
    n_plus = int(np.count_nonzero(eigenvalues > zero_tol))
    n_minus = int(np.count_nonzero(eigenvalues < -zero_tol))
    inertia = (n_plus, n_minus, n - n_plus - n_minus)
    return Factorization(A, eigenvalues, inertia, zero_tol)


def ldlt_factorize_scaled(M: np.ndarray) -> Factorization:
    """Factorize after symmetric equilibration diag(s) M diag(s), s_i =
    1/sqrt(max |row i|). Congruence preserves the inertia while making the
    zero-eigenvalue classification meaningful on badly scaled saddle
    systems."""
    M = np.asarray(M, dtype=float)
    row_max = np.max(np.abs(M), axis=1, initial=0.0)
    s = 1.0 / np.sqrt(np.maximum(row_max, 1e-300))
    fact = ldlt_factorize(M * np.outer(s, s))
    fact.row_scaling = s
    return fact


def solve_factorized(fact: Factorization, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs by LU with partial pivoting (LAPACK gesv) on the
    matrix of fact; a zero eigenvalue or an exactly zero LU pivot raises
    SingularMatrixError."""
    if fact.n_zero > 0:
        raise SingularMatrixError("matrix is singular (%d zero eigenvalues)" % fact.n_zero)
    rhs = np.asarray(rhs, dtype=float)
    s = fact.row_scaling
    if s is not None:
        rhs = rhs * s
    try:
        x = np.linalg.solve(fact.matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is singular (zero LU pivot)") from exc
    return x * s if s is not None else x


@dataclass
class RegularizationSchedule:
    """State of the primal regularization schedule.

    Candidates are 0, then a third of the last successful value, then growing
    by a fixed factor until the hard limit.
    """

    last_successful: float = 3e-4
    growth: float = 8.0
    limit: float = 1e40

    def candidates(self):
        yield 0.0
        delta = max(self.last_successful / 3.0, 1e-10)
        while delta <= self.limit:
            yield delta
            delta *= self.growth

    def record_success(self, delta: float) -> None:
        if delta > 0.0:
            self.last_successful = delta


def assemble_kkt(H: np.ndarray, A: np.ndarray, delta_w: float, delta_c: float) -> np.ndarray:
    n = H.shape[0]
    m = A.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    if delta_w:
        K[:n, :n] += delta_w * np.eye(n)
    if m:
        K[n:, :n] = A
        K[:n, n:] = A.T
        if delta_c:
            K[n:, n:] = -delta_c * np.eye(m)
    return K


def inertia_correct(
    H: np.ndarray,
    A: np.ndarray,
    schedule: RegularizationSchedule,
    delta_c_value: float = 1e-8,
) -> tuple[Factorization, float, float]:
    """Regularize the KKT matrix [[H + dw I, A^T], [A, -dc I]] until its
    inertia is exactly (n, m, 0).

    dc is switched on only when zero eigenvalues indicate a rank-deficient A.
    """
    n = H.shape[0]
    m = A.shape[0]
    target = (n, m, 0)
    delta_c = 0.0
    for delta_w in schedule.candidates():
        fact = ldlt_factorize_scaled(assemble_kkt(H, A, delta_w, delta_c))
        if fact.inertia == target:
            schedule.record_success(delta_w)
            return fact, delta_w, delta_c
        if fact.n_zero > 0 and delta_c == 0.0 and m > 0:
            delta_c = delta_c_value
            fact = ldlt_factorize_scaled(assemble_kkt(H, A, delta_w, delta_c))
            if fact.inertia == target:
                schedule.record_success(delta_w)
                return fact, delta_w, delta_c
    raise RegularizationFailedError("regularization schedule exhausted")


def make_positive_definite(
    W: np.ndarray, schedule: RegularizationSchedule
) -> tuple[np.ndarray, float]:
    """Return (W + delta_w I, delta_w) with the first scheduled delta_w that
    makes the matrix positive definite, tightened by a short bisection so the
    shift does not overshoot the schedule's growth factor.

    One eigenvalue computation answers every probe: W + delta I passes
    ldlt_factorize's inertia test when lambda_min(W) + delta exceeds the
    zero tolerance of the shifted matrix."""
    n = W.shape[0]
    A = 0.5 * (W + W.T)
    lambda_min = float(_eigenvalues(A)[0]) if n else np.inf
    diagonal = np.diag(A)
    off_diagonal = float(np.max(np.abs(A - np.diag(diagonal)), initial=0.0))

    def is_pd(delta):
        max_abs = max(off_diagonal, float(np.max(np.abs(diagonal + delta), initial=0.0)))
        return lambda_min + delta > _zero_tol(max_abs, n)

    previous = 0.0
    for delta_w in schedule.candidates():
        if is_pd(delta_w):
            if delta_w > 0.0:
                lo, hi = previous, delta_w
                for _ in range(8):
                    mid = 0.5 * (lo + hi)
                    if is_pd(mid):
                        hi = mid
                    else:
                        lo = mid
                delta_w = hi
            schedule.record_success(delta_w)
            return W + delta_w * np.eye(n) if delta_w else W, delta_w
        previous = delta_w
    raise RegularizationFailedError("could not make Hessian positive definite")


# ---------------------------------------------------------------------------
# Active-set QP solver
# ---------------------------------------------------------------------------

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITERATION_LIMIT = "IterationLimit"

_FREE, _LOWER, _UPPER = 0, 1, 2


@dataclass
class QPData:
    """min 1/2 d^T W d + g^T d  s.t.  A d = b,  d_lower <= d <= d_upper."""

    W: np.ndarray
    g: np.ndarray
    A: np.ndarray
    b: np.ndarray
    d_lower: np.ndarray
    d_upper: np.ndarray

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def m(self) -> int:
        return self.b.size


def extend_with_elastics(qp: QPData) -> QPData:
    """Append elastic columns: constraints become c + Jd - u+ + u- = 0 with
    u+,u- >= 0 and unit objective weight; the extension is always feasible.
    This is the solver's one elastic layout, columns ordered (d, u+, u-)."""
    n, m = qp.n, qp.m
    ne = n + 2 * m
    W = np.zeros((ne, ne))
    W[:n, :n] = qp.W
    g = np.concatenate([qp.g, np.ones(2 * m)])
    A = np.hstack([qp.A, -np.eye(m), np.eye(m)])
    lb = np.concatenate([qp.d_lower, np.zeros(2 * m)])
    ub = np.concatenate([qp.d_upper, np.full(2 * m, np.inf)])
    return QPData(W, g, A, qp.b, lb, ub)


def elastic_init(c_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative parts of c: u+ = max(c, 0), u- = max(-c, 0)."""
    c = np.asarray(c_values, dtype=float)
    return np.maximum(c, 0.0), np.maximum(-c, 0.0)


def central_elastics(c_values: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Elastics on the central path of the barrier problem: the positive
    solution of u+ - u- = c, mu/u+ + mu/u- = 2 (the bound multipliers of a
    stationary elastic pair sum to its unit weights twice), i.e.
    u- = ((mu - c) + sqrt(c^2 + mu^2)) / 2 and u+ = c + u- (Waechter &
    Biegler, Math. Prog. 106, 2006, restoration phase). The smaller of the
    pair is evaluated as (mu + mu^2 / (sqrt(c^2 + mu^2) + |c|)) / 2, which
    does not cancel when |c| >> mu; the larger is that plus |c|."""
    c = np.asarray(c_values, dtype=float)
    small = 0.5 * (mu + mu * mu / (np.sqrt(c * c + mu * mu) + np.abs(c)))
    large = small + np.abs(c)
    return np.where(c >= 0.0, large, small), np.where(c >= 0.0, small, large)


@dataclass
class QPSolution:
    status: str
    d: np.ndarray
    multipliers_eq: np.ndarray
    multipliers_bounds: np.ndarray
    active_set: tuple[tuple[int, int], ...]
    objective_value: float
    iterations: int = 0


def _eqp_solve(W, g, A, b, d, codes, schedule):
    """Solve the equality-constrained QP on the current working set.

    Fixed variables stay at their bound value in d. Returns (q_free, y,
    delta_w) where q_free is the subproblem minimizer over the free variables
    (proximal regularization by delta_w about the current point when the
    reduced Hessian is not positive definite).
    """
    n = g.size
    m = b.size
    free = np.flatnonzero(codes == _FREE)
    fixed = np.flatnonzero(codes != _FREE)
    nf = free.size

    rhs2 = b - (A[:, fixed] @ d[fixed] if (m and fixed.size) else np.zeros(m))
    g_eff = g[free] + (W[np.ix_(free, fixed)] @ d[fixed] if fixed.size else 0.0)

    if nf == 0:
        if m:
            y, *_ = np.linalg.lstsq(A.T, W @ d + g, rcond=None)
        else:
            y = np.zeros(0)
        return d[free], y, 0.0

    A_f = A[:, free] if m else np.zeros((0, nf))
    W_ff = W[np.ix_(free, free)]

    for delta_w in schedule.candidates():
        K = assemble_kkt(W_ff, A_f, delta_w, 0.0)
        fact = ldlt_factorize_scaled(K)
        if fact.inertia == (nf, m, 0):
            rhs = np.concatenate([-g_eff + delta_w * d[free], rhs2])
            sol = solve_factorized(fact, rhs)
            schedule.record_success(delta_w)
            return sol[:nf], -sol[nf:], delta_w
        if fact.n_zero > 0 and delta_w > 0.0:
            # A_f is row rank deficient; the system is consistent because the
            # current point is feasible, so take the least-squares solution
            # (of the equilibrated system, for accuracy).
            s = fact.row_scaling
            rhs = np.concatenate([-g_eff + delta_w * d[free], rhs2])
            sol, *_ = np.linalg.lstsq(K * np.outer(s, s), s * rhs, rcond=None)
            sol = s * sol
            schedule.record_success(delta_w)
            return sol[:nf], -sol[nf:], delta_w
    raise RegularizationFailedError("EQP regularization failed")


def _active_set_loop(W, g, A, b, d, codes, lb, ub, schedule, max_iter, feas_tol):
    """Primal active-set iteration from a feasible point d with working set codes."""
    n = g.size
    m = b.size
    step_tol = 1e-13
    opt_tol = 1e-10 * (1.0 + float(np.max(np.abs(g))) if n else 1.0)
    y = np.zeros(m)
    bland = False
    stall = 0

    def objective(v):
        return 0.5 * v @ W @ v + g @ v

    last_obj = objective(d)
    for iteration in range(max_iter):
        free = np.flatnonzero(codes == _FREE)
        q_free, y, delta_w = _eqp_solve(W, g, A, b, d, codes, schedule)
        p = np.zeros(n)
        p[free] = q_free - d[free]
        p_norm = float(np.max(np.abs(p))) if n else 0.0

        # the working-set stationarity residual left by taking the full step
        # is (W + delta I) p on the free variables; regularized solves can
        # carry p-noise of order 1/delta, so test the residual, not p
        if free.size:
            stat_res = float(
                np.max(np.abs(W[np.ix_(free, free)] @ p[free] + delta_w * p[free]))
            )
        else:
            stat_res = 0.0
        d_scale = 1.0 + (float(np.max(np.abs(d))) if n else 0.0)
        if p_norm <= step_tol * d_scale or stat_res <= 0.1 * opt_tol:
            # Stationary on the working set: price the active bounds.
            z = W @ d + g - (A.T @ y if m else 0.0)
            signed = np.where(codes == _LOWER, z, np.where(codes == _UPPER, -z, np.inf))
            candidates = np.flatnonzero(signed < -opt_tol)
            if candidates.size == 0:
                return OPTIMAL, d, y, iteration + 1
            if bland:
                leave = int(candidates[0])
            else:
                leave = int(candidates[np.argmin(signed[candidates])])
            codes[leave] = _FREE
            continue

        # Maximum feasible step along p.
        t_block = np.inf
        blocker = -1
        blocker_side = _LOWER
        for i in free:
            if p[i] > step_tol and np.isfinite(ub[i]):
                t = (ub[i] - d[i]) / p[i]
                if t < t_block - 1e-15:
                    t_block, blocker, blocker_side = t, i, _UPPER
            elif p[i] < -step_tol and np.isfinite(lb[i]):
                t = (lb[i] - d[i]) / p[i]
                if t < t_block - 1e-15:
                    t_block, blocker, blocker_side = t, i, _LOWER
        t_block = max(t_block, 0.0)

        if delta_w == 0.0:
            t_full = 1.0
        else:
            kappa = float(p @ W @ p)
            if kappa > step_tol * float(p @ p):
                t_full = (kappa + delta_w * float(p @ p)) / kappa
            else:
                t_full = np.inf

        if t_block < t_full:
            d += t_block * p
            if blocker >= 0:
                d[blocker] = ub[blocker] if blocker_side == _UPPER else lb[blocker]
                codes[blocker] = blocker_side
        else:
            if not np.isfinite(t_full):
                return UNBOUNDED, d, y, iteration + 1
            d += t_full * p

        obj = objective(d)
        if obj >= last_obj - 1e-14 * (1.0 + abs(last_obj)):
            stall += 1
            if stall > 3 * (n + m):
                bland = True
        else:
            stall = 0
        last_obj = obj

    return ITERATION_LIMIT, d, y, max_iter


def qp_solve(
    qp: QPData,
    warm_start=None,
    max_iter: int | None = None,
    start: np.ndarray | None = None,
) -> QPSolution:
    """Solve a dense QP with equality constraints and box bounds.

    Phase I minimizes the elastic infeasibility of the equalities, so
    inconsistent constraints are reported as Infeasible (with the partial
    point) rather than raised. With W = 0 the method acts as an LP solver.
    Nonconvex QPs terminate at first-order stationary points. warm_start
    pins the given (index, side) bounds as the initial working set; start
    seeds the initial point.
    """
    W = np.asarray(qp.W, dtype=float)
    g = np.asarray(qp.g, dtype=float)
    A = np.asarray(qp.A, dtype=float).reshape(qp.m, qp.n)
    b = np.asarray(qp.b, dtype=float)
    lb = np.asarray(qp.d_lower, dtype=float)
    ub = np.asarray(qp.d_upper, dtype=float)
    n, m = qp.n, qp.m
    if max_iter is None:
        max_iter = 100 * (n + m + 10)
    feas_tol = 1e-10 * (1.0 + float(np.max(np.abs(b))) if m else 1.0)

    if np.any(lb > ub):
        return QPSolution(INFEASIBLE, np.zeros(n), np.zeros(m), np.zeros(n), (), np.nan)

    d0 = np.zeros(n) if start is None else np.asarray(start, dtype=float).copy()
    if warm_start:
        for idx, side in warm_start:
            if 0 <= idx < n:
                if side == _LOWER and np.isfinite(lb[idx]):
                    d0[idx] = lb[idx]
                elif side == _UPPER and np.isfinite(ub[idx]):
                    d0[idx] = ub[idx]
    d0 = np.clip(d0, lb, ub)
    schedule = RegularizationSchedule()

    residual = (b - A @ d0) if m else np.zeros(0)
    phase1_iters = 0
    if m and float(np.max(np.abs(residual))) > feas_tol:
        # Phase I: the elastic QP with zero W and g, from exact elastics.
        phase1 = extend_with_elastics(QPData(np.zeros((n, n)), np.zeros(n), A, b, lb, ub))
        d1 = np.concatenate([d0, *elastic_init(-residual)])
        codes1 = np.full(d1.size, _FREE, dtype=np.int8)
        codes1[np.flatnonzero(np.abs(d1 - phase1.d_lower) <= 1e-12)] = _LOWER
        status1, d1, _, phase1_iters = _active_set_loop(
            phase1.W, phase1.g, phase1.A, b, d1, codes1, phase1.d_lower, phase1.d_upper,
            schedule, max_iter, feas_tol,
        )
        infeasibility = float(np.sum(d1[n:]))
        if status1 != OPTIMAL or infeasibility > 100.0 * feas_tol * (1 + m):
            return QPSolution(
                INFEASIBLE, d1[:n], np.zeros(m), np.zeros(n), (), np.nan, phase1_iters
            )
        d0 = np.clip(d1[:n], lb, ub)

    codes = np.full(n, _FREE, dtype=np.int8)
    at_lower = np.isfinite(lb) & (np.abs(d0 - lb) <= 1e-12 * (1.0 + np.abs(lb)))
    at_upper = np.isfinite(ub) & (np.abs(d0 - ub) <= 1e-12 * (1.0 + np.abs(ub)))
    codes[at_upper] = _UPPER
    codes[at_lower] = _LOWER  # ties prefer the lower bound
    d0 = np.where(codes == _LOWER, lb, np.where(codes == _UPPER, ub, d0))

    status, d, y, iters = _active_set_loop(
        W, g, A, b, d0, codes, lb, ub, schedule, max_iter, feas_tol
    )
    z = W @ d + g - (A.T @ y if m else 0.0)
    z = np.where(codes == _FREE, 0.0, z)
    active = tuple(
        (int(i), int(codes[i])) for i in np.flatnonzero(codes != _FREE)
    )
    objective = float(0.5 * d @ W @ d + g @ d)
    solution = QPSolution(status, d, y, z, active, objective, iters + phase1_iters)
    if status == OPTIMAL:
        _verify_kkt(qp, solution)
    return solution


def _verify_kkt(qp: QPData, sol: QPSolution) -> None:
    """Check the QPSolution KKT contract before returning Optimal; raise
    QPFailureError on a violation.

    The stated tolerances apply to well-scaled data; a backward-error term
    covers the floating-point floor of badly scaled instances (it is
    negligible when the data is O(1))."""
    W, g, A, b = qp.W, qp.g, np.atleast_2d(qp.A), qp.b
    d, y, z = sol.d, sol.multipliers_eq, sol.multipliers_bounds
    eps = np.finfo(float).eps
    d_norm = float(np.max(np.abs(d), initial=0.0))
    y_norm = float(np.max(np.abs(y), initial=0.0))
    w_norm = float(np.max(np.abs(W), initial=0.0))
    a_norm = float(np.max(np.abs(A), initial=0.0))
    n = qp.n
    floor_stat = 100.0 * eps * n * (w_norm * d_norm + a_norm * y_norm)
    floor_feas = 100.0 * eps * n * a_norm * max(d_norm, 1.0)
    tol_stat = 1e-8 * (1.0 + float(np.max(np.abs(g))) if g.size else 1.0) + floor_stat
    tol_feas = 1e-8 * (1.0 + float(np.max(np.abs(b))) if b.size else 1.0) + floor_feas
    stat = W @ d + g - (A.T @ y if qp.m else 0.0) - z
    if not float(np.max(np.abs(stat), initial=0.0)) <= tol_stat:  # NaN fails too
        raise QPFailureError("QP stationarity violated")
    if qp.m and not float(np.max(np.abs(A @ d - b))) <= tol_feas:
        raise QPFailureError("QP feasibility violated")
    if not (np.all(d >= qp.d_lower - 1e-9) and np.all(d <= qp.d_upper + 1e-9)):
        raise QPFailureError("QP bounds violated")
    gap_l = np.where(np.isfinite(qp.d_lower), d - qp.d_lower, np.inf)
    gap_u = np.where(np.isfinite(qp.d_upper), qp.d_upper - d, np.inf)
    gap = np.minimum(gap_l, gap_u)
    comp = np.where(z == 0.0, 0.0, np.abs(z) * np.where(np.isfinite(gap), gap, 0.0))
    if not float(np.max(comp, initial=0.0)) <= 1e-8 * (1.0 + float(np.max(np.abs(z), initial=0.0))):
        raise QPFailureError("QP complementarity violated")
    sign_ok = np.where(
        np.isclose(gap_l, 0.0, atol=1e-9), z >= -1e-8,
        np.where(np.isclose(gap_u, 0.0, atol=1e-9), z <= 1e-8, np.abs(z) <= 1e-8),
    )
    if not bool(np.all(sign_ok)):
        raise QPFailureError("QP bound multiplier signs violated")
