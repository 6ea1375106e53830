"""Self-contained dense linear algebra: inertia and solves of symmetric
indefinite matrices on LAPACK, inertia correction of saddle-point matrices,
and a primal active-set solver for (possibly nonconvex) QPs with equality
constraints and box bounds. Where its start misses A d = b and W is not
zero, its phase II starts at the minimizer of the start's working set when
that equality-constrained QP is regular and its minimizer lies in the box,
and else at an iterated projection onto A d = b. An elastic QP
(extend_with_elastics) with no warm set starts with its elastics at zero,
and where neither point is taken, from the step with exact elastics, a
feasible point of the layout. Any other QP runs the elastic phase I where
neither is taken: for an LP, and where no projection lands feasible.

Every saddle-point system [[H + delta_w I, A^T], [A, -delta_c I]] goes
through _kkt_factorization. Its certificate proves the inertia (n, m, 0)
and solves with the same factors. A diagonal H (a multiple of I, as in the
QP's elastic phase I and the least-squares multipliers, or the diagonal
W + Sigma of an interior-point step) takes the range-space proof: one
Cholesky factorization of the Gram matrix B X^-1 B^T of order m. Any other
H takes the null-space proof, and so does a diagonal H that the range-space
proof refuses: Cholesky factorizations of the Gram matrix A A^T and of the
reduced Hessian Z^T H Z, with Z a basis of null(A) projected from a fixed
start through the Gram factor, so that no complete QR is formed. The
triangular factors are inverted by halves (_triangular_inverse), so no LU
inverse of a factor of order above 32 is left on the certified path. The
eigenvalues and an LU decide
elsewhere: below its order gates, at delta_c > 0, and where both proofs
refuse (m = 0, a rank-deficient A, or a reduced Hessian that is not
positive definite).

The active-set loop solves a working set's KKT system only to step, and
stops each step at the first smallest blocking ratio: at the minimizer it
reaches by a full step at delta_w = 0, or starts from, it prices the bounds
with the multipliers of the solve that gave the point. The residual of its
last pricing becomes the bound multipliers and the stationarity residual
that the KKT check reads.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import QPFailureError, RegularizationFailedError, SingularMatrixError


@dataclass
class Factorization:
    """A symmetric matrix with its inertia, ready to solve.

    The inertia counts the eigenvalues above zero_tol, below -zero_tol and
    in between: from the eigenvalues of matrix, or from the factors that
    prove it for a KKT matrix, which then solve (solve; matrix None). With
    row_scaling s, matrix is diag(s) M diag(s) (congruent, hence same
    inertia) and solves undo the scaling.
    """

    matrix: np.ndarray | None
    inertia: tuple[int, int, int]
    zero_tol: float
    row_scaling: np.ndarray | None = None
    solve: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def n_zero(self) -> int:
        return self.inertia[2]


_EPS = float(np.finfo(float).eps)


def _zero_tol(max_abs: float, n: int) -> float:
    """Eigenvalues within this of zero count as zero: wide enough to absorb
    roundoff on exactly singular input, far below any meaningful eigenvalue
    at desk scale."""
    return max(1.0, max_abs) * _EPS * 1000.0 * max(10.0, float(n))


def _eigenvalues(A: np.ndarray, max_abs: float) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix A (LAPACK syevd), given
    max_abs = max |A|. Non-finite input raises SingularMatrixError: a NaN or
    inf entry makes max_abs NaN or inf. (Test max_abs, not the zero_tol made
    from it: max(1.0, nan) is 1.0.)"""
    if not max_abs < np.inf:
        raise SingularMatrixError("matrix has non-finite entries")
    try:
        return np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("eigenvalues did not converge") from exc


def _symmetrized(M: np.ndarray) -> tuple[np.ndarray, float]:
    """An exactly symmetric copy 0.5 (M + M^T) of the square matrix M, and
    its largest magnitude (NaN or inf when an entry is not finite)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    A = M + M.T
    A *= 0.5
    return A, float(np.abs(A).max(initial=0.0))


def ldlt_factorize(M: np.ndarray) -> Factorization:
    """Inertia of a dense symmetric matrix from its eigenvalues, kept with
    the matrix for an LU solve by solve_factorized.

    Singular matrices are handled: eigenvalues within zero_tol are recorded
    as zero rather than raised. Non-finite entries raise
    SingularMatrixError.
    """
    A, max_abs = _symmetrized(M)
    eigenvalues = _eigenvalues(A, max_abs)  # ascending
    order = A.shape[0]
    zero_tol = _zero_tol(max_abs, order)
    n_minus = int(eigenvalues.searchsorted(-zero_tol))
    n_plus = order - int(eigenvalues.searchsorted(zero_tol, "right"))
    return Factorization(A, (n_plus, n_minus, order - n_plus - n_minus), zero_tol)


def ldlt_factorize_scaled(M: np.ndarray) -> Factorization:
    """Factorize after symmetric equilibration diag(s) M diag(s), s_i =
    1/sqrt(max |row i|). Congruence preserves the inertia while making the
    zero-eigenvalue classification meaningful on badly scaled saddle
    systems."""
    M = np.asarray(M, dtype=float)
    s = 1.0 / np.sqrt(np.maximum(np.abs(M).max(axis=1, initial=0.0), 1e-300))
    scaled = s[:, None] * s
    scaled *= M
    fact = ldlt_factorize(scaled)
    fact.row_scaling = s
    return fact


def _shifted(M: np.ndarray, t: float) -> np.ndarray:
    """A new array M + t I."""
    shifted = np.array(M)
    shifted.flat[:: M.shape[0] + 1] += t
    return shifted


def _cholesky_shift(n: int, h_max: float, t: float) -> float:
    """t + eta, eta a bound in norm on the backward error of a Cholesky or
    QR factorization, its solves and the products with its factors, for an
    order-n matrix with entries at most h_max, shifted by t."""
    return t + 4.0 * (n + 1) * n * _EPS * (h_max + t)


def _schur_margin(n: int, m: int) -> float:
    """Bound on the roundoff of forming the order-m Gram matrix G of m rows
    of length n and of factorizing it, relative to its diagonal: the error
    is at most margin * D^2 with D^2 = diag(G) in the order of matrices,
    since each entry's is at most about n eps sqrt(G_ii G_jj)."""
    return 2.0 * m * (n + m + 2) * _EPS


# Triangular blocks up to this order go to np.linalg.inv whole: a split
# saves nothing there (timeit, one BLAS thread: 33 us at order 40 either
# way).
_TRIANGULAR_LEAF = 32


@functools.cache
def _lower_triangle(order: int) -> np.ndarray:
    """The read-only mask of the lower triangle of an order-order matrix,
    diagonal included: np.where(mask, M, 0.0) is np.tril(M) byte for byte,
    without np.tri's mask built at each call. Only leaves ask for one, so
    at most _TRIANGULAR_LEAF masks are kept."""
    mask = np.tri(order, dtype=bool)
    mask.flags.writeable = False
    return mask


def _triangular_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 for a nonsingular lower triangular L, by halves: the two
    diagonal blocks are inverted recursively and the off-diagonal one is
    -(L22^-1 L21) L11^-1, two BLAS-3 products. The upper triangle is exactly
    zero. Blocked inversion of this kind is as stable as LAPACK's trtri (Du
    Croz & Higham, IMA J. Numer. Anal. 12, 1992). A singular leaf raises
    np.linalg.LinAlgError."""
    order = L.shape[0]
    if order <= _TRIANGULAR_LEAF:
        return np.where(_lower_triangle(order), np.linalg.inv(L), 0.0)
    k = order // 2
    inverse = np.zeros((order, order))
    head = inverse[:k, :k] = _triangular_inverse(L[:k, :k])
    tail = inverse[k:, k:] = _triangular_inverse(L[k:, k:])
    inverse[k:, :k] = -(tail @ L[k:, :k]) @ head
    return inverse


@functools.lru_cache(maxsize=64)
def _null_space_start(n: int, k: int) -> np.ndarray:
    """The fixed start of _null_space_basis: an n x k read-only matrix of
    standard normal entries from a fixed seed. Such a start spans null(B)
    once projected, for every B of full row rank but a set of measure
    zero. At most 64 starts are kept."""
    start = np.random.default_rng(0).standard_normal((n, k))
    start.flags.writeable = False
    return start


def _null_space_basis(B: np.ndarray, gram_inv: np.ndarray) -> np.ndarray:
    """An n x (n - m) matrix with nearly orthonormal columns that span
    null(B) up to roundoff, for B of order m x n and full row rank, given
    gram_inv = L^-1, L L^T = B B^T: the fixed start projected twice by I -
    B^T (B B^T)^-1 B (twice, so that what the first projection leaves of
    the start's component outside null(B) is removed too), then
    orthonormalized by Cholesky-QR, Z L_Z^-T with L_Z L_Z^T = Z^T Z, which
    costs less here than a Householder QR. No pivoted start: choosing the
    columns of I that best span null(B) would need L^-1 B, which costs more
    than the basis. The caller bounds what is left of B Z and of Z^T Z - I.
    A projected start too close to rank deficiency raises
    np.linalg.LinAlgError."""
    m, n = B.shape
    Z = _null_space_start(n, n - m)
    for _ in range(2):
        Z = Z - B.T @ (gram_inv.T @ (gram_inv @ (B @ Z)))
    return Z @ _triangular_inverse(np.linalg.cholesky(Z.T @ Z)).T


def _norm_above(M: np.ndarray) -> float:
    """An upper bound on the Frobenius norm of M: its computed norm with
    the roundoff of the sum of squares and of the root added."""
    return float(np.linalg.norm(M)) * (1.0 + (M.size + 2) * _EPS)


def _certified_factorization(H, A, delta_w: float, equilibrate: bool) -> Factorization | None:
    """The record of K = [[H + delta_w I, A^T], [A, 0]], H a matrix of order
    n, a vector (the diagonal of a diagonal H) or a scalar (a multiple of
    I), solved with the factors that prove that no eigenvalue of its
    equilibrated matrix, the one ldlt_factorize_scaled factorizes (or of K
    itself, unless equilibrate), lies in [-t, t], t = zero_tol, so that the
    inertia is (n, m, 0); None (refuse) when they do not prove it.

    Let W and B be the blocks of that matrix. A vector or a scalar H gives
    a diagonal W = X = diag(x), and the range-space method proves and
    solves (Nocedal & Wright, 2nd ed., 16.2). Let mu = min(x) > t and
    G = (B X^-1/2) (B X^-1/2)^T. For every s in [-t, t], Haynsworth on
    K - sI leaves X - sI > 0 and -sI - B (X - sI)^-1 B^T, which is negative
    definite when B (X + tI)^-1 B^T > tI. Since (X + tI)^-1 >= mu / (mu + t)
    X^-1, a Cholesky factorization of G - t (mu + t) / mu I proves it: K has
    n eigenvalues above t and m below -t. For a scalar H this is
    sigma_min(B)^2 > t (x + t).

    A matrix H takes the null-space method (Gould, Math. Prog. 32, 1985) on
    a nearby matrix. Let S = B B^T = L L^T, Z an n x k basis of null(B), k =
    n - m, from _null_space_basis through B and L^-1, Z_0 the exact
    orthonormalization of Z, and B~ = B (I - Z_0 Z_0^T), whose rows are
    orthogonal to Z_0: B~^T = Y R with [Y Z_0] orthogonal. Then K~ = [[W,
    B~^T], [B~, 0]] is orthogonally similar to [[G, C^T, R], [C, M, 0],
    [R^T, 0, 0]], M = Z_0^T W Z_0, C = Z_0^T W Y, G = Y^T W Y. Let M > mu I
    with mu > t', and sigma_min(R)^2 > t' (|G| + t') + t' |C|^2 / (mu - t').
    Haynsworth on K~ - t'I, eliminating the order-2m block of G and R first,
    leaves M - t'I - C (G - t'I + R R^T / t')^-1 C^T > 0, so K~ has n
    eigenvalues above t'; on K~ + t'I it leaves M + t'I + (a positive
    semidefinite term) > 0, so K~ has m below -t'. K - K~ has the blocks
    B Z_0 Z_0^T and its transpose, so |K - K~|_2 = |B Z_0|_2 <= beta, and
    by Weyl's inequality K has no eigenvalue in [-t, t] at t' = t + beta.
    The quantities come from Z and S: with delta >= |Z^T Z - I|_2, beta =
    |B Z| / sqrt(1 - delta), sigma_min(R)^2 = lambda_min(S - B Z_0 Z_0^T B^T)
    >= lambda_min(S) - beta^2, |G| is bounded by the largest row sum of |W|,
    and |C| = |(I - Z_0 Z_0^T) W Z_0| by (|W Z - Z M_Z| + 2 delta |W|) /
    sqrt(1 - delta), M_Z = Z^T W Z. The Cholesky factor of M_Z, which
    solves, estimates lambda_min(M_Z) >= 1 / |L^-1|_F^2, mu is half of that,
    and a Cholesky factorization of M_Z - mu (1 + delta) I proves M > mu I,
    since M = P^-1/2 M_Z P^-1/2 with P = Z^T Z <= (1 + delta) I. This is the
    Cholesky-QR route to B^T = (B^T L^-T) L^T (Stathopoulos & Wu, SIAM J.
    Sci. Comput. 23, 2002): no Q of order n is formed.

    A non-positive diagonal, a rank-deficient A, or Z^T W Z with an
    eigenvalue below t refuses; the caller then decides by other means.

    In floating point each test is shifted past a bound on its own
    roundoff, so that rounding can only refuse. For a matrix H t starts at
    _cholesky_shift(n + m, max |entry|, t), a bound on the backward error of
    a QR factorization of B^T, kept as a margin; delta and beta add the
    roundoff of forming Z^T Z and B Z (n eps |B| |Z|), |C| that of forming
    W Z - Z M_Z, and M_Z - mu (1 + delta) I is factorized shifted by
    _cholesky_shift(n, |W|, mu (1 + delta)). A diagonal W needs no basis,
    and t stays. Either Gram matrix is
    factorized with the bound on sigma_min^2 subtracted and its diagonal
    reduced by the relative _schur_margin: the roundoff of a row-graded
    Gram matrix is graded too, and a zero eigenvalue of G (a dependent row)
    computes as up to about m (n + m) eps times its diagonal, far above t
    when x is tiny. Non-finite entries prove nothing (LAPACK's Cholesky
    does not fail on them): they make an entry of the equilibrated matrix
    NaN.

    The solve uses these factors: for a diagonal W, lam = G^-1 (B X^-1 r1 -
    r2) and x = X^-1 (r1 - B^T lam) with the Cholesky factor L of G; for a
    matrix H, the null-space method, x = B^T S^-1 r2 + Z M_Z^-1 Z^T (r1 - W
    B^T S^-1 r2) and lam = S^-1 B (r1 - W x), with the unshifted factor L of
    S. Either is refined on K's residual until the next correction would be
    below roundoff or stop shrinking by half. The solves apply the inverses
    of the Cholesky factors, which _triangular_inverse builds by halves:
    np.linalg.inv touches only their diagonal blocks up to order 32, and no
    LU inverse of a whole factor is left. The inverses feed only the
    estimate of mu, the basis and the solves; every proof is a Cholesky.
    The proof's shift depends on Z, which needs S^-1, so S is factorized
    twice: unshifted to solve and shifted to prove.
    """
    m, n = A.shape
    if m == 0 or n < m:
        return None
    diagonal = np.ndim(H) < 2
    W = H + delta_w if diagonal else (_shifted(H, delta_w) if delta_w else H)
    if equilibrate:
        magnitude = np.abs(A)
        rows = np.abs(W) if diagonal else np.abs(W).max(axis=1)
        s_H = 1.0 / np.sqrt(np.maximum(np.maximum(rows, 1e-300), magnitude.max(axis=0)))
        s_A = 1.0 / np.sqrt(np.maximum(magnitude.max(axis=1), 1e-300))
        B = np.multiply.outer(s_A, s_H)
        B *= A
        if diagonal:
            X = (s_H * s_H) * W
        else:
            X = np.multiply.outer(s_H, s_H)
            X *= W
            X += X.T
            X *= 0.5
    else:
        B = np.asarray(A, dtype=float)
        X = np.asarray(W, dtype=float) if diagonal else 0.5 * (W + W.T)
    if diagonal:
        x_max = float(np.abs(X).max())
    else:
        abs_X = np.abs(X)
        w = float(abs_X.sum(axis=1).max())  # at least |X| >= |G|
        x_max = float(abs_X.max())
    b_max = float(np.abs(B).max())
    if not (x_max < np.inf and b_max < np.inf):  # non-finite entries prove nothing
        return None
    max_abs = max(x_max, b_max)
    zero_tol = t = _zero_tol(max_abs, n + m)
    try:
        if diagonal:
            mu = float(X.min())
            if not mu > t:
                return None
            B_half = B / np.sqrt(X)
            gram = B_half @ B_half.T
            L = np.linalg.cholesky(gram)  # solves; the shifted gram proves
            shift = t * (mu + t) / mu
        else:
            t = _cholesky_shift(n + m, max_abs, zero_tol)
            gram = B @ B.T
            gram_inv = _triangular_inverse(np.linalg.cholesky(gram))
            Z = _null_space_basis(B, gram_inv)
            XZ = X @ Z
            M = Z.T @ XZ
            P = Z.T @ Z
            P.flat[:: n - m + 1] -= 1.0
            delta = _norm_above(P) + 1.01 * n * _EPS * _norm_above(Z) ** 2  # |Z^T Z - I|_2
            if not delta < 0.25:
                return None
            scale = 1.0 / math.sqrt(1.0 - delta)  # bounds |(Z^T Z)^-1/2|_2
            bound = 1.02 * n * _EPS * float(np.linalg.norm(np.abs(B) @ np.abs(Z)))  # roundoff of B Z
            beta = scale * (_norm_above(B @ Z) + bound)  # |B Z_0|_2
            c = scale * (_norm_above(XZ - Z @ M) + 2.0 * delta * w
                         + _cholesky_shift(n, w, 0.0))  # |C| and roundoff
            L_inv = _triangular_inverse(np.linalg.cholesky(M))
            mu = 0.5 / float(np.sum(L_inv * L_inv)) if n > m else np.inf
            np.linalg.cholesky(_shifted(M, -_cholesky_shift(n, w, mu * (1.0 + delta))))
            t += beta
            if not mu > t:  # NaN refuses
                return None
            shift = t * (w + t) + t * c * c / (mu - t) + beta * beta
        gram.flat[:: m + 1] = gram.diagonal() * (1.0 - _schur_margin(n, m)) - shift
        np.linalg.cholesky(gram)
        if diagonal:
            L_inv = _triangular_inverse(L)
    except np.linalg.LinAlgError:
        return None

    if diagonal:
        def solve_once(rhs):
            lam = ((B @ (rhs[:n] / X) - rhs[n:]) @ L_inv.T) @ L_inv
            return np.concatenate([(rhs[:n] - lam @ B) / X, lam])

        def product(z):
            return np.concatenate([X * z[:n] + z[n:] @ B, B @ z[:n]])
    else:
        def solve_once(rhs):
            x = ((rhs[n:] @ gram_inv.T) @ gram_inv) @ B
            x += Z @ ((((rhs[:n] - X @ x) @ Z) @ L_inv.T) @ L_inv)
            return np.concatenate([x, gram_inv.T @ (gram_inv @ (B @ (rhs[:n] - X @ x)))])

        def product(z):
            return np.concatenate([X @ z[:n] + z[n:] @ B, B @ z[:n]])

    def solve(rhs):
        z = solve_once(rhs)
        size = last = float(np.abs(z).max())
        for _ in range(10):
            dz = solve_once(rhs - product(z))
            z += dz
            step = float(np.abs(dz).max())
            if not (step * step > _EPS * last * size and step < 0.5 * last):
                break
            last = step
        return z

    row_scaling = np.concatenate([s_H, s_A]) if equilibrate else None
    return Factorization(None, (n, m, 0), zero_tol, row_scaling, solve)


# Below these orders the eigenvalues and an LU of a KKT matrix cost less
# than the certificate and its solve, whose numpy calls each have a fixed
# cost. `python3 tools/kernel_timing.py` times both paths on random systems
# with one BLAS thread and prints the crossover order. Over three runs on a
# 2-core Xeon it read 72 to 80 for a general H (certificate and one solve
# over eigenvalues and LU: 1.17-1.26x at order 64, 0.88-0.89x at 80) and
# 36 to 40 for a scalar H (1.17-1.32x at 32, 0.88-0.89x at 40). A matrix H
# with no off-diagonal entry takes the range-space proof, as a scalar H
# does, but _CERTIFY_MIN_ORDER gates it: one run read its crossover at 40.
_CERTIFY_MIN_ORDER = 64
_SCALAR_MIN_ORDER = 33


def _kkt_factorization(H, A, delta_w: float, delta_c: float,
                       equilibrate: bool = True) -> Factorization:
    """The record ldlt_factorize_scaled(assemble_kkt(H, A, delta_w,
    delta_c)) gives (ldlt_factorize's, unless equilibrate), H of order n or
    a scalar (a multiple of I). At delta_c = 0 and from order
    _CERTIFY_MIN_ORDER on (_SCALAR_MIN_ORDER for a scalar H), it is solved
    with the factors of _certified_factorization when they prove the
    inertia (n, m, 0), and then with no matrix of order n + m: first by the
    range-space proof, for a scalar H or a matrix whose off-diagonal
    entries are all zero, then, for a matrix, by the null-space proof."""
    m, n = A.shape
    matrix = isinstance(H, np.ndarray)
    if delta_c == 0.0 and n + m >= (_CERTIFY_MIN_ORDER if matrix else _SCALAR_MIN_ORDER):
        blocks = (H,)
        if matrix and np.count_nonzero(H) == np.count_nonzero(H.diagonal()):
            blocks = (H.diagonal(), H)  # no off-diagonal entry: range space first
        for block in blocks:
            fact = _certified_factorization(block, A, delta_w, equilibrate)
            if fact is not None:
                return fact
    K = assemble_kkt(H, A, delta_w, delta_c)
    return ldlt_factorize_scaled(K) if equilibrate else ldlt_factorize(K)


def solve_factorized(fact: Factorization, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs with the certified factors of fact (fact.solve), or
    else by LU with partial pivoting (LAPACK gesv) on its matrix; a zero
    eigenvalue or an exactly zero LU pivot raises SingularMatrixError."""
    if fact.n_zero > 0:
        raise SingularMatrixError("matrix is singular (%d zero eigenvalues)" % fact.n_zero)
    rhs = np.asarray(rhs, dtype=float)
    s = fact.row_scaling
    if s is not None:
        rhs = rhs * s
    try:
        x = fact.solve(rhs) if fact.solve else np.linalg.solve(fact.matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is singular (zero LU pivot)") from exc
    return x * s if s is not None else x


_REGULARIZATION_GROWTH = 8.0
_REGULARIZATION_LIMIT = 1e40


@dataclass
class RegularizationSchedule:
    """State of the primal regularization schedule.

    Candidates are 0, then a third of the last successful value, then growing
    by _REGULARIZATION_GROWTH until _REGULARIZATION_LIMIT.
    """

    last_successful: float = 3e-4

    def candidates(self):
        yield 0.0
        delta = max(self.last_successful / 3.0, 1e-10)
        while delta <= _REGULARIZATION_LIMIT:
            yield delta
            delta *= _REGULARIZATION_GROWTH

    def record_success(self, delta: float) -> None:
        if delta > 0.0:
            self.last_successful = delta


def assemble_kkt(H, A: np.ndarray, delta_w: float, delta_c: float) -> np.ndarray:
    """[[H + delta_w I, A^T], [A, -delta_c I]], H of order n or a scalar (a
    multiple of I)."""
    m, n = A.shape
    K = np.zeros((n + m, n + m))
    if isinstance(H, np.ndarray):
        K[:n, :n] = H
    else:
        K.flat[: n * (n + m + 1) : n + m + 1] = H
    if delta_w:
        K.flat[: n * (n + m + 1) : n + m + 1] += delta_w
    if m:
        K[n:, :n] = A
        K[:n, n:] = A.T
        if delta_c:
            K.flat[n * (n + m + 1) :: n + m + 1] = -delta_c
    return K


def inertia_correct(
    H: np.ndarray,
    A: np.ndarray,
    schedule: RegularizationSchedule,
    delta_c_value: float,
) -> Factorization:
    """Regularize the KKT matrix [[H + dw I, A^T], [A, -dc I]] until its
    inertia is exactly (n, m, 0), and return its factorization.

    dc is switched on, at delta_c_value, only when zero eigenvalues indicate
    a rank-deficient A.
    Each trial is a _kkt_factorization: eigenvalues are computed only for
    small matrices, at dc > 0, and where the certificate refuses (A rank
    deficient, or Z^T (H + dw I) Z not positive definite).
    """
    n = H.shape[0]
    m = A.shape[0]
    delta_c = 0.0
    for delta_w in schedule.candidates():
        fact = _kkt_factorization(H, A, delta_w, delta_c)
        if fact.n_zero > 0 and delta_c == 0.0 and m > 0:
            delta_c = delta_c_value
            fact = _kkt_factorization(H, A, delta_w, delta_c)
        if fact.inertia == (n, m, 0):
            schedule.record_success(delta_w)
            return fact
    raise RegularizationFailedError("regularization schedule exhausted")


def least_squares_multipliers(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """y of [[I, J^T], [J, 0]] (p, y) = (r, 0), the least-squares solution
    of J^T y = r, by _kkt_factorization on the unscaled blocks: from the
    Cholesky factor of J J^T, refined on the residual of that system, when
    the range-space proof holds, else by ldlt_factorize and LU. Zeros when
    that finds the matrix singular or y is not finite."""
    m, n = J.shape
    try:
        fact = _kkt_factorization(1.0, J, 0.0, 0.0, equilibrate=False)
        y = solve_factorized(fact, np.concatenate([r, np.zeros(m)]))[n:]
    except SingularMatrixError:
        return np.zeros(m)
    return y if np.isfinite(y).all() else np.zeros(m)


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
    lambda_min = float(_eigenvalues(A, float(np.abs(A).max()))[0]) if n else np.inf
    diagonal = A.diagonal().copy()
    low, high = (float(diagonal.min()), float(diagonal.max())) if n else (0.0, 0.0)
    A.flat[:: n + 1] = 0.0
    off_diagonal = float(np.abs(A).max(initial=0.0))

    def is_pd(delta):
        # max |diagonal + delta| lies at an end: rounding is monotone
        max_abs = max(off_diagonal, abs(high + delta), abs(low + delta))
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
            return _shifted(W, delta_w) if delta_w else W, delta_w
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
# by working-set code: a bound multiplier of the wrong sign prices negative
_PRICE_SIGN = np.array([0.0, 1.0, -1.0])


@dataclass
class QPData:
    """min 1/2 d^T W d + g^T d  s.t.  A d = b,  d_lower <= d <= d_upper.

    W is None only inside qp_solve, for phase I's LP. step_columns is set by
    extend_with_elastics alone: the number of columns before the elastic
    pairs (u+, u-) of its layout, None for a QP without elastics."""

    W: np.ndarray | None
    g: np.ndarray
    A: np.ndarray
    b: np.ndarray
    d_lower: np.ndarray
    d_upper: np.ndarray
    step_columns: int | None = None

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def m(self) -> int:
        return self.b.size

    def exact_elastics(self, step: np.ndarray) -> np.ndarray:
        """The point (step, u+, u-) of this elastic layout that meets A d = b
        for the given step: u+ - u- = A_step step - b, the smaller of each
        pair zero (elastic_init). It is feasible wherever step lies in its
        box, since the elastics have no upper bound."""
        k = self.step_columns
        return np.concatenate([step, *elastic_init(self.A[:, :k] @ step - self.b)])


def extend_with_elastics(qp: QPData) -> QPData:
    """Append elastic columns: constraints become c + Jd - u+ + u- = 0 with
    u+,u- >= 0 and unit objective weight; the extension is always feasible.
    This is the solver's one elastic layout, columns ordered (d, u+, u-),
    and the returned QP records it (step_columns = n): qp_solve reads its
    start as the step, completes the elastics (exact_elastics), and starts
    a cold one with its elastics at zero. A W of None (phase I's LP) stays
    None."""
    n, m = qp.n, qp.m
    ne = n + 2 * m
    W = None
    if qp.W is not None:
        W = np.zeros((ne, ne))
        W[:n, :n] = qp.W
    g = np.ones(ne)
    g[:n] = qp.g
    A = np.zeros((m, ne))
    A[:, :n] = qp.A
    A.flat[n :: ne + 1] = -1.0
    A.flat[n + m :: ne + 1] = 1.0
    lb = np.zeros(ne)
    lb[:n] = qp.d_lower
    ub = np.full(ne, np.inf)
    ub[:n] = qp.d_upper
    return QPData(W, g, A, qp.b, lb, ub, n)


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


def _eqp_solve(W, g, A, b, d, free, fixed, schedule=None):
    """Solve the equality-constrained QP on the current working set, whose
    free and fixed variables are the index arrays free and fixed.

    Fixed variables stay at their bound value in d. Returns (q_free, y,
    delta_w, W_ff) where q_free is the subproblem minimizer over the free
    variables (proximal regularization by delta_w about the current point
    when the reduced Hessian is not positive definite) and W_ff is W's
    free-free block (0.0 for W None). At delta_w = 0 neither q_free nor y
    depends on d's free entries.

    W None is phase I's zero Hessian: every product with it is skipped, and
    the KKT blocks are (delta_w I, A_f), a scalar H for _kkt_factorization.
    The record of _kkt_factorization decides: a solve at inertia (nf, m, 0),
    least squares on the equilibrated matrix when A_f is row rank deficient.

    With no schedule, only delta_w = 0 is tried, and None is returned when
    its record's inertia is not (nf, m, 0): qp_solve's start at the working
    set's minimizer, which leaves the schedule as it is.
    """
    m = b.size
    nf = free.size

    rhs2 = b - A[:, fixed] @ d[fixed] if (m and fixed.size) else b
    g_eff = g[free]
    if W is not None:
        W_f = W[free]
        if fixed.size:
            g_eff = g_eff + W_f[:, fixed] @ d[fixed]

    if nf == 0:
        if m:
            y, *_ = np.linalg.lstsq(A.T, g if W is None else W @ d + g, rcond=None)
        else:
            y = np.zeros(0)
        return d[free], y, 0.0, 0.0

    A_f = A[:, free]
    W_ff = 0.0 if W is None else W_f[:, free]

    candidates = iter((0.0,)) if schedule is None else schedule.candidates()
    if nf > m and (W is None or not W_ff.any()):
        # [[0, A_f^T], [A_f, 0]] has rank at most 2m < nf + m: delta_w = 0
        # can give neither the target inertia nor the least-squares branch
        next(candidates)
    for delta_w in candidates:
        fact = _kkt_factorization(W_ff, A_f, delta_w, 0.0)
        regular = fact.inertia == (nf, m, 0)
        if not (regular or (fact.n_zero > 0 and delta_w > 0.0)):
            continue
        rhs = np.concatenate([-g_eff + delta_w * d[free], rhs2])
        if regular:
            sol = solve_factorized(fact, rhs)
        else:
            # A_f is row rank deficient; the system is consistent because
            # the current point is feasible, so take the least-squares
            # solution (of the equilibrated system, for accuracy).
            s = fact.row_scaling
            sol, *_ = np.linalg.lstsq(fact.matrix, s * rhs, rcond=None)
            sol = s * sol
        if schedule is not None:
            schedule.record_success(delta_w)
        return sol[:nf], -sol[nf:], delta_w, W_ff
    if schedule is None:
        return None
    raise RegularizationFailedError("EQP regularization failed")


def _ratio_test(d, p, lb, ub, lb_finite, ub_finite, step_tol):
    """Maximum feasible step t_block along p from d within [lb, ub], and
    the (index, side) of the bound that blocks it ((-1, _LOWER) if none).

    Only variables moving by more than step_tol toward a finite bound
    count (lb_finite and ub_finite are np.isfinite(lb) and np.isfinite(ub),
    which the loop computes once). The first smallest ratio blocks
    (Nocedal & Wright, 2nd ed., Alg. 16.3); a NaN ratio never does.
    """
    up = (p > step_tol) & ub_finite
    moving = up | ((p < -step_tol) & lb_finite)
    if not moving.any():
        return np.inf, -1, _LOWER
    ratios = np.divide(np.where(up, ub, lb) - d, p, out=np.full(d.size, np.inf), where=moving)
    ratios[np.isnan(ratios)] = np.inf
    blocker = int(ratios.argmin())
    if ratios[blocker] == np.inf:
        return np.inf, -1, _LOWER
    return max(ratios[blocker], 0.0), blocker, _UPPER if up[blocker] else _LOWER


def _active_set_loop(W, g, A, b, d, codes, lb, ub, schedule, max_iter, y=None):
    """Primal active-set iteration from a feasible point d with working set
    codes; W None is a zero Hessian, with every product by it skipped.

    An iteration either solves the EQP of the working set (_eqp_solve) and
    steps toward its minimizer, up to the first bound that blocks the step
    (_ratio_test: the first smallest ratio), or, at a point stationary on
    the working set, prices the bounds with that solve's multipliers y
    (Nocedal & Wright, 2nd ed., Alg. 16.3). A full step at delta_w = 0
    lands on the minimizer, so the next iteration prices with the y it
    holds and solves nothing. A given y says the same of the start: d is
    its working set's minimizer and y that solve's multipliers.

    Returns (status, d, y, iterations, r, objective): objective is the
    value at the returned d, and r, at an Optimal return, the residual
    W d + g - A^T y that the last pricing read (None otherwise).
    """
    n = g.size
    m = b.size
    step_tol = 1e-13
    opt_tol = 1e-10 * (1.0 + float(np.abs(g).max()) if n else 1.0)
    lb_finite, ub_finite = np.isfinite(lb), np.isfinite(ub)
    minimizer = y is not None
    if not minimizer:
        y = np.zeros(m)
    bland = False
    stall = 0

    def objective(v):
        return g @ v if W is None else 0.5 * v @ W @ v + g @ v

    last_obj = objective(d)
    for iteration in range(max_iter):
        if not minimizer:
            free, fixed = (codes == _FREE).nonzero()[0], codes.nonzero()[0]
            q_free, y, delta_w, W_ff = _eqp_solve(W, g, A, b, d, free, fixed, schedule)
            p = np.zeros(n)
            p_free = p[free] = q_free - d[free]

            # the working-set stationarity residual left by taking the full
            # step is (W + delta I) p on the free variables; regularized
            # solves can carry p-noise of order 1/delta, so test the
            # residual, not p
            if free.size:
                residual = delta_w * p_free
                if W is not None:
                    residual = W_ff @ p_free + residual
                stat_res, p_norm = float(np.abs(residual).max()), float(np.abs(p_free).max())
            else:
                stat_res = p_norm = 0.0
            minimizer = stat_res <= 0.1 * opt_tol or p_norm <= step_tol * (
                1.0 + (float(np.abs(d).max()) if n else 0.0))
        if minimizer:
            # Stationary on the working set: price the active bounds.
            r = (g if W is None else W @ d + g) - (A.T @ y if m else 0.0)
            signed = _PRICE_SIGN[codes] * r  # NaN or 0 on free variables: never a candidate
            candidates = (signed < -opt_tol).nonzero()[0]
            if candidates.size == 0:
                return OPTIMAL, d, y, iteration + 1, r, last_obj
            if bland:
                leave = int(candidates[0])
            else:
                leave = int(candidates[signed[candidates].argmin()])
            codes[leave] = _FREE
            minimizer = False
            continue

        # p is zero on the fixed variables: only free ones can block
        t_block, blocker, blocker_side = _ratio_test(d, p, lb, ub, lb_finite, ub_finite, step_tol)

        if delta_w == 0.0:
            t_full = 1.0
        elif W is None:
            t_full = np.inf  # no curvature: the step stops only at a bound
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
                return UNBOUNDED, d, y, iteration + 1, None, last_obj
            d += t_full * p
            minimizer = delta_w == 0.0

        obj = objective(d)
        if obj >= last_obj - 1e-14 * (1.0 + abs(last_obj)):
            stall += 1
            if stall > 3 * (n + m):
                bland = True
        else:
            stall = 0
        last_obj = obj

    return ITERATION_LIMIT, d, y, max_iter, None, last_obj


def _working_set(d, lb, ub) -> tuple[np.ndarray, np.ndarray]:
    """The bounds d touches, to 1e-12 relative (ties prefer the lower
    bound), as working-set codes, and d moved exactly onto them."""
    def touched(bound):
        tol = np.abs(bound)
        tol += 1.0
        tol *= 1e-12
        gap = d - bound
        near = np.abs(gap, out=gap) <= tol
        near &= np.isfinite(bound)
        return near

    upper, lower = touched(ub), touched(lb)
    codes = np.where(lower, np.int8(_LOWER), upper * np.int8(_UPPER))
    return np.where(lower, lb, np.where(upper, ub, d)), codes


def _phase_two_start(W, g, A, b, d, lb, ub, feas_tol):
    """(point, codes, y): a start of phase II off d, which misses A d = b,
    with its working-set codes, and y the multipliers of the solve that
    makes it a working-set minimizer (None if it is not); None where no
    start is taken.

    First, the minimizer of the EQP on the working set d touches, solved at
    delta_w = 0 (_eqp_solve with no schedule), taken where its record's
    inertia is (n_f, m, 0), so that the reduced Hessian is positive
    definite, and the point lies in [lb, ub] and meets A d = b to feas_tol
    (NaN does not). Phase II's first step from any feasible point with that
    working set ends there (Nocedal & Wright, 2nd ed., Alg. 16.3).

    Else, a point of {A d = b} in [lb, ub] by iterated projection, with the
    same bounds held. Each round adds Delta, the min-norm correction over
    the free columns f: [[I, A_f^T], [A_f, 0]] (Delta, lambda) = (0, b - A
    d), solved with the record of _kkt_factorization; the components that
    cross a bound are clipped to it and held, and the next round projects
    again. Every round holds one more bound, so there are at most n. None
    when a record's inertia is not (n_f, m, 0) (as for n_f < m: A_f then
    has dependent rows), a solve fails, or the point is not finite or
    misses A d = b by more than feas_tol."""
    held, codes = _working_set(d, lb, ub)
    free = (codes == _FREE).nonzero()[0]
    solved = _eqp_solve(W, g, A, b, held, free, codes.nonzero()[0])
    if solved is not None:
        point = held.copy()
        point[free] = solved[0]
        inside = (lb <= point).all() and (point <= ub).all()
        if inside and np.abs(b - A @ point).max() <= feas_tol:
            return point, codes, solved[1]
    for _ in range(d.size):
        fact = _kkt_factorization(1.0, A[:, free], 0.0, 0.0, equilibrate=False)
        if fact.inertia != (free.size, b.size, 0):
            return None
        try:
            delta = solve_factorized(fact, np.concatenate([np.zeros(free.size), b - A @ held]))
        except SingularMatrixError:
            return None
        held[free] += delta[: free.size]
        below, above = held < lb, held > ub
        if not (below.any() or above.any()):
            break
        held = np.minimum(np.maximum(held, lb), ub)
        codes[below], codes[above] = _LOWER, _UPPER
        free = (codes == _FREE).nonzero()[0]
    if float(np.abs(b - A @ held).max()) <= feas_tol:  # NaN is not
        return (*_working_set(held, lb, ub), None)
    return None


def qp_solve(
    qp: QPData,
    warm_start=None,
    start: np.ndarray | None = None,
) -> QPSolution:
    """Solve a dense QP with equality constraints and box bounds.

    The start is d0 (start, or zero), moved onto the bounds that warm_start
    pins as the initial working set and clipped to the box. For an elastic
    layout (qp.step_columns set by extend_with_elastics) start is the step
    alone: clipped to its box and completed with its exact elastics
    (QPData.exact_elastics) when warm_start is given, with every elastic at
    its zero bound when it is not (a cold start). When d0 misses A d = b
    and W is not zero, convex or not, phase II starts where
    _phase_two_start puts it, from one working set of d0 (the bounds d0
    touches): at the minimizer of that working set's equality-constrained
    QP, solved at delta_w = 0, where that system is regular and the
    minimizer lies in the box, pricing the bounds there at once with that
    solve's multipliers (Nocedal & Wright, Numerical Optimization, 2nd ed.,
    Alg. 16.3); else at d0's iterated projection, the min-norm point of
    {A d = b} with those bounds held, and with every bound a round crosses
    held for the next (ibid., 16.2 and 16.5). A cold elastic QP thus starts
    at the minimizer or the projection of its step, elastics at zero. A
    convex QP's minimizer does not depend on which feasible point phase II
    starts from (a nonconvex QP's stationary point may). Where neither is
    taken (W = 0, or no projection lands feasible), a cold elastic QP
    starts phase II from its step with exact elastics, feasible by the
    layout, and never runs phase I. Any other QP runs phase I there: an LP
    (W = 0), whose vertex depends on its start, or a QP with no projection
    that lands feasible.

    Phase I minimizes the elastic infeasibility of the equalities, so
    inconsistent constraints are reported as Infeasible (with the partial
    point) rather than raised. It is an LP with no Hessian at all: its
    working-set steps solve KKT systems with the scalar (1,1) block
    delta_w I, from order _SCALAR_MIN_ORDER on by the range-space proof and
    solve of _certified_factorization when A_f has full row rank. Every working-set
    system, phase I and phase II, reaches LAPACK through _kkt_factorization.
    With W = 0 the method acts as an LP solver.
    Nonconvex QPs terminate at first-order stationary points. Each phase
    takes at most 100 (n + m + 10) working-set iterations.

    The bound multipliers are W d + g - A^T y on the active bounds and 0
    elsewhere, and objective_value is the objective at d. At an Optimal
    return both come from the loop (the residual its last pricing read, the
    value it holds), and _verify_kkt checks the solution with that residual
    before it is returned.
    """
    W = np.asarray(qp.W, dtype=float)
    g = np.asarray(qp.g, dtype=float)
    A = np.asarray(qp.A, dtype=float).reshape(qp.m, qp.n)
    b = np.asarray(qp.b, dtype=float)
    lb = np.asarray(qp.d_lower, dtype=float)
    ub = np.asarray(qp.d_upper, dtype=float)
    n, m = qp.n, qp.m
    max_iter = 100 * (n + m + 10)
    feas_tol = 1e-10 * (1.0 + float(np.abs(b).max()) if m else 1.0)

    if (lb > ub).any():
        return QPSolution(INFEASIBLE, np.zeros(n), np.zeros(m), np.zeros(n), (), np.nan)

    def misses_rows(d):
        return m and float(np.abs(b - A @ d).max()) > feas_tol  # a NaN residual is no miss

    k = qp.step_columns
    cold_elastic = k is not None and not warm_start
    if k is None:
        d0 = np.zeros(n) if start is None else np.array(start, dtype=float)
    else:
        step = np.zeros(k) if start is None else np.minimum(np.maximum(start, lb[:k]), ub[:k])
        d0 = np.concatenate([step, np.zeros(n - k)]) if cold_elastic else qp.exact_elastics(step)
    if warm_start:
        # on Python floats: a pin costs no numpy call
        bounds = {_LOWER: lb.tolist(), _UPPER: ub.tolist()}
        for index, side in warm_start:
            if 0 <= index < n and side in bounds and math.isfinite(bounds[side][index]):
                d0[index] = bounds[side][index]
    np.maximum(d0, lb, out=d0)
    np.minimum(d0, ub, out=d0)
    schedule = RegularizationSchedule()

    start = None  # (d, codes, y) off a d0 that misses the rows
    phase1_iters = 0
    infeasible = misses_rows(d0)
    if infeasible and W.any():
        start = _phase_two_start(W, g, A, b, d0, lb, ub, feas_tol)
        infeasible = start is None  # the start tested the rows
    if infeasible and cold_elastic:
        d0 = qp.exact_elastics(d0[:k])  # feasible by the layout: no phase I
        infeasible = misses_rows(d0)
    if infeasible:
        # Phase I: the elastic LP (no W, zero g), from exact elastics.
        phase1 = extend_with_elastics(QPData(None, np.zeros(n), A, b, lb, ub))
        d1 = phase1.exact_elastics(d0)
        codes1 = (np.abs(d1 - phase1.d_lower) <= 1e-12).astype(np.int8)  # _LOWER or _FREE
        status1, d1, _, phase1_iters, _, _ = _active_set_loop(
            phase1.W, phase1.g, phase1.A, b, d1, codes1, phase1.d_lower, phase1.d_upper,
            schedule, max_iter,
        )
        infeasibility = float(d1[n:].sum())
        if status1 != OPTIMAL or infeasibility > 100.0 * feas_tol * (1 + m):
            return QPSolution(
                INFEASIBLE, d1[:n], np.zeros(m), np.zeros(n), (), np.nan, phase1_iters
            )
        d0 = np.minimum(np.maximum(d1[:n], lb), ub)

    d0, codes, y0 = start or (*_working_set(d0, lb, ub), None)
    status, d, y, iters, r, objective = _active_set_loop(
        W, g, A, b, d0, codes, lb, ub, schedule, max_iter, y0
    )
    if r is None:
        r = W @ d + g - (A.T @ y if m else 0.0)
    fixed = codes.nonzero()[0]
    solution = QPSolution(status, d, y, np.where(codes, r, 0.0),
                          tuple(zip(fixed.tolist(), codes[fixed].tolist())),
                          float(objective), iters + phase1_iters)
    if status == OPTIMAL:
        _verify_kkt(qp, solution, r)
    return solution


def _verify_kkt(qp: QPData, sol: QPSolution, r: np.ndarray) -> None:
    """Check the QPSolution KKT contract before returning Optimal; raise
    QPFailureError on a violation. r is the stationarity residual
    W d + g - A^T y at the solution's (d, y), as the active-set loop priced
    with it; the stationarity test reads r - z.

    The stated tolerances, 1e-8 (1 + |g|) for stationarity and
    1e-8 (1 + |b|) for feasibility, apply to well-scaled data. Where a
    residual exceeds its tolerance, a backward-error term is added before
    the test decides: it covers the floating-point floor of badly scaled
    instances and is negligible when the data is O(1). It is computed only
    there: a residual within its tolerance is finite, a NaN or infinite
    entry of W, A, d or y would have reached it through the products it
    holds (for n >= 1), and so the term is finite then and could only widen
    the test. NaN fails every test."""
    d, z = sol.d, sol.multipliers_bounds
    n = qp.n

    def magnitudes(*arrays):
        return [float(np.abs(array).max(initial=0.0)) for array in arrays]

    stat = r - z
    stat_res = float(np.abs(stat, out=stat).max(initial=0.0))
    tol_stat = 1e-8 * (1.0 + float(np.abs(qp.g).max(initial=0.0)))
    if not stat_res <= tol_stat:
        d_norm, y_norm, w_norm, a_norm = magnitudes(d, sol.multipliers_eq, qp.W, qp.A)
        if not stat_res <= tol_stat + 100.0 * _EPS * n * (w_norm * d_norm + a_norm * y_norm):
            raise QPFailureError("QP stationarity violated")
    if qp.m:
        feas = np.atleast_2d(qp.A) @ d
        feas -= qp.b
        feas_res = float(np.abs(feas, out=feas).max())
        tol_feas = 1e-8 * (1.0 + float(np.abs(qp.b).max()))
        if not feas_res <= tol_feas:
            d_norm, a_norm = magnitudes(d, qp.A)
            if not feas_res <= tol_feas + 100.0 * _EPS * n * a_norm * max(d_norm, 1.0):
                raise QPFailureError("QP feasibility violated")
    if not ((d >= qp.d_lower - 1e-9) & (d <= qp.d_upper + 1e-9)).all():
        raise QPFailureError("QP bounds violated")
    # with the bounds met, a gap to an infinite bound is inf (or NaN where d
    # is infinite too): never near zero, and no complementarity term
    gap_l, gap_u = d - qp.d_lower, qp.d_upper - d
    comp = np.minimum(gap_l, gap_u)
    z_abs = np.abs(z)
    comp = np.where(np.isfinite(comp), comp, 0.0)
    comp *= z_abs  # 0 where z is 0
    if not float(comp.max(initial=0.0)) <= 1e-8 * (1.0 + float(z_abs.max(initial=0.0))):
        raise QPFailureError("QP complementarity violated")
    sign_ok = np.where(
        np.abs(gap_l) <= 1e-9, z >= -1e-8,
        np.where(np.abs(gap_u) <= 1e-9, z <= 1e-8, z_abs <= 1e-8),
    )
    if not sign_ok.all():
        raise QPFailureError("QP bound multiplier signs violated")
