import dataclasses

import numpy as np
import pytest

from modnlp.errors import QPFailureError, SingularMatrixError
from modnlp.linalg import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    QPData,
    QPSolution,
    RegularizationSchedule,
    _CERTIFY_MIN_ORDER,
    _SCALAR_MIN_ORDER,
    _certified_factorization,
    _kkt_factorization,
    _ratio_test,
    _triangular_inverse,
    _verify_kkt,
    assemble_kkt,
    central_elastics,
    extend_with_elastics,
    inertia_correct,
    ldlt_factorize,
    ldlt_factorize_scaled,
    least_squares_multipliers,
    make_positive_definite,
    qp_solve,
    solve_factorized,
)


def jacobi_eigenvalues(M, sweeps=50):
    """Brute-force cyclic Jacobi eigensolver, used as an independent oracle."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-30:
                    continue
                off = max(off, abs(A[p, q]))
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
        if off < 1e-14:
            break
    return np.diag(A)


def sign_counts(eigenvalues, tol):
    plus = int(np.sum(eigenvalues > tol))
    minus = int(np.sum(eigenvalues < -tol))
    return plus, minus, eigenvalues.size - plus - minus


class TestLDLT:
    def test_diagonal_indefinite(self):
        fact = ldlt_factorize(np.diag([1.0, -1.0]))
        assert fact.inertia == (1, 1, 0)

    def test_diagonal_singular(self):
        fact = ldlt_factorize(np.diag([2.0, 3.0, 0.0]))
        assert fact.inertia == (2, 0, 1)

    def test_solve_residual_saddle(self):
        # random saddle-point K = [[H, A^T], [A, 0]], then the same with
        # rows and columns scaled by up to 1e6 either way
        rng = np.random.RandomState(7)
        for size in (1, 2, 3, 5, 8, 12):
            m = size // 3
            n = size - m
            H = rng.randn(n, n)
            A = rng.randn(m, n)
            K = np.block([[H + H.T, A.T], [A, np.zeros((m, m))]])
            for D in (np.ones(size), 10.0 ** rng.uniform(-6.0, 6.0, size)):
                KD = K * np.outer(D, D)
                rhs = rng.randn(size)
                x = solve_factorized(ldlt_factorize_scaled(KD), rhs)
                # componentwise backward error of the scaled system
                bound = np.abs(KD) @ np.abs(x) + np.abs(rhs)
                assert np.all(np.abs(KD @ x - rhs) <= 1e-10 * bound)

    def test_non_finite_matrix_is_a_typed_error(self):
        for bad in (np.nan, np.inf, -np.inf):
            M = np.eye(3)
            M[1, 2] = bad
            with pytest.raises(SingularMatrixError, match="non-finite"):
                ldlt_factorize(M)
            with pytest.raises(SingularMatrixError, match="non-finite"), \
                    np.errstate(invalid="ignore"):  # the scaling turns inf into NaN
                ldlt_factorize_scaled(M)
            with pytest.raises(SingularMatrixError, match="non-finite"):
                make_positive_definite(M, RegularizationSchedule())

    def test_non_finite_guard_reads_the_symmetrized_magnitude(self, monkeypatch):
        # the guard tests max |0.5 (M + M^T)|, which is NaN or inf exactly
        # when an entry of that matrix is: zero_tol = max(1.0, nan) * ... is
        # finite, so a test built on the zero tolerance lets a NaN through
        import modnlp.linalg as linalg

        message = "^matrix has non-finite entries$"
        seen = []
        monkeypatch.setattr(linalg, "ldlt_factorize",
                            lambda M: seen.append(np.array(M)) or ldlt_factorize(M))
        for bad in (np.nan, np.inf, -np.inf):
            for i, j in ((0, 0), (1, 2), (3, 3)):  # diagonal and off-diagonal entries
                M = np.diag([4e3, -3.0, 2.0, 1e-3])
                M[i, j] = bad
                with pytest.raises(SingularMatrixError, match=message):
                    ldlt_factorize(M)
                seen.clear()
                with pytest.raises(SingularMatrixError, match=message), \
                        np.errstate(invalid="ignore"):
                    linalg.ldlt_factorize_scaled(M)
                # an inf row scales by 1/sqrt(inf) = 0, and 0 * inf is NaN:
                # the scaled matrix that reaches ldlt_factorize holds no inf
                (scaled,) = seen
                assert np.isnan(scaled[i, j]) and not np.isinf(scaled).any()
                with pytest.raises(SingularMatrixError, match=message):
                    make_positive_definite(M, RegularizationSchedule())
        # entries whose symmetrization is not finite: inf + (-inf) is NaN,
        # and 1.5e308 + 1.5e308 overflows
        for upper, lower in ((np.inf, -np.inf), (1.5e308, 1.5e308)):
            M = np.eye(3)
            M[0, 2], M[2, 0] = upper, lower
            with pytest.raises(SingularMatrixError, match=message), \
                    np.errstate(invalid="ignore", over="ignore"):
                ldlt_factorize(M)

    def test_lu_failure_is_singular(self):
        # a record whose inertia claims a regular matrix that LU finds
        # exactly singular
        fact = dataclasses.replace(ldlt_factorize(np.eye(2)), matrix=np.ones((2, 2)))
        assert fact.n_zero == 0
        with pytest.raises(SingularMatrixError, match="LU"):
            solve_factorized(fact, np.ones(2))

    def test_empty_matrix(self):
        fact = ldlt_factorize(np.zeros((0, 0)))
        assert fact.inertia == (0, 0, 0)
        assert solve_factorized(fact, np.zeros(0)).shape == (0,)
        fact = ldlt_factorize_scaled(np.zeros((0, 0)))
        assert solve_factorized(fact, np.zeros(0)).shape == (0,)
        shifted, dw = make_positive_definite(np.zeros((0, 0)), RegularizationSchedule())
        assert shifted.shape == (0, 0) and dw == 0.0

    def test_inertia_against_jacobi_oracle(self):
        rng = np.random.RandomState(123)
        for trial in range(200):
            n = rng.randint(1, 13)
            M = rng.randn(n, n)
            M = M + M.T
            if trial % 4 == 0:  # plant rank deficiency
                r = rng.randint(0, n)
                B = rng.randn(n, r)
                M = B @ B.T - (B[:, : r // 2] @ B[:, : r // 2].T if r else 0.0)
                M = 0.5 * (M + M.T)
            fact = ldlt_factorize(M)
            eigs = jacobi_eigenvalues(M)
            assert fact.inertia == sign_counts(eigs, fact.zero_tol)

    def test_solve_identity(self):
        fact = ldlt_factorize(np.eye(3))
        x = solve_factorized(fact, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(x, [1.0, 0.0, 0.0])

    def test_solve_diagonal(self):
        fact = ldlt_factorize(np.diag([2.0, -4.0]))
        x = solve_factorized(fact, np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, -1.0])

    def test_solve_against_gaussian_elimination_oracle(self):
        rng = np.random.RandomState(11)
        for _ in range(50):
            n = rng.randint(1, 11)
            B = rng.randn(n, n)
            M = B @ B.T + 0.5 * np.eye(n)
            rhs = rng.randn(n)
            x = solve_factorized(ldlt_factorize(M), rhs)
            expected = gaussian_elimination(M, rhs)
            resid = np.max(np.abs(M @ x - rhs))
            assert resid <= 1e-9 * (1.0 + np.max(np.abs(rhs)))
            np.testing.assert_allclose(x, expected, atol=1e-8)

    def test_solve_singular_raises(self):
        fact = ldlt_factorize(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            solve_factorized(fact, np.ones(2))

    def test_indefinite_solve(self):
        rng = np.random.RandomState(5)
        for _ in range(30):
            n = rng.randint(2, 10)
            M = rng.randn(n, n)
            M = M + M.T  # generically indefinite, nonsingular
            rhs = rng.randn(n)
            x = solve_factorized(ldlt_factorize(M), rhs)
            assert np.max(np.abs(M @ x - rhs)) <= 1e-8 * (1 + np.max(np.abs(rhs)))


def gaussian_elimination(M, rhs):
    """Plain partial-pivoting Gaussian elimination (independent of LDL^T)."""
    A = np.hstack([np.array(M, dtype=float), np.array(rhs, dtype=float).reshape(-1, 1)])
    n = A.shape[0]
    for k in range(n):
        piv = k + int(np.argmax(np.abs(A[k:, k])))
        A[[k, piv]] = A[[piv, k]]
        A[k] /= A[k, k]
        for i in range(k + 1, n):
            A[i] -= A[i, k] * A[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = A[k, n] - A[k, k + 1:n] @ x[k + 1:]
    return x


def corrected(H, A, schedule=None):
    """inertia_correct's factorization with the shifts (dw, dc) it applied:
    dw from the schedule, which records every positive dw it takes, and dc
    from the (2,2) block of the factorized matrix, -dc s_i^2 after
    equilibration (0 for a certified factorization, which has no matrix)."""
    schedule = RegularizationSchedule() if schedule is None else schedule
    before = schedule.last_successful
    fact = inertia_correct(H, A, schedule, 1e-8)
    dw = schedule.last_successful if schedule.last_successful != before else 0.0
    n = H.shape[0]
    dc = 0.0
    if fact.matrix is not None and fact.matrix.shape[0] > n:
        dc = -fact.matrix[n, n] / fact.row_scaling[n] ** 2
    return fact, dw, dc


class TestInertiaCorrection:
    def test_already_correct(self):
        fact, dw, dc = corrected(np.eye(2), np.array([[1.0, 0.0]]))
        assert dw == 0.0 and dc == 0.0
        assert fact.inertia == (2, 1, 0)

    def test_negative_curvature_off_nullspace_needs_no_dw(self):
        # null(A) is spanned by e2 where H is positive: saddle matrix already
        # has the target inertia
        fact, dw, dc = corrected(np.diag([-1.0, 1.0]), np.array([[1.0, 0.0]]))
        assert fact.inertia == (2, 1, 0) and dw == 0.0

    def test_indefinite_hessian_needs_dw(self):
        # null(A) is spanned by e1 where H = -1: the smallest workable shift
        # exceeds 1
        H = np.diag([-1.0, 1.0])
        A = np.array([[0.0, 1.0]])
        schedule = RegularizationSchedule()
        fact, dw, dc = corrected(H, A, schedule)
        assert fact.inertia == (2, 1, 0)
        assert dw > 1.0
        # enumerate the schedule against the eigenvalue oracle: every
        # scheduled value below dw must fail the inertia target
        for cand in RegularizationSchedule().candidates():
            if cand >= dw:
                break
            K = np.block([[H + cand * np.eye(2), A.T], [A, np.zeros((1, 1))]])
            eigs = jacobi_eigenvalues(K)
            assert sign_counts(eigs, 1e-12) != (2, 1, 0)

    def test_zero_jacobian_row_needs_dc(self):
        H = np.eye(2)
        A = np.zeros((1, 2))
        fact, dw, dc = corrected(H, A)
        assert dc > 0.0
        assert fact.inertia == (2, 1, 0)
        assert fact.n_zero == 0

    def test_make_positive_definite(self):
        W = np.diag([-1.0])
        shifted, dw = make_positive_definite(W, RegularizationSchedule())
        assert dw > 1.0
        assert ldlt_factorize(shifted).inertia == (1, 0, 0)

    def test_make_positive_definite_matches_factorized_probes(self):
        # the eigenvalue shortcut gives the shift that testing every probe
        # W + delta I with ldlt_factorize gives
        rng = np.random.RandomState(31)
        fast, slow = RegularizationSchedule(), RegularizationSchedule()
        for trial in range(100):
            n = rng.randint(2, 9)
            B = rng.randn(n, n) * 10.0 ** rng.uniform(-3.0, 3.0)
            # indefinite, or semidefinite with a zero eigenvalue
            W = B + B.T if trial % 3 else B[:, 1:] @ B[:, 1:].T

            def is_pd(delta):
                return ldlt_factorize(W + delta * np.eye(n)).inertia == (n, 0, 0)

            shifted, dw = make_positive_definite(W, fast)
            assert dw == scheduled_shift(slow, is_pd)
            assert ldlt_factorize(shifted).inertia == (n, 0, 0)

    def test_make_positive_definite_probe_bound_is_the_array_form(self):
        # each probe takes max |diagonal + delta| from the diagonal's two
        # ends; rounding is monotone, so that is the array's maximum, bit for
        # bit, and the shift is the one the array form gives
        import modnlp.linalg as linalg

        rng = np.random.RandomState(41)
        diagonals = rng.randn(2000, 10) * 10.0 ** rng.uniform(-8.0, 8.0, (2000, 1))
        deltas = -diagonals[np.arange(2000), rng.randint(0, 10, 2000)] * (1.0 + 1e-15 * rng.randn(2000))
        deltas[::2] = rng.randn(1000) * 10.0 ** rng.uniform(-12.0, 12.0, 1000)
        shifted = np.abs(diagonals + deltas[:, None]).max(axis=1)
        ends = np.maximum(np.abs(diagonals.max(axis=1) + deltas), np.abs(diagonals.min(axis=1) + deltas))
        assert np.array_equal(shifted, ends)

        fast, slow = RegularizationSchedule(), RegularizationSchedule()
        for trial in range(100):
            n = rng.randint(1, 9)
            B = rng.randn(n, n) * 10.0 ** rng.uniform(-3.0, 3.0)
            W = B + B.T + np.diag(rng.randn(n) * 10.0 ** rng.uniform(-3.0, 3.0))
            A = 0.5 * (W + W.T)
            lambda_min = np.linalg.eigvalsh(A)[0]
            diagonal = A.diagonal()
            off_diagonal = np.abs(A - np.diag(diagonal)).max()

            def is_pd(delta):
                max_abs = max(off_diagonal, float(np.max(np.abs(diagonal + delta))))
                return lambda_min + delta > linalg._zero_tol(max_abs, n)

            assert make_positive_definite(W, fast)[1] == scheduled_shift(slow, is_pd)


def scheduled_shift(schedule, is_pd):
    """The shift make_positive_definite takes for the probe is_pd: the first
    scheduled delta_w that passes, tightened by eight bisection steps."""
    previous = 0.0
    for delta_w in schedule.candidates():
        if is_pd(delta_w):
            if delta_w > 0.0:
                lo, hi = previous, delta_w
                for _ in range(8):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (lo, mid) if is_pd(mid) else (mid, hi)
                delta_w = hi
            schedule.record_success(delta_w)
            return delta_w
        previous = delta_w


def certified(H, A, delta_w=0.0, equilibrate=True):
    """_certified_factorization's record of [[H + dw I, A^T], [A, 0]] (H a
    matrix, its diagonal or a scalar), or None. When it certifies, the
    eigenvalue record of the matrix it proves (ldlt_factorize_scaled's, or
    ldlt_factorize's unless equilibrate) must have inertia (n, m, 0) and its
    zero_tol; up to order 16 the Jacobi oracle must count the same."""
    m, n = A.shape
    fact = _certified_factorization(H, A, delta_w, equilibrate)
    if fact is not None:
        K = assemble_kkt(np.diag(H) if np.ndim(H) == 1 else H, A, delta_w, 0.0)
        reference = ldlt_factorize_scaled(K) if equilibrate else ldlt_factorize(K)
        assert fact.matrix is None and fact.inertia == reference.inertia == (n, m, 0)
        assert fact.zero_tol == reference.zero_tol
        if n + m <= 16:
            eigs = jacobi_eigenvalues(reference.matrix)
            assert sign_counts(eigs, reference.zero_tol) == (n, m, 0)
    return fact


def backward_error(M, x, rhs):
    """Componentwise backward error of x as a solution of M x = rhs."""
    return float(np.max(np.abs(M @ x - rhs) / (np.abs(M) @ np.abs(x) + np.abs(rhs))))


def nullspace_split(rng, n, m, on_null, off_null):
    """A random A (m x n) and H = on_null P_Z + off_null P_Y, P_Z and P_Y the
    orthogonal projections onto null(A) and its complement."""
    A = rng.randn(m, n)
    V = np.linalg.svd(A)[2].T  # columns m: span null(A)
    return on_null * (V[:, m:] @ V[:, m:].T) + off_null * (V[:, :m] @ V[:, :m].T), A


class TestBlockCertificate:
    """The null-space certificate of _kkt_factorization against
    ldlt_factorize_scaled and the Jacobi oracle."""

    def test_certified_record_is_the_eigenvalue_record(self):
        # above the size where the certificate is tried, a certified record
        # has the inertia, scaling and zero_tol of ldlt_factorize_scaled's
        # and no matrix; its solves are as accurate as the LU's
        rng = np.random.RandomState(1)
        for n, m in ((56, 14), (40, 38), (50, 20), (64, 64)):
            B = rng.randn(n, n)
            D = 10.0 ** rng.uniform(-2.0, 2.0, n)
            H = D[:, None] * (B @ B.T + 0.1 * np.eye(n)) * D
            A = rng.randn(m, n) if m < n else np.linalg.qr(B)[0]  # n = m: no null space
            K = assemble_kkt(H, A, 0.0, 0.0)
            fact = _kkt_factorization(H, A, 0.0, 0.0)
            reference = ldlt_factorize_scaled(K)
            assert fact.matrix is None and fact.solve is not None
            assert fact.inertia == reference.inertia == (n, m, 0)
            assert np.array_equal(fact.row_scaling, reference.row_scaling)
            assert fact.zero_tol == reference.zero_tol
            rhs = rng.randn(n + m)
            lu = backward_error(K, solve_factorized(reference, rhs), rhs)
            assert backward_error(K, solve_factorized(fact, rhs), rhs) <= 10.0 * max(lu, 1e-16)

    def test_positive_definite_up_to_condition_1e12(self):
        rng = np.random.RandomState(2)
        count = 0
        for trial in range(60):
            n = rng.randint(1, 9)
            m = rng.randint(1, n + 1)
            condition = 10.0 ** (12.0 * (trial % 7) / 6.0)
            Q = np.linalg.qr(rng.randn(n, n))[0]
            H = Q @ np.diag(np.geomspace(1.0, 1.0 / condition, n)) @ Q.T
            count += certified(H * 10.0 ** rng.uniform(-3.0, 3.0), rng.randn(m, n)) is not None
        assert count >= 40

    def test_indefinite_hessian_positive_on_the_null_space(self):
        # H is indefinite but positive definite on null(A): certified, with
        # the Jacobi oracle's inertia; the eigenvalues of H alone refused it
        rng = np.random.RandomState(6)
        for trial in range(20):
            n = rng.randint(2, 9)
            m = rng.randint(1, n)
            H, A = nullspace_split(rng, n, m, 1.0, -5.0)
            assert np.linalg.eigvalsh(H)[0] < 0.0
            assert certified(H, A) is not None

    def test_chain_shaped_indefinite_system_needs_no_eigenvalues(self, monkeypatch):
        # a chain instance's shape, m = n - 2, above the gate, with an H that
        # has negative eigenvalues off null(A): inertia_correct takes the
        # certificate at dw = 0, computes no eigenvalues, and solves as
        # accurately as the LU
        import modnlp.linalg as linalg

        calls = []
        monkeypatch.setattr(linalg, "ldlt_factorize",
                            lambda M: calls.append(M.shape) or ldlt_factorize(M))
        rng = np.random.RandomState(13)
        n = 40
        H, A = nullspace_split(rng, n, n - 2, 1.0, -0.5)
        H += np.diag(10.0 ** rng.uniform(-6.0, 0.0, n))
        assert n + n - 2 >= _CERTIFY_MIN_ORDER and np.linalg.eigvalsh(H)[0] < 0.0
        fact, dw, dc = corrected(H, A)
        assert fact.matrix is None and fact.inertia == (n, n - 2, 0)
        assert dw == 0.0 and dc == 0.0 and calls == []
        K = assemble_kkt(H, A, 0.0, 0.0)
        rhs = rng.randn(2 * n - 2)
        lu = backward_error(K, np.linalg.solve(K, rhs), rhs)
        assert backward_error(K, solve_factorized(fact, rhs), rhs) <= 10.0 * max(lu, 1e-16)

    def test_delta_c(self):
        # a regularized (2,2) block is never certified: its record is
        # ldlt_factorize_scaled's
        rng = np.random.RandomState(3)
        H, A = nullspace_split(rng, 60, 20, 1.0, 1.0)
        fact = _kkt_factorization(H, A, 0.0, 1e-6)
        reference = ldlt_factorize_scaled(assemble_kkt(H, A, 0.0, 1e-6))
        assert fact.solve is None and np.array_equal(fact.matrix, reference.matrix)

    def test_no_constraints(self):
        # m = 0 is left to the eigenvalues
        rng = np.random.RandomState(4)
        for _ in range(20):
            n = rng.randint(1, 10)
            B = rng.randn(n, n)
            assert certified(B @ B.T + 0.1 * np.eye(n), np.zeros((0, n))) is None

    def test_no_variables(self):
        # n = 0, or any n < m: A cannot have full row rank
        rng = np.random.RandomState(14)
        assert certified(np.zeros((0, 0)), np.zeros((2, 0))) is None
        for n in range(1, 8):
            assert certified(np.eye(n), rng.randn(n + 1, n)) is None

    def test_rank_deficient_jacobian_is_not_certified(self):
        rng = np.random.RandomState(5)
        for _ in range(20):
            n = rng.randint(2, 8)
            m = rng.randint(2, n + 1)
            A = rng.randn(m, n)
            A[-1] = A[:-1].T @ rng.randn(m - 1)  # a combination of the others
            B = rng.randn(n, n)
            H = B @ B.T + 0.1 * np.eye(n)
            assert certified(H, A) is None
            assert ldlt_factorize_scaled(assemble_kkt(H, A, 0.0, 0.0)).n_zero > 0

    def test_schur_roundoff_does_not_certify(self):
        # a tiny (1,1) block, as z/x on inactive bounds with W = 0 in the
        # IPM, and an exactly dependent Jacobian row: the KKT matrix is
        # singular, and the roundoff of the zero eigenvalue of the Gram
        # matrix is far above t max|W|; without a margin for it, these
        # would be certified (n, m, 0)
        rng = np.random.RandomState(7)
        for trial in range(20):
            n, m = 54 + trial, 10
            A = rng.randint(-8, 9, size=(m, n)).astype(float)
            A[2] = A[0] + A[1]  # exact in floating point
            H = np.diag(10.0 ** rng.uniform(-7.0, -5.0, n))
            K = assemble_kkt(H, A, 0.0, 0.0)
            assert ldlt_factorize_scaled(K).inertia == (n, m - 1, 1)
            assert _kkt_factorization(H, A, 0.0, 0.0).inertia == (n, m - 1, 1)
            fact, dw, dc = corrected(H, A)
            assert fact.inertia == (n, m, 0) and dw == 0.0 and dc > 0.0

    def test_pivots_above_zero_tol_do_not_certify(self):
        # A = [I 0] and H = I - (1 - e) v v^T with v on null(A): the
        # equilibrated K has an eigenvalue of order e inside [-t, t], yet
        # every Cholesky pivot of Z^T H Z is above t. The eigenvalue count
        # finds a zero eigenvalue, and the certificate must refuse
        n, m = 12, 4
        A = np.hstack([np.eye(m), np.zeros((m, n - m))])
        v = np.concatenate([np.zeros(m), np.full(n - m, 1.0 / np.sqrt(n - m))])
        zero_tol = ldlt_factorize_scaled(np.eye(n + m)).zero_tol
        for e in (0.3 * zero_tol, 0.6 * zero_tol):
            H = np.eye(n) - (1.0 - e) * np.outer(v, v)
            reference = ldlt_factorize_scaled(assemble_kkt(H, A, 0.0, 0.0))
            eigs = jacobi_eigenvalues(reference.matrix)
            small = eigs[np.argmin(np.abs(eigs))]
            assert 0.0 < small < reference.zero_tol and reference.n_zero == 1
            assert sign_counts(eigs, reference.zero_tol) == (n - 1, m, 1)
            Z_block = reference.matrix[m:n, m:n]
            assert np.all(np.diag(np.linalg.cholesky(Z_block)) ** 2 > reference.zero_tol)
            assert certified(H, A) is None

    def test_coupling_of_null_space_and_range_space(self):
        # K = [[0, 1, b], [1, 10t, 0], [b, 0, 0]]: Z^T W Z = 10t passes its
        # own test and sigma_min(B)^2 = b^2 far exceeds t (|G| + t), but the
        # coupling C = 1 leaves an eigenvalue near 10 t b^2 inside [-t, t]:
        # refused
        zero_tol = _certified_factorization(
            np.eye(2), np.array([[1.0, 0.0]]), 0.0, False).zero_tol
        H = np.array([[0.0, 1.0], [1.0, 10.0 * zero_tol]])
        for b in (1e-3, 1e-2, 1e-1):
            A = np.array([[b, 0.0]])
            eigs = jacobi_eigenvalues(assemble_kkt(H, A, 0.0, 0.0))
            assert sign_counts(eigs, zero_tol) == (1, 1, 1)
            assert certified(H, A, equilibrate=False) is None

    def test_a_basis_off_the_null_space_is_paid_for_by_beta(self, monkeypatch):
        # H = Y Y^T is zero on null(A), so K is singular; a basis tilted by
        # eps out of null(A) sees Z^T H Z of order eps^2 > t. The proof runs
        # at t + beta, beta >= |A Z|, and must refuse at every tilt: proved
        # at t alone, the tilts from 3e-5 to 3e-2 would be certified
        import modnlp.linalg as linalg

        rng = np.random.RandomState(21)
        n, m = 30, 20
        A = rng.randn(m, n)
        V = np.linalg.svd(A)[2].T
        Z, Y = V[:, m:], V[:, :m]
        H = Y @ Y.T
        for eps in np.logspace(-8.0, -1.0, 15):
            tilted = np.linalg.qr(Z + eps * Y[:, : n - m])[0]
            monkeypatch.setattr(linalg, "_null_space_basis", lambda B, gram_inv: tilted)
            assert _certified_factorization(H, A, 0.0, False) is None, eps

    def test_non_finite_is_not_certified(self):
        H = np.eye(64)
        H[0, 1] = np.nan
        assert _certified_factorization(H, np.ones((1, 64)), 0.0, True) is None
        with pytest.raises(SingularMatrixError, match="non-finite"):
            _kkt_factorization(H, np.ones((1, 64)), 0.0, 0.0)


def triangular_with_condition(rng, order, cond):
    """The R of the QR of U diag(s) V^T, U and V random orthogonal and s
    from 1 down to 1/cond: an upper triangular matrix of condition cond."""
    U = np.linalg.qr(rng.randn(order, order))[0]
    V = np.linalg.qr(rng.randn(order, order))[0]
    return np.linalg.qr(U @ np.diag(np.logspace(0.0, -np.log10(cond), order)) @ V.T)[1]


def extended_upper_inverse(T):
    """T^-1 of an upper triangular T by row substitution in np.longdouble."""
    T = T.astype(np.longdouble)
    X = np.zeros(T.shape, dtype=np.longdouble)
    for i in range(T.shape[0] - 1, -1, -1):
        X[i] = -T[i, i + 1:] @ X[i + 1:]
        X[i, i] += 1
        X[i] /= T[i, i]
    return X


class TestTriangularInverse:
    """_triangular_inverse against np.linalg.inv, across its leaf order 32
    and condition numbers 1 to 1e12."""

    CONDITIONS = (1.0, 1e3, 1e6, 1e9, 1e12)

    @pytest.mark.parametrize("order", [0, 1, 31, 32, 33, 64, 138])
    def test_residual_within_ten_times_the_lu(self, order):
        # the blocked method bounds L X - I for a lower L (Du Croz & Higham,
        # 1992): within 10x np.linalg.inv's residual on the same side. The
        # certificate's solves use both sides; on the other one
        # np.linalg.inv, a substitution that minimizes exactly that
        # residual, is up to about 30x better at condition 1e12 (28.8x the
        # worst of 150 draws of orders 33 to 138), and within 10x up to the
        # condition 1e5 or so that a certified factor can have (see
        # TestBlockKernel)
        rng = np.random.RandomState(order)
        for cond in self.CONDITIONS:
            R = triangular_with_condition(rng, order, cond) if order else np.zeros((0, 0))
            L = R.T.copy()
            X = _triangular_inverse(L)
            assert X.shape == L.shape
            assert np.all(np.triu(X, 1) == 0.0)

            def residual(Z, bounded_side):
                product = L @ Z if bounded_side else Z @ L
                return float(np.linalg.norm(product - np.eye(order)))

            Y = np.linalg.inv(L)
            assert residual(X, True) <= 10.0 * max(residual(Y, True), 1e-16)
            other_bound = 10.0 if cond <= 1e6 else 50.0
            assert residual(X, False) <= other_bound * max(residual(Y, False), 1e-16)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float")
    @pytest.mark.parametrize("order", [1, 31, 33, 64, 138])
    def test_forward_error_within_ten_times_the_lu(self, order):
        rng = np.random.RandomState(100 + order)
        for cond in self.CONDITIONS:
            R = triangular_with_condition(rng, order, cond)
            L, inverse = R.T.copy(), extended_upper_inverse(R).T

            def error(Z):
                return float(np.linalg.norm((Z - inverse).astype(float)))

            X = _triangular_inverse(L)
            assert error(X) <= 10.0 * max(error(np.linalg.inv(L)), 1e-300)

    def test_leaf_is_numpys_inverse(self):
        # up to order 32 the inverse is np.linalg.inv's with its upper
        # triangle zeroed, bit for bit
        rng = np.random.RandomState(5)
        for order in (1, 2, 17, 32):
            L = triangular_with_condition(rng, order, 1e4).T.copy()
            assert np.array_equal(_triangular_inverse(L), np.tril(np.linalg.inv(L)))

    def test_singular_leaf_raises(self):
        T = np.tril(np.ones((70, 70)))
        T[50, 50] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _triangular_inverse(T)


def parent_triangular_inverse(T, upper):
    """The oracle: _triangular_inverse as it was before its leaves reused one
    mask per order and side, np.triu/np.tril at every leaf."""
    order = T.shape[0]
    if order <= 32:
        inverse = np.linalg.inv(T)
        return np.triu(inverse) if upper else np.tril(inverse)
    k = order // 2
    inverse = np.zeros((order, order))
    head = inverse[:k, :k] = parent_triangular_inverse(T[:k, :k], upper)
    tail = inverse[k:, k:] = parent_triangular_inverse(T[k:, k:], upper)
    if upper:
        inverse[:k, k:] = -(head @ T[:k, k:]) @ tail
    else:
        inverse[k:, :k] = -(tail @ T[k:, :k]) @ head
    return inverse


def test_triangular_inverse_equals_the_oracle():
    # orders 1 to 140, with planted -0.0 entries: the leaves' masks give
    # np.tril's bytes, and the halves the same products
    rng = np.random.RandomState(23)
    for order in range(1, 141):
        T = np.tril(rng.randn(order, order)) + np.diag(2.0 + rng.rand(order))
        T[rng.rand(order, order) < 0.05] *= -0.0
        T.flat[:: order + 1] = 2.0 + rng.rand(order)
        assert _triangular_inverse(T).tobytes() == \
            parent_triangular_inverse(T, upper=False).tobytes()


def parent_certified_factorization(H, A, delta_w, equilibrate):
    """The oracle: _certified_factorization as it was before it built its
    equilibrated blocks in place and used unscaled blocks as given, and
    before the null-space proof took its basis from the Gram factor: here a
    matrix H still takes the complete QR of B^T."""
    from modnlp.linalg import (
        _EPS, Factorization, _cholesky_shift, _schur_margin, _shifted, _zero_tol)

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
    else:
        s_H, s_A = np.ones(n), np.ones(m)
    B = (s_A[:, None] * s_H) * A
    if diagonal:
        X = (s_H * s_H) * W
        x_max = float(np.abs(X).max())
    else:
        X = W * (s_H[:, None] * s_H)
        X = 0.5 * (X + X.T)
        abs_X = np.abs(X)
        w = float(abs_X.sum(axis=1).max())
        x_max = float(abs_X.max())
    b_max = float(np.abs(B).max())
    if not (x_max < np.inf and b_max < np.inf):
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
            L = np.linalg.cholesky(gram)
            shift = t * (mu + t) / mu
        else:
            t = _cholesky_shift(n + m, max_abs, zero_tol)
            Q, R = np.linalg.qr(B.T, mode="complete")
            Y, Z, R = Q[:, :m], Q[:, m:], R[:m]
            XZ = X @ Z
            M = Z.T @ XZ
            c = float(np.linalg.norm(XZ.T @ Y)) + _cholesky_shift(n, w, 0.0)
            L_inv = parent_triangular_inverse(np.linalg.cholesky(M), upper=False)
            mu = 0.5 / float(np.sum(L_inv * L_inv)) if n > m else np.inf
            np.linalg.cholesky(_shifted(M, -_cholesky_shift(n, w, mu)))
            if not mu > t:
                return None
            gram = R.T @ R
            shift = t * (w + t) + t * c * c / (mu - t)
        gram.flat[:: m + 1] = gram.diagonal() * (1.0 - _schur_margin(n, m)) - shift
        np.linalg.cholesky(gram)
        if diagonal:
            L_inv = parent_triangular_inverse(L, upper=False)
        else:
            R_inv = parent_triangular_inverse(R, upper=True)
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
            x = Y @ (rhs[n:] @ R_inv)
            x += Z @ ((((rhs[:n] - X @ x) @ Z) @ L_inv.T) @ L_inv)
            return np.concatenate([x, R_inv @ ((rhs[:n] - X @ x) @ Y)])

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


def certified_systems(rng):
    """(label, H, A, delta_w): range-space (a positive diagonal, some near
    refusal), scalar-H and null-space systems (symmetric or not, positive
    definite, or positive only on null(A)), and planted refusals: a
    non-positive diagonal entry, a repeated row of A, a reduced Hessian
    that is not positive definite, a NaN or inf entry, m = 0 and n < m."""
    for n, m in ((6, 3), (20, 7), (48, 16), (90, 40), (140, 70)):
        A = rng.randn(m, n) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
        h = 10.0 ** rng.uniform(-6.0, 2.0, n)
        yield "diagonal", h, A, 0.0
        yield "diagonal shifted", h, A, 1e-4
        near = h.copy()
        near[: n // 4] = 1e-14
        yield "diagonal near refusal", near, A, 0.0
        yield "scalar", float(rng.uniform(0.1, 10.0)), A, 0.0
        yield "scalar tiny", 1e-13, A, 0.0
        H, B = ipm_like(rng, n, m)
        yield "matrix", H, B, 0.0
        yield "matrix shifted", H, B, 1e-3
        yield "matrix not symmetric", H + 1e-9 * rng.randn(n, n), B, 0.0
        G = rng.randn(n, n)
        yield "matrix well scaled", G @ G.T / n + np.eye(n), rng.randn(m, n), 0.0
        P, C = nullspace_split(rng, n, m, 1.0, -1.0)
        yield "matrix positive on null(A) only", P, C, 0.0
        Q, D = nullspace_split(rng, n, m, -1.0, 1.0)
        yield "refuse: indefinite reduced Hessian", Q, D, 0.0
        bad = h.copy()
        bad[n // 2] = -1.0 if n % 2 else 0.0
        yield "refuse: non-positive diagonal", bad, A, 0.0
        repeated = A.copy()
        repeated[-1] = repeated[0]
        yield "refuse: repeated row, diagonal", h, repeated, 0.0
        yield "refuse: repeated row, matrix", H, repeated, 0.0
        for value in (np.nan, np.inf):
            planted = A.copy()
            planted[m // 2, n // 3] = value
            yield "refuse: %r in A" % value, h, planted, 0.0
            planted_H = H.copy()
            planted_H[n // 3, n // 2] = value
            yield "refuse: %r in H" % value, planted_H, B, 0.0
    yield "refuse: m = 0", np.ones(5), np.zeros((0, 5)), 0.0
    yield "refuse: n < m", np.ones(3), rng.randn(5, 3), 0.0


def test_certified_factorization_equals_the_oracle():
    # every decision, record and refusal equals the oracle's, equilibrated
    # or not; a range-space or scalar record solves as the oracle's byte for
    # byte, and a null-space record (a matrix H), whose basis and factors
    # are no longer the oracle's QR, passes the checks of
    # assert_null_space_record instead
    rng = np.random.RandomState(29)
    counts = {"certified": 0, "refused": 0, "null space": 0}
    for label, H, A, delta_w in certified_systems(rng):
        for equilibrate in (True, False):
            with np.errstate(invalid="ignore"):  # the planted NaN and inf
                fact = _certified_factorization(H, A, delta_w, equilibrate)
                expected = parent_certified_factorization(H, A, delta_w, equilibrate)
            assert (fact is None) == (expected is None), (label, equilibrate)
            if fact is None:
                counts["refused"] += 1
                continue
            counts["certified"] += 1
            assert fact.matrix is None and fact.inertia == expected.inertia
            assert np.float64(fact.zero_tol).tobytes() == np.float64(expected.zero_tol).tobytes()
            if equilibrate:
                assert fact.row_scaling.tobytes() == expected.row_scaling.tobytes()
            else:
                assert fact.row_scaling is None and expected.row_scaling is None
            if np.ndim(H) == 2:
                counts["null space"] += 1
                assert_null_space_record(fact, H, A, delta_w, equilibrate, rng)
                continue
            m, n = A.shape
            for rhs in (rng.randn(n + m), rng.randn(n + m) * 10.0 ** rng.uniform(-8, 8, n + m)):
                assert fact.solve(rhs).tobytes() == expected.solve(rhs).tobytes(), label
    assert counts["certified"] >= 50 and counts["refused"] >= 100
    assert counts["null space"] >= 20


def assert_null_space_record(fact, H, A, delta_w, equilibrate, rng):
    """The checks of a certified null-space record of [[H + delta_w I, A^T],
    [A, 0]]: the eigenvalues of the matrix it proves (equilibrated as
    ldlt_factorize_scaled does, unless not equilibrate) leave [-t, t] empty,
    t = fact.zero_tol; and on two right-hand sides, one with entries scaled
    by 10^-3 to 10^3, its solve's componentwise and normwise backward errors
    are at most 10 times the LU's on that matrix."""
    m, n = A.shape
    K = assemble_kkt(H, A, delta_w, 0.0)
    reference = ldlt_factorize_scaled(K) if equilibrate else ldlt_factorize(K)
    assert fact.zero_tol == reference.zero_tol
    eigs = np.linalg.eigvalsh(reference.matrix)
    assert not np.any(np.abs(eigs) <= fact.zero_tol)
    M = reference.matrix
    for rhs in (rng.randn(n + m), rng.randn(n + m) * 10.0 ** rng.uniform(-3.0, 3.0, n + m)):
        x, lu = fact.solve(rhs), np.linalg.solve(M, rhs)
        assert backward_error(M, x, rhs) <= 10.0 * max(backward_error(M, lu, rhs), 1e-16)
        assert normwise_backward_error(M, x, rhs) <= 10.0 * max(
            normwise_backward_error(M, lu, rhs), 1e-16)


def normwise_backward_error(M, x, rhs):
    """Normwise backward error of x as a solution of M x = rhs, in the
    infinity norm."""
    residual = np.abs(M @ x - rhs).max()
    return float(residual / (np.abs(M).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max()))


def banded_rows(rng, m, n):
    """An m x n matrix with three standard normal entries a row, the first
    pushed 3 away from zero: in columns i, i + 1 and i + 2 (mod n) when n -
    m <= 2, as a chain Jacobian, else in columns i, i + 1 and one past m, as
    a control Jacobian's state and control columns. Its leading order-m
    block is diagonally dominant in most rows, so A is well conditioned."""
    B = np.zeros((m, n))
    k = n - m
    for i in range(m):
        entries = rng.randn(3)
        entries[0] += np.copysign(3.0, entries[0])
        B[i, [i, (i + 1) % n, (i + 2) % n] if k <= 2 else [i, i + 1, m + i % k]] = entries
    return B


def split_hessian(V, m, on_null, off_null, coupling):
    """H = Z diag(on_null) Z^T + Y diag(off_null) Y^T + C + C^T, C = Z G Y^T,
    with Z = V[:, m:] and Y = V[:, :m], V orthogonal (the right singular
    vectors of a B of m rows: Z spans null(B)), and G a fixed random (n -
    m) x m matrix scaled by coupling / sqrt(m): its reduced Hessian Z^T H Z
    is diag(on_null), and H is indefinite when an entry of off_null is
    negative."""
    n = V.shape[0]
    Z, Y = V[:, m:], V[:, :m]
    H = (Z * on_null) @ Z.T + (Y * off_null) @ Y.T
    if coupling and m < n:
        C = Z @ (coupling / np.sqrt(m) * np.random.RandomState(0).randn(n - m, m)) @ Y.T
        H += C + C.T
    return 0.5 * (H + H.T)


def flip(decide, low, high, steps=18):
    """The parameter between low and high (0 < low < high) at which the
    decision decide(parameter) changes, by bisection of its logarithm to a
    relative width of (high / low) ** 2 ** -steps; None when decide(low) ==
    decide(high)."""
    at_low = decide(low)
    if decide(high) == at_low:
        return None
    for _ in range(steps):
        middle = np.sqrt(low * high)
        low, high = (middle, high) if decide(middle) == at_low else (low, middle)
    return np.sqrt(low * high)


def null_space_systems(seed):
    """(label, H, A) for the null-space proof: k = n - m in {0, 1, 2, n/4,
    n/2} at orders n + m from 64 to 280, with a banded A (three entries a
    row) and a dense one, rows scaled by 10^-1 to 10, and H indefinite but
    positive definite on null(A) (split_hessian). Beside each base system,
    planted near-refusals: the smallest eigenvalue of the reduced Hessian,
    the smallest singular value of A and the coupling C, each at 1.01 and
    1 / 1.01 times (sigma^2 at 1.01 and 1 / 1.01 times) the value at which
    the oracle's decision flips, and sigma^2 at 2 and 1 / 2 times it, so
    that the Gram matrix lies within 2x of its refusal shift. A flip is
    found by bisection on the oracle's decision."""
    rng = np.random.RandomState(seed)

    def oracle(H, A):
        return parent_certified_factorization(H, A, 0.0, True) is not None

    shapes = ((64, 0, "dense"), (280, 0, "banded"), (72, 1, "dense"), (100, 1, "banded"),
              (120, 2, "dense"), (278, 2, "banded"), (220, "n/4", "dense"),
              (160, "n/4", "banded"), (200, "n/2", "dense"), (240, "n/2", "banded"))
    for order, k, structure in shapes:
        if k == "n/4":
            n = round(order / 1.75)
            k = n // 4
        elif k == "n/2":
            n = round(order / 1.5)
            k = n // 2
        else:
            n = (order + k) // 2
        m = n - k
        A = banded_rows(rng, m, n) if structure == "banded" else rng.randn(m, n)
        A *= 10.0 ** rng.uniform(-1.0, 1.0, (m, 1))
        U, singular, Vt = np.linalg.svd(A)
        on_null = 10.0 ** rng.uniform(-2.0, 1.0, k)
        off_null = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-2.0, 1.0, m)
        label = "%s k=%d n=%d m=%d" % (structure, k, n, m)
        yield label, split_hessian(Vt.T, m, on_null, off_null, 0.3), A

        def plants(name, at, low, high, factors=(1.01, 1.0 / 1.01)):
            point = flip(lambda p: oracle(*at(p)), low, high)
            assert point is not None, (label, name)
            for factor in factors:
                yield "%s, %s at %.4g x its flip" % (label, name, factor), *at(factor * point)

        def with_eigenvalue(theta):
            values = on_null.copy()
            values[0] = theta
            return split_hessian(Vt.T, m, values, off_null, 0.3), A

        def with_sigma(sigma, coupling=0.3):
            # A with its smallest singular value replaced by sigma: its
            # null space and its other singular values stay
            values = singular.copy()
            values[-1] = sigma
            return split_hessian(Vt.T, m, on_null, off_null, coupling), (U * values) @ Vt[:m]

        if k:
            yield from plants("reduced Hessian eigenvalue", with_eigenvalue, 1e-16, 1.0)
        yield from plants("sigma_min(A)", with_sigma, 1e-14, singular[-1],
                          (np.sqrt(1.01), 1.0 / np.sqrt(1.01), np.sqrt(2.0), np.sqrt(0.5)))
        if k:
            # sigma_min(A) at 4x its flip, where the coupling already
            # weighs in, and C grown until it refuses
            sigma = 4.0 * flip(lambda s: oracle(*with_sigma(s)), 1e-14, singular[-1])
            yield from plants("coupling", lambda g: with_sigma(sigma, g), 0.3, 1e6)


# Planted cases on which the proof may refuse where the oracle certifies:
# those 1% on the certifying side of a flip with a dense A and k >= n / 4.
# beta, the bound on |B Z_0| that t grows by, is mostly the roundoff bound
# n eps ||B| |Z||_F of forming B Z, 2.5-5% of t there (below 0.6% with a
# banded A or k <= 2), and the shift grows faster than t.
RAZOR_EDGE = tuple(
    "dense k=%s, %s" % (shape, plant)
    for shape in ("31 n=126 m=95", "66 n=133 m=67")
    for plant in ("reduced Hessian eigenvalue at 1.01 x its flip",
                  "sigma_min(A) at 1.005 x its flip", "coupling at 0.9901 x its flip"))


def test_null_space_proof_decides_as_the_qr_oracle():
    # every decision equals the complete-QR oracle's, but for RAZOR_EDGE,
    # where it may only refuse, and every certified record passes
    # assert_null_space_record
    rng = np.random.RandomState(31)
    counts = {"certified": 0, "refused": 0}
    for label, H, A in null_space_systems(32):
        fact = _certified_factorization(H, A, 0.0, True)
        expected = parent_certified_factorization(H, A, 0.0, True)
        if label in RAZOR_EDGE:
            assert fact is None or expected is not None, label
        else:
            assert (fact is None) == (expected is None), label
        counts["certified" if fact else "refused"] += 1
        if fact is not None:
            assert fact.inertia == (A.shape[1], A.shape[0], 0) and fact.matrix is None
            assert_null_space_record(fact, H, A, 0.0, True, rng)
    assert counts["certified"] >= 30 and counts["refused"] >= 30


def ipm_like(rng, n, m):
    """An interior-point KKT block pair: a positive definite Hessian plus a
    barrier diagonal from 1e-10 to 1e2, and a Jacobian whose rows are
    scaled by 10^-6 to 10^6."""
    W = rng.randn(n, n)
    H = W @ W.T / n + np.diag(10.0 ** rng.uniform(-10.0, 2.0, n))
    return H, rng.randn(m, n) * 10.0 ** rng.uniform(-6.0, 6.0, (m, 1))


def control_like(rng, n, m):
    """A control-shaped interior-point block pair: the diagonal of H = W +
    Sigma, from 1e-6 to 1e2, and a Jacobian whose rows are scaled by 10^-2
    to 10^2."""
    h = 10.0 ** rng.uniform(-6.0, 2.0, n)
    return h, rng.randn(m, n) * 10.0 ** rng.uniform(-2.0, 2.0, (m, 1))


def range_space_calls(monkeypatch):
    """The H that _kkt_factorization passes to _certified_factorization, as
    'diagonal' (a vector or a scalar) or 'matrix', call by call."""
    import modnlp.linalg as linalg

    calls, certify = [], linalg._certified_factorization

    def spy(H, *args):
        calls.append("diagonal" if np.ndim(H) < 2 else "matrix")
        return certify(H, *args)

    monkeypatch.setattr(linalg, "_certified_factorization", spy)
    return calls


class TestBlockKernel:
    """The certified factors of _kkt_factorization and their solves against
    ldlt_factorize_scaled plus solve_factorized, from order
    _CERTIFY_MIN_ORDER = 64 on."""

    def test_ipm_backward_error_within_ten_times_the_lu(self):
        rng = np.random.RandomState(8)
        count = 0
        for trial in range(30):
            n = rng.randint(33, 70)
            m = n - 2
            H, A = ipm_like(rng, n, m)
            K = assemble_kkt(H, A, 0.0, 0.0)
            fact = _kkt_factorization(H, A, 0.0, 0.0)
            reference = ldlt_factorize_scaled(K)
            assert fact.inertia == reference.inertia
            if fact.solve is None:
                continue
            count += 1
            rhs = rng.randn(n + m) * 10.0 ** rng.uniform(-3.0, 3.0, n + m)
            lu = backward_error(K, solve_factorized(reference, rhs), rhs)
            assert backward_error(K, solve_factorized(fact, rhs), rhs) <= 10.0 * max(lu, 1e-16)
        assert count >= 25
        # the benchmark's control and chain shapes, whose triangular factors
        # (R of order m, L of order n - m) are inverted by halves
        rng = np.random.RandomState(14)
        for n, m in ((120, 60), (120, 118)):
            certified = 0
            for trial in range(6):
                H, A = ipm_like(rng, n, m)
                K = assemble_kkt(H, A, 0.0, 0.0)
                fact = _kkt_factorization(H, A, 0.0, 0.0)
                if fact.solve is None:
                    continue
                certified += 1
                rhs = rng.randn(n + m) * 10.0 ** rng.uniform(-3.0, 3.0, n + m)
                lu = backward_error(K, solve_factorized(ldlt_factorize_scaled(K), rhs), rhs)
                assert backward_error(K, solve_factorized(fact, rhs), rhs) <= 10.0 * max(lu, 1e-16)
            assert certified >= 2

    def test_ill_conditioned_jacobian_backward_error_within_ten_times_the_lu(self):
        # A = U diag(1 .. 10^-p) V^T and H with eigenvalues from 1 to 10^-q,
        # at the control and chain shapes: up to p = 5 the certificate
        # accepts, with an R of condition up to 1e5 inverted by halves, and
        # its refined solves stay within 10x the LU's backward error; at
        # p = 12 sigma_min(R)^2 falls below its test and it refuses (at the
        # control shape the coupling C refuses p = 5 unless H = I)
        rng = np.random.RandomState(15)
        for n, m, q in ((120, 60, 0.0), (120, 118, 10.0)):
            for p in (3, 5, 12):
                U = np.linalg.qr(rng.randn(m, m))[0]
                V = np.linalg.qr(rng.randn(n, n))[0][:, :m]
                A = U @ np.diag(np.logspace(0.0, -p, m)) @ V.T
                Q = np.linalg.qr(rng.randn(n, n))[0]
                H = Q @ np.diag(np.logspace(0.0, -q, n)) @ Q.T
                K = assemble_kkt(H, A, 0.0, 0.0)
                fact = _kkt_factorization(H, A, 0.0, 0.0)
                reference = ldlt_factorize_scaled(K)
                assert fact.inertia == reference.inertia
                assert (fact.solve is not None) == (p < 12)
                if fact.solve is None:
                    continue
                for trial in range(3):
                    rhs = rng.randn(n + m) * 10.0 ** rng.uniform(-3.0, 3.0, n + m)
                    lu = backward_error(K, solve_factorized(reference, rhs), rhs)
                    assert backward_error(K, solve_factorized(fact, rhs), rhs) <= 10.0 * max(lu, 1e-16)
        # a diagonal H with entries from 1 to 10^-q, at the control shapes:
        # the range-space proof accepts up to p = 5 and refuses p = 12, and
        # its refined solves stay within 10x the LU's backward error
        for n, m, q in ((120, 60, 0.0), (140, 70, 4.0)):
            for p in (3, 5, 12):
                U = np.linalg.qr(rng.randn(m, m))[0]
                V = np.linalg.qr(rng.randn(n, n))[0][:, :m]
                A = U @ np.diag(np.logspace(0.0, -p, m)) @ V.T
                h = rng.permutation(np.logspace(0.0, -q, n))
                K = assemble_kkt(np.diag(h), A, 0.0, 0.0)
                reference = ldlt_factorize_scaled(K)
                fact = certified(h, A)
                assert (fact is not None) == (p < 12)
                assert _kkt_factorization(np.diag(h), A, 0.0, 0.0).inertia == reference.inertia
                if fact is None:
                    continue
                for trial in range(3):
                    rhs = rng.randn(n + m) * 10.0 ** rng.uniform(-3.0, 3.0, n + m)
                    lu = backward_error(K, solve_factorized(reference, rhs), rhs)
                    assert backward_error(K, solve_factorized(fact, rhs), rhs) <= 10.0 * max(lu, 1e-16)

    def test_diagonal_hessian_takes_the_range_space_proof(self, monkeypatch):
        # a diagonal H at the control shape, m about n / 2, orders 64 to
        # 210: the range-space proof decides first, a certified record has
        # the eigenvalue count's inertia, and it solves within 10x the LU's
        # backward error
        calls = range_space_calls(monkeypatch)
        rng = np.random.RandomState(16)
        by_range_space = 0
        for order in (64, 96, 150, 180, 210):
            m = order // 3
            n = order - m
            for trial in range(4):
                h, A = control_like(rng, n, m)
                H = np.diag(h)
                K = assemble_kkt(H, A, 0.0, 0.0)
                calls.clear()
                fact = _kkt_factorization(H, A, 0.0, 0.0)
                reference = ldlt_factorize_scaled(K)
                assert calls[0] == "diagonal" and fact.inertia == reference.inertia
                if fact.solve is None:
                    continue
                by_range_space += calls == ["diagonal"]
                assert np.array_equal(fact.row_scaling, reference.row_scaling)
                assert fact.zero_tol == reference.zero_tol
                rhs = rng.randn(n + m) * 10.0 ** rng.uniform(-3.0, 3.0, n + m)
                lu = backward_error(K, solve_factorized(reference, rhs), rhs)
                assert backward_error(K, solve_factorized(fact, rhs), rhs) <= 10.0 * max(lu, 1e-16)
        assert by_range_space >= 18

    def test_diagonal_hessian_near_refusal(self, monkeypatch):
        # sigma_min(A) swept across the range-space test's threshold, and
        # the smallest diagonal entry across t: wherever the range-space
        # proof certifies, the eigenvalue count finds (n, m, 0) (certified
        # checks it); it refuses every equilibrated diagonal entry at or
        # below t, and then the null-space proof and the eigenvalues decide
        calls = range_space_calls(monkeypatch)
        rng = np.random.RandomState(17)
        n, m = 100, 50
        U = np.linalg.qr(rng.randn(m, m))[0]
        V = np.linalg.qr(rng.randn(n, n))[0][:, :m]
        decisions = set()
        for sigma in np.logspace(-7.0, -4.0, 13):
            A = U @ np.diag(np.append(np.ones(m - 1), sigma)) @ V.T
            h = np.ones(n)
            reference = ldlt_factorize_scaled(assemble_kkt(np.diag(h), A, 0.0, 0.0))
            decisions.add(certified(h, A) is not None)
            assert _kkt_factorization(np.diag(h), A, 0.0, 0.0).inertia == reference.inertia
        assert decisions == {True, False}
        # unequilibrated, with rows of norm at most 1, the shift t (mu + t) /
        # mu, not the margin, decides: sigma^2 from t / 10 to 10 t
        zero_tol = ldlt_factorize(np.eye(n + m)).zero_tol
        decisions = set()
        for ratio in np.logspace(-1.0, 1.0, 21):
            A = U @ np.diag(np.append(np.ones(m - 1), np.sqrt(ratio * zero_tol))) @ V.T
            decisions.add(certified(np.ones(n), A, equilibrate=False) is not None)
        assert decisions == {True, False}
        A = rng.randn(m, n)
        decisions = set()
        for entry in np.logspace(-14.0, -8.0, 13):
            h = np.ones(n)
            h[3] = entry
            H = np.diag(h)
            reference = ldlt_factorize_scaled(assemble_kkt(H, A, 0.0, 0.0))
            X = reference.row_scaling[:n] ** 2 * h
            decision = certified(h, A) is not None
            if X.min() <= reference.zero_tol:
                assert not decision
            decisions.add(decision)
            calls.clear()
            fact = _kkt_factorization(H, A, 0.0, 0.0)
            assert fact.inertia == reference.inertia
            assert calls == (["diagonal"] if decision else ["diagonal", "matrix"])
        assert decisions == {True, False}

    def test_diagonal_hessian_refusals(self, monkeypatch):
        # a non-positive diagonal entry, a rank-deficient A and a non-finite
        # entry are refused by the range-space proof; the record is then
        # the null-space proof's or the eigenvalues'
        calls = range_space_calls(monkeypatch)
        rng = np.random.RandomState(18)
        h, A = control_like(rng, 100, 50)
        assert certified(h, A) is not None
        for entry in (0.0, -1e-3, -10.0):
            bad = h.copy()
            bad[7] = entry
            assert certified(bad, A) is None
            reference = ldlt_factorize_scaled(assemble_kkt(np.diag(bad), A, 0.0, 0.0))
            calls.clear()
            assert _kkt_factorization(np.diag(bad), A, 0.0, 0.0).inertia == reference.inertia
            assert calls == ["diagonal", "matrix"]
        deficient = A.copy()
        deficient[-1] = deficient[0]
        assert certified(h, deficient) is None
        fact = _kkt_factorization(np.diag(h), deficient, 0.0, 0.0)
        reference = ldlt_factorize_scaled(assemble_kkt(np.diag(h), deficient, 0.0, 0.0))
        assert fact.solve is None and fact.inertia == reference.inertia and fact.n_zero > 0
        for bad in (np.nan, np.inf, -np.inf):
            for block in ("H", "A"):
                bad_h, bad_A = h.copy(), A.copy()
                if block == "H":
                    bad_h[5] = bad
                else:
                    bad_A[2, 5] = bad
                with np.errstate(invalid="ignore"):
                    assert _certified_factorization(bad_h, bad_A, 0.0, True) is None
                    with pytest.raises(SingularMatrixError, match="non-finite"):
                        _kkt_factorization(np.diag(bad_h), bad_A, 0.0, 0.0)

    def test_non_diagonal_hessian_never_takes_the_range_space_proof(self, monkeypatch):
        # a dense H, and a diagonal one with a single off-diagonal pair of
        # 1e-300, go to the null-space proof only
        calls = range_space_calls(monkeypatch)
        rng = np.random.RandomState(19)
        for trial in range(4):
            H, A = ipm_like(rng, 70, 35)
            _kkt_factorization(H, A, 0.0, 0.0)
            h, A = control_like(rng, 70, 35)
            H = np.diag(h)
            H[3, 5] = H[5, 3] = 1e-300
            fact = _kkt_factorization(H, A, 0.0, 0.0)
            assert fact.inertia == ldlt_factorize_scaled(assemble_kkt(H, A, 0.0, 0.0)).inertia
        assert len(calls) == 8 and set(calls) == {"matrix"}

    def test_benchmark_shapes_take_the_null_space_proof(self, monkeypatch):
        # the shapes of the interior-point benchmark's null-space systems: a
        # chain (A banded as its Jacobian, m = n - 2, H tridiagonal,
        # indefinite but positive definite on null(A)) at n = 100, 120 and
        # 140, and a control instance (m = n / 2) whose diagonal H has a
        # non-positive entry, which the range-space proof refuses. Each is
        # certified by the null-space proof, with no eigenvalues computed:
        # at order 278 a fall to the eigenvalues costs about 3 ms a step
        import modnlp.linalg as linalg

        eigenvalue_calls = []
        monkeypatch.setattr(linalg, "ldlt_factorize",
                            lambda M: eigenvalue_calls.append(M.shape) or ldlt_factorize(M))
        calls = range_space_calls(monkeypatch)
        rng = np.random.RandomState(20)
        for n in (100, 120, 140):
            m, k = n - 2, np.arange(n - 2)
            x = 2.0 + 0.3 * rng.randn(n)
            p, a, b = x[:-2], x[1:-1], x[2:]
            A = np.zeros((m, n))
            A[k, k] = -(1.0 + p) * np.exp(p - a)
            A[k, k + 1] = 9.0 * a**2 + np.sin(2.0 * a) + 4.0 + p * np.exp(p - a)
            A[k, k + 2] = 2.0 - np.sin(2.0 * b)
            # null(A) lies on the first and last few coordinates: the roots
            # of its recursion are about 0.07 and -20
            diagonal = rng.uniform(-1.0, 3.0, n)
            diagonal[:4] = diagonal[-4:] = 2.0
            off = rng.uniform(-0.5, 0.5, n - 1)
            H = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
            Z = np.linalg.svd(A)[2][m:].T
            assert np.linalg.eigvalsh(H)[0] < 0.0 < np.linalg.eigvalsh(Z.T @ H @ Z)[0]
            calls.clear()
            fact = _kkt_factorization(H, A, 0.0, 0.0)
            assert fact.matrix is None and fact.inertia == (n, m, 0) and calls == ["matrix"]
        for N in (50, 60, 70):
            n, m, h, k = 2 * N, N, 10.0 / N, np.arange(N)
            A = np.zeros((m, n))
            A[k, k] = 1.0
            A[k[1:], k[:-1]] = -1.0 + 3.0 * h * rng.uniform(-1.0, 1.0, N - 1) ** 2
            A[k, N + k] = -h
            d = np.concatenate([np.full(N, h), np.full(N, 1e-2 * h)]) + 10.0 ** rng.uniform(-6, 0, n)
            d[N // 2] = 0.0 if N % 20 else -0.1 * h
            Z = np.linalg.svd(A)[2][m:].T
            assert np.linalg.eigvalsh((Z.T * d) @ Z)[0] > 0.0
            calls.clear()
            fact = _kkt_factorization(np.diag(d), A, 0.0, 0.0)
            assert fact.matrix is None and fact.inertia == (n, m, 0)
            assert calls == ["diagonal", "matrix"]
        assert eigenvalue_calls == []

    def test_decisions_are_the_certificates(self):
        # a certified system has the eigenvalue count's inertia (n, m, 0); a
        # rank-deficient A and a regularized (2,2) block are refused
        rng = np.random.RandomState(9)
        decisions = set()
        for trial in range(60):
            n = rng.randint(64, 80)
            m = rng.randint(1, n)
            H, A = ipm_like(rng, n, m)
            if trial % 3 == 1:
                A[-1] = A[0]  # rank deficient
            if trial % 3 == 2:
                H -= (1e-3 if trial % 4 else 1e2) * np.eye(n)  # indefinite
            delta_c = 1e-8 if trial % 2 else 0.0
            fact = _kkt_factorization(H, A, 0.0, delta_c)
            reference = ldlt_factorize_scaled(assemble_kkt(H, A, 0.0, delta_c))
            decision = fact.solve is not None
            assert fact.inertia == reference.inertia
            if decision:
                assert reference.inertia == (n, m, 0)
            if delta_c or trial % 3 == 1:
                assert not decision
            decisions.add(decision)
        assert decisions == {True, False}

    def test_refusal_record_is_the_eigenvalue_record(self):
        rng = np.random.RandomState(10)
        for n, m, delta_c in ((64, 10, 0.0), (46, 20, 1e-6), (50, 49, 0.0)):
            H, A = nullspace_split(rng, n, m, -1.0, 5.0)  # negative on null(A)
            fact = _kkt_factorization(H, A, 0.0, delta_c)
            reference = ldlt_factorize_scaled(assemble_kkt(H, A, 0.0, delta_c))
            assert fact.solve is None
            assert np.array_equal(fact.matrix, reference.matrix)
            assert fact.inertia == reference.inertia
            assert fact.zero_tol == reference.zero_tol
            assert np.array_equal(fact.row_scaling, reference.row_scaling)
            rhs = rng.randn(n + m)
            assert np.array_equal(solve_factorized(fact, rhs), solve_factorized(reference, rhs))

    def test_non_finite_input_is_a_typed_error(self):
        for bad in (np.nan, np.inf, -np.inf):
            for block in ("H", "A"):
                H, A = np.eye(64), np.ones((2, 64))
                A[1, 0] = 2.0
                {"H": H, "A": A}[block][1, 1] = bad
                with pytest.raises(SingularMatrixError, match="non-finite"), \
                        np.errstate(invalid="ignore"):
                    _kkt_factorization(H, A, 0.0, 0.0)
            assert np.array_equal(least_squares_multipliers(A, np.ones(64)), np.zeros(2))

    def test_no_constraints(self):
        # m = 0 is refused: the eigenvalues and the LU, as accurate as ever
        rng = np.random.RandomState(11)
        H, _ = ipm_like(rng, 70, 0)
        fact = _kkt_factorization(H, np.zeros((0, 70)), 1e-4, 0.0)
        assert fact.solve is None and fact.inertia == (70, 0, 0)
        rhs = rng.randn(70)
        K = H + 1e-4 * np.eye(70)
        lu = backward_error(K, np.linalg.solve(K, rhs), rhs)
        assert backward_error(K, solve_factorized(fact, rhs), rhs) <= 10.0 * max(lu, 1e-16)

    def test_least_squares_multipliers(self):
        rng = np.random.RandomState(12)
        for n, m in ((50, 30), (12, 5)):  # above and below the gate
            J, r = rng.randn(m, n) * 10.0 ** rng.uniform(-2.0, 2.0, (m, 1)), rng.randn(n)
            y = least_squares_multipliers(J, r)
            np.testing.assert_allclose(y, np.linalg.lstsq(J.T, r, rcond=None)[0], rtol=1e-10)
            if n + m < _SCALAR_MIN_ORDER:  # below the gate: the eigenvalues and the LU, bit for bit
                rhs = np.concatenate([r, np.zeros(m)])
                old = solve_factorized(ldlt_factorize(assemble_kkt(np.eye(n), J, 0.0, 0.0)), rhs)
                assert np.array_equal(y, old[n:])
            else:  # the unscaled blocks decide, as the eigenvalues of K would
                assert certified(1.0, J, equilibrate=False) is not None
            J[-1] = J[0]  # rank deficient: zeros, on both paths
            assert np.array_equal(least_squares_multipliers(J, r), np.zeros(m))
        assert least_squares_multipliers(np.zeros((0, 70)), rng.randn(70)).shape == (0,)


class TestRangeSpaceStep:
    """The range-space proof and step for a scalar (1,1) block, delta I,
    against ldlt_factorize_scaled + solve_factorized on phase I's
    A_f = [A, -I, I]."""

    @staticmethod
    def step(A_f, delta, r1, r2):
        """(q, lam) from the certified record, or None when it refuses."""
        fact = certified(0.0, A_f, delta)
        if fact is None:
            return None
        sol = solve_factorized(fact, np.concatenate([r1, r2]))
        return sol[:A_f.shape[1]], sol[A_f.shape[1]:]

    @staticmethod
    def reference(A_f, delta, r1, r2):
        """The LU's q and lam, and the condition number of the
        equilibrated matrix."""
        nf = A_f.shape[1]
        fact = ldlt_factorize_scaled(assemble_kkt(0.0, A_f, delta, 0.0))
        assert fact.inertia == (nf, A_f.shape[0], 0)
        sol = solve_factorized(fact, np.concatenate([r1, r2]))
        return sol[:nf], sol[nf:], np.linalg.cond(fact.matrix)

    @staticmethod
    def backward_error(A_f, delta, r1, r2, q, lam):
        """The componentwise relative residual of the KKT system (Oettli and
        Prager): the smallest relative perturbation of each entry of the
        matrix and the right-hand side that q, lam solve exactly. Rows
        scaled over 16 orders of magnitude make a plain residual norm
        measure the largest rows only."""
        e1 = r1 - delta * q - A_f.T @ lam
        e2 = r2 - A_f @ q
        d1 = delta * np.abs(q) + np.abs(A_f.T) @ np.abs(lam) + np.abs(r1)
        d2 = np.abs(A_f) @ np.abs(q) + np.abs(r2)
        return max(np.max(np.abs(e1) / d1), np.max(np.abs(e2) / d2))

    @pytest.mark.parametrize("rows", [
        "well scaled", "scaled 1e-8 to 1e8", "nearly dependent", "nearly dependent, u+ of row 0",
    ])
    def test_matches_lu(self, rows):
        # the same solution as the LU, and a residual within 10x the LU's.
        # "nearly dependent" fixes the elastics at zero, as late in phase
        # I (all of them, or all but one): A_f has condition numbers up to
        # about 1e7, where solving with A_f A_f^T loses accuracy that one
        # refinement step does not restore, and where the step without
        # refinement has a residual up to 100x the LU's
        rng = np.random.RandomState(4)
        eps = np.finfo(float).eps
        solved = 0
        for trial in range(60):
            n, m = rng.randint(10, 30), rng.randint(3, 10)
            A = rng.randn(m, n)
            if rows == "scaled 1e-8 to 1e8":
                A *= 10.0 ** rng.uniform(-8.0, 8.0, m)[:, None]
            if rows.startswith("nearly dependent"):
                noise = 10.0 ** -(5 + trial % 2)
                A_f = rng.randn(m, m - 1) @ rng.randn(m - 1, n) + noise * rng.randn(m, n)
                if rows.endswith("row 0"):
                    A_f = np.hstack([A_f, -np.eye(m)[:, :1]])
            else:
                A_f = np.hstack([A, -np.eye(m), np.eye(m)])
            for delta in (1.0, 1e-4, 1e-8):
                r1, r2 = rng.randn(A_f.shape[1]), rng.randn(m)
                step = self.step(A_f, delta, r1, r2)
                if step is None:  # not proved: the eigenvalues decide
                    assert rows != "well scaled"
                    continue
                q, lam = step
                q_lu, lam_lu, cond = self.reference(A_f, delta, r1, r2)
                tol = 100.0 * eps * cond  # both solutions are that close to the exact one
                assert np.max(np.abs(q - q_lu)) <= tol * np.max(np.abs(q_lu))
                assert np.max(np.abs(lam - lam_lu)) <= tol * np.max(np.abs(lam_lu))
                lu = self.backward_error(A_f, delta, r1, r2, q_lu, lam_lu)
                assert self.backward_error(A_f, delta, r1, r2, q, lam) <= 10.0 * max(lu, eps)
                solved += 1
        assert solved >= 100

    def test_refuses_a_repeated_row(self):
        rng = np.random.RandomState(5)
        for m in range(2, 12):
            A_f = np.hstack([rng.randn(m, 20), -np.eye(m)])  # u- fixed at zero
            A_f[-1] = A_f[0]
            assert self.step(A_f, 1e-4, rng.randn(20 + m), rng.randn(m)) is None
            assert ldlt_factorize_scaled(assemble_kkt(0.0, A_f, 1e-4, 0.0)).n_zero == 1

    def test_dependent_row_with_tiny_delta_is_refused(self):
        # the analogue of test_schur_roundoff_does_not_certify: h near 1e-9,
        # and the roundoff of the zero eigenvalue of B B^T is far above
        # t max(h); without a margin for it, the kernel would solve a
        # singular system
        rng = np.random.RandomState(7)
        for trial in range(20):
            n, m = 40 + trial, 10
            A = rng.randint(-8, 9, size=(m, n)).astype(float)
            A[2] = A[0] + A[1]  # exact in floating point
            K = assemble_kkt(0.0, A, 1e-8, 0.0)
            assert ldlt_factorize_scaled(K).inertia == (n, m - 1, 1)
            assert self.step(A, 1e-8, rng.randn(n), np.zeros(m)) is None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_entries(self, value):
        rng = np.random.RandomState(8)
        A_f = np.hstack([rng.randn(6, 20), -np.eye(6), np.eye(6)])
        assert self.step(A_f, 1e-4, rng.randn(32), rng.randn(6)) is not None
        A_f[3, 5] = value
        with np.errstate(invalid="ignore"):
            assert _certified_factorization(0.0, A_f, 1e-4, True) is None

    def test_refuses_without_constraints(self):
        assert self.step(np.zeros((0, 30)), 1e-4, np.ones(30), np.zeros(0)) is None

    def test_refuses_fewer_columns_than_rows(self):
        rng = np.random.RandomState(9)
        assert self.step(rng.randn(8, 6), 1e-4, np.ones(6), np.ones(8)) is None

    def test_zero_delta_is_refused(self):
        # [[0, A_f^T], [A_f, 0]] with nf = m is regular, but min(h) = 0
        # proves nothing: the eigenvalues decide
        rng = np.random.RandomState(10)
        A_f = rng.randn(6, 6)
        assert self.step(A_f, 0.0, np.ones(6), np.ones(6)) is None
        assert ldlt_factorize_scaled(assemble_kkt(0.0, A_f, 0.0, 0.0)).inertia == (6, 6, 0)


def enumerate_qp_oracle(qp: QPData):
    """Exhaustive active-set enumeration for small QPs (independent oracle)."""
    n, m = qp.n, qp.m
    best = (np.inf, None)
    lb, ub = qp.d_lower, qp.d_upper
    for assignment in range(3**n):
        codes = []
        a = assignment
        for _ in range(n):
            codes.append(a % 3)
            a //= 3
        codes = np.array(codes)
        if np.any((codes == 1) & ~np.isfinite(lb)) or np.any((codes == 2) & ~np.isfinite(ub)):
            continue
        free = np.flatnonzero(codes == 0)
        fixed = np.flatnonzero(codes != 0)
        d = np.zeros(n)
        d[fixed] = np.where(codes[fixed] == 1, lb[fixed], ub[fixed])
        nf = free.size
        K = np.zeros((nf + m, nf + m))
        K[:nf, :nf] = qp.W[np.ix_(free, free)]
        if m:
            K[nf:, :nf] = qp.A[:, free]
            K[:nf, nf:] = qp.A[:, free].T
        rhs = np.concatenate(
            [
                -(qp.g[free] + qp.W[np.ix_(free, fixed)] @ d[fixed]),
                qp.b - (qp.A[:, fixed] @ d[fixed] if m else np.zeros(0)),
            ]
        )
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            continue
        d[free] = sol[:nf]
        y = -sol[nf:]  # the KKT block solves for -y under this sign convention
        if np.any(d < lb - 1e-9) or np.any(d > ub + 1e-9):
            continue
        z = qp.W @ d + qp.g - (qp.A.T @ y if m else 0.0)
        ok = True
        for i in range(n):
            if codes[i] == 0 and abs(z[i]) > 1e-7:
                ok = False
            if codes[i] == 1 and z[i] < -1e-9:
                ok = False
            if codes[i] == 2 and z[i] > 1e-9:
                ok = False
        if not ok:
            continue
        obj = 0.5 * d @ qp.W @ d + qp.g @ d
        if obj < best[0]:
            best = (obj, d.copy())
    return best


def random_convex_qp(rng):
    n = rng.randint(1, 5)
    m = rng.randint(0, min(3, n))
    R = rng.randn(n, n)
    W = R @ R.T + 0.1 * np.eye(n)
    g = rng.randn(n)
    lb = rng.randn(n) - 1.5
    ub = lb + 0.5 + 2.0 * rng.rand(n)
    d_feas = lb + (ub - lb) * rng.rand(n)
    A = rng.randn(m, n)
    b = A @ d_feas if m else np.zeros(0)
    return QPData(W, g, A, b, lb, ub)


class TestQPSolve:
    def test_single_bound(self):
        qp = QPData(
            np.array([[1.0]]), np.zeros(1), np.zeros((0, 1)), np.zeros(0),
            np.array([1.0]), np.array([np.inf]),
        )
        sol = qp_solve(qp)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.d, [1.0])
        np.testing.assert_allclose(sol.multipliers_bounds, [1.0])

    def test_lp_vertex(self):
        qp = QPData(
            np.zeros((2, 2)), np.array([1.0, -1.0]), np.zeros((0, 2)), np.zeros(0),
            np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
        )
        sol = qp_solve(qp)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.d, [-1.0, 1.0])

    def test_lp_with_degenerate_equality(self):
        # the all-zero equality row is always satisfied; the solver must cope
        # with the rank-deficient constraint matrix
        qp = QPData(
            np.zeros((2, 2)), np.array([1.0, -1.0]), np.zeros((1, 2)), np.zeros(1),
            np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
        )
        sol = qp_solve(qp)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.d, [-1.0, 1.0])

    def test_infeasible(self):
        qp = QPData(
            np.eye(1), np.zeros(1), np.array([[1.0]]), np.array([1.0]),
            np.array([-np.inf]), np.array([0.0]),
        )
        sol = qp_solve(qp)
        assert sol.status == INFEASIBLE

    def test_inconsistent_box(self):
        qp = QPData(
            np.eye(1), np.zeros(1), np.zeros((0, 1)), np.zeros(0),
            np.array([1.0]), np.array([0.0]),
        )
        assert qp_solve(qp).status == INFEASIBLE

    def test_unbounded_lp(self):
        qp = QPData(
            np.zeros((1, 1)), np.array([-1.0]), np.zeros((0, 1)), np.zeros(0),
            np.array([0.0]), np.array([np.inf]),
        )
        assert qp_solve(qp).status == UNBOUNDED

    def test_equality_qp(self):
        # Nocedal/Wright example 16.2
        W = np.array([[6.0, 2.0, 1.0], [2.0, 5.0, 2.0], [1.0, 2.0, 4.0]])
        g = np.array([-8.0, -3.0, -3.0])
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        b = np.array([3.0, 0.0])
        qp = QPData(W, g, A, b, np.full(3, -np.inf), np.full(3, np.inf))
        sol = qp_solve(qp)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.d, [2.0, -1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(sol.multipliers_eq, [3.0, -2.0], atol=1e-9)

    def test_matches_enumeration_oracle(self):
        rng = np.random.RandomState(42)
        solved = 0
        for _ in range(200):
            qp = random_convex_qp(rng)
            expected_obj, expected_d = enumerate_qp_oracle(qp)
            sol = qp_solve(qp)
            assert sol.status == OPTIMAL
            assert expected_d is not None
            assert abs(sol.objective_value - expected_obj) <= 1e-8 * (1 + abs(expected_obj))
            np.testing.assert_allclose(sol.d, expected_d, atol=1e-6)
            solved += 1
        assert solved == 200

    def test_zero_hessian_eqp_factorizes_once(self, monkeypatch):
        # with W_ff = 0 and nf > m, [[0, A_f^T], [A_f, 0]] is singular by
        # rank: the delta_w = 0 probe is skipped, and each skipped probe is
        # checked to fail its inertia test (so the result is the one the
        # probe-first order gives). An LP's own EQP (W = 0 given, below the
        # general gate) then factorizes once, as does a phase-I EQP (no W)
        # below the scalar gate; at or above it, a phase-I EQP with A_f of
        # full row rank computes no eigenvalues.
        import modnlp.linalg as linalg

        eqp_solve, factorize = linalg._eqp_solve, linalg.ldlt_factorize
        calls, per_solve = [0], {"LP": [], "phase I": [], "phase I certified": []}

        def counted_factorize(M):
            calls[0] += 1
            return factorize(M)

        def checked_eqp_solve(W, g, A, b, d, free, fixed, schedule=None):
            nf, m = free.size, b.size
            probe = nf > m and (W is None or not W[np.ix_(free, free)].any())
            if probe:
                K = assemble_kkt(np.zeros((nf, nf)), A[:, free], 0.0, 0.0)
                assert ldlt_factorize_scaled(K).inertia != (nf, m, 0)
            calls[0] = 0
            result = eqp_solve(W, g, A, b, d, free, fixed, schedule)
            if probe and W is not None:
                per_solve["LP"].append((nf + m, calls[0]))
            elif probe and nf + m < linalg._SCALAR_MIN_ORDER:
                per_solve["phase I"].append(calls[0])
            elif probe and np.linalg.matrix_rank(A[:, free]) == m:
                per_solve["phase I certified"].append(calls[0])
            return result

        monkeypatch.setattr(linalg, "ldlt_factorize", counted_factorize)
        monkeypatch.setattr(linalg, "_eqp_solve", checked_eqp_solve)
        rng = np.random.RandomState(9)
        for _ in range(40):
            qp = random_convex_qp(rng)
            lp = QPData(np.zeros((qp.n, qp.n)), qp.g, qp.A, qp.b, qp.d_lower, qp.d_upper)
            for problem in (qp, lp):  # the QP's phase I is an LP too
                expected_obj, _ = enumerate_qp_oracle(problem)
                sol = qp_solve(problem)
                assert sol.status == OPTIMAL
                assert abs(sol.objective_value - expected_obj) <= 1e-8 * (1 + abs(expected_obj))
        for _ in range(10):  # phase-I EQPs of order up to 56, the LP's up to 40
            n, m = rng.randint(28, 37), rng.randint(4, 8)
            A = rng.randn(m, n)
            lb, ub = -rng.rand(n) - 0.5, rng.rand(n) + 0.5
            b = A @ (lb + (ub - lb) * rng.rand(n)) + 0.5  # x = 0 is infeasible
            lp = QPData(np.zeros((n, n)), rng.randn(n), A, b, lb, ub)
            sol = qp_solve(lp)
            assert sol.status == OPTIMAL
            np.testing.assert_allclose(A @ sol.d, b, atol=1e-9)
        assert len(per_solve["LP"]) > 60 and {c for _, c in per_solve["LP"]} == {1}
        large = [order for order, _ in per_solve["LP"] if order >= linalg._SCALAR_MIN_ORDER]
        assert len(large) > 20
        assert len(per_solve["phase I"]) > 40 and set(per_solve["phase I"]) == {1}
        assert len(per_solve["phase I certified"]) > 40
        assert set(per_solve["phase I certified"]) == {0}

    @staticmethod
    def traced_loops(monkeypatch):
        """Record, for each _active_set_loop, its start, codes and y, and in
        order its working-set solves ("solve", free, fixed, delta_w, y, and
        the W, g, A, b solved) and ratio tests ("step", d, p, t_block); the
        list "starts" gets the free set of each _eqp_solve with no schedule
        (qp_solve's start solve)."""
        import modnlp.linalg as linalg

        loops, starts = [], []
        loop, eqp_solve, ratio_test = linalg._active_set_loop, linalg._eqp_solve, linalg._ratio_test

        def traced_loop(W, g, A, b, d, codes, *args):
            y = args[4] if len(args) > 4 else None
            loops.append({"start": d.copy(), "codes": codes.copy(), "y": y, "events": []})
            return loop(W, g, A, b, d, codes, *args)

        def traced_eqp_solve(W, g, A, b, d, free, fixed, schedule=None):
            result = eqp_solve(W, g, A, b, d, free, fixed, schedule)
            if schedule is None:
                starts.append(free.copy())
            else:
                loops[-1]["events"].append(
                    ("solve", free.copy(), fixed.copy(), result[2], result[1].copy(), W, g, A, b))
            return result

        def traced_ratio_test(d, p, *args):
            result = ratio_test(d, p, *args)
            loops[-1]["events"].append(("step", d.copy(), p.copy(), result[0]))
            return result

        monkeypatch.setattr(linalg, "_active_set_loop", traced_loop)
        monkeypatch.setattr(linalg, "_eqp_solve", traced_eqp_solve)
        monkeypatch.setattr(linalg, "_ratio_test", traced_ratio_test)
        return loops, starts

    @staticmethod
    def traced_starts(monkeypatch):
        """Record what each _phase_two_start returns, as it returns it (the
        loop then moves the point and the codes in place)."""
        import modnlp.linalg as linalg

        starts, phase_two_start = [], linalg._phase_two_start

        def traced_start(*args):
            start = phase_two_start(*args)
            starts.append(start and (start[0].copy(), start[1].copy(), start[2]))
            return start

        monkeypatch.setattr(linalg, "_phase_two_start", traced_start)
        return starts

    @staticmethod
    def start_minimizer(qp):
        """The minimizer of the EQP on the working set of the start d0 = 0
        clipped to the box, by numpy's solve, and whether that EQP is
        regular: its KKT matrix has n_f eigenvalues above zero and m below."""
        d = np.clip(np.zeros(qp.n), qp.d_lower, qp.d_upper)
        free = np.flatnonzero((d != qp.d_lower) & (d != qp.d_upper))
        fixed = np.setdiff1d(np.arange(qp.n), free)
        nf, m = free.size, qp.m
        K = assemble_kkt(qp.W[np.ix_(free, free)], qp.A[:, free], 0.0, 0.0)
        eigs = np.linalg.eigvalsh(K)
        regular = (np.sum(eigs > 1e-9), np.sum(eigs < -1e-9)) == (nf, m)
        if regular:
            rhs = np.concatenate([-(qp.g[free] + qp.W[np.ix_(free, fixed)] @ d[fixed]),
                                  qp.b - qp.A[:, fixed] @ d[fixed]])
            d[free] = np.linalg.solve(K, rhs)[:nf]
        return d, regular

    def test_start_at_the_working_set_minimizer(self, monkeypatch):
        # the start d0 = 0 misses A d = b. Where the EQP of its working set
        # is regular and its minimizer lies in the box, phase II starts
        # there with that solve's multipliers: no projection, and the first
        # working-set solve of the loop comes after a bound has left, so
        # the loop priced first. Elsewhere the projection runs as before.
        import modnlp.linalg as linalg

        rng = np.random.RandomState(23)
        taken = projected = 0
        for trial in range(900):
            qp = random_convex_qp(rng)
            if trial % 3 == 0:  # indefinite: the EQP may be irregular
                R = rng.randn(qp.n, qp.n)
                qp = dataclasses.replace(qp, W=R + R.T)
            if qp.m == 0 or np.abs(qp.A @ np.clip(np.zeros(qp.n), qp.d_lower, qp.d_upper)
                                   - qp.b).max() <= 1e-9:
                continue
            minimizer, regular = self.start_minimizer(qp)
            inside = regular and np.all((minimizer >= qp.d_lower) & (minimizer <= qp.d_upper))
            phase_two = self.traced_starts(monkeypatch)
            loops, starts = self.traced_loops(monkeypatch)
            sol = qp_solve(qp)
            monkeypatch.undo()
            assert len(starts) == 1 and len(phase_two) == 1
            # the projection runs where the start is not the minimizer
            projections = [1] if phase_two[0] is None or phase_two[0][2] is None else []
            first = loops[-1]
            if inside:
                taken += 1
                assert not projections and len(loops) == 1 and first["y"] is not None
                np.testing.assert_allclose(first["start"], minimizer, rtol=0.0, atol=1e-9)
                solves = [e for e in first["events"] if e[0] == "solve"]
                if solves:  # a bound left the working set before the first solve
                    start_free = np.flatnonzero(first["codes"] == linalg._FREE)
                    assert solves[0][1].size == start_free.size + 1
                    assert set(start_free) < set(solves[0][1])
                else:
                    assert sol.iterations == 1
            else:
                projected += 1
                assert projections == [1] and first["y"] is None
            if trial % 3:  # convex: the one minimizer
                expected_obj, _ = enumerate_qp_oracle(qp)
                assert sol.status == OPTIMAL
                assert abs(sol.objective_value - expected_obj) <= 1e-8 * (1 + abs(expected_obj))
        assert taken > 80 and projected > 250

    # Each case: a QP whose start d = 0 misses A d = b, and whose start EQP
    # is not taken. The projection runs, and phase II starts from it.
    NOT_TAKEN_CASES = {
        # the minimizer (1, 1) of |d|^2 / 2 on d1 + d2 = 2 leaves d2 <= 0.5
        "minimizer outside the box": QPData(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]),
            np.array([-1.0, -1.0]), np.array([3.0, 0.5])),
        # -|d|^2 / 2 is concave on d1 + d2 = 1: no minimizer at delta_w = 0
        "irregular": QPData(
            -np.eye(2), np.array([-5.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
            np.array([-1.0, -1.0]), np.array([2.0, 0.8])),
    }

    @pytest.mark.parametrize("case", sorted(NOT_TAKEN_CASES))
    def test_start_not_taken_projects(self, case, monkeypatch):
        import modnlp.linalg as linalg

        qp = self.NOT_TAKEN_CASES[case]
        projections = self.traced_starts(monkeypatch)
        loops, starts = self.traced_loops(monkeypatch)
        sol = qp_solve(qp)
        assert len(starts) == 1 and len(projections) == 1 and len(loops) == 1
        assert loops[0]["y"] is None and projections[0][2] is None
        assert np.array_equal(loops[0]["start"], projections[0][0])
        assert np.array_equal(loops[0]["codes"], projections[0][1])
        expected_obj, expected_d = enumerate_qp_oracle(qp)
        assert sol.status == OPTIMAL
        assert abs(sol.objective_value - expected_obj) <= 1e-8 * (1 + abs(expected_obj))

    def test_priced_after_a_full_step_at_zero_delta(self, monkeypatch):
        # a full step at delta_w = 0 lands on the working set's minimizer:
        # the next working-set solve comes only after a bound has left (the
        # loop priced with the y it held), and that y is the one a fresh
        # solve at the new point gives, with a zero step. A full step at
        # delta_w > 0 does not: the same working set is solved again.
        import modnlp.linalg as linalg

        eqp_solve = linalg._eqp_solve
        rng = np.random.RandomState(21)
        problems = []
        for _ in range(200):
            qp = random_convex_qp(rng)
            lp = QPData(np.zeros((qp.n, qp.n)), qp.g, qp.A, qp.b, qp.d_lower, qp.d_upper)
            # mildly indefinite in a wide box: regularized full steps
            wide = dataclasses.replace(qp, W=qp.W - 0.6 * np.eye(qp.n),
                                       d_lower=qp.d_lower - 10.0, d_upper=qp.d_upper + 10.0)
            problems += [qp, lp, wide]
        loops, _ = self.traced_loops(monkeypatch)
        for problem in problems:
            assert qp_solve(problem).status == OPTIMAL  # every problem is bounded
        priced = resolved = 0
        for record in loops:
            events = record["events"]
            for i, event in enumerate(events[:-1]):
                if event[0] != "solve" or events[i + 1][0] != "step":
                    continue
                _, free, fixed, delta_w, y, W, g, A, b = event
                _, d, p, t_block = events[i + 1]
                if delta_w == 0.0:
                    full = t_block >= 1.0
                elif W is None:
                    full = False
                else:
                    kappa = float(p @ W @ p)
                    full = kappa > 1e-13 * (p @ p) and t_block >= (kappa + delta_w * (p @ p)) / kappa
                if not full:
                    continue
                following = [e for e in events[i + 2:] if e[0] == "solve"][:1]
                if delta_w == 0.0:
                    priced += 1
                    assert not following or following[0][1].size == free.size + 1
                    q, fresh_y, fresh_delta, _ = eqp_solve(
                        W, g, A, b, d + p, free, fixed, RegularizationSchedule())
                    assert fresh_delta == 0.0 and np.array_equal(fresh_y, y)
                    assert np.abs(q - (d + p)[free]).max(initial=0.0) <= 1e-13 * (
                        1.0 + np.abs(d + p).max())
                else:
                    resolved += 1
                    assert np.array_equal(following[0][1], free)
        assert priced > 150 and resolved > 25

    # Each case: the QP, and the active-set loops qp_solve runs. The start
    # d = 0 misses A d = b; phase II starts from its projection whenever W is
    # not zero and the iterated projection lands in the box (Nocedal &
    # Wright 16.2, 16.5).
    PROJECTED_START_CASES = {
        # the min-norm point (0.5, 0.5) of d1 + d2 = 1 lies inside the box
        "projection inside the box": (QPData(
            np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0]), np.array([[1.0, 1.0]]),
            np.array([1.0]), np.array([-1.0, -1.0]), np.array([2.0, 2.0])), ["phase II"]),
        "larger convex QP": (QPData(
            np.array([[4.0, 1.0, 0.0, 0.5], [1.0, 3.0, 0.2, 0.0], [0.0, 0.2, 2.0, 0.3],
                      [0.5, 0.0, 0.3, 1.0]]), np.array([1.0, -2.0, 0.5, 0.0]),
            np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 1.0, 1.0]]), np.array([1.0, -0.5]),
            np.full(4, -3.0), np.full(4, 3.0)), ["phase II"]),
        # the min-norm point (1, 1) of d1 + d2 = 2 leaves d2 <= 0.5; d2 is
        # held there and the projection again gives (1.5, 0.5)
        "projection leaves the box": (QPData(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]),
            np.array([-1.0, -1.0]), np.array([3.0, 0.5])), ["phase II"]),
        # the same two rounds with an indefinite W
        "nonconvex, projected again": (QPData(
            np.diag([1.0, -1.0]), np.array([0.5, 0.0]), np.array([[1.0, 1.0]]), np.array([2.0]),
            np.array([-1.0, -1.0]), np.array([3.0, 0.5])), ["phase II"]),
        # d1 = 0 touches its bound and is held; (0, 1, 1) leaves d2 <= 0.5,
        # and (0, 0.5, 1.5) leaves d3 <= 1.2: no free column is left
        "re-projection runs out of free columns": (QPData(
            np.diag([1.0, 2.0, -0.5]), np.array([0.0, 1.0, 0.0]), np.array([[1.0, 1.0, 1.0]]),
            np.array([2.0]), np.array([0.0, -1.0, -1.0]), np.array([3.0, 0.5, 1.2])),
            ["phase I", "phase II"]),
        # d3 = 0 touches its bound and is held, so A_f = [[1, 1], [0, 0]]
        "rank-deficient A_f": (QPData(
            np.eye(3), np.zeros(3), np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.array([1.0, 0.5]), np.array([-2.0, -2.0, 0.0]), np.full(3, 2.0)),
            ["phase I", "phase II"]),
        # the projection (0.5, 0.5) would lie inside the box in these two
        "LP": (QPData(
            np.zeros((2, 2)), np.array([-1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
            np.array([-1.0, -1.0]), np.array([2.0, 0.8])), ["phase I", "phase II"]),
        "concave QP": (QPData(
            -np.eye(2), np.array([-5.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
            np.array([-1.0, -1.0]), np.array([2.0, 0.8])), ["phase II"]),
    }

    @pytest.mark.parametrize("case", sorted(PROJECTED_START_CASES))
    def test_phase_one_only_when_the_projection_is_not_taken(self, case, monkeypatch):
        import modnlp.linalg as linalg

        qp, expected_loops = self.PROJECTED_START_CASES[case]
        loops, loop = [], linalg._active_set_loop

        def counted_loop(W, *args):
            loops.append("phase I" if W is None else "phase II")
            return loop(W, *args)

        monkeypatch.setattr(linalg, "_active_set_loop", counted_loop)
        expected_obj, expected_d = enumerate_qp_oracle(qp)
        sol = qp_solve(qp)
        assert loops == expected_loops
        assert sol.status == OPTIMAL
        assert abs(sol.objective_value - expected_obj) <= 1e-8 * (1 + abs(expected_obj))
        np.testing.assert_allclose(sol.d, expected_d, atol=1e-8)

    def test_constraints_inconsistent_in_the_box_are_infeasible(self, monkeypatch):
        # (1.5, 1.5) leaves the box on both sides, no free column is left,
        # and phase I finds d1 + d2 <= 2 < 3
        import modnlp.linalg as linalg

        loops, loop = [], linalg._active_set_loop

        def counted_loop(W, *args):
            loops.append("phase I" if W is None else "phase II")
            return loop(W, *args)

        monkeypatch.setattr(linalg, "_active_set_loop", counted_loop)
        qp = QPData(np.diag([1.0, -1.0]), np.zeros(2), np.array([[1.0, 1.0]]), np.array([3.0]),
                    -np.ones(2), np.ones(2))
        sol = qp_solve(qp)
        assert loops == ["phase I"] and sol.status == INFEASIBLE
        np.testing.assert_allclose(sol.d, [1.0, 1.0])

    def test_projection_refuses_a_record_of_the_wrong_inertia(self, monkeypatch):
        # [[I, A_f^T], [A_f, 0]] always has inertia (n_f, rank A_f, m -
        # rank A_f), so a wrong one comes only with zero eigenvalues, which
        # the solve refuses too; a record that reports (n_f - 1, m + 1, 0)
        # and still solves must be refused by the inertia test itself
        import modnlp.linalg as linalg

        kkt = linalg._kkt_factorization

        def wrong_inertia(H, A_f, delta_w, delta_c, equilibrate=True):
            fact = kkt(H, A_f, delta_w, delta_c, equilibrate)
            n_f, m = A_f.shape[1], A_f.shape[0]
            return dataclasses.replace(fact, inertia=(n_f - 1, m + 1, 0))

        # -|d|^2 / 2 is concave on d1 + d2 = 1: the minimizer is refused,
        # and the start is the projection
        W, g, A, b = -np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0])
        d, lb, ub = np.zeros(2), -np.ones(2), np.ones(2)
        point, _, y = linalg._phase_two_start(W, g, A, b, d, lb, ub, 1e-10)
        np.testing.assert_allclose(point, [0.5, 0.5])
        assert y is None
        monkeypatch.setattr(linalg, "_kkt_factorization", wrong_inertia)
        assert linalg._phase_two_start(W, g, A, b, d, lb, ub, 1e-10) is None

    @pytest.mark.parametrize("error", [1e-6, np.nan])
    def test_projection_refuses_a_point_that_misses_the_rows(self, error, monkeypatch):
        # a solve whose correction misses A d = b by more than feas_tol, or
        # is not finite, leaves the start to phase I
        import modnlp.linalg as linalg

        solve = linalg.solve_factorized
        monkeypatch.setattr(linalg, "solve_factorized", lambda fact, rhs: solve(fact, rhs) + error)
        A, b = np.array([[1.0, 1.0]]), np.array([1.0])
        d = np.zeros(2)
        assert linalg._phase_two_start(
            -np.eye(2), np.zeros(2), A, b, d, -np.ones(2), np.ones(2), 1e-10) is None

    @staticmethod
    def first_smallest_ratio(d, p, lb, ub, step_tol):
        """The oracle of _ratio_test, a sequential scan: in index order, a
        ratio takes the block only when below the current one, so the first
        smallest ratio blocks and a NaN ratio never does."""
        t_block, blocker, side = np.inf, -1, 1
        for i in range(d.size):
            if p[i] > step_tol and np.isfinite(ub[i]):
                t, s = (ub[i] - d[i]) / p[i], 2
            elif p[i] < -step_tol and np.isfinite(lb[i]):
                t, s = (lb[i] - d[i]) / p[i], 1
            else:
                continue
            if t < t_block:
                t_block, blocker, side = t, i, s
        return max(t_block, 0.0), blocker, side

    def test_ratio_test_matches_loop(self):
        # the sequential scan of the first smallest ratio; ties and
        # near-ties planted
        rng = np.random.RandomState(13)
        for trial in range(500):
            n = rng.randint(0, 25)
            lb = np.where(rng.rand(n) < 0.2, -np.inf, -rng.rand(n))
            ub = np.where(rng.rand(n) < 0.2, np.inf, rng.rand(n))
            d = np.where(rng.rand(n) < 0.2, lb, 0.0)  # some on a bound
            d = np.where(np.isfinite(d), d, 0.0)
            p = rng.randn(n)
            p[rng.rand(n) < 0.2] = 0.0
            movers = np.flatnonzero(p != 0.0)
            if movers.size:  # plant ratios equal or within 2e-15 of one mover's
                i = rng.choice(movers)
                t = ((ub[i] if p[i] > 0 else lb[i]) - d[i]) / p[i]
                for j in movers[rng.rand(movers.size) < 0.4]:
                    if np.isfinite(t):
                        shift = rng.choice([0.0, 5e-16, 2e-15, -5e-16, -2e-15])
                        (ub if p[j] > 0 else lb)[j] = d[j] + (t + shift) * p[j]
            expected = self.first_smallest_ratio(d, p, lb, ub, 1e-13)
            t_block, blocker, side = _ratio_test(
                d, p, lb, ub, np.isfinite(lb), np.isfinite(ub), 1e-13)
            assert (t_block, blocker, side) == expected

    def test_ratio_test_near_ties_at_qp_orders(self):
        # orders 15-60, as the QP loop sees them: a run of ratios 0-4 ulps
        # apart is planted below all others, in random index order, so the
        # first smallest ratio often follows an earlier ratio of the run
        # that lies above it by less than 1e-15; some runs carry a NaN
        # ratio. The bytes of t_block must match the sequential scan's.
        rng = np.random.RandomState(29)
        later_in_run = 0
        for trial in range(400):
            n = rng.randint(15, 61)
            lb, ub = -rng.rand(n) - 0.1, rng.rand(n) + 0.1
            lb[rng.rand(n) < 0.1], ub[rng.rand(n) < 0.1] = -np.inf, np.inf
            d, p = np.zeros(n), rng.randn(n)
            p[rng.rand(n) < 0.2] = 0.0
            movers = np.flatnonzero(p != 0.0)
            t0 = 0.5 * np.min(np.abs(np.where(p > 0, ub, lb)[movers] / p[movers]))
            spacing = np.spacing(t0) * rng.choice([1.0, 2.0, 3.0])
            for j in movers[rng.rand(movers.size) < 0.4]:
                (ub if p[j] > 0 else lb)[j] = (t0 + rng.randint(-4, 5) * spacing) * p[j]
            if trial % 10 == 0:
                d[rng.choice(movers)] = np.nan
            expected = self.first_smallest_ratio(d, p, lb, ub, 1e-13)
            with np.errstate(invalid="ignore"):
                ratios = np.where(p > 0, ub - d, lb - d) / np.where(p != 0.0, p, 1.0)
            moving = np.isfinite(np.where(p > 0, ub, lb)) & (p != 0.0)
            run = np.flatnonzero(moving & (ratios <= expected[0] + 1e-15))
            later_in_run += run.size > 0 and expected[1] != run[0]
            result = _ratio_test(d, p, lb, ub, np.isfinite(lb), np.isfinite(ub), 1e-13)
            assert np.float64(result[0]).tobytes() == np.float64(expected[0]).tobytes()
            assert result[1:] == expected[1:]
        assert later_in_run > 300

    def test_blocked_step_stays_in_the_box(self):
        # steps with |p| up to 1e10, as the loop's LP steps reach at
        # delta_w = 1e-10, toward bounds whose ratios are planted within
        # 1e-15 of the smallest: after the loop's update (d + t p, the
        # blocker moved onto its bound) every variable lies in [lb, ub] up
        # to the roundoff of that update
        def step(d, p, lb, ub):
            t, blocker, side = _ratio_test(d, p, lb, ub, np.isfinite(lb), np.isfinite(ub), 1e-13)
            assert blocker >= 0
            moved = d + t * p
            moved[blocker] = ub[blocker] if side == 2 else lb[blocker]
            roundoff = 4.0 * np.finfo(float).eps * (np.abs(d) + np.abs(t * p) + 1.0)
            return moved, roundoff

        # d = 0, p = (-1e10, -1e10): the ratios 1.000005e-10 and 1e-10 lie
        # 5e-16 apart, and a step of the first crosses lb_2 by 5e-6
        d, p = np.zeros(2), np.array([-1e10, -1e10])
        lb, ub = np.array([-1.000005, -1.0]), np.ones(2)
        moved, roundoff = step(d, p, lb, ub)
        assert (moved >= lb - roundoff).all() and (moved <= ub + roundoff).all()

        rng = np.random.RandomState(37)
        for trial in range(300):
            n = rng.randint(2, 40)
            lb, ub = -rng.rand(n) - 0.5, rng.rand(n) + 0.5
            lb[rng.rand(n) < 0.1], ub[rng.rand(n) < 0.1] = -np.inf, np.inf
            d = rng.uniform(-0.4, 0.4, n)
            p = rng.randn(n) * 10.0 ** rng.uniform(0.0, 10.0, n)
            bound = np.where(p > 0, ub, lb)
            with np.errstate(invalid="ignore"):
                ratios = np.where(np.isfinite(bound), (bound - d) / p, np.inf)
            t0 = ratios.min()
            if not np.isfinite(t0):
                continue
            for j in np.flatnonzero((rng.rand(n) < 0.5) & (np.abs(p) > 1e5)):
                (ub if p[j] > 0 else lb)[j] = d[j] + (t0 + rng.uniform(-1e-15, 1e-15)) * p[j]
            moved, roundoff = step(d, p, lb, ub)
            assert (moved >= lb - roundoff).all() and (moved <= ub + roundoff).all(), trial

    def test_warm_start(self):
        rng = np.random.RandomState(3)
        qp = random_convex_qp(rng)
        cold = qp_solve(qp)
        warm = qp_solve(qp, warm_start=cold.active_set)
        assert warm.status == OPTIMAL
        np.testing.assert_allclose(warm.d, cold.d, atol=1e-8)

    def test_z_and_objective_are_fresh_values(self, monkeypatch):
        # qp_solve takes z from the residual its loop priced with, and the
        # objective from the value the loop holds: both equal a fresh
        # W d + g - A^T y (on the active bounds) and 1/2 d'W d + g'd bit
        # for bit, on plain and elastic QPs, cold and warm, convex,
        # indefinite (in the box and unbounded) and LPs, with and without
        # phase I; the warm starts pin a random subset of bounds
        import modnlp.linalg as linalg

        loop, phase1 = linalg._active_set_loop, [False]

        def traced_loop(W, *args):
            phase1[0] |= W is None
            return loop(W, *args)

        monkeypatch.setattr(linalg, "_active_set_loop", traced_loop)
        rng = np.random.RandomState(23)
        kinds = {}
        for _ in range(150):
            convex = random_convex_qp(rng)
            n = convex.n
            indefinite = dataclasses.replace(convex, W=convex.W - 1.5 * np.eye(n))
            free = dataclasses.replace(indefinite, d_lower=np.full(n, -np.inf),
                                       d_upper=np.full(n, np.inf))  # mostly unbounded
            for qp in (convex, indefinite, free, dataclasses.replace(convex, W=np.zeros((n, n)))):
                pins = tuple((i, int(side)) for i, side in enumerate(rng.randint(0, 3, n)) if side)
                for elastic in (False, True):
                    problem = extend_with_elastics(qp) if elastic else qp
                    start = rng.uniform(-2.0, 2.0, n)
                    for warm in ((), pins):
                        phase1[0] = False
                        sol = qp_solve(problem, warm_start=warm, start=start)
                        if sol.status == INFEASIBLE:
                            continue
                        W, g, A, y, d = problem.W, problem.g, problem.A, sol.multipliers_eq, sol.d
                        r = W @ d + g - (A.T @ y if problem.m else 0.0)
                        z = np.zeros(d.size)
                        fixed = [i for i, _ in sol.active_set]
                        z[fixed] = r[fixed]
                        assert sol.multipliers_bounds.tobytes() == z.tobytes()
                        objective = 0.5 * d @ W @ d + g @ d
                        assert np.float64(sol.objective_value).tobytes() == objective.tobytes()
                        key = (elastic, bool(warm), phase1[0], sol.status)
                        kinds[key] = kinds.get(key, 0) + 1
        for elastic in (False, True):
            for warm in (False, True):
                assert kinds.get((elastic, warm, False, OPTIMAL), 0) > 20
        assert sum(count for (_, _, phase, _), count in kinds.items() if phase) > 20
        assert sum(count for (_, _, _, status), count in kinds.items() if status != OPTIMAL) > 20

    def test_nonconvex_in_box_is_stationary(self):
        rng = np.random.RandomState(17)
        for _ in range(50):
            n = rng.randint(1, 5)
            W = rng.randn(n, n)
            W = W + W.T  # indefinite
            g = rng.randn(n)
            lb, ub = -np.ones(n), np.ones(n)
            qp = QPData(W, g, np.zeros((0, n)), np.zeros(0), lb, ub)
            sol = qp_solve(qp)
            assert sol.status == OPTIMAL  # KKT contract checked internally


class TestElasticStart:
    """The start rule of an elastic QP (extend_with_elastics). A cold one,
    with no warm set, holds every elastic at zero and starts phase II at the
    minimizer of its step's working set or the projection of its step onto
    A_step d = b, or, where neither is taken, at the step with its exact
    elastics; it never runs phase I.
    A warm one starts from the step with its exact elastics and the warm
    set pinned, as a QP with no elastic layout given that start does.
    Phase II may start from any feasible point (Nocedal & Wright, 2nd ed.,
    16.5)."""

    @staticmethod
    def consistent(rng):
        # strictly convex W; A_step d = b has solutions inside the box, and
        # the curvature and gradient are small (a small rho), so that the
        # elastic QP's minimizer has every elastic at zero
        n, m = 4, 2
        R = rng.randn(n, n)
        A = rng.randn(m, n)
        base = QPData(0.05 * (R @ R.T + np.eye(n)), 0.05 * rng.randn(n), A,
                      A @ rng.uniform(-0.5, 0.5, n), -np.ones(n), np.ones(n))
        return extend_with_elastics(base), rng.uniform(-1.0, 1.0, n)

    # d1 + d2 = 3 has no point in the box [-1, 1]^2: the projection
    # (1.5, 1.5) leaves it on both sides, and no free column is left
    INCONSISTENT = {
        "QP": QPData(np.eye(2), np.array([1.0, -0.5]), np.array([[1.0, 1.0]]), np.array([3.0]),
                     -np.ones(2), np.ones(2)),
        "LP": QPData(np.zeros((2, 2)), np.array([1.0, -0.5]), np.array([[1.0, 1.0]]),
                     np.array([3.0]), -np.ones(2), np.ones(2)),
    }

    @staticmethod
    def traced(monkeypatch):
        """Record, for each _active_set_loop, its phase and its start, and
        every blocker that _ratio_test returns."""
        import modnlp.linalg as linalg

        loops, blockers = [], []
        loop, ratio_test = linalg._active_set_loop, linalg._ratio_test

        def traced_loop(W, g, A, b, d, *args):
            loops.append(("phase I" if W is None else "phase II", d.copy()))
            return loop(W, g, A, b, d, *args)

        def traced_ratio_test(*args):
            result = ratio_test(*args)
            blockers.append(result[1])
            return result

        monkeypatch.setattr(linalg, "_active_set_loop", traced_loop)
        monkeypatch.setattr(linalg, "_ratio_test", traced_ratio_test)
        return loops, blockers

    @staticmethod
    def exact_start(elastic, step, warm_start=None):
        """The solve from the step with its exact elastics, by the same QP
        without its elastic layout."""
        start = elastic.exact_elastics(np.clip(step, elastic.d_lower[:step.size],
                                               elastic.d_upper[:step.size]))
        plain = dataclasses.replace(elastic, step_columns=None)
        return qp_solve(plain, warm_start=warm_start, start=start)

    def test_exact_elastics_meet_the_rows(self):
        rng = np.random.RandomState(5)
        elastic, step = self.consistent(rng)
        d = elastic.exact_elastics(step)
        k = elastic.step_columns
        assert k == 4 and d.size == 8
        np.testing.assert_allclose(elastic.A @ d, elastic.b, rtol=0.0, atol=1e-14)
        assert np.all(d[k:] >= 0.0) and np.all(np.minimum(d[k:6], d[6:]) == 0.0)

    def test_cold_consistent_starts_at_the_step_minimizer(self, monkeypatch):
        # the EQP of the cold start's working set (every elastic held at
        # zero, the step free) is regular, and its minimizer lies in the
        # box here: phase II starts there
        rng = np.random.RandomState(7)
        walked = []
        for _ in range(20):
            elastic, step = self.consistent(rng)
            k = elastic.step_columns
            _, reference_blockers = self.traced(monkeypatch)
            reference = self.exact_start(elastic, step)
            walked += [j for j in reference_blockers if j >= k]
            monkeypatch.undo()
            loops, blockers = self.traced(monkeypatch)
            sol = qp_solve(elastic, start=step)
            assert [phase for phase, _ in loops] == ["phase II"]
            start = loops[0][1]
            assert np.all(start[k:] == 0.0)
            K = assemble_kkt(elastic.W[:k, :k], elastic.A[:, :k], 0.0, 0.0)
            minimizer = np.linalg.solve(K, np.concatenate([-elastic.g[:k], elastic.b]))[:k]
            assert np.all(np.abs(minimizer) < 1.0)
            np.testing.assert_allclose(start[:k], minimizer, rtol=0.0, atol=1e-12)
            assert all(j < k for j in blockers)  # no elastic blocks a step
            assert sol.status == reference.status == OPTIMAL
            assert np.all(reference.d[k:] == 0.0)
            np.testing.assert_allclose(sol.d, reference.d, rtol=0.0, atol=1e-12)
            monkeypatch.undo()
        assert walked  # the exact-elastic start walks elastics to zero

    @pytest.mark.parametrize("case", sorted(INCONSISTENT))
    def test_cold_inconsistent_starts_at_exact_elastics(self, case, monkeypatch):
        elastic = extend_with_elastics(self.INCONSISTENT[case])
        step = np.array([0.25, -0.5])
        reference = self.exact_start(elastic, step)
        loops, _ = self.traced(monkeypatch)
        sol = qp_solve(elastic, start=step)
        assert [phase for phase, _ in loops] == ["phase II"]
        np.testing.assert_array_equal(loops[0][1], elastic.exact_elastics(step))
        assert sol.status == reference.status == OPTIMAL
        for field in ("d", "multipliers_eq", "multipliers_bounds"):
            assert getattr(sol, field).tobytes() == getattr(reference, field).tobytes()
        assert (sol.active_set, sol.iterations) == (reference.active_set, reference.iterations)
        assert sol.objective_value > 0.5  # d1 + d2 = 2 at best: an elastic stays positive

    def test_warm_takes_the_path_of_the_exact_elastic_start(self, monkeypatch):
        import modnlp.linalg as linalg

        rng = np.random.RandomState(11)
        cases = []
        for _ in range(10):
            elastic, step = self.consistent(rng)
            cases.append((elastic, step, qp_solve(elastic).active_set))
        # the cold rule's own pins, warm: the projection leaves the box and
        # phase I runs, as it does for the exact-elastic start
        elastic = extend_with_elastics(self.INCONSISTENT["QP"])
        cases.append((elastic, np.zeros(2), ((2, linalg._LOWER), (3, linalg._LOWER))))
        phases = []
        for elastic, step, warm in cases:
            loops, _ = self.traced(monkeypatch)
            reference = self.exact_start(elastic, step, warm)
            expected = [phase for phase, _ in loops]
            loops.clear()
            sol = qp_solve(elastic, warm_start=warm, start=step)
            assert [phase for phase, _ in loops] == expected
            assert sol.status == reference.status
            for field in ("d", "multipliers_eq", "multipliers_bounds"):
                assert getattr(sol, field).tobytes() == getattr(reference, field).tobytes()
            assert (sol.active_set, sol.iterations) == (reference.active_set, reference.iterations)
            phases.append(expected)
            monkeypatch.undo()
        assert phases[-1] == ["phase I", "phase II"]


def test_central_elastics_on_the_central_path():
    rng = np.random.RandomState(11)
    for _ in range(50):
        c = rng.uniform(-10.0, 10.0, size=6)
        mu = 10.0 ** rng.uniform(-4.0, 0.0)
        u_plus, u_minus = central_elastics(c, mu)
        assert np.all(u_plus > 0.0) and np.all(u_minus > 0.0)
        np.testing.assert_allclose(u_plus - u_minus, c, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(mu / u_plus + mu / u_minus, 2.0, rtol=1e-9)


def test_central_elastics_without_cancellation():
    # |c| >> mu: the smaller elastic must not cancel to 0 or lose digits
    c = np.array([1e3, -1e3, 1e8, -1e8])
    mu = 1e-9
    u_plus, u_minus = central_elastics(c, mu)
    assert np.all(u_plus > 0.0) and np.all(u_minus > 0.0)
    np.testing.assert_allclose(u_plus - u_minus, c, rtol=1e-15)
    np.testing.assert_allclose(mu / u_plus + mu / u_minus, 2.0, rtol=1e-12)


def stationarity_residual(qp, sol):
    """r = W d + g - A^T y at the solution: what _verify_kkt is given."""
    A = np.atleast_2d(qp.A)
    return qp.W @ sol.d + qp.g - (A.T @ sol.multipliers_eq if qp.m else 0.0)


def test_kkt_contract_violation_is_a_typed_error():
    qp = QPData(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]),
                np.full(2, -np.inf), np.full(2, np.inf))
    good = QPSolution(OPTIMAL, np.array([0.5, 0.5]), np.array([0.5]), np.zeros(2), (), 0.25)
    _verify_kkt(qp, good, stationarity_residual(qp, good))
    infeasible = QPSolution(OPTIMAL, np.zeros(2), np.zeros(1), np.zeros(2), (), 0.0)
    with pytest.raises(QPFailureError, match="feasibility"):
        _verify_kkt(qp, infeasible, stationarity_residual(qp, infeasible))


def verify_kkt_oracle(qp, sol):
    """_verify_kkt as it was before it took fewer numpy passes (np.isclose
    for the active-bound tests): the oracle of its decisions."""
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
    if not float(np.max(np.abs(stat), initial=0.0)) <= tol_stat:
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


def test_verify_kkt_decisions_equal_the_oracle():
    # well scaled: min 1/2 |d|^2 + g'd, d0 >= 0 active, d1 <= 0 active, d2 =
    # -0.5 by the equality: optimal with z = (1, -1, 0) and y = 0
    scaled = (
        QPData(np.eye(3), np.array([1.0, -1.0, 0.5]), np.array([[0.0, 0.0, 1.0]]),
               np.array([-0.5]), np.array([0.0, -np.inf, -1.0]), np.array([np.inf, 0.0, 1.0])),
        QPSolution(OPTIMAL, np.array([0.0, 0.0, -0.5]), np.zeros(1),
                   np.array([1.0, -1.0, 0.0]), (), -0.125),
    )
    # badly scaled: W and A carry 1e12, and both residuals exceed their
    # base tolerances 1e-8 (1 + |g|) and 1e-8 (1 + |b|), so the backward-
    # error floors decide (to pass); d1 = 0 with y's product zero there
    floors = (
        QPData(np.diag([1e12, 1.0, 1.0]), np.array([-1.0, -1.0, 0.5]),
               np.array([[1e12, 0.0, 1.0]]), np.array([0.5 + 1e-4]),
               np.array([-np.inf, -np.inf, -1.0]), np.array([np.inf, 0.0, 1.0])),
        QPSolution(OPTIMAL, np.array([1e-12, 0.0, -0.5]), np.array([1e-14]),
                   np.array([0.0, -1.0, 0.0]), (), 0.0),
    )
    qp, sol = floors
    with np.errstate(all="ignore"):
        r = stationarity_residual(qp, sol)
    assert np.abs(r - sol.multipliers_bounds).max() > 1e-8 * (1.0 + np.abs(qp.g).max())
    assert np.abs(qp.A @ sol.d - qp.b).max() > 1e-8 * (1.0 + np.abs(qp.b).max())

    def outcome(check, qp, sol):
        try:
            with np.errstate(all="ignore"):
                check(qp, sol)
        except QPFailureError as exc:
            return str(exc)
        return "pass"

    def verify(qp, sol):
        _verify_kkt(qp, sol, stationarity_residual(qp, sol))

    assert outcome(verify, *floors) == outcome(verify_kkt_oracle, *floors) == "pass"
    # each entry of each array is planted with NaN, +-inf and values at the
    # edges of the 1e-9 bound and gap tolerances and the 1e-8 sign
    # tolerance; W's and A's entries include the columns where d is zero
    # and the rows where y is zero, whose products NaN and inf must reach
    planted = (np.nan, np.inf, -np.inf, 1e-9, -1e-9, 1.0000001e-9, 2e-9, 1e-8, -1e-8, -1.5e-8,
               0.0, -1.0)
    # every test decides somewhere (complementarity not on the floors case)
    for (qp, sol), decided in ((scaled, 6), (floors, 5)):
        outcomes = set()
        cases = 0
        for owner, field in ((qp, "W"), (qp, "g"), (qp, "A"), (qp, "b"), (qp, "d_lower"),
                             (qp, "d_upper"), (sol, "d"), (sol, "multipliers_eq"),
                             (sol, "multipliers_bounds")):
            array = getattr(owner, field)
            for index in range(array.size):
                for value in planted:
                    changed = array.copy()
                    changed.flat[index] = value
                    q, s = qp, sol
                    if owner is qp:
                        q = dataclasses.replace(qp, **{field: changed})
                    else:
                        s = dataclasses.replace(sol, **{field: changed})
                    expected = outcome(verify_kkt_oracle, q, s)
                    assert outcome(verify, q, s) == expected, (field, index, value)
                    outcomes.add(expected)
                    cases += 1
        assert cases > 300 and len(outcomes) == decided, outcomes
