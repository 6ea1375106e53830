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
    _verify_kkt,
    central_elastics,
    inertia_correct,
    ldlt_factorize,
    ldlt_factorize_scaled,
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


class TestInertiaCorrection:
    def test_already_correct(self):
        fact, dw, dc = inertia_correct(np.eye(2), np.array([[1.0, 0.0]]), RegularizationSchedule())
        assert dw == 0.0 and dc == 0.0
        assert fact.inertia == (2, 1, 0)

    def test_negative_curvature_off_nullspace_needs_no_dw(self):
        # null(A) is spanned by e2 where H is positive: saddle matrix already
        # has the target inertia
        fact, dw, dc = inertia_correct(
            np.diag([-1.0, 1.0]), np.array([[1.0, 0.0]]), RegularizationSchedule()
        )
        assert fact.inertia == (2, 1, 0) and dw == 0.0

    def test_indefinite_hessian_needs_dw(self):
        # null(A) is spanned by e1 where H = -1: the smallest workable shift
        # exceeds 1
        H = np.diag([-1.0, 1.0])
        A = np.array([[0.0, 1.0]])
        schedule = RegularizationSchedule()
        fact, dw, dc = inertia_correct(H, A, schedule)
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
        fact, dw, dc = inertia_correct(H, A, RegularizationSchedule())
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
        def probed(W, schedule):
            n = W.shape[0]

            def is_pd(delta):
                return ldlt_factorize(W + delta * np.eye(n)).inertia == (n, 0, 0)

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

        rng = np.random.RandomState(31)
        fast, slow = RegularizationSchedule(), RegularizationSchedule()
        for trial in range(100):
            n = rng.randint(2, 9)
            B = rng.randn(n, n) * 10.0 ** rng.uniform(-3.0, 3.0)
            # indefinite, or semidefinite with a zero eigenvalue
            W = B + B.T if trial % 3 else B[:, 1:] @ B[:, 1:].T
            shifted, dw = make_positive_definite(W, fast)
            assert dw == probed(W, slow)
            assert ldlt_factorize(shifted).inertia == (n, 0, 0)


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

    def test_warm_start(self):
        rng = np.random.RandomState(3)
        qp = random_convex_qp(rng)
        cold = qp_solve(qp)
        warm = qp_solve(qp, warm_start=cold.active_set)
        assert warm.status == OPTIMAL
        np.testing.assert_allclose(warm.d, cold.d, atol=1e-8)

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


def test_kkt_contract_violation_is_a_typed_error():
    qp = QPData(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]),
                np.full(2, -np.inf), np.full(2, np.inf))
    good = QPSolution(OPTIMAL, np.array([0.5, 0.5]), np.array([0.5]), np.zeros(2), (), 0.25)
    _verify_kkt(qp, good)
    infeasible = QPSolution(OPTIMAL, np.zeros(2), np.zeros(1), np.zeros(2), (), 0.0)
    with pytest.raises(QPFailureError, match="feasibility"):
        _verify_kkt(qp, infeasible)
