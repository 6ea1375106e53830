import numpy as np
import pytest

from modnlp.corpus import corpus_get
from modnlp.driver import Options
from modnlp.linalg import RegularizationSchedule, extend_with_elastics
from modnlp.model import Evaluations, evaluate
from modnlp.reformulation import to_equality_form
from modnlp.subproblem import (
    build_sqp_qp,
    dual_scaling,
    fraction_to_boundary,
    fraction_to_boundary_dual,
    ipm_solve_step,
    push_to_interior,
    update_barrier_parameter,
)

INF = np.inf
OPTS = Options()
TAU_MIN = OPTS.tau_min
MU_UPDATE = dict(kappa_epsilon=OPTS.kappa_epsilon, kappa_mu=OPTS.kappa_mu, theta_mu=OPTS.theta_mu)


def scalar_model_evals(W, g, c, J):
    return Evaluations(
        f=0.0,
        c=np.asarray(c, dtype=float),
        grad_f=np.asarray(g, dtype=float),
        jac_c=np.asarray(J, dtype=float),
        hessian=np.asarray(W, dtype=float),
    )


class TestBuildQP:
    def test_bound_encoding(self):
        # min x^2 s.t. x >= 0 at x = 2: step to the origin
        ev = scalar_model_evals([[2.0]], [4.0], np.zeros(0), np.zeros((0, 1)))
        qp, tr = build_sqp_qp(ev, np.array([2.0]), 1.0, np.array([0.0]), np.array([INF]))
        assert qp.d_lower[0] == -2.0 and qp.d_upper[0] == INF
        from modnlp.linalg import qp_solve

        sol = qp_solve(qp)
        np.testing.assert_allclose(sol.d, [-2.0])

    def test_trust_region_caps_step(self):
        ev = scalar_model_evals([[2.0]], [4.0], np.zeros(0), np.zeros((0, 1)))
        qp, tr = build_sqp_qp(
            ev, np.array([2.0]), 1.0, np.array([0.0]), np.array([INF]), trust_radius=1.0
        )
        assert qp.d_lower[0] == -1.0 and qp.d_upper[0] == 1.0
        from modnlp.linalg import qp_solve

        np.testing.assert_allclose(qp_solve(qp).d, [-1.0])

    def test_infinite_trust_region_is_identity(self):
        ev = scalar_model_evals(np.eye(2), [1.0, -1.0], np.zeros(0), np.zeros((0, 2)))
        x = np.array([0.5, 1.5])
        lower, upper = np.zeros(2), np.array([2.0, INF])
        plain, _ = build_sqp_qp(ev, x, 1.0, lower, upper)
        capped, _ = build_sqp_qp(ev, x, 1.0, lower, upper, trust_radius=np.inf)
        assert np.array_equal(plain.d_lower, capped.d_lower)
        assert np.array_equal(plain.d_upper, capped.d_upper)

    def test_regularize_makes_positive_definite(self):
        ev = scalar_model_evals([[-1.0]], [0.0], np.zeros(0), np.zeros((0, 1)))
        schedule = RegularizationSchedule()
        qp, _ = build_sqp_qp(
            ev, np.array([0.0]), 1.0, np.array([-INF]), np.array([INF]),
            regularize=True, schedule=schedule,
        )
        assert schedule.last_successful > 1.0  # the schedule records the dw it took
        # independent eigen check of the returned Hessian
        assert np.all(np.linalg.eigvalsh(qp.W) > 0.0)

    def test_elastic_extension_always_feasible(self):
        ev = scalar_model_evals(np.eye(1), [0.0], [1.0], [[1.0]])
        qp, _ = build_sqp_qp(
            ev, np.array([0.0]), 1.0, np.array([0.0]), np.array([0.0])
        )  # d fixed to 0, c = 1: inconsistent without elastics
        from modnlp.linalg import INFEASIBLE, OPTIMAL, qp_solve

        assert qp_solve(qp).status == INFEASIBLE
        elastic = extend_with_elastics(qp)
        sol = qp_solve(elastic)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(1.0)  # one unit of violation


class TestFractionToBoundary:
    def test_closed_form_example(self):
        alpha = fraction_to_boundary(
            np.array([1.0]), np.array([-2.0]), np.array([0.0]), np.array([INF]), 0.995
        )
        assert alpha == pytest.approx(0.4975)

    def test_interior_step_uncapped(self):
        alpha = fraction_to_boundary(
            np.array([1.0]), np.array([0.5]), np.array([0.0]), np.array([2.0]), 0.995
        )
        assert alpha == 1.0

    def test_matches_loop_bitwise(self):
        def loop(x, dx, lower, upper, tau):
            alpha = 1.0
            for xi, di, lo, hi in zip(x, dx, lower, upper):
                if di < 0.0 and np.isfinite(lo):
                    alpha = min(alpha, -tau * (xi - lo) / di)
                elif di > 0.0 and np.isfinite(hi):
                    alpha = min(alpha, tau * (hi - xi) / di)
            return max(min(alpha, 1.0), 0.0)

        rng = np.random.RandomState(8)
        capped = 0
        for _ in range(300):
            n = rng.randint(0, 30)
            lower = rng.randn(n)
            upper = lower + 0.1 + 3.0 * rng.rand(n)
            x = lower + (upper - lower) * rng.uniform(0.01, 0.99, n)
            lower[rng.rand(n) < 0.3] = -INF
            upper[rng.rand(n) < 0.3] = INF
            dx = rng.randn(n) * 10.0 ** rng.uniform(-2.0, 2.0)
            dx[rng.rand(n) < 0.1] = 0.0
            tau = rng.uniform(0.9, 1.0)
            expected = loop(x, dx, lower, upper, tau)
            capped += expected < 1.0
            assert np.float64(fraction_to_boundary(x, dx, lower, upper, tau)).tobytes() == \
                np.float64(expected).tobytes()
        assert capped > 100

    def test_dual_side(self):
        alpha = fraction_to_boundary_dual(
            np.array([1.0]), np.array([-4.0]), np.zeros(0), np.zeros(0), 0.5
        )
        assert alpha == pytest.approx(0.125)


class TestBarrierUpdate:
    def test_decrease_formula(self):
        mu = update_barrier_parameter(
            0.1, kkt_error=0.5, epsilon=1e-6, kappa_epsilon=10.0, kappa_mu=0.2, theta_mu=1.5
        )
        assert mu == pytest.approx(min(0.02, 0.1**1.5))

    def test_not_triggered_when_error_large(self):
        assert update_barrier_parameter(0.1, kkt_error=10.0, epsilon=1e-6, **MU_UPDATE) == 0.1

    def test_floor_clamp(self):
        mu = update_barrier_parameter(2e-7, kkt_error=0.0, epsilon=1e-6, **MU_UPDATE)
        assert mu == pytest.approx(1e-7)

    def test_never_increases(self):
        # below the floor epsilon / 10 the update keeps mu
        assert update_barrier_parameter(1e-8, kkt_error=0.0, epsilon=1e-6, **MU_UPDATE) == 1e-8

    def test_tau_close_to_one(self):
        # min 10 x s.t. x >= 0 at x = 1, z = 1: dx = -(10 - mu), and the
        # step stops at the fraction tau = max(tau_min, 1 - mu) of the gap
        ev = scalar_model_evals([[0.0]], [10.0], np.zeros(0), np.zeros((0, 1)))
        for mu, tau in ((0.1, 0.99), (1e-4, 1.0 - 1e-4)):
            d = ipm_solve_step(
                ev, np.array([1.0]), np.zeros(0), np.array([1.0]), np.array([0.0]),
                np.array([0.0]), np.array([INF]), mu, RegularizationSchedule(), TAU_MIN,
            )
            assert d.dx[0] == pytest.approx(-(10.0 - mu))
            assert d.alpha_max == pytest.approx(tau / (10.0 - mu))


class TestIPMStep:
    def test_scalar_barrier_newton(self):
        # min x s.t. x >= 0 at x = 1, z = 1, mu = 0.1: dx = -0.9
        ev = scalar_model_evals([[0.0]], [1.0], np.zeros(0), np.zeros((0, 1)))
        d = ipm_solve_step(
            ev, np.array([1.0]), np.zeros(0), np.array([1.0]), np.array([0.0]),
            np.array([0.0]), np.array([INF]), 0.1,
            RegularizationSchedule(), TAU_MIN,
        )
        np.testing.assert_allclose(d.dx, [-0.9], atol=1e-12)

    def test_full_primal_dual_residual_reconstruction(self):
        # the symmetrized system plus the dz recovery must reproduce the full
        # primal-dual Newton system residual on strictly interior points
        rng = np.random.RandomState(9)
        checked = 0
        for _ in range(20):
            n, m = 5, 2
            x = 0.5 + rng.rand(n)
            y = rng.randn(m)
            zl = 0.5 + rng.rand(n)
            J = rng.randn(m, n)
            # W indefinite but positive definite on null(J) (Z^T W Z = R R^T
            # + 0.1 I), so no system needs a shift dw > 0
            Q, _ = np.linalg.qr(J.T, mode="complete")
            Y, Z = Q[:, :m], Q[:, m:]
            R, E, C = rng.randn(n - m, n - m), rng.randn(m, m), rng.randn(n - m, m)
            W = Z @ (R @ R.T + 0.1 * np.eye(n - m)) @ Z.T + Y @ (E + E.T) @ Y.T
            W += Z @ C @ Y.T + Y @ C.T @ Z.T
            g = rng.randn(n)
            c = rng.randn(m)
            mu = 0.05
            lower = np.zeros(n)
            upper = np.full(n, INF)
            ev = scalar_model_evals(W, g, c, J)
            schedule = RegularizationSchedule()
            d = ipm_solve_step(ev, x, y, zl, np.zeros(n), lower, upper, mu, schedule, TAU_MIN)
            if schedule.last_successful != RegularizationSchedule.last_successful:
                continue  # a shift dw > 0 was recorded: the identity holds without one
            checked += 1
            dx, dy, dz = d.dx, d.dy, d.dzl
            X, Z = np.diag(x), np.diag(zl)
            r1 = W @ dx - J.T @ dy - dz + (g - J.T @ y - zl)
            r2 = J @ dx + c
            r3 = Z @ dx + X @ dz + (x * zl - mu)
            scale = 1.0 + max(np.max(np.abs(g)), np.max(np.abs(c)))
            assert np.max(np.abs(r1)) <= 1e-10 * scale
            assert np.max(np.abs(r2)) <= 1e-10 * scale
            assert np.max(np.abs(r3)) <= 1e-10 * scale
        assert checked == 20

    def test_linearized_complementarity_row(self):
        # X(z + dz) + Z dx = mu e after one step
        rng = np.random.RandomState(4)
        n, m = 4, 1
        x = 0.3 + rng.rand(n)
        zl = 0.2 + rng.rand(n)
        ev = scalar_model_evals(np.eye(n), rng.randn(n), rng.randn(m), rng.randn(m, n))
        mu = 0.02
        d = ipm_solve_step(
            ev, x, np.zeros(m), zl, np.zeros(n), np.zeros(n), np.full(n, INF),
            mu, RegularizationSchedule(), TAU_MIN,
        )
        resid = x * (zl + d.dzl) + zl * d.dx - mu
        assert np.max(np.abs(resid)) <= 1e-10

    def test_fraction_to_boundary_invariant_along_step(self):
        rng = np.random.RandomState(31)
        for _ in range(20):
            n, m = 4, 2
            x = 0.1 + rng.rand(n)
            zl = 0.1 + rng.rand(n)
            W = rng.randn(n, n)
            W = W + W.T
            ev = scalar_model_evals(W, rng.randn(n), rng.randn(m), rng.randn(m, n))
            tau = max(TAU_MIN, 1.0 - 0.05)
            d = ipm_solve_step(
                ev, x, rng.randn(m), zl, np.zeros(n), np.zeros(n), np.full(n, INF),
                0.05, RegularizationSchedule(), TAU_MIN,
            )
            assert 0.0 < d.alpha_max <= 1.0
            x_new = x + d.alpha_max * d.dx
            z_new = zl + d.dual_scale * d.dzl
            assert np.all(x_new >= (1.0 - tau) * x - 1e-14)
            assert np.all(z_new >= (1.0 - tau) * zl - 1e-14)
            assert np.all(x_new > 0.0) and np.all(z_new > 0.0)


def test_push_to_interior():
    lower = np.array([0.0, -INF, 1.0])
    upper = np.array([INF, 2.0, 1.5])
    x = push_to_interior(np.array([0.0, 5.0, 1.0]), lower, upper, kappa=1e-2)
    assert x[0] >= 0.01
    assert x[1] <= 2.0 - 0.01 * 2.0 + 1e-15
    assert lower[2] < x[2] < upper[2]


def push_to_interior_loop(x, lower, upper, kappa):
    """The per-variable reference for push_to_interior."""
    x = np.asarray(x, dtype=float).copy()
    for i in range(x.size):
        lo, hi = lower[i], upper[i]
        pad_lo = kappa * max(1.0, abs(lo)) if np.isfinite(lo) else 0.0
        pad_hi = kappa * max(1.0, abs(hi)) if np.isfinite(hi) else 0.0
        if np.isfinite(lo) and np.isfinite(hi):
            width = hi - lo
            pad_lo = min(pad_lo, 0.25 * width)
            pad_hi = min(pad_hi, 0.25 * width)
        if np.isfinite(lo):
            x[i] = max(x[i], lo + pad_lo)
        if np.isfinite(hi):
            x[i] = min(x[i], hi - pad_hi)
    return x


def test_push_to_interior_matches_the_loop():
    # free variables, one-sided bounds, wide and narrow two-sided boxes
    # (narrower than 4 kappa max(1, |bound|), so the quarter-width cap acts)
    rng = np.random.RandomState(14)
    kinds = set()
    for _ in range(50):
        n = rng.randint(1, 40)
        kappa = 10.0 ** rng.uniform(-4.0, -1.0)
        lower = rng.randn(n) * 10.0 ** rng.uniform(-1.0, 3.0, n)
        width = 10.0 ** rng.uniform(-6.0, 2.0, n)
        upper = lower + width
        kind = rng.randint(0, 4, n)  # 0 free, 1 lower only, 2 upper only, 3 box
        lower[(kind == 0) | (kind == 2)] = -INF
        upper[(kind == 0) | (kind == 1)] = INF
        narrow = (kind == 3) & (width < 4.0 * kappa * np.maximum(1.0, np.abs(upper)))
        kinds.update(kind.tolist())
        kinds.update(["narrow"] if narrow.any() else [])
        x = rng.randn(n) * 10.0 ** rng.uniform(-1.0, 3.0, n)
        pushed = push_to_interior(x, lower, upper, kappa)
        assert np.array_equal(pushed, push_to_interior_loop(x, lower, upper, kappa))
        assert np.all(lower < pushed) and np.all(pushed < upper)
    assert kinds == {0, 1, 2, 3, "narrow"}


def test_ipm_on_equality_model_matches_newton():
    # unconstrained-variable model: the step reduces to a plain Newton-KKT solve
    model = to_equality_form(corpus_get("hs028"))
    x = model.initial_point.astype(float)
    y = np.zeros(model.m)
    ev = evaluate(model, x, 1.0, y, with_hessian=True)
    d = ipm_solve_step(
        ev, x, y, np.zeros(model.n), np.zeros(model.n),
        model.variable_lower, model.variable_upper,
        0.1, RegularizationSchedule(), TAU_MIN,
    )
    K = np.block([[ev.hessian, ev.jac_c.T], [ev.jac_c, np.zeros((model.m, model.m))]])
    rhs = np.concatenate([-(ev.grad_f), -ev.c])
    expected = np.linalg.solve(K, rhs)
    np.testing.assert_allclose(d.dx, expected[: model.n], atol=1e-9)


def test_dual_scaling():
    # s_d = max(1, multiplier mass / (cap * max(1, n + m))), n = zl.size
    y, zl, zu = np.array([300.0, -100.0]), np.array([50.0, 0.0, 0.0]), np.array([0.0, 0.0, 50.0])
    assert dual_scaling(y, zl, zu, 100.0) == 500.0 / (100.0 * 5)
    assert dual_scaling(y, zl, zu, 1000.0) == 1.0
    assert dual_scaling(np.zeros(0), np.zeros(0), np.zeros(0), 100.0) == 1.0
