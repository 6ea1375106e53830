import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from modnlp.corpus import corpus_get
from modnlp.driver import Options
from modnlp.linalg import (
    OPTIMAL,
    RegularizationSchedule,
    extend_with_elastics,
    inertia_correct,
    solve_factorized,
)
from modnlp.model import EvaluationRecord, Evaluations, evaluate
from modnlp.reformulation import to_equality_form
from modnlp.relaxation import IPMSubproblem
from modnlp.state import Bounds, Iterate, Workspace
from modnlp.subproblem import (
    Direction,
    barrier_gradient_terms,
    build_sqp_qp,
    dual_scaling,
    fraction_to_boundary,
    fraction_to_boundary_dual,
    ipm_solve_step,
    kkt_residuals,
    primal_dual_diagonal,
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
        qp, tr = build_sqp_qp(ev, ev.hessian, np.array([2.0]), 1.0,
                              Bounds(np.array([0.0]), np.array([INF])), None,
                              RegularizationSchedule())
        assert qp.d_lower[0] == -2.0 and qp.d_upper[0] == INF
        from modnlp.linalg import qp_solve

        sol = qp_solve(qp)
        np.testing.assert_allclose(sol.d, [-2.0])

    def test_trust_region_caps_step(self):
        ev = scalar_model_evals([[2.0]], [4.0], np.zeros(0), np.zeros((0, 1)))
        qp, tr = build_sqp_qp(
            ev, ev.hessian, np.array([2.0]), 1.0, Bounds(np.array([0.0]), np.array([INF])), 1.0,
            None,
        )
        assert qp.d_lower[0] == -1.0 and qp.d_upper[0] == 1.0
        from modnlp.linalg import qp_solve

        np.testing.assert_allclose(qp_solve(qp).d, [-1.0])

    def test_infinite_trust_region_is_identity(self):
        ev = scalar_model_evals(np.eye(2), [1.0, -1.0], np.zeros(0), np.zeros((0, 2)))
        x = np.array([0.5, 1.5])
        bounds = Bounds(np.zeros(2), np.array([2.0, INF]))
        plain, _ = build_sqp_qp(ev, ev.hessian, x, 1.0, bounds, None, RegularizationSchedule())
        capped, _ = build_sqp_qp(ev, ev.hessian, x, 1.0, bounds, np.inf, None)
        assert np.array_equal(plain.W, capped.W)  # the identity is positive definite
        assert np.array_equal(plain.d_lower, capped.d_lower)
        assert np.array_equal(plain.d_upper, capped.d_upper)

    def test_regularize_makes_positive_definite(self):
        # without a trust region the Hessian is shifted positive definite
        ev = scalar_model_evals([[-1.0]], [0.0], np.zeros(0), np.zeros((0, 1)))
        schedule = RegularizationSchedule()
        qp, _ = build_sqp_qp(ev, ev.hessian, np.array([0.0]), 1.0,
                             Bounds(np.array([-INF]), np.array([INF])), None, schedule)
        assert schedule.last_successful > 1.0  # the schedule records the dw it took
        # independent eigen check of the returned Hessian
        assert np.all(np.linalg.eigvalsh(qp.W) > 0.0)

    def test_a_trust_region_keeps_the_hessian(self):
        ev = scalar_model_evals([[-1.0]], [0.0], np.zeros(0), np.zeros((0, 1)))
        qp, _ = build_sqp_qp(ev, ev.hessian, np.array([0.0]), 1.0,
                             Bounds(np.array([-INF]), np.array([INF])), 1.0, None)
        assert np.array_equal(qp.W, [[-1.0]])

    @pytest.mark.parametrize("trust_radius", [None, 1.0])
    def test_no_hessian_is_an_lp(self, trust_radius):
        # W = 0, with or without a trust region: nothing is shifted
        ev = scalar_model_evals([[-1.0]], [1.0], np.zeros(0), np.zeros((0, 2)))
        qp, _ = build_sqp_qp(ev, None, np.zeros(2), 1.0, Bounds(np.zeros(2), np.ones(2)),
                             trust_radius, None)
        assert np.array_equal(qp.W, np.zeros((2, 2)))

    def test_elastic_extension_always_feasible(self):
        ev = scalar_model_evals(np.eye(1), [0.0], [1.0], [[1.0]])
        qp, _ = build_sqp_qp(
            ev, ev.hessian, np.array([0.0]), 1.0, Bounds(np.array([0.0]), np.array([0.0])), None,
            RegularizationSchedule(),
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
            np.array([1.0]), np.array([-2.0]), Bounds(np.array([0.0]), np.array([INF])), 0.995
        )
        assert alpha == pytest.approx(0.4975)

    def test_interior_step_uncapped(self):
        alpha = fraction_to_boundary(
            np.array([1.0]), np.array([0.5]), Bounds(np.array([0.0]), np.array([2.0])), 0.995
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
            assert np.float64(fraction_to_boundary(x, dx, Bounds(lower, upper), tau)).tobytes() == \
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

    def test_equals_the_power_formula_wherever_it_does_not_overflow(self):
        mus = [5e-324, 1e-300, 1e-12, 1e-7, 0.1, np.nextafter(1.0, 0.0), 1.0,
               np.nextafter(1.0, 2.0), 1.5, 10.0, 1e10, 1e100, 1e150, 1e200, 3e205, 1e300,
               np.finfo(float).max]
        kappas = [5e-324, 1e-10, 0.2, 0.5, np.nextafter(1.0, 0.0)]
        thetas = [np.nextafter(1.0, 2.0), 1.1, 1.5, 1.9, np.nextafter(2.0, 1.0)]
        overflowed = 0
        for mu, kappa_mu, theta_mu in itertools.product(mus, kappas, thetas):
            mu, theta_mu = float(mu), float(theta_mu)
            new = update_barrier_parameter(mu, 0.0, 1e-8, 10.0, float(kappa_mu), theta_mu)
            try:
                old = min(mu, max(1e-8 / 10.0, min(kappa_mu * mu, mu**theta_mu)))
            except OverflowError:
                overflowed += 1
                old = min(mu, max(1e-8 / 10.0, kappa_mu * mu))
            assert np.float64(new).tobytes() == np.float64(old).tobytes(), (mu, kappa_mu, theta_mu)
        assert overflowed > 0

    def test_tau_close_to_one(self):
        # min 10 x s.t. x >= 0 at x = 1, z = 1: dx = -(10 - mu), and the
        # step stops at the fraction tau = max(tau_min, 1 - mu) of the gap
        ev = scalar_model_evals([[0.0]], [10.0], np.zeros(0), np.zeros((0, 1)))
        for mu, tau in ((0.1, 0.99), (1e-4, 1.0 - 1e-4)):
            d = ipm_solve_step(
                ev, np.array([1.0]), np.zeros(0), np.array([1.0]), np.array([0.0]),
                Bounds(np.array([0.0]), np.array([INF])), mu, RegularizationSchedule(), TAU_MIN,
            )
            assert d.dx[0] == pytest.approx(-(10.0 - mu))
            assert d.alpha_max == pytest.approx(tau / (10.0 - mu))


class TestIPMStep:
    def test_scalar_barrier_newton(self):
        # min x s.t. x >= 0 at x = 1, z = 1, mu = 0.1: dx = -0.9
        ev = scalar_model_evals([[0.0]], [1.0], np.zeros(0), np.zeros((0, 1)))
        d = ipm_solve_step(
            ev, np.array([1.0]), np.zeros(0), np.array([1.0]), np.array([0.0]),
            Bounds(np.array([0.0]), np.array([INF])), 0.1,
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
            bounds = Bounds(np.zeros(n), np.full(n, INF))
            ev = scalar_model_evals(W, g, c, J)
            schedule = RegularizationSchedule()
            d = ipm_solve_step(ev, x, y, zl, np.zeros(n), bounds, mu, schedule, TAU_MIN)
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
            ev, x, np.zeros(m), zl, np.zeros(n), Bounds(np.zeros(n), np.full(n, INF)),
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
                ev, x, rng.randn(m), zl, np.zeros(n), Bounds(np.zeros(n), np.full(n, INF)),
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
    x = push_to_interior(np.array([0.0, 5.0, 1.0]), Bounds(lower, upper), kappa=1e-2)
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
        pushed = push_to_interior(x, Bounds(lower, upper), kappa)
        assert np.array_equal(pushed, push_to_interior_loop(x, lower, upper, kappa))
        assert np.all(lower < pushed) and np.all(pushed < upper)
    assert kinds == {0, 1, 2, 3, "narrow"}


def test_ipm_on_equality_model_matches_newton():
    # unconstrained-variable model: the step reduces to a plain Newton-KKT solve
    base = corpus_get("hs028")
    model = to_equality_form(EvaluationRecord(base, base.initial_point)).model
    x = model.initial_point.astype(float)
    y = np.zeros(model.m)
    ev = evaluate(model, x, 1.0, y, with_hessian=True)
    d = ipm_solve_step(
        ev, x, y, np.zeros(model.n), np.zeros(model.n),
        Bounds(model.variable_lower, model.variable_upper),
        0.1, RegularizationSchedule(), TAU_MIN,
    )
    K = np.block([[ev.hessian, ev.jac_c.T], [ev.jac_c, np.zeros((model.m, model.m))]])
    rhs = np.concatenate([-(ev.grad_f), -ev.c])
    expected = np.linalg.solve(K, rhs)
    np.testing.assert_allclose(d.dx, expected[: model.n], atol=1e-9)


def test_a_nan_part_makes_the_residual_and_the_barrier_error_nan():
    # a NaN upper-side complementarity behind a finite lower side (0.5): it
    # makes the complementarity NaN, the barrier error NaN, and mu is held
    bounds = Bounds(np.array([0.0, -INF]), np.array([INF, 1.0]))
    x, zl, zu = np.array([0.5, np.nan]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    evals = Evaluations(f=0.0, c=np.zeros(0), grad_f=np.zeros(2), jac_c=np.zeros((0, 2)))
    with np.errstate(invalid="ignore"):
        parts = kkt_residuals(evals, x, np.zeros(0), zl, zu, bounds, 1.0, 0.0, 100.0)
    assert parts[:3] == (1.0, 1.0, 0.0) and np.isnan(parts[3])
    assert update_barrier_parameter(0.1, np.nan, 1e-8, **MU_UPDATE) == 0.1

    # the barrier update at mu = 0.1: stationarity 1 <= kappa_epsilon mu
    # = 1 and the lower complementarity 0.4, so only the NaN side holds mu
    ws = Workspace(SimpleNamespace(n=2, m=0, variable_lower=bounds.lower,
                                   variable_upper=bounds.upper))
    ipm = IPMSubproblem(ws, replace(OPTS, mu_initial=0.1, kappa_epsilon=10.0))
    with np.errstate(invalid="ignore"):
        assert not ipm.maybe_update_mu(Iterate(x, np.zeros(0), zl, zu, evals))
    assert ipm.mu == 0.1


def test_dual_scaling():
    # s_d = max(1, multiplier mass / (cap * max(1, n + m))), n = zl.size
    y, zl, zu = np.array([300.0, -100.0]), np.array([50.0, 0.0, 0.0]), np.array([0.0, 0.0, 50.0])
    assert dual_scaling(y, zl, zu, 100.0) == 500.0 / (100.0 * 5)
    assert dual_scaling(y, zl, zu, 1000.0) == 1.0
    assert dual_scaling(np.zeros(0), np.zeros(0), np.zeros(0), 100.0) == 1.0


# The oracles: the interior-point helpers and step as they were before the
# step computed its bound masks and barrier gradient once and the dual
# fraction to the boundary took one pass over both sides.

def parent_barrier_gradient_terms(x, lower, upper, mu):
    out = np.zeros(x.size)
    finite_lo = np.isfinite(lower)
    finite_hi = np.isfinite(upper)
    out[finite_lo] -= mu / (x[finite_lo] - lower[finite_lo])
    out[finite_hi] += mu / (upper[finite_hi] - x[finite_hi])
    return out


def parent_primal_dual_diagonal(x, lower, upper, zl, zu):
    sigma = np.zeros(x.size)
    finite_lo = np.isfinite(lower)
    finite_hi = np.isfinite(upper)
    sigma[finite_lo] += zl[finite_lo] / (x[finite_lo] - lower[finite_lo])
    sigma[finite_hi] += zu[finite_hi] / (upper[finite_hi] - x[finite_hi])
    return sigma


def parent_fraction_to_boundary(x, dx, lower, upper, tau):
    up = dx > 0.0
    bound = np.where(up, upper, lower)
    moving = np.flatnonzero((up | (dx < 0.0)) & np.isfinite(bound))
    ratios = tau * (bound[moving] - x[moving]) / dx[moving]
    return max(float(np.fmin.reduce(ratios, initial=1.0)), 0.0)


def parent_fraction_to_boundary_dual(zl, dzl, zu, dzu, tau):
    alpha = 1.0
    for z, dz in ((zl, dzl), (zu, dzu)):
        neg = dz < 0.0
        if np.any(neg):
            alpha = min(alpha, float(np.min(-tau * z[neg] / dz[neg])))
    return max(min(alpha, 1.0), 0.0)


def parent_barrier_kkt_parts(evals, x, y, zl, zu, lower, upper, mu, scaling_cap):
    """The four scaled parts whose max is the barrier KKT error: those of
    the barrier test's own function before it shared kkt_residuals, with
    the stationarity in the order of the termination residuals,
    (grad_f - J^T y) - (zl - zu), where that function took
    grad_f - J^T y - zl + zu."""
    m = y.size
    grad = np.asarray(evals.grad_f, dtype=float)
    J = np.asarray(evals.jac_c, dtype=float)
    stat = grad - (J.T @ y if m else 0.0) - (zl - zu)
    finite_lo = np.isfinite(lower)
    finite_hi = np.isfinite(upper)
    comp_lo = (x[finite_lo] - lower[finite_lo]) * zl[finite_lo] - mu
    comp_hi = (upper[finite_hi] - x[finite_hi]) * zu[finite_hi] - mu
    s_d = dual_scaling(y, zl, zu, scaling_cap)
    parts = [float(np.max(np.abs(stat), initial=0.0)) / s_d]
    parts.append(float(np.max(np.abs(evals.c), initial=0.0)))
    parts.append(float(np.max(np.abs(comp_lo), initial=0.0)) / s_d)
    parts.append(float(np.max(np.abs(comp_hi), initial=0.0)) / s_d)
    return parts


def parent_ipm_solve_step(evals, x, y, zl, zu, lower, upper, mu, schedule, tau_min):
    n = x.size
    m = y.size
    W = np.asarray(evals.hessian, dtype=float)
    J = np.asarray(evals.jac_c, dtype=float)
    c = np.asarray(evals.c, dtype=float)
    grad = np.asarray(evals.grad_f, dtype=float)
    sigma = parent_primal_dual_diagonal(x, lower, upper, zl, zu)
    H = W.copy()
    H.flat[:: n + 1] += sigma
    r_d = grad - (J.T @ y if m else 0.0) + parent_barrier_gradient_terms(x, lower, upper, mu)
    fact = inertia_correct(H, J, schedule, 1e-8 * max(mu, 1e-8) ** 0.25)
    sol = solve_factorized(fact, np.concatenate([-r_d, -c]))
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
    alpha_x = parent_fraction_to_boundary(x, dx, lower, upper, tau)
    alpha_z = parent_fraction_to_boundary_dual(
        zl[finite_lo], dzl[finite_lo], zu[finite_hi], dzu[finite_hi], tau)
    return Direction(
        dx=dx, dy=dy, dzl=dzl, dzu=dzu, status=OPTIMAL, alpha_max=alpha_x, dual_scale=alpha_z,
        gtd=float(grad @ dx), dwd=float(dx @ W @ dx),
        btd=float(-parent_barrier_gradient_terms(x, lower, upper, mu) @ dx),
        dbd=float(dx @ H @ dx),
    )


def same_bytes(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def bounded_points(rng, count):
    """count random (x, lower, upper, zl, zu) of sizes 0 to 30: bounds that
    are finite or +-inf on either side, some components on a bound (a zero
    gap), and some with NaN planted in x, a bound, zl or zu."""
    for trial in range(count):
        n = rng.randint(0, 31)
        lower = rng.randn(n)
        upper = lower + 0.1 + 3.0 * rng.rand(n)
        x = lower + (upper - lower) * rng.uniform(0.01, 0.99, n)
        lower[rng.rand(n) < 0.3] = -INF
        upper[rng.rand(n) < 0.3] = INF
        lower[rng.rand(n) < 0.03] = INF
        upper[rng.rand(n) < 0.03] = -INF
        zl = np.where(np.isfinite(lower), 0.01 + rng.rand(n), 0.0)
        zu = np.where(np.isfinite(upper), 0.01 + rng.rand(n), 0.0)
        if n and trial % 4 == 1:  # zero gaps
            on = rng.rand(n) < 0.3
            x[on] = np.where(np.isfinite(lower[on]), lower[on], x[on])
            at_upper = (rng.rand(n) < 0.3) & np.isfinite(upper)
            x[at_upper] = upper[at_upper]
        if n and trial % 4 == 3:
            for vector in (x, lower, upper, zl, zu):
                vector[rng.rand(n) < 0.1] = np.nan
        yield x, lower, upper, zl, zu


def test_barrier_helpers_equal_the_oracle():
    # byte for byte
    rng = np.random.RandomState(41)
    with np.errstate(divide="ignore", invalid="ignore"):
        for x, lower, upper, zl, zu in bounded_points(rng, 400):
            bounds = Bounds(lower, upper)
            mu = 10.0 ** rng.uniform(-9.0, 0.0)
            expected = parent_primal_dual_diagonal(x, lower, upper, zl, zu)
            assert same_bytes(primal_dual_diagonal(x, bounds, zl, zu), expected)
            expected = parent_barrier_gradient_terms(x, lower, upper, mu)
            assert same_bytes(barrier_gradient_terms(x, bounds, mu), expected)
            dx = rng.randn(x.size) * 10.0 ** rng.uniform(-2.0, 2.0)
            dx[rng.rand(x.size) < 0.1] = 0.0
            tau = rng.uniform(0.9, 1.0)
            expected = parent_fraction_to_boundary(x, dx, lower, upper, tau)
            assert same_bytes(fraction_to_boundary(x, dx, bounds, tau), expected)


def test_barrier_kkt_error_equals_the_oracle():
    # each of the four parts (stationarity, constraints, the two
    # complementarities) decides some cases
    rng = np.random.RandomState(43)
    seen, deciding = set(), [0, 0, 0, 0]
    with np.errstate(invalid="ignore"):
        for trial, (x, lower, upper, zl, zu) in enumerate(bounded_points(rng, 600)):
            n = x.size
            m = rng.randint(0, n + 1)
            zl *= 10.0 ** rng.uniform(-3, 3)
            zu *= 10.0 ** rng.uniform(-3, 3)
            evals = Evaluations(f=0.0, c=rng.randn(m) * 10.0 ** rng.uniform(-8, 2),
                                grad_f=rng.randn(n) * 10.0 ** rng.uniform(-8, 2),
                                jac_c=rng.randn(m, n))
            if trial % 5 == 2 and n:  # NaN or inf in the gradient or the constraints
                evals.grad_f[rng.randint(n)] = (np.nan, INF)[trial % 2]
                if m:
                    evals.c[rng.randint(m)] = (np.nan, -INF)[trial % 3 % 2]
            y = rng.randn(m) * 10.0 ** rng.uniform(-8, 2)
            mu = 10.0 ** rng.uniform(-9.0, 0.0)
            cap = (100.0, INF)[trial % 2]
            stationarity, _, feasibility, complementarity = kkt_residuals(
                evals, x, y, zl, zu, Bounds(lower, upper), 1.0, mu, cap)
            error = float(np.max((stationarity, feasibility, complementarity)))
            parts = parent_barrier_kkt_parts(evals, x, y, zl, zu, lower, upper, mu, cap)
            # the four parts joined by a max that a NaN part makes NaN,
            # whichever part it is
            expected = float(np.max(parts))
            assert same_bytes(error, expected)
            seen.add("nan" if np.isnan(expected) else "inf" if expected == INF else "finite")
            if np.isfinite(expected) and expected > 0.0:
                deciding[parts.index(expected)] += 1
    assert seen == {"nan", "inf", "finite"}
    assert min(deciding) >= 20


def test_fraction_to_boundary_dual_equals_the_oracle():
    rng = np.random.RandomState(47)
    capped = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        # (a) the sides as given: empty, of different lengths, with NaN,
        # +-inf and zero entries in z and dz
        for trial in range(600):
            sides = []
            for _ in range(2):
                k = rng.randint(0, 12) if trial % 7 else 0
                z = rng.rand(k) * 10.0 ** rng.uniform(-3, 3)
                dz = rng.randn(k) * 10.0 ** rng.uniform(-3, 3)
                for vector in (z, dz):
                    for value in (np.nan, INF, -INF, 0.0):
                        vector[rng.rand(k) < 0.04] = value
                z[rng.rand(k) < 0.03] = -1.0
                sides += [z, dz]
            tau = rng.uniform(0.9, 1.0)
            alpha = fraction_to_boundary_dual(*sides, tau)
            assert same_bytes(alpha, parent_fraction_to_boundary_dual(*sides, tau))
            capped += alpha < 1.0
        # (b) as the step calls it: both sides whole, dz = 0 at an infinite
        # bound and (mu -+ z dx) / gap - z at a finite one, a zero gap included
        for x, lower, upper, zl, zu in bounded_points(rng, 400):
            finite_lo, finite_hi = np.isfinite(lower), np.isfinite(upper)
            dx = rng.randn(x.size) * 10.0 ** rng.uniform(-2.0, 2.0)
            mu = 10.0 ** rng.uniform(-9.0, 0.0)
            dzl, dzu = np.zeros(x.size), np.zeros(x.size)
            dzl[finite_lo] = (mu - zl[finite_lo] * dx[finite_lo]) / (x - lower)[finite_lo] - zl[finite_lo]
            dzu[finite_hi] = (mu + zu[finite_hi] * dx[finite_hi]) / (upper - x)[finite_hi] - zu[finite_hi]
            tau = rng.uniform(0.9, 1.0)
            alpha = fraction_to_boundary_dual(zl, dzl, zu, dzu, tau)
            expected = parent_fraction_to_boundary_dual(
                zl[finite_lo], dzl[finite_lo], zu[finite_hi], dzu[finite_hi], tau)
            assert same_bytes(alpha, expected)
            capped += alpha < 1.0
    assert capped > 300


def test_ipm_solve_step_equals_the_oracle():
    # every field of the Direction and the schedule it leaves, byte for
    # byte, on eigenvalue (small) and certified (n + m >= 64) systems, with
    # convex and indefinite Hessians and +-inf bounds
    rng = np.random.RandomState(53)
    for trial in range(60):
        n = rng.randint(2, 12) if trial % 3 else rng.randint(50, 90)
        m = rng.randint(0, n // 2 + 1)
        x = rng.randn(n)
        lower = x - 0.1 - rng.rand(n)
        upper = x + 0.1 + rng.rand(n)
        lower[rng.rand(n) < 0.3] = -INF
        upper[rng.rand(n) < 0.3] = INF
        zl = np.where(np.isfinite(lower), 0.01 + rng.rand(n), 0.0)
        zu = np.where(np.isfinite(upper), 0.01 + rng.rand(n), 0.0)
        G = rng.randn(n, n)
        W = G @ G.T / n if trial % 2 else G + G.T
        if trial % 5 == 0:
            W = np.diag(np.diag(W))
        evals = Evaluations(f=0.0, c=rng.randn(m), grad_f=rng.randn(n), jac_c=rng.randn(m, n),
                            hessian=W)
        y = rng.randn(m)
        mu = 10.0 ** rng.uniform(-8.0, 0.0)
        schedules = RegularizationSchedule(), RegularizationSchedule()
        d = ipm_solve_step(evals, x, y, zl, zu, Bounds(lower, upper), mu, schedules[0], TAU_MIN)
        expected = parent_ipm_solve_step(evals, x, y, zl, zu, lower, upper, mu, schedules[1],
                                         TAU_MIN)
        for name in ("dx", "dy", "dzl", "dzu", "alpha_max", "dual_scale", "gtd", "dwd", "btd",
                     "dbd"):
            assert same_bytes(getattr(d, name), getattr(expected, name)), (trial, name)
        assert d.status == expected.status
        assert same_bytes(schedules[0].last_successful, schedules[1].last_successful)
