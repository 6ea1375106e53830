"""Generated problem families with hand-coded derivatives, built on the
public ``modnlp.Model``.

- ``chained_rosenbrock``: chained Rosenbrock objective under the
  trigonometric-exponential equality constraints of Luksan & Vlcek, "Sparse
  and partially separable test problems for unconstrained and equality
  constrained optimization", ICS AS CR TR-767 (1999). x = (1, ..., 1) is
  feasible and makes the objective 0, so 0 is the reference optimum.
- ``optimal_control``: y' = u - y^3 on [0, T] under explicit Euler with N
  steps, tracking a target with a control penalty; u in [-2, 2], y >= -0.5.
- ``exponential_fit``: least-squares fit of a sum of three exponentials to
  noisy samples, with sum(a) = 1, a nonlinear area constraint
  sum(a / b) = area and two ordering rows b1 <= b2 <= b3.

Each builder draws from ``numpy.random.Generator`` arguments only, so the
same generators give the same instance. Where a builder takes a ``design``
generator, it fixes the problem's parameters; ``rng`` draws the start and,
for the fit, the measurement noise.
"""
from __future__ import annotations

import numpy as np

import modnlp

INF = np.inf
CHAIN_START_NOISE = 0.2
CONTROL_HORIZON = 3.0
CONTROL_ALPHA = 0.1  # weight of the control penalty
CONTROL_START_NOISE = 0.1
FIT_NOISE = 0.01  # standard deviation of the measurement noise
FIT_START_NOISE = 0.2


def chained_rosenbrock(n: int, rng: np.random.Generator) -> modnlp.Model:
    """n variables, n - 2 equality constraints, no bounds. The start is
    2 + N(0, CHAIN_START_NOISE^2) per component: from the Luksan-Vlcek point
    (-1.2, 1, -1.2, 1, ...) every configuration stops at a local minimum
    with objective 6.23, which would leave no global reference."""
    m = n - 2

    def objective(x):
        head, tail = x[:-1], x[1:]
        return float(np.sum(100.0 * (head**2 - tail) ** 2 + (head - 1.0) ** 2))

    def gradient(x):
        head, tail = x[:-1], x[1:]
        r = head**2 - tail
        g = np.zeros(n)
        g[:-1] += 400.0 * head * r + 2.0 * (head - 1.0)
        g[1:] -= 200.0 * r
        return g

    def objective_hessian(x):
        head, tail = x[:-1], x[1:]
        H = np.zeros((n, n))
        i = np.arange(n - 1)
        H[i, i] += 1200.0 * head**2 - 400.0 * tail + 2.0
        H[i + 1, i + 1] += 200.0
        H[i, i + 1] = H[i + 1, i] = -400.0 * head
        return H

    k = np.arange(m)

    def constraints(x):
        p, a, b = x[:-2], x[1:-1], x[2:]
        return (3.0 * a**3 + 2.0 * b - 5.0 + np.sin(a - b) * np.sin(a + b)
                + 4.0 * a - p * np.exp(p - a) - 3.0)

    def jacobian(x):
        p, a, b = x[:-2], x[1:-1], x[2:]
        e = np.exp(p - a)
        J = np.zeros((m, n))
        J[k, k] = -(1.0 + p) * e
        J[k, k + 1] = 9.0 * a**2 + np.sin(2.0 * a) + 4.0 + p * e
        J[k, k + 2] = 2.0 - np.sin(2.0 * b)
        return J

    def lagrangian_hessian(x, rho, y):
        # sin(a - b) sin(a + b) = (cos 2b - cos 2a) / 2 separates the rows
        p, a, b = x[:-2], x[1:-1], x[2:]
        e = np.exp(p - a)
        W = rho * objective_hessian(x)
        W[k, k] -= y * (-(2.0 + p) * e)
        W[k + 1, k + 1] -= y * (18.0 * a + 2.0 * np.cos(2.0 * a) - p * e)
        W[k + 2, k + 2] -= y * (-2.0 * np.cos(2.0 * b))
        W[k, k + 1] -= y * ((1.0 + p) * e)
        W[k + 1, k] -= y * ((1.0 + p) * e)
        return W

    x0 = 2.0 + CHAIN_START_NOISE * rng.standard_normal(n)
    return modnlp.Model(
        name="chain%d" % n,
        n=n,
        m=m,
        variable_lower=np.full(n, -INF),
        variable_upper=np.full(n, INF),
        constraint_lower=np.zeros(m),
        constraint_upper=np.zeros(m),
        eval_objective=objective,
        eval_constraints=constraints,
        eval_objective_gradient=gradient,
        eval_constraint_jacobian=jacobian,
        eval_lagrangian_hessian=lagrangian_hessian,
        initial_point=x0,
    )


def optimal_control(N: int, design: np.random.Generator, rng: np.random.Generator) -> modnlp.Model:
    """x = (y_1..y_N, u_0..u_{N-1}); rows y_{k+1} - y_k - h (u_k - y_k^3) = 0
    with y_0 fixed, h = CONTROL_HORIZON / N. Objective
    h/2 sum (y_k - r_k)^2 + CONTROL_ALPHA h/2 sum u_k^2.

    The target r(t) = amp sin(2 pi t / CONTROL_HORIZON + phase) + 0.5 has amp in
    [1.2, 1.6], so it asks for y below -0.5 and for |u| above 2 and both
    bound sets become active. y_0, amp and phase are drawn from ``design``.
    The start, y = y_0 and u = 0 plus N(0, CONTROL_START_NOISE^2) clipped to the
    bounds, is drawn from ``rng``.
    """
    n, m = 2 * N, N
    h = CONTROL_HORIZON / N
    t = h * np.arange(1, N + 1)
    amp = design.uniform(1.2, 1.6)
    phase = design.uniform(0.0, 2.0 * np.pi)
    target = amp * np.sin(2.0 * np.pi * t / CONTROL_HORIZON + phase) + 0.5
    y0 = design.uniform(0.0, 0.5)
    k = np.arange(N)

    def split(x):
        return x[:N], x[N:]

    def objective(x):
        y, u = split(x)
        return float(0.5 * h * np.sum((y - target) ** 2) + 0.5 * CONTROL_ALPHA * h * np.sum(u**2))

    def gradient(x):
        y, u = split(x)
        return np.concatenate([h * (y - target), CONTROL_ALPHA * h * u])

    def previous_state(y):
        return np.concatenate([[y0], y[:-1]])

    def constraints(x):
        y, u = split(x)
        yp = previous_state(y)
        return y - yp - h * (u - yp**3)

    def jacobian(x):
        y, u = split(x)
        J = np.zeros((m, n))
        J[k, k] = 1.0
        J[k[1:], k[:-1]] = -1.0 + 3.0 * h * y[:-1] ** 2
        J[k, N + k] = -h
        return J

    def lagrangian_hessian(x, rho, yk):
        y, _ = split(x)
        diag = np.concatenate([np.full(N, rho * h), np.full(N, rho * CONTROL_ALPHA * h)])
        # row k + 1 depends on y_k through h y_k^3
        diag[: N - 1] -= yk[1:] * 6.0 * h * y[:-1]
        return np.diag(diag)

    lower = np.concatenate([np.full(N, -0.5), np.full(N, -2.0)])
    upper = np.concatenate([np.full(N, INF), np.full(N, 2.0)])
    x0 = np.concatenate([np.full(N, y0), np.zeros(N)]) + CONTROL_START_NOISE * rng.standard_normal(n)
    x0 = np.clip(x0, lower, upper)
    return modnlp.Model(
        name="control%d" % N,
        n=n,
        m=m,
        variable_lower=lower,
        variable_upper=upper,
        constraint_lower=np.zeros(m),
        constraint_upper=np.zeros(m),
        eval_objective=objective,
        eval_constraints=constraints,
        eval_objective_gradient=gradient,
        eval_constraint_jacobian=jacobian,
        eval_lagrangian_hessian=lagrangian_hessian,
        initial_point=x0,
    )


def exponential_fit(samples: int, design: np.random.Generator,
                    rng: np.random.Generator) -> modnlp.Model:
    """x = (a_1, a_2, a_3, b_1, b_2, b_3); model sum_j a_j exp(-b_j t) on
    t in [0, 10], objective sum residual^2 / (2 samples FIT_NOISE^2), which is
    about 1/2 at the true parameters.

    Rows: sum(a) = 1, sum(a / b) = area (the true area), b_2 - b_1 >= 0.1
    and b_3 - b_2 >= 0.1. Bounds a in [0, 1], b in [0.05, 20]. The true
    parameters and the starting rates are drawn from ``design``, the noise
    from ``rng``.
    """
    t = np.linspace(0.0, 10.0, samples)
    a_true = design.dirichlet(np.full(3, 4.0))
    b_true = np.array([0.3, 1.5, 6.0]) * np.exp(design.uniform(-0.2, 0.2, 3))
    data = np.exp(-np.outer(t, b_true)) @ a_true + FIT_NOISE * rng.standard_normal(samples)
    area = float(np.sum(a_true / b_true))
    scale = 1.0 / (samples * FIT_NOISE**2)

    def parts(x):
        a, b = x[:3], x[3:]
        E = np.exp(-np.outer(t, b))
        return a, b, E, E @ a - data

    def objective(x):
        _, _, _, r = parts(x)
        return float(0.5 * scale * (r @ r))

    def gradient(x):
        a, _, E, r = parts(x)
        ga = E.T @ r
        gb = -a * ((t * r) @ E)
        return scale * np.concatenate([ga, gb])

    def constraints(x):
        a, b = x[:3], x[3:]
        return np.array([np.sum(a), np.sum(a / b), b[1] - b[0], b[2] - b[1]])

    def jacobian(x):
        a, b = x[:3], x[3:]
        return np.array([
            [1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            np.concatenate([1.0 / b, -a / b**2]),
            [0.0, 0.0, 0.0, -1.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
        ])

    def lagrangian_hessian(x, rho, y):
        a, b, E, r = parts(x)
        Jr = np.hstack([E, -(t[:, None] * E) * a])  # d residual / dx
        H = Jr.T @ Jr
        tE_r = (t * r) @ E
        t2E_r = (t * t * r) @ E
        j = np.arange(3)
        H[j, 3 + j] -= tE_r
        H[3 + j, j] -= tE_r
        H[3 + j, 3 + j] += a * t2E_r
        W = rho * scale * H
        # area row: d2/da_j db_j = -1/b_j^2, d2/db_j^2 = 2 a_j / b_j^3
        W[j, 3 + j] += y[1] / b**2
        W[3 + j, j] += y[1] / b**2
        W[3 + j, 3 + j] -= y[1] * 2.0 * a / b**3
        return W

    # start: the true rates times exp(N(0, FIT_START_NOISE^2)), and the amplitudes
    # of the linear least-squares fit at those rates under sum(a) = 1
    b0 = np.sort(b_true * np.exp(FIT_START_NOISE * design.standard_normal(3)))
    E0 = np.exp(-np.outer(t, b0))
    K = np.zeros((4, 4))
    K[:3, :3] = E0.T @ E0
    K[:3, 3] = K[3, :3] = 1.0
    a0 = np.linalg.solve(K, np.concatenate([E0.T @ data, [1.0]]))[:3]
    a0 = np.clip(a0, 0.0, 1.0)
    x0 = np.concatenate([a0 / np.sum(a0), b0])
    return modnlp.Model(
        name="expfit%d" % samples,
        n=6,
        m=4,
        variable_lower=np.array([0.0, 0.0, 0.0, 0.05, 0.05, 0.05]),
        variable_upper=np.array([1.0, 1.0, 1.0, 20.0, 20.0, 20.0]),
        constraint_lower=np.array([1.0, area, 0.1, 0.1]),
        constraint_upper=np.array([1.0, area, INF, INF]),
        eval_objective=objective,
        eval_constraints=constraints,
        eval_objective_gradient=gradient,
        eval_constraint_jacobian=jacobian,
        eval_lagrangian_hessian=lagrangian_hessian,
        initial_point=x0,
        linear_rows=(0, 2, 3),
    )
