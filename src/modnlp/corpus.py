"""Built-in analytic test problems with hand-coded derivatives, and the
judge of a solve's answer on them.

The registry spans linear systems, bound-constrained QPs, equality-constrained
QPs, general nonlinear problems, and deliberately infeasible instances.
Problems are authored in general form (row bounds l <= c(x) <= u); the solver
reduces them to equality form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .driver import INFEASIBLE_STATIONARY, LOOSE_KKT, SUCCESS_STATUSES
from .errors import UnknownProblemError
from .model import Model, evaluate

INF = np.inf


@dataclass(frozen=True)
class Row:
    """One constraint row: lo <= value(x) <= hi."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    hessian: Callable[[np.ndarray], np.ndarray] | None = None  # None: linear row


def assemble(
    name,
    n,
    f,
    grad_f,
    hess_f,
    rows,
    x0,
    lower=None,
    upper=None,
):
    rows = tuple(rows)
    m = len(rows)
    lower = np.full(n, -INF) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, INF) if upper is None else np.asarray(upper, dtype=float)

    def constraints(x):
        return np.array([row.value(x) for row in rows])

    def jacobian(x):
        if m == 0:
            return np.zeros((0, n))
        return np.vstack([row.gradient(x) for row in rows])

    def lagrangian_hessian(x, rho, y):
        W = rho * np.asarray(hess_f(x), dtype=float)
        for j, row in enumerate(rows):
            if row.hessian is not None and y[j] != 0.0:
                W = W - y[j] * np.asarray(row.hessian(x), dtype=float)
        return 0.5 * (W + W.T)

    return Model(
        name=name,
        n=n,
        m=m,
        variable_lower=lower,
        variable_upper=upper,
        constraint_lower=np.array([row.lo for row in rows]),
        constraint_upper=np.array([row.hi for row in rows]),
        eval_objective=f,
        eval_constraints=constraints,
        eval_objective_gradient=grad_f,
        eval_constraint_jacobian=jacobian,
        eval_lagrangian_hessian=lagrangian_hessian,
        initial_point=np.asarray(x0, dtype=float),
        linear_rows=tuple(j for j, row in enumerate(rows) if row.hessian is None),
    )


def linear_row(a, b, lo=0.0, hi=0.0):
    """Row lo <= a.x - b <= hi with constant gradient."""
    a = np.asarray(a, dtype=float)
    return Row(lambda x, a=a, b=b: float(a @ x - b), lambda x, a=a: a.copy(), lo, hi)


def zero_objective(n):
    return (
        lambda x: 0.0,
        lambda x: np.zeros(n),
        lambda x: np.zeros((n, n)),
    )


# --- linear systems (f = 0 or linear f) -----------------------------------

def booth():
    f, g, H = zero_objective(2)
    rows = [linear_row([1.0, 2.0], 7.0), linear_row([2.0, 1.0], 5.0)]
    return assemble("booth", 2, f, g, H, rows, x0=[0.0, 0.0])


def zangwil3():
    f, g, H = zero_objective(3)
    rows = [
        linear_row([1.0, -1.0, 1.0], 1.0),
        linear_row([2.0, 1.0, -3.0], -2.0),
        linear_row([1.0, 1.0, 1.0], 5.0),
    ]
    return assemble("zangwil3", 3, f, g, H, rows, x0=[1.0, 1.0, 1.0])


def himmelba():
    f, g, H = zero_objective(2)
    rows = [linear_row([1.0, 2.0], 10.0), linear_row([3.0, -1.0], 9.0)]
    return assemble("himmelba", 2, f, g, H, rows, x0=[0.0, 0.0])


def extrasim():
    rows = [linear_row([1.0, 2.0], 2.0)]
    return assemble(
        "extrasim",
        2,
        lambda x: float(x[0]),
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.zeros((2, 2)),
        rows,
        x0=[1.0, 1.0],
        lower=[0.0, -INF],
    )


def supersim():
    rows = [linear_row([1.0, 1.0], 1.0), linear_row([0.0, 1.0], 0.5)]
    return assemble(
        "supersim",
        2,
        lambda x: float(x[0]),
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.zeros((2, 2)),
        rows,
        x0=[0.0, 0.0],
    )


# --- bound-constrained QPs --------------------------------------------------

def hs003():
    def f(x):
        return float(x[1] + 1e-5 * (x[1] - x[0]) ** 2)

    def g(x):
        return np.array([-2e-5 * (x[1] - x[0]), 1.0 + 2e-5 * (x[1] - x[0])])

    H = np.array([[2e-5, -2e-5], [-2e-5, 2e-5]])
    return assemble("hs003", 2, f, g, lambda x: H, [], x0=[10.0, 1.0], lower=[-INF, 0.0])


def hs021():
    def f(x):
        return float(x[0] ** 2 / 100.0 + x[1] ** 2 - 100.0)

    def g(x):
        return np.array([x[0] / 50.0, 2.0 * x[1]])

    H = np.diag([0.02, 2.0])
    rows = [linear_row([10.0, -1.0], 10.0, lo=0.0, hi=INF)]
    return assemble(
        "hs021", 2, f, g, lambda x: H, rows,
        x0=[-1.0, -1.0], lower=[2.0, -50.0], upper=[50.0, 50.0],
    )


def hs035():
    def f(x):
        return float(
            9.0 - 8.0 * x[0] - 6.0 * x[1] - 4.0 * x[2]
            + 2.0 * x[0] ** 2 + 2.0 * x[1] ** 2 + x[2] ** 2
            + 2.0 * x[0] * x[1] + 2.0 * x[0] * x[2]
        )

    def g(x):
        return np.array(
            [
                -8.0 + 4.0 * x[0] + 2.0 * x[1] + 2.0 * x[2],
                -6.0 + 4.0 * x[1] + 2.0 * x[0],
                -4.0 + 2.0 * x[2] + 2.0 * x[0],
            ]
        )

    H = np.array([[4.0, 2.0, 2.0], [2.0, 4.0, 0.0], [2.0, 0.0, 2.0]])
    rows = [linear_row([-1.0, -1.0, -2.0], -3.0, lo=0.0, hi=INF)]
    return assemble(
        "hs035", 3, f, g, lambda x: H, rows, x0=[0.5, 0.5, 0.5], lower=[0.0, 0.0, 0.0]
    )


def boxqp1():
    def f(x):
        return float((x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2)

    def g(x):
        return np.array([2.0 * (x[0] - 1.0), 2.0 * (x[1] - 2.0)])

    return assemble(
        "boxqp1", 2, f, g, lambda x: 2.0 * np.eye(2), [],
        x0=[0.1, 0.1], lower=[0.0, 0.0], upper=[1.5, 1.5],
    )


def hs076():
    def f(x):
        return float(
            x[0] ** 2 + 0.5 * x[1] ** 2 + x[2] ** 2 + 0.5 * x[3] ** 2
            - x[0] * x[2] + x[2] * x[3]
            - x[0] - 3.0 * x[1] + x[2] - x[3]
        )

    def g(x):
        return np.array(
            [
                2.0 * x[0] - x[2] - 1.0,
                x[1] - 3.0,
                2.0 * x[2] - x[0] + x[3] + 1.0,
                x[3] + x[2] - 1.0,
            ]
        )

    H = np.array(
        [
            [2.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 2.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
        ]
    )
    rows = [
        linear_row([1.0, 2.0, 1.0, 1.0], 0.0, lo=-INF, hi=5.0),
        linear_row([3.0, 1.0, 2.0, -1.0], 0.0, lo=-INF, hi=4.0),
        linear_row([0.0, 1.0, 4.0, 0.0], 0.0, lo=1.5, hi=INF),
    ]
    return assemble(
        "hs076", 4, f, g, lambda x: H, rows, x0=[0.5, 0.5, 0.5, 0.5], lower=np.zeros(4)
    )


# --- equality-constrained QPs ----------------------------------------------

def bt3():
    def f(x):
        return float(
            (x[0] - x[1]) ** 2 + (x[1] + x[2] - 2.0) ** 2
            + (x[3] - 1.0) ** 2 + (x[4] - 1.0) ** 2
        )

    def g(x):
        return np.array(
            [
                2.0 * (x[0] - x[1]),
                -2.0 * (x[0] - x[1]) + 2.0 * (x[1] + x[2] - 2.0),
                2.0 * (x[1] + x[2] - 2.0),
                2.0 * (x[3] - 1.0),
                2.0 * (x[4] - 1.0),
            ]
        )

    H = np.array(
        [
            [2.0, -2.0, 0.0, 0.0, 0.0],
            [-2.0, 4.0, 2.0, 0.0, 0.0],
            [0.0, 2.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 2.0],
        ]
    )
    rows = [
        linear_row([1.0, 3.0, 0.0, 0.0, 0.0], 0.0),
        linear_row([0.0, 0.0, 1.0, 1.0, -2.0], 0.0),
        linear_row([0.0, 1.0, 0.0, 0.0, -1.0], 0.0),
    ]
    return assemble("bt3", 5, f, g, lambda x: H, rows, x0=[2.0, 2.0, 2.0, 2.0, 2.0])


def hs028():
    def f(x):
        return float((x[0] + x[1]) ** 2 + (x[1] + x[2]) ** 2)

    def g(x):
        return np.array(
            [
                2.0 * (x[0] + x[1]),
                2.0 * (x[0] + x[1]) + 2.0 * (x[1] + x[2]),
                2.0 * (x[1] + x[2]),
            ]
        )

    H = np.array([[2.0, 2.0, 0.0], [2.0, 4.0, 2.0], [0.0, 2.0, 2.0]])
    rows = [linear_row([1.0, 2.0, 3.0], 1.0)]
    return assemble("hs028", 3, f, g, lambda x: H, rows, x0=[-4.0, 1.0, 1.0])


def hs048():
    def f(x):
        return float((x[0] - 1.0) ** 2 + (x[1] - x[2]) ** 2 + (x[3] - x[4]) ** 2)

    def g(x):
        return np.array(
            [
                2.0 * (x[0] - 1.0),
                2.0 * (x[1] - x[2]),
                -2.0 * (x[1] - x[2]),
                2.0 * (x[3] - x[4]),
                -2.0 * (x[3] - x[4]),
            ]
        )

    H = np.zeros((5, 5))
    H[0, 0] = 2.0
    H[1:3, 1:3] = [[2.0, -2.0], [-2.0, 2.0]]
    H[3:5, 3:5] = [[2.0, -2.0], [-2.0, 2.0]]
    rows = [
        linear_row([1.0, 1.0, 1.0, 1.0, 1.0], 5.0),
        linear_row([0.0, 0.0, 1.0, -2.0, -2.0], -3.0),
    ]
    return assemble("hs048", 5, f, g, lambda x: H, rows, x0=[3.0, 5.0, -3.0, 2.0, -2.0])


def hs051():
    def f(x):
        return float(
            (x[0] - x[1]) ** 2 + (x[1] + x[2] - 2.0) ** 2
            + (x[3] - 1.0) ** 2 + (x[4] - 1.0) ** 2
        )

    def g(x):
        return np.array(
            [
                2.0 * (x[0] - x[1]),
                -2.0 * (x[0] - x[1]) + 2.0 * (x[1] + x[2] - 2.0),
                2.0 * (x[1] + x[2] - 2.0),
                2.0 * (x[3] - 1.0),
                2.0 * (x[4] - 1.0),
            ]
        )

    H = np.array(
        [
            [2.0, -2.0, 0.0, 0.0, 0.0],
            [-2.0, 4.0, 2.0, 0.0, 0.0],
            [0.0, 2.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 2.0],
        ]
    )
    rows = [
        linear_row([1.0, 3.0, 0.0, 0.0, 0.0], 4.0),
        linear_row([0.0, 0.0, 1.0, 1.0, -2.0], 0.0),
        linear_row([0.0, 1.0, 0.0, 0.0, -1.0], 0.0),
    ]
    return assemble("hs051", 5, f, g, lambda x: H, rows, x0=[2.5, 0.5, 2.0, -1.0, 0.5])


def genhs28():
    n, m = 10, 8

    def f(x):
        return float(np.sum((x[:-1] + x[1:]) ** 2))

    def g(x):
        grad = np.zeros(n)
        pair = 2.0 * (x[:-1] + x[1:])
        grad[:-1] += pair
        grad[1:] += pair
        return grad

    H = np.zeros((n, n))
    for i in range(n - 1):
        H[i, i] += 2.0
        H[i + 1, i + 1] += 2.0
        H[i, i + 1] += 2.0
        H[i + 1, i] += 2.0
    rows = []
    for j in range(m):
        a = np.zeros(n)
        a[j], a[j + 1], a[j + 2] = 1.0, 2.0, 3.0
        rows.append(linear_row(a, 1.0))
    return assemble("genhs28", n, f, g, lambda x: H, rows, x0=np.full(n, -4.0))


# --- general nonlinear problems ---------------------------------------------

def hs006():
    def f(x):
        return float((1.0 - x[0]) ** 2)

    def g(x):
        return np.array([-2.0 * (1.0 - x[0]), 0.0])

    Hf = np.array([[2.0, 0.0], [0.0, 0.0]])
    row = Row(
        value=lambda x: float(10.0 * (x[1] - x[0] ** 2)),
        gradient=lambda x: np.array([-20.0 * x[0], 10.0]),
        lo=0.0,
        hi=0.0,
        hessian=lambda x: np.array([[-20.0, 0.0], [0.0, 0.0]]),
    )
    return assemble("hs006", 2, f, g, lambda x: Hf, [row], x0=[-1.2, 1.0])


def hs007():
    def f(x):
        return float(np.log(1.0 + x[0] ** 2) - x[1])

    def g(x):
        return np.array([2.0 * x[0] / (1.0 + x[0] ** 2), -1.0])

    def Hf(x):
        t = 1.0 + x[0] ** 2
        return np.array([[2.0 * (1.0 - x[0] ** 2) / t**2, 0.0], [0.0, 0.0]])

    row = Row(
        value=lambda x: float((1.0 + x[0] ** 2) ** 2 + x[1] ** 2 - 4.0),
        gradient=lambda x: np.array([4.0 * x[0] * (1.0 + x[0] ** 2), 2.0 * x[1]]),
        lo=0.0,
        hi=0.0,
        hessian=lambda x: np.array([[4.0 + 12.0 * x[0] ** 2, 0.0], [0.0, 2.0]]),
    )
    return assemble("hs007", 2, f, g, Hf, [row], x0=[2.0, 2.0])


def hs014():
    def f(x):
        return float((x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2)

    def g(x):
        return np.array([2.0 * (x[0] - 2.0), 2.0 * (x[1] - 1.0)])

    Hf = 2.0 * np.eye(2)
    rows = [
        linear_row([1.0, -2.0], -1.0),
        Row(
            value=lambda x: float(-0.25 * x[0] ** 2 - x[1] ** 2 + 1.0),
            gradient=lambda x: np.array([-0.5 * x[0], -2.0 * x[1]]),
            lo=0.0,
            hi=INF,
            hessian=lambda x: np.array([[-0.5, 0.0], [0.0, -2.0]]),
        ),
    ]
    return assemble("hs014", 2, f, g, lambda x: Hf, rows, x0=[2.0, 2.0])


def hs022():
    def f(x):
        return float((x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2)

    def g(x):
        return np.array([2.0 * (x[0] - 2.0), 2.0 * (x[1] - 1.0)])

    rows = [
        linear_row([-1.0, -1.0], -2.0, lo=0.0, hi=INF),
        Row(
            value=lambda x: float(-x[0] ** 2 + x[1]),
            gradient=lambda x: np.array([-2.0 * x[0], 1.0]),
            lo=0.0,
            hi=INF,
            hessian=lambda x: np.array([[-2.0, 0.0], [0.0, 0.0]]),
        ),
    ]
    return assemble("hs022", 2, f, g, lambda x: 2.0 * np.eye(2), rows, x0=[2.0, 2.0])


def hs039():
    def f(x):
        return float(-x[0])

    def g(x):
        return np.array([-1.0, 0.0, 0.0, 0.0])

    Hf = np.zeros((4, 4))
    rows = [
        Row(
            value=lambda x: float(x[1] - x[0] ** 3 - x[2] ** 2),
            gradient=lambda x: np.array([-3.0 * x[0] ** 2, 1.0, -2.0 * x[2], 0.0]),
            lo=0.0,
            hi=0.0,
            hessian=lambda x: np.diag([-6.0 * x[0], 0.0, -2.0, 0.0]),
        ),
        Row(
            value=lambda x: float(x[0] ** 2 - x[1] - x[3] ** 2),
            gradient=lambda x: np.array([2.0 * x[0], -1.0, 0.0, -2.0 * x[3]]),
            lo=0.0,
            hi=0.0,
            hessian=lambda x: np.diag([2.0, 0.0, 0.0, -2.0]),
        ),
    ]
    return assemble("hs039", 4, f, g, lambda x: Hf, rows, x0=[2.0, 2.0, 2.0, 2.0])


def hs040():
    def f(x):
        return float(-x[0] * x[1] * x[2] * x[3])

    def g(x):
        return -np.array(
            [
                x[1] * x[2] * x[3],
                x[0] * x[2] * x[3],
                x[0] * x[1] * x[3],
                x[0] * x[1] * x[2],
            ]
        )

    def Hf(x):
        H = np.zeros((4, 4))
        idx = [(0, 1, x[2] * x[3]), (0, 2, x[1] * x[3]), (0, 3, x[1] * x[2]),
               (1, 2, x[0] * x[3]), (1, 3, x[0] * x[2]), (2, 3, x[0] * x[1])]
        for i, j, v in idx:
            H[i, j] = H[j, i] = -v
        return H

    rows = [
        Row(
            value=lambda x: float(x[0] ** 3 + x[1] ** 2 - 1.0),
            gradient=lambda x: np.array([3.0 * x[0] ** 2, 2.0 * x[1], 0.0, 0.0]),
            lo=0.0,
            hi=0.0,
            hessian=lambda x: np.diag([6.0 * x[0], 2.0, 0.0, 0.0]),
        ),
        Row(
            value=lambda x: float(x[0] ** 2 * x[3] - x[2]),
            gradient=lambda x: np.array([2.0 * x[0] * x[3], 0.0, -1.0, x[0] ** 2]),
            lo=0.0,
            hi=0.0,
            hessian=lambda x: np.array(
                [
                    [2.0 * x[3], 0.0, 0.0, 2.0 * x[0]],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [2.0 * x[0], 0.0, 0.0, 0.0],
                ]
            ),
        ),
        Row(
            value=lambda x: float(x[3] ** 2 - x[1]),
            gradient=lambda x: np.array([0.0, -1.0, 0.0, 2.0 * x[3]]),
            lo=0.0,
            hi=0.0,
            hessian=lambda x: np.diag([0.0, 0.0, 0.0, 2.0]),
        ),
    ]
    return assemble("hs040", 4, f, g, Hf, rows, x0=[0.8, 0.8, 0.8, 0.8])


def hs060():
    target = 4.0 + 3.0 * np.sqrt(2.0)

    def f(x):
        return float((x[0] - 1.0) ** 2 + (x[0] - x[1]) ** 2 + (x[1] - x[2]) ** 4)

    def g(x):
        return np.array(
            [
                2.0 * (x[0] - 1.0) + 2.0 * (x[0] - x[1]),
                -2.0 * (x[0] - x[1]) + 4.0 * (x[1] - x[2]) ** 3,
                -4.0 * (x[1] - x[2]) ** 3,
            ]
        )

    def Hf(x):
        q = 12.0 * (x[1] - x[2]) ** 2
        return np.array([[4.0, -2.0, 0.0], [-2.0, 2.0 + q, -q], [0.0, -q, q]])

    row = Row(
        value=lambda x: float(x[0] * (1.0 + x[1] ** 2) + x[2] ** 4 - target),
        gradient=lambda x: np.array(
            [1.0 + x[1] ** 2, 2.0 * x[0] * x[1], 4.0 * x[2] ** 3]
        ),
        lo=0.0,
        hi=0.0,
        hessian=lambda x: np.array(
            [
                [0.0, 2.0 * x[1], 0.0],
                [2.0 * x[1], 2.0 * x[0], 0.0],
                [0.0, 0.0, 12.0 * x[2] ** 2],
            ]
        ),
    )
    return assemble(
        "hs060", 3, f, g, Hf, [row],
        x0=[2.0, 2.0, 2.0], lower=np.full(3, -10.0), upper=np.full(3, 10.0),
    )


def hs063():
    def f(x):
        return float(
            1000.0 - x[0] ** 2 - 2.0 * x[1] ** 2 - x[2] ** 2 - x[0] * x[1] - x[0] * x[2]
        )

    def g(x):
        return np.array(
            [
                -2.0 * x[0] - x[1] - x[2],
                -4.0 * x[1] - x[0],
                -2.0 * x[2] - x[0],
            ]
        )

    Hf = np.array([[-2.0, -1.0, -1.0], [-1.0, -4.0, 0.0], [-1.0, 0.0, -2.0]])
    rows = [
        linear_row([8.0, 14.0, 7.0], 56.0),
        Row(
            value=lambda x: float(x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - 25.0),
            gradient=lambda x: 2.0 * x.copy(),
            lo=0.0,
            hi=0.0,
            hessian=lambda x: 2.0 * np.eye(3),
        ),
    ]
    return assemble(
        "hs063", 3, f, g, lambda x: Hf, rows, x0=[2.0, 2.0, 2.0], lower=np.zeros(3)
    )


def hs071():
    def f(x):
        return float(x[0] * x[3] * (x[0] + x[1] + x[2]) + x[2])

    def g(x):
        s = x[0] + x[1] + x[2]
        return np.array(
            [x[3] * s + x[0] * x[3], x[0] * x[3], x[0] * x[3] + 1.0, x[0] * s]
        )

    def Hf(x):
        s = x[0] + x[1] + x[2]
        H = np.zeros((4, 4))
        H[0, 0] = 2.0 * x[3]
        H[0, 1] = H[1, 0] = x[3]
        H[0, 2] = H[2, 0] = x[3]
        H[0, 3] = H[3, 0] = 2.0 * x[0] + x[1] + x[2]
        H[1, 3] = H[3, 1] = x[0]
        H[2, 3] = H[3, 2] = x[0]
        return H

    rows = [
        Row(
            value=lambda x: float(x[0] * x[1] * x[2] * x[3]),
            gradient=lambda x: np.array(
                [
                    x[1] * x[2] * x[3],
                    x[0] * x[2] * x[3],
                    x[0] * x[1] * x[3],
                    x[0] * x[1] * x[2],
                ]
            ),
            lo=25.0,
            hi=INF,
            hessian=lambda x: np.array(
                [
                    [0.0, x[2] * x[3], x[1] * x[3], x[1] * x[2]],
                    [x[2] * x[3], 0.0, x[0] * x[3], x[0] * x[2]],
                    [x[1] * x[3], x[0] * x[3], 0.0, x[0] * x[1]],
                    [x[1] * x[2], x[0] * x[2], x[0] * x[1], 0.0],
                ]
            ),
        ),
        Row(
            value=lambda x: float(np.sum(x**2)),
            gradient=lambda x: 2.0 * x.copy(),
            lo=40.0,
            hi=40.0,
            hessian=lambda x: 2.0 * np.eye(4),
        ),
    ]
    return assemble(
        "hs071", 4, f, g, Hf, rows,
        x0=[1.0, 5.0, 5.0, 1.0], lower=np.ones(4), upper=np.full(4, 5.0),
    )


def rosenbrock_ring():
    def f(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    def g(x):
        return np.array(
            [
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )

    def Hf(x):
        return np.array(
            [
                [-400.0 * (x[1] - 3.0 * x[0] ** 2) + 2.0, -400.0 * x[0]],
                [-400.0 * x[0], 200.0],
            ]
        )

    row = Row(
        value=lambda x: float(x[0] ** 2 + x[1] ** 2 - 2.0),
        gradient=lambda x: 2.0 * x.copy(),
        lo=0.0,
        hi=0.0,
        hessian=lambda x: 2.0 * np.eye(2),
    )
    return assemble("rosenbrock_ring", 2, f, g, Hf, [row], x0=[-1.2, 1.0])


def maratos():
    def f(x):
        return float(2.0 * (x[0] ** 2 + x[1] ** 2 - 1.0) - x[0])

    def g(x):
        return np.array([4.0 * x[0] - 1.0, 4.0 * x[1]])

    row = Row(
        value=lambda x: float(x[0] ** 2 + x[1] ** 2 - 1.0),
        gradient=lambda x: 2.0 * x.copy(),
        lo=0.0,
        hi=0.0,
        hessian=lambda x: 2.0 * np.eye(2),
    )
    return assemble(
        "maratos", 2, f, g, lambda x: 4.0 * np.eye(2), [row], x0=[0.8, 0.6]
    )


# --- deliberately infeasible instances --------------------------------------

def infeasible1():
    """c = (x^2, x^2 + 1) cannot both vanish; the l1-infeasibility minimum is
    1 at x = 0."""
    f, g, H = zero_objective(1)
    rows = [
        Row(
            value=lambda x: float(x[0] ** 2),
            gradient=lambda x: np.array([2.0 * x[0]]),
            lo=0.0,
            hi=0.0,
            hessian=lambda x: np.array([[2.0]]),
        ),
        Row(
            value=lambda x: float(x[0] ** 2 + 1.0),
            gradient=lambda x: np.array([2.0 * x[0]]),
            lo=0.0,
            hi=0.0,
            hessian=lambda x: np.array([[2.0]]),
        ),
    ]
    return assemble("infeasible1", 1, f, g, H, rows, x0=[1.0])


def infeasible2():
    """Unit circle and the line x1 + x2 = 3 do not intersect; the
    l1-infeasibility minimum 3 - sqrt(2) is attained on the circle."""

    def f(x):
        return float(x[0] + x[1])

    def g(x):
        return np.array([1.0, 1.0])

    rows = [
        Row(
            value=lambda x: float(x[0] ** 2 + x[1] ** 2 - 1.0),
            gradient=lambda x: 2.0 * x.copy(),
            lo=0.0,
            hi=0.0,
            hessian=lambda x: 2.0 * np.eye(2),
        ),
        linear_row([1.0, 1.0], 3.0),
    ]
    return assemble("infeasible2", 2, f, g, lambda x: np.zeros((2, 2)), rows, x0=[1.0, 0.0])


_REGISTRY: dict[str, Callable[[], Model]] = {
    factory.__name__: factory
    for factory in (
        booth, zangwil3, himmelba, extrasim, supersim,
        hs003, hs021, hs035, boxqp1, hs076,
        bt3, hs028, hs048, hs051, genhs28,
        hs006, hs007, hs014, hs022, hs039, hs040, hs060, hs063, hs071,
        rosenbrock_ring, maratos,
        infeasible1, infeasible2,
    )
}

# problem -> admissible locally optimal objective values: classical published
# optima, and for the equality-constrained QPs bt3 and genhs28 the optimum of
# their KKT system (reproduced by tests/test_corpus_optima.py)
KNOWN_OPTIMA = {
    "booth": (0.0,), "zangwil3": (0.0,), "himmelba": (0.0,), "extrasim": (0.0,),
    "supersim": (0.5,), "hs003": (0.0,), "hs021": (-99.96,), "hs035": (1.0 / 9.0,),
    "boxqp1": (0.25,), "hs076": (-4.681818181818181,), "bt3": (4.093023255813952,),
    "hs028": (0.0,), "hs048": (0.0,), "hs051": (0.0,), "genhs28": (0.927173693766391,),
    "hs006": (0.0,), "hs007": (-np.sqrt(3.0),), "hs014": (9.0 - 2.875 * np.sqrt(7.0),),
    "hs022": (1.0,), "hs039": (-1.0,), "hs040": (-0.25,), "hs060": (0.03256820025,),
    "hs063": (961.7151721,), "hs071": (17.0140173,), "maratos": (-1.0,),
    # the constrained Rosenbrock ring has a global minimum 0 at (1, 1) and a
    # local one near the start on the opposite branch; both are legitimate
    # outcomes of a local solver
    "rosenbrock_ring": (0.0, 3.9955472578),
}

# analytic minima of the l1 infeasibility eta(x) = sum_j |c_j(x) - l_j| of the
# infeasible instances, whose rows are all equalities
ETA_MINIMA = {"infeasible1": 1.0, "infeasible2": 3.0 - np.sqrt(2.0)}

INFEASIBLE_PROBLEMS = tuple(ETA_MINIMA)


def is_right(name: str, result) -> bool:
    """Whether a solve of corpus problem name gives a right answer. A
    feasible problem needs a success status and an objective within 2e-5
    relative of a known optimum (2e-4 at LooseToleranceKKT); an infeasible
    one needs InfeasibleStationary at a point whose unscaled l1
    infeasibility eta lies within 1e-3 of its minimum."""
    if name in ETA_MINIMA:
        if result.status != INFEASIBLE_STATIONARY:
            return False
        model = corpus_get(name)
        c = evaluate(model, result.x, with_derivatives=False).c
        shift = np.where(model.constraint_lower == model.constraint_upper,
                         model.constraint_lower, 0.0)
        return bool(abs(float(np.sum(np.abs(c - shift))) - ETA_MINIMA[name]) <= 1e-3)
    if result.status not in SUCCESS_STATUSES:
        return False
    tolerance = 2e-4 if result.status == LOOSE_KKT else 2e-5
    return bool(min(abs(result.objective_value - f) / (1 + abs(f))
                    for f in KNOWN_OPTIMA[name]) <= tolerance)


def corpus_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def corpus_get(name: str) -> Model:
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise UnknownProblemError(
            "unknown problem %r; known problems: %s" % (name, ", ".join(corpus_names()))
        ) from None
    return factory()
