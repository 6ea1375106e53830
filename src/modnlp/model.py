"""Evaluable NLP models: the model interface, the evaluation record of a
point, derivative checking, and evaluation-counting instrumentation.

Models carry general row bounds l <= c(x) <= u; the solver itself operates on
equality form (every row reduced to c(x) = 0), produced by the reformulation
module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NonFiniteEvaluationError


@dataclass(frozen=True)
class Model:
    """An evaluable NLP: min f(x) s.t. l_c <= c(x) <= u_c, l_x <= x <= u_x.

    After reformulation all constraint rows are equalities (l_c = u_c = 0).
    eval_lagrangian_hessian(x, rho, y) returns
    W_rho(x, y) = rho * H_f(x) - sum_j y_j * H_cj(x), exactly symmetric.
    """

    name: str
    n: int
    m: int
    variable_lower: np.ndarray
    variable_upper: np.ndarray
    constraint_lower: np.ndarray
    constraint_upper: np.ndarray
    eval_objective: Callable[[np.ndarray], float]
    eval_constraints: Callable[[np.ndarray], np.ndarray]
    eval_objective_gradient: Callable[[np.ndarray], np.ndarray]
    eval_constraint_jacobian: Callable[[np.ndarray], np.ndarray]
    eval_lagrangian_hessian: Callable[[np.ndarray, float, np.ndarray], np.ndarray]
    initial_point: np.ndarray
    linear_rows: tuple[int, ...] = ()

    @property
    def is_equality_form(self) -> bool:
        return bool(
            np.all(self.constraint_lower == 0.0) and np.all(self.constraint_upper == 0.0)
        )


@dataclass(frozen=True)
class Evaluations:
    """Function values at one point as the subproblem kernels read them,
    with the Hessian they are built from; is_finite is false iff any stored
    entry is NaN or infinite."""

    f: float
    c: np.ndarray
    grad_f: np.ndarray | None = None
    jac_c: np.ndarray | None = None
    hessian: np.ndarray | None = None

    @property
    def is_finite(self) -> bool:
        if self.f is not None and not math.isfinite(self.f):
            return False
        for part in (self.c, self.grad_f, self.jac_c, self.hessian):
            if part is not None and not np.isfinite(part).all():
                return False
        return True


class EvaluationRecord:
    """Everything evaluated at one point x of one model, each at most once.

    f, c, the gradient and the Jacobian are evaluated on first need, and
    W_rho(x, y) once per exact (rho, y): the key is the bytes of both, so a
    multiplier vector that changes (restoration resets y) evaluates afresh,
    and no W is derived from another by linearity in rho, which would move
    roundoff. Consumers must not write into the arrays it hands out.
    Non-finite values are kept, not raised; is_finite reports them.
    """

    def __init__(self, model: Model, x: np.ndarray, f=None, c=None, grad_f=None, jac_c=None):
        self.model = model
        self.x = np.asarray(x, dtype=float)
        self._f, self._c, self._grad_f, self._jac_c = f, c, grad_f, jac_c
        self._hessians: dict[tuple[bytes, bytes], np.ndarray] = {}

    def at(self, x: np.ndarray) -> "EvaluationRecord":
        """This record if x equals its point byte for byte, else a new one."""
        x = np.asarray(x, dtype=float)
        if x.shape == self.x.shape and x.tobytes() == self.x.tobytes():
            return self
        return EvaluationRecord(self.model, x)

    def scaled(self, model: Model, s_f: float, s_c: np.ndarray) -> "EvaluationRecord":
        """The record of this point under model, whose callbacks scale f and
        its gradient by s_f and c and the rows of its Jacobian by s_c: what
        this record holds, times the factors, with the products the scaled
        callbacks compute (reformulation.scale_functions), so the values
        are bit for bit those of a fresh evaluation."""

        def times(value, factor):
            return None if value is None else factor * value

        return EvaluationRecord(
            model, self.x, times(self._f, s_f), times(self._c, s_c),
            times(self._grad_f, s_f), times(self._jac_c, s_c[:, None]),
        )

    def _evaluate(self, callback, *shape, args=()):
        """callback at x (then args), as a float or an array of the shape."""
        with np.errstate(all="ignore"):
            value = callback(self.x, *args)
            return np.asarray(value, dtype=float).reshape(shape) if shape else float(value)

    @property
    def f(self) -> float:
        if self._f is None:
            self._f = self._evaluate(self.model.eval_objective)
        return self._f

    @property
    def c(self) -> np.ndarray:
        if self._c is None:
            self._c = self._evaluate(self.model.eval_constraints, self.model.m)
        return self._c

    @property
    def grad_f(self) -> np.ndarray:
        if self._grad_f is None:
            self._grad_f = self._evaluate(self.model.eval_objective_gradient, self.model.n)
        return self._grad_f

    @property
    def jac_c(self) -> np.ndarray:
        if self._jac_c is None:
            self._jac_c = self._evaluate(
                self.model.eval_constraint_jacobian, self.model.m, self.model.n
            )
        return self._jac_c

    def lagrangian_hessian(self, rho: float, y: np.ndarray) -> np.ndarray:
        """W_rho(x, y), evaluated once per exact (rho, y)."""
        rho, y = float(rho), np.asarray(y, dtype=float)
        key = (np.float64(rho).tobytes(), np.ascontiguousarray(y).tobytes())
        if key not in self._hessians:
            n = self.model.n
            self._hessians[key] = self._evaluate(
                self.model.eval_lagrangian_hessian, n, n, args=(rho, y)
            )
        return self._hessians[key]

    def with_hessian(self, rho: float, y: np.ndarray) -> Evaluations:
        """The values at x with W_rho(x, y), as the subproblem kernels read them."""
        return Evaluations(self.f, self.c, self.grad_f, self.jac_c,
                           self.lagrangian_hessian(rho, y))

    @property
    def is_finite(self) -> bool:
        """Whether f and c are finite (the test of a trial point)."""
        return math.isfinite(self.f) and bool(np.isfinite(self.c).all())


def evaluate(
    model: Model,
    x: np.ndarray,
    rho: float = 1.0,
    y: np.ndarray | None = None,
    with_hessian: bool = False,
    with_derivatives: bool = True,
) -> Evaluations:
    """Evaluate the model at x once, through a fresh EvaluationRecord (the
    derivative checker's centre, and tools reading a result). Non-finite
    values are reported through Evaluations.is_finite rather than raised."""
    record = EvaluationRecord(model, x)
    f, c = record.f, record.c
    grad = jac = hess = None
    if with_derivatives:
        grad, jac = record.grad_f, record.jac_c
    if with_hessian:
        hess = record.lagrangian_hessian(rho, np.zeros(model.m) if y is None else y)
    return Evaluations(f, c, grad, jac, hess)


@dataclass(frozen=True)
class DerivativeReport:
    gradient_error: float
    jacobian_error: float
    hessian_error: float
    threshold: float

    @property
    def ok(self) -> bool:
        return (
            self.gradient_error <= self.threshold
            and self.jacobian_error <= self.threshold
            and self.hessian_error <= self.threshold
        )


def check_derivatives(model: Model, x: np.ndarray, h: float = 1e-6) -> DerivativeReport:
    """Compare hand-coded derivatives against central differences.

    Steps are h * (1 + |x_i|) per coordinate. The centre calls the five
    callbacks once; each of the 2n probes calls f, c, the gradient and the
    Jacobian once and keeps one row: f, c and the Lagrangian gradient
    rho * grad f - J^T y. Raises NonFiniteEvaluationError once both probes
    of a coordinate are evaluated and f, c, the gradient or the Jacobian of
    either is non-finite.
    """
    x = np.asarray(x, dtype=float)
    n, m = model.n, model.m
    rho = 1.0
    y = np.array([(-1.0) ** j / (1.0 + j) for j in range(m)])

    base = evaluate(model, x, rho, y, with_hessian=True)
    if not base.is_finite:
        raise NonFiniteEvaluationError("non-finite evaluation at the probe center")

    steps = h * (1.0 + np.abs(x))
    # rows[0] at x + steps[i] e_i, rows[1] at x - steps[i] e_i; row i of
    # differences: the central differences of the rows along e_i
    rows = np.empty((2, 1 + m + n))
    differences = np.empty((n, 1 + m + n))
    with np.errstate(all="ignore"):
        for i in range(n):
            derivatives = []
            for row, point in zip(rows, (x[i] + steps[i], x[i] - steps[i])):
                probe = x.copy()
                probe[i] = point
                row[0] = float(model.eval_objective(probe))
                row[1:m + 1] = np.asarray(model.eval_constraints(probe), dtype=float).reshape(m)
                grad = np.asarray(model.eval_objective_gradient(probe), dtype=float).reshape(n)
                jac = np.asarray(model.eval_constraint_jacobian(probe), dtype=float).reshape(m, n)
                np.subtract(rho * grad, jac.T @ y, out=row[m + 1:])
                derivatives += (grad, jac)
            # each y_j is finite and nonzero, so a non-finite gradient or
            # Jacobian entry makes the rows, and their sum, non-finite; the
            # parts are scanned only then, since a sum or a Lagrangian
            # gradient of finite values may overflow
            if not math.isfinite(rows.sum()) and not all(
                np.isfinite(part).all() for part in (rows[:, :m + 1], *derivatives)
            ):
                raise NonFiniteEvaluationError("non-finite evaluation at a probe point")
            differences[i] = (rows[0] - rows[1]) / (2.0 * steps[i])

    def rel_err(approx, exact):
        if exact.size == 0:
            return 0.0
        scale = 1.0 + float(np.max(np.abs(exact)))
        return float(np.max(np.abs(approx - exact))) / scale

    return DerivativeReport(
        gradient_error=rel_err(differences[:, 0], base.grad_f),
        jacobian_error=rel_err(differences[:, 1:m + 1], base.jac_c.T),
        hessian_error=rel_err(differences[:, m + 1:], base.hessian.T),
        threshold=1e-5,
    )


@dataclass
class EvaluationCounts:
    objective: int = 0
    constraints: int = 0
    objective_gradient: int = 0
    constraint_jacobian: int = 0
    hessian: int = 0


# the Model callback behind each field of EvaluationCounts
_COUNTED_CALLBACKS = {
    "eval_objective": "objective",
    "eval_constraints": "constraints",
    "eval_objective_gradient": "objective_gradient",
    "eval_constraint_jacobian": "constraint_jacobian",
    "eval_lagrangian_hessian": "hessian",
}


def instrument(model: Model) -> tuple[Model, EvaluationCounts]:
    """Wrap a model so every callback invocation is counted.

    The objective counter is the comparison metric across solver
    configurations. The solver evaluates each point through one
    EvaluationRecord, so a count is the number of distinct points (and, for
    the Hessian, of distinct (x, rho, y)) at which that quantity was needed:
    no callback repeats its arguments within a solve. The objective is
    first needed where iteration 0 starts, so a start that preprocessing or
    the interior push moves costs no objective call at x0.
    """
    counts = EvaluationCounts()

    def counted(field, callback):
        def call(*args):
            setattr(counts, field, getattr(counts, field) + 1)
            return callback(*args)

        return call

    wrapped = replace(model, **{
        attr: counted(field, getattr(model, attr)) for attr, field in _COUNTED_CALLBACKS.items()
    })
    return wrapped, counts
