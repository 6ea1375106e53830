"""Automatic model transformations: slack reformulation to equality form and
gradient-based function scaling.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, InconsistentBoundsError, NonFiniteEvaluationError
from .model import EvaluationRecord, Model


def to_equality_form(start: EvaluationRecord) -> EvaluationRecord:
    """Turn every general row l <= c(x) <= u into an equality; start is the
    record of x0, the initial point of the model to reformulate.

    Equality rows pass through shifted to c(x) - b = 0; inequality rows get a
    slack with the row bounds and become c(x) - s = 0. Slacks are appended
    after the original variables and start at c(x0) clipped into the row
    bounds. Returns the record of the working model's initial point, whose
    c is formed from start's c(x0) by the operations of the working
    constraints, so it holds the bytes of a fresh evaluation and c(x0) is
    evaluated once; start itself where the model is already in equality
    form. Inverted or NaN variable or row bounds raise
    InconsistentBoundsError before any callback runs.
    """
    model = start.model
    lo, hi = model.constraint_lower, model.constraint_upper
    for kind, lower, upper in (("variable", model.variable_lower, model.variable_upper),
                               ("constraint", lo, hi)):
        bad = ~(lower <= upper)  # NaN compares false
        if bad.any():
            j = int(np.argmax(bad))
            relation = ">" if lower[j] > upper[j] else "unordered with"
            raise InconsistentBoundsError("%s %d has lower bound %g %s upper bound %g"
                                          % (kind, j, lower[j], relation, upper[j]))
    if model.is_equality_form:
        return start

    n, m = model.n, model.m
    slack_rows = [j for j in range(m) if lo[j] < hi[j]]
    shift = np.where(lo == hi, lo, 0.0)
    n_slack = len(slack_rows)
    slack_of_row = {j: k for k, j in enumerate(slack_rows)}

    E = np.zeros((m, n_slack))
    for j, k in slack_of_row.items():
        E[j, k] = 1.0

    base_c = model.eval_constraints
    base_jac = model.eval_constraint_jacobian
    base_grad = model.eval_objective_gradient
    base_f = model.eval_objective
    base_hess = model.eval_lagrangian_hessian

    def shifted(c, s):
        return c - shift - E @ s

    def constraints(w):
        return shifted(base_c(w[:n]), w[n:])

    def jacobian(w):
        return np.hstack([base_jac(w[:n]), -E])

    def objective(w):
        return base_f(w[:n])

    def gradient(w):
        return np.concatenate([base_grad(w[:n]), np.zeros(n_slack)])

    def hessian(w, rho, y):
        W = np.zeros((n + n_slack, n + n_slack))
        W[:n, :n] = base_hess(w[:n], rho, y)
        return W

    c0 = start.c
    s0 = np.clip(np.nan_to_num(c0[slack_rows], nan=0.0, posinf=0.0, neginf=0.0),
                 lo[slack_rows], hi[slack_rows])

    working = Model(
        name=model.name,
        n=n + n_slack,
        m=m,
        variable_lower=np.concatenate([model.variable_lower, lo[slack_rows]]),
        variable_upper=np.concatenate([model.variable_upper, hi[slack_rows]]),
        constraint_lower=np.zeros(m),
        constraint_upper=np.zeros(m),
        eval_objective=objective,
        eval_constraints=constraints,
        eval_objective_gradient=gradient,
        eval_constraint_jacobian=jacobian,
        eval_lagrangian_hessian=hessian,
        initial_point=np.concatenate([start.x, s0]),
        linear_rows=model.linear_rows,
    )
    with np.errstate(all="ignore"):  # as the record evaluates constraints
        c = shifted(c0, s0)
    return EvaluationRecord(working, working.initial_point, c=c)


@dataclass(frozen=True)
class ScalingFactors:
    s_f: float
    s_c: np.ndarray


def scale_functions(start: EvaluationRecord, s_max: float):
    """Scale f and each c_j by min(1, s_max / ||gradient at x0||_inf), or
    by 1 where that gradient is zero; start is the record of x0 under the
    model to scale.

    Applied once at the initial point and never rescaled. Returns the scaled
    model, the factors and the record of x0 under the scaled model, which
    holds start's values scaled (EvaluationRecord.scaled), bit for bit those
    of a fresh evaluation; where every factor is 1 (always at s_max = inf),
    the model and start themselves. Raises ConfigurationError where s_max is
    so small that a factor underflows to zero.
    """
    model = start.model
    grad0, jac0 = start.grad_f, start.jac_c
    if not (np.all(np.isfinite(grad0)) and np.all(np.isfinite(jac0))):
        raise NonFiniteEvaluationError("cannot scale: non-finite derivatives at x0")

    norms = np.concatenate([[np.max(np.abs(grad0), initial=0.0)],
                            np.abs(jac0).max(axis=1, initial=0.0)])
    scale = np.ones(norms.size)
    nonzero = norms != 0.0
    scale[nonzero] = np.minimum(1.0, s_max / norms[nonzero])
    if not scale.all():
        # s_max / norm underflowed: the scaled function would be zero
        raise ConfigurationError("s_max = %r scales a function to zero at x0" % s_max)
    s_f, s_c = float(scale[0]), scale[1:]
    factors = ScalingFactors(s_f=s_f, s_c=s_c)
    if (scale == 1.0).all():
        return model, factors, start

    base_f = model.eval_objective
    base_grad = model.eval_objective_gradient
    base_c = model.eval_constraints
    base_jac = model.eval_constraint_jacobian
    base_hess = model.eval_lagrangian_hessian

    scaled = replace(
        model,
        constraint_lower=model.constraint_lower * s_c,
        constraint_upper=model.constraint_upper * s_c,
        eval_objective=lambda x: s_f * base_f(x),
        eval_objective_gradient=lambda x: s_f * np.asarray(base_grad(x)),
        eval_constraints=lambda x: s_c * np.asarray(base_c(x)),
        eval_constraint_jacobian=lambda x: s_c[:, None] * np.asarray(base_jac(x)),
        eval_lagrangian_hessian=lambda x, rho, y: base_hess(x, rho * s_f, s_c * np.asarray(y)),
    )
    return scaled, factors, start.scaled(scaled, s_f, s_c)
