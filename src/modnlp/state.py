"""Solver-local state shared between the four ingredients."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Evaluations, Model, evaluate


@dataclass
class Iterate:
    """Primal-dual point with cached evaluations.

    zl and zu are the nonnegative multipliers of the lower/upper variable
    bounds; z = zl - zu is the signed bound multiplier of the Fritz John
    system. The objective multiplier rho is the relaxation's, not the
    point's. The driver fills the derivatives (Workspace.ensure_derivatives)
    before the parts see the iterate.
    """

    x: np.ndarray
    y: np.ndarray
    zl: np.ndarray
    zu: np.ndarray
    evals: Evaluations

    @property
    def z(self) -> np.ndarray:
        return self.zl - self.zu


class Workspace:
    """Holds the working (equality-form, scaled, instrumented) model and
    solver-wide counters."""

    def __init__(self, model: Model):
        self.model = model
        self.lower = model.variable_lower
        self.upper = model.variable_upper
        self.subproblem_solves = 0

    def eval_fc(self, x: np.ndarray) -> Evaluations:
        """Objective and constraints only (trial evaluation)."""
        return evaluate(self.model, x, with_derivatives=False)

    def ensure_derivatives(self, iterate: Iterate) -> None:
        """Fill gradient and Jacobian caches in place if missing."""
        if iterate.evals.grad_f is None or iterate.evals.jac_c is None:
            ev = evaluate(self.model, iterate.x)
            iterate.evals = Evaluations(
                f=iterate.evals.f, c=iterate.evals.c, grad_f=ev.grad_f, jac_c=ev.jac_c
            )
