"""Solver-local state shared between the four ingredients."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EvaluationRecord, Model


@dataclass
class Iterate:
    """Primal-dual point with the evaluation record of x.

    zl and zu are the nonnegative multipliers of the lower/upper variable
    bounds; z = zl - zu is the signed bound multiplier of the Fritz John
    system. The objective multiplier rho is the relaxation's, not the
    point's. evals is the one record of x: every part reads f, c and the
    derivatives from it, each evaluated on first need, and W_rho from it
    once per (rho, y); a trial at the same x shares it.
    """

    x: np.ndarray
    y: np.ndarray
    zl: np.ndarray
    zu: np.ndarray
    evals: EvaluationRecord

    @property
    def z(self) -> np.ndarray:
        return self.zl - self.zu


class Workspace:
    """Holds the working (equality-form, scaled, instrumented) model, the
    masks of its finite variable bounds and solver-wide counters."""

    def __init__(self, model: Model):
        self.model = model
        self.lower = model.variable_lower
        self.upper = model.variable_upper
        self.lower_finite = np.isfinite(self.lower)
        self.upper_finite = np.isfinite(self.upper)
        self.subproblem_solves = 0
