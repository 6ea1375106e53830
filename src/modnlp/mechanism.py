"""Globalization mechanisms: backtracking line search and the trust-region
method. Both drive the constraint relaxation strategy until it accepts a
trial iterate, and both treat non-finite trial evaluations as rejections.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    InnerIterationLimitError,
    NonFiniteEvaluationError,
    RegularizationFailedError,
    SingularMatrixError,
    StepTooSmallError,
    TinyRadiusError,
)
from .state import Iterate
from .subproblem import Direction

_RECOVERABLE = (NonFiniteEvaluationError, RegularizationFailedError, SingularMatrixError)
_MACHINE_EPS = float(np.finfo(float).eps)


def assemble_trial(iterate: Iterate, direction: Direction, alpha: float) -> Iterate:
    """Trial point: primal and constraint multipliers step by alpha, bound
    multipliers step by the direction's dual scale (full step for SQP,
    fraction-to-boundary for IPM). A trial whose x equals the iterate's byte
    for byte (a zero step) shares the iterate's evaluation record."""
    x = iterate.x + alpha * direction.dx
    y = iterate.y + alpha * direction.dy
    zl = np.maximum(iterate.zl + direction.dual_scale * direction.dzl, 0.0)
    zu = np.maximum(iterate.zu + direction.dual_scale * direction.dzu, 0.0)
    return Iterate(x=x, y=y, zl=zl, zu=zu, evals=iterate.evals.at(x))


class BacktrackingLineSearch:
    """Line-search mechanism over the relaxation strategy, with recovery
    through feasibility restoration when the step collapses or the step
    computation breaks down numerically. Reads backtrack_factor, alpha_min
    and max_inner from the options."""

    def __init__(self, relaxation, opts):
        self.relaxation = relaxation
        self.opts = opts
        self.last_step_length = 1.0

    def log_fields(self) -> dict:
        return {"step_length": self.last_step_length}

    def _backtrack(self, iterate: Iterate, direction: Direction) -> Iterate:
        """Trials at alpha = c^l * alpha_max until the relaxation accepts
        one, by the one acceptance test it gives for the direction; signals
        StepTooSmall below alpha_min so the caller can enter restoration or
        declare failure."""
        opts = self.opts
        alpha = direction.alpha_max
        accepts = self.relaxation.acceptance_test(iterate, direction)
        for _ in range(opts.max_inner):
            trial = assemble_trial(iterate, direction, alpha)
            if trial.evals.is_finite and accepts(trial, alpha):
                self.last_step_length = alpha
                return trial
            alpha *= opts.backtrack_factor
            if alpha < opts.alpha_min:
                raise StepTooSmallError("step length fell below %g" % opts.alpha_min)
        raise InnerIterationLimitError("line search exceeded %d trials" % opts.max_inner)

    def compute_acceptable_iterate(self, iterate: Iterate) -> Iterate:
        recoveries = 4
        try:
            direction = self.relaxation.compute_direction(iterate, trust_radius=np.inf)
        except _RECOVERABLE:
            direction = self.relaxation.handle_small_step(iterate)
            if direction is None:
                raise
            recoveries -= 1
        while True:
            try:
                return self._backtrack(iterate, direction)
            except StepTooSmallError:
                recovery = (
                    self.relaxation.handle_small_step(iterate) if recoveries > 0 else None
                )
                if recovery is None:
                    raise
                direction = recovery
                recoveries -= 1


class TrustRegionMethod:
    """Trust-region mechanism over the relaxation strategy; the radius is
    carried between outer iterations. Reads the radius_* constants,
    activity_tolerance_rel and max_inner from the options."""

    def __init__(self, relaxation, opts):
        self.relaxation = relaxation
        self.opts = opts
        self.radius = opts.radius_initial

    def log_fields(self) -> dict:
        return {"radius": self.radius}

    def compute_acceptable_iterate(self, iterate: Iterate) -> Iterate:
        """Solve-at-radius / full-step / accept-or-shrink loop.

        On acceptance with an active trust region the radius grows, on
        rejection it shrinks below min(radius, ||dx||). Raises TinyRadius
        once the radius reaches machine-epsilon scale.
        """
        opts = self.opts
        # reset into [radius_min, radius_max]: carry the radius, clamped
        radius = min(max(self.radius, opts.radius_min), opts.radius_max)
        for _ in range(opts.max_inner):
            direction = self.relaxation.compute_direction(iterate, trust_radius=radius)
            trial = assemble_trial(iterate, direction, 1.0)
            step_norm = float(np.abs(direction.dx).max(initial=0.0))
            activity_tol = opts.activity_tolerance_rel * radius
            if trial.evals.is_finite and self.relaxation.acceptance_test(iterate, direction)(
                trial, 1.0
            ):
                if step_norm >= radius - activity_tol:
                    radius = min(opts.radius_increase_factor * radius, opts.radius_max)
                self.radius = radius
                return trial
            radius = opts.radius_decrease_factor * min(
                radius, step_norm if step_norm > 0 else radius
            )
            if radius <= max(opts.radius_min, 10.0 * _MACHINE_EPS):
                self.radius = opts.radius_min
                raise TinyRadiusError("trust-region radius collapsed to %g" % radius)
        raise InnerIterationLimitError("trust region exceeded %d cycles" % opts.max_inner)
