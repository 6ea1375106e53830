"""Globalization mechanisms: backtracking line search and the trust-region
method. Both drive the constraint relaxation strategy until it accepts a
trial iterate, and both treat non-finite trial evaluations as rejections.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InnerIterationLimitError,
    NonFiniteEvaluationError,
    RegularizationFailedError,
    SingularMatrixError,
    StepTooSmallError,
    TinyRadiusError,
)
from .state import Iterate, Workspace
from .subproblem import Direction

_RECOVERABLE = (NonFiniteEvaluationError, RegularizationFailedError, SingularMatrixError)
_MACHINE_EPS = float(np.finfo(float).eps)


@dataclass
class LineSearchConfig:
    backtrack_factor: float = 0.5
    alpha_min: float = 1e-7
    max_inner: int = 50


@dataclass
class TrustRegionConfig:
    radius: float = 10.0
    radius_min: float = 1e-16
    radius_max: float = 1e30
    increase_factor: float = 2.0
    decrease_factor: float = 0.5
    activity_tolerance_rel: float = 1e-10
    max_inner: int = 50


def assemble_trial(ws: Workspace, iterate: Iterate, direction: Direction, alpha: float) -> Iterate:
    """Trial point: primal and constraint multipliers step by alpha, bound
    multipliers step by the direction's dual scale (full step for SQP,
    fraction-to-boundary for IPM)."""
    x = iterate.x + alpha * direction.dx
    y = iterate.y + alpha * direction.dy
    zl = np.maximum(iterate.zl + direction.dual_scale * direction.dzl, 0.0)
    zu = np.maximum(iterate.zu + direction.dual_scale * direction.dzu, 0.0)
    return Iterate(x=x, y=y, zl=zl, zu=zu, rho=iterate.rho, evals=ws.eval_fc(x))


def line_search_iterate(
    cfg: LineSearchConfig,
    ws: Workspace,
    iterate: Iterate,
    direction: Direction,
    acceptance,
) -> tuple[Iterate, float]:
    """Trials at alpha = c^l * alpha_max until the acceptance callback admits
    one; signals StepTooSmall below alpha_min so the caller can enter
    restoration or declare failure."""
    alpha = direction.alpha_max
    for _ in range(cfg.max_inner):
        trial = assemble_trial(ws, iterate, direction, alpha)
        if trial.evals.is_finite and acceptance(trial, alpha):
            return trial, alpha
        alpha *= cfg.backtrack_factor
        if alpha < cfg.alpha_min:
            raise StepTooSmallError("step length fell below %g" % cfg.alpha_min)
    raise InnerIterationLimitError("line search exceeded %d trials" % cfg.max_inner)


def trust_region_iterate(
    cfg: TrustRegionConfig,
    ws: Workspace,
    iterate: Iterate,
    solve_with_radius,
    acceptance,
    radius: float | None = None,
) -> tuple[Iterate, float]:
    """Solve-at-radius / full-step / accept-or-shrink loop.

    Bound multipliers of components pinned by the trust region are reset to
    zero; on acceptance with an active trust region the radius grows, on
    rejection it shrinks below min(radius, ||dx||). Returns the accepted
    trial and the updated radius; raises TinyRadius once the radius reaches
    machine-epsilon scale.
    """
    # reset into [radius_min, radius_max]: carry the given radius, clamped
    radius = min(max(cfg.radius if radius is None else radius, cfg.radius_min),
                 cfg.radius_max)
    for _ in range(cfg.max_inner):
        direction = solve_with_radius(radius)
        trial = assemble_trial(ws, iterate, direction, 1.0)
        if direction.tr_active is not None and np.any(direction.tr_active):
            trial.zl = np.where(direction.tr_active, 0.0, trial.zl)
            trial.zu = np.where(direction.tr_active, 0.0, trial.zu)
        step_norm = float(np.max(np.abs(direction.dx), initial=0.0))
        activity_tol = cfg.activity_tolerance_rel * radius
        if trial.evals.is_finite and acceptance(trial, direction):
            if step_norm >= radius - activity_tol:
                radius = min(cfg.increase_factor * radius, cfg.radius_max)
            return trial, radius
        radius = cfg.decrease_factor * min(radius, step_norm if step_norm > 0 else radius)
        if radius <= max(cfg.radius_min, 10.0 * _MACHINE_EPS):
            raise TinyRadiusError("trust-region radius collapsed to %g" % radius)
    raise InnerIterationLimitError("trust region exceeded %d cycles" % cfg.max_inner)


class BacktrackingLineSearch:
    """Line-search mechanism over the relaxation strategy, with recovery
    through feasibility restoration when the step collapses or the step
    computation breaks down numerically."""

    mechanism_name = "LS"

    def __init__(self, relaxation, cfg: LineSearchConfig | None = None):
        self.relaxation = relaxation
        self.cfg = cfg or LineSearchConfig()
        self.last_step_length = 1.0

    def log_fields(self) -> dict:
        return {"step_length": self.last_step_length}

    def compute_acceptable_iterate(self, iterate: Iterate) -> Iterate:
        ws = self.relaxation.ws
        recoveries = 4
        try:
            direction = self.relaxation.compute_direction(iterate, trust_radius=None)
        except _RECOVERABLE:
            direction = self.relaxation.handle_small_step(iterate)
            if direction is None:
                raise
            recoveries -= 1
        while True:
            try:
                trial, alpha = line_search_iterate(
                    self.cfg, ws, iterate, direction,
                    lambda t, a, d=direction: self.relaxation.is_acceptable(iterate, t, d, a),
                )
                self.last_step_length = alpha
                return trial
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
    carried between outer iterations."""

    mechanism_name = "TR"

    def __init__(self, relaxation, cfg: TrustRegionConfig | None = None):
        self.relaxation = relaxation
        self.cfg = cfg or TrustRegionConfig()
        self.radius = self.cfg.radius

    def log_fields(self) -> dict:
        return {"radius": self.radius}

    def compute_acceptable_iterate(self, iterate: Iterate) -> Iterate:
        try:
            trial, self.radius = trust_region_iterate(
                self.cfg,
                self.relaxation.ws,
                iterate,
                lambda radius: self.relaxation.compute_direction(iterate, trust_radius=radius),
                lambda t, d: self.relaxation.is_acceptable(iterate, t, d, 1.0),
                radius=self.radius,
            )
        except TinyRadiusError:
            self.radius = self.cfg.radius_min
            raise
        return trial
