"""Globalization strategies: progress measures and their reduction models,
and one class per strategy: MeritL1 (Armijo acceptance on the l1 merit
function), FilterMethod (the Fletcher-Leyffer rule, trust-region lineage)
and WaechterFilter (the Waechter-Biegler rule, line-search lineage). The
filter method holds its filter, and the two filter methods differ only in
their `rule`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ProgressMeasures:
    """eta = ||c||_1 infeasibility, f the unpenalized objective, rho the
    relaxation's objective multiplier and xi the auxiliary (barrier)
    measure. A filter judges (eta, phi) with phi = f + xi; the l1 merit
    function is rho f + eta + xi."""

    eta: float
    f: float
    rho: float = 1.0
    xi: float = 0.0

    @property
    def phi(self) -> float:
        return self.f + self.xi

    @property
    def merit(self) -> float:
        return self.rho * self.f + self.eta + self.xi


def barrier_value(x, bounds, mu) -> float:
    """-mu * sum of log distances to the finite bounds (the IPM auxiliary
    measure), bounds a state.Bounds. Returns +inf at or outside the bounds.
    The logs are summed in sequence, each component's lower bound before
    its upper bound."""
    gaps = np.empty((x.size, 2))  # row i: component i's lower gap, then its upper gap
    np.subtract(x, bounds.lower, out=gaps[:, 0])
    np.subtract(bounds.upper, x, out=gaps[:, 1])
    finite = np.empty((x.size, 2), dtype=bool)
    finite[:, 0] = bounds.lower_finite
    finite[:, 1] = bounds.upper_finite
    gaps = gaps[finite]
    if (gaps <= 0.0).any():
        return np.inf
    return mu * np.cumsum(np.concatenate(([0.0], -np.log(gaps))))[-1]


@dataclass(frozen=True)
class ReductionModels:
    """Predicted reductions of the progress measures for a step alpha * d.

    Filter strategies read the linear models of f and xi (phi_reduction),
    the merit strategy the quadratic models of rho f and xi
    (merit_reduction). c and jd are the constraint values and J d, gtd is
    grad_f . d (unscaled), dwd is d^T W_rho d, btd and dbd are the barrier
    analogues, and rho is the relaxation's objective multiplier.
    """

    c: np.ndarray
    jd: np.ndarray
    gtd: float
    dwd: float
    rho: float
    btd: float = 0.0
    dbd: float = 0.0

    def linearized_eta(self, alpha: float) -> float:
        """||c + alpha J d||_1, the linearized infeasibility after the step."""
        return float(np.abs(self.c + alpha * self.jd).sum())

    def eta(self, alpha: float) -> float:
        return float(np.abs(self.c).sum()) - self.linearized_eta(alpha)

    def merit_reduction(self, alpha: float) -> float:
        # quadratic models of rho f and xi, and the model of eta
        objective = -self.rho * alpha * self.gtd - 0.5 * alpha * alpha * self.dwd
        xi = alpha * self.btd - 0.5 * alpha * alpha * self.dbd
        return objective + self.eta(alpha) + xi

    def phi_reduction(self, alpha: float) -> float:
        # linear models of f and xi
        return -alpha * self.gtd + alpha * self.btd


def sufficient_decrease(current: float, trial: float, sigma_predicted: float) -> bool:
    """The Armijo test of every acceptance rule: current - trial >= sigma times
    the predicted reduction, up to a roundoff slack of 10 eps max(1, |current|)."""
    return current - trial + 10.0 * _EPS * max(1.0, abs(current)) >= sigma_predicted


def infeasibility_armijo(
    current: ProgressMeasures,
    trial: ProgressMeasures,
    models: ReductionModels,
    step: float,
    sigma: float,
) -> bool:
    """Restoration-phase acceptance: sufficient decrease of eta against its
    linearized reduction model."""
    return sufficient_decrease(current.eta, trial.eta, sigma * models.eta(step))


class GlobalizationStrategy:
    """Decides whether a trial iterate makes acceptable progress. Each
    strategy reads its own measure off the ProgressMeasures (the filters
    phi, the merit strategy merit) and names it for the log."""

    sigma: float
    """The Armijo fraction; feasibility restoration accepts its steps on it too."""

    def initialize(self, eta0: float) -> None:
        """Anchor the strategy at the initial infeasibility."""

    def check_acceptance(self, current, trial, models, step) -> bool:
        raise NotImplementedError

    def log_fields(self, measures: ProgressMeasures) -> dict:
        """The strategy's measure at the given measures, for the log."""
        raise NotImplementedError

    def admits(self, measures: ProgressMeasures) -> bool:
        """Whether the strategy's memory admits the pair (none: always)."""
        return True

    def least_infeasibility(self, reference: ProgressMeasures) -> float:
        """Least infeasibility the strategy remembers; without a memory, the
        reference's."""
        return reference.eta

    def register_current(self, measures: ProgressMeasures) -> None:
        """Record the current pair (used when entering restoration)."""

    def reset(self) -> None:
        """Flush strategy memory (filter flush on barrier updates)."""


class MeritL1(GlobalizationStrategy):
    def __init__(self, opts):
        self.sigma = opts.armijo_sigma

    def log_fields(self, measures: ProgressMeasures) -> dict:
        return {"merit": measures.merit}

    def check_acceptance(self, current, trial, models, step) -> bool:
        """Armijo condition on the merit function rho f + eta + xi."""
        predicted = models.merit_reduction(step)
        return sufficient_decrease(current.merit, trial.merit, self.sigma * predicted)


class FilterMethod(GlobalizationStrategy):
    """Filter method with the Fletcher-Leyffer acceptance rule (trust-region
    lineage); `rule` is the hook its variants replace. It holds its filter:
    entries, a non-dominated list of (eta, phi) pairs, with the envelope
    parameters read from the options' filter_beta, filter_gamma,
    filter_capacity and eta_max_factor."""

    def __init__(self, opts):
        self.sigma = opts.filter_sigma
        self.delta = opts.filter_delta
        self.beta = opts.filter_beta
        self.gamma = opts.filter_gamma
        self.capacity = opts.filter_capacity
        self.eta_max_factor = opts.eta_max_factor
        self.eta_max = np.inf  # until initialize
        self.entries: list[tuple[float, float]] = []

    def initialize(self, eta0: float) -> None:
        """Set the upper bound, once per solve, at eta_max_factor times
        max(1, eta0), eta0 the initial infeasibility (Waechter & Biegler,
        Math. Prog. 106, 2006, theta_max)."""
        self.eta_max = self.eta_max_factor * max(1.0, eta0)

    def log_fields(self, measures: ProgressMeasures) -> dict:
        return {"phi": measures.phi}

    def acceptable(self, eta: float, phi: float) -> bool:
        if eta > self.eta_max:
            return False
        for eta_l, phi_l in self.entries:
            if not (phi <= phi_l - self.gamma * eta or eta < self.beta * eta_l):
                return False
        return True

    def add(self, eta: float, phi: float) -> None:
        if not np.isfinite(eta) or eta < 0.0 or eta > self.eta_max:
            return
        kept = [
            (eta_l, phi_l)
            for (eta_l, phi_l) in self.entries
            if not (eta <= eta_l and phi <= phi_l)
        ]
        for eta_l, phi_l in kept:
            if eta_l <= eta and phi_l <= phi:
                self.entries = kept  # new pair is dominated; drop it
                return
        kept.append((eta, phi))
        if len(kept) > self.capacity:
            kept.pop(0)
        self.entries = kept

    def check_acceptance(self, current, trial, models, step) -> bool:
        accepted, add_current = self.rule(current, trial, models, step)
        if add_current:
            self.add(current.eta, current.phi)
        return accepted

    def rule(self, current, trial, models, step) -> tuple[bool, bool]:
        """Returns (accepted, add_current_to_filter). The trial must be
        acceptable to the filter and improve upon the current point; when
        the switching condition holds, it is an f-type step and must also
        satisfy the Armijo condition on phi."""
        if not (self.acceptable(trial.eta, trial.phi) and self.improves(current, trial)):
            return False, False
        dm_phi = models.phi_reduction(step)
        if dm_phi >= self.delta * current.eta**2:
            if self.armijo(current, trial, dm_phi):
                return True, current.eta > 0.0  # f-type
            return False, False
        return True, True  # h-type

    def improves(self, current, trial) -> bool:
        """The filter's envelope test of the trial against the current pair."""
        return (
            trial.phi <= current.phi - self.gamma * trial.eta
            or trial.eta < self.beta * current.eta
        )

    def armijo(self, current, trial, dm_phi: float) -> bool:
        """Armijo condition on phi against its predicted reduction dm_phi."""
        return sufficient_decrease(current.phi, trial.phi, self.sigma * dm_phi)

    def admits(self, measures: ProgressMeasures) -> bool:
        return self.acceptable(measures.eta, measures.phi)

    def least_infeasibility(self, reference: ProgressMeasures) -> float:
        return min((e for e, _ in self.entries), default=np.inf)

    def register_current(self, measures: ProgressMeasures) -> None:
        self.add(measures.eta, measures.phi)

    def reset(self) -> None:
        """Flush all entries, whenever the barrier parameter changes. The
        upper bound and the envelope parameters are retained."""
        self.entries.clear()


class WaechterFilter(FilterMethod):
    """Filter method with the Waechter-Biegler acceptance rule (line-search
    lineage), gated at theta_min = theta_min_factor * max(1, eta0)."""

    def __init__(self, opts):
        super().__init__(opts)
        self.theta_min_factor = opts.theta_min_factor
        self.theta_min = np.inf

    def initialize(self, eta0: float) -> None:
        super().initialize(eta0)
        self.theta_min = self.theta_min_factor * max(1.0, eta0)

    def rule(self, current, trial, models, step) -> tuple[bool, bool]:
        """The theta_min gate and the positivity of the predicted phi
        reduction come before the switching condition; the current pair is
        recorded into the filter whenever the switching condition fails."""
        if not self.acceptable(trial.eta, trial.phi):
            return False, False
        dm_phi = models.phi_reduction(step)
        switching = dm_phi > 0.0 and dm_phi >= self.delta * current.eta**2
        if current.eta <= self.theta_min and switching:
            accepted = self.armijo(current, trial, dm_phi)  # f-type
            return accepted, not accepted
        return self.improves(current, trial), not switching
