"""Globalization strategies: progress measures and their reduction models,
the l1 merit function with Armijo acceptance, and filter methods in the
Fletcher-Leyffer (trust-region lineage) and Waechter-Biegler (line-search
lineage) variants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ProgressMeasures:
    """eta = ||c||_1 infeasibility, omega = rho * f objective measure,
    xi = auxiliary (barrier) measure."""

    eta: float
    omega: float
    xi: float = 0.0

    @property
    def phi(self) -> float:
        # decrease function of filter methods; omega must be computed with
        # rho = 1 in that context
        return self.omega + self.xi

    @property
    def merit(self) -> float:
        return self.omega + self.eta + self.xi


def compute_measures(
    f_value: float,
    c_values: np.ndarray,
    rho: float = 1.0,
    barrier_term: float = 0.0,
) -> ProgressMeasures:
    return ProgressMeasures(
        eta=float(np.sum(np.abs(c_values))),
        omega=rho * float(f_value),
        xi=float(barrier_term),
    )


def barrier_value(x, lower, upper, mu) -> float:
    """-mu * sum of log distances to the finite bounds (the IPM auxiliary
    measure). Returns +inf at or outside the bounds. The logs are summed in
    sequence, each component's lower bound before its upper bound."""
    bounds = np.array([lower, upper]).T
    gaps = np.array([x - lower, upper - x]).T[np.isfinite(bounds)]
    if (gaps <= 0.0).any():
        return np.inf
    return mu * np.cumsum(np.concatenate(([0.0], -np.log(gaps))))[-1]


@dataclass(frozen=True)
class ReductionModels:
    """Predicted reductions of the progress measures for a step alpha * d.

    The linear/quadratic objective variants coexist: filter strategies read
    the linear model, the merit strategy reads the quadratic one. c and jd
    are the constraint values and J d, gtd is grad_f . d (unscaled), dwd is
    d^T W_rho d, btd and dbd are the barrier analogues.
    """

    c: np.ndarray
    jd: np.ndarray
    gtd: float
    dwd: float
    rho: float
    btd: float = 0.0
    dbd: float = 0.0

    def eta(self, alpha: float) -> float:
        return float(np.sum(np.abs(self.c)) - np.sum(np.abs(self.c + alpha * self.jd)))

    def omega_linear(self, alpha: float, rho: float | None = None) -> float:
        r = self.rho if rho is None else rho
        return -r * alpha * self.gtd

    def omega_quadratic(self, alpha: float, rho: float | None = None) -> float:
        r = self.rho if rho is None else rho
        return -r * alpha * self.gtd - 0.5 * alpha * alpha * self.dwd

    def xi_linear(self, alpha: float) -> float:
        return alpha * self.btd

    def xi_quadratic(self, alpha: float) -> float:
        return alpha * self.btd - 0.5 * alpha * alpha * self.dbd

    def merit_reduction(self, alpha: float) -> float:
        return self.omega_quadratic(alpha) + self.eta(alpha) + self.xi_quadratic(alpha)

    def phi_reduction(self, alpha: float) -> float:
        # filter objective model: linear omega at rho = 1 plus linear barrier
        return self.omega_linear(alpha, rho=1.0) + self.xi_linear(alpha)


def merit_is_acceptable(
    current: ProgressMeasures,
    trial: ProgressMeasures,
    models: ReductionModels,
    step: float,
    sigma: float,
    zero_step: bool = False,
) -> bool:
    """Armijo condition on the merit function phi_rho = omega_rho + eta + xi.

    A zero-length direction is accepted unconditionally.
    """
    if zero_step:
        return True
    actual = current.merit - trial.merit
    predicted = models.merit_reduction(step)
    slack = 10.0 * _EPS * max(1.0, abs(current.merit))
    return actual + slack >= sigma * predicted


def infeasibility_armijo(
    current: ProgressMeasures,
    trial: ProgressMeasures,
    models: ReductionModels,
    step: float,
    sigma: float,
) -> bool:
    """Restoration-phase acceptance: sufficient decrease of eta against its
    linearized reduction model."""
    slack = 10.0 * _EPS * max(1.0, current.eta)
    return current.eta - trial.eta + slack >= sigma * models.eta(step)


class Filter:
    """Non-dominated list of (eta, phi) pairs with envelope parameters, read
    from the options' filter_beta, filter_gamma, filter_capacity and
    eta_max_factor."""

    def __init__(self, opts, eta_max: float = np.inf):
        self.beta = opts.filter_beta
        self.gamma = opts.filter_gamma
        self.capacity = opts.filter_capacity
        self.eta_max_factor = opts.eta_max_factor
        self.eta_max = eta_max
        self.entries: list[tuple[float, float]] = []

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

    def reset(self, eta_reference: float) -> None:
        """Flush all entries (required whenever the barrier parameter
        changes); parameters are retained and the upper bound is re-anchored
        at the current infeasibility."""
        self.entries.clear()
        self.eta_max = self.eta_max_factor * max(1.0, eta_reference)

    def eta_min(self) -> float:
        return min((e for e, _ in self.entries), default=np.inf)


def filter_is_acceptable(
    flt: Filter,
    current: ProgressMeasures,
    trial: ProgressMeasures,
    models: ReductionModels,
    step: float,
    sigma: float,
    delta: float,
) -> tuple[bool, bool]:
    """Fletcher-Leyffer filter acceptance.

    Returns (accepted, add_current_to_filter). The trial must be acceptable
    to the filter and improve upon the current point; an f-type step must
    additionally satisfy the Armijo condition on phi when the switching
    condition holds.
    """
    if not flt.acceptable(trial.eta, trial.phi):
        return False, False
    improves = (
        trial.phi <= current.phi - flt.gamma * trial.eta
        or trial.eta < flt.beta * current.eta
    )
    if not improves:
        return False, False
    dm_phi = models.phi_reduction(step)
    switching = dm_phi >= delta * current.eta**2
    if switching:
        slack = 10.0 * _EPS * max(1.0, abs(current.phi))
        if current.phi - trial.phi + slack >= sigma * dm_phi:
            return True, current.eta > 0.0  # f-type
        return False, False
    return True, True  # h-type


def filter_is_acceptable_waechter(
    flt: Filter,
    current: ProgressMeasures,
    trial: ProgressMeasures,
    models: ReductionModels,
    step: float,
    sigma: float,
    delta: float,
    theta_min: float,
) -> tuple[bool, bool]:
    """Waechter-Biegler filter acceptance (line-search lineage).

    The theta_min gate and the positivity of the predicted phi reduction are
    applied before the switching condition; the current pair is recorded into
    the filter whenever the switching condition fails.
    """
    if not flt.acceptable(trial.eta, trial.phi):
        return False, False
    accepted = False
    add_current = False
    dm_phi = models.phi_reduction(step)
    switching_tail = dm_phi > 0.0 and dm_phi >= delta * current.eta**2
    if current.eta <= theta_min and switching_tail:
        slack = 10.0 * _EPS * max(1.0, abs(current.phi))
        if current.phi - trial.phi + slack >= sigma * dm_phi:
            accepted = True
        else:
            add_current = True
    else:
        improves = (
            trial.phi <= current.phi - flt.gamma * trial.eta
            or trial.eta < flt.beta * current.eta
        )
        if improves:
            accepted = True
    if not switching_tail:
        add_current = True
    return accepted, add_current


class GlobalizationStrategy:
    """Decides whether a trial iterate makes acceptable progress."""

    #: filter strategies measure omega with rho = 1
    uses_fixed_rho_one = False

    def initialize(self, eta0: float) -> None:
        """Anchor the strategy at the initial infeasibility."""

    def check_acceptance(self, current, trial, models, step) -> bool:
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

    def reset(self, eta_reference: float) -> None:
        """Flush strategy memory (filter flush on barrier updates)."""


class MeritL1(GlobalizationStrategy):
    def __init__(self, opts):
        self.sigma = opts.armijo_sigma

    def check_acceptance(self, current, trial, models, step) -> bool:
        return merit_is_acceptable(current, trial, models, step, self.sigma)


class FilterMethod(GlobalizationStrategy):
    """The filter of opts.globalization_strategy, in its Fletcher-Leyffer
    or Waechter-Biegler variant."""

    uses_fixed_rho_one = True
    VARIANTS = {"leyffer_filter_method": "leyffer", "waechter_filter_method": "waechter"}

    def __init__(self, opts):
        if opts.globalization_strategy not in self.VARIANTS:
            raise ValueError("unknown filter variant %r" % opts.globalization_strategy)
        self.variant = self.VARIANTS[opts.globalization_strategy]
        self.sigma = opts.filter_sigma
        self.delta = opts.filter_delta
        self.theta_min = np.inf
        self.theta_min_factor = opts.theta_min_factor
        self.filter = Filter(opts)

    def initialize(self, eta0: float) -> None:
        self.filter.eta_max = self.filter.eta_max_factor * max(1.0, eta0)
        if self.variant == "waechter":
            self.theta_min = self.theta_min_factor * max(1.0, eta0)

    def check_acceptance(self, current, trial, models, step) -> bool:
        if self.variant == "leyffer":
            accepted, add_current = filter_is_acceptable(
                self.filter, current, trial, models, step, self.sigma, self.delta
            )
        else:
            accepted, add_current = filter_is_acceptable_waechter(
                self.filter, current, trial, models, step,
                self.sigma, self.delta, self.theta_min,
            )
        if add_current:
            self.filter.add(current.eta, current.phi)
        return accepted

    def admits(self, measures: ProgressMeasures) -> bool:
        return self.filter.acceptable(measures.eta, measures.phi)

    def least_infeasibility(self, reference: ProgressMeasures) -> float:
        return self.filter.eta_min()

    def register_current(self, measures: ProgressMeasures) -> None:
        self.filter.add(measures.eta, measures.phi)

    def reset(self, eta_reference: float) -> None:
        self.filter.reset(eta_reference)
