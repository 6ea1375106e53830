"""Exception types shared across the solver."""


class ModNLPError(Exception):
    """Base class for all solver errors."""


class UnknownProblemError(ModNLPError):
    """Requested corpus problem is not registered."""


class NonFiniteEvaluationError(ModNLPError):
    """A function evaluation produced NaN or infinity where finiteness is required."""


class SingularMatrixError(ModNLPError):
    """A matrix is singular or non-finite and cannot be factorized or used
    for a solve."""


class RegularizationFailedError(ModNLPError):
    """The inertia-correction schedule was exhausted without success."""


class QPFailureError(ModNLPError):
    """A QP/LP subproblem solve failed (unbounded or iteration limit)."""


class ConfigurationError(ModNLPError):
    """Invalid or prohibited combination of solver options, or a model that
    is refused before any callback runs."""


class InconsistentBoundsError(ConfigurationError):
    """A lower bound exceeds the corresponding upper bound, or either is NaN:
    the model is refused before the first iteration."""


class UnknownPresetError(ConfigurationError):
    """Requested preset name is not one of the known presets."""


class UnknownOptionError(ConfigurationError):
    """An option key is not recognized; message lists near misses."""


class InfeasibleLinearConstraintsError(ModNLPError):
    """The linear constraints and bounds are inconsistent: the problem is infeasible."""


class StepTooSmallError(ModNLPError):
    """Backtracking reduced the step length below its minimum threshold."""


class TinyRadiusError(ModNLPError):
    """The trust-region radius collapsed to machine-epsilon scale."""


class InnerIterationLimitError(ModNLPError):
    """A globalization mechanism exceeded its inner iteration budget."""
