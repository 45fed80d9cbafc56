"""Exception types shared across the package."""


class FvqsdError(Exception):
    """Base class for all package-specific errors."""


class ChainValidationError(FvqsdError, ValueError):
    """A chain specification failed validation."""


class ChainFormatError(ChainValidationError):
    """Structurally malformed chain input (bad JSON shape, unknown fields)."""


class NegativeRateError(ChainValidationError):
    pass


class RateBoundError(ChainValidationError):
    """An off-diagonal or absorption rate exceeds the supported cap."""


class DimensionMismatchError(ChainValidationError):
    pass


class NotIrreducibleError(ChainValidationError):
    pass


class NoAbsorptionError(ChainValidationError):
    pass


class HorizonOverflowError(FvqsdError, ValueError):
    """A time horizon is beyond what a double can carry: the horizon times
    the chain's largest rate, or a bound exponential in it, overflows."""


class SurvivalUnderflowError(FvqsdError):
    """Survival probability too small to condition on reliably."""


class StepTooLargeError(FvqsdError, ValueError):
    """ODE step exceeds the stability limit for the chain's rates."""


class NormalizationDriftError(FvqsdError):
    """An evolved law drifted off the probability simplex beyond tolerance."""


class DistanceUnderflowError(FvqsdError):
    """A distance is too close to zero for a meaningful log-scale fit."""


class QsdNotConvergedError(FvqsdError):
    """A QSD solve stopped at its iteration cap; its result must not feed
    later steps."""


class UnsortedTimesError(FvqsdError, ValueError):
    pass


class ConfigError(FvqsdError, ValueError):
    """Experiment configuration is missing or malforms a required field."""
