"""Absorbing Markov chains, quasi-stationary distributions, and the
mean-field particle system that approximates the conditioned dynamics.

Public surface: chain validation and transient analysis, the conditioned
semigroup and QSD solver, the event-driven particle simulator, the marked
Poisson (graphical) construction with influence sets, and the Monte Carlo
experiments that check the mean-field bounds.
"""
import types

from ._kernels import USING_JIT
from .chain import (
    MAX_RATE,
    AbsorbingChain,
    InflowDominance,
    inflow_dominance,
    load_chain,
    transient_vector,
    validate_chain,
)
from .errors import (
    ChainFormatError,
    ChainValidationError,
    ConfigError,
    DimensionMismatchError,
    DistanceUnderflowError,
    FvqsdError,
    HorizonOverflowError,
    NegativeRateError,
    NoAbsorptionError,
    NormalizationDriftError,
    NotIrreducibleError,
    QsdNotConvergedError,
    RateBoundError,
    StepTooLargeError,
    SurvivalUnderflowError,
    UnsortedTimesError,
)
from .estimators import (
    ConvergenceCurve,
    CorrelationEstimate,
    ProductMomentEstimate,
    batch_means_se,
    convergence_experiment,
    correlation_experiment,
    covariance_bound,
    extreme_profiles,
    product_moment_experiment,
    qsd_profile_experiment,
)
from .graphical import (
    InfluenceSizeEstimate,
    MarkRealization,
    OverlapEstimate,
    evolve,
    influence_experiment,
    influence_matrix,
    sample_marks,
)
from .measures import check_distribution, empirical_measure, tv_distance
from .seeding import ReplicaSeed
from .semigroup import (
    DecayFit,
    QsdSolution,
    conditioned_law,
    decay_rate_estimate,
    forward_ode,
    qsd,
)
from .simulator import (
    TransitionTables,
    configuration_from_profile,
    simulate,
    simulate_counts,
    simulate_trajectory,
    stationary_sampler,
    transition_tables,
    validate_configuration,
)

__version__ = "0.1.0"

# Every name imported above, submodules aside, and the version.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__.append("__version__")
