"""Monte Carlo experiments over the particle system.

Covariance of empirical-measure coordinates against the mean-field bound,
convergence of the particle profile to the conditioned law, stationary
profiles against the quasi-stationary distribution, and stationary product
moments.  Replica streams are derived from (master_seed, replica_index),
and reductions run over arrays ordered by replica index, so estimates
depend only on the seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .chain import AbsorbingChain, check_bound_horizon
# map_replicas, simulate and tv_distance are unused here but stay
# importable: perfbench's tracer patches them by attribute.
from .measures import check_distribution, empirical_measure
from .measures import tv_distance  # noqa: F401
from .parallel import map_replicas  # noqa: F401
from .seeding import ReplicaSeed, as_replica_seed
from .semigroup import conditioned_law, qsd
from .simulator import (  # noqa: F401
    configuration_from_profile,
    simulate,
    simulate_counts,
    stationary_sampler,
)

__all__ = [
    "CorrelationEstimate",
    "ConvergenceCurve",
    "ProductMomentEstimate",
    "extreme_profiles",
    "covariance_bound",
    "correlation_experiment",
    "convergence_experiment",
    "qsd_profile_experiment",
    "product_moment_experiment",
    "batch_means_se",
]


def extreme_profiles(n: int) -> list[NDArray[np.float64]]:
    """Stress profiles standing in for a sup over configurations: every
    point mass, then the balanced profile."""
    if n < 1:
        raise ValueError("n must be positive")
    profiles = [np.eye(n)[x] for x in range(n)]
    profiles.append(np.full(n, 1.0 / n))
    return profiles


# Contiguous batches per batch_means_se call.
N_BATCHES = 20


def batch_means_se(samples: ArrayLike) -> float:
    """Standard error for autocorrelated samples via batch means.

    Splits into ``N_BATCHES`` contiguous batches (dropping any remainder)
    and returns std(batch means)/sqrt(N_BATCHES).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2 * N_BATCHES:
        raise ValueError("need at least 2 samples per batch")
    size = x.size // N_BATCHES
    means = x[: size * N_BATCHES].reshape(N_BATCHES, size).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(N_BATCHES))


def covariance_bound(
    chain: AbsorbingChain, n_particles: int, t: float, same_site: bool
) -> float:
    """Mean-field covariance envelope: 1{x=y}/N + (2/N)(e^{2Ct} - 1).

    A NaN or negative t, or n_particles < 1, raises ValueError; a horizon
    at which e^{2Ct} is not a finite double raises HorizonOverflowError."""
    if n_particles < 1:
        raise ValueError("n_particles must be at least 1")
    if not t >= 0.0:
        raise ValueError("time must be nonnegative")
    c_rate = chain.max_absorption_rate
    check_bound_horizon(chain, t)
    bound = (2.0 / n_particles) * (np.exp(2.0 * c_rate * t) - 1.0)
    if same_site:
        bound += 1.0 / n_particles
    return float(bound)


def _resolve_site(chain: AbsorbingChain, site: int | str) -> int:
    if isinstance(site, str):
        return chain.index(site)
    site = int(site)
    if not (0 <= site < chain.n):
        raise ValueError(f"site index {site} out of range")
    return site


@dataclass(frozen=True)
class CorrelationEstimate:
    site_x: str
    site_y: str
    covariance: float
    std_error: float
    bound: float


def correlation_experiment(
    chain: AbsorbingChain,
    xi0: ArrayLike,
    t: float,
    x: int | str,
    y: int | str,
    replicas: int,
    seed: ReplicaSeed | int,
) -> CorrelationEstimate:
    """Plug-in covariance of (m_x, m_y) at time t over independent replicas.

    The standard error is the i.i.d. SE of the centered product samples
    (the O(1/replicas) mean-estimation correction is negligible at the
    10^3+ replica counts this is meant for).  The bound field carries the
    mean-field envelope for the chain's maximal absorption rate; a horizon
    at which it overflows raises HorizonOverflowError before any draw.
    """
    if replicas < 2:
        raise ValueError("replicas must be at least 2")
    ix = _resolve_site(chain, x)
    iy = _resolve_site(chain, y)
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError("time must be finite and nonnegative")
    n_particles = np.asarray(xi0).size
    bound = covariance_bound(chain, n_particles, t, ix == iy)
    m = simulate_counts(chain, xi0, [t], replicas, seed)[:, 0] / n_particles
    mx, my = m[:, ix], m[:, iy]
    centered = (mx - mx.mean()) * (my - my.mean())
    covariance = float(centered.mean())
    std_error = float(centered.std(ddof=1) / np.sqrt(replicas))
    return CorrelationEstimate(
        site_x=chain.states[ix],
        site_y=chain.states[iy],
        covariance=covariance,
        std_error=std_error,
        bound=bound,
    )


@dataclass(frozen=True)
class ConvergenceCurve:
    """Estimates indexed by particle count, N strictly increasing."""

    n_values: NDArray[np.int64]
    estimates: NDArray[np.float64]
    std_errors: NDArray[np.float64]

    def __post_init__(self) -> None:
        if np.any(np.diff(self.n_values) <= 0):
            raise ValueError("n_values must be strictly increasing")


def convergence_experiment(
    chain: AbsorbingChain,
    profiles: list[ArrayLike],
    t: float,
    n_list: list[int],
    replicas: int,
    seed: ReplicaSeed | int,
) -> ConvergenceCurve:
    """Worst-profile mean distance between m(xi_t) and the conditioned law.

    For each particle count N, every profile is expanded to a deterministic
    configuration; the Monte Carlo mean of ||m(xi_t) - T_t m(xi_0)||_TV is
    taken over replicas, and the curve records the max over profiles (with
    that profile's SE).  The target uses the realized m(xi_0), not the
    requested profile, so rounding in the expansion cancels out.  The k-th
    N and j-th profile run on ``seed.offset((k P + j) replicas)`` for P
    profiles.
    """
    if replicas < 2:
        raise ValueError("replicas must be at least 2")
    if not profiles:
        raise ValueError("need at least one profile")
    seed = as_replica_seed(seed)
    profiles = [check_distribution(p, chain.n) for p in profiles]
    n_arr = np.asarray(n_list, dtype=np.int64)

    estimates = np.empty(n_arr.size)
    std_errors = np.empty(n_arr.size)
    for k, n_particles in enumerate(n_arr.tolist()):
        best = (-np.inf, 0.0)
        for j, profile in enumerate(profiles):
            xi0 = configuration_from_profile(profile, n_particles, chain.states)
            target = conditioned_law(chain, empirical_measure(xi0, chain.n), t)
            cell_seed = seed.offset((k * len(profiles) + j) * replicas)
            counts = simulate_counts(chain, xi0, [t], replicas, cell_seed)[:, 0]
            dists = np.abs(counts / n_particles - target).sum(axis=1)
            mean = float(dists.mean())
            if mean > best[0]:
                best = (mean, float(dists.std(ddof=1) / np.sqrt(replicas)))
        estimates[k], std_errors[k] = best
    return ConvergenceCurve(n_arr, estimates, std_errors)


def qsd_profile_experiment(
    chain: AbsorbingChain,
    n_list: list[int],
    burn_in: float,
    n_samples: int,
    spacing: float,
    seed: ReplicaSeed | int,
) -> ConvergenceCurve:
    """Stationary mean of ||m - nu||_TV per particle count.

    One long trajectory per N, the k-th on ``seed.offset(k)``; batch-means
    standard errors since the samples are autocorrelated.  A QSD that did
    not converge raises QsdNotConvergedError.
    """
    solution = qsd(chain).require_converged()
    seed = as_replica_seed(seed)
    n_arr = np.asarray(n_list, dtype=np.int64)
    estimates = np.empty(n_arr.size)
    std_errors = np.empty(n_arr.size)
    for k, n_particles in enumerate(n_arr):
        samples = stationary_sampler(chain, int(n_particles), burn_in,
                                     n_samples, spacing, seed.offset(k))
        # Row by row, the same sums as tv_distance(m, solution.nu).
        dists = np.abs(samples - solution.nu).sum(axis=1)
        estimates[k] = dists.mean()
        std_errors[k] = batch_means_se(dists)
    return ConvergenceCurve(n_arr, estimates, std_errors)


@dataclass(frozen=True)
class ProductMomentEstimate:
    sites: tuple[str, ...]
    estimate: float
    std_error: float
    reference: float


def product_moment_experiment(
    chain: AbsorbingChain,
    sites: list[int | str],
    n_particles: int,
    burn_in: float,
    n_samples: int,
    spacing: float,
    seed: ReplicaSeed | int,
) -> ProductMomentEstimate:
    """Stationary mean of the product of m over a site subset, with the
    matching product of quasi-stationary weights as reference.  A QSD that
    did not converge raises QsdNotConvergedError."""
    if not sites:
        raise ValueError("need at least one site")
    idx = [_resolve_site(chain, s) for s in sites]
    if len(set(idx)) != len(idx):
        raise ValueError("sites must be distinct")
    solution = qsd(chain).require_converged()
    samples = stationary_sampler(
        chain, n_particles, burn_in, n_samples, spacing, seed
    )
    stats = samples[:, idx].prod(axis=1)
    return ProductMomentEstimate(
        sites=tuple(chain.states[i] for i in idx),
        estimate=float(stats.mean()),
        std_error=batch_means_se(stats),
        reference=float(np.prod(solution.nu[idx])),
    )
