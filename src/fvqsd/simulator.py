"""Event-driven simulation of the interacting particle system.

N particles sit on the chain's live sites.  Each moves with the chain's
rates; when a particle draws an absorption event it is not killed but
instantly adopts the position of a uniformly chosen other particle.  The
labelled event loop is exact (no time discretization): it is uniformized,
with epochs at the constant rate N max(site_rate), a uniform particle per
epoch and a move thinned to that particle's site rate (see ``_kernels``).

``simulate`` and ``simulate_trajectory`` follow labelled particles, one
realization per call.  ``simulate_counts`` follows only the site counts,
which is all the empirical measure needs, for many replicas at once.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import _kernels
from .chain import AbsorbingChain
from .errors import UnsortedTimesError
# empirical_measure is unused here but stays importable: perfbench's tracer
# patches it by attribute.
from .measures import check_distribution, empirical_measure  # noqa: F401
from .seeding import BLOCK_REPLICAS, ReplicaSeed, as_replica_seed

__all__ = [
    "TransitionTables",
    "transition_tables",
    "validate_configuration",
    "configuration_from_profile",
    "simulate",
    "simulate_trajectory",
    "simulate_counts",
    "stationary_sampler",
]

@dataclass(frozen=True)
class TransitionTables:
    """The per-site event tables the event loop reads: ``site_rate`` is
    :attr:`AbsorbingChain.site_rates` and ``cum_move`` is
    :attr:`AbsorbingChain.move_table`."""

    site_rate: NDArray[np.float64]
    cum_move: NDArray[np.float64]


def transition_tables(chain: AbsorbingChain) -> TransitionTables:
    return TransitionTables(chain.site_rates, chain.move_table)


def validate_configuration(xi0: ArrayLike, n_states: int) -> NDArray[np.int64]:
    pos = np.asarray(xi0)
    if pos.ndim != 1 or pos.size < 2:
        raise ValueError("configuration needs at least 2 particles")
    if not np.issubdtype(pos.dtype, np.integer):
        raise ValueError("positions must be integer site indices")
    pos = pos.astype(np.int64)
    if pos.min() < 0 or pos.max() >= n_states:
        raise ValueError("position out of range")
    return pos


def configuration_from_profile(
    profile: ArrayLike, n_particles: int, states: tuple[str, ...]
) -> NDArray[np.int64]:
    """Deterministic configuration matching a target site profile.

    Places floor(n_particles * profile[x]) particles at each site, in site
    order; the leftover particles all go to the lexicographically first
    site name.  Reproducible by construction: no randomness involved.
    """
    if n_particles < 2:
        raise ValueError("n_particles must be at least 2")
    p = check_distribution(profile)
    if len(states) != p.size:
        raise ValueError("states and profile lengths differ")
    counts = np.floor(n_particles * p).astype(np.int64)
    remainder = n_particles - int(counts.sum())
    if remainder > 0:
        first = min(range(len(states)), key=lambda i: states[i])
        counts[first] += remainder
    return np.repeat(np.arange(p.size, dtype=np.int64), counts)


def simulate(
    chain: AbsorbingChain,
    xi0: ArrayLike,
    t: float,
    seed: ReplicaSeed | int,
) -> NDArray[np.int64]:
    """One sample of the configuration at time ``t`` started from ``xi0``."""
    pos = validate_configuration(xi0, chain.n)
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise ValueError("time must be finite and nonnegative")
    gen = as_replica_seed(seed).generator()
    out = pos.copy()
    _kernels.run_events(gen, out, chain.site_rates, chain.move_table, t)
    return out


def _record_times(record_times: ArrayLike) -> NDArray[np.float64]:
    times = np.asarray(record_times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise UnsortedTimesError("record_times must be a nonempty 1-d array")
    if not np.all(np.isfinite(times)):
        raise UnsortedTimesError("record_times must be finite")
    if times[0] < 0.0 or np.any(np.diff(times) < 0.0):
        raise UnsortedTimesError("record_times must be sorted and start >= 0")
    return times


def simulate_trajectory(
    chain: AbsorbingChain,
    xi0: ArrayLike,
    record_times: ArrayLike,
    seed: ReplicaSeed | int,
) -> NDArray[np.int64]:
    """Snapshots of one realization at the given times.

    Returns an array of shape (len(record_times), N).  Times must be
    nondecreasing and start at or after 0; snapshots are right-continuous.
    """
    pos = validate_configuration(xi0, chain.n)
    times = _record_times(record_times)
    gen = as_replica_seed(seed).generator()
    out = np.empty((times.size, pos.size), dtype=np.int64)
    work = pos.copy()
    _kernels.run_recorded(gen, work, chain.site_rates, chain.move_table, times, out)
    return out


def simulate_counts(
    chain: AbsorbingChain,
    xi0: ArrayLike,
    record_times: ArrayLike,
    replicas: int,
    seed: ReplicaSeed | int,
) -> NDArray[np.int64]:
    """Site counts of independent realizations at the given times.

    Returns an int64 array of shape (replicas, len(record_times), n_sites):
    entry [r, k, x] counts the particles at site x at record_times[k] in
    replica r.  Times must be nondecreasing and start at or after 0;
    snapshots are right-continuous.  Replicas run in blocks of
    ``BLOCK_REPLICAS`` on the generators of ``ReplicaSeed.blocks``, so the
    output depends only on the seed and the arguments.
    """
    pos = validate_configuration(xi0, chain.n)
    times = _record_times(record_times)
    replicas = operator.index(replicas)
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    start = np.bincount(pos, minlength=chain.n)
    out = np.empty((replicas, times.size, chain.n), dtype=np.int64)
    for first, stop, gen in as_replica_seed(seed).blocks(replicas, BLOCK_REPLICAS):
        counts = np.tile(start, (stop - first, 1))
        _kernels.run_counts(gen, counts, chain.site_rates, chain.move_table,
                            times, out[first:stop])
    return out


def stationary_sampler(
    chain: AbsorbingChain,
    n_particles: int,
    burn_in: float,
    n_samples: int,
    spacing: float,
    seed: ReplicaSeed | int,
) -> NDArray[np.float64]:
    """Empirical-measure samples along one long trajectory.

    Starts from the balanced profile, discards [0, burn_in], then records
    the empirical measure every ``spacing`` time units, ``n_samples``
    times (first sample at burn_in + spacing).  Successive samples are
    autocorrelated; use batch-means errors downstream.
    """
    if not (burn_in > 0.0):
        raise ValueError("burn_in must be positive")
    if not (spacing > 0.0):
        raise ValueError("spacing must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    uniform = np.full(chain.n, 1.0 / chain.n)
    xi0 = configuration_from_profile(uniform, n_particles, chain.states)
    times = burn_in + spacing * np.arange(1, n_samples + 1)
    traj = simulate_trajectory(chain, xi0, times, seed)
    # Sample k's sites offset by k n, so one bincount counts every sample;
    # row k is then empirical_measure(traj[k], n) bit for bit.
    offset = traj + chain.n * np.arange(n_samples)[:, None]
    counts = np.bincount(offset.ravel(), minlength=n_samples * chain.n)
    return counts.reshape(n_samples, chain.n) / n_particles
