"""Event-driven simulation of the interacting particle system.

N particles sit on the chain's live sites.  Each moves with the chain's
rates; when a particle draws an absorption event it is not killed but
instantly adopts the position of a uniformly chosen other particle.  The
labelled event loop is exact (no time discretization): it is uniformized,
with epochs at the constant rate N max(site_rate), a uniform particle per
epoch and a move thinned to that particle's site rate (see ``_kernels``).

``simulate`` and ``simulate_trajectory`` follow labelled particles, one
realization per call; ``stationary_sampler`` does too, but records only
the running site counts.  ``simulate_counts`` follows only the site
counts, which is all the empirical measure needs, for many replicas at
once.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import _kernels
from .chain import AbsorbingChain
from .errors import HorizonOverflowError, UnsortedTimesError
# empirical_measure is unused here but stays importable: perfbench's tracer
# patches it by attribute.
from .measures import check_distribution, empirical_measure  # noqa: F401
from .seeding import ReplicaSeed, as_replica_seed, lockstep_groups

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
    """``xi0`` as a new int64 array, which the caller may modify."""
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
    _kernels.run_events(gen, pos, chain.site_rates, chain.move_table, t)
    return pos


def check_array_size(shape: tuple[int, ...], dtype: np.dtype) -> None:
    """Raise MemoryError naming the bytes of an array of this shape and
    dtype if numpy cannot hold one, where numpy would raise ValueError."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes > sys.maxsize:
        raise MemoryError(f"Unable to allocate {nbytes} bytes for an array with "
                          f"shape {shape} and data type {np.dtype(dtype)}")


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
    _kernels.run_recorded(gen, pos, chain.site_rates, chain.move_table, times, out)
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
    snapshots are right-continuous.  Replicas run in the lockstep groups
    of ``seeding.lockstep_groups``, each block in the draw order of
    ``_kernels.run_counts``, so the output depends only on the seed and
    the arguments.
    """
    pos = validate_configuration(xi0, chain.n)
    times = _record_times(record_times)
    replicas = operator.index(replicas)
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    start = np.bincount(pos, minlength=chain.n)
    return _count_cells(chain, start[None], seed, times, replicas)[0]


def _count_cells(chain, starts, seed, times, replicas):
    # Site counts of the cells of the grid of seeding.lockstep_groups,
    # cell k starting from the site counts starts[k], as simulate_counts
    # runs it on its stream, in one array of shape (cells, replicas,
    # times, n_sites).
    shape = (len(starts), replicas, times.size, chain.n)
    check_array_size(shape, np.int64)
    out = np.empty(shape, dtype=np.int64)
    flat = out.reshape(-1, times.size, chain.n)
    for rows, owners, bounds, gens in lockstep_groups(
            as_replica_seed(seed), len(starts), replicas,
            _kernels.count_replica_bytes(chain.n)):
        _kernels.run_counts(gens, bounds, starts[owners], chain.site_rates,
                            chain.move_table, times, flat[rows])
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
    times (first sample at burn_in + spacing).  Row k is
    ``empirical_measure`` of row k of ``simulate_trajectory`` on the same
    seed, bit for bit, but the kernel records running site counts: a
    sample costs O(n_sites), and the run holds N positions and the
    (n_samples, n_sites) counts.  Successive samples are autocorrelated;
    use batch-means errors downstream.  A last time burn_in + n_samples *
    spacing that is not a finite double raises HorizonOverflowError before
    any array is built, and a grid with two equal successive times (a
    spacing below the resolution of burn_in) raises UnsortedTimesError.
    """
    if not (burn_in > 0.0):
        raise ValueError("burn_in must be positive")
    if not (spacing > 0.0):
        raise ValueError("spacing must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    # Python floats, which overflow to inf without a numpy warning.
    if not math.isfinite(float(burn_in) + float(n_samples) * float(spacing)):
        raise HorizonOverflowError(
            f"burn_in + n_samples * spacing = {burn_in:g} + {n_samples} * "
            f"{spacing:g} is not a finite double")
    uniform = np.full(chain.n, 1.0 / chain.n)
    pos = configuration_from_profile(uniform, n_particles, chain.states)
    shape = (n_samples, chain.n)
    check_array_size(shape, np.int64)
    times = burn_in + spacing * np.arange(1, n_samples + 1)
    if np.any(times[1:] == times[:-1]):
        raise UnsortedTimesError(
            f"burn_in + k * spacing repeats a sample time at burn_in="
            f"{burn_in:g}, spacing={spacing:g}: spacing is below the "
            f"resolution of burn_in")
    gen = as_replica_seed(seed).generator()
    counts = np.empty(shape, dtype=np.int64)
    _kernels.run_recorded(gen, pos, chain.site_rates, chain.move_table, times,
                          None, counts)
    return counts / n_particles
