"""Harris-style construction: marked Poisson events driving the particles.

Instead of drawing jumps on the fly, a full realization of two marked
Poisson processes is sampled up front, per particle:

* internal events at the chain's uniformized jump rate, each carrying a
  complete map F of the live sites sampled coordinatewise from the jump
  kernel rows — the particle at site x moves to F(x);
* copy events at the maximal absorption rate, each carrying a target label
  j != i and a complete indicator field over sites, set at x with
  probability absorption(x) / max absorption — the particle copies
  particle j's position only where its current site's indicator is set.

A realization is just these two time-sorted streams.  Evolution is a
deterministic replay that merges them in time order, so the same
realization can drive every initial configuration at once (coupling), and
the set of labels that could possibly affect a particle by the horizon is
computable by a backward scan over the copy stream alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import _kernels
from .chain import AbsorbingChain
from .parallel import map_replicas
from .seeding import ReplicaSeed, as_replica_seed
from .simulator import validate_configuration

__all__ = [
    "MarkRealization",
    "OverlapEstimate",
    "InfluenceSizeEstimate",
    "sample_marks",
    "evolve",
    "influence_matrix",
    "influence_experiment",
]


@dataclass(frozen=True, eq=False)
class MarkRealization:
    """One realization of all event marks on [0, horizon].

    Two event streams, internal and copy, each flat and sorted by time;
    ``*_particle`` says whose event each entry is.  ``internal_maps[e]`` is
    the sampled full map (F[x] is the destination of site x);
    ``voter_fields[e]`` the sampled indicator field.  The replay and the
    influence scan both rely on the time order, so a stream whose times
    decrease or are not finite is rejected.
    """

    horizon: float
    n_particles: int
    n_states: int
    internal_times: NDArray[np.float64]
    internal_particle: NDArray[np.int64]
    internal_maps: NDArray[np.int64]
    voter_times: NDArray[np.float64]
    voter_particle: NDArray[np.int64]
    voter_targets: NDArray[np.int64]
    voter_fields: NDArray[np.bool_]

    def __post_init__(self) -> None:
        ei = self.internal_times.size
        ev = self.voter_times.size
        if self.internal_particle.shape != (ei,) or self.internal_maps.shape != (
            ei,
            self.n_states,
        ):
            raise ValueError("internal mark arrays have inconsistent shapes")
        if (
            self.voter_particle.shape != (ev,)
            or self.voter_targets.shape != (ev,)
            or self.voter_fields.shape != (ev, self.n_states)
        ):
            raise ValueError("voter mark arrays have inconsistent shapes")
        for kind, times in (("internal", self.internal_times),
                            ("voter", self.voter_times)):
            if not (np.all(np.isfinite(times)) and np.all(times[1:] >= times[:-1])):
                raise ValueError(f"{kind} mark times must be finite and sorted")
        labels = np.concatenate(
            [self.internal_particle, self.voter_particle, self.voter_targets])
        for what, arr, bound in (("particle and target labels", labels,
                                  self.n_particles),
                                 ("internal map sites", self.internal_maps,
                                  self.n_states)):
            # Read as unsigned, a negative entry is huge, so one max
            # catches both ends of [0, bound).
            wide = arr.astype(np.int64, copy=False).view(np.uint64)
            if wide.size and np.maximum.reduce(wide, axis=None) >= bound:
                raise ValueError(f"{what} must lie in [0, {bound})")
        for name in (
            "internal_times", "internal_particle", "internal_maps",
            "voter_times", "voter_particle", "voter_targets", "voter_fields",
        ):
            arr = getattr(self, name)
            if arr.flags.writeable:
                arr.flags.writeable = False

    @property
    def n_events(self) -> int:
        return self.internal_times.size + self.voter_times.size


def _marked_times(
    gen: np.random.Generator, rate: float, n_particles: int, horizon: float
) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
    # Unsorted; the caller sorts after deduplication so mark association
    # survives any redraw.
    counts = gen.poisson(rate * horizon, size=n_particles)
    total = int(counts.sum())
    times = gen.random(total) * horizon
    particles = np.repeat(np.arange(n_particles, dtype=np.int64), counts)
    return times, particles


def _distinct_time_order(
    gen: np.random.Generator, times: NDArray[np.float64], horizon: float
) -> NDArray[np.int64]:
    # The stable time order of ``times``, after redrawing in place every
    # repeat of an earlier entry until all times are distinct, so the
    # replay order is unambiguous.  Exact collisions have probability
    # ~ E^2 * ulp.  A stable sort puts a time's first occurrence first among
    # its equals; the repeats after it are redrawn in ascending index order.
    order = np.argsort(times, kind="stable")
    while True:
        repeat = times[order[1:]] == times[order[:-1]]
        if not repeat.any():
            return order
        redo = np.sort(order[1:][repeat])
        times[redo] = gen.random(redo.size) * horizon
        order = np.argsort(times, kind="stable")


def sample_marks(
    chain: AbsorbingChain,
    n_particles: int,
    horizon: float,
    seed: ReplicaSeed | int,
) -> MarkRealization:
    """Draw a complete mark realization for N particles on [0, horizon].

    Per particle, internal events arrive at the chain's maximal internal
    rate and copy events at the maximal absorption rate (a zero rate gives
    an empty process; horizon 0 gives an empty realization).  Fully
    determined by the seed.  Event times are globally distinct, enforced
    by redraw on collision.
    """
    if n_particles < 2:
        raise ValueError("n_particles must be at least 2")
    horizon = float(horizon)
    if not np.isfinite(horizon) or horizon < 0.0:
        raise ValueError("horizon must be finite and nonnegative")
    gen = as_replica_seed(seed).generator()
    n = chain.n

    internal_times, internal_particle = _marked_times(
        gen, chain.max_internal_rate, n_particles, horizon
    )
    ei = internal_times.size
    cum_kernel = chain.cum_jump_kernel
    draws = gen.random((ei, n))
    internal_maps = np.empty((ei, n), dtype=np.int64)
    for x in range(n):
        internal_maps[:, x] = np.searchsorted(cum_kernel[x], draws[:, x], side="right")

    c_rate = chain.max_absorption_rate
    voter_times, voter_particle = _marked_times(
        gen, c_rate, n_particles, horizon
    )
    ev = voter_times.size
    voter_targets = gen.integers(0, n_particles, size=ev)
    clash = voter_targets == voter_particle
    while np.any(clash):
        voter_targets[clash] = gen.integers(0, n_particles, size=int(clash.sum()))
        clash = voter_targets == voter_particle
    if c_rate > 0.0:
        fire_prob = chain.absorption / c_rate
    else:
        fire_prob = np.zeros(n)
    voter_fields = gen.random((ev, n)) < fire_prob

    times = np.concatenate([internal_times, voter_times])
    order = _distinct_time_order(gen, times, horizon)
    internal_order = order[order < ei]
    voter_order = order[order >= ei] - ei
    return MarkRealization(
        horizon=horizon,
        n_particles=int(n_particles),
        n_states=n,
        internal_times=times[internal_order],
        internal_particle=internal_particle[internal_order],
        internal_maps=internal_maps[internal_order],
        voter_times=times[ei:][voter_order],
        voter_particle=voter_particle[voter_order],
        voter_targets=voter_targets[voter_order],
        voter_fields=voter_fields[voter_order],
    )


def evolve(xi0: ArrayLike, marks: MarkRealization) -> NDArray[np.int64]:
    """Deterministic replay of the marks over an initial configuration.

    Same marks, different xi0 gives the coupled evolution: configurations
    agreeing on a particle's influence set produce the same position for
    that particle.
    """
    pos = validate_configuration(xi0, marks.n_states)
    if pos.size != marks.n_particles:
        raise ValueError(
            f"configuration has {pos.size} particles, marks have "
            f"{marks.n_particles}"
        )
    out = pos.copy()
    _kernels.apply_marks(
        out,
        marks.internal_times,
        marks.internal_particle,
        marks.internal_maps,
        marks.voter_times,
        marks.voter_particle,
        marks.voter_targets,
        marks.voter_fields,
    )
    return out


def influence_matrix(
    marks: MarkRealization, roots: ArrayLike | None = None
) -> NDArray[np.bool_]:
    """Backward influence sets as a boolean membership matrix.

    Row r collects the labels whose initial position could affect particle
    roots[r] at the horizon: scanning copy events backward from the
    horizon, every event of a current member adds its target label,
    whether or not the indicator field would fire.  ``roots`` defaults to
    all labels.
    """
    if roots is None:
        roots_arr = np.arange(marks.n_particles, dtype=np.int64)
    else:
        roots_arr = np.asarray(roots, dtype=np.int64)
        if roots_arr.ndim != 1 or roots_arr.size == 0:
            raise ValueError("roots must be a nonempty 1-d array")
        if roots_arr.min() < 0 or roots_arr.max() >= marks.n_particles:
            raise ValueError("root label out of range")
    out = np.zeros((roots_arr.size, marks.n_particles), dtype=np.bool_)
    _kernels.influence_matrix_kernel(
        roots_arr,
        marks.n_particles,
        marks.voter_particle,
        marks.voter_targets,
        out,
    )
    return out


@dataclass(frozen=True)
class OverlapEstimate:
    probability: float
    std_error: float
    ci_low: float
    ci_high: float
    bound: float
    replicas: int


@dataclass(frozen=True)
class InfluenceSizeEstimate:
    mean_size: float
    std_error: float
    bound: float
    replicas: int


def influence_experiment(
    chain: AbsorbingChain,
    n_particles: int,
    t: float,
    replicas: int,
    seed: ReplicaSeed | int,
) -> tuple[InfluenceSizeEstimate, OverlapEstimate]:
    """Monte Carlo check data for the two influence-set bounds.

    Each replica samples fresh marks and computes the influence sets of
    labels 0 and 1 (exchangeability makes the choice irrelevant): the mean
    of |set of 0| is compared against exp(C t) and the frequency of the
    two sets intersecting against (exp(2 C t) - 1)/(N - 1), where C is the
    chain's maximal absorption rate.  The overlap CI is the 95% normal
    approximation.
    """
    if replicas < 2:
        raise ValueError("replicas must be at least 2")
    seed = as_replica_seed(seed)
    master = seed.master_seed
    base = seed.replica_index
    roots = np.array([0, 1], dtype=np.int64)

    def one(r: int) -> tuple[int, bool]:
        marks = sample_marks(chain, n_particles, t, ReplicaSeed(master, base + r))
        rows = influence_matrix(marks, roots=roots)
        size = int(rows[0].sum())
        overlap = bool(np.any(rows[0] & rows[1]))
        return size, overlap

    results = map_replicas(one, replicas)
    sizes = np.array([s for s, _ in results], dtype=np.float64)
    overlaps = np.array([o for _, o in results], dtype=np.float64)

    c_rate = chain.max_absorption_rate
    size_est = InfluenceSizeEstimate(
        mean_size=float(sizes.mean()),
        std_error=float(sizes.std(ddof=1) / np.sqrt(replicas)),
        bound=float(np.exp(c_rate * t)),
        replicas=replicas,
    )
    p_hat = float(overlaps.mean())
    p_se = float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / replicas))
    n_bound = (np.exp(2.0 * c_rate * t) - 1.0) / (n_particles - 1)
    overlap_est = OverlapEstimate(
        probability=p_hat,
        std_error=p_se,
        ci_low=max(0.0, p_hat - 1.96 * p_se),
        ci_high=min(1.0, p_hat + 1.96 * p_se),
        bound=float(n_bound),
        replicas=replicas,
    )
    return size_est, overlap_est
