"""Harris-style construction: marked Poisson events driving the particles.

Instead of drawing jumps on the fly, a full realization of two marked
Poisson processes is sampled up front, each particle having its own events
of both kinds:

* internal events at the chain's uniformized jump rate, each carrying a
  complete map F of the live sites sampled coordinatewise from the jump
  kernel rows — the particle at site x moves to F(x);
* copy events at the maximal absorption rate, each carrying a target label
  j != i and a complete indicator field over sites, set at x with
  probability absorption(x) / max absorption — the particle copies
  particle j's position only where its current site's indicator is set.

Evolution and the backward influence scan read only the order of the
events, never their times.  Over N particles on [0, t] the copy events are
Poisson(N C t) many, each of a uniform particle with i.i.d. marks; the
internal events likewise; and the two kinds interleave uniformly at
random.  So a realization is one table of events in replay order, each a
(particle, partner, site map) triple: the particle at site x moves to
map[x], or onto the partner's site where map[x] is -1.  An internal event
is its own partner and carries F; a copy event has its target as partner
and a map that is -1 where the field is set and x elsewhere.  Evolution is
a deterministic replay of the table, so the same realization can drive
every initial configuration at once (coupling), and the set of labels that
could possibly affect a particle by the horizon is computable by a
backward scan over the (particle, partner) pairs alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import _kernels
from .chain import AbsorbingChain
from .errors import HorizonOverflowError
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
    """One realization of all event marks on [0, horizon], in replay order.

    Event e moves ``particle[e]`` from its site x to ``maps[e, x]``, or
    onto the current site of ``partner[e]`` where that entry is -1.  An
    internal event has ``partner[e] == particle[e]`` and its sampled full
    map; a copy event has its target as partner, and its row holds -1
    where the sampled indicator field is set and x where it is not.
    """

    n_particles: int
    n_states: int
    particle: NDArray[np.int64]
    partner: NDArray[np.int64]
    maps: NDArray[np.int64]

    def __post_init__(self) -> None:
        arrays = (self.particle, self.partner, self.maps)
        e = self.particle.size
        for name, arr, shape in zip(("particle", "partner", "maps"), arrays,
                                    ((e,), (e,), (e, self.n_states))):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            if arr.dtype.kind not in "iu":
                raise ValueError(f"{name} must be an integer array")
        labels = np.concatenate([self.particle, self.partner])
        for what, arr, lo, hi in (
            ("particle and partner labels", labels, 0, self.n_particles),
            ("map sites", self.maps, -1, self.n_states),
        ):
            if arr.size and (np.minimum.reduce(arr, axis=None) < lo
                             or np.maximum.reduce(arr, axis=None) >= hi):
                raise ValueError(f"{what} must lie in [{lo}, {hi})")
        for arr in arrays:
            arr.flags.writeable = False

    @property
    def n_events(self) -> int:
        return self.particle.size


def _check_size(n_particles: int, horizon: float) -> float:
    if n_particles < 2:
        raise ValueError("n_particles must be at least 2")
    horizon = float(horizon)
    if not np.isfinite(horizon) or horizon < 0.0:
        raise ValueError("horizon must be finite and nonnegative")
    return horizon


def _event_count(gen: np.random.Generator, mean: float) -> int:
    # numpy's Poisson sampler refuses a mean near 2**63 or above.
    try:
        return int(gen.poisson(mean))
    except ValueError:
        raise HorizonOverflowError(
            f"an expected {mean:g} mark events is beyond numpy's Poisson range"
        ) from None


def _copy_pairs(
    gen: np.random.Generator, n_particles: int, mass: float
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    # The (particle, target) pairs of the copy events in replay order, for
    # a per-particle expected count mass = C * horizon.  Shifting the
    # targets at or above the particle makes them uniform over the other
    # N - 1 labels.
    k = _event_count(gen, n_particles * mass)
    particle = gen.integers(0, n_particles, k)
    target = gen.integers(0, n_particles - 1, k)
    target += target >= particle
    return particle, target


def sample_marks(
    chain: AbsorbingChain,
    n_particles: int,
    horizon: float,
    seed: ReplicaSeed | int,
) -> MarkRealization:
    """Draw a complete mark realization for N particles on [0, horizon].

    Per particle, internal events arrive at the chain's maximal internal
    rate and copy events at the maximal absorption rate (a zero rate gives
    no events of that kind; horizon 0 gives an empty realization).  Fully
    determined by the seed, which is read in this order: the copy pairs,
    their indicator fields, the internal particles and maps, and last the
    interleaving.  An expected event count beyond numpy's Poisson range
    raises HorizonOverflowError.
    """
    horizon = _check_size(n_particles, horizon)
    gen = as_replica_seed(seed).generator()
    n = chain.n

    c_rate = chain.max_absorption_rate
    copy_particle, target = _copy_pairs(gen, n_particles, c_rate * horizon)
    # u * C < absorption(x) is set with probability absorption(x) / C.
    fields = gen.random((copy_particle.size, n)) * c_rate < chain.absorption

    ei = _event_count(gen, n_particles * (chain.max_internal_rate * horizon))
    internal_particle = gen.integers(0, n_particles, ei)
    cum_kernel = chain.cum_jump_kernel
    draws = gen.random((ei, n))
    internal_maps = np.empty((ei, n), dtype=np.int64)
    for x in range(n):
        internal_maps[:, x] = np.searchsorted(cum_kernel[x], draws[:, x], side="right")

    is_copy = np.repeat([True, False], [copy_particle.size, ei])
    gen.shuffle(is_copy)
    # The k-th copy event takes the k-th set place of is_copy and the k-th
    # internal event its k-th unset place.
    is_internal = ~is_copy
    particle = np.empty(is_copy.size, dtype=np.int64)
    particle[is_copy] = copy_particle
    particle[is_internal] = internal_particle
    partner = particle.copy()
    partner[is_copy] = target
    maps = np.empty((is_copy.size, n), dtype=np.int64)
    maps[is_copy] = np.where(fields, -1, np.arange(n))
    maps[is_internal] = internal_maps
    return MarkRealization(n_particles=int(n_particles), n_states=n,
                           particle=particle, partner=partner, maps=maps)


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
    _kernels.apply_marks(out, marks.particle, marks.partner, marks.maps)
    return out


def influence_matrix(
    marks: MarkRealization, roots: ArrayLike | None = None
) -> NDArray[np.bool_]:
    """Backward influence sets as a boolean membership matrix.

    Row r collects the labels whose initial position could affect particle
    roots[r] at the horizon: scanning the events backward from the
    horizon, every event of a current member adds its partner, whether or
    not its map would take the partner's site.  An internal event's
    partner is its own particle, so it adds nothing.  ``roots`` defaults
    to all labels.
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
        roots_arr, marks.n_particles, marks.particle, marks.partner, out)
    return out


@dataclass(frozen=True)
class OverlapEstimate:
    probability: float
    std_error: float
    ci_low: float
    ci_high: float
    bound: float


@dataclass(frozen=True)
class InfluenceSizeEstimate:
    mean_size: float
    std_error: float
    bound: float


def influence_experiment(
    chain: AbsorbingChain,
    n_particles: int,
    t: float,
    replicas: int,
    seed: ReplicaSeed | int,
) -> tuple[InfluenceSizeEstimate, OverlapEstimate]:
    """Monte Carlo check data for the two influence-set bounds.

    Each replica draws only its copy pairs, the prefix that
    ``sample_marks`` draws first from the same seed, and computes the
    influence sets of labels 0 and 1 (exchangeability makes the choice
    irrelevant): the mean of |set of 0| is compared against exp(C t) and the
    frequency of the two sets intersecting against (exp(2 C t) - 1)/(N - 1),
    where C is the chain's maximal absorption rate.  The overlap CI is the
    95% normal approximation.
    """
    if replicas < 2:
        raise ValueError("replicas must be at least 2")
    t = _check_size(n_particles, t)
    seed = as_replica_seed(seed)
    master = seed.master_seed
    base = seed.replica_index
    mass = chain.max_absorption_rate * t
    roots = np.array([0, 1], dtype=np.int64)

    def one(r: int) -> tuple[int, bool]:
        gen = ReplicaSeed(master, base + r).generator()
        particle, target = _copy_pairs(gen, n_particles, mass)
        rows = _kernels.influence_matrix_kernel(
            roots, n_particles, particle, target,
            np.empty((2, n_particles), dtype=np.bool_))
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
    )
    return size_est, overlap_est
