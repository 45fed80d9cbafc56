"""Harris-style construction: marked Poisson events driving the particles.

Instead of drawing jumps on the fly, a full realization of two marked
Poisson processes is sampled up front, each particle having its own events
of both kinds:

* internal events at the chain's uniformized jump rate r, each carrying a
  complete map F of the live sites sampled coordinatewise from the jump
  kernel rows — the particle at site x moves to F(x);
* copy events at the maximal absorption rate C, each carrying a target label
  j != i and a complete indicator field over sites, set at x with
  probability absorption(x) / max absorption — the particle copies
  particle j's position only where its current site's indicator is set.

Evolution and the backward influence scan read only the order of the
events, never their times.  Over N particles on [0, t] the two kinds
superpose into one Poisson(N (C + r) t) stream of events, each of a
uniform particle, each a copy event with probability C / (C + r)
independently, with i.i.d. marks of its kind.  So a realization is one
table of events in replay order, each a (particle, partner, site map)
triple: the particle at site x moves to map[x], or onto the partner's site
where map[x] is -1.  An internal event is its own partner and carries F;
a copy event has its target as partner and a map that is -1 where the
field is set and x elsewhere.  Evolution is a deterministic replay of the
table, so the same realization can drive every initial configuration at
once (coupling), and the set of labels that could possibly affect a
particle by the horizon is computable by a backward scan over the
(particle, partner) pairs alone.

Internal events add nobody to an influence set, so ``influence_experiment``
draws only copy pairs, and no realization: each block of replicas has one
stream, which gives every replica its event count and then one i.i.d. pair
per replica at each step of a lockstep backward scan.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import _kernels
from .chain import AbsorbingChain
from .errors import HorizonOverflowError
# map_replicas is unused here but stays importable: perfbench's tracer
# patches it by attribute.
from .parallel import map_replicas  # noqa: F401
from .seeding import BLOCK_REPLICAS, ReplicaSeed, as_replica_seed
from .simulator import validate_configuration

# influence_experiment caps its blocks so that one block's membership
# array holds at most this many bytes (16 MiB).
SCAN_BYTES = 2**24

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


def _check_size(n_particles: int, horizon: float) -> tuple[int, float]:
    n_particles = operator.index(n_particles)
    if n_particles < 2:
        raise ValueError("n_particles must be at least 2")
    horizon = float(horizon)
    if not np.isfinite(horizon) or horizon < 0.0:
        raise ValueError("horizon must be finite and nonnegative")
    return n_particles, horizon


def _event_count(
    gen: np.random.Generator, mean: float, size: int | None = None
) -> int | NDArray[np.int64]:
    # One Poisson(mean) count, or an array of size of them.  numpy's
    # Poisson sampler refuses a mean near 2**63 or above.
    try:
        return gen.poisson(mean, size)
    except ValueError:
        raise HorizonOverflowError(
            f"an expected {mean:g} mark events is beyond numpy's Poisson range"
        ) from None


def _copy_pairs(
    gen: np.random.Generator, n_particles: int, size: int
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    # size i.i.d. (particle, target) pairs of copy events: all particles,
    # then all targets.  Shifting the targets at or above the particle
    # makes them uniform over the other N - 1 labels.
    particle = gen.integers(0, n_particles, size)
    target = gen.integers(0, n_particles - 1, size)
    target += target >= particle
    return particle, target


def sample_marks(
    chain: AbsorbingChain,
    n_particles: int,
    horizon: float,
    seed: ReplicaSeed | int,
) -> MarkRealization:
    """Draw a complete mark realization for N particles on [0, horizon].

    Per particle, copy events arrive at the maximal absorption rate C and
    internal events at the maximal internal rate r, so the events of all
    particles form one Poisson stream of rate N (C + r) in which each is
    a copy event with probability C / (C + r) (horizon 0 gives an empty
    realization).  Fully determined by the seed, which is read in this
    order: the event count E ~ Poisson(N (C + r) horizon); E particles,
    then E targets, as for copy pairs (an internal event discards its
    target); E uniforms u, event e being a copy event where
    u[e] (C + r) < C; and one (E, n) uniform matrix U.  A copy row is -1
    where U[e, x] C < absorption(x) and x elsewhere; an internal row maps
    x by inverse CDF of U[e, x] on the jump kernel's row x.  An expected
    event count beyond numpy's Poisson range raises HorizonOverflowError.
    """
    n_particles, horizon = _check_size(n_particles, horizon)
    gen = as_replica_seed(seed).generator()
    n = chain.n
    c_rate = chain.max_absorption_rate
    rate = c_rate + chain.max_internal_rate
    particle, target = _copy_pairs(
        gen, n_particles, _event_count(gen, n_particles * (rate * horizon)))
    is_copy = gen.random(particle.size) * rate < c_rate
    draws = gen.random((particle.size, n))
    # u * C < absorption(x) is set with probability absorption(x) / C.
    copy_rows = np.where(draws * c_rate < chain.absorption, -1, np.arange(n))
    internal_rows = np.column_stack([
        np.searchsorted(row, column, side="right")
        for row, column in zip(chain.cum_jump_kernel, draws.T)])
    return MarkRealization(
        n_particles=n_particles, n_states=n, particle=particle,
        partner=np.where(is_copy, target, particle),
        maps=np.where(is_copy[:, None], copy_rows, internal_rows))


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
        roots_arr = np.asarray(roots)
        if roots_arr.ndim != 1 or roots_arr.size == 0:
            raise ValueError("roots must be a nonempty 1-d array")
        if roots_arr.dtype.kind not in "iu":
            raise ValueError("roots must be integer labels")
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


def _influence_samples(
    n_particles: int, mass: float, replicas: int, seed: ReplicaSeed
) -> tuple[NDArray[np.int64], NDArray[np.bool_]]:
    # Per replica, |set of 0| and whether it meets the set of 1, for a
    # per-particle expected copy count mass = C * t; influence_experiment
    # documents the blocks and their streams.  A block's membership array
    # is the prefix of buffer viewed as (2, B, N): row [r, b] is the set of
    # label r in replica b.
    n = n_particles
    rows = min(BLOCK_REPLICAS, max(1, SCAN_BYTES // (2 * n)), replicas)
    buffer = np.empty(2 * rows * n, dtype=np.bool_)
    sizes = np.empty(replicas, dtype=np.int64)
    overlaps = np.empty(replicas, dtype=np.bool_)
    for first, stop, gen in seed.blocks(replicas, rows):
        b = stop - first
        counts = _event_count(gen, n * mass, b)
        member = buffer[:2 * b * n].reshape(2, b, n)
        member.fill(False)
        member[0, :, 0] = True
        member[1, :, 1] = True
        offsets = np.arange(2 * b) * n
        for s in range(int(counts.max())):
            particle, partner = _copy_pairs(gen, n, b)
            # A replica past its last event takes an identity event.
            np.copyto(partner, particle, where=counts <= s)
            # One gather and one scatter over both roots: each member
            # particle adds its partner.
            src = np.concatenate([particle, particle])
            src += offsets
            dst = np.concatenate([partner, partner])
            dst += offsets
            buffer[dst.compress(buffer.take(src))] = True
        sizes[first:stop] = np.count_nonzero(member[0], axis=1)
        # In place, so no temporary of the block's size.
        overlaps[first:stop] = np.logical_and(
            member[0], member[1], out=member[0]).any(axis=1)
    return sizes, overlaps


def influence_experiment(
    chain: AbsorbingChain,
    n_particles: int,
    t: float,
    replicas: int,
    seed: ReplicaSeed | int,
) -> tuple[InfluenceSizeEstimate, OverlapEstimate]:
    """Monte Carlo check data for the two influence-set bounds.

    Each replica draws only its copy pairs and computes the influence sets
    of labels 0 and 1 (exchangeability makes the choice irrelevant): the
    mean of |set of 0| is compared against exp(C t) and the frequency of
    the two sets intersecting against (exp(2 C t) - 1)/(N - 1), where C is
    the chain's maximal absorption rate.  The overlap CI is the 95% normal
    approximation.

    Replicas are scanned in lockstep, in blocks of
    B = min(BLOCK_REPLICAS, max(1, SCAN_BYTES // (2 N))) on a (2, B, N)
    boolean membership array, so a block holds at most SCAN_BYTES bytes of
    membership unless N alone exceeds it.  Each block draws from its
    generator of ``ReplicaSeed.blocks``: first the B Poisson(N C t)
    copy-event counts, then at each scan step s one particle and one
    target per replica (B draws each, as ``sample_marks`` draws its copy
    pairs).  Step s is the pair s-th from the horizon; a replica with at
    most s events takes an identity event.  The pairs are i.i.d., so
    drawing them in scan order gives the same law as drawing a realization
    first.  An expected event count beyond numpy's Poisson range raises
    HorizonOverflowError.
    """
    replicas = operator.index(replicas)
    if replicas < 2:
        raise ValueError("replicas must be at least 2")
    n_particles, t = _check_size(n_particles, t)
    c_rate = chain.max_absorption_rate
    sizes, overlaps = _influence_samples(
        n_particles, c_rate * t, replicas, as_replica_seed(seed))

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
