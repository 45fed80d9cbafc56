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

Evolution is then a deterministic replay of the merged event list, so the
same realization can drive every initial configuration at once (coupling),
and the set of labels that could possibly affect a particle by the horizon
is computable by a backward scan over copy events alone.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import BinaryIO

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
    "influence_sets",
    "influence_experiment",
    "save_marks",
    "load_marks",
]

_MAGIC = b"FVQSDMK1"


@dataclass(frozen=True, eq=False)
class MarkRealization:
    """One realization of all event marks on [0, horizon].

    Event arrays are flat and time-sorted; `*_particle` says whose event
    each entry is.  `internal_maps[e]` is the sampled full map (F[x] is the
    destination of site x); `voter_fields[e]` the sampled indicator field.
    The merged replay order is precomputed once so repeated evolutions are
    cheap.
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
    event_kind: NDArray[np.int8] = field(init=False, repr=False)
    event_particle: NDArray[np.int64] = field(init=False, repr=False)
    event_index: NDArray[np.int64] = field(init=False, repr=False)

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
        times = np.concatenate([self.internal_times, self.voter_times])
        kinds = np.concatenate(
            [np.zeros(ei, dtype=np.int8), np.ones(ev, dtype=np.int8)]
        )
        particles = np.concatenate([self.internal_particle, self.voter_particle])
        index = np.concatenate(
            [np.arange(ei, dtype=np.int64), np.arange(ev, dtype=np.int64)]
        )
        # Times are distinct by construction; the extra lexsort keys are a
        # deterministic tie-break should a hand-built realization collide.
        order = np.lexsort((kinds, particles, times))
        object.__setattr__(self, "event_kind", kinds[order])
        object.__setattr__(self, "event_particle", particles[order])
        object.__setattr__(self, "event_index", index[order])
        for name in (
            "internal_times", "internal_particle", "internal_maps",
            "voter_times", "voter_particle", "voter_targets", "voter_fields",
            "event_kind", "event_particle", "event_index",
        ):
            arr = getattr(self, name)
            if arr.flags.writeable:
                arr.flags.writeable = False

    @property
    def n_events(self) -> int:
        return self.event_kind.size


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


def _dedupe_times(
    gen: np.random.Generator,
    internal_times: NDArray[np.float64],
    voter_times: NDArray[np.float64],
    horizon: float,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    # Exact collisions have probability ~ E^2 * ulp; redraw until clean so
    # downstream ordering is unambiguous.
    ei = internal_times.size
    both = np.concatenate([internal_times, voter_times])
    while both.size:
        _, first_pos, counts = np.unique(both, return_index=True, return_counts=True)
        if not np.any(counts > 1):
            break
        dupes = np.ones(both.size, dtype=bool)
        dupes[first_pos] = False
        both[dupes] = gen.random(int(dupes.sum())) * horizon
    return both[:ei], both[ei:]


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
    cum_kernel = np.cumsum(chain.jump_kernel, axis=1)
    # Force everything from the last positive target per row above 1: a
    # rounding deficit in the cumulative row cannot push a draw past it,
    # and the row stays sorted for searchsorted.
    for x in range(n):
        positive = np.flatnonzero(chain.jump_kernel[x] > 0.0)
        cum_kernel[x, positive[-1]:] = 2.0
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

    internal_times, voter_times = _dedupe_times(
        gen, internal_times, voter_times, horizon
    )
    internal_order = np.argsort(internal_times)
    voter_order = np.argsort(voter_times)
    return MarkRealization(
        horizon=horizon,
        n_particles=int(n_particles),
        n_states=n,
        internal_times=internal_times[internal_order],
        internal_particle=internal_particle[internal_order],
        internal_maps=internal_maps[internal_order],
        voter_times=voter_times[voter_order],
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
        marks.event_kind,
        marks.event_particle,
        marks.event_index,
        marks.internal_maps,
        marks.voter_targets,
        marks.voter_fields,
    )
    return out


def _window_start(marks: MarkRealization, window: float | None) -> float:
    if window is None:
        return 0.0
    window = float(window)
    if not (0.0 <= window <= marks.horizon):
        raise ValueError("window must lie within [0, horizon]")
    return marks.horizon - window


def influence_matrix(
    marks: MarkRealization,
    window: float | None = None,
    roots: ArrayLike | None = None,
) -> NDArray[np.bool_]:
    """Backward influence sets as a boolean membership matrix.

    Row r collects the labels whose position at the window start could
    affect particle roots[r] at the horizon: scanning copy events backward
    from the horizon, every event of a current member adds its target
    label, whether or not the indicator field would fire.  ``window``
    restricts the scan to the trailing part of [0, horizon]; default is
    the whole window.  ``roots`` defaults to all labels.
    """
    t_start = _window_start(marks, window)
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
        marks.voter_times,
        marks.voter_particle,
        marks.voter_targets,
        t_start,
        out,
    )
    return out


def influence_sets(
    marks: MarkRealization, window: float | None = None
) -> list[frozenset[int]]:
    """Influence sets per label, as frozensets of particle labels."""
    matrix = influence_matrix(marks, window)
    return [frozenset(np.flatnonzero(row).tolist()) for row in matrix]


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
    threads: int = 1,
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

    results = map_replicas(one, replicas, threads)
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


def save_marks(marks: MarkRealization, path_or_file) -> None:
    """Binary dump for replay: versioned magic, sizes, little-endian arrays."""
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    fh: BinaryIO = open(path_or_file, "wb") if own else path_or_file
    try:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<dQQQQ",
                marks.horizon,
                marks.n_particles,
                marks.n_states,
                marks.internal_times.size,
                marks.voter_times.size,
            )
        )
        for arr, dtype in (
            (marks.internal_times, "<f8"),
            (marks.internal_particle, "<i8"),
            (marks.internal_maps, "<i8"),
            (marks.voter_times, "<f8"),
            (marks.voter_particle, "<i8"),
            (marks.voter_targets, "<i8"),
            (marks.voter_fields, "u1"),
        ):
            fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    finally:
        if own:
            fh.close()


def load_marks(path_or_file) -> MarkRealization:
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    fh: BinaryIO = open(path_or_file, "rb") if own else path_or_file
    try:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a mark dump (bad magic {magic!r})")
        header = fh.read(struct.calcsize("<dQQQQ"))
        horizon, n_particles, n_states, ei, ev = struct.unpack("<dQQQQ", header)

        def read_array(count: int, dtype: str, shape) -> np.ndarray:
            raw = fh.read(count * np.dtype(dtype).itemsize)
            arr = np.frombuffer(raw, dtype=dtype).copy()
            if arr.size != count:
                raise ValueError("truncated mark dump")
            return arr.reshape(shape)

        internal_times = read_array(ei, "<f8", (ei,))
        internal_particle = read_array(ei, "<i8", (ei,))
        internal_maps = read_array(ei * n_states, "<i8", (ei, n_states))
        voter_times = read_array(ev, "<f8", (ev,))
        voter_particle = read_array(ev, "<i8", (ev,))
        voter_targets = read_array(ev, "<i8", (ev,))
        voter_fields = read_array(ev * n_states, "u1", (ev, n_states)).astype(bool)
        trailing = fh.read(1)
        if trailing:
            raise ValueError("trailing bytes after mark dump payload")
    finally:
        if own:
            fh.close()
    return MarkRealization(
        horizon=float(horizon),
        n_particles=int(n_particles),
        n_states=int(n_states),
        internal_times=internal_times,
        internal_particle=internal_particle,
        internal_maps=internal_maps.astype(np.int64),
        voter_times=voter_times,
        voter_particle=voter_particle.astype(np.int64),
        voter_targets=voter_targets.astype(np.int64),
        voter_fields=voter_fields,
    )
