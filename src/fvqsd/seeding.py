"""Deterministic per-replica random streams.

Every Monte Carlo replica owns an independent counter-based stream derived
purely from (master_seed, replica_index), so a replica's draws do not
depend on which replicas ran before it.  Offsets and blocks of replicas
get their streams from :meth:`ReplicaSeed.offset` and
:meth:`ReplicaSeed.blocks`, and from nowhere else.  :func:`lockstep_groups`
packs blocks into the groups that the count engine and the influence scan
each step in one loop.
"""
from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["ReplicaSeed", "as_replica_seed"]

# Replicas per block of the count engine and of the influence scan: each
# block draws from one generator.
BLOCK_REPLICAS = 1000

# Most replicas stepped in one lockstep loop of either engine.  Both hold
# a few numbers per replica while they step: about 140 bytes in the
# influence scan, and in the count engine about 190 on a two-site chain
# and 230 on a three-site one, some 50 more per site.  So a full group's
# working set is 9-15 MiB on such chains, however many replicas a call
# runs.
GROUP_REPLICAS = 2**16


@dataclass(frozen=True)
class ReplicaSeed:
    """Address of one replica's random stream.

    The same (master_seed, replica_index) pair always yields the same
    generator; distinct pairs yield statistically independent streams.
    Both fields are integers (Python or numpy), stored as Python ints.
    """

    master_seed: int
    replica_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "replica_index"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in an unsigned 64-bit int")
        if self.replica_index < 0:
            raise ValueError("replica_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        # Philox is counter-based: cheap to construct per replica and
        # streams derived from distinct spawn keys never collide.
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.replica_index,))))

    def offset(self, k: int) -> ReplicaSeed:
        """The stream ``k`` replicas past this one."""
        return ReplicaSeed(self.master_seed, self.replica_index + k)

    def blocks(
        self, replicas: int, size: int
    ) -> Iterator[tuple[int, int, np.random.Generator]]:
        """``(first, stop, generator)`` for replicas [first, stop), in
        blocks of ``size``: the block starting at replica ``first`` draws
        from ``self.offset(first).generator()``, so a run that starts at a
        later block reproduces that block of the longer run."""
        for first in range(0, replicas, size):
            yield first, min(first + size, replicas), self.offset(first).generator()


def lockstep_groups(
    seeds: Sequence[ReplicaSeed], replicas: int, size: int
) -> Iterator[list[tuple[int, int, np.random.Generator]]]:
    """The blocks of ``replicas`` replicas of each seed, as
    ``seed.blocks(replicas, size)`` gives them, packed in order into
    lockstep groups of at most ``GROUP_REPLICAS`` replicas.  Yields each
    group as a list of ``(cell, replicas, generator)``, one per block,
    ``cell`` being the index of the block's seed."""
    group: list[tuple[int, int, np.random.Generator]] = []
    filled = 0
    for cell, seed in enumerate(seeds):
        for first, stop, gen in seed.blocks(replicas, size):
            if group and filled + stop - first > GROUP_REPLICAS:
                yield group
                group, filled = [], 0
            group.append((cell, stop - first, gen))
            filled += stop - first
    if group:
        yield group


def as_replica_seed(seed: ReplicaSeed | int) -> ReplicaSeed:
    """``seed`` itself, or replica 0 of the stream keyed by an integer seed
    (a Python or numpy integer)."""
    if isinstance(seed, ReplicaSeed):
        return seed
    return ReplicaSeed(seed)
