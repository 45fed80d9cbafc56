"""Deterministic per-replica random streams.

Every Monte Carlo replica owns an independent counter-based stream derived
purely from (master_seed, replica_index), so a replica's draws do not
depend on which replicas ran before it.  Offsets and blocks of replicas
get their streams from :meth:`ReplicaSeed.offset` and
:meth:`ReplicaSeed.blocks`, and from nowhere else.
"""
from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["ReplicaSeed", "as_replica_seed"]

# Replicas per block of the count engine and of the influence scan: each
# block is one lockstep run on one generator.
BLOCK_REPLICAS = 1000


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


def as_replica_seed(seed: ReplicaSeed | int) -> ReplicaSeed:
    """``seed`` itself, or replica 0 of the stream keyed by an integer seed
    (a Python or numpy integer)."""
    if isinstance(seed, ReplicaSeed):
        return seed
    return ReplicaSeed(seed)
