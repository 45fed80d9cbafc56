"""Deterministic per-replica random streams.

Every Monte Carlo replica owns an independent counter-based stream derived
purely from (master_seed, replica_index), so a replica's draws do not
depend on which replicas ran before it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["ReplicaSeed", "as_replica_seed"]


@dataclass(frozen=True)
class ReplicaSeed:
    """Address of one replica's random stream.

    The same (master_seed, replica_index) pair always yields the same
    generator; distinct pairs yield statistically independent streams.
    """

    master_seed: int
    replica_index: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in an unsigned 64-bit int")
        if self.replica_index < 0:
            raise ValueError("replica_index must be nonnegative")

    def seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.replica_index,)
        )

    def generator(self) -> np.random.Generator:
        # Philox is counter-based: cheap to construct per replica and
        # streams derived from distinct spawn keys never collide.
        return np.random.Generator(np.random.Philox(self.seed_sequence()))


def as_replica_seed(seed: ReplicaSeed | int) -> ReplicaSeed:
    """``seed`` itself, or replica 0 of the stream keyed by an integer seed
    (a Python or numpy integer)."""
    if isinstance(seed, ReplicaSeed):
        return seed
    return ReplicaSeed(operator.index(seed))
