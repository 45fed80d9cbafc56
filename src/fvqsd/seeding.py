"""Deterministic per-replica random streams.

Every Monte Carlo replica owns an independent counter-based stream derived
purely from (master_seed, replica_index), so a replica's draws do not
depend on which replicas ran before it.  Offsets and blocks of replicas
get their streams from :meth:`ReplicaSeed.offset` and
:meth:`ReplicaSeed.blocks`, and from nowhere else.  :func:`lockstep_groups`
states the replica grid of both packed engines: each cell's stream, and
how their blocks are grouped.
"""
from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["ReplicaSeed", "as_replica_seed"]

# Replicas per block of the count engine and of the influence scan: each
# block draws from one generator.
BLOCK_REPLICAS = 1000

# Most bytes of working set in one lockstep loop of either engine, at the
# bytes per replica that ``_kernels`` states beside each loop.  Measured
# peaks per replica are 116-148 bytes in the influence scan, and in the
# count engine 163 on two sites, 206 on three and some 44 more per site
# (8818 on 200).  So a group holds some 89000 replicas on a two-site
# chain and one block of 1000 on a 200-site one, however many a call runs.
GROUP_BYTES = 2**24


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
    seed: ReplicaSeed, cells: int, replicas: int, replica_bytes: int
) -> Iterator[tuple[slice, list[int], np.ndarray, list[np.random.Generator]]]:
    """The replica grid of the count engine and of the influence scan.

    This is the one statement of the rule.  Cell k runs ``replicas``
    replicas on ``seed.offset(k * replicas)``, in the blocks of its
    ``blocks(replicas, BLOCK_REPLICAS)``, each on its own generator; so a
    one-cell call on that seed reproduces cell k.  The blocks of all
    cells, cell by cell, are packed in order into groups; a group closes
    when its next block would take it past ``GROUP_BYTES`` at
    ``replica_bytes`` a replica, and holds at least one block.
    ``_kernels.run_counts`` or ``_kernels.scan_sizes`` steps each group in
    one loop, in which every block draws as it would in a run of its own.
    So the grouping changes no result, and a loop holds one group's
    working set however many replicas a call runs.

    Yields ``(rows, owners, bounds, gens)`` per group: ``rows`` is its
    slice of the ``cells * replicas`` replicas, cell by cell;
    ``owners[b]`` is the cell of block b, ``gens[b]`` its generator, and
    ``bounds`` the array of block bounds in ``rows``, from 0 to its length.
    """
    owners, bounds, gens = [], [0], []
    lo = 0
    for cell in range(cells):
        for first, stop, gen in seed.offset(cell * replicas).blocks(
                replicas, BLOCK_REPLICAS):
            if gens and (bounds[-1] + stop - first) * replica_bytes > GROUP_BYTES:
                yield slice(lo, lo + bounds[-1]), owners, np.array(bounds), gens
                lo += bounds[-1]
                owners, bounds, gens = [], [0], []
            owners.append(cell)
            bounds.append(bounds[-1] + stop - first)
            gens.append(gen)
    if gens:
        yield slice(lo, lo + bounds[-1]), owners, np.array(bounds), gens


def as_replica_seed(seed: ReplicaSeed | int) -> ReplicaSeed:
    """``seed`` itself, or replica 0 of the stream keyed by an integer seed
    (a Python or numpy integer)."""
    if isinstance(seed, ReplicaSeed):
        return seed
    return ReplicaSeed(seed)
