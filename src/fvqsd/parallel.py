"""Replica fan-out with deterministic merge order.

Results come back indexed by replica, never by completion order, so the
thread count cannot change any downstream reduction.  The kernels are plain
Python and hold the GIL, so more than one thread gives the same bytes but
no speedup; the CLI defaults to one.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")

__all__ = ["map_replicas"]


def map_replicas(fn: Callable[[int], T], replicas: int, threads: int = 1) -> list[T]:
    """Evaluate fn(0..replicas-1), possibly in parallel, in index order."""
    if replicas < 0:
        raise ValueError("replicas must be nonnegative")
    if threads <= 1 or replicas <= 1:
        return [fn(r) for r in range(replicas)]
    chunk = max(1, replicas // (threads * 8))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(replicas), chunksize=chunk))
