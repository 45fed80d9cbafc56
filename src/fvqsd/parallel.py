"""Replica fan-out in index order.

Replicas run one after another in one thread, and results come back indexed
by replica, so every downstream reduction sees the same order.  The kernels
are plain Python and hold the GIL, so threads would add no speedup.
"""
from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")

__all__ = ["map_replicas"]


def map_replicas(fn: Callable[[int], T], replicas: int, threads: int = 1) -> list[T]:
    """Evaluate fn(0..replicas-1) serially, in index order.

    ``threads`` is accepted for callers that pass a thread count; it
    changes nothing.
    """
    if replicas < 0:
        raise ValueError("replicas must be nonnegative")
    return [fn(r) for r in range(replicas)]
