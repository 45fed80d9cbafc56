"""Probability vectors on a finite state space and distances between them."""
from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DimensionMismatchError

__all__ = [
    "float_array",
    "check_distribution",
    "tv_distance",
    "empirical_measure",
]

# Mass-conservation slack accepted when validating a probability vector.
SUM_TOL = 1e-10


def float_array(values: ArrayLike, copy: bool | None = None) -> NDArray[np.float64]:
    """``values`` as a float64 array, copied as ``np.array``'s ``copy`` says.

    Every entry must be a number: numpy would also read a numeric string,
    a boolean or None (as NaN), so any of those raises TypeError naming
    the first.  An array of a numeric dtype skips the per-entry scan.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        for v in np.array(values, dtype=object).flat:
            if isinstance(v, bool) or not isinstance(
                    v, (int, float, np.integer, np.floating)):
                raise TypeError(f"got {v!r}")
    return np.array(values, dtype=np.float64, copy=copy)


def check_distribution(weights: ArrayLike, n: int | None = None) -> NDArray[np.float64]:
    """Validate and return ``weights`` as a probability vector.

    Entries must be numbers under :func:`float_array`'s rule (TypeError
    otherwise, as for one too large for a double), finite and nonnegative,
    and sum to 1 within ``SUM_TOL``.  When ``n`` is given the length must
    match it.
    """
    try:
        w = float_array(weights)
    except (TypeError, OverflowError) as exc:
        raise TypeError(f"weights must be numbers that fit a double: {exc}") from None
    if w.ndim != 1 or w.size == 0:
        raise DimensionMismatchError("expected a nonempty 1-d weight vector")
    if n is not None and w.size != n:
        raise DimensionMismatchError(f"expected {n} weights, got {w.size}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(np.sum(w))
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    return w


def tv_distance(p: ArrayLike, q: ArrayLike) -> float:
    """Total variation distance, computed as the full abs-difference sum.

    No 1/2 factor: two disjoint point masses are at distance 2.
    """
    a = np.asarray(p, dtype=np.float64)
    b = np.asarray(q, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(np.abs(a - b)))


def empirical_measure(positions: ArrayLike, n_states: int) -> NDArray[np.float64]:
    """Fraction of particles at each site: counts / len(positions)."""
    pos = np.asarray(positions)
    if pos.ndim != 1 or pos.size == 0:
        raise DimensionMismatchError("positions must be a nonempty 1-d array")
    if pos.min() < 0 or pos.max() >= n_states:
        raise ValueError("position out of range")
    counts = np.bincount(pos, minlength=n_states)
    return counts / pos.size
