"""Finite Markov chains with killing.

A chain here is a finite set of named sites, nonnegative jump rates between
them, and a nonnegative absorption rate per site.  The object stores the
sub-generator restricted to the live sites; absorption is a separate vector.
Row x of ``rates`` has off-diagonal entries q(x, y) and diagonal
-(sum_y q(x, y) + absorption[x]), so rows sum to -absorption[x].
``transient_vector`` is the killed chain's law at a time t, by scaling and
squaring the uniformized matrix at a cost that grows with log(rate * t).
"""
from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import (
    ChainFormatError,
    DimensionMismatchError,
    FvqsdError,
    HorizonOverflowError,
    NegativeRateError,
    NoAbsorptionError,
    NotIrreducibleError,
    RateBoundError,
)
from .measures import check_distribution

__all__ = [
    "MAX_RATE",
    "AbsorbingChain",
    "InflowDominance",
    "validate_chain",
    "load_chain",
    "transient_vector",
    "inflow_dominance",
]

# Largest rate accepted anywhere in a chain spec.  Keeps uniformization
# constants and event counts in a numerically sane regime.
MAX_RATE = 1e6

# The largest x whose e^x is a finite double, log(DBL_MAX) ~ 709.78.
LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True, eq=False)
class AbsorbingChain:
    """Chain data, parsed and checked here, so every chain satisfies the
    hypotheses of the limit theorems however it is built.  ``rates`` and
    ``absorption`` are read as float64 arrays, shape-checked against
    ``states``, and the diagonal is recomputed from the off-diagonal rates
    and ``absorption``.  Every entry must be a number (not a string, a
    boolean or None); off-diagonal and absorption rates must be finite,
    nonnegative and at most ``MAX_RATE``; some site must have positive
    absorption; the sites must form one communicating class; and there
    must be at least one state, with no name repeated.  So every site
    rate is positive and -Q is invertible."""

    states: tuple[str, ...]
    rates: NDArray[np.float64]
    absorption: NDArray[np.float64]

    def __post_init__(self) -> None:
        states = tuple(str(s) for s in self.states)
        _require(bool(states), ChainFormatError,
                 "states must be a nonempty list of strings")
        _require(len(set(states)) == len(states), ChainFormatError,
                 "state names must be unique")
        try:
            rates = _float_array(self.rates)
            absorption = _float_array(self.absorption)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ChainFormatError(f"rate entries must be numbers that fit a "
                                   f"double: {exc}") from exc
        n = len(states)
        if rates.shape != (n, n):
            raise DimensionMismatchError(
                f"rates must be {n}x{n} for {n} states, got {rates.shape}"
            )
        if absorption.shape != (n,):
            raise DimensionMismatchError(
                f"absorption must have length {n}, got {absorption.shape}"
            )
        # The stored diagonal is definitional, whatever the caller passed.
        np.fill_diagonal(rates, 0.0)
        _require(bool(np.all(np.isfinite(rates))), NegativeRateError,
                 "jump rates must be finite")
        _require(bool(np.all(np.isfinite(absorption))), NegativeRateError,
                 "absorption rates must be finite")
        _require(bool(np.all(rates >= 0.0)), NegativeRateError,
                 "off-diagonal jump rates must be nonnegative")
        _require(bool(np.all(absorption >= 0.0)), NegativeRateError,
                 "absorption rates must be nonnegative")
        _require(bool(np.all(rates <= MAX_RATE)), RateBoundError,
                 f"jump rates must not exceed {MAX_RATE:g}")
        _require(bool(np.all(absorption <= MAX_RATE)), RateBoundError,
                 f"absorption rates must not exceed {MAX_RATE:g}")
        _require(bool(np.any(absorption > 0.0)), NoAbsorptionError,
                 "at least one site must have positive absorption rate")
        adjacency = rates > 0.0
        start = np.arange(n) == 0
        _require(bool(reachable(adjacency, start).all()
                      and reachable(adjacency.T, start).all()),
                 NotIrreducibleError,
                 "live sites must form a single communicating class")
        np.fill_diagonal(rates, -(rates.sum(axis=1) + absorption))
        rates.flags.writeable = False
        absorption.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "absorption", absorption)

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def site_rates(self) -> NDArray[np.float64]:
        """Total outflow rate per site (internal moves plus absorption)."""
        out = -np.diag(self.rates).copy()
        out.flags.writeable = False
        return out

    @cached_property
    def max_absorption_rate(self) -> float:
        return float(self.absorption.max())

    @cached_property
    def jump_rates(self) -> NDArray[np.float64]:
        """Off-diagonal jump rates q(x, y), with a zero diagonal."""
        off = self.rates.copy()
        np.fill_diagonal(off, 0.0)
        off.flags.writeable = False
        return off

    @cached_property
    def max_internal_rate(self) -> float:
        """Largest total internal jump rate over sites."""
        return float(self.jump_rates.sum(axis=1).max())

    @cached_property
    def jump_kernel(self) -> NDArray[np.float64]:
        """Row-stochastic internal jump matrix at the uniformized rate.

        p(x, y) = q(x, y) / max_internal_rate for y != x, with the leftover
        mass on the diagonal, so every row sums to one exactly.  For a
        single-site chain this is the identity.
        """
        qbar = self.max_internal_rate
        if qbar == 0.0:
            p = np.eye(self.n)
        else:
            p = self.jump_rates / qbar
            np.fill_diagonal(p, np.maximum(0.0, 1.0 - p.sum(axis=1)))
        p.flags.writeable = False
        return p

    @cached_property
    def move_table(self) -> NDArray[np.float64]:
        """Cumulative split of an event at each site, for the event loop.

        Row x holds the cumulative probability of each internal target given
        an event at site x; a draw beyond the last entry is an absorption
        attempt.  In rows of sites with zero absorption, every entry from the
        last positive target on is forced to 2.0, so rounding in the
        cumulative sum can never manufacture an absorption event there.
        Every row is sorted.
        """
        table = np.cumsum(self.jump_rates, axis=1) / self.site_rates[:, None]
        return _force_tails(table, self.jump_rates, self.absorption == 0.0)

    @cached_property
    def cum_jump_kernel(self) -> NDArray[np.float64]:
        """Row-wise cumulative :attr:`jump_kernel`, for inverse-CDF draws.

        Every entry from a row's last positive target on is forced to 2.0:
        a rounding deficit in the cumulative row cannot push a draw past
        that target, and the row stays sorted for searchsorted.
        """
        return _force_tails(np.cumsum(self.jump_kernel, axis=1),
                            self.jump_kernel, np.full(self.n, True))

    def index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise KeyError(f"unknown state {name!r}") from None


class InflowDominance(NamedTuple):
    holds: bool
    guaranteed_inflow: float
    max_absorption: float


def _force_tails(table: NDArray[np.float64], weights: NDArray[np.float64],
                 rows: NDArray[np.bool_]) -> NDArray[np.float64]:
    # The cumulative ``table``, read-only, with every entry of each row
    # marked in ``rows`` from its last positive weight on set to 2.0.  Every
    # row of a chain has a positive weight.
    seen = np.cumsum(weights > 0.0, axis=1)
    table[rows[:, None] & (seen == seen[:, -1:])] = 2.0
    table.flags.writeable = False
    return table


def _require(condition: bool, exc: type[Exception], message: str) -> None:
    if not condition:
        raise exc(message)


def _float_array(values: ArrayLike) -> NDArray[np.float64]:
    # numpy would also read a numeric string, a boolean or None (as NaN).
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        for v in np.array(values, dtype=object).flat:
            if isinstance(v, bool) or not isinstance(
                    v, (int, float, np.integer, np.floating)):
                raise TypeError(f"got {v!r}")
    return np.array(values, dtype=np.float64)


def validate_chain(spec: Mapping[str, object]) -> AbsorbingChain:
    """Check a raw chain mapping and build the chain from it.

    The mapping must carry exactly the keys ``states``, ``rates`` and
    ``absorption``, and ``states`` must be a list of strings; the
    :class:`AbsorbingChain` constructor checks the rest.
    """
    if not isinstance(spec, Mapping):
        raise ChainFormatError("chain spec must be a JSON object")
    required = {"states", "rates", "absorption"}
    unknown = set(spec) - required
    if unknown:
        raise ChainFormatError(f"unknown chain field(s): {sorted(unknown)}")
    missing = required - set(spec)
    if missing:
        raise ChainFormatError(f"missing chain field(s): {sorted(missing)}")
    states = spec["states"]
    if (not isinstance(states, (list, tuple))
            or not all(isinstance(s, str) for s in states)):
        raise ChainFormatError("states must be a nonempty list of strings")
    return AbsorbingChain(states, spec["rates"], spec["absorption"])


def reachable(
    adjacency: NDArray[np.bool_], start: NDArray[np.bool_]
) -> NDArray[np.bool_]:
    """Sites reachable along ``adjacency`` from the sites marked in
    ``start`` (themselves included)."""
    seen = start.copy()
    frontier = list(np.flatnonzero(seen))
    while frontier:
        nxt = adjacency[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = list(np.flatnonzero(nxt))
    return seen


def read_json(path: str | os.PathLike, error: type[FvqsdError]) -> object:
    """Parse a UTF-8 JSON file.  Content that does not decode (bad syntax,
    bad UTF-8, nesting too deep, an integer literal too long) raises
    ``error`` with a one-line message."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(
                f"{os.fspath(path)}: invalid JSON at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}"
            ) from exc
        except (ValueError, RecursionError) as exc:
            raise error(f"{os.fspath(path)}: invalid JSON: {exc}") from exc


def load_chain(path: str | os.PathLike) -> AbsorbingChain:
    """Read a chain from a JSON file and validate it."""
    return validate_chain(read_json(path, ChainFormatError))


def transient_vector(
    chain: AbsorbingChain, initial: ArrayLike, t: float
) -> NDArray[np.float64]:
    """Unnormalized law of the killed chain at time ``t``.

    Returns the row vector ``initial @ expm(t * rates)`` by scaling and
    squaring the uniformized matrix.  With r the largest total site rate,
    expm(t Q) = e^{-rt} expm(rt P) for the substochastic matrix
    P = I + Q / r.  The horizon is halved s times until a = rt / 2^s <= 1,
    e^{-a} expm(aP) is summed as a degree-18 Taylor series (the tail is
    below 1/19!), and the result is squared s times.  Every term and
    product is nonnegative, so the result is too, and the cost grows with
    log(rt), not rt.  The sum of the result is the survival probability.
    A horizon whose rt is not a finite double raises HorizonOverflowError.

    Rounding in the one-step matrix is compounded by the squarings, so
    the relative error of the entries grows like rt * eps: against a
    40-digit expm it is about 1e-16 at rt = 0.5, 1e-12 at rt = 5e3 and
    2.5e-10 at rt = 1e6.  Normalizing to the conditioned law cancels
    most of it on a mildly stiff chain, but not all: 3e-11 at rt = 1e6
    on a chain whose rates span six decades.
    """
    mu = check_distribution(initial, chain.n)
    t = float(t)
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    rate = float(chain.site_rates.max())
    mass = rate * t
    if not math.isfinite(mass):
        raise HorizonOverflowError(
            f"t={t:g} times the largest site rate {rate:g} is not finite"
        )
    if mass == 0.0:
        return mu

    squarings = max(0, math.frexp(mass)[1])
    a = math.ldexp(mass, -squarings)
    step = a * (np.eye(chain.n) + chain.rates / rate)
    term = np.eye(chain.n)
    # Its own identity: the in-place adds must not write into term.
    total = np.eye(chain.n)
    for k in range(1, 19):
        term = np.dot(term, step)
        term /= k
        total += term
    power = math.exp(-a) * total
    for _ in range(squarings):
        power = np.dot(power, power)
    return mu @ power


def check_bound_horizon(chain: AbsorbingChain, t: float) -> float:
    """``t``, if the bound e^(2 C t) is a finite double for the chain's
    largest absorption rate C; else HorizonOverflowError.  The covariance
    and influence-set bounds all grow like e^(2 C t) at most."""
    two_ct = 2.0 * chain.max_absorption_rate * t
    if two_ct > LOG_MAX:
        raise HorizonOverflowError(
            f"the bound e^(2 C t) overflows at 2 C t = {two_ct:g} > "
            f"log(DBL_MAX) = {LOG_MAX:.2f}")
    return t


def inflow_dominance(chain: AbsorbingChain) -> InflowDominance:
    """Diagnostic: does guaranteed inflow strictly exceed worst absorption?

    The guaranteed inflow is the sum over sites z of the smallest rate into
    z from any other single site, min_{x != z} q(x, z).  When that total
    strictly exceeds the largest absorption rate, revival pressure into
    every site beats worst-case killing.  For a single-site chain the inner
    minimum runs over an empty set and is taken as 0, so the condition
    reads false.  Purely diagnostic; nothing downstream requires it.
    """
    max_absorption = chain.max_absorption_rate
    if chain.n == 1:
        guaranteed = 0.0
    else:
        off = chain.jump_rates.copy()
        # Exclude the diagonal from the per-column minimum.
        np.fill_diagonal(off, np.inf)
        guaranteed = float(off.min(axis=0).sum())
    return InflowDominance(
        holds=bool(guaranteed > max_absorption),
        guaranteed_inflow=guaranteed,
        max_absorption=max_absorption,
    )
