"""Host-speed reference for scaling wall times on a shared host.

On a few vCPUs of a shared machine, the speed this process gets drifts by
up to 2x over tens of seconds, and the drift moves every kind of work
alike (see NOTES.md, Host-speed scaling).  `reference_seconds()` times a
fixed piece of work that is the benchmark's own code, never fvqsd's: the
mix the workloads spend their time on, i.e. scalar reads and stores on
small numpy arrays in a Python loop (the numpy fallback of the kernels),
small-array numpy calls, and plain Python object work (argument parsing,
JSON, dicts).  A change to fvqsd cannot make it faster or slower.

The runner times a slice on either side of every timed round and set-up,
and scales each round's time by ``REFERENCE_S`` over the mean of its two
slices:
the time the work takes on a host where the reference takes exactly
``REFERENCE_S``.  That cancels drift slower than a round; faster jitter is
left to the median over rounds.  A slice takes about 0.15 s, long enough
that its own jitter adds little to the scaled times.

A set-up is a fresh interpreter start with its imports, then Python and
numpy work to build the inputs.  The two parts drift apart: between two
sets of runs, interpreter starts got 32% faster while the slice kept its
speed.  So each set-up is scaled by the sum of a reference interpreter
start timed right before it (``START_REFERENCE_ARGS``) and the mean of
the slices on either side, against ``START_REFERENCE_S + REFERENCE_S``.
"""
from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# Typical time of `reference_seconds()` on the host the baseline was
# measured on (2 vCPUs, Intel Xeon, Python 3.11, numpy 2.4; medians of
# 0.14-0.16 s per set of runs); scaled times are in seconds of that host.
REFERENCE_S = 0.155

# Reference for set-up times: a fresh interpreter that imports numpy, the
# bulk of what any set-up does before fvqsd's own imports (process start,
# loading extension modules, unmarshalling), and none of fvqsd's code.
START_REFERENCE_ARGS = ("-c", "import numpy; print('ready', flush=True)")
# Its typical time to 'ready' on the baseline host (0.14-0.22 s measured).
START_REFERENCE_S = 0.18

_POSITIONS = np.arange(256, dtype=np.int64) % 3
_RATES = np.array([1.0, 2.0, 3.0])
_VECTOR = np.linspace(0.0, 1.0, 1000)


def _reference_work() -> float:
    gen = np.random.default_rng(12345)
    marks = np.zeros((4, 256), dtype=np.bool_)
    acc = 0.0
    # Scalar reads and stores on small numpy arrays in a Python loop, as in
    # the numpy fallback of _kernels.
    for r in range(900):
        u = gen.random() * 512.0
        row = r % 4
        for k in range(256):
            acc += _RATES[_POSITIONS[k]]
            if u < acc:
                acc -= u
                marks[row, k] = True
    # Small-array numpy calls.
    for _ in range(4500):
        acc += float(np.searchsorted(np.cumsum(_VECTOR), acc % 500.0))
    # Python object work.
    for k in range(3000):
        record = {"k": k, "name": f"site{k % 7}", "values": [k, acc, k * 0.5]}
        acc += len(json.dumps(record)) * 1e-6
    return acc + float(marks.sum())


def reference_seconds() -> float:
    """Wall time of one fixed reference slice."""
    start = perf_counter()
    _reference_work()
    return perf_counter() - start
