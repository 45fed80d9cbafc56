"""Timing comparison of the compiled kernels against the numpy fallback.

Runs each workload in this process (compiled when numba is installed and
FVQSD_DISABLE_JIT is not set) and again in a subprocess with
FVQSD_DISABLE_JIT=1, checks that both modes produce identical outputs, and
prints a table.  When this process runs the numpy fallback too, there is
no compiled side to compare, so it prints one line saying so and exits:

    python3 benchmarks/benchmark_kernels.py
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time

import numpy as np

from fvqsd import ReplicaSeed, simulate, validate_chain
from fvqsd._kernels import USING_JIT
from fvqsd.graphical import evolve, influence_matrix, sample_marks

CHAIN_SPEC = {
    "states": ["1", "2", "3"],
    "rates": [[0.0, 2.0, 0.5], [1.0, 0.0, 1.0], [0.5, 3.0, 0.0]],
    "absorption": [0.5, 0.0, 1.5],
}

WORKLOADS = {
    "simulate N=500 t=20 x20": lambda chain: [
        simulate(chain, np.zeros(500, dtype=np.int64), 20.0, ReplicaSeed(1, r))
        for r in range(20)
    ],
    "marks+evolve N=300 t=10 x20": lambda chain: [
        evolve(
            np.zeros(300, dtype=np.int64),
            sample_marks(chain, 300, 10.0, ReplicaSeed(2, r)),
        )
        for r in range(20)
    ],
    "influence N=300 t=2 x50": lambda chain: [
        influence_matrix(sample_marks(chain, 300, 2.0, ReplicaSeed(3, r)))
        for r in range(50)
    ],
}


def run_workloads() -> dict[str, dict[str, object]]:
    chain = validate_chain(CHAIN_SPEC)
    results = {}
    for name, fn in WORKLOADS.items():
        fn(chain)  # warm-up: triggers compilation in jit mode
        start = time.perf_counter()
        out = fn(chain)
        elapsed = time.perf_counter() - start
        digest = hashlib.md5()
        for arr in out:
            digest.update(np.ascontiguousarray(arr).tobytes())
        results[name] = {"seconds": elapsed, "digest": digest.hexdigest()}
    return results


def main() -> int:
    if "--emit-json" in sys.argv:
        print(json.dumps(run_workloads()))
        return 0

    if not USING_JIT:
        reason = ("numba not installed" if importlib.util.find_spec("numba") is None
                  else "FVQSD_DISABLE_JIT set")
        print(f"kernels: numpy fallback ({reason}); no compiled kernels to "
              "compare, so no timings are shown")
        return 0

    here = run_workloads()
    env = dict(os.environ, FVQSD_DISABLE_JIT="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--emit-json"],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 1
    fallback = json.loads(proc.stdout)

    print("this process: numba; subprocess: numpy fallback\n")
    print(f"{'workload':<30} {'compiled':>10} {'fallback':>10} {'speedup':>8}")
    agree = True
    for name, stats in here.items():
        other = fallback[name]
        match = stats["digest"] == other["digest"]
        agree = agree and match
        ratio = other["seconds"] / stats["seconds"]
        flag = "" if match else "  OUTPUT MISMATCH"
        print(
            f"{name:<30} {stats['seconds']:>9.3f}s {other['seconds']:>9.3f}s"
            f" {ratio:>7.1f}x{flag}"
        )
    if not agree:
        print("\nfallback outputs diverged from compiled outputs")
        return 1
    print("\noutputs bitwise identical across modes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
