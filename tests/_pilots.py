"""Pilot computations behind the acceptance thresholds.

The Monte Carlo acceptance checks assert inequalities of the form
"estimate <= bound + 3 SE" plus a few monotonicity claims.  Replica counts
and seeds live here, shared by the acceptance tests, and running this file
as a script regenerates tests/expected_results.json with the observed
values so the chosen slacks are on record:

    python3 tests/_pilots.py                     # every section
    python3 tests/_pilots.py stationary_profiles simulator_equivalence

Named sections (the keys of ``PILOTS``) are recomputed and written into the
existing record; every other section is copied through byte for byte, so a
change that moves one random stream regenerates only the sections that
stream feeds.  An unknown name exits 2 and writes nothing.

Every computation is seeded, so the acceptance run reproduces the recorded
numbers exactly on the same dependency stack.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from fvqsd import (
    ReplicaSeed,
    conditioned_law,
    decay_rate_estimate,
    simulate,
    tv_distance,
    validate_chain,
)
from fvqsd.estimators import (
    convergence_experiment,
    correlation_experiment,
    extreme_profiles,
    product_moment_experiment,
    qsd_profile_experiment,
)
from fvqsd.graphical import evolve, influence_experiment, sample_marks
from fvqsd.simulator import configuration_from_profile

from _oracles import occupancy_law, occupancy_moments

MASTER_SEED = 20260818
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "expected_results.json")

GOLDEN_SPEC = {
    "states": ["1", "2"],
    "rates": [[0.0, 1.0], [1.0, 0.0]],
    "absorption": [1.0, 0.0],
}
SYMMETRIC_SPEC = {
    "states": ["1", "2"],
    "rates": [[0.0, 0.5], [0.5, 0.0]],
    "absorption": [0.5, 0.5],
}

# Criterion 3: exponential-decay fit.
DECAY_GRID = [0.5 + 0.25 * k for k in range(15)]

# Criterion 4: two-engine law comparison.
SIM_EQUIV = {"n_particles": 3, "xi0": [0, 0, 1], "t": 1.0, "replicas": 100_000}

# Criterion 5: covariance bound grid.
CORR_GRID = {
    "n_values": [11, 101],
    "t_values": [0.25, 0.5, 1.0],
    "replicas": 1500,
    "pairs": [["1", "2"], ["1", "1"]],
}

# Criterion 6: influence-set bounds.
INFLUENCE_GRID = {"n_values": [101, 201], "t_values": [0.25, 0.5], "replicas": 20_000}

# Criterion 7: finite-N convergence curve.
CONVERGENCE = {"t": 1.0, "n_list": [10, 40, 160], "replicas": 10_000}

# Criterion 8: stationary-profile distance and product moment.
STATIONARY = {
    "n_list": [10, 40, 160],
    "burn_in": 25.0,
    "n_samples": 600,
    "spacing": 1.0,
    "product_sites": ["1", "2"],
    "product_samples": 800,
}


def golden_chain():
    return validate_chain(GOLDEN_SPEC)


def symmetric_chain():
    return validate_chain(SYMMETRIC_SPEC)


def decay_pilot():
    chain = golden_chain()
    mu = np.array([1.0, 0.0])
    fit = decay_rate_estimate(chain, mu, DECAY_GRID)
    return {"theta": fit.theta, "r_squared": fit.r_squared}


def _occupancy_counts(configs: np.ndarray, n_particles: int) -> np.ndarray:
    # Law of the count at site index 0, one bin per count 0..N.
    at_zero = (configs == 0).sum(axis=1)
    return np.bincount(at_zero, minlength=n_particles + 1) / len(configs)


def simulator_equivalence_pilot():
    chain = golden_chain()
    n = SIM_EQUIV["n_particles"]
    xi0 = np.array(SIM_EQUIV["xi0"], dtype=np.int64)
    t = SIM_EQUIV["t"]
    replicas = SIM_EQUIV["replicas"]

    sim_final = np.empty((replicas, n), dtype=np.int64)
    for r in range(replicas):
        sim_final[r] = simulate(chain, xi0, t, ReplicaSeed(MASTER_SEED, r))
    marks_final = np.empty((replicas, n), dtype=np.int64)
    for r in range(replicas):
        marks = sample_marks(
            chain, n, t, ReplicaSeed(MASTER_SEED + 1, r))
        marks_final[r] = evolve(xi0, marks)

    sim_law = _occupancy_counts(sim_final, n)
    marks_law = _occupancy_counts(marks_final, n)
    tv = tv_distance(sim_law, marks_law)

    k0 = int((xi0 == 0).sum())
    oracle = occupancy_law(chain, n, k0, t)
    oracle_mean, _ = occupancy_moments(oracle, n)
    m_first = (sim_final == 0).mean(axis=1)
    marginal = float(m_first.mean())
    marginal_se = float(m_first.std(ddof=1) / np.sqrt(replicas))
    m_marks = (marks_final == 0).mean(axis=1)
    return {
        "tv_distance": float(tv),
        "marginal": marginal,
        "marginal_se": marginal_se,
        "oracle_marginal": float(oracle_mean),
        "marginal_gap_in_se": abs(marginal - oracle_mean) / marginal_se,
        "marks_marginal": float(m_marks.mean()),
        "marks_marginal_se": float(m_marks.std(ddof=1) / np.sqrt(replicas)),
    }


def correlation_pilot():
    cells = []
    worst = np.inf
    seed_base = 0
    for label, chain in (("golden", golden_chain()), ("symmetric", symmetric_chain())):
        for n in CORR_GRID["n_values"]:
            xi0 = configuration_from_profile(
                np.array([0.5, 0.5]), n, states=chain.states)
            for t in CORR_GRID["t_values"]:
                for x, y in CORR_GRID["pairs"]:
                    est = correlation_experiment(
                        chain, xi0, t, x, y, CORR_GRID["replicas"],
                        ReplicaSeed(MASTER_SEED + 2, seed_base))
                    seed_base += CORR_GRID["replicas"]
                    margin = est.bound + 3 * est.std_error - abs(est.covariance)
                    worst = min(worst, margin)
                    cells.append({
                        "chain": label, "N": n, "t": t, "x": x, "y": y,
                        "covariance": est.covariance, "se": est.std_error,
                        "bound": est.bound, "margin": margin,
                    })
    return {"cells": cells, "worst_margin": worst}


def influence_pilot():
    chain = golden_chain()
    cells = []
    worst_size = np.inf
    worst_overlap = np.inf
    index = 0
    for n in INFLUENCE_GRID["n_values"]:
        for t in INFLUENCE_GRID["t_values"]:
            [(size, overlap)] = influence_experiment(
                chain, [n], [t], INFLUENCE_GRID["replicas"],
                ReplicaSeed(MASTER_SEED + 3, index))
            index += 1
            size_margin = size.bound + 3 * size.std_error - size.mean_size
            overlap_margin = (
                overlap.bound + 3 * overlap.std_error - overlap.probability)
            worst_size = min(worst_size, size_margin)
            worst_overlap = min(worst_overlap, overlap_margin)
            cells.append({
                "N": n, "t": t,
                "mean_size": size.mean_size, "size_se": size.std_error,
                "size_bound": size.bound,
                "overlap": overlap.probability, "overlap_se": overlap.std_error,
                "overlap_bound": overlap.bound,
            })
    return {
        "cells": cells,
        "worst_size_margin": worst_size,
        "worst_overlap_margin": worst_overlap,
    }


def convergence_pilot():
    chain = golden_chain()
    curve = convergence_experiment(
        chain, extreme_profiles(2), CONVERGENCE["t"], CONVERGENCE["n_list"],
        CONVERGENCE["replicas"], ReplicaSeed(MASTER_SEED + 4, 0))
    return {
        "n_list": list(curve.n_values),
        "estimates": [float(v) for v in curve.estimates],
        "std_errors": [float(v) for v in curve.std_errors],
        "ratio_first_to_last": float(curve.estimates[0] / curve.estimates[-1]),
    }


def stationary_pilot():
    chain = golden_chain()
    curve = qsd_profile_experiment(
        chain, STATIONARY["n_list"], STATIONARY["burn_in"],
        STATIONARY["n_samples"], STATIONARY["spacing"],
        ReplicaSeed(MASTER_SEED + 5, 0))
    moment = product_moment_experiment(
        chain, STATIONARY["product_sites"], STATIONARY["n_list"][-1],
        STATIONARY["burn_in"], STATIONARY["product_samples"],
        STATIONARY["spacing"], ReplicaSeed(MASTER_SEED + 6, 0))
    return {
        "n_list": list(curve.n_values),
        "distances": [float(v) for v in curve.estimates],
        "std_errors": [float(v) for v in curve.std_errors],
        "product_moment": moment.estimate,
        "product_se": moment.std_error,
        "product_reference": moment.reference,
    }


PILOTS = {
    "decay_fit": decay_pilot,
    "simulator_equivalence": simulator_equivalence_pilot,
    "correlation_grid": correlation_pilot,
    "influence_bounds": influence_pilot,
    "convergence_curve": convergence_pilot,
    "stationary_profiles": stationary_pilot,
}


def write_record(record: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True,
                  default=lambda o: o.item())
        fh.write("\n")


def main(argv: list[str]) -> int:
    import time

    names = argv or list(PILOTS)
    unknown = [name for name in names if name not in PILOTS]
    if unknown:
        print(f"unknown section(s) {', '.join(unknown)}; choose from "
              f"{', '.join(PILOTS)}", file=sys.stderr)
        return 2
    record = {}
    if argv:
        with open(RESULTS_PATH) as fh:
            record = json.load(fh)
    record["master_seed"] = MASTER_SEED
    for name in names:
        start = time.perf_counter()
        record[name] = PILOTS[name]()
        print(f"{name}: {time.perf_counter() - start:.1f}s", flush=True)
    write_record(record, RESULTS_PATH)
    print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
