"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see a verdict line per
criterion.  Monte Carlo replica counts and seeds come from tests/_pilots.py;
the recorded pilot outcomes in tests/expected_results.json pin the expected
values, and every stochastic check here reproduces them exactly because the
streams are counter-based and fully seeded.
"""
from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np
import pytest

from fvqsd import (
    ReplicaSeed,
    conditioned_law,
    forward_ode,
    qsd,
)
from fvqsd.cli import run as cli_run
from fvqsd.estimators import covariance_bound
from fvqsd.graphical import evolve, influence_matrix, sample_marks

import _pilots
from _oracles import GOLD_ALPHA, GOLD_GAP, GOLD_NU, dominant_left_eigenpair
from conftest import make_random_chain

RECORDED = json.load(open(_pilots.RESULTS_PATH))


def _report(num: int, label: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {num:2d} [{verdict}] {label}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def _check_recorded(section: str, fresh: dict) -> None:
    # The seeded reruns must reproduce the recorded pilot numbers.
    recorded = RECORDED[section]
    for key, value in fresh.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            assert np.isclose(value, recorded[key], rtol=1e-9, atol=1e-12), (
                section, key, value, recorded[key])


def test_pilots_regenerate_only_named_sections(tmp_path, monkeypatch, capsys):
    # A named section is recomputed; the rest of the record is copied
    # through, so restoring that one section gives the original bytes.
    original = open(_pilots.RESULTS_PATH).read()
    path = tmp_path / "expected_results.json"
    path.write_text(original)
    monkeypatch.setattr(_pilots, "RESULTS_PATH", str(path))
    monkeypatch.setitem(_pilots.PILOTS, "decay_fit",
                        lambda: {"theta": 1.5, "r_squared": 0.5})
    assert _pilots.main(["decay_fit"]) == 0
    record = json.loads(path.read_text())
    assert record["decay_fit"] == {"theta": 1.5, "r_squared": 0.5}
    record["decay_fit"] = RECORDED["decay_fit"]
    _pilots.write_record(record, str(path))
    assert path.read_text() == original

    assert _pilots.main(["decay_fit", "no_such_section"]) == 2
    assert "no_such_section" in capsys.readouterr().err
    assert path.read_text() == original


@pytest.fixture(scope="module")
def random_family():
    rng = np.random.default_rng(_pilots.MASTER_SEED)
    return [make_random_chain(rng) for _ in range(100)]


@pytest.fixture(scope="module")
def family_solutions(random_family):
    return [qsd(chain, tol=1e-12, max_iter=10**7) for chain in random_family]


@pytest.fixture(scope="module")
def golden():
    return _pilots.golden_chain()


def test_criterion_01_qsd_matches_dense_eigensolve(
        random_family, family_solutions, golden):
    worst_nu = 0.0
    for chain, sol in zip(random_family, family_solutions):
        _, nu_ref = dominant_left_eigenpair(chain.rates)
        worst_nu = max(worst_nu, float(np.abs(sol.nu - nu_ref).sum()))

    gold = qsd(golden, tol=1e-12, max_iter=10**7)
    nu_err = float(np.abs(gold.nu - GOLD_NU).max())
    alpha_err = abs(gold.alpha - GOLD_ALPHA)

    _report(
        1, "qsd vs dense eigensolve on 100 chains + golden closed form",
        worst_nu <= 1e-8 and nu_err <= 1e-9 and alpha_err <= 1e-9,
        f"worst nu l1 {worst_nu:.2e}, golden nu {nu_err:.2e}, "
        f"alpha {alpha_err:.2e}")


def test_criterion_02_semigroup_cross_validation(
        random_family, family_solutions):
    worst_cross = 0.0
    worst_fixed = 0.0
    for chain, sol in zip(random_family, family_solutions):
        mu = np.full(len(chain.states), 1.0 / len(chain.states))
        step = 0.09 / max(float(chain.site_rates.max()), 1e-12)
        for t in (0.5, 1.0, 3.0):
            gap = np.abs(
                conditioned_law(chain, mu, t)
                - forward_ode(chain, mu, t, step)).sum()
            worst_cross = max(worst_cross, float(gap))
        fixed = np.abs(conditioned_law(chain, sol.nu, 1.0) - sol.nu).sum()
        worst_fixed = max(worst_fixed, float(fixed))

    _report(
        2, "conditioned_law vs forward_ode, and T_t nu = nu",
        worst_cross <= 1e-6 and worst_fixed <= 1e-8,
        f"worst cross {worst_cross:.2e}, worst fixed-point {worst_fixed:.2e}")


def test_criterion_03_exponential_decay_rate():
    fresh = _pilots.decay_pilot()
    _check_recorded("decay_fit", fresh)
    rel = abs(fresh["theta"] - GOLD_GAP) / GOLD_GAP
    _report(
        3, "decay-rate fit on the golden chain",
        rel <= 0.05 and fresh["r_squared"] >= 0.999,
        f"theta {fresh['theta']:.4f} vs {GOLD_GAP:.4f} "
        f"({100 * rel:.2f}%), R2 {fresh['r_squared']:.5f}")


def test_criterion_04_simulator_matches_graphical_construction():
    fresh = _pilots.simulator_equivalence_pilot()
    _check_recorded("simulator_equivalence", fresh)
    _report(
        4, "event-driven simulator vs graphical evolve vs master equation",
        fresh["tv_distance"] <= 0.01 and fresh["marginal_gap_in_se"] <= 3.0,
        f"TV {fresh['tv_distance']:.4f}, "
        f"marginal gap {fresh['marginal_gap_in_se']:.2f} SE")


def test_criterion_05_covariance_bound_grid(golden):
    fresh = _pilots.correlation_pilot()
    assert len(fresh["cells"]) == 24
    recorded_cells = RECORDED["correlation_grid"]["cells"]
    for cell, rec in zip(fresh["cells"], recorded_cells):
        assert np.isclose(cell["covariance"], rec["covariance"], rtol=1e-9)

    reference = (2.0 / 101.0) * (math.e - 1.0)
    bound = covariance_bound(golden, 101, 0.5, same_site=False)
    _report(
        5, "covariance within bound on the full grid + closed-form bound",
        fresh["worst_margin"] >= 0.0
        and bound == reference
        and np.isclose(bound, 0.034024, atol=2e-6),
        f"worst margin {fresh['worst_margin']:.2e}, bound {bound:.6f}")


def test_criterion_06_influence_set_bounds():
    fresh = _pilots.influence_pilot()
    _check_recorded("influence_bounds", fresh)
    _report(
        6, "influence-set size and overlap bounds",
        fresh["worst_size_margin"] >= 0.0
        and fresh["worst_overlap_margin"] >= 0.0,
        f"size margin {fresh['worst_size_margin']:.2e}, "
        f"overlap margin {fresh['worst_overlap_margin']:.2e}")


def test_criterion_07_convergence_in_particle_count():
    assert _pilots.CONVERGENCE["replicas"] >= 10**4
    fresh = _pilots.convergence_pilot()
    _check_recorded("convergence_curve", fresh)
    values = fresh["estimates"]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    _report(
        7, "worst-profile distance strictly decreasing over N, factor >= 2",
        decreasing and values[-1] <= values[0] / 2.0,
        "curve " + " > ".join(f"{v:.4f}" for v in values))


def test_criterion_08_stationary_profile_and_product_moment():
    fresh = _pilots.stationary_pilot()
    _check_recorded("stationary_profiles", fresh)
    values = fresh["distances"]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    gap = abs(fresh["product_moment"] - fresh["product_reference"])
    allowance = 3.0 * fresh["product_se"] + 0.05
    _report(
        8, "stationary distance decreasing + product moment near nu(1)nu(2)",
        decreasing and gap <= allowance,
        "curve " + " > ".join(f"{v:.4f}" for v in values)
        + f", product gap {gap:.4f} <= {allowance:.4f}")


def test_criterion_09_coupling_outside_influence_sets(golden):
    realizations = 1000
    n_particles = 5
    horizon = 1.0
    xi0 = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    labels = np.arange(n_particles)

    violations = 0
    checked = 0
    for r in range(realizations):
        marks = sample_marks(
            golden, n_particles, horizon,
            ReplicaSeed(_pilots.MASTER_SEED + 9, r))
        members = influence_matrix(marks)
        baseline = evolve(xi0, marks)
        for root in range(n_particles):
            outside = labels[~members[root]]
            for size in range(1, len(outside) + 1):
                for flip in itertools.combinations(outside, size):
                    perturbed = xi0.copy()
                    perturbed[list(flip)] = 1 - perturbed[list(flip)]
                    checked += 1
                    if evolve(perturbed, marks)[root] != baseline[root]:
                        violations += 1

    _report(
        9, "perturbations outside the influence set never move the root",
        violations == 0 and checked > 10**4,
        f"{violations} violations over {checked} perturbed evolutions")


def test_criterion_10_byte_identical_outputs_across_threads(tmp_path):
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(_pilots.GOLDEN_SPEC))
    configs = {
        "correlation": {
            "kind": "correlation", "chain": "chain.json", "master_seed": 7,
            "parameters": {"n_particles": 9, "replicas": 96, "t": 0.25,
                           "x": "1", "y": "2"},
        },
        "overlap": {
            "kind": "overlap", "chain": "chain.json", "master_seed": 7,
            "parameters": {"n_particles": 31, "replicas": 64, "t": 0.25},
        },
    }
    all_equal = True
    details = []
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for tag, threads in (("a1", 1), ("b1", 1), ("a4", 4), ("a8", 8)):
            out = tmp_path / f"{name}_{tag}"
            code = cli_run(cfg_path, out=str(out), threads=threads)
            assert code == 0
            blobs.append((out / "results.csv").read_bytes())
        equal = len(set(blobs)) == 1
        all_equal = all_equal and equal
        details.append(f"{name}: {'identical' if equal else 'DIVERGED'}")

    _report(
        10, "byte-identical CSV at threads 1, 4, 8 and across repeat runs",
        all_equal, "; ".join(details))
