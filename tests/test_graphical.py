from __future__ import annotations

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from fvqsd import (
    AbsorbingChain,
    MarkRealization,
    ReplicaSeed,
    evolve,
    influence_experiment,
    influence_matrix,
    sample_marks,
    simulate,
)
from fvqsd.errors import HorizonOverflowError
from fvqsd.graphical import SCAN_BYTES, _influence_samples
from fvqsd.simulator import BLOCK_REPLICAS

import _pilots
from _oracles import (
    influence_size_generator,
    occupancy_law,
    overlap_probability,
    series_expm,
)


def influence_sets(marks):
    """The rows of the influence matrix, as sets of labels."""
    return [frozenset(np.flatnonzero(row).tolist())
            for row in influence_matrix(marks)]


def ref_influence(marks, root):
    # Straight-line reference for the backward membership scan.
    member = {int(root)}
    for e in range(marks.n_events - 1, -1, -1):
        if int(marks.particle[e]) in member:
            member.add(int(marks.partner[e]))
    return frozenset(member)


def hand_marks(*events, n_particles=2, n_states=2):
    """Build a MarkRealization from (particle, partner, map row) events in
    replay order.  An internal event is its own partner; a copy event's
    row is -1 where its field is set."""
    return MarkRealization(
        n_particles=n_particles, n_states=n_states,
        particle=np.array([e[0] for e in events], dtype=np.int64),
        partner=np.array([e[1] for e in events], dtype=np.int64),
        maps=np.array([e[2] for e in events],
                      dtype=np.int64).reshape(len(events), n_states),
    )


def block_copy_pairs(n_particles, mass, replicas, seed):
    """Each replica's copy (particle, partner) pairs in replay order,
    drawn from influence_experiment's block streams in its documented
    order: a block's event counts, then one pair per replica a step, the
    step-s pair being the s-th from the horizon."""
    for first in range(0, replicas, BLOCK_REPLICAS):
        b = min(BLOCK_REPLICAS, replicas - first)
        gen = ReplicaSeed(seed.master_seed, seed.replica_index + first).generator()
        counts = gen.poisson(n_particles * mass, b)
        steps = []
        for _ in range(counts.max()):
            particle = gen.integers(0, n_particles, b)
            target = gen.integers(0, n_particles - 1, b)
            target += target >= particle
            steps.append((particle, target))
        for k in range(b):
            pairs = np.array([(p[k], q[k]) for p, q in steps[:counts[k]]],
                             dtype=np.int64).reshape(-1, 2)[::-1]
            yield pairs[:, 0].copy(), pairs[:, 1].copy()


def is_copy(marks):
    """Which events are copy events: sampled targets are never the particle."""
    return marks.partner != marks.particle


class TestSampleMarks:
    def test_validation(self, golden_chain):
        with pytest.raises(ValueError):
            sample_marks(golden_chain, 1, 1.0, 0)
        with pytest.raises(ValueError):
            sample_marks(golden_chain, 3, -1.0, 0)
        with pytest.raises(ValueError):
            sample_marks(golden_chain, 3, np.inf, 0)

    def test_horizon_zero_empty(self, golden_chain):
        marks = sample_marks(golden_chain, 5, 0.0, 0)
        assert marks.n_events == 0

    def test_deterministic(self, golden_chain):
        a = sample_marks(golden_chain, 6, 2.0, ReplicaSeed(12, 4))
        b = sample_marks(golden_chain, 6, 2.0, ReplicaSeed(12, 4))
        np.testing.assert_array_equal(a.particle, b.particle)
        np.testing.assert_array_equal(a.partner, b.partner)
        np.testing.assert_array_equal(a.maps, b.maps)

    @pytest.mark.parametrize("seed", [12, np.int64(12), np.uint64(12)])
    def test_integer_seed_is_replica_zero(self, golden_chain, seed):
        a = sample_marks(golden_chain, 6, 2.0, seed)
        b = sample_marks(golden_chain, 6, 2.0, ReplicaSeed(12))
        np.testing.assert_array_equal(a.partner, b.partner)
        np.testing.assert_array_equal(a.maps, b.maps)
        assert influence_experiment(golden_chain, 6, 0.5, 4, seed) == \
            influence_experiment(golden_chain, 6, 0.5, 4, ReplicaSeed(12))

    def test_golden_fields_are_degenerate(self, golden_chain):
        # absorption = (1, 0) and C = 1: the indicator always fires at
        # site 0 and never at site 1.
        marks = sample_marks(golden_chain, 10, 4.0, 9)
        rows = marks.maps[is_copy(marks)]
        assert rows.size and (rows == [-1, 1]).all()

    def test_golden_maps_swap(self, golden_chain):
        # Unit-rate two-site chain: every internal map is the swap.
        marks = sample_marks(golden_chain, 10, 4.0, 9)
        rows = marks.maps[~is_copy(marks)]
        assert rows.size and (rows == [1, 0]).all()

    def test_maps_follow_jump_kernel(self, three_site_chain):
        # Row a of the kernel is (1/3, 2/3, 0): site c never drawn, and
        # the a/b split matches the kernel within Monte Carlo error.
        n_events = 0
        hits_b = 0
        for r in range(40):
            marks = sample_marks(three_site_chain, 8, 3.0, ReplicaSeed(21, r))
            f_a = marks.maps[~is_copy(marks), 0]
            assert (f_a != 2).all()
            n_events += f_a.size
            hits_b += int((f_a == 1).sum())
        frac = hits_b / n_events
        se = np.sqrt(2.0 / 9.0 / n_events)
        assert abs(frac - 2.0 / 3.0) < 5 * se

    def test_event_counts_poisson(self, golden_chain):
        # Mean internal and copy counts are N * rate * horizon.
        n, t, reps = 7, 1.5, 300
        internals = np.empty(reps)
        voters = np.empty(reps)
        for r in range(reps):
            marks = sample_marks(golden_chain, n, t, ReplicaSeed(1000, r))
            internals[r] = np.count_nonzero(~is_copy(marks))
            voters[r] = np.count_nonzero(is_copy(marks))
        expect = n * 1.0 * t
        for counts in (internals, voters):
            se = counts.std(ddof=1) / np.sqrt(reps)
            assert abs(counts.mean() - expect) < 4 * se

    def test_voter_targets_never_self(self, golden_chain):
        # On the golden chain every copy event's row is -1 at site 0 and
        # no internal event's is, so this tells the kinds apart without
        # reading the partner.
        marks = sample_marks(golden_chain, 4, 6.0, 2)
        copy = marks.maps[:, 0] < 0
        assert copy.any()
        assert (marks.partner[copy] != marks.particle[copy]).all()

    def test_targets_uniform_over_other_labels(self, golden_chain):
        # Chi-square of the (particle, target) table against targets
        # uniform over the other N - 1 = 5 labels: 6 rows of 5 cells, each
        # row's total fixed, so 24 degrees of freedom; 51.18 is the 0.999
        # quantile.
        # Copy events are told apart by their -1 at site 0, as above.
        n = 6
        table = np.zeros((n, n))
        for r in range(100):
            marks = sample_marks(golden_chain, n, 20.0, ReplicaSeed(808, r))
            copy = marks.maps[:, 0] < 0
            np.add.at(table, (marks.particle[copy], marks.partner[copy]), 1)
        assert not table.diagonal().any()
        cells = table[~np.eye(n, dtype=bool)].reshape(n, n - 1)
        expected = cells.sum(axis=1, keepdims=True) / (n - 1)
        assert expected.min() > 300
        chi2 = float(((cells - expected) ** 2 / expected).sum())
        assert chi2 < 51.18, (chi2, cells)

    def test_interleaving_is_uniform(self, golden_chain):
        # Internal and copy events have the same rate on the golden chain,
        # so every place in the sequence holds a copy event with
        # probability 1/2, independently: the first half of each sequence
        # holds as many as the second.
        diff = 0
        places = 0
        for r in range(200):
            order = is_copy(sample_marks(golden_chain, 5, 4.0, ReplicaSeed(55, r)))
            half = order.size // 2
            diff += int(order[:half].sum()) - int(order[half:2 * half].sum())
            places += 2 * half
        assert places > 5000
        assert abs(diff) < 4 * np.sqrt(places / 4.0)

    def test_table_shape_mismatch_rejected(self):
        good = {"particle": np.array([0, 0]), "partner": np.array([0, 1]),
                "maps": np.array([[1, 0], [-1, 1]])}
        for name, bad, message in (
            ("particle", np.array([[0, 0]]), r"particle must have shape \(2,\)"),
            ("partner", np.array([0, 1, 1]), r"partner must have shape \(2,\)"),
            ("maps", np.array([[1, 0, 0], [-1, 1, 0]]),
             r"maps must have shape \(2, 2\)"),
        ):
            with pytest.raises(ValueError, match=message):
                MarkRealization(n_particles=2, n_states=2, **{**good, name: bad})

    def test_non_integer_marks_rejected(self):
        # A float entry used to pass the range check (0.7 was cast to 0)
        # and then fail inside the replay as a list index.
        good = {"particle": np.array([0]), "partner": np.array([0]),
                "maps": np.array([[1, 0]])}
        for name, bad in (("particle", np.array([0.7])),
                          ("partner", np.array([0.0])),
                          ("maps", np.array([[1.0, 0.0]])),
                          ("maps", np.array([[True, False]]))):
            with pytest.raises(ValueError, match=f"{name} must be an integer array"):
                MarkRealization(n_particles=2, n_states=2, **{**good, name: bad})

    def test_huge_horizon_overflows(self, golden_chain):
        # N C t = 4e20 is beyond numpy's Poisson range.
        with pytest.raises(HorizonOverflowError, match="Poisson range"):
            sample_marks(golden_chain, 4, 1e20, 0)
        with pytest.raises(HorizonOverflowError, match="Poisson range"):
            influence_experiment(golden_chain, 4, 1e20, 2, 0)

    def test_negative_target_rejected(self):
        # A negative label would be read as label N - 1 by the kernels.
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            hand_marks((0, -1, [-1, 1]), n_particles=3)

    def test_particle_equal_to_n_rejected(self):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            hand_marks((3, 3, [1, 0]), n_particles=3)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            hand_marks((3, 0, [-1, 1]), n_particles=3)

    def test_map_entry_equal_to_n_states_rejected(self):
        # -1 means "the partner's site"; anything below it is out of range.
        for row in ([1, 2], [-2, 0]):
            with pytest.raises(ValueError, match=r"map sites must lie in \[-1, 2\)"):
                hand_marks((0, 1, row), n_particles=3)

    def test_zero_absorption_no_voter_events(self):
        chain = AbsorbingChain(
            states=("1", "2"),
            rates=np.array([[0.0, 1.0], [1.0, 0.0]]),
            absorption=np.zeros(2),
        )
        marks = sample_marks(chain, 5, 3.0, 0)
        assert marks.n_events > 0
        assert not is_copy(marks).any()
        assert (marks.maps >= 0).all()


class TestEvolve:
    def test_no_events_identity(self, golden_chain):
        marks = sample_marks(golden_chain, 4, 0.0, 0)
        xi0 = np.array([0, 1, 1, 0])
        np.testing.assert_array_equal(evolve(xi0, marks), xi0)

    def test_single_internal_event(self):
        marks = hand_marks((0, 0, [1, 0]))
        np.testing.assert_array_equal(evolve([0, 0], marks), [1, 0])
        np.testing.assert_array_equal(evolve([1, 1], marks), [0, 1])

    def test_voter_event_fires_by_site(self):
        # Field set only at site 0: the copy happens iff particle 0 sits
        # at site 0 when the event arrives.
        marks = hand_marks((0, 1, [-1, 1]))
        np.testing.assert_array_equal(evolve([0, 1], marks), [1, 1])
        np.testing.assert_array_equal(evolve([1, 0], marks), [1, 0])

    def test_merged_order(self):
        # The internal map first puts particle 0 on site 0; the copy event
        # after it then fires and drags it onto particle 1.
        marks = hand_marks((0, 0, [0, 0]), (0, 1, [-1, 1]))
        np.testing.assert_array_equal(evolve([1, 1], marks), [1, 1])
        # Reversed order: the copy attempt comes first and misses.
        marks2 = hand_marks((0, 1, [-1, 1]), (0, 0, [0, 0]))
        np.testing.assert_array_equal(evolve([1, 1], marks2), [0, 1])

    def test_identity_events_change_nothing(self, golden_chain, three_site_chain):
        # An event that is its own partner with row arange(n) moves nobody
        # and adds nobody to an influence set, so it can pad a replay.
        rng = np.random.default_rng(404)
        for chain in (golden_chain, three_site_chain):
            for r in range(40):
                marks = sample_marks(chain, 6, 1.5, ReplicaSeed(505, r))
                k = int(rng.integers(1, 8))
                at = rng.integers(0, marks.n_events + 1, k)
                who = rng.integers(0, 6, k)
                padded = MarkRealization(
                    n_particles=6, n_states=chain.n,
                    particle=np.insert(marks.particle, at, who),
                    partner=np.insert(marks.partner, at, who),
                    maps=np.insert(marks.maps, at, np.arange(chain.n), axis=0))
                assert padded.n_events == marks.n_events + k
                xi0 = rng.integers(0, chain.n, 6)
                np.testing.assert_array_equal(evolve(xi0, padded),
                                              evolve(xi0, marks))
                np.testing.assert_array_equal(influence_matrix(padded),
                                              influence_matrix(marks))

    def test_size_mismatch(self, golden_chain):
        marks = sample_marks(golden_chain, 4, 1.0, 0)
        with pytest.raises(ValueError):
            evolve([0, 1], marks)

    def test_law_matches_event_driven_simulator(self, golden_chain):
        # The two samplers are independent implementations of the same
        # process; compare site-0 count laws and the exact reference.
        n, t, reps = 3, 0.5, 4000
        xi0 = np.zeros(n, dtype=np.int64)
        law_sim = np.zeros(n + 1)
        law_marks = np.zeros(n + 1)
        for r in range(reps):
            pos = simulate(golden_chain, xi0, t, ReplicaSeed(42, r))
            law_sim[int((pos == 0).sum())] += 1
            marks = sample_marks(golden_chain, n, t, ReplicaSeed(77777, r))
            law_marks[int((evolve(xi0, marks) == 0).sum())] += 1
        law_sim /= reps
        law_marks /= reps
        ref = occupancy_law(golden_chain, n, n, t)
        assert np.abs(law_sim - law_marks).sum() < 0.06
        assert np.abs(law_marks - ref).sum() < 0.06

    def test_recorded_marks_marginal_matches_master_equation(self, golden_chain):
        # The criterion-04 pilot record's marks half, against E[m_0(t)]
        # from the exact occupancy law.
        with open(_pilots.RESULTS_PATH) as fh:
            cell = json.load(fh)["simulator_equivalence"]
        spec = _pilots.SIM_EQUIV
        n = spec["n_particles"]
        k0 = spec["xi0"].count(0)
        law = occupancy_law(golden_chain, n, k0, spec["t"])
        exact = law @ (np.arange(n + 1) / n)
        assert abs(cell["marks_marginal"] - exact) <= 3.0 * cell["marks_marginal_se"]


class TestInfluence:
    def test_root_always_member(self, golden_chain):
        marks = sample_marks(golden_chain, 8, 2.0, 5)
        for i, s in enumerate(influence_sets(marks)):
            assert i in s

    def test_no_voter_events_singleton(self):
        chain = AbsorbingChain(
            states=("1", "2"),
            rates=np.array([[0.0, 1.0], [1.0, 0.0]]),
            absorption=np.zeros(2),
        )
        marks = sample_marks(chain, 5, 2.0, 0)
        assert influence_sets(marks) == [frozenset({i}) for i in range(5)]

    def test_matches_reference_scan(self, golden_chain):
        for r in range(30):
            marks = sample_marks(golden_chain, 6, 2.0, ReplicaSeed(64, r))
            got = influence_sets(marks)
            for i in range(6):
                assert got[i] == ref_influence(marks, i)

    def test_membership_ignores_field(self):
        # The copy attempt could not fire (field all False), yet the
        # target still joins: membership tracks what could matter.
        marks = hand_marks((0, 1, [0, 1]))
        assert influence_sets(marks)[0] == frozenset({0, 1})

    def test_roots_selection(self, golden_chain):
        marks = sample_marks(golden_chain, 9, 2.0, 15)
        full = influence_matrix(marks)
        sub = influence_matrix(marks, roots=np.array([2, 5]))
        np.testing.assert_array_equal(sub[0], full[2])
        np.testing.assert_array_equal(sub[1], full[5])
        with pytest.raises(ValueError):
            influence_matrix(marks, roots=np.array([11]))


class TestCoupling:
    def test_outside_perturbations_never_matter(self, golden_chain):
        # For every realization and root: changing initial coordinates
        # outside the influence set never moves the root's endpoint;
        # at least one inside perturbation must matter somewhere.
        n = 5
        rng = np.random.default_rng(2718)
        nontrivial = 0
        inside_matters = 0
        for r in range(100):
            marks = sample_marks(golden_chain, n, 1.0, ReplicaSeed(31337, r))
            xi0 = rng.integers(0, 2, size=n)
            base = evolve(xi0, marks)
            sets = influence_sets(marks)
            for i in range(n):
                outside = [j for j in range(n) if j not in sets[i]]
                nontrivial += bool(outside)
                for k in range(1, len(outside) + 1):
                    for combo in itertools.combinations(outside, k):
                        perturbed = xi0.copy()
                        perturbed[list(combo)] = 1 - perturbed[list(combo)]
                        assert evolve(perturbed, marks)[i] == base[i]
                for j in sets[i]:
                    perturbed = xi0.copy()
                    perturbed[j] = 1 - perturbed[j]
                    if evolve(perturbed, marks)[i] != base[i]:
                        inside_matters += 1
        assert nontrivial > 50  # the check is not vacuous
        assert inside_matters > 0


class TestInfluenceExperiment:
    def test_bounds_and_ci(self, golden_chain):
        size, overlap = influence_experiment(
            golden_chain, 41, 0.25, replicas=400, seed=5
        )
        assert size.mean_size <= size.bound + 3 * size.std_error
        assert overlap.probability <= overlap.bound + 3 * overlap.std_error
        assert 0.0 <= overlap.ci_low <= overlap.probability <= overlap.ci_high <= 1.0
        assert size.bound == pytest.approx(np.exp(0.25))
        assert overlap.bound == pytest.approx((np.exp(0.5) - 1.0) / 40.0)

    def test_equals_replay_of_block_pairs(self, three_site_chain):
        # Two blocks, the second partial, at a nonzero base: every
        # replica's sizes and overlap are those of influence_matrix on its
        # copy pairs, re-drawn in the documented block order.
        n, t = 9, 0.8
        reps = BLOCK_REPLICAS + 37
        seed = ReplicaSeed(31, 7)
        mass = three_site_chain.max_absorption_rate * t
        sizes = np.empty(reps, dtype=np.int64)
        overlaps = np.empty(reps, dtype=np.bool_)
        for r, (particle, partner) in enumerate(
                block_copy_pairs(n, mass, reps, seed)):
            marks = MarkRealization(
                n_particles=n, n_states=three_site_chain.n,
                particle=particle, partner=partner,
                maps=np.full((particle.size, three_site_chain.n), -1))
            rows = influence_matrix(marks, roots=[0, 1])
            sizes[r] = rows[0].sum()
            overlaps[r] = np.any(rows[0] & rows[1])
        assert 0.0 < overlaps.mean() < 1.0 and sizes.max() > 1
        lockstep = _influence_samples(n, mass, reps, seed)
        np.testing.assert_array_equal(lockstep[0], sizes)
        np.testing.assert_array_equal(lockstep[1], overlaps)
        size, overlap = influence_experiment(three_site_chain, n, t, reps, seed)
        assert size.mean_size == sizes.mean()
        assert size.std_error == sizes.std(ddof=1) / np.sqrt(reps)
        assert overlap.probability == overlaps.mean()

    def test_block_rows_keep_membership_under_cap(self, golden_chain):
        # At N = 2**20 the cap allows 8 rows a block (16 MiB); 20 rows in
        # one block would hold 40 MiB.  The rest of the peak is numpy's
        # reduction buffers (64 KiB) and the O(B) per-step arrays.
        n = 2**20
        tracemalloc.start()
        try:
            influence_experiment(golden_chain, n, 1e-7, 20, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert SCAN_BYTES // (2 * n) == 8
        assert SCAN_BYTES <= peak <= SCAN_BYTES + 2**17, peak

    def test_overlap_matches_exact(self, three_site_chain):
        # C = 1.5, N = 6, t = 0.3: 20k replicas against the pair chain.
        n, t, reps = 6, 0.3, 20000
        _, overlap = influence_experiment(
            three_site_chain, n, t, reps, ReplicaSeed(2024, 0))
        exact = overlap_probability(n, 1.5, t)
        se = np.sqrt(exact * (1.0 - exact) / reps)
        assert abs(overlap.probability - exact) < 4 * se, (overlap, exact)


class TestOverlapOracle:
    @staticmethod
    def bound(n, t):
        return (np.exp(2.0 * t) - 1.0) / (n - 1)

    def test_closed_forms(self):
        # N = 2: the two roots are each other's only target, so overlap
        # arrives at rate 2C.  N = 3: every state leaves at rate 2C, and
        # only the first event can miss, with probability 1/2.
        for c, t in ((1.0, 1.0), (0.5, 0.3), (2.0, 1.7)):
            assert overlap_probability(2, c, t) == pytest.approx(
                1.0 - np.exp(-2.0 * c * t), rel=1e-12)
            assert overlap_probability(3, c, t) == pytest.approx(
                1.0 - np.exp(-2.0 * c * t) * (1.0 + c * t), rel=1e-12)
        assert overlap_probability(5, 1.0, 0.0) == 0.0

    def test_matches_dense_pair_chain(self):
        # The grid's shifted adds against series_expm of the same chain
        # written as a dense generator, with overlap as the last state.
        n, c, t = 7, 1.3, 0.6
        states = [(a, b) for a in range(1, n) for b in range(1, n - a + 1)]
        index = {s: i for i, s in enumerate(states)}
        g = np.zeros((len(states) + 1, len(states) + 1))
        for (a, b), i in index.items():
            free = n - a - b
            if free:
                g[i, index[(a + 1, b)]] = c * a * free / (n - 1)
                g[i, index[(a, b + 1)]] = c * b * free / (n - 1)
            g[i, -1] = 2.0 * c * a * b / (n - 1)
            g[i, i] = -g[i].sum()
        exact = series_expm(g, t)[index[(1, 1)], -1]
        assert overlap_probability(n, c, t) == pytest.approx(exact, rel=1e-12)

    def test_known_values(self):
        assert overlap_probability(101, 1.0, 0.25) == pytest.approx(0.00644, abs=5e-6)
        assert overlap_probability(201, 1.0, 0.5) == pytest.approx(0.00850, abs=5e-6)

    def test_exact_within_bound_on_criterion_grid(self):
        grid = _pilots.INFLUENCE_GRID
        for n in grid["n_values"]:
            for t in grid["t_values"]:
                assert overlap_probability(n, 1.0, t) <= self.bound(n, t), (n, t)

    def test_exact_within_bound_on_wide_grid(self):
        # Every cell sits under AFG's bound; the ratio is above 0.999 only
        # at short horizons on large N.
        for n in (2, 3, 5, 11, 41, 101, 201):
            for t in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0):
                assert overlap_probability(n, 1.0, t) <= self.bound(n, t), (n, t)

    def test_recorded_pilot_overlaps_match_exact(self):
        # The criterion-06 pilot record, against the exact overlap.
        with open(_pilots.RESULTS_PATH) as fh:
            cells = json.load(fh)["influence_bounds"]["cells"]
        assert len(cells) == 4
        for cell in cells:
            exact = overlap_probability(cell["N"], 1.0, cell["t"])
            se = np.sqrt(exact * (1.0 - exact) / _pilots.INFLUENCE_GRID["replicas"])
            assert abs(cell["overlap"] - exact) <= 3.0 * se, (cell, exact)


def exact_influence_size_law(n_particles, c_rate, t):
    """Exact law of |I_t| over sizes 1..N."""
    return series_expm(influence_size_generator(n_particles, c_rate), t)[0]


class TestInfluenceSizeOracle:
    @pytest.mark.parametrize("n", [11, 41, 101, 201])
    def test_exact_mean_within_bound(self, n):
        sizes = np.arange(1, n + 1)
        for t in (0.1, 0.25, 0.5, 1.0, 2.0, 3.0):
            law = exact_influence_size_law(n, 1.0, t)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)
            assert law @ sizes <= np.exp(t)

    def test_exact_mean_values(self):
        sizes = {n: np.arange(1, n + 1) for n in (101, 201)}
        expected = {(101, 0.25): 1.28316, (101, 0.5): 1.64387,
                    (201, 0.25): 1.28359, (201, 0.5): 1.64628}
        for (n, t), value in expected.items():
            mean = exact_influence_size_law(n, 1.0, t) @ sizes[n]
            assert mean == pytest.approx(value, abs=5e-6)

    def test_recorded_pilot_sizes_match_exact(self):
        # The criterion-06 pilot record, against the exact mean.
        with open(_pilots.RESULTS_PATH) as fh:
            cells = json.load(fh)["influence_bounds"]["cells"]
        assert len(cells) == 4
        for cell in cells:
            n = cell["N"]
            exact = exact_influence_size_law(n, 1.0, cell["t"]) @ np.arange(1, n + 1)
            assert abs(cell["mean_size"] - exact) <= 3.0 * cell["size_se"], cell

    def test_sampled_law_chi_square(self, golden_chain):
        # 20k realizations on the golden chain (C = 1), N = 5, t = 1.
        # Chi-square with 4 degrees of freedom; 18.47 is its 0.999 quantile.
        n, t, reps = 5, 1.0, 20000
        roots = np.array([0])
        counts = np.zeros(n)
        for r in range(reps):
            marks = sample_marks(golden_chain, n, t, ReplicaSeed(4242, r))
            counts[int(influence_matrix(marks, roots=roots)[0].sum()) - 1] += 1
        expected = reps * exact_influence_size_law(n, 1.0, t)
        assert expected.min() > 5.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 18.47, (chi2, counts, expected)

    def test_lockstep_law_chi_square(self, golden_chain):
        # The same cell through influence_experiment's block scan.
        n, t, reps = 5, 1.0, 20000
        sizes, _ = _influence_samples(
            n, golden_chain.max_absorption_rate * t, reps, ReplicaSeed(4242))
        counts = np.bincount(sizes - 1, minlength=n)
        expected = reps * exact_influence_size_law(n, 1.0, t)
        assert expected.min() > 5.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 18.47, (chi2, counts, expected)
