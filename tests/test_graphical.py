from __future__ import annotations

import hashlib
import itertools
import json

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
from fvqsd import graphical

import _pilots
from _oracles import influence_size_generator, occupancy_law, series_expm


def influence_sets(marks):
    """The rows of the influence matrix, as sets of labels."""
    return [frozenset(np.flatnonzero(row).tolist())
            for row in influence_matrix(marks)]


def ref_influence(marks, root):
    # Straight-line reference for the backward membership scan.
    member = {int(root)}
    for e in range(marks.voter_times.size - 1, -1, -1):
        if int(marks.voter_particle[e]) in member:
            member.add(int(marks.voter_targets[e]))
    return frozenset(member)


def hand_marks(n_particles=2, n_states=2, internal=(), voter=(), horizon=1.0):
    """Build a MarkRealization from explicit event tuples.

    internal: (time, particle, map_row); voter: (time, particle, target,
    field_row).
    """
    it = np.array([e[0] for e in internal], dtype=np.float64)
    ip = np.array([e[1] for e in internal], dtype=np.int64)
    im = np.array([e[2] for e in internal], dtype=np.int64).reshape(len(internal), n_states)
    vt = np.array([e[0] for e in voter], dtype=np.float64)
    vp = np.array([e[1] for e in voter], dtype=np.int64)
    vg = np.array([e[2] for e in voter], dtype=np.int64)
    vf = np.array([e[3] for e in voter], dtype=np.bool_).reshape(len(voter), n_states)
    return MarkRealization(
        horizon=horizon, n_particles=n_particles, n_states=n_states,
        internal_times=it, internal_particle=ip, internal_maps=im,
        voter_times=vt, voter_particle=vp, voter_targets=vg, voter_fields=vf,
    )


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
        np.testing.assert_array_equal(a.internal_times, b.internal_times)
        np.testing.assert_array_equal(a.voter_fields, b.voter_fields)

    @pytest.mark.parametrize("seed", [12, np.int64(12), np.uint64(12)])
    def test_integer_seed_is_replica_zero(self, golden_chain, seed):
        a = sample_marks(golden_chain, 6, 2.0, seed)
        b = sample_marks(golden_chain, 6, 2.0, ReplicaSeed(12))
        np.testing.assert_array_equal(a.internal_times, b.internal_times)
        np.testing.assert_array_equal(a.voter_targets, b.voter_targets)
        assert influence_experiment(golden_chain, 6, 0.5, 4, seed) == \
            influence_experiment(golden_chain, 6, 0.5, 4, ReplicaSeed(12))

    def test_times_distinct_and_in_range(self, golden_chain):
        marks = sample_marks(golden_chain, 20, 5.0, 3)
        times = np.concatenate([marks.internal_times, marks.voter_times])
        assert np.unique(times).size == times.size
        assert (times >= 0).all() and (times <= 5.0).all()

    def test_golden_fields_are_degenerate(self, golden_chain):
        # absorption = (1, 0) and C = 1: the indicator always fires at
        # site 0 and never at site 1.
        marks = sample_marks(golden_chain, 10, 4.0, 9)
        assert marks.voter_fields[:, 0].all()
        assert not marks.voter_fields[:, 1].any()

    def test_golden_maps_swap(self, golden_chain):
        # Unit-rate two-site chain: every internal map is the swap.
        marks = sample_marks(golden_chain, 10, 4.0, 9)
        assert (marks.internal_maps[:, 0] == 1).all()
        assert (marks.internal_maps[:, 1] == 0).all()

    def test_maps_follow_jump_kernel(self, three_site_chain):
        # Row a of the kernel is (1/3, 2/3, 0): site c never drawn, and
        # the a/b split matches the kernel within Monte Carlo error.
        n_events = 0
        hits_b = 0
        for r in range(40):
            marks = sample_marks(three_site_chain, 8, 3.0, ReplicaSeed(21, r))
            f_a = marks.internal_maps[:, 0]
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
            internals[r] = marks.internal_times.size
            voters[r] = marks.voter_times.size
        expect = n * 1.0 * t
        for counts in (internals, voters):
            se = counts.std(ddof=1) / np.sqrt(reps)
            assert abs(counts.mean() - expect) < 4 * se

    def test_voter_targets_never_self(self, golden_chain):
        marks = sample_marks(golden_chain, 4, 6.0, 2)
        assert (marks.voter_targets != marks.voter_particle).all()

    def test_collisions_are_redrawn(self, golden_chain, monkeypatch):
        # Times floored to multiples of 0.25 collide; every repeat after a
        # time's first occurrence is redrawn.  The digest pins the redraws
        # and the resulting order.
        marked_times = graphical._marked_times

        def floored(gen, rate, n_particles, horizon):
            times, particles = marked_times(gen, rate, n_particles, horizon)
            return np.floor(times * 4.0) / 4.0, particles

        monkeypatch.setattr(graphical, "_marked_times", floored)
        digest = hashlib.md5()
        redrawn = 0
        for r in range(20):
            marks = sample_marks(golden_chain, 6, 2.0, ReplicaSeed(99, r))
            times = np.concatenate([marks.internal_times, marks.voter_times])
            assert np.unique(times).size == times.size
            redrawn += int(np.count_nonzero(times % 0.25))
            for arr in (marks.internal_times, marks.internal_particle,
                        marks.internal_maps, marks.voter_times,
                        marks.voter_particle, marks.voter_targets,
                        marks.voter_fields):
                digest.update(np.ascontiguousarray(arr).tobytes())
        assert redrawn > 0
        assert digest.hexdigest() == "7f08a4fa618d10393a1bf7c5b4517fce"

    @pytest.mark.parametrize("stream", ["internal", "voter"])
    def test_unsorted_stream_rejected(self, stream):
        # The replay and the influence scan read each stream in time
        # order: copy events (0.7, 0 -> 1) then (0.3, 1 -> 2) would give
        # root 0 the set {0, 1} instead of {0, 1, 2}.
        internal = [(0.2, 0, [1, 0]), (0.6, 1, [1, 0])]
        voter = [(0.3, 1, 2, [True, False]), (0.7, 0, 1, [True, False])]
        hand_marks(3, internal=internal, voter=voter)
        if stream == "internal":
            internal = internal[::-1]
        else:
            voter = voter[::-1]
        with pytest.raises(ValueError, match="sorted"):
            hand_marks(3, internal=internal, voter=voter)

    def test_negative_target_rejected(self):
        # A negative label would be read as label N - 1 by the kernels.
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            hand_marks(3, voter=[(0.5, 0, -1, [True, False])])

    def test_particle_equal_to_n_rejected(self):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            hand_marks(3, internal=[(0.5, 3, [1, 0])])
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            hand_marks(3, voter=[(0.5, 3, 0, [True, False])])

    def test_map_entry_equal_to_n_states_rejected(self):
        with pytest.raises(ValueError, match=r"map sites must lie in \[0, 2\)"):
            hand_marks(3, internal=[(0.5, 0, [1, 2])])

    def test_zero_absorption_no_voter_events(self):
        chain = AbsorbingChain(
            states=("1", "2"),
            rates=np.array([[0.0, 1.0], [1.0, 0.0]]),
            absorption=np.zeros(2),
        )
        marks = sample_marks(chain, 5, 3.0, 0)
        assert marks.voter_times.size == 0
        assert marks.internal_times.size > 0


class TestEvolve:
    def test_no_events_identity(self, golden_chain):
        marks = sample_marks(golden_chain, 4, 0.0, 0)
        xi0 = np.array([0, 1, 1, 0])
        np.testing.assert_array_equal(evolve(xi0, marks), xi0)

    def test_single_internal_event(self):
        marks = hand_marks(internal=[(0.5, 0, [1, 0])])
        np.testing.assert_array_equal(evolve([0, 0], marks), [1, 0])
        np.testing.assert_array_equal(evolve([1, 1], marks), [0, 1])

    def test_voter_event_fires_by_site(self):
        # Field set only at site 0: the copy happens iff particle 0 sits
        # at site 0 when the event arrives.
        marks = hand_marks(voter=[(0.5, 0, 1, [True, False])])
        np.testing.assert_array_equal(evolve([0, 1], marks), [1, 1])
        np.testing.assert_array_equal(evolve([1, 0], marks), [1, 0])

    def test_merged_order(self):
        # Internal swap at t=0.3 puts particle 0 on site 0; the later
        # copy event then fires and drags it onto particle 1.
        marks = hand_marks(
            internal=[(0.3, 0, [0, 0])],
            voter=[(0.7, 0, 1, [True, False])],
        )
        np.testing.assert_array_equal(evolve([1, 1], marks), [1, 1])
        # Reversed times: the copy attempt comes first and misses.
        marks2 = hand_marks(
            internal=[(0.7, 0, [0, 0])],
            voter=[(0.3, 0, 1, [True, False])],
        )
        np.testing.assert_array_equal(evolve([1, 1], marks2), [0, 1])

    def test_tie_replays_internal_event_first(self):
        # Only a hand-built realization can tie.  Internal first: the map
        # moves particle 0 to site 0, where the copy then fires.
        marks = hand_marks(
            internal=[(0.5, 0, [0, 0])],
            voter=[(0.5, 0, 1, [True, False])],
        )
        np.testing.assert_array_equal(evolve([1, 1], marks), [1, 1])

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
        marks = hand_marks(voter=[(0.5, 0, 1, [False, False])])
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
