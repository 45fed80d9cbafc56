from __future__ import annotations

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from fvqsd import (
    MarkRealization,
    ReplicaSeed,
    evolve,
    influence_experiment,
    influence_matrix,
    sample_marks,
    simulate,
)
from fvqsd import _kernels, graphical, seeding
from fvqsd.errors import HorizonOverflowError
from fvqsd.graphical import _influence_samples
from fvqsd.seeding import BLOCK_REPLICAS

import _pilots
from _oracles import (
    LARGEST_T,
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


def size_chain_scan(n_particles, mass, replicas, seed):
    """Straight-line reference for influence_experiment's size chain.

    Per replica, its sets of labels 0 and 1 and the (particle, target)
    pairs it applied, from the horizon back, re-drawn in the documented
    block order: at each step, the replicas still scanning draw their
    gaps, then their uniforms.  Each event is put on labels: its particle
    is the least member of the set that fires, and its target the least
    member of the other set (the sets meet) or the least label outside
    the sets that still count (a set grows).  N is small enough for
    blocks of BLOCK_REPLICAS replicas and for exact float rates.
    """
    n = n_particles
    horizon = mass / (n - 1)
    out = []
    for first in range(0, replicas, BLOCK_REPLICAS):
        gen = seed.offset(first).generator()
        scans = [{"sets": ({0}, {1}), "clock": 0.0, "pairs": []}
                 for _ in range(min(BLOCK_REPLICAS, replicas - first))]
        scanning = scans
        while scanning:
            gaps = gen.standard_exponential(len(scanning))
            draws = gen.random(len(scanning))
            still = []
            for scan, gap, draw in zip(scanning, gaps, draws):
                zero, one = scan["sets"]
                # After the sets meet, only the set of 0 counts.
                counted = zero if zero & one else zero | one
                a, b = len(zero), len(counted) - len(zero)
                free = n - a - b
                # a grows alone; the sets meet, a growing; they meet, b
                # growing; b grows alone.
                rates = (a * free, a * b, a * b, b * free)
                total = float(sum(rates))
                scan["clock"] += gap / total
                if scan["clock"] >= horizon:
                    continue
                x = draw * total
                event = sum(x >= edge for edge in itertools.accumulate(rates[:3]))
                outside = min(set(range(n)) - counted, default=None)
                particle, target = (
                    (min(zero), outside), (min(zero), min(one)),
                    (min(one), min(zero)), (min(one), outside))[event]
                scan["pairs"].append((particle, target))
                for members in scan["sets"]:
                    if particle in members:
                        members.add(target)
                if len(zero) < n:
                    still.append(scan)
            scanning = still
        out.extend(scans)
    return out


def one_block_at_a_time(cells, replicas, seed):
    """Each (N, mass) cell's blocks of ReplicaSeed.blocks, keyed as
    influence_experiment keys them, each scanned alone by the straight
    per-block loop; returns the sizes and overlaps, shape (cells,
    replicas), and each block's next draw after its scan."""
    sizes = np.empty((len(cells), replicas), dtype=np.int64)
    overlaps = np.empty((len(cells), replicas), dtype=np.bool_)
    next_draws = []
    for k, (n, mass) in enumerate(cells):
        horizon = mass / (n - 1)
        for first, stop, gen in seed.offset(k * replicas).blocks(
                replicas, BLOCK_REPLICAS):
            at = np.arange(first, stop)
            clock = np.zeros(at.size)
            a = np.ones(at.size)
            b = np.ones(at.size)
            while at.size:
                free = n - a - b
                grow = a * free
                meet = grow + 2.0 * a * b
                total = meet + b * free
                clock += gen.standard_exponential(at.size) / total
                x = gen.random(at.size) * total
                live = clock < horizon
                a += live & (x < grow + a * b)
                b += live & (x >= meet)
                b[live & (x >= grow) & (x < meet)] = 0.0
                done = ~live | (a == n)
                sizes[k, at[done]] = a[done]
                overlaps[k, at[done]] = b[done] == 0.0
                keep = ~done
                at, clock, a, b = at[keep], clock[keep], a[keep], b[keep]
            next_draws.append(gen.random())
    return sizes, overlaps, next_draws


def packed_scan(cells, replicas, seed, monkeypatch):
    """_influence_samples on the cells, each block's next draw after the
    packed scan, and the replicas of each lockstep group."""
    gens = []
    groups = []
    blocks = ReplicaSeed.blocks
    scan = _kernels.scan_sizes

    def spy(self, *args):
        for first, stop, gen in blocks(self, *args):
            gens.append(gen)
            yield first, stop, gen

    def scan_spy(group_gens, bounds, *args):
        groups.append(int(bounds[-1]))
        scan(group_gens, bounds, *args)

    with monkeypatch.context() as patch:
        patch.setattr(ReplicaSeed, "blocks", spy)
        patch.setattr(_kernels, "scan_sizes", scan_spy)
        sizes, overlaps = _influence_samples(cells, replicas, seed)
    return sizes, overlaps, [gen.random() for gen in gens], groups


def pooled_chi_square(counts, expected, least=10.0):
    """Chi-square of counts against expected, over runs of adjacent cells
    pooled until each holds at least ``least`` expected counts (a short
    last run joins the one before), and the statistic's 0.999 quantile by
    the Wilson-Hilferty approximation."""
    edges = [0]
    acc = 0.0
    for k, e in enumerate(expected):
        acc += e
        if acc >= least:
            edges.append(k + 1)
            acc = 0.0
    edges[-1] = len(expected)
    obs = np.add.reduceat(counts, edges[:-1])
    exp = np.add.reduceat(expected, edges[:-1])
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    df = len(obs) - 1
    quantile = df * (1.0 - 2.0 / (9 * df) + 3.0902 * np.sqrt(2.0 / (9 * df))) ** 3
    return chi2, quantile


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
        # A non-integer size used to be truncated by sample_marks (drawn
        # at the 5.5-particle rate) and to end in a numpy TypeError inside
        # influence_experiment's scan.
        for call in (lambda: sample_marks(golden_chain, 5.5, 1.0, 3),
                     lambda: influence_experiment(golden_chain, [5.5], [0.5], 10, 3),
                     lambda: influence_experiment(golden_chain, [5], [0.5], 10.5, 3)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                call()
        for n_list, t_grid in (([], [0.5]), ([5], [])):
            with pytest.raises(ValueError, match="must be nonempty"):
                influence_experiment(golden_chain, n_list, t_grid, 10, 3)

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
        assert influence_experiment(golden_chain, [6], [0.5], 4, seed) == \
            influence_experiment(golden_chain, [6], [0.5], 4, ReplicaSeed(12))

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

    @pytest.mark.parametrize(
        "name", ["golden_chain", "three_site_chain", "single_site_chain"])
    def test_event_counts_poisson(self, name, request):
        # Copy counts are Poisson(N C horizon) and internal counts
        # Poisson(N r horizon).  The three-site chain has C = 1.5 and r = 3,
        # so a kind split that ignored the rates would miss both means; the
        # single site has r = 0, so every event is a copy event.
        chain = request.getfixturevalue(name)
        n, t, reps = 7, 1.5, 300
        internals = np.empty(reps)
        voters = np.empty(reps)
        for r in range(reps):
            marks = sample_marks(chain, n, t, ReplicaSeed(1000, r))
            internals[r] = np.count_nonzero(~is_copy(marks))
            voters[r] = np.count_nonzero(is_copy(marks))
        for counts, rate in ((internals, chain.max_internal_rate),
                             (voters, chain.max_absorption_rate)):
            expect = n * rate * t
            if expect == 0.0:
                assert not counts.any()
                continue
            se = counts.std(ddof=1) / np.sqrt(reps)
            assert abs(counts.mean() - expect) < 4 * se
            # A Poisson count's variance equals its mean.
            assert abs(counts.var(ddof=1) - counts.mean()) < 0.3 * counts.mean()

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
        with pytest.raises(HorizonOverflowError):
            influence_experiment(golden_chain, [4], [1e20], 2, 0)

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
        # Non-integer roots used to be truncated, reading [0.9, 1.2] as [0, 1].
        with pytest.raises(ValueError, match="roots must be integer labels"):
            influence_matrix(marks, roots=[0.9, 1.2])


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
        [(size, overlap)] = influence_experiment(
            golden_chain, [41], [0.25], replicas=400, seed=5
        )
        assert size.mean_size <= size.bound + 3 * size.std_error
        assert overlap.probability <= overlap.bound + 3 * overlap.std_error
        assert 0.0 <= overlap.ci_low <= overlap.probability <= overlap.ci_high <= 1.0
        assert size.bound == pytest.approx(np.exp(0.25))
        assert overlap.bound == pytest.approx((np.exp(0.5) - 1.0) / 40.0)

    def test_equals_straight_line_scan(self, three_site_chain):
        # Two blocks, the second partial, at a nonzero base: every
        # replica's size and overlap are those of the reference scan, and
        # of influence_matrix on the pairs it applied, in replay order.
        n, t = 9, 0.8
        reps = BLOCK_REPLICAS + 37
        seed = ReplicaSeed(31, 7)
        mass = three_site_chain.max_absorption_rate * t
        scans = size_chain_scan(n, mass, reps, seed)
        sizes = np.array([len(scan["sets"][0]) for scan in scans])
        overlaps = np.array([bool(scan["sets"][0] & scan["sets"][1])
                             for scan in scans])
        for scan, size, overlap in zip(scans, sizes, overlaps):
            pairs = np.array(scan["pairs"], dtype=np.int64).reshape(-1, 2)[::-1]
            marks = MarkRealization(
                n_particles=n, n_states=three_site_chain.n,
                particle=pairs[:, 0].copy(), partner=pairs[:, 1].copy(),
                maps=np.full((len(pairs), three_site_chain.n), -1))
            rows = influence_matrix(marks, roots=[0, 1])
            assert rows[0].sum() == size
            assert np.any(rows[0] & rows[1]) == overlap
        assert 0.0 < overlaps.mean() < 1.0 and sizes.max() > 1
        lockstep = [v[0] for v in _influence_samples([(n, mass)], reps, seed)]
        np.testing.assert_array_equal(lockstep[0], sizes)
        np.testing.assert_array_equal(lockstep[1], overlaps)
        [(size, overlap)] = influence_experiment(three_site_chain, [n], [t], reps, seed)
        assert size.mean_size == sizes.mean()
        assert size.std_error == sizes.std(ddof=1) / np.sqrt(reps)
        assert overlap.probability == overlaps.mean()

    @pytest.mark.parametrize("n, mass", [(6, 0.45), (41, 1.0), (201, 3.0)])
    def test_law_matches_exact(self, n, mass):
        # The |set of 0| histogram against the birth chain's law, and the
        # overlap frequency against the pair chain, at C = 1 and t = mass.
        reps = 20000
        (sizes,), (overlaps,) = _influence_samples([(n, mass)], reps, ReplicaSeed(1919))
        law = series_expm(influence_size_generator(n, 1.0), mass)[0]
        chi2, quantile = pooled_chi_square(
            np.bincount(sizes - 1, minlength=n), reps * law)
        assert chi2 < quantile, (chi2, quantile)
        exact = overlap_probability(n, 1.0, mass)
        z = (overlaps.mean() - exact) / np.sqrt(exact * (1.0 - exact) / reps)
        assert abs(z) < 4.0, (overlaps.mean(), exact, z)

    def test_saturating_scan_ends_full(self):
        # At C t = 40 every set of 0 reaches all N = 3 labels, where the
        # scan stops, and so meets the set of 1.
        (sizes,), (overlaps,) = _influence_samples([(3, 40.0)], 2000, ReplicaSeed(1919))
        assert (sizes == 3).all() and overlaps.all()

    def test_overflowing_horizon_refused_before_drawing(
            self, golden_chain, monkeypatch):
        # 2 C t = 800 is above log(DBL_MAX): the bounds used to come back
        # infinite after a full scan.
        def no_draws(*args):
            raise AssertionError("scanned before refusing the horizon")

        monkeypatch.setattr(graphical, "_influence_samples", no_draws)
        with pytest.raises(HorizonOverflowError, match="overflows at 2 C t = 800"):
            influence_experiment(golden_chain, [4], [400.0], 2, 0)

    def test_largest_horizon_stays_finite(self, golden_chain):
        [(size, overlap)] = influence_experiment(golden_chain, [3], [LARGEST_T], 4, 0)
        assert np.isfinite(size.bound) and np.isfinite(overlap.bound)
        assert overlap.bound > 1e300
        assert size.mean_size == 3.0 and overlap.probability == 1.0

    def test_huge_n_scans_in_little_memory(self, golden_chain):
        # The scan holds a few numbers per replica whatever N is: label
        # sets at N = 2**40 would take 2 TiB a block.
        tracemalloc.start()
        try:
            [(size, overlap)] = influence_experiment(golden_chain, [2**40], [1e-6], 2000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert 1.0 <= size.mean_size < 1.01 and overlap.probability == 0.0

    def test_grid_above_the_cap_scans_in_bounded_memory(self):
        # The scan holds at most 160 bytes per replica of one lockstep
        # group, and the output 9 per replica of the grid.  Four cells of
        # one full group each used to run as one group.
        replicas = seeding.GROUP_BYTES // _kernels.SCAN_REPLICA_BYTES
        tracemalloc.start()
        try:
            sizes, _ = _influence_samples([(101, 1e-6)] * 4, replicas, ReplicaSeed(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160 * replicas + 9 * sizes.size, peak
        assert sizes.shape == (4, replicas) and (sizes <= 2).all()

    def test_overlap_matches_exact(self, three_site_chain):
        # C = 1.5, N = 6, t = 0.3: 20k replicas against the pair chain.
        n, t, reps = 6, 0.3, 20000
        [(_, overlap)] = influence_experiment(
            three_site_chain, [n], [t], reps, ReplicaSeed(2024, 0))
        exact = overlap_probability(n, 1.5, t)
        se = np.sqrt(exact * (1.0 - exact) / reps)
        assert abs(overlap.probability - exact) < 4 * se, (overlap, exact)


    @staticmethod
    def match_one_block_at_a_time(replicas, seed, monkeypatch):
        """Cells of mixed N and C t, one saturating (N = 3, C t = 40) and
        one of horizon 0, in lockstep groups: every size and overlap, and
        every block's next draw, equal those of each block scanned alone.
        Returns the replicas of each group."""
        cells = [(3, 40.0), (201, 3.0), (9, 1.2), (2, 0.5), (41, 0.0), (101, 2.0)]
        sizes, overlaps, draws, groups = packed_scan(cells, replicas, seed,
                                                     monkeypatch)
        expected_sizes, expected_overlaps, next_draws = one_block_at_a_time(
            cells, replicas, seed)
        np.testing.assert_array_equal(sizes, expected_sizes)
        np.testing.assert_array_equal(overlaps, expected_overlaps)
        assert draws == next_draws
        assert len(draws) == len(cells) * -(-replicas // BLOCK_REPLICAS)
        assert (sizes[0] == 3).all() and (sizes[4] == 1).all()
        assert max(groups) * _kernels.SCAN_REPLICA_BYTES <= seeding.GROUP_BYTES
        assert sum(groups) == len(cells) * replicas
        return groups

    @pytest.mark.parametrize("replicas", [1, 2, 999, 2500])
    def test_packed_scan_matches_one_block_at_a_time(
            self, golden_chain, monkeypatch, replicas):
        # At 2500 replicas each cell has two full blocks and a half one.
        # All of a call's blocks fit under the cap, so they scan in one
        # loop.
        seed = ReplicaSeed(77, 3)
        groups = self.match_one_block_at_a_time(replicas, seed, monkeypatch)
        assert len(groups) == 1
        if replicas < 2:
            return
        # Cell k of a grid call draws from seed.offset(k * replicas).
        n_list, t_grid = [3, 41], [0.5, 40.0]
        grid = influence_experiment(golden_chain, n_list, t_grid, replicas, seed)
        cells = [(n, t) for n in n_list for t in t_grid]
        assert grid == [
            influence_experiment(golden_chain, [n], [t], replicas,
                                 seed.offset(k * replicas))[0]
            for k, (n, t) in enumerate(cells)]

    @pytest.mark.parametrize("replicas", [999, 2500])
    def test_small_cap_splits_a_scan_into_groups(self, monkeypatch, replicas):
        # A cap of 1500 replicas splits the six cells' blocks into several
        # groups, and no size, overlap or draw moves.
        monkeypatch.setattr(seeding, "GROUP_BYTES",
                            1500 * _kernels.SCAN_REPLICA_BYTES)
        groups = self.match_one_block_at_a_time(replicas, ReplicaSeed(77, 3),
                                                monkeypatch)
        assert len(groups) > 1


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

    def test_sampled_overlap_matches_pair_chain(self, golden_chain):
        # Label-level sets from sample_marks, with no size chain in between:
        # 10k realizations on the golden chain (C = 1), N = 5, t = 0.5.
        n, t, reps = 5, 0.5, 10000
        met = sum(
            np.any(np.logical_and.reduce(influence_matrix(
                sample_marks(golden_chain, n, t, ReplicaSeed(4343, r)),
                roots=[0, 1])))
            for r in range(reps))
        exact = overlap_probability(n, 1.0, t)
        se = np.sqrt(exact * (1.0 - exact) / reps)
        assert abs(met / reps - exact) < 4 * se, (met / reps, exact)

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
        (sizes,), _ = _influence_samples(
            [(n, golden_chain.max_absorption_rate * t)], reps, ReplicaSeed(4242))
        counts = np.bincount(sizes - 1, minlength=n)
        expected = reps * exact_influence_size_law(n, 1.0, t)
        assert expected.min() > 5.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 18.47, (chi2, counts, expected)
