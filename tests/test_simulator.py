from __future__ import annotations

import numpy as np
import pytest

from fvqsd import (
    ReplicaSeed,
    configuration_from_profile,
    empirical_measure,
    simulate,
    simulate_counts,
    simulate_trajectory,
    stationary_sampler,
    validate_chain,
    transition_tables,
    validate_configuration,
)
from fvqsd.errors import UnsortedTimesError

import _pilots
from _oracles import (
    count_generator,
    count_states,
    labelled_generator,
    labelled_index,
    labelled_states,
    occupancy_generator,
    occupancy_law,
    occupancy_moments,
    series_expm,
)


class TestTransitionTables:
    def test_golden(self, golden_chain):
        tables = transition_tables(golden_chain)
        np.testing.assert_allclose(tables.site_rate, [2.0, 1.0])
        # Site 0: internal move with prob 1/2, then absorption attempt.
        np.testing.assert_allclose(tables.cum_move[0], [0.0, 0.5])
        # Site 1 has no absorption, so its row is capped above 1.
        assert tables.cum_move[1, 0] == 2.0

    def test_three_site_rows(self, three_site_chain):
        tables = transition_tables(three_site_chain)
        np.testing.assert_allclose(tables.site_rate, [2.5, 2.0, 4.5])
        # Row b (no absorption): both moves at rate 1 out of 2, capped tail.
        assert tables.cum_move[1, 0] == 0.5
        assert tables.cum_move[1, 2] == 2.0

    def test_read_only(self, golden_chain):
        tables = transition_tables(golden_chain)
        with pytest.raises(ValueError):
            tables.cum_move[0, 0] = 3.0


class TestValidateConfiguration:
    def test_accepts_and_casts(self):
        pos = validate_configuration(np.array([0, 1, 1], dtype=np.int32), 2)
        assert pos.dtype == np.int64

    def test_rejects(self):
        with pytest.raises(ValueError):
            validate_configuration([0], 2)  # single particle
        with pytest.raises(ValueError):
            validate_configuration([[0, 1]], 2)
        with pytest.raises(ValueError):
            validate_configuration([0.0, 1.0], 2)
        with pytest.raises(ValueError):
            validate_configuration([0, 2], 2)
        with pytest.raises(ValueError):
            validate_configuration([-1, 0], 2)


class TestConfigurationFromProfile:
    def test_exact_split(self):
        pos = configuration_from_profile([0.5, 0.5], 10, states=("a", "b"))
        assert (pos == 0).sum() == 5 and (pos == 1).sum() == 5

    def test_remainder_to_first_name(self):
        # 7 * [1/3, 2/3] floors to 2 + 4; the leftover particle lands on
        # the lexicographically first state name, here "a" at index 1.
        pos = configuration_from_profile([1 / 3, 2 / 3], 7, states=("b", "a"))
        assert (pos == 0).sum() == 2
        assert (pos == 1).sum() == 5

    def test_errors(self):
        with pytest.raises(ValueError):
            configuration_from_profile([1.0, 0.0], 1, states=("a", "b"))
        with pytest.raises(ValueError):
            configuration_from_profile([0.5, 0.5], 4, states=("a",))


class TestSimulate:
    def test_time_zero(self, golden_chain):
        xi0 = np.array([0, 1, 0, 1])
        np.testing.assert_array_equal(simulate(golden_chain, xi0, 0.0, 1), xi0)

    def test_reproducible(self, golden_chain):
        xi0 = np.zeros(6, dtype=np.int64)
        a = simulate(golden_chain, xi0, 2.0, ReplicaSeed(99, 3))
        b = simulate(golden_chain, xi0, 2.0, ReplicaSeed(99, 3))
        np.testing.assert_array_equal(a, b)

    def test_replicas_differ(self, golden_chain):
        xi0 = np.zeros(6, dtype=np.int64)
        runs = [simulate(golden_chain, xi0, 2.0, ReplicaSeed(99, r)) for r in range(8)]
        assert any(not np.array_equal(runs[0], r) for r in runs[1:])

    def test_single_site_fixed(self, single_site_chain):
        # Absorption attempts relocate onto the same site; nothing moves.
        xi0 = np.zeros(4, dtype=np.int64)
        np.testing.assert_array_equal(
            simulate(single_site_chain, xi0, 5.0, 7), xi0
        )

    def test_bad_time(self, golden_chain):
        with pytest.raises(ValueError):
            simulate(golden_chain, [0, 1], -1.0, 1)

    def test_exchangeable_labels(self, golden_chain):
        # Labels with the same starting site are interchangeable: the
        # occupation frequencies of particles 0/1 (and 2/3) agree within
        # Monte Carlo error.  Each label's frequency at site 0 also matches
        # its exact marginal under the labelled chain at t = 1, 0.43046 for
        # a start at site 0 and 0.36342 for a start at site 1, within 4 SE
        # either way; 4 SE of both sit below their gap, so the start's
        # memory shows.
        xi0 = np.array([0, 0, 1, 1])
        r = 4000
        hits = np.zeros(4)
        for k in range(r):
            pos = simulate(golden_chain, xi0, 1.0, ReplicaSeed(31, k))
            hits += pos == 0
        p = hits / r
        se = np.sqrt(2 * 0.25 / r)
        assert abs(p[0] - p[1]) < 5 * se
        assert abs(p[2] - p[3]) < 5 * se
        exact = labelled_law(golden_chain, xi0, 1.0) @ (
            labelled_states(2, 4) == 0)
        np.testing.assert_allclose(exact, [0.43046, 0.43046, 0.36342, 0.36342],
                                   atol=5e-6)
        se_each = np.sqrt(exact * (1.0 - exact) / r)
        assert 4 * (se_each[0] + se_each[3]) < exact[0] - exact[3]
        assert np.all(np.abs(p - exact) < 4 * se_each), (p, exact)

    def test_marginal_matches_occupancy_oracle(self, golden_chain):
        # Exact master equation for the collapsed site-0 count is the
        # independent reference for the event-driven sampler.
        n, t, replicas = 3, 1.0, 10000
        xi0 = np.zeros(n, dtype=np.int64)
        counts = np.zeros(n + 1)
        samples = np.empty(replicas)
        for r in range(replicas):
            pos = simulate(golden_chain, xi0, t, ReplicaSeed(555, r))
            k = int((pos == 0).sum())
            counts[k] += 1
            samples[r] = k / n
        law_ref = occupancy_law(golden_chain, n, n, t)
        e_ref, _ = occupancy_moments(law_ref, n)
        se = samples.std(ddof=1) / np.sqrt(replicas)
        assert abs(samples.mean() - e_ref) < 4 * se
        assert np.abs(counts / replicas - law_ref).sum() < 0.05


class TestMeanEvolutionIdentity:
    def test_exact_on_occupancy_master_equation(self, golden_chain):
        # d/dt E[m_x] = sum_y q(y,x) E[m_y]
        #               + N/(N-1) sum_y c_y E[m_y m_x]
        #               - c_x E[m_x]/(N-1)
        # holds exactly; the last term is the self-collision correction.
        q, c = golden_chain.rates, golden_chain.absorption
        for n in (3, 5):
            g = occupancy_generator(golden_chain, n)
            m0 = np.arange(n + 1) / n
            for t in (0.4, 0.8, 1.5):
                law = occupancy_law(golden_chain, n, n, t)
                lhs = float((law @ g) @ m0)
                e_m0, e_m0sq = occupancy_moments(law, n)
                e_m1 = 1.0 - e_m0
                e_m1m0 = e_m0 - e_m0sq
                rhs = (
                    q[0, 0] * e_m0 + q[1, 0] * e_m1
                    + (n / (n - 1)) * (c[0] * e_m0sq + c[1] * e_m1m0)
                    - c[0] * e_m0 / (n - 1)
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)
                # Without the correction the books do not balance.
                bad = rhs + c[0] * e_m0 / (n - 1)
                assert abs(lhs - bad) > 1e-2


class TestSimulateTrajectory:
    def test_shape_and_consistency(self, golden_chain):
        xi0 = np.array([0, 0, 1])
        times = np.array([0.5, 1.0, 2.0])
        traj = simulate_trajectory(golden_chain, xi0, times, ReplicaSeed(5, 0))
        assert traj.shape == (3, 3)
        # Single-snapshot run consumes the identical event stream.
        final = simulate(golden_chain, xi0, 2.0, ReplicaSeed(5, 0))
        np.testing.assert_array_equal(traj[-1], final)

    def test_time_zero_snapshot(self, golden_chain):
        xi0 = np.array([0, 1])
        traj = simulate_trajectory(golden_chain, xi0, [0.0], 1)
        np.testing.assert_array_equal(traj[0], xi0)

    def test_bad_grids(self, golden_chain):
        xi0 = np.array([0, 1])
        for bad in ([], [1.0, 0.5], [-0.5, 1.0], [np.nan]):
            with pytest.raises(UnsortedTimesError):
                simulate_trajectory(golden_chain, xi0, bad, 1)

    def test_monotone_occupation_drift(self, golden_chain):
        # Started from the far corner, the mean site-0 fraction moves
        # toward the stationary value along the trajectory.
        times = np.array([0.25, 1.0, 4.0])
        r = 3000
        means = np.zeros(3)
        xi0 = np.zeros(10, dtype=np.int64)
        for k in range(r):
            traj = simulate_trajectory(golden_chain, xi0, times, ReplicaSeed(77, k))
            means += [(snap == 0).mean() for snap in traj]
        means /= r
        assert means[0] > means[1] > means[2]
        assert means[2] == pytest.approx(0.382, abs=0.05)


def _chi_square_quantile_999(dof: int) -> float:
    # Wilson-Hilferty approximation; 3.0902 is the normal 0.999 quantile.
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + 3.0902 * np.sqrt(h)) ** 3


def _assert_chi_square(observed, expected, label):
    # States expected fewer than 5 times are pooled into one bin.
    rare = expected < 5.0
    obs, exp = observed[~rare], expected[~rare]
    if rare.any():
        obs = np.append(obs, observed[rare].sum())
        exp = np.append(exp, expected[rare].sum())
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    assert chi2 < _chi_square_quantile_999(obs.size - 1), (label, chi2)


def labelled_law(chain, xi0, t):
    """Exact law of the labelled configuration at t, started from xi0."""
    g = labelled_generator(chain, len(xi0))
    p0 = np.zeros(len(g))
    p0[labelled_index(np.asarray(xi0), chain.n)] = 1.0
    return p0 @ series_expm(g, t)


class TestLabelledLaw:
    """simulate and simulate_trajectory against the exact labelled chain.

    Each sampled configuration is binned by its state in
    ``_oracles.labelled_generator`` and the histogram is checked against
    p0 expm(tQ) by a chi-square at the 0.999 quantile.  The five-site
    chain starts on its zero-absorption (forced-2.0) sites b and d.
    """

    CASES = {
        "golden-3": ("golden", [0, 0, 1]),
        "golden-4": ("golden", [0, 1, 0, 1]),
        "three_site-3": ("three_site", [0, 1, 2]),
        "five_site-3": ("five_site", [1, 3, 3]),
    }
    REPLICAS = 3000

    @pytest.fixture(params=list(CASES))
    def case(self, request):
        name, xi0 = self.CASES[request.param]
        return request.getfixturevalue(f"{name}_chain"), np.array(xi0)

    def test_simulate(self, case):
        chain, xi0 = case
        t = 0.8
        finals = np.array([simulate(chain, xi0, t, ReplicaSeed(4242, r))
                           for r in range(self.REPLICAS)])
        law = labelled_law(chain, xi0, t)
        observed = np.bincount(labelled_index(finals, chain.n),
                               minlength=law.size)
        _assert_chi_square(observed, self.REPLICAS * law, t)

    def test_simulate_trajectory(self, case):
        chain, xi0 = case
        times = [0.3, 1.2]
        paths = np.array([
            simulate_trajectory(chain, xi0, times, ReplicaSeed(4343, r))
            for r in range(self.REPLICAS)])
        for k, t in enumerate(times):
            law = labelled_law(chain, xi0, t)
            observed = np.bincount(labelled_index(paths[:, k], chain.n),
                                   minlength=law.size)
            _assert_chi_square(observed, self.REPLICAS * law, t)

    def test_lumps_to_count_generator(self, three_site_chain):
        # Summing the labelled law over configurations with the same site
        # counts gives the count chain's law.
        chain, n, t = three_site_chain, 4, 0.6
        xi0 = np.array([0, 1, 2, 1])
        counts = [tuple(np.bincount(c, minlength=chain.n).tolist())
                  for c in labelled_states(chain.n, n)]
        index = {tuple(c): i for i, c in enumerate(count_states(chain.n, n).tolist())}
        lumped = np.zeros(len(index))
        np.add.at(lumped, [index[c] for c in counts], labelled_law(chain, xi0, t))
        p0 = np.zeros(len(index))
        p0[index[(1, 2, 1)]] = 1.0
        np.testing.assert_allclose(
            lumped, p0 @ series_expm(count_generator(chain, n), t), atol=1e-12)


class TestSimulateCounts:
    def test_shape_and_mass(self, three_site_chain):
        xi0 = np.array([0, 0, 1, 2, 2])
        counts = simulate_counts(three_site_chain, xi0, [0.0, 0.5, 2.0], 7, 3)
        assert counts.shape == (7, 3, 3) and counts.dtype == np.int64
        np.testing.assert_array_equal(counts.sum(axis=2), 5)
        np.testing.assert_array_equal(counts[:, 0], np.tile([2, 1, 2], (7, 1)))

    def test_reproducible_and_block_keyed(self, golden_chain, monkeypatch):
        # Block b of a run starting at replica i is keyed by i + b *
        # BLOCK_REPLICAS, so a run that starts at a later block reproduces
        # that block of the longer run.
        from fvqsd import simulator

        monkeypatch.setattr(simulator, "BLOCK_REPLICAS", 4)
        xi0 = np.zeros(6, dtype=np.int64)
        a = simulate_counts(golden_chain, xi0, [1.0], 10, ReplicaSeed(9, 0))
        b = simulate_counts(golden_chain, xi0, [1.0], 10, ReplicaSeed(9, 0))
        np.testing.assert_array_equal(a, b)
        tail = simulate_counts(golden_chain, xi0, [1.0], 6, ReplicaSeed(9, 4))
        np.testing.assert_array_equal(a[4:], tail)
        assert len({tuple(row) for row in a[:, 0]}) > 1

    def test_single_site_fixed(self, single_site_chain):
        counts = simulate_counts(single_site_chain, np.zeros(4, dtype=np.int64),
                                 [1.0, 5.0], 3, 7)
        np.testing.assert_array_equal(counts, np.full((3, 2, 1), 4))

    def test_rarely_occupied_site_never_goes_negative(self):
        # Site c empties at rate 100 and fills at rate 0.01, so it is empty
        # on most steps; a pick or revival onto an empty site would drive
        # its count below 0.
        chain = validate_chain({
            "states": ["a", "b", "c"],
            "rates": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.01], [0.0, 100.0, 0.0]],
            "absorption": [1.0, 0.0, 50.0],
        })
        xi0 = np.array([0, 1, 2, 2])
        counts = simulate_counts(chain, xi0, [0.01, 0.5, 3.0], 2000, 5)
        assert counts.min() == 0
        np.testing.assert_array_equal(counts.sum(axis=2), 4)
        assert (counts[:, -1, 2] == 0).mean() > 0.9

    def test_bad_arguments(self, golden_chain):
        xi0 = np.array([0, 1])
        for bad in ([], [1.0, 0.5], [-0.5, 1.0], [np.nan]):
            with pytest.raises(UnsortedTimesError):
                simulate_counts(golden_chain, xi0, bad, 2, 1)
        with pytest.raises(ValueError):
            simulate_counts(golden_chain, xi0, [1.0], 0, 1)
        with pytest.raises(ValueError):
            simulate_counts(golden_chain, [0, 2], [1.0], 2, 1)

    def test_count_generator_is_occupancy_generator_on_two_sites(
        self, golden_chain, symmetric_chain
    ):
        for chain in (golden_chain, symmetric_chain):
            for n in (2, 5, 12):
                np.testing.assert_allclose(count_generator(chain, n),
                                           occupancy_generator(chain, n),
                                           rtol=1e-15, atol=0.0)

    def test_count_generator_rows(self, three_site_chain):
        g = count_generator(three_site_chain, 40)
        assert g.shape == (861, 861)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)
        assert (g - np.diag(np.diag(g))).min() >= 0.0

    @pytest.mark.parametrize("name, n, reps", [
        ("three_site", 3, 4000), ("three_site", 8, 4000),
        ("golden", 10, 4000), ("symmetric", 10, 4000),
    ])
    def test_law_matches_count_generator(self, name, n, reps, three_site_chain):
        # Chi-square of the sampled count law at each record time against
        # the exact law p0 expm(tG); states expected fewer than 5 times are
        # pooled into one bin.
        chain = {"three_site": three_site_chain,
                 "golden": _pilots.golden_chain(),
                 "symmetric": _pilots.symmetric_chain()}[name]
        times = [0.25, 0.5, 2.0]
        xi0 = np.arange(n, dtype=np.int64) % chain.n
        states = count_states(chain.n, n)
        index = {tuple(c): i for i, c in enumerate(states.tolist())}
        p0 = np.zeros(len(states))
        p0[index[tuple(np.bincount(xi0, minlength=chain.n).tolist())]] = 1.0
        g = count_generator(chain, n)
        sampled = simulate_counts(chain, xi0, times, reps, ReplicaSeed(2718, 0))
        for k, t in enumerate(times):
            law = p0 @ series_expm(g, t)
            observed = np.bincount(
                [index[tuple(c)] for c in sampled[:, k].tolist()],
                minlength=len(states))
            _assert_chi_square(observed, reps * law, t)


class TestStationarySampler:
    def test_shapes_and_simplex(self, golden_chain):
        samples = stationary_sampler(golden_chain, 12, 5.0, 40, 0.5, 3)
        assert samples.shape == (40, 2)
        np.testing.assert_allclose(samples.sum(axis=1), 1.0)

    def test_single_site_degenerate(self, single_site_chain):
        samples = stationary_sampler(single_site_chain, 4, 1.0, 10, 0.5, 3)
        np.testing.assert_array_equal(samples, np.ones((10, 1)))

    def test_symmetric_centered(self, symmetric_chain):
        samples = stationary_sampler(symmetric_chain, 30, 20.0, 200, 0.5, 11)
        mean = samples[:, 0].mean()
        assert mean == pytest.approx(0.5, abs=0.05)

    def test_bad_arguments(self, golden_chain):
        with pytest.raises(ValueError):
            stationary_sampler(golden_chain, 10, 0.0, 10, 1.0, 1)
        with pytest.raises(ValueError):
            stationary_sampler(golden_chain, 10, 1.0, 0, 1.0, 1)
        with pytest.raises(ValueError):
            stationary_sampler(golden_chain, 10, 1.0, 10, 0.0, 1)
