from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvqsd import (
    ConvergenceCurve,
    ReplicaSeed,
    conditioned_law,
    batch_means_se,
    convergence_experiment,
    correlation_experiment,
    covariance_bound,
    empirical_measure,
    extreme_profiles,
    product_moment_experiment,
    qsd,
    qsd_profile_experiment,
    simulate_trajectory,
    stationary_sampler,
    tv_distance,
    validate_chain,
)
from fvqsd import estimators
from fvqsd.errors import HorizonOverflowError, QsdNotConvergedError
from fvqsd.simulator import configuration_from_profile

import _pilots
from _oracles import (
    GOLD_NU,
    LARGEST_T,
    occupancy_generator,
    occupancy_law,
    occupancy_moments,
    occupancy_stationary_law,
    series_expm,
)


def weights(min_size=1, max_size=8):
    return st.lists(
        st.floats(0.01, 1.0, allow_nan=False), min_size=min_size, max_size=max_size
    )


@st.composite
def prob_pair(draw):
    a = np.array(draw(weights(2, 8)))
    b = np.array(draw(weights(len(a), len(a))))
    return a / a.sum(), b / b.sum()


class TestDistances:
    def test_examples(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 2.0
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    @settings(deadline=None)
    @given(prob_pair())
    def test_sandwich(self, pair):
        p, q = pair
        tv = tv_distance(p, q)
        l2 = np.linalg.norm(p - q)
        n = p.size
        assert l2 <= tv + 1e-12
        assert tv <= np.sqrt(n) * l2 + 1e-12

    @settings(deadline=None)
    @given(prob_pair(), weights(2, 8))
    def test_triangle(self, pair, raw):
        p, q = pair
        if len(raw) != p.size:
            return
        r = np.array(raw)
        r = r / r.sum()
        assert tv_distance(p, q) <= tv_distance(p, r) + tv_distance(r, q) + 1e-12

    def test_empirical_measure(self):
        m = empirical_measure(np.array([0, 1, 1, 2]), 4)
        np.testing.assert_allclose(m, [0.25, 0.5, 0.25, 0.0])
        assert m.sum() == pytest.approx(1.0)


class TestExtremeProfiles:
    def test_structure(self):
        profiles = extreme_profiles(3)
        assert len(profiles) == 4
        np.testing.assert_array_equal(profiles[0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(profiles[-1], np.full(3, 1 / 3))

    def test_invalid(self):
        with pytest.raises(ValueError):
            extreme_profiles(0)


class TestBatchMeans:
    def test_constant_series(self):
        assert batch_means_se(np.full(100, 3.7)) == pytest.approx(0.0, abs=1e-12)

    def test_iid_scale(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 1.0, 4000)
        se = batch_means_se(x)
        naive = x.std(ddof=1) / np.sqrt(x.size)
        assert 0.5 * naive < se < 2.0 * naive

    def test_errors(self):
        with pytest.raises(ValueError):
            batch_means_se(np.ones(39))


class TestCovarianceBound:
    def test_formula(self, golden_chain):
        n, t = 101, 0.5
        off = covariance_bound(golden_chain, n, t, same_site=False)
        on = covariance_bound(golden_chain, n, t, same_site=True)
        assert off == pytest.approx((2.0 / 101.0) * (np.e - 1.0))
        assert on - off == pytest.approx(1.0 / 101.0)
        # Published constant for this grid point.
        assert np.isclose(off, 0.034024, atol=2e-6)

    def test_grows_with_time(self, golden_chain):
        bounds = [covariance_bound(golden_chain, 50, t, False) for t in (0.1, 0.5, 1.0)]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_largest_horizon_stays_finite(self, golden_chain):
        bound = covariance_bound(golden_chain, 50, LARGEST_T, False)
        assert np.isfinite(bound) and bound > 1e300

    def test_overflowing_horizon_refused(self, golden_chain, monkeypatch):
        # 2 C t = 800 is above log(DBL_MAX): the bound used to come back
        # infinite with a numpy RuntimeWarning, and correlation_experiment
        # simulated its replicas first.
        with pytest.raises(HorizonOverflowError, match="overflows at 2 C t = 800"):
            covariance_bound(golden_chain, 50, 400.0, True)

        def no_draws(*args):
            raise AssertionError("simulated before refusing the horizon")

        monkeypatch.setattr(estimators, "simulate_counts", no_draws)
        with pytest.raises(HorizonOverflowError, match="overflows at 2 C t = 800"):
            correlation_experiment(golden_chain, np.zeros(5, dtype=np.int64),
                                   400.0, "1", "2", 10, seed=3)


    @pytest.mark.parametrize("t", [np.nan, -np.inf, -1.0, -1e-300])
    def test_bad_time_refused(self, golden_chain, t):
        # A nan t used to return nan, and t = -1 the bound -0.346 at N = 5.
        with pytest.raises(ValueError, match="time must be nonnegative"):
            covariance_bound(golden_chain, 5, t, True)

    @pytest.mark.parametrize("n", [0, -3])
    def test_bad_particle_count_refused(self, golden_chain, n):
        # n_particles = 0 used to raise a bare ZeroDivisionError.
        with pytest.raises(ValueError, match="n_particles must be at least 1"):
            covariance_bound(golden_chain, n, 0.5, False)


class TestCorrelationExperiment:
    def test_time_zero_exact(self, golden_chain):
        est = correlation_experiment(
            golden_chain, np.array([0, 0, 1, 1]), 0.0, "1", "2", 50, seed=3
        )
        assert est.covariance == 0.0
        assert est.std_error == 0.0

    def test_within_bound(self, golden_chain):
        xi0 = np.zeros(11, dtype=np.int64)
        est = correlation_experiment(golden_chain, xi0, 0.25, "1", "2", 800, seed=17)
        assert abs(est.covariance) <= est.bound + 3 * est.std_error
        assert est.bound == pytest.approx(covariance_bound(golden_chain, 11, 0.25, False))
        assert est.site_x == "1" and est.site_y == "2"

    def test_same_site_bound_includes_variance_term(self, golden_chain):
        xi0 = np.zeros(11, dtype=np.int64)
        est = correlation_experiment(golden_chain, xi0, 0.25, "1", "1", 200, seed=17)
        assert est.bound == pytest.approx(covariance_bound(golden_chain, 11, 0.25, True))

    def test_variance_shrinks_like_one_over_n(self, golden_chain):
        ests = [
            correlation_experiment(
                golden_chain, np.zeros(n, dtype=np.int64), 0.5, "1", "1", 3000, seed=29
            ).covariance
            for n in (10, 40)
        ]
        ratio = ests[0] / ests[1]
        assert 2.5 < ratio < 6.5

    def test_site_resolution(self, golden_chain):
        xi0 = np.zeros(4, dtype=np.int64)
        with pytest.raises(KeyError):
            correlation_experiment(golden_chain, xi0, 0.1, "zz", "2", 10, seed=1)
        with pytest.raises(ValueError):
            correlation_experiment(golden_chain, xi0, 0.1, 5, 1, 10, seed=1)
        with pytest.raises(ValueError):
            correlation_experiment(golden_chain, xi0, 0.1, 0, 1, 1, seed=1)
        for t in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="time must be finite"):
                correlation_experiment(golden_chain, xi0, t, 0, 1, 10, seed=1)


class TestConvergenceCurve:
    def test_monotone_n_required(self):
        with pytest.raises(ValueError):
            ConvergenceCurve(
                n_values=np.array([10, 10]),
                estimates=np.zeros(2),
                std_errors=np.zeros(2),
            )


class TestConvergenceExperiment:
    def test_time_zero_exact(self, golden_chain):
        curve = convergence_experiment(
            golden_chain, [np.array([0.5, 0.5])], 0.0, [10, 20], 10, seed=1
        )
        np.testing.assert_array_equal(curve.estimates, [0.0, 0.0])
        np.testing.assert_array_equal(curve.std_errors, [0.0, 0.0])

    def test_single_site_degenerate(self, single_site_chain):
        curve = convergence_experiment(
            single_site_chain, [np.array([1.0])], 1.0, [5, 10], 10, seed=1
        )
        np.testing.assert_array_equal(curve.estimates, [0.0, 0.0])

    def test_decreasing_in_n(self, golden_chain):
        curve = convergence_experiment(
            golden_chain,
            extreme_profiles(2),
            1.0,
            [10, 40],
            400,
            seed=23,
        )
        assert curve.estimates[0] > curve.estimates[1]
        assert (curve.std_errors > 0).all()

    def test_input_validation(self, golden_chain):
        with pytest.raises(ValueError):
            convergence_experiment(golden_chain, [], 1.0, [10], 10, seed=1)
        with pytest.raises(ValueError):
            convergence_experiment(
                golden_chain, [np.array([0.5, 0.5])], 1.0, [10], 1, seed=1
            )


class TestQsdProfileExperiment:
    def test_decreasing_in_n(self, golden_chain):
        curve = qsd_profile_experiment(
            golden_chain, [10, 40], burn_in=15.0, n_samples=120, spacing=0.5, seed=5
        )
        assert curve.estimates[0] > curve.estimates[1] > 0.0
        assert (curve.std_errors > 0).all()
        assert curve.n_values.tolist() == [10, 40]

    def test_dominated_by_transient_plus_semigroup_gap(self, golden_chain):
        # Triangle chain through T_t m(xi0): the stationary distance to nu
        # is at most the worst transient gap plus the worst distance of the
        # conditioned law from nu at the same horizon.
        n, t = 40, 1.0
        solution = qsd(golden_chain)
        transient = convergence_experiment(
            golden_chain, extreme_profiles(2), t, [n], replicas=3000, seed=71
        )
        semigroup_worst = max(
            tv_distance(conditioned_law(golden_chain, point, t), solution.nu)
            for point in np.eye(2)
        )
        stationary = qsd_profile_experiment(
            golden_chain, [n], burn_in=20.0, n_samples=400, spacing=1.0,
            seed=72,
        )
        lhs = stationary.estimates[0]
        rhs = transient.estimates[0] + semigroup_worst
        slack = 3.0 * (stationary.std_errors[0] + transient.std_errors[0])
        assert lhs <= rhs + slack


    def test_reductions_match_per_sample_calls(
            self, golden_chain, three_site_chain, five_site_chain):
        # stationary_sampler counts all its samples with one bincount, and
        # qsd_profile_experiment takes all their distances in one array
        # call; both equal the per-sample empirical_measure and tv_distance
        # calls bit for bit, also on 12 sites, where numpy sums a row
        # pairwise.
        ring = np.roll(np.eye(12), 1, axis=1) + 0.5 * np.roll(np.eye(12), -1, axis=1)
        wide = validate_chain({"states": [f"s{k:02d}" for k in range(12)],
                               "rates": ring.tolist(),
                               "absorption": np.linspace(0.1, 1.2, 12).tolist()})
        n, burn_in, n_samples, spacing = 30, 2.0, 60, 0.1
        times = burn_in + spacing * np.arange(1, n_samples + 1)
        for chain in (golden_chain, three_site_chain, five_site_chain, wide):
            seed = ReplicaSeed(17, 0)
            xi0 = configuration_from_profile(np.full(chain.n, 1.0 / chain.n),
                                             n, chain.states)
            traj = simulate_trajectory(chain, xi0, times, seed)
            measures = np.array([empirical_measure(row, chain.n) for row in traj])
            samples = stationary_sampler(chain, n, burn_in, n_samples, spacing,
                                         seed)
            np.testing.assert_array_equal(samples, measures)

            nu = qsd(chain).require_converged().nu
            dists = np.array([tv_distance(m, nu) for m in measures])
            curve = qsd_profile_experiment(chain, [n], burn_in, n_samples,
                                           spacing, seed)
            assert curve.estimates[0] == dists.mean(), chain.states
            assert curve.std_errors[0] == batch_means_se(dists)


class TestUnconvergedQsd:
    def test_computed_solution_raises(self, golden_chain, monkeypatch):
        monkeypatch.setattr(estimators, "qsd",
                            lambda chain: qsd(chain, max_iter=2))
        with pytest.raises(QsdNotConvergedError):
            qsd_profile_experiment(golden_chain, [10], 1.0, 40, 0.5, seed=1)
        with pytest.raises(QsdNotConvergedError):
            product_moment_experiment(golden_chain, ["1"], 10, 1.0, 40, 0.5,
                                      seed=1)


class TestProductMoment:
    def test_distinct_sites_required(self, golden_chain):
        with pytest.raises(ValueError):
            product_moment_experiment(
                golden_chain, ["1", "1"], 10, 5.0, 40, 0.5, seed=1
            )
        with pytest.raises(ValueError):
            product_moment_experiment(golden_chain, [], 10, 5.0, 40, 0.5, seed=1)

    def test_single_site_tracks_qsd_weight(self, golden_chain):
        est = product_moment_experiment(
            golden_chain, ["1"], 60, 20.0, 200, 0.5, seed=13
        )
        assert est.reference == pytest.approx(GOLD_NU[0], abs=1e-9)
        assert abs(est.estimate - est.reference) < 0.05

    def test_pair_moment(self, golden_chain):
        est = product_moment_experiment(
            golden_chain, ["1", "2"], 60, 20.0, 200, 0.5, seed=13
        )
        assert est.reference == pytest.approx(float(GOLD_NU[0] * GOLD_NU[1]), abs=1e-9)
        assert abs(est.estimate - est.reference) < 0.07
        assert est.sites == ("1", "2")


class TestStationaryCountOracle:
    """Criterion 08 against the exact stationary law of the site-0 count.

    On the golden chain the particle system collapses to the count chain
    of ``_oracles.occupancy_generator``; with k particles at site 0,
    ||m - nu|| = 2 |k/N - nu(0)| and m(0) m(1) = (k/N)(1 - k/N).
    """

    @staticmethod
    def exact(golden_chain, n):
        law = occupancy_stationary_law(golden_chain, n)
        m0 = np.arange(n + 1) / n
        return law, float(law @ (2.0 * np.abs(m0 - GOLD_NU[0]))), float(
            law @ (m0 * (1.0 - m0)))

    def test_law_is_stationary(self, golden_chain):
        for n in (10, 40, 160):
            law, _, _ = self.exact(golden_chain, n)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)
            assert law.min() > -1e-15
            g = occupancy_generator(golden_chain, n)
            assert np.abs(law @ g).max() < 1e-12

    def test_exact_values(self, golden_chain):
        distances = [self.exact(golden_chain, n)[1] for n in (10, 40, 160)]
        np.testing.assert_allclose(distances, [0.2678, 0.1332, 0.0663],
                                   atol=5e-5)
        assert self.exact(golden_chain, 160)[2] == pytest.approx(
            0.234367, abs=5e-7)

    def test_recorded_pilot_within_3_se(self, golden_chain):
        with open(_pilots.RESULTS_PATH) as fh:
            record = json.load(fh)["stationary_profiles"]
        for n, value, se in zip(record["n_list"], record["distances"],
                                record["std_errors"]):
            exact = self.exact(golden_chain, n)[1]
            assert abs(value - exact) <= 3.0 * se, (n, value, exact, se)
        exact = self.exact(golden_chain, record["n_list"][-1])[2]
        gap = abs(record["product_moment"] - exact)
        assert gap <= 3.0 * record["product_se"], (record, exact)



class TestTransientCountOracle:
    """Criteria 05 and 07 against the exact law of the site-0 count at t.

    On a 2-site chain m(1) = 1 - m(0), so criterion 05's cross covariance
    is -Var(m_0) and its same-site covariance +Var(m_0).  With k particles
    at site 0, criterion 07's distance to the conditioned law tau is
    2 |k/N - tau(0)|, and tau comes from ``_oracles.series_expm``; nothing
    here calls the package's propagator.
    """

    CHAINS = {"golden": _pilots.golden_chain, "symmetric": _pilots.symmetric_chain}

    @staticmethod
    def variance(chain, n, k0, t):
        mean, second = occupancy_moments(occupancy_law(chain, n, k0, t), n)
        return second - mean**2

    @staticmethod
    def distance(chain, n, k0, t):
        w = np.array([k0 / n, 1.0 - k0 / n]) @ series_expm(chain.rates, t)
        m0 = np.arange(n + 1) / n
        law = occupancy_law(chain, n, k0, t)
        return float(law @ (2.0 * np.abs(m0 - w[0] / w.sum())))

    def correlation_cells(self):
        """(recorded cell, chain, exact Var(m_0)) over criterion 05's grid."""
        with open(_pilots.RESULTS_PATH) as fh:
            cells = json.load(fh)["correlation_grid"]["cells"]
        assert len(cells) == 24
        for cell in cells:
            chain = self.CHAINS[cell["chain"]]()
            n = cell["N"]
            # The balanced start puts an odd N's leftover particle on
            # site "1", index 0.
            yield cell, chain, self.variance(chain, n, n - n // 2, cell["t"])

    def test_exact_covariance_within_bound(self):
        for cell, chain, var in self.correlation_cells():
            bound = covariance_bound(chain, cell["N"], cell["t"],
                                     same_site=cell["x"] == cell["y"])
            assert 0.0 < var <= bound, (cell, var, bound)

    def test_recorded_covariances_within_3_se(self):
        for cell, _, var in self.correlation_cells():
            exact = var if cell["x"] == cell["y"] else -var
            assert abs(cell["covariance"] - exact) <= 3.0 * cell["se"], (
                cell, exact)

    def test_recorded_convergence_curve_within_3_se(self):
        chain = _pilots.golden_chain()
        t = _pilots.CONVERGENCE["t"]
        with open(_pilots.RESULTS_PATH) as fh:
            record = json.load(fh)["convergence_curve"]
        exact = []
        for n in record["n_list"]:
            # extreme_profiles(2): both point masses, then the balanced
            # profile (every N here is even).
            exact.append(max(self.distance(chain, n, k0, t)
                             for k0 in (n, 0, n // 2)))
        np.testing.assert_allclose(exact, [0.2878, 0.1417, 0.0707], atol=5e-5)
        for value, se, want in zip(record["estimates"], record["std_errors"],
                                   exact):
            assert abs(value - want) <= 3.0 * se, (value, want, se)
