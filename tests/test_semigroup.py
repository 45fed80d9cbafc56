from __future__ import annotations

import json

import numpy as np
import pytest

from fvqsd import (
    AbsorbingChain,
    conditioned_law,
    decay_rate_estimate,
    forward_ode,
    qsd,
    transient_vector,
    tv_distance,
    validate_chain,
)
from fvqsd.cli import main
from fvqsd.errors import (
    DistanceUnderflowError,
    NoAbsorptionError,
    NormalizationDriftError,
    NotIrreducibleError,
    QsdNotConvergedError,
    StepTooLargeError,
    SurvivalUnderflowError,
    UnsortedTimesError,
)
from fvqsd.semigroup import DRIFT_LIMIT

from _oracles import (
    GOLD_ALPHA,
    GOLD_GAP,
    GOLD_NU,
    dominant_left_eigenpair,
    rk4_forward_ode,
    series_expm,
)
from conftest import make_random_chain


class TestConditionedLaw:
    def test_time_zero(self, golden_chain):
        mu = np.array([0.25, 0.75])
        np.testing.assert_array_equal(conditioned_law(golden_chain, mu, 0.0), mu)

    def test_single_site_degenerate(self, single_site_chain):
        # Conditioning removes the killing entirely.
        np.testing.assert_allclose(
            conditioned_law(single_site_chain, [1.0], 3.0), [1.0]
        )

    def test_unit_sum(self, golden_chain):
        law = conditioned_law(golden_chain, [1.0, 0.0], 2.0)
        assert law.sum() == pytest.approx(1.0, abs=1e-13)
        assert (law >= 0.0).all()

    def test_qsd_fixed_point(self, golden_chain):
        for t in (0.5, 1.0, 2.0):
            law = conditioned_law(golden_chain, GOLD_NU, t)
            assert np.abs(law - GOLD_NU).sum() < 1e-10

    def test_survival_underflow(self, single_site_chain):
        with pytest.raises(SurvivalUnderflowError):
            conditioned_law(single_site_chain, [1.0], 800.0)

    def test_long_horizon_returns(self, symmetric_chain, tmp_path, capsys):
        # rate * t = 1e6 costs 20 squarings; the survival mass e^{-5e5}
        # underflows, so conditioning on it is refused, also by the CLI.
        w = transient_vector(symmetric_chain, [1.0, 0.0], 1e6)
        np.testing.assert_array_equal(w, [0.0, 0.0])
        with pytest.raises(SurvivalUnderflowError):
            conditioned_law(symmetric_chain, [1.0, 0.0], 1e6)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "semigroup",
            "chain": {"states": ["1", "2"], "rates": [[0.0, 0.5], [0.5, 0.0]],
                      "absorption": [0.5, 0.5]},
            "parameters": {"initial": "1", "t_grid": [1.0, 2.0, 3.0, 1e6]},
        }))
        assert main(["semigroup", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err

    def test_matches_normalized_series(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            chain = make_random_chain(rng)
            mu = rng.dirichlet(np.ones(chain.n))
            t = float(rng.uniform(0.2, 2.0))
            w = mu @ series_expm(chain.rates, t)
            np.testing.assert_allclose(
                conditioned_law(chain, mu, t), w / w.sum(), atol=1e-11
            )


class TestQsd:
    def test_golden_values(self, golden_chain):
        sol = qsd(golden_chain)
        assert sol.converged
        np.testing.assert_allclose(sol.nu, GOLD_NU, atol=1e-9)
        assert sol.alpha == pytest.approx(GOLD_ALPHA, abs=1e-9)
        assert sol.residual <= 1e-12

    def test_symmetric_flat(self, symmetric_chain):
        sol = qsd(symmetric_chain)
        np.testing.assert_allclose(sol.nu, [0.5, 0.5], atol=1e-12)
        assert sol.alpha == pytest.approx(-0.5, abs=1e-12)

    def test_single_site(self, single_site_chain):
        sol = qsd(single_site_chain)
        np.testing.assert_allclose(sol.nu, [1.0])
        assert sol.alpha == pytest.approx(-1.0, abs=1e-12)

    def test_alpha_is_mean_absorption(self):
        # alpha = -sum_x nu(x) q(x, 0) for any chain.
        rng = np.random.default_rng(11)
        for _ in range(20):
            chain = make_random_chain(rng)
            sol = qsd(chain)
            assert sol.alpha == pytest.approx(
                -float(sol.nu @ chain.absorption), abs=1e-8
            )

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            chain = make_random_chain(rng)
            sol = qsd(chain)
            alpha_ref, nu_ref = dominant_left_eigenpair(chain.rates)
            assert np.abs(sol.nu - nu_ref).sum() < 1e-8
            assert sol.alpha == pytest.approx(alpha_ref, abs=1e-8)

    def test_max_iter_flags_not_converged(self, golden_chain):
        sol = qsd(golden_chain, max_iter=2)
        assert not sol.converged
        assert sol.iterations == 2
        # Best iterate still a distribution.
        assert sol.nu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_result_immutable(self, golden_chain):
        sol = qsd(golden_chain)
        with pytest.raises(ValueError):
            sol.nu[0] = 0.9

    def test_bad_arguments(self, golden_chain):
        with pytest.raises(ValueError):
            qsd(golden_chain, tol=0.0)
        with pytest.raises(ValueError):
            qsd(golden_chain, max_iter=0)


def bottleneck_spec(fast: float) -> dict:
    """3 sites; a<->b at ``fast``, the links a<->c, b<->c and the
    absorption at c all at 1e-2, so the decay rate is ~3e-3 whatever the
    fast rate."""
    s = 1e-2
    return {
        "states": ["a", "b", "c"],
        "rates": [[0.0, fast, s], [fast, 0.0, s], [s, s, 0.0]],
        "absorption": [0.0, 0.0, s],
    }


class TestStiffQsd:
    @pytest.mark.parametrize("fast", [1.0, 1e2, 1e3, 1e4])
    def test_iterations_flat_in_fast_rate(self, fast):
        chain = validate_chain(bottleneck_spec(fast))
        sol = qsd(chain)
        alpha_ref, nu_ref = dominant_left_eigenpair(chain.rates)
        assert sol.converged
        assert sol.iterations <= 25
        assert np.abs(sol.nu - nu_ref).sum() <= 1e-8
        assert abs(sol.alpha - alpha_ref) <= 1e-9 * abs(alpha_ref)

    @pytest.mark.parametrize("fast", [1e5, 1e6])
    def test_roundoff_floor_reported_unconverged(self, fast):
        # An absolute 1e-12 residual of v Q is below roundoff at these
        # rates, so the default tol cannot be met and must not be claimed;
        # the stalled residual ends the solve long before max_iter.
        chain = validate_chain(bottleneck_spec(fast))
        sol = qsd(chain)
        assert not sol.converged
        assert sol.iterations <= 25
        assert sol.residual > 1e-12
        _, nu_ref = dominant_left_eigenpair(chain.rates)
        assert np.abs(sol.nu - nu_ref).sum() <= 1e-8

    @staticmethod
    def perfbench_grid(rates):
        # Half a relaxation time apart, as perfbench's `exact` workload.
        alpha_ref, _ = dominant_left_eigenpair(rates)
        second = np.sort(np.linalg.eigvals(rates).real)[-2]
        return [k * 0.5 / (alpha_ref - second) for k in range(1, 5)]

    def test_semigroup_kind_on_stiff_chain(self, tmp_path):
        for fast in (1e3, 1e4):
            spec = bottleneck_spec(fast)
            rates = validate_chain(spec).rates
            alpha_ref, nu_ref = dominant_left_eigenpair(rates)
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "kind": "semigroup", "chain": spec,
                "parameters": {"initial": "a",
                               "t_grid": self.perfbench_grid(rates)},
            }))
            out = tmp_path / f"out{fast:g}"
            assert main(["semigroup", "--config", str(cfg),
                         "--out", str(out)]) == 0
            results = json.loads((out / "summary.json").read_text())["results"]
            assert np.abs(np.array(results["nu"]) - nu_ref).sum() <= 1e-8
            assert results["alpha"] == pytest.approx(alpha_ref, rel=1e-9)

    def test_decay_fit_matches_scipy_expm(self):
        # rate * t reaches ~6e5 on this grid, 20 squarings deep.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        chain = validate_chain(bottleneck_spec(1e4))
        mu = np.array([1.0, 0.0, 0.0])
        sol = qsd(chain)
        fit = decay_rate_estimate(chain, mu, self.perfbench_grid(chain.rates),
                                  solution=sol)
        expected = []
        for t in fit.times:
            w = mu @ scipy_linalg.expm(t * chain.rates)
            expected.append(tv_distance(w / w.sum(), sol.nu))
        np.testing.assert_allclose(fit.distances, expected, rtol=1e-9)

    def test_singular_minus_q_raises(self):
        # Chains whose -Q would be singular cannot be built: site c is
        # closed and never absorbed, or no site is absorbed at all.
        with pytest.raises(NotIrreducibleError):
            AbsorbingChain(
                states=("a", "b", "c"),
                rates=[[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                absorption=[0.0, 1.0, 0.0],
            )
        with pytest.raises(NoAbsorptionError):
            AbsorbingChain(
                states=("1", "2"), rates=[[0.0, 1.0], [1.0, 0.0]],
                absorption=[0.0, 0.0],
            )


class TestForwardOde:
    def test_time_zero(self, golden_chain):
        mu = np.array([0.4, 0.6])
        np.testing.assert_array_equal(forward_ode(golden_chain, mu, 0.0, 0.01), mu)

    def test_step_limit(self, golden_chain):
        # max site rate 2 -> limit 0.05
        with pytest.raises(StepTooLargeError):
            forward_ode(golden_chain, [0.5, 0.5], 1.0, 0.06)
        forward_ode(golden_chain, [0.5, 0.5], 1.0, 0.05)

    def test_zero_absorption_is_linear(self):
        # With the same absorption a at every site, v . absorption = a on
        # the simplex, so the field is v (Q + a I): the plain forward
        # equation of the unkilled chain, whose law RK4 must reproduce.
        a = 0.7
        chain = AbsorbingChain(
            states=("1", "2", "3"),
            rates=np.array([
                [0.0, 1.0, 0.5],
                [2.0, 0.0, 1.0],
                [0.5, 0.5, 0.0],
            ]),
            absorption=np.full(3, a),
        )
        mu = np.array([1.0, 0.0, 0.0])
        got = forward_ode(chain, mu, 2.0, 0.01)
        want = mu @ series_expm(chain.rates + a * np.eye(3), 2.0)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_matches_conditioned_law(self, golden_chain):
        mu = [1.0, 0.0]
        for t in (0.5, 1.0, 3.0):
            a = conditioned_law(golden_chain, mu, t)
            b = forward_ode(golden_chain, mu, t, 0.045)
            assert np.abs(a - b).sum() < 1e-6

    @staticmethod
    def absorbing_chain():
        return AbsorbingChain(
            states=("a", "b", "c", "d"),
            rates=np.array([
                [8.18, 6.35, 5.20, 5.08],
                [9.07, 9.56, 8.03, 8.65],
                [7.72, 9.68, 9.08, 5.01],
                [9.29, 5.17, 8.65, 5.88],
            ]),
            absorption=np.array([9.32, 7.71, 6.50, 7.11]),
        )

    def test_divergence_raises_drift(self):
        # Off the simplex the sum S of v obeys S' = (v . a)(S - 1), so a
        # roundoff error in S grows like exp(int v . a dt).  On this
        # strongly absorbing chain that passes DRIFT_LIMIT from t = 3 on
        # whatever the step: a step ten times below the stability limit
        # still raises, while at t = 1 the integration is accurate.
        chain = self.absorbing_chain()
        mu = np.full(4, 0.25)
        step = 0.1 / chain.site_rates.max()
        with pytest.raises(NormalizationDriftError):
            forward_ode(chain, mu, 5.0, step)
        for t in (3.0, 4.0, 5.0):
            with pytest.raises(NormalizationDriftError):
                forward_ode(chain, mu, t, step / 10.0)
        got = forward_ode(chain, mu, 1.0, step)
        assert np.abs(got - conditioned_law(chain, mu, 1.0)).sum() <= 1e-12

    def test_matches_stagewise_reference(self, golden_chain):
        # The Krylov-basis step is the same RK4 step on the same field,
        # so only roundoff separates it from the stage-by-stage loop.
        # Steps as in criterion 02: 0.045 on the golden chain, 0.09 over
        # the largest site rate on the bottleneck ladder and the family.
        cases = [(golden_chain, t, 0.045) for t in (0.5, 1.0, 3.0)]
        stiff = [validate_chain(bottleneck_spec(fast))
                 for fast in (1.0, 3.0, 10.0, 1e3)]
        rng = np.random.default_rng(2026)
        family = [make_random_chain(rng) for _ in range(20)]
        for chains, times in ((stiff, (0.25, 0.5)),
                              (family, (0.25, 0.5, 3.0))):
            for chain in chains:
                step = 0.09 / float(chain.site_rates.max())
                cases += [(chain, t, step) for t in times]
        for chain, t, step in cases:
            mu = np.full(chain.n, 1.0 / chain.n)
            want = rk4_forward_ode(chain, mu, t, step)
            got = forward_ode(chain, mu, t, step)
            assert np.abs(got - want / want.sum()).sum() <= 1e-12, (chain, t)

    def test_errors_match_stagewise_reference(self):
        # Both raise the drift error where the stage-by-stage loop drifts
        # past DRIFT_LIMIT, and the step check still guards the entry.
        chain = self.absorbing_chain()
        mu = np.full(4, 0.25)
        step = 0.1 / chain.site_rates.max()
        for t, h in ((4.0, step), (5.0, step), (3.0, step / 10.0)):
            drift = abs(rk4_forward_ode(chain, mu, t, h).sum() - 1.0)
            assert not (drift <= DRIFT_LIMIT)
            with pytest.raises(NormalizationDriftError):
                forward_ode(chain, mu, t, h)
        for h in (step * 1.01, 1.0):
            with pytest.raises(StepTooLargeError):
                forward_ode(chain, mu, 1.0, h)

    def test_bad_arguments(self, golden_chain):
        with pytest.raises(ValueError):
            forward_ode(golden_chain, [0.5, 0.5], np.inf, 0.01)
        with pytest.raises(ValueError):
            forward_ode(golden_chain, [0.5, 0.5], 1.0, 0.0)


class TestDecayRateEstimate:
    def test_golden_rate(self, golden_chain):
        fit = decay_rate_estimate(golden_chain, [1.0, 0.0], np.arange(0.5, 4.01, 0.5))
        assert fit.theta == pytest.approx(GOLD_GAP, rel=0.05)
        assert fit.r_squared >= 0.999
        # Distances shrink monotonically along the grid.
        assert (np.diff(fit.distances) < 0).all()

    def test_symmetric_rate_exact(self, symmetric_chain):
        # Uniform killing cancels under conditioning; the distance is
        # exactly e^{-2t}, so the fit is a perfect line with slope -2.
        fit = decay_rate_estimate(symmetric_chain, [1.0, 0.0], [0.25, 0.5, 0.75, 1.0])
        assert fit.theta == pytest.approx(2.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_reuses_solution(self, golden_chain):
        sol = qsd(golden_chain)
        fit = decay_rate_estimate(golden_chain, [1.0, 0.0], [0.5, 1.0, 1.5, 2.0], sol)
        assert fit.times.size == 4

    def test_unconverged_solution_raises(self, golden_chain):
        sol = qsd(golden_chain, max_iter=2)
        with pytest.raises(QsdNotConvergedError, match="did not converge"):
            decay_rate_estimate(golden_chain, [1.0, 0.0], [0.5, 1.0, 1.5, 2.0], sol)

    def test_underflow_at_qsd(self, golden_chain):
        with pytest.raises(DistanceUnderflowError):
            decay_rate_estimate(golden_chain, GOLD_NU, [1.0, 2.0, 3.0, 4.0])

    def test_grid_validation(self, golden_chain):
        mu = [1.0, 0.0]
        with pytest.raises(ValueError):
            decay_rate_estimate(golden_chain, mu, [1.0, 2.0, 3.0])
        with pytest.raises(UnsortedTimesError):
            decay_rate_estimate(golden_chain, mu, [1.0, 2.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            decay_rate_estimate(golden_chain, mu, [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("grid", [[1e-300, 2e-300, 3e-300, 4e-300],
                                      [1.0, 2.0, 3.0, 1e300]],
                             ids=["spread-underflows", "spread-overflows"])
    def test_grid_spread_must_square_finite(self, monkeypatch, grid):
        # A spread of 1e-300 squares to 0, and the slope used to come out
        # as 0/0 = NaN; one of 1e300 squares to inf.  Both are refused
        # before any conditioned law is computed.
        chain = validate_chain({"states": ["a", "b"], "rates": [[0, 1], [1, 0]],
                                "absorption": [1, 0.5]})

        def no_law(*args):
            raise AssertionError("conditioned_law called")

        monkeypatch.setattr("fvqsd.semigroup.conditioned_law", no_law)
        with pytest.raises(UnsortedTimesError, match="spread"):
            decay_rate_estimate(chain, [1.0, 0.0], grid)

    def test_distances_match_direct(self, golden_chain):
        times = [0.5, 1.0, 1.5, 2.0]
        sol = qsd(golden_chain)
        fit = decay_rate_estimate(golden_chain, [0.0, 1.0], times, sol)
        direct = [
            tv_distance(conditioned_law(golden_chain, [0.0, 1.0], t), sol.nu)
            for t in times
        ]
        np.testing.assert_allclose(fit.distances, direct)
