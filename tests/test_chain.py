from __future__ import annotations

import json

import numpy as np
import pytest

from fvqsd import (
    MAX_RATE,
    AbsorbingChain,
    inflow_dominance,
    load_chain,
    transient_vector,
    validate_chain,
)
from fvqsd.errors import (
    ChainFormatError,
    ChainValidationError,
    DimensionMismatchError,
    HorizonOverflowError,
    NegativeRateError,
    NoAbsorptionError,
    NotIrreducibleError,
    RateBoundError,
)

from _oracles import series_expm
from conftest import make_random_chain


def spec2(q12=1.0, q21=1.0, c1=1.0, c2=0.0):
    return {
        "states": ["1", "2"],
        "rates": [[0.0, q12], [q21, 0.0]],
        "absorption": [c1, c2],
    }


class TestValidateChain:
    def test_golden_roundtrip(self, golden_chain):
        assert golden_chain.states == ("1", "2")
        assert golden_chain.n == 2
        # Diagonal is recomputed: rows sum to -absorption.
        np.testing.assert_allclose(
            golden_chain.rates.sum(axis=1), -golden_chain.absorption
        )
        assert golden_chain.rates[0, 0] == -2.0
        assert golden_chain.rates[1, 1] == -1.0

    def test_diagonal_input_ignored(self):
        spec = spec2()
        spec["rates"] = [[123.0, 1.0], [1.0, -77.0]]
        chain = validate_chain(spec)
        assert chain.rates[0, 0] == -2.0
        assert chain.rates[1, 1] == -1.0

    def test_arrays_read_only(self, golden_chain):
        with pytest.raises(ValueError):
            golden_chain.rates[0, 1] = 9.0
        with pytest.raises(ValueError):
            golden_chain.absorption[0] = 9.0

    def test_single_site_valid(self, single_site_chain):
        assert single_site_chain.n == 1
        assert single_site_chain.jump_kernel.tolist() == [[1.0]]
        assert single_site_chain.max_internal_rate == 0.0

    def test_unknown_field_rejected(self):
        spec = spec2()
        spec["comment"] = "nope"
        with pytest.raises(ChainFormatError, match="comment"):
            validate_chain(spec)

    def test_missing_field_rejected(self):
        spec = spec2()
        del spec["absorption"]
        with pytest.raises(ChainFormatError, match="absorption"):
            validate_chain(spec)

    def test_duplicate_states_rejected(self):
        spec = spec2()
        spec["states"] = ["1", "1"]
        with pytest.raises(ChainFormatError):
            validate_chain(spec)

    def test_non_string_states_rejected(self):
        spec = spec2()
        spec["states"] = [1, 2]
        with pytest.raises(ChainFormatError):
            validate_chain(spec)

    def test_negative_rate_rejected(self):
        with pytest.raises(NegativeRateError):
            validate_chain(spec2(q12=-0.5))
        with pytest.raises(NegativeRateError):
            validate_chain(spec2(c1=-1.0))

    def test_rate_cap(self):
        with pytest.raises(RateBoundError):
            validate_chain(spec2(q12=MAX_RATE * 2))
        validate_chain(spec2(q12=MAX_RATE))  # boundary is allowed

    def test_no_absorption_rejected(self):
        with pytest.raises(NoAbsorptionError):
            validate_chain(spec2(c1=0.0, c2=0.0))

    def test_not_irreducible(self):
        # State 1 unreachable from 2.
        with pytest.raises(NotIrreducibleError):
            validate_chain(spec2(q21=0.0))

    def test_dimension_mismatch(self):
        spec = spec2()
        spec["rates"] = [[0.0, 1.0]]
        with pytest.raises(DimensionMismatchError):
            validate_chain(spec)
        spec = spec2()
        spec["absorption"] = [1.0]
        with pytest.raises(DimensionMismatchError):
            validate_chain(spec)

    def test_non_numeric_entry(self):
        spec = spec2()
        spec["rates"] = [[0.0, "x"], [1.0, 0.0]]
        with pytest.raises(ChainFormatError):
            validate_chain(spec)

    @pytest.mark.parametrize("field", ["rates", "absorption"])
    def test_entry_too_large_for_a_double(self, field):
        # JSON reads 1 followed by 400 zeros as a Python int, which numpy
        # cannot convert to a double.
        spec = spec2()
        if field == "rates":
            spec["rates"] = [[0.0, 10**400], [1.0, 0.0]]
        else:
            spec["absorption"] = [10**400, 0.0]
        with pytest.raises(ChainValidationError, match="fit a double"):
            validate_chain(spec)

    @pytest.mark.parametrize("field", ["rates", "absorption"])
    @pytest.mark.parametrize("entry", ["1e0", True, None, [1.0], np.True_],
                             ids=["string", "true", "none", "list", "numpy-bool"])
    def test_non_number_entry_refused(self, field, entry):
        # numpy would read each of these as a double (None as NaN) or
        # fail on the nested list with a shape message.
        spec = spec2()
        if field == "rates":
            spec["rates"] = [[0.0, entry], [1.0, 0.0]]
        else:
            spec["absorption"] = [entry, 0.0]
        with pytest.raises(ChainFormatError, match="must be numbers"):
            validate_chain(spec)
        with pytest.raises(ChainFormatError, match="must be numbers"):
            AbsorbingChain(("1", "2"), spec["rates"], spec["absorption"])

    @pytest.mark.parametrize("rates, absorption", [
        ([[0, 1], [2, 0]], [1, 0]),
        ([[0.0, np.float64(1.0)], [np.int64(2), 0.0]], [np.float32(1.0), 0]),
        (np.array([[0, 1], [2, 0]]), np.array([1, 0], dtype=np.uint8)),
        (np.array([[0.0, 1.0], [2.0, 0.0]], dtype=np.float32),
         np.array([1.0, 0.0])),
    ], ids=["ints", "numpy-scalars", "integer-arrays", "float32-array"])
    def test_numeric_entries_accepted(self, rates, absorption):
        chain = AbsorbingChain(("1", "2"), rates, absorption)
        assert chain.rates.dtype == np.float64
        np.testing.assert_array_equal(chain.rates, [[-2.0, 1.0], [2.0, -2.0]])
        np.testing.assert_array_equal(chain.absorption, [1.0, 0.0])

    # pyproject.toml turns a RuntimeWarning into a test error, so these
    # also check that no numpy warning is emitted on the way.
    @pytest.mark.parametrize("rates, absorption", [
        ([[0.0, np.nan], [1.0, 0.0]], [1.0, 0.0]),
        ([[0.0, np.inf], [1.0, 0.0]], [1.0, 0.0]),
        ([[0.0, 1.0, np.inf, -np.inf], [1.0] * 4, [1.0] * 4, [1.0] * 4],
         [1.0] * 4),
        ([[0.0, 1.0], [1.0, 0.0]], [np.nan, 0.0]),
        ([[0.0, 1.0], [1.0, 0.0]], [np.inf, 0.0]),
        ([[0.0, 1.0], [1.0, 0.0]], [np.inf, -np.inf]),
    ], ids=["rates-nan", "rates-inf", "rates-both-infinities",
            "absorption-nan", "absorption-inf", "absorption-both-infinities"])
    def test_non_finite_entry_refused(self, rates, absorption):
        spec = {"states": [str(k) for k in range(len(absorption))],
                "rates": rates, "absorption": absorption}
        with pytest.raises(NegativeRateError, match="finite"):
            validate_chain(spec)

    def test_row_sum_past_dbl_max_refused(self):
        with pytest.raises(RateBoundError):
            validate_chain(spec2(q12=1e308, c1=1e308))

    def test_index_lookup(self, golden_chain):
        assert golden_chain.index("2") == 1
        with pytest.raises(KeyError):
            golden_chain.index("nope")


# Inputs validate_chain refuses, each with the type both paths raise.
REFUSED = {
    "nan": (["1", "2"], [[0.0, np.nan], [1.0, 0.0]], [1.0, 0.0], NegativeRateError),
    "inf": (["1", "2"], [[0.0, np.inf], [1.0, 0.0]], [1.0, 0.0], NegativeRateError),
    "minus-inf": (["1", "2"], [[0.0, 1.0], [1.0, 0.0]], [-np.inf, 0.0],
                  NegativeRateError),
    "negative": (["1", "2"], [[0.0, -0.5], [1.0, 0.0]], [1.0, 0.0],
                 NegativeRateError),
    "above-max-rate": (["1", "2"], [[0.0, 1.0], [1.0, 0.0]], [2 * MAX_RATE, 0.0],
                       RateBoundError),
    "no-absorption": (["1", "2"], [[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0],
                      NoAbsorptionError),
    "reducible": (["1", "2"], [[0.0, 1.0], [0.0, 0.0]], [1.0, 1.0],
                  NotIrreducibleError),
    "no-states": ([], [], [], ChainFormatError),
    "duplicate-states": (["1", "1"], [[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0],
                         ChainFormatError),
    "rates-shape": (["1", "2"], [[0.0, 1.0]], [1.0, 0.0], DimensionMismatchError),
    "absorption-shape": (["1", "2"], [[0.0, 1.0], [1.0, 0.0]], [1.0],
                         DimensionMismatchError),
    "single-site-no-absorption": (["a"], [[0.0]], [0.0], NoAbsorptionError),
}


class TestConstruction:
    """``AbsorbingChain(...)`` checks what ``validate_chain`` checks."""

    @pytest.mark.parametrize("states, rates, absorption, error",
                             REFUSED.values(), ids=list(REFUSED))
    def test_refused_as_by_validate_chain(self, states, rates, absorption, error):
        with pytest.raises(ChainValidationError) as validated:
            validate_chain({"states": states, "rates": rates,
                            "absorption": absorption})
        with pytest.raises(ChainValidationError) as direct:
            AbsorbingChain(tuple(states), rates, absorption)
        assert type(validated.value) is type(direct.value) is error
        assert str(direct.value) == str(validated.value)

    @pytest.mark.parametrize("fixture", [
        "golden_chain", "symmetric_chain", "single_site_chain",
        "three_site_chain", "five_site_chain"])
    def test_both_paths_give_the_same_bytes(self, request, fixture):
        chain = request.getfixturevalue(fixture)
        direct = AbsorbingChain(chain.states, np.array(chain.jump_rates),
                                np.array(chain.absorption))
        validated = validate_chain({
            "states": list(chain.states),
            "rates": chain.jump_rates.tolist(),
            "absorption": chain.absorption.tolist(),
        })
        for name in ("rates", "site_rates", "move_table", "cum_jump_kernel"):
            a, b = getattr(direct, name), getattr(validated, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert a.tobytes() == getattr(chain, name).tobytes()


class TestLoadChain:
    def test_load_valid(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(spec2()))
        chain = load_chain(path)
        assert chain.states == ("1", "2")

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"states": ["1", "2",\n  "rates": }')
        with pytest.raises(ChainFormatError, match=r"line \d+, column \d+"):
            load_chain(path)

    def test_unknown_field_from_file(self, tmp_path):
        path = tmp_path / "extra.json"
        spec = spec2()
        spec["extra"] = 1
        path.write_text(json.dumps(spec))
        with pytest.raises(ChainFormatError, match="extra"):
            load_chain(path)


class TestJumpKernel:
    def test_golden_rows(self, golden_chain):
        # qbar = 1: site 1 always jumps to 2 and vice versa.
        np.testing.assert_allclose(
            golden_chain.jump_kernel, [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_rows_stochastic(self, three_site_chain):
        k = three_site_chain.jump_kernel
        np.testing.assert_allclose(k.sum(axis=1), 1.0)
        assert (k >= 0.0).all()
        # Site a moves to b at rate 2 out of qbar=3; leftover sits on a.
        np.testing.assert_allclose(k[0], [1.0 / 3.0, 2.0 / 3.0, 0.0])


class TestCumulativeTables:
    def test_zero_target_after_last_positive(self):
        # Site a has no absorption and its last positive target is b, so
        # its move-table row is forced from b on, past the zero rate to c.
        chain = validate_chain({
            "states": ["a", "b", "c"],
            "rates": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 2.0, 0.0]],
            "absorption": [0.0, 0.5, 1.0],
        })
        np.testing.assert_array_equal(chain.move_table, [
            [0.0, 2.0, 2.0], [0.4, 0.4, 0.8], [0.0, 2 / 3, 2 / 3]])
        np.testing.assert_array_equal(chain.cum_jump_kernel, [
            [0.5, 2.0, 2.0], [0.5, 0.5, 2.0], [0.0, 2.0, 2.0]])

    def test_five_site_rows(self, five_site_chain):
        np.testing.assert_array_equal(five_site_chain.move_table, [
            [0.0, 0.5, 0.5, 0.5, 0.6818181818181818],
            [0.3, 0.3, 2.0, 2.0, 2.0],
            [0.0, 0.3103448275862069, 0.3103448275862069, 0.896551724137931,
             0.896551724137931],
            [0.0, 0.0, 0.8571428571428572, 0.8571428571428572, 2.0],
            [0.3225806451612903, 0.3225806451612903, 0.3225806451612903,
             0.8387096774193549, 0.8387096774193549],
        ])
        np.testing.assert_array_equal(five_site_chain.cum_jump_kernel, [
            [0.42307692307692313, 0.8461538461538463, 0.8461538461538463,
             0.8461538461538463, 2.0],
            [0.11538461538461538, 0.7307692307692308, 2.0, 2.0, 2.0],
            [0.0, 0.34615384615384615, 0.34615384615384615, 2.0, 2.0],
            [0.0, 0.0, 0.23076923076923075, 0.9615384615384616, 2.0],
            [0.1923076923076923, 0.1923076923076923, 0.1923076923076923, 0.5,
             2.0],
        ])

    def test_match_row_by_row_reference(self):
        # Sparse random chains with zero absorption at about half the
        # sites, built directly, against the tables built one row at a
        # time.  A draw the type refuses (reducible, or never killed) is
        # skipped.
        rng = np.random.default_rng(28)
        built = zero_absorption_rows = 0
        while built < 200:
            n = int(rng.integers(1, 7))
            off = 5.0 * (1.0 - rng.random((n, n))) * (rng.random((n, n)) < 0.6)
            absorption = rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.5)
            try:
                chain = AbsorbingChain(tuple(map(str, range(n))), off, absorption)
            except (NotIrreducibleError, NoAbsorptionError):
                continue
            built += 1
            move = np.zeros((n, n))
            cum = np.cumsum(chain.jump_kernel, axis=1)
            for x in range(n):
                move[x] = np.cumsum(chain.jump_rates[x]) / chain.site_rates[x]
                if absorption[x] == 0.0:
                    zero_absorption_rows += 1
                    move[x, np.flatnonzero(chain.jump_rates[x] > 0.0)[-1]:] = 2.0
                cum[x, np.flatnonzero(chain.jump_kernel[x] > 0.0)[-1]:] = 2.0
            np.testing.assert_array_equal(chain.move_table, move)
            np.testing.assert_array_equal(chain.cum_jump_kernel, cum)
        assert zero_absorption_rows > 0


class TestTransientVector:
    def test_single_site_exponential(self, single_site_chain):
        w = transient_vector(single_site_chain, [1.0], 1.0)
        np.testing.assert_allclose(w, [np.exp(-1.0)], atol=1e-13)

    def test_time_zero_identity(self, golden_chain):
        mu = np.array([0.3, 0.7])
        np.testing.assert_array_equal(transient_vector(golden_chain, mu, 0.0), mu)

    def test_symmetric_closed_form(self):
        # 2-state flip at rate 1 from a point mass, killed at rate a at
        # both sites: the flip's law times the survival e^{-a t}.
        a = 0.5
        chain = AbsorbingChain(
            states=("1", "2"),
            rates=np.array([[0.0, 1.0], [1.0, 0.0]]),
            absorption=np.full(2, a),
        )
        w = transient_vector(chain, [1.0, 0.0], 1.0)
        expected = np.exp(-a) * np.array(
            [(1.0 + np.exp(-2.0)) / 2.0, (1.0 - np.exp(-2.0)) / 2.0])
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_booleans_refused(self, golden_chain):
        # numpy reads True as 1.0, so this used to return a vector.
        with pytest.raises(TypeError, match="^weights must be numbers .*got True$"):
            transient_vector(golden_chain, [True, False], 1.0)

    def test_errors(self, golden_chain):
        mu = [0.5, 0.5]
        with pytest.raises(ValueError, match="finite"):
            transient_vector(golden_chain, mu, np.inf)
        with pytest.raises(ValueError, match="nonnegative"):
            transient_vector(golden_chain, mu, -1.0)
        # Finite t, but t times the largest site rate (2) overflows.
        with pytest.raises(HorizonOverflowError, match="not finite"):
            transient_vector(golden_chain, mu, 1e308)

    def test_series_oracle_matches_scipy(self):
        # Meta-check: the hand-rolled series oracle against an unrelated
        # third implementation, so oracle bugs cannot hide.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(42)
        for _ in range(10):
            chain = make_random_chain(rng)
            t = float(rng.uniform(0.1, 3.0))
            ours = series_expm(chain.rates, t)
            ref = scipy_linalg.expm(t * chain.rates)
            assert np.abs(ours - ref).max() < 1e-11

    def test_series_oracle_squares_past_overflow(self):
        # Rates x1000 at t = 1 put the shift at theta ~ 2500, where
        # e^{theta} alone overflows; the oracle halves t three times.
        chain = validate_chain({
            "states": ["1", "2"],
            "rates": [[0.0, 1e3], [1e3, 0.0]],
            "absorption": [1e3, 0.0],
        })
        ours = series_expm(chain.rates, 1.0)
        ref = np.vstack([transient_vector(chain, row, 1.0)
                         for row in np.eye(2)])
        assert np.isfinite(ours).all() and (ours > 0.0).all()
        assert np.abs(ours - ref).sum() <= 1e-12
        np.testing.assert_allclose(ours, ref, rtol=1e-11)

    def test_series_oracle_refuses_nan(self, golden_chain):
        q = np.array(golden_chain.rates)
        q[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            series_expm(q, 1.0)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            chain = make_random_chain(rng)
            n = chain.n
            mu = rng.dirichlet(np.ones(n))
            t = float(rng.uniform(0.1, 3.0))
            w = transient_vector(chain, mu, t)
            w_oracle = mu @ series_expm(chain.rates, t)
            assert np.abs(w - w_oracle).max() < 1e-10

    def test_nonnegative_entries(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            chain = make_random_chain(rng)
            mu = rng.dirichlet(np.ones(chain.n))
            w = transient_vector(chain, mu, 2.5)
            assert (w >= 0.0).all()

    def test_unnormalized_semigroup_property(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            chain = make_random_chain(rng)
            mu = rng.dirichlet(np.ones(chain.n))
            s, t = 0.7, 1.1
            w_direct = transient_vector(chain, mu, s + t)
            w_s = transient_vector(chain, mu, s)
            w_two = w_s @ series_expm(chain.rates, t)
            assert np.abs(w_direct - w_two).max() < 1e-11

    def test_survival_nonincreasing(self, golden_chain):
        mu = [0.5, 0.5]
        masses = [
            transient_vector(golden_chain, mu, t).sum()
            for t in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_long_horizon_split(self, single_site_chain):
        # rate * t = 700 takes ten squarings; the answer is still the plain
        # exponential.
        w = transient_vector(single_site_chain, [1.0], 700.0)
        np.testing.assert_allclose(w, [np.exp(-700.0)], rtol=1e-9)


class TestInflowDominance:
    def test_holds(self):
        d = inflow_dominance(validate_chain(spec2(q12=2.0, q21=2.0, c1=1.0, c2=1.0)))
        assert d.holds is True
        assert d.guaranteed_inflow == 4.0
        assert d.max_absorption == 1.0

    def test_fails(self):
        d = inflow_dominance(validate_chain(spec2(q12=0.1, q21=0.1)))
        assert d.holds is False
        np.testing.assert_allclose(d.guaranteed_inflow, 0.2)
        assert d.max_absorption == 1.0

    def test_single_site(self, single_site_chain):
        d = inflow_dominance(single_site_chain)
        assert d == (False, 0.0, 1.0)

    def test_boundary_is_strict(self):
        d = inflow_dominance(validate_chain(spec2(q12=0.5, q21=0.5)))
        assert d.guaranteed_inflow == d.max_absorption == 1.0
        assert d.holds is False
