"""Unit tests for repro.core.surprise (the MaxPr objective)."""

import numpy as np
import pytest
from scipy import stats

from repro.claims.functions import LinearClaim, SumClaim, ThresholdClaim
from repro.core.surprise import (
    make_surprise_calculator,
    surprise_probability_discrete_linear,
    surprise_probability_exact,
    surprise_probability_monte_carlo,
    surprise_probability_normal_linear,
)
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution, NormalSpec
from repro.uncertainty.objects import UncertainObject


def example5_db():
    x1 = DiscreteDistribution.uniform([0.0, 0.5, 1.0, 1.5, 2.0])
    x2 = DiscreteDistribution.uniform([1.0 / 3.0, 1.0, 5.0 / 3.0])
    return UncertainDatabase(
        [UncertainObject("x1", 1.0, x1), UncertainObject("x2", 1.0, x2)]
    )


class TestExactSurprise:
    def test_empty_selection_is_zero(self):
        db = example5_db()
        claim = LinearClaim({0: 1.0, 1: 1.0})
        assert surprise_probability_exact(db, claim, [], tau=0.0) == 0.0

    def test_example5_clean_x1(self):
        # Pr[X1 + 1 < 17/12] = Pr[X1 < 5/12] = 1/5.
        db = example5_db()
        claim = LinearClaim({0: 1.0, 1: 1.0})
        p = surprise_probability_exact(db, claim, [0], tau=2.0 - 17.0 / 12.0)
        assert p == pytest.approx(1.0 / 5.0)

    def test_example5_clean_x2(self):
        # Pr[1 + X2 < 17/12] = Pr[X2 < 5/12] = 1/3 (the better MaxPr choice).
        db = example5_db()
        claim = LinearClaim({0: 1.0, 1: 1.0})
        p = surprise_probability_exact(db, claim, [1], tau=2.0 - 17.0 / 12.0)
        assert p == pytest.approx(1.0 / 3.0)

    def test_tau_zero_counts_any_drop(self):
        db = example5_db()
        claim = LinearClaim({0: 1.0})
        # X1 < 1 with probability 2/5.
        assert surprise_probability_exact(db, claim, [0], tau=0.0) == pytest.approx(0.4)

    def test_unreferenced_cleaning_gives_zero(self):
        db = example5_db()
        claim = LinearClaim({0: 1.0})
        assert surprise_probability_exact(db, claim, [1], tau=0.0) == 0.0

    def test_custom_baseline(self):
        db = example5_db()
        claim = LinearClaim({0: 1.0})
        p = surprise_probability_exact(db, claim, [0], tau=0.0, baseline=10.0)
        assert p == pytest.approx(1.0)

    def test_nonlinear_function(self):
        db = example5_db()
        indicator = ThresholdClaim(SumClaim([0, 1]), threshold=1.0, op=">=")
        # f(u) = 1; drop below 1 - 0 requires the indicator to become 0:
        # X1 + 1 < 1 never happens, so probability 0 when cleaning X1 alone.
        assert surprise_probability_exact(db, indicator, [0], tau=0.0) == 0.0


class TestDiscreteLinearSurprise:
    def test_matches_exact_enumeration(self, small_discrete_database):
        db = small_discrete_database
        weights = np.array([1.0, 0.5, -1.0, 2.0, 0.0, 1.0])
        claim = LinearClaim.from_vector(weights)
        for cleaned in ([0], [1, 2], [0, 3, 5]):
            for tau in (0.0, 1.0, 5.0):
                fast = surprise_probability_discrete_linear(db, weights, cleaned, tau=tau)
                exact = surprise_probability_exact(db, claim, cleaned, tau=tau)
                assert fast == pytest.approx(exact, abs=1e-9)

    def test_empty_selection(self, small_discrete_database):
        assert (
            surprise_probability_discrete_linear(
                small_discrete_database, np.ones(6), [], tau=0.0
            )
            == 0.0
        )

    def test_zero_weight_objects_are_ignored(self, small_discrete_database):
        db = small_discrete_database
        weights = np.zeros(6)
        weights[0] = 1.0
        with_extra = surprise_probability_discrete_linear(db, weights, [0, 3], tau=0.0)
        alone = surprise_probability_discrete_linear(db, weights, [0], tau=0.0)
        assert with_extra == pytest.approx(alone)

    def test_clt_fallback_close_to_exact(self, small_discrete_database):
        db = small_discrete_database
        weights = np.ones(6)
        exact = surprise_probability_discrete_linear(db, weights, range(6), tau=0.0)
        approx = surprise_probability_discrete_linear(
            db, weights, range(6), tau=0.0, max_exact_outcomes=1
        )
        assert approx == pytest.approx(exact, abs=0.12)

    def test_rejects_normal_objects(self, normal_database):
        with pytest.raises(TypeError):
            surprise_probability_discrete_linear(normal_database, np.ones(5), [0])


class TestNormalLinearSurprise:
    def test_centered_errors_half_probability(self, normal_database):
        weights = np.ones(len(normal_database))
        p = surprise_probability_normal_linear(normal_database, weights, [0], tau=0.0)
        assert p == pytest.approx(0.5)

    def test_matches_phi_formula(self, normal_database):
        weights = np.array([1.0, 2.0, 0.0, 1.0, 0.5])
        cleaned = [0, 1, 3]
        tau = 10.0
        variance = sum(
            (weights[i] ** 2) * normal_database[i].variance for i in cleaned
        )
        expected = stats.norm.cdf(-tau / np.sqrt(variance))
        assert surprise_probability_normal_linear(
            normal_database, weights, cleaned, tau=tau
        ) == pytest.approx(expected)

    def test_probability_increases_with_more_variance_cleaned(self, normal_database):
        weights = np.ones(5)
        tau = 5.0
        p_small = surprise_probability_normal_linear(normal_database, weights, [2], tau=tau)
        p_large = surprise_probability_normal_linear(normal_database, weights, [1], tau=tau)
        # Object 1 has the larger std (10 vs 2), so cleaning it is better.
        assert p_large > p_small

    def test_mean_shift_accounted(self):
        db = UncertainDatabase(
            [UncertainObject("a", 10.0, NormalSpec(mean=5.0, std=0.5), cost=1.0)]
        )
        p = surprise_probability_normal_linear(db, [1.0], [0], tau=0.0)
        assert p > 0.99

    def test_empty_selection(self, normal_database):
        assert surprise_probability_normal_linear(normal_database, np.ones(5), []) == 0.0

    def test_rejects_discrete_objects(self, small_discrete_database):
        with pytest.raises(TypeError):
            surprise_probability_normal_linear(small_discrete_database, np.ones(6), [0])


class TestMonteCarloSurprise:
    def test_close_to_exact(self, rng):
        db = example5_db()
        claim = LinearClaim({0: 1.0, 1: 1.0})
        estimate = surprise_probability_monte_carlo(
            db, claim, [1], rng, tau=2.0 - 17.0 / 12.0, samples=4000
        )
        assert estimate == pytest.approx(1.0 / 3.0, abs=0.03)

    def test_empty_selection(self, rng):
        db = example5_db()
        claim = LinearClaim({0: 1.0})
        assert surprise_probability_monte_carlo(db, claim, [], rng) == 0.0


class TestMakeSurpriseCalculator:
    def test_auto_prefers_normal(self, normal_database):
        claim = LinearClaim.from_vector(np.ones(5))
        pr = make_surprise_calculator(normal_database, claim, tau=0.0)
        assert pr([0]) == pytest.approx(0.5)

    def test_auto_uses_convolution_for_discrete_linear(self, small_discrete_database):
        claim = LinearClaim.from_vector(np.ones(6))
        pr = make_surprise_calculator(small_discrete_database, claim, tau=0.0)
        expected = surprise_probability_exact(small_discrete_database, claim, [0, 1], tau=0.0)
        assert pr([0, 1]) == pytest.approx(expected)

    def test_exact_method_for_nonlinear_discrete(self, small_discrete_database):
        claim = ThresholdClaim(SumClaim([0, 1, 2]), threshold=20.0)
        pr = make_surprise_calculator(small_discrete_database, claim, tau=0.0)
        assert 0.0 <= pr([0, 1]) <= 1.0

    def test_monte_carlo_fallback_for_nonlinear_normal(self, normal_database):
        claim = ThresholdClaim(SumClaim([0, 1]), threshold=250.0)
        pr = make_surprise_calculator(
            normal_database, claim, tau=0.0, rng=np.random.default_rng(0), monte_carlo_samples=500
        )
        assert 0.0 <= pr([0, 1]) <= 1.0

    def test_invalid_method_rejected(self, normal_database):
        claim = LinearClaim({0: 1.0})
        with pytest.raises(ValueError):
            make_surprise_calculator(normal_database, claim, method="bogus")

    def test_normal_method_needs_a_linear_f_and_an_all_normal_database(self, normal_database):
        # Before the check this sampled: 0.24925 where the exact value is 0.24.
        db = UncertainDatabase(
            [
                UncertainObject(f"x{i}", 1.0, DiscreteDistribution.uniform([0.0, 1.0, 2.0]))
                for i in range(4)
            ]
        )
        with pytest.raises(ValueError, match="all-normal"):
            make_surprise_calculator(db, LinearClaim.from_vector(np.ones(4)), tau=0.5, method="normal")
        indicator = ThresholdClaim(SumClaim([0, 1]), threshold=250.0)
        with pytest.raises(ValueError, match="linear f"):
            make_surprise_calculator(normal_database, indicator, method="normal")

    def test_convolution_method_needs_a_linear_f_and_an_all_discrete_database(
        self, normal_database, small_discrete_database
    ):
        with pytest.raises(ValueError, match="all-discrete"):
            make_surprise_calculator(
                normal_database, LinearClaim.from_vector(np.ones(5)), method="convolution"
            )
        indicator = ThresholdClaim(SumClaim([0, 1, 2]), threshold=20.0)
        with pytest.raises(ValueError, match="linear f"):
            make_surprise_calculator(small_discrete_database, indicator, method="convolution")

    def test_exact_method_needs_an_all_discrete_database(self, normal_database):
        with pytest.raises(ValueError, match="all-discrete"):
            make_surprise_calculator(
                normal_database, LinearClaim.from_vector(np.ones(5)), method="exact"
            )

    @pytest.mark.parametrize("samples", [0, -3, 2.5, True])
    def test_monte_carlo_samples_must_be_a_positive_integer(self, normal_database, samples):
        claim = ThresholdClaim(SumClaim([0, 1]), threshold=250.0)
        with pytest.raises(ValueError, match="monte_carlo_samples"):
            make_surprise_calculator(normal_database, claim, monte_carlo_samples=samples)

    def test_explicit_method_selection(self, small_discrete_database):
        claim = LinearClaim.from_vector(np.ones(6))
        exact = make_surprise_calculator(small_discrete_database, claim, method="exact")
        convolution = make_surprise_calculator(small_discrete_database, claim, method="convolution")
        assert exact([0, 2]) == pytest.approx(convolution([0, 2]), abs=1e-9)
