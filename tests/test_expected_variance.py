"""Unit tests for repro.core.expected_variance."""

import numpy as np
import pytest

from repro.claims.functions import LinearClaim, SumClaim, ThresholdClaim, WindowSumClaim
from repro.claims.perturbations import PerturbationSet
from repro.claims.quality import Bias, Duplicity, Fragility
from repro.core.expected_variance import (
    DecomposedEVCalculator,
    expected_variance_exact,
    expected_variance_monte_carlo,
    linear_expected_variance,
    make_ev_calculator,
    measure_mean,
    weighted_sum_pmf,
)
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution
from repro.uncertainty.objects import UncertainObject


def two_object_db():
    """Example 5/6 database."""
    x1 = DiscreteDistribution.uniform([0.0, 0.5, 1.0, 1.5, 2.0])
    x2 = DiscreteDistribution.uniform([1.0 / 3.0, 1.0, 5.0 / 3.0])
    return UncertainDatabase(
        [
            UncertainObject("x1", 1.0, x1, cost=1.0),
            UncertainObject("x2", 1.0, x2, cost=1.0),
        ]
    )


class TestExactEV:
    def test_no_cleaning_is_plain_variance_linear(self):
        db = two_object_db()
        claim = LinearClaim({0: 1.0, 1: 1.0})
        ev = expected_variance_exact(db, claim, [])
        assert ev == pytest.approx(0.5 + 8.0 / 27.0)

    def test_cleaning_everything_gives_zero(self):
        db = two_object_db()
        claim = LinearClaim({0: 1.0, 1: 1.0})
        assert expected_variance_exact(db, claim, [0, 1]) == pytest.approx(0.0)

    def test_cleaning_one_linear(self):
        db = two_object_db()
        claim = LinearClaim({0: 1.0, 1: 1.0})
        assert expected_variance_exact(db, claim, [0]) == pytest.approx(8.0 / 27.0)
        assert expected_variance_exact(db, claim, [1]) == pytest.approx(0.5)

    def test_example6_indicator_no_cleaning(self):
        # Var[1[X1+X2 < 11/12]] = 26/225 (paper, Example 6).
        db = two_object_db()
        claim = ThresholdClaim(SumClaim([0, 1]), threshold=11.0 / 12.0, op="<")
        assert expected_variance_exact(db, claim, []) == pytest.approx(26.0 / 225.0)

    def test_example6_indicator_clean_x1(self):
        # Expected variance after cleaning X1 is 4/45.
        db = two_object_db()
        claim = ThresholdClaim(SumClaim([0, 1]), threshold=11.0 / 12.0, op="<")
        assert expected_variance_exact(db, claim, [0]) == pytest.approx(4.0 / 45.0)

    def test_example6_indicator_clean_x2(self):
        # Expected variance after cleaning X2 is 2/25 (the better choice).
        db = two_object_db()
        claim = ThresholdClaim(SumClaim([0, 1]), threshold=11.0 / 12.0, op="<")
        assert expected_variance_exact(db, claim, [1]) == pytest.approx(2.0 / 25.0)

    def test_unreferenced_objects_do_not_matter(self):
        db = UncertainDatabase(
            [
                UncertainObject("a", 1.0, DiscreteDistribution.uniform([0.0, 2.0])),
                UncertainObject("b", 1.0, DiscreteDistribution.uniform([0.0, 10.0])),
            ]
        )
        claim = LinearClaim({0: 1.0})
        assert expected_variance_exact(db, claim, [1]) == pytest.approx(
            expected_variance_exact(db, claim, [])
        )

    def test_requires_discrete(self, normal_database):
        claim = LinearClaim({0: 1.0})
        with pytest.raises(TypeError):
            expected_variance_exact(normal_database, claim, [0])


class TestLinearClosedForm:
    def test_matches_exact_for_linear(self, small_discrete_database):
        db = small_discrete_database
        weights = np.array([1.0, -2.0, 0.5, 0.0, 1.0, 3.0])
        claim = LinearClaim.from_vector(weights)
        for cleaned in ([], [0], [1, 4], [0, 1, 2, 3, 4, 5]):
            assert linear_expected_variance(db, weights, cleaned) == pytest.approx(
                expected_variance_exact(db, claim, cleaned)
            )

    def test_weights_squared(self):
        db = two_object_db()
        assert linear_expected_variance(db, [2.0, 0.0], []) == pytest.approx(4.0 * 0.5)

    def test_cleaned_objects_removed(self):
        db = two_object_db()
        assert linear_expected_variance(db, [1.0, 1.0], [0]) == pytest.approx(8.0 / 27.0)


class TestWeightedSumPmf:
    def test_single_object(self):
        db = two_object_db()
        pmf = weighted_sum_pmf(db, [1], {1: 1.0})
        values = [v for v, _ in pmf]
        assert values == pytest.approx([1.0 / 3.0, 1.0, 5.0 / 3.0])
        assert sum(p for _, p in pmf) == pytest.approx(1.0)

    def test_offset_and_weights(self):
        db = two_object_db()
        pmf = weighted_sum_pmf(db, [0], {0: 2.0}, offset=10.0)
        values = [v for v, _ in pmf]
        assert values == pytest.approx([10.0, 11.0, 12.0, 13.0, 14.0])

    def test_empty_indices_is_point_mass_at_offset(self):
        db = two_object_db()
        pmf = weighted_sum_pmf(db, [], {}, offset=3.0)
        assert pmf == [(3.0, 1.0)]

    def test_convolution_merges_equal_sums(self):
        db = UncertainDatabase(
            [
                UncertainObject("a", 0.0, DiscreteDistribution.uniform([0.0, 1.0])),
                UncertainObject("b", 0.0, DiscreteDistribution.uniform([0.0, 1.0])),
            ]
        )
        pmf = weighted_sum_pmf(db, [0, 1], {0: 1.0, 1: 1.0})
        assert [v for v, _ in pmf] == [0.0, 1.0, 2.0]
        assert [p for _, p in pmf] == pytest.approx([0.25, 0.5, 0.25])

    def test_mean_matches_moments(self, small_discrete_database):
        db = small_discrete_database
        weights = {0: 1.0, 1: 2.0, 2: -1.0}
        pmf = weighted_sum_pmf(db, [0, 1, 2], weights)
        mean = sum(v * p for v, p in pmf)
        expected = db[0].mean + 2 * db[1].mean - db[2].mean
        assert mean == pytest.approx(expected)

    def test_requires_discrete(self, normal_database):
        with pytest.raises(TypeError):
            weighted_sum_pmf(normal_database, [0], {0: 1.0})


def make_measure(database, cls, **kwargs):
    """Duplicity/Fragility/Bias over two non-overlapping 2-value windows of a 6-object db."""
    original = WindowSumClaim(4, 2, label="original")
    perturbations = (WindowSumClaim(0, 2), WindowSumClaim(2, 2), WindowSumClaim(4, 2))
    ps = PerturbationSet(original, perturbations, (1.0, 1.0, 1.0))
    return cls(ps, database.current_values, **kwargs)


@pytest.fixture
def six_object_db(rng):
    objects = []
    for i in range(6):
        values = rng.choice(np.arange(1, 12), size=3, replace=False).astype(float)
        dist = DiscreteDistribution(values, rng.uniform(0.2, 1.0, size=3))
        objects.append(
            UncertainObject(f"o{i}", float(dist.mean), dist, cost=float(rng.uniform(1, 3)))
        )
    return UncertainDatabase(objects)


class TestDecomposedEVCalculator:
    @pytest.mark.parametrize("measure_cls", [Bias, Duplicity, Fragility])
    def test_matches_exact_enumeration(self, six_object_db, measure_cls):
        measure = make_measure(six_object_db, measure_cls)
        calculator = DecomposedEVCalculator(six_object_db, measure)
        for cleaned in ([], [0], [1, 4], [0, 1, 2], [0, 1, 2, 3, 4, 5]):
            assert calculator.expected_variance(cleaned) == pytest.approx(
                expected_variance_exact(six_object_db, measure, cleaned), abs=1e-9
            )

    def test_marginal_gain_consistent_with_differences(self, six_object_db):
        measure = make_measure(six_object_db, Duplicity)
        calculator = DecomposedEVCalculator(six_object_db, measure)
        for cleaned in ([], [2], [0, 3]):
            for candidate in range(6):
                if candidate in cleaned:
                    assert calculator.marginal_gain(cleaned, candidate) == 0.0
                    continue
                expected = calculator.expected_variance(cleaned) - calculator.expected_variance(
                    list(cleaned) + [candidate]
                )
                assert calculator.marginal_gain(cleaned, candidate) == pytest.approx(expected, abs=1e-9)

    def test_cleaning_everything_gives_zero(self, six_object_db):
        measure = make_measure(six_object_db, Fragility)
        calculator = DecomposedEVCalculator(six_object_db, measure)
        assert calculator.expected_variance(range(6)) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_continuous_database(self, normal_database):
        original = WindowSumClaim(0, 2)
        ps = PerturbationSet(original, (WindowSumClaim(2, 2),), (1.0,))
        measure = Duplicity(ps, normal_database.current_values)
        with pytest.raises(TypeError):
            DecomposedEVCalculator(normal_database, measure)

    def test_caches_are_populated(self, six_object_db):
        measure = make_measure(six_object_db, Duplicity)
        calculator = DecomposedEVCalculator(six_object_db, measure)
        calculator.expected_variance([])
        calculator.expected_variance([0])
        variance_entries, covariance_entries = calculator.cache_sizes()
        assert variance_entries > 0

    def test_overlapping_terms_covariance(self, six_object_db):
        # Perturbations sharing objects exercise the pairwise covariance path.
        original = WindowSumClaim(0, 3, label="original")
        ps = PerturbationSet(
            original, (WindowSumClaim(0, 3), WindowSumClaim(1, 3), WindowSumClaim(3, 3)), (1, 1, 1)
        )
        measure = Duplicity(ps, six_object_db.current_values)
        calculator = DecomposedEVCalculator(six_object_db, measure)
        for cleaned in ([], [1], [0, 4]):
            assert calculator.expected_variance(cleaned) == pytest.approx(
                expected_variance_exact(six_object_db, measure, cleaned), abs=1e-9
            )


class TestMonteCarloEV:
    def test_close_to_exact_for_linear(self, rng):
        db = two_object_db()
        claim = LinearClaim({0: 1.0, 1: 1.0})
        estimate = expected_variance_monte_carlo(
            db, claim, [0], rng, outer_samples=150, inner_samples=400
        )
        assert estimate == pytest.approx(8.0 / 27.0, rel=0.2)

    def test_zero_when_everything_cleaned(self, rng):
        db = two_object_db()
        claim = LinearClaim({0: 1.0, 1: 1.0})
        assert expected_variance_monte_carlo(db, claim, [0, 1], rng) == 0.0

    @pytest.mark.parametrize(
        "option, samples",
        [
            ("outer_samples", 0),
            ("outer_samples", 1.5),
            ("inner_samples", 0),
            ("inner_samples", False),
        ],
    )
    def test_sample_counts_must_be_positive_integers(self, rng, option, samples):
        # outer_samples=0 used to divide by zero; inner_samples=0 returned NaN.
        with pytest.raises(ValueError, match=option):
            expected_variance_monte_carlo(
                two_object_db(), LinearClaim({0: 1.0, 1: 1.0}), [0], rng, **{option: samples}
            )


class TestMeasureMean:
    def test_linear_fast_path_matches_enumeration(self, six_object_db):
        measure = make_measure(six_object_db, Duplicity)
        fast = measure_mean(six_object_db, measure)
        # brute force over full joint support of referenced objects
        brute = 0.0
        referenced = sorted(measure.referenced_indices)
        for assignment, probability in six_object_db.enumerate_joint_support(referenced):
            values = six_object_db.values_with_assignment(assignment)
            brute += probability * measure.evaluate(values)
        assert fast == pytest.approx(brute, abs=1e-9)

    def test_mean_of_certain_database_is_evaluation(self, six_object_db):
        measure = make_measure(six_object_db, Duplicity)
        cleaned = six_object_db.cleaned({i: six_object_db[i].current_value for i in range(6)})
        assert measure_mean(cleaned, measure) == pytest.approx(
            measure.evaluate(six_object_db.current_values)
        )


class TestMakeEVCalculator:
    def test_dispatch_linear(self, six_object_db):
        claim = LinearClaim({0: 1.0, 5: 2.0})
        ev = make_ev_calculator(six_object_db, claim)
        assert ev([]) == pytest.approx(six_object_db.variances[0] + 4 * six_object_db.variances[5])

    def test_dispatch_measure(self, six_object_db):
        measure = make_measure(six_object_db, Duplicity)
        ev = make_ev_calculator(six_object_db, measure)
        assert ev([]) == pytest.approx(expected_variance_exact(six_object_db, measure, []), abs=1e-9)

    def test_dispatch_generic(self, six_object_db):
        claim = ThresholdClaim(SumClaim([0, 1]), threshold=10.0)
        ev = make_ev_calculator(six_object_db, claim)
        assert ev([0]) == pytest.approx(expected_variance_exact(six_object_db, claim, [0]))
