"""Unit tests for repro.core.greedy (Algorithm 1 and its instantiations)."""

import numpy as np
import pytest

from repro.claims.functions import LinearClaim, SumClaim, ThresholdClaim, WindowSumClaim
from repro.claims.perturbations import PerturbationSet
from repro.claims.quality import Duplicity
from repro.core.expected_variance import (
    DecomposedEVCalculator,
    expected_variance_exact,
    linear_expected_variance,
)
from repro.core.greedy import (
    GreedyDep,
    GreedyMaxPr,
    GreedyMinVar,
    GreedyNaive,
    GreedyNaiveCostBlind,
    RandomSelector,
    greedy_select,
)
from repro.core.surprise import surprise_probability_exact
from repro.uncertainty.correlation import GaussianWorldModel, decaying_covariance
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution, NormalSpec
from repro.uncertainty.objects import UncertainObject


def example_db():
    """Example 5/6 database (unit costs)."""
    x1 = DiscreteDistribution.uniform([0.0, 0.5, 1.0, 1.5, 2.0])
    x2 = DiscreteDistribution.uniform([1.0 / 3.0, 1.0, 5.0 / 3.0])
    return UncertainDatabase(
        [UncertainObject("x1", 1.0, x1), UncertainObject("x2", 1.0, x2)]
    )


class TestGreedyTemplate:
    def test_respects_budget(self, small_discrete_database):
        db = small_discrete_database
        selected = greedy_select(db, 5.0, lambda T, i: db.variances[i])
        assert sum(db.costs[i] for i in selected) <= 5.0 + 1e-9

    def test_no_duplicates(self, small_discrete_database):
        db = small_discrete_database
        selected = greedy_select(db, db.total_cost, lambda T, i: 1.0)
        assert len(selected) == len(set(selected))
        assert len(selected) == len(db)

    def test_zero_budget_selects_nothing(self, small_discrete_database):
        assert greedy_select(small_discrete_database, 0.0, lambda T, i: 1.0) == []

    def test_cost_ratio_ordering(self):
        db = UncertainDatabase(
            [
                UncertainObject("a", 0.0, DiscreteDistribution.uniform([0.0, 1.0]), cost=10.0),
                UncertainObject("b", 0.0, DiscreteDistribution.uniform([0.0, 1.0]), cost=1.0),
            ]
        )
        # Same benefit, very different costs: with a budget of 1 only b fits.
        selected = greedy_select(db, 1.0, lambda T, i: 1.0, adaptive=False)
        assert selected == [1]

    def test_safeguard_replaces_poor_greedy_choice(self):
        # The knapsack counterexample from Section 3.1.
        db = UncertainDatabase(
            [
                UncertainObject("tiny", 0.0, DiscreteDistribution.point_mass(0.0), cost=0.0001),
                UncertainObject("big", 0.0, DiscreteDistribution.point_mass(0.0), cost=2.0),
            ]
        )
        benefits = {0: 0.1, 1: 10.0}
        selected = greedy_select(
            db, 2.0, lambda T, i: benefits[i], adaptive=False, apply_safeguard=True
        )
        assert selected == [1]

    def test_without_safeguard_keeps_ratio_order(self):
        db = UncertainDatabase(
            [
                UncertainObject("tiny", 0.0, DiscreteDistribution.point_mass(0.0), cost=0.0001),
                UncertainObject("big", 0.0, DiscreteDistribution.point_mass(0.0), cost=2.0),
            ]
        )
        benefits = {0: 0.1, 1: 10.0}
        selected = greedy_select(
            db, 2.0, lambda T, i: benefits[i], adaptive=False, apply_safeguard=False
        )
        assert selected == [0]

    def test_stop_when_no_gain(self, small_discrete_database):
        db = small_discrete_database
        gains = {i: 1.0 if i < 2 else 0.0 for i in range(len(db))}
        selected = greedy_select(
            db, db.total_cost, lambda T, i: gains[i], adaptive=True, stop_when_no_gain=True,
            apply_safeguard=False,
        )
        assert set(selected) == {0, 1}


class TestRandomSelector:
    def test_respects_budget(self, small_discrete_database, rng):
        db = small_discrete_database
        plan = RandomSelector(rng).select(db, 6.0)
        assert plan.cost <= 6.0 + 1e-9

    def test_full_budget_selects_everything(self, small_discrete_database, rng):
        db = small_discrete_database
        plan = RandomSelector(rng).select(db, db.total_cost)
        assert len(plan) == len(db)

    def test_reproducible_with_seeded_rng(self, small_discrete_database):
        a = RandomSelector(np.random.default_rng(3)).select_indices(small_discrete_database, 8.0)
        b = RandomSelector(np.random.default_rng(3)).select_indices(small_discrete_database, 8.0)
        assert a == b


class TestGreedyNaive:
    def test_orders_by_variance_per_cost(self):
        db = UncertainDatabase(
            [
                UncertainObject("lowv", 0.0, DiscreteDistribution.uniform([0.0, 1.0]), cost=1.0),
                UncertainObject("highv", 0.0, DiscreteDistribution.uniform([0.0, 10.0]), cost=1.0),
            ]
        )
        selected = GreedyNaive().select_indices(db, 1.0)
        assert selected == [1]

    def test_ignores_unreferenced_objects(self):
        db = UncertainDatabase(
            [
                UncertainObject("used", 0.0, DiscreteDistribution.uniform([0.0, 1.0]), cost=1.0),
                UncertainObject("unused", 0.0, DiscreteDistribution.uniform([0.0, 100.0]), cost=1.0),
            ]
        )
        claim = LinearClaim({0: 1.0})
        selected = GreedyNaive(claim).select_indices(db, 1.0)
        assert selected == [0]

    def test_cost_blind_variant_ignores_cost(self):
        db = UncertainDatabase(
            [
                UncertainObject("cheap", 0.0, DiscreteDistribution.uniform([0.0, 2.0]), cost=1.0),
                UncertainObject("pricey", 0.0, DiscreteDistribution.uniform([0.0, 3.0]), cost=5.0),
            ]
        )
        cost_blind = GreedyNaiveCostBlind().select_indices(db, 5.0)
        cost_aware = GreedyNaive().select_indices(db, 5.0)
        assert cost_blind[0] == 1  # highest variance first, despite the cost
        assert cost_aware[0] == 0  # best variance per cost first

    def test_example6_naive_chooses_x1(self):
        # GreedyNaive cleans the higher-variance X1 even though X2 is better.
        db = example_db()
        indicator = ThresholdClaim(SumClaim([0, 1]), threshold=11.0 / 12.0, op="<")
        selected = GreedyNaive(indicator).select_indices(db, 1.0)
        assert selected == [0]


class TestGreedyMinVar:
    def test_example6_chooses_x2(self):
        # GreedyMinVar computes the actual variance reduction and picks X2.
        db = example_db()
        indicator_ps = PerturbationSet(
            SumClaim([0, 1]), (SumClaim([0, 1]),), (1.0,)
        )
        measure = Duplicity(
            indicator_ps, db.current_values, baseline=11.0 / 12.0,
        )
        # dup with lower_is_stronger... use the raw indicator instead via the
        # generic EV path: the query function is 1[X1+X2 < 11/12].
        indicator = ThresholdClaim(SumClaim([0, 1]), threshold=11.0 / 12.0, op="<")
        selected = GreedyMinVar(indicator).select_indices(db, 1.0)
        assert selected == [1]

    def test_linear_fast_path_matches_modular_weights(self, small_discrete_database):
        db = small_discrete_database
        claim = LinearClaim.from_vector([1.0, 2.0, 0.0, 1.0, 0.5, 1.0])
        budget = db.total_cost * 0.4
        selected = GreedyMinVar(claim).select_indices(db, budget)
        weights = claim.weights(6)
        # Every selected object must be referenced and within budget.
        assert all(weights[i] != 0.0 for i in selected)
        assert sum(db.costs[i] for i in selected) <= budget + 1e-9

    def test_never_worse_than_naive_on_duplicity(self, eight_object_database):
        db = eight_object_database
        original = WindowSumClaim(6, 2)
        ps = PerturbationSet(
            original, tuple(WindowSumClaim(s, 2) for s in (0, 2, 4, 6)), (1, 1, 1, 1)
        )
        gamma = float(np.sum(db.current_values[6:8]))
        measure = Duplicity(ps, db.current_values, baseline=gamma)
        calculator = DecomposedEVCalculator(db, measure)
        for fraction in (0.25, 0.5, 0.75):
            budget = db.total_cost * fraction
            minvar = GreedyMinVar(measure, calculator=calculator).select_indices(db, budget)
            naive = GreedyNaive(measure).select_indices(db, budget)
            assert calculator.expected_variance(minvar) <= calculator.expected_variance(naive) + 1e-9

    def test_uses_supplied_calculator(self, eight_object_database):
        db = eight_object_database
        original = WindowSumClaim(6, 2)
        ps = PerturbationSet(original, (WindowSumClaim(0, 2), WindowSumClaim(6, 2)), (1, 1))
        measure = Duplicity(ps, db.current_values)
        calculator = DecomposedEVCalculator(db, measure)
        selected = GreedyMinVar(measure, calculator=calculator).select_indices(db, db.total_cost)
        assert calculator.cache_sizes()[0] > 0
        assert len(selected) > 0

    def test_plan_interface(self, small_discrete_database):
        claim = LinearClaim.from_vector(np.ones(6))
        plan = GreedyMinVar(claim).select(small_discrete_database, 5.0)
        assert plan.algorithm == "GreedyMinVar"
        assert plan.cost <= 5.0 + 1e-9


class TestGreedyMaxPr:
    def test_example5_chooses_x2(self):
        # MaxPr objective: Pr[X1 + X2 < 17/12]; cleaning X2 gives 1/3 > 1/5.
        db = example_db()
        claim = LinearClaim({0: 1.0, 1: 1.0})
        selected = GreedyMaxPr(claim, tau=2.0 - 17.0 / 12.0).select_indices(db, 1.0)
        assert selected == [1]

    def test_stops_when_no_improvement(self):
        # Cleaning the second object cannot increase the drop probability
        # because its only value equals its current value.
        db = UncertainDatabase(
            [
                UncertainObject("a", 1.0, DiscreteDistribution.uniform([0.0, 2.0]), cost=1.0),
                UncertainObject("b", 1.0, DiscreteDistribution.point_mass(1.0), cost=1.0),
            ]
        )
        claim = LinearClaim({0: 1.0, 1: 1.0})
        selected = GreedyMaxPr(claim, tau=0.0).select_indices(db, 2.0)
        assert selected == [0]

    def test_achieves_probability_at_least_single_best(self, small_discrete_database):
        db = small_discrete_database
        claim = LinearClaim.from_vector(np.ones(6))
        tau = 1.0
        budget = db.total_cost * 0.5
        selected = GreedyMaxPr(claim, tau=tau).select_indices(db, budget)
        achieved = surprise_probability_exact(db, claim, selected, tau=tau)
        singles = [
            surprise_probability_exact(db, claim, [i], tau=tau)
            for i in range(6)
            if db.costs[i] <= budget
        ]
        assert achieved >= max(singles) - 1e-9

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
    def test_tau_must_be_finite(self, tau):
        # A NaN threshold used to make every comparison false: no picks.
        with pytest.raises(ValueError, match="tau"):
            GreedyMaxPr(LinearClaim({0: 1.0}), tau=tau)

    @pytest.mark.parametrize("samples", [0, -3, 2.5, True])
    def test_monte_carlo_samples_checked_at_construction(self, samples):
        with pytest.raises(ValueError, match="monte_carlo_samples"):
            GreedyMaxPr(LinearClaim({0: 1.0}), monte_carlo_samples=samples)

    def test_unknown_method_checked_at_construction(self):
        with pytest.raises(ValueError, match="method"):
            GreedyMaxPr(LinearClaim({0: 1.0}), method="bogus")

    def test_method_the_database_cannot_serve_fails_loudly(self, normal_database):
        claim = LinearClaim.from_vector(np.ones(5))
        with pytest.raises(ValueError, match="all-discrete"):
            GreedyMaxPr(claim, method="convolution").select_indices(normal_database, 3.0)

    def test_monte_carlo_method(self, normal_database):
        claim = ThresholdClaim(SumClaim([0, 1, 2]), threshold=280.0, op=">=")
        selector = GreedyMaxPr(
            claim, tau=0.0, method="monte_carlo", rng=np.random.default_rng(0),
            monte_carlo_samples=300,
        )
        selected = selector.select_indices(normal_database, 3.0)
        assert all(0 <= i < 5 for i in selected)


class TestGreedyDep:
    def test_requires_linear_function(self, normal_database):
        indicator = ThresholdClaim(SumClaim([0]), threshold=1.0)
        model = GaussianWorldModel.from_database(normal_database)
        with pytest.raises(TypeError):
            GreedyDep(indicator, model)

    def test_matches_greedy_minvar_when_independent(self, normal_database):
        claim = LinearClaim.from_vector([1.0, 1.0, 1.0, 1.0, 1.0])
        model = GaussianWorldModel.from_database(normal_database, gamma=0.0)
        budget = 4.0
        dep = GreedyDep(claim, model).select_indices(normal_database, budget)
        minvar = GreedyMinVar(claim).select_indices(normal_database, budget)
        weights = claim.weights(5)
        assert linear_expected_variance(normal_database, weights, dep) == pytest.approx(
            linear_expected_variance(normal_database, weights, minvar)
        )

    def test_exploits_correlation(self):
        # Two perfectly correlated objects: cleaning either removes both
        # variances; a third independent object is less attractive.
        stds = np.array([3.0, 3.0, 1.0])
        cov = decaying_covariance(stds, gamma=0.95)
        db = UncertainDatabase(
            [
                UncertainObject(f"o{i}", 0.0, NormalSpec(0.0, float(s)), cost=1.0)
                for i, s in enumerate(stds)
            ]
        )
        model = GaussianWorldModel([0.0, 0.0, 0.0], cov)
        claim = LinearClaim.from_vector([1.0, 1.0, 1.0])
        selected = GreedyDep(claim, model).select_indices(db, 1.0)
        assert selected[0] in (0, 1)

    def test_marginal_mode(self, normal_database):
        claim = LinearClaim.from_vector(np.ones(5))
        model = GaussianWorldModel.from_database(normal_database, gamma=0.5)
        selected = GreedyDep(claim, model, conditional=False).select_indices(normal_database, 5.0)
        assert len(selected) >= 1
