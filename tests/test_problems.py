"""Unit tests for repro.core.problems and repro.core.montecarlo."""

import numpy as np
import pytest

from repro.claims.functions import LinearClaim, SumClaim
from repro.core.montecarlo import WorldSampler
from repro.core.problems import CleaningPlan, MaxPrProblem, MinVarProblem, budget_from_fraction
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution
from repro.uncertainty.objects import UncertainObject


def db():
    return UncertainDatabase(
        [
            UncertainObject("a", 1.0, DiscreteDistribution.uniform([0.0, 2.0]), cost=2.0),
            UncertainObject("b", 2.0, DiscreteDistribution.uniform([1.0, 3.0]), cost=3.0),
            UncertainObject("c", 3.0, DiscreteDistribution.uniform([2.0, 4.0]), cost=5.0),
        ]
    )


class TestBudgetFromFraction:
    def test_fraction_of_total(self):
        assert budget_from_fraction(db(), 0.5) == pytest.approx(5.0)

    def test_bounds(self):
        assert budget_from_fraction(db(), 0.0) == 0.0
        assert budget_from_fraction(db(), 1.0) == pytest.approx(10.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            budget_from_fraction(db(), 1.5)


class TestCleaningPlan:
    def test_from_indices_computes_cost(self):
        plan = CleaningPlan.from_indices(db(), [0, 2], algorithm="x")
        assert plan.cost == pytest.approx(7.0)
        assert plan.algorithm == "x"

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CleaningPlan(selected=(0, 0), cost=4.0)

    def test_empty_plan(self):
        plan = CleaningPlan.empty("none")
        assert len(plan) == 0
        assert plan.cost == 0.0

    def test_contains_and_selected_set(self):
        plan = CleaningPlan.from_indices(db(), [1])
        assert 1 in plan
        assert 0 not in plan
        assert plan.selected_set == frozenset({1})

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CleaningPlan(selected=(), cost=-1.0)


class TestMinVarProblem:
    def test_feasibility(self):
        problem = MinVarProblem(db(), LinearClaim({0: 1.0}), budget=5.0)
        assert problem.is_feasible([0, 1])
        assert not problem.is_feasible([0, 1, 2])

    def test_plan_validates_budget(self):
        problem = MinVarProblem(db(), LinearClaim({0: 1.0}), budget=4.0)
        with pytest.raises(ValueError):
            problem.plan([1, 2])
        plan = problem.plan([0])
        assert plan.cost == 2.0

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            MinVarProblem(db(), LinearClaim({0: 1.0}), budget=-1.0)

    def test_rejects_nan_budget(self):
        # ``nan < 0`` is false, so a plain sign test let NaN through.
        with pytest.raises(ValueError, match="budget"):
            MinVarProblem(db(), LinearClaim({0: 1.0}), budget=float("nan"))

    def test_n_objects(self):
        assert MinVarProblem(db(), LinearClaim({0: 1.0}), budget=1.0).n_objects == 3


class TestMaxPrProblem:
    def test_baseline_value(self):
        problem = MaxPrProblem(db(), SumClaim([0, 1, 2]), budget=5.0, tau=1.0)
        assert problem.baseline_value == pytest.approx(6.0)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            MaxPrProblem(db(), SumClaim([0]), budget=1.0, tau=-0.1)

    @pytest.mark.parametrize(
        "budget, tau, match",
        [(float("nan"), 0.0, "budget"), (-1.0, 0.0, "budget"), (1.0, float("nan"), "tau")],
    )
    def test_rejects_nan_budget_or_tau(self, budget, tau, match):
        with pytest.raises(ValueError, match=match):
            MaxPrProblem(db(), SumClaim([0]), budget=budget, tau=tau)

    def test_plan_and_feasibility(self):
        problem = MaxPrProblem(db(), SumClaim([0]), budget=2.0)
        assert problem.is_feasible([0])
        assert not problem.is_feasible([2])
        with pytest.raises(ValueError):
            problem.plan([2])


class TestWorldSampler:
    def test_ground_truth_shape(self):
        sampler = WorldSampler(seed=1)
        truth = sampler.ground_truth(db())
        assert truth.shape == (3,)

    def test_reset_reproduces_stream(self):
        sampler = WorldSampler(seed=2)
        first = sampler.ground_truth(db())
        sampler.reset()
        again = sampler.ground_truth(db())
        assert first == pytest.approx(again)

    def test_reveal(self):
        sampler = WorldSampler()
        revealed = sampler.reveal(db(), [9.0, 8.0, 7.0], [2, 0])
        assert revealed == {2: 7.0, 0: 9.0}

    def test_estimate_distribution(self):
        sampler = WorldSampler(seed=3)
        draws = sampler.estimate_distribution(db(), SumClaim([0, 1, 2]), samples=500)
        assert draws.shape == (500,)
        assert np.mean(draws) == pytest.approx(1.0 + 2.0 + 3.0, abs=0.3)
