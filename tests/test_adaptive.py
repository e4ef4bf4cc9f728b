"""Unit tests for repro.core.adaptive (adaptive cleaning policies)."""

import numpy as np
import pytest

from repro.claims.functions import LinearClaim, SumClaim, ThresholdClaim
from repro.core.adaptive import (
    AdaptiveMaxPr,
    AdaptiveMinVar,
    ground_truth_oracle,
    sampling_oracle,
)
from repro.core.expected_variance import expected_variance_exact
from repro.core.greedy import GreedyMaxPr
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution
from repro.uncertainty.objects import UncertainObject


def small_db():
    return UncertainDatabase(
        [
            UncertainObject("a", 10.0, DiscreteDistribution.uniform([5.0, 10.0, 15.0]), cost=1.0),
            UncertainObject("b", 20.0, DiscreteDistribution.uniform([18.0, 20.0, 22.0]), cost=1.0),
            UncertainObject("c", 30.0, DiscreteDistribution.uniform([10.0, 30.0, 50.0]), cost=2.0),
        ]
    )


class TestOracles:
    def test_ground_truth_oracle(self):
        oracle = ground_truth_oracle([1.0, 2.0, 3.0])
        assert oracle(0) == 1.0
        assert oracle(2) == 3.0

    def test_sampling_oracle_draws_from_support(self, rng):
        db = small_db()
        oracle = sampling_oracle(db, rng)
        for _ in range(10):
            assert oracle(0) in {5.0, 10.0, 15.0}


class TestAdaptiveMinVar:
    def test_respects_budget(self):
        db = small_db()
        truth = np.array([5.0, 18.0, 50.0])
        run = AdaptiveMinVar(LinearClaim.from_vector([1.0, 1.0, 1.0])).run(
            db, budget=2.0, oracle=ground_truth_oracle(truth)
        )
        assert run.total_cost <= 2.0 + 1e-9

    def test_reduces_variance_to_zero_with_full_budget(self):
        db = small_db()
        truth = np.array([5.0, 18.0, 50.0])
        claim = LinearClaim.from_vector([1.0, 1.0, 1.0])
        run = AdaptiveMinVar(claim).run(db, budget=10.0, oracle=ground_truth_oracle(truth))
        assert run.final_objective == pytest.approx(0.0, abs=1e-9)
        assert set(run.cleaned_indices) == {0, 1, 2}

    def test_objective_trace_is_recorded(self):
        db = small_db()
        truth = np.array([15.0, 22.0, 10.0])
        claim = LinearClaim.from_vector([1.0, 1.0, 1.0])
        run = AdaptiveMinVar(claim).run(db, budget=10.0, oracle=ground_truth_oracle(truth))
        for step in run.steps:
            assert step.objective_after <= step.objective_before + 1e-9
            assert step.cost > 0.0
            assert step.revealed_value == truth[step.index]

    def test_stops_when_no_gain(self):
        # Only object 0 is referenced; once cleaned, nothing else helps.
        db = small_db()
        claim = LinearClaim({0: 1.0})
        truth = np.array([5.0, 18.0, 50.0])
        run = AdaptiveMinVar(claim).run(db, budget=10.0, oracle=ground_truth_oracle(truth))
        assert run.cleaned_indices == [0]
        assert run.stopped_early

    def test_first_pick_matches_static_greedy_benefit(self):
        db = small_db()
        claim = LinearClaim.from_vector([1.0, 1.0, 1.0])
        truth = db.current_values
        run = AdaptiveMinVar(claim).run(db, budget=1.0, oracle=ground_truth_oracle(truth))
        # Only the unit-cost objects are affordable; the best of those is 0.
        affordable = [i for i in range(3) if db.costs[i] <= 1.0]
        gains = {
            i: (expected_variance_exact(db, claim, []) - expected_variance_exact(db, claim, [i]))
            / db.costs[i]
            for i in affordable
        }
        assert run.cleaned_indices[0] == max(gains, key=gains.get)


class TestAdaptiveMaxPr:
    def test_stops_once_counter_is_revealed(self):
        db = small_db()
        claim = LinearClaim.from_vector([1.0, 1.0, 1.0])
        # Truth where object c is far lower than reported: revealing it drops
        # the sum well below the baseline.
        truth = np.array([10.0, 20.0, 10.0])
        policy = AdaptiveMaxPr(claim, tau=5.0)
        run = policy.run(db, budget=10.0, oracle=ground_truth_oracle(truth))
        assert run.final_objective == 1.0
        # It should not have cleaned everything: once the target is met it stops.
        assert len(run.cleaned_indices) <= 2

    def test_gives_up_when_target_unreachable(self):
        db = small_db()
        claim = LinearClaim.from_vector([1.0, 1.0, 1.0])
        # tau larger than any possible drop.
        policy = AdaptiveMaxPr(claim, tau=1000.0)
        run = policy.run(db, budget=10.0, oracle=ground_truth_oracle(db.current_values))
        assert run.final_objective == 0.0
        assert run.stopped_early
        assert run.cleaned_indices == []

    def test_respects_budget(self):
        db = small_db()
        claim = LinearClaim.from_vector([1.0, 1.0, 1.0])
        truth = np.array([15.0, 22.0, 50.0])  # no counter ever appears
        run = AdaptiveMaxPr(claim, tau=1.0).run(db, budget=2.0, oracle=ground_truth_oracle(truth))
        assert run.total_cost <= 2.0 + 1e-9

    def test_adaptivity_saves_budget_compared_to_static(self):
        # Static GreedyMaxPr commits to a full set; the adaptive policy stops
        # as soon as the revealed values already exhibit the counterargument.
        db = small_db()
        claim = LinearClaim.from_vector([1.0, 1.0, 1.0])
        truth = np.array([10.0, 20.0, 10.0])
        tau = 5.0
        static_plan = GreedyMaxPr(claim, tau=tau).select(db, budget=4.0)
        adaptive_run = AdaptiveMaxPr(claim, tau=tau).run(
            db, budget=4.0, oracle=ground_truth_oracle(truth)
        )
        assert adaptive_run.total_cost <= static_plan.cost + 1e-9

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_tau_must_be_finite(self, tau):
        # A NaN target used to end every run at once with nothing cleaned.
        with pytest.raises(ValueError, match="tau"):
            AdaptiveMaxPr(LinearClaim.from_vector([1.0, 1.0, 1.0]), tau=tau)

    def test_nonlinear_function_supported(self):
        db = small_db()
        indicator = ThresholdClaim(SumClaim([0, 1, 2]), threshold=55.0, op=">=")
        truth = np.array([5.0, 18.0, 10.0])
        run = AdaptiveMaxPr(indicator, tau=0.0).run(
            db, budget=10.0, oracle=ground_truth_oracle(truth)
        )
        assert run.final_objective in (0.0, 1.0)
