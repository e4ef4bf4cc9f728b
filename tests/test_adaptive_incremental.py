"""Incremental-conditioning equivalence suite.

Pins the incremental conditioning engine — reveal overlays
(:meth:`UncertainDatabase.conditioned`), condition-chained
:class:`DecomposedEVCalculator` updates, the
:class:`SurpriseEngine` at the empty prefix, and the adaptive policies — to
from-scratch ``cleaned()`` rebuilds, step for step, over randomized
workloads at fixed seeds.  AdaptiveMinVar's reference is its own
exact-strategy teardown loop (which rebuilds the calculator every step);
AdaptiveMaxPr's is the teardown loop in :mod:`oracles.policies`.
"""

import gc
import weakref

import numpy as np
import pytest

from oracles.policies import adaptive_maxpr
from repro.claims.functions import LinearClaim, SumClaim, ThresholdClaim
from repro.claims.perturbations import window_sum_perturbations
from repro.claims.quality import Bias, Duplicity, Fragility
from repro.claims.strength import lower_is_stronger
from repro.core.adaptive import (
    AdaptiveMaxPr,
    AdaptiveMinVar,
    ground_truth_oracle,
    run_adaptive_trials,
)
from repro.core.expected_variance import DecomposedEVCalculator
from repro.core.surprise import (
    SurpriseBase,
    SurpriseEngine,
    surprise_probability_discrete_linear,
    surprise_probability_normal_linear,
)
from repro.datasets.synthetic import generate_urx
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution, NormalSpec
from repro.uncertainty.objects import UncertainObject

ATOL = 1e-9


def random_discrete_db(rng: np.random.Generator, n: int) -> UncertainDatabase:
    """Database with random discrete supports, probabilities and costs."""
    objects = []
    for i in range(n):
        k = int(rng.integers(2, 5))
        values = np.sort(rng.uniform(0.0, 50.0, size=k))
        probabilities = rng.uniform(0.2, 1.0, size=k)
        objects.append(
            UncertainObject(
                name=f"o{i}",
                current_value=float(rng.uniform(0.0, 50.0)),
                distribution=DiscreteDistribution(values, probabilities),
                cost=float(rng.uniform(0.5, 3.0)),
            )
        )
    return UncertainDatabase(objects)


def random_normal_db(rng: np.random.Generator, n: int) -> UncertainDatabase:
    objects = [
        UncertainObject(
            name=f"o{i}",
            current_value=float(rng.uniform(0.0, 50.0)),
            distribution=NormalSpec(float(rng.uniform(0.0, 50.0)), float(rng.uniform(0.5, 5.0))),
            cost=float(rng.uniform(0.5, 3.0)),
        )
        for i in range(n)
    ]
    return UncertainDatabase(objects)


def assert_runs_match(incremental, scratch):
    assert incremental.cleaned_indices == scratch.cleaned_indices
    assert incremental.stopped_early == scratch.stopped_early
    assert incremental.total_cost == pytest.approx(scratch.total_cost, abs=ATOL)
    assert incremental.final_objective == pytest.approx(scratch.final_objective, abs=ATOL)
    for a, b in zip(incremental.steps, scratch.steps):
        assert a.index == b.index
        assert a.revealed_value == pytest.approx(b.revealed_value, abs=ATOL)
        assert a.objective_before == pytest.approx(b.objective_before, abs=ATOL)
        assert a.objective_after == pytest.approx(b.objective_after, abs=ATOL)


class TestConditionedDatabase:
    def test_matches_cleaned_semantically(self):
        rng = np.random.default_rng(0)
        db = random_discrete_db(rng, 8)
        overlay = db.conditioned(3, 12.5)
        rebuilt = db.cleaned({3: 12.5})
        assert np.allclose(overlay.current_values, rebuilt.current_values)
        assert np.allclose(overlay.means, rebuilt.means)
        assert np.allclose(overlay.variances, rebuilt.variances)
        assert np.allclose(overlay.stds, rebuilt.stds)
        assert overlay[3].distribution == rebuilt[3].distribution
        assert overlay[3].is_certain()
        assert [o.name for o in overlay] == [o.name for o in rebuilt]
        assert overlay.names == db.names

    def test_chain_matches_cleaned_mapping(self):
        rng = np.random.default_rng(1)
        db = random_discrete_db(rng, 10)
        overlay = db.conditioned(2, 5.0).conditioned(7, 9.0).conditioned(0, 1.0)
        rebuilt = db.cleaned({2: 5.0, 7: 9.0, 0: 1.0})
        assert overlay.revealed == {2: 5.0, 7: 9.0, 0: 1.0}
        assert np.allclose(overlay.current_values, rebuilt.current_values)
        assert np.allclose(overlay.variances, rebuilt.variances)
        for i in range(10):
            assert overlay[i].distribution == rebuilt[i].distribution

    def test_shares_costs_and_name_index(self):
        rng = np.random.default_rng(2)
        db = random_discrete_db(rng, 6)
        overlay = db.conditioned(1, 3.0)
        assert overlay.costs is db.costs
        assert overlay.total_cost == db.total_cost
        assert overlay.index_of("o4") == 4

    def test_single_object_access_stays_lazy(self):
        rng = np.random.default_rng(3)
        db = random_discrete_db(rng, 6)
        overlay = db.conditioned(2, 4.0)
        assert overlay[2].is_certain()
        assert overlay[0] is db[0]
        assert overlay["o5"] is db[5]
        # int access through the delta must not have materialized the list.
        assert overlay._objects_list is None
        assert len(overlay) == 6

    def test_overlays_do_not_retain_stale_databases(self):
        """A reveal chain holds the root alone; dropped intermediates die."""
        rng = np.random.default_rng(4)
        db = random_discrete_db(rng, 6)
        intermediate = db.conditioned(0, 1.0)
        ref = weakref.ref(intermediate)
        final = intermediate.conditioned(1, 2.0)
        del intermediate
        gc.collect()
        assert ref() is None
        assert final.revealed == {0: 1.0, 1: 2.0}
        assert np.allclose(
            final.current_values, db.cleaned({0: 1.0, 1: 2.0}).current_values
        )

    def test_base_unchanged_by_overlay(self):
        rng = np.random.default_rng(5)
        db = random_discrete_db(rng, 5)
        before = db.current_values.copy()
        db.conditioned(0, 99.0)
        assert np.array_equal(db.current_values, before)
        assert not db[0].is_certain() or db[0].distribution.support_size == 1

    def test_out_of_range_raises(self):
        rng = np.random.default_rng(6)
        db = random_discrete_db(rng, 4)
        with pytest.raises(IndexError):
            db.conditioned(4, 1.0)


class TestConditionedCalculator:
    @pytest.mark.parametrize("measure_cls", [Bias, Duplicity, Fragility])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_condition_matches_scratch_rebuild(self, measure_cls, seed):
        rng = np.random.default_rng(seed)
        n = 10
        db = random_discrete_db(rng, n)
        # Overlapping windows so interacting term pairs (covariances) exist.
        perturbations = window_sum_perturbations(
            n_objects=n, width=3, original_start=n - 3, non_overlapping=False
        )
        if measure_cls is Duplicity:
            measure = measure_cls(
                perturbations, db.current_values, strength=lower_is_stronger, baseline=60.0
            )
        else:
            measure = measure_cls(perturbations, db.current_values)

        calculator = DecomposedEVCalculator(db, measure)
        calculator.expected_variance(())  # warm caches before conditioning
        revealed = {}
        working = db
        for index in rng.permutation(n)[:4]:
            value = float(working[int(index)].sample(rng))
            revealed[int(index)] = value
            calculator = calculator.condition(int(index), value)
            working = db.cleaned(revealed)
            scratch = DecomposedEVCalculator(working, measure)
            for _ in range(4):
                subset = [int(i) for i in rng.permutation(n)[: int(rng.integers(0, 4))]]
                assert calculator.expected_variance(subset) == pytest.approx(
                    scratch.expected_variance(subset), abs=ATOL
                )
                candidate = int(rng.integers(0, n))
                assert calculator.marginal_gain(frozenset(subset), candidate) == pytest.approx(
                    scratch.marginal_gain(frozenset(subset), candidate), abs=ATOL
                )

    def test_condition_shares_unaffected_pieces(self):
        rng = np.random.default_rng(7)
        n = 12
        db = random_discrete_db(rng, n)
        perturbations = window_sum_perturbations(
            n_objects=n, width=3, original_start=n - 3, non_overlapping=True
        )
        measure = Duplicity(
            perturbations, db.current_values, strength=lower_is_stronger, baseline=60.0
        )
        calculator = DecomposedEVCalculator(db, measure)
        calculator.expected_variance(())
        terms_with_0 = set(calculator._terms_by_object.get(0, ()))
        child = calculator.condition(0, 5.0)
        for k, entries in calculator._variance_cache.items():
            if k in terms_with_0:
                assert k not in child._variance_cache
            else:
                assert child._variance_cache[k] is entries  # shared, not copied


class TestSurpriseEngineEmptyPrefix:
    """The engine at the empty prefix: AdaptiveMaxPr's singleton scores."""

    def test_discrete_linear_matches_scalar(self):
        rng = np.random.default_rng(8)
        n = 12
        db = random_discrete_db(rng, n)
        weights = rng.uniform(-2.0, 2.0, size=n)
        claim = LinearClaim.from_vector(weights)
        engine = SurpriseEngine(SurpriseBase.build(db, claim))
        assert engine.base.mode == "discrete"
        for tau in (0.0, 1.0, 7.5):
            scores = engine.probabilities(tau)
            for i in range(n):
                expected = surprise_probability_discrete_linear(db, weights, [i], tau=tau)
                assert scores[i] == pytest.approx(expected, abs=ATOL)

    def test_normal_linear_matches_scalar(self):
        rng = np.random.default_rng(9)
        n = 10
        db = random_normal_db(rng, n)
        weights = rng.uniform(-2.0, 2.0, size=n)
        claim = LinearClaim.from_vector(weights)
        engine = SurpriseEngine(SurpriseBase.build(db, claim))
        assert engine.base.mode == "normal"
        for tau in (0.0, 2.0):
            scores = engine.probabilities(tau)
            for i in range(n):
                expected = surprise_probability_normal_linear(db, weights, [i], tau=tau)
                assert scores[i] == pytest.approx(expected, abs=ATOL)

    def test_zero_weight_and_degenerate_objects(self):
        db = UncertainDatabase(
            [
                UncertainObject("a", 5.0, DiscreteDistribution.uniform([1.0, 9.0])),
                UncertainObject("b", 5.0, DiscreteDistribution.point_mass(5.0)),
            ]
        )
        engine = SurpriseEngine(SurpriseBase.build(db, LinearClaim({0: 0.0, 1: 1.0})))
        scores = engine.probabilities(0.0)
        assert scores[0] == 0.0  # zero weight: cleaning cannot move f
        assert scores[1] == 0.0  # point mass: no drop possible

    def test_no_base_without_linear_structure(self):
        rng = np.random.default_rng(10)
        db = random_discrete_db(rng, 4)
        indicator = ThresholdClaim(SumClaim([0, 1, 2, 3]), threshold=50.0, op=">=")
        assert SurpriseBase.build(db, indicator) is None


class TestAdaptiveRunEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_minvar_decomposed(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        db = random_discrete_db(rng, n)
        perturbations = window_sum_perturbations(
            n_objects=n, width=3, original_start=n - 3, non_overlapping=False
        )
        measure = Duplicity(
            perturbations, db.current_values, strength=lower_is_stronger, baseline=70.0
        )
        truth = db.sample_world(rng)
        budget = float(db.total_cost * rng.uniform(0.2, 0.6))
        incremental = AdaptiveMinVar(measure).run(db, budget, ground_truth_oracle(truth))
        scratch = AdaptiveMinVar(measure)._run_exact(db, budget, ground_truth_oracle(truth))
        assert_runs_match(incremental, scratch)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_minvar_linear_discrete(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 14
        db = random_discrete_db(rng, n)
        claim = LinearClaim.from_vector(rng.uniform(-2.0, 2.0, size=n))
        truth = db.sample_world(rng)
        budget = float(db.total_cost * 0.5)
        incremental = AdaptiveMinVar(claim).run(db, budget, ground_truth_oracle(truth))
        scratch = AdaptiveMinVar(claim)._run_exact(db, budget, ground_truth_oracle(truth))
        assert_runs_match(incremental, scratch)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_minvar_linear_normal(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = 10
        db = random_normal_db(rng, n)
        claim = LinearClaim.from_vector(rng.uniform(-2.0, 2.0, size=n))
        truth = db.sample_world(rng)
        budget = float(db.total_cost * 0.4)
        incremental = AdaptiveMinVar(claim).run(db, budget, ground_truth_oracle(truth))
        scratch = AdaptiveMinVar(claim)._run_exact(db, budget, ground_truth_oracle(truth))
        assert_runs_match(incremental, scratch)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_maxpr_discrete_linear(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = 16
        db = generate_urx(n=n, seed=seed)
        perturbations = window_sum_perturbations(
            n_objects=n, width=4, original_start=n - 4, non_overlapping=True
        )
        bias = Bias(perturbations, db.current_values)
        truth = db.sample_world(rng)
        budget = float(db.total_cost * 0.5)
        policy_kwargs = dict(tau=float(rng.uniform(2.0, 15.0)))
        incremental = AdaptiveMaxPr(bias, **policy_kwargs).run(
            db, budget, ground_truth_oracle(truth)
        )
        scratch = adaptive_maxpr(bias, db, budget, ground_truth_oracle(truth), **policy_kwargs)
        assert_runs_match(incremental, scratch)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_maxpr_nonlinear_fallback(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = 8
        db = random_discrete_db(rng, n)
        indicator = ThresholdClaim(
            SumClaim(range(n)), threshold=float(db.current_values.sum()), op=">="
        )
        truth = db.sample_world(rng)
        budget = float(db.total_cost * 0.6)
        incremental = AdaptiveMaxPr(indicator, tau=0.0).run(
            db, budget, ground_truth_oracle(truth)
        )
        scratch = adaptive_maxpr(indicator, db, budget, ground_truth_oracle(truth), tau=0.0)
        assert_runs_match(incremental, scratch)

    def test_maxpr_normal_keeps_closed_form(self):
        """On all-normal databases the incremental path stays on Lemma 3.3.

        The teardown oracle cannot be the reference here: after the first
        reveal its per-step calculator sees a mixed database and falls back
        to Monte-Carlo.  Instead, check the incremental policy's per-step
        scores against the closed form computed directly on the working
        database state.
        """
        rng = np.random.default_rng(11)
        n = 8
        db = random_normal_db(rng, n)
        weights = rng.uniform(-2.0, 2.0, size=n)
        claim = LinearClaim.from_vector(weights)
        truth = db.sample_world(rng)
        policy = AdaptiveMaxPr(claim, tau=1.0)
        run = policy.run(db, float(db.total_cost * 0.5), ground_truth_oracle(truth))
        # Replay: at each step the recorded objective_before must equal the
        # closed-form singleton probability of the chosen object given the
        # reveals made so far.
        baseline = float(claim.evaluate(db.current_values))
        working = db
        for step in run.steps:
            current_value = float(claim.evaluate(working.current_values))
            required = max(current_value - (baseline - policy.tau), 0.0)
            expected = surprise_probability_normal_linear(
                db, weights, [step.index], tau=required
            )
            assert step.objective_before == pytest.approx(expected, abs=ATOL)
            working = working.conditioned(step.index, step.revealed_value)


class TestRunAdaptiveTrials:
    def test_matches_individual_runs(self):
        n = 16
        db = generate_urx(n=n, seed=3)
        perturbations = window_sum_perturbations(
            n_objects=n, width=4, original_start=n - 4, non_overlapping=True
        )
        bias = Bias(perturbations, db.current_values)
        budget = float(db.total_cost * 0.5)
        rng = np.random.default_rng(5)
        truths = db.sample_worlds(rng, 4)
        policy = AdaptiveMaxPr(bias, tau=8.0)
        batch = run_adaptive_trials(policy, db, budget, trials=4, truths=truths)
        assert batch.trials == 4
        for t in range(4):
            single = AdaptiveMaxPr(bias, tau=8.0).run(
                db, budget, ground_truth_oracle(truths[t])
            )
            assert batch.runs[t].cleaned_indices == single.cleaned_indices
            assert batch.runs[t].final_objective == single.final_objective
        assert batch.total_costs.shape == (4,)
        assert 0.0 <= batch.success_rate <= 1.0

    def test_draws_stacked_truths_deterministically(self):
        rng = np.random.default_rng(9)
        n = 10
        db = random_discrete_db(rng, n)
        claim = LinearClaim.from_vector(rng.uniform(-1.0, 1.0, size=n))
        policy = AdaptiveMinVar(claim)
        first = run_adaptive_trials(
            policy, db, db.total_cost * 0.3, trials=3, rng=np.random.default_rng(42)
        )
        second = run_adaptive_trials(
            policy, db, db.total_cost * 0.3, trials=3, rng=np.random.default_rng(42)
        )
        assert np.array_equal(first.truths, second.truths)
        assert first.truths.shape == (3, n)
        for a, b in zip(first.runs, second.runs):
            assert a.cleaned_indices == b.cleaned_indices

    def test_rejects_bad_truth_shape(self):
        rng = np.random.default_rng(12)
        db = random_discrete_db(rng, 5)
        claim = LinearClaim.from_vector(np.ones(5))
        with pytest.raises(ValueError):
            run_adaptive_trials(
                AdaptiveMinVar(claim), db, 2.0, trials=2, truths=np.zeros((2, 4))
            )

    def test_shared_base_state_across_trials(self):
        """The decomposed base calculator is built once per database."""
        rng = np.random.default_rng(13)
        n = 10
        db = random_discrete_db(rng, n)
        perturbations = window_sum_perturbations(
            n_objects=n, width=2, original_start=n - 2, non_overlapping=True
        )
        measure = Duplicity(
            perturbations, db.current_values, strength=lower_is_stronger, baseline=60.0
        )
        policy = AdaptiveMinVar(measure)
        run_adaptive_trials(policy, db, db.total_cost * 0.3, trials=2)
        prepared = policy._prepared
        assert prepared is not None and prepared[0] is db
        run_adaptive_trials(policy, db, db.total_cost * 0.3, trials=2)
        assert policy._prepared is prepared  # reused, not rebuilt
