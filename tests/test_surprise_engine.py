"""The prefix surprise engine behind GreedyMaxPr, against independent references.

* **Per-step gains == the per-set calculators** (atol 1e-12): every
  candidate's probability at every step of a GreedyMaxPr run, and each
  recorded gain, equal :func:`surprise_probability_discrete_linear` /
  :func:`surprise_probability_normal_linear` on seeded discrete, normal and
  zero-weight instances, and on one whose support-size product crosses the
  200,000 exact-outcome cap mid-run, so exact and central-limit candidates
  share one scoring pass.
* **Selections == a brute-force scratch loop** (:func:`oracles.policies.greedy_maxpr`,
  which enumerates discrete joint supports with ``itertools.product``).
* **Trace slices == from-scratch solves** on the crossing instance.
* **Every registered matrix workload the engine serves** gets the selections
  of the per-set ``greedy_select`` loop GreedyMaxPr ran before the engine.
"""

import numpy as np
import pytest

from oracles import policies as oracle
from repro import kernels
from repro.claims.functions import LinearClaim
from repro.core.greedy import GreedyMaxPr
from repro.core.problems import budget_from_fraction
from repro.core.surprise import (
    MAX_EXACT_OUTCOMES,
    SurpriseBase,
    SurpriseEngine,
    surprise_probability_discrete_linear,
    surprise_probability_normal_linear,
)
from repro.experiments.matrix import cell_seed
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution, NormalSpec
from repro.uncertainty.objects import UncertainObject
from repro.workloads import available_workloads, get_workload_spec

GAIN_ATOL = 1e-12


def _discrete_instance(seed, n=10, sizes=(2, 3, 4), zero_weights=0, high_currents=False):
    """Random discrete supports and costs plus a signed linear claim.

    ``high_currents`` puts each current value between its support's mean and
    maximum, so most re-draws lower ``f`` and the greedy keeps picking.
    """
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n):
        k = int(rng.choice(sizes))
        values = np.sort(rng.uniform(0.0, 40.0, size=k))
        distribution = DiscreteDistribution(values, rng.uniform(0.2, 1.0, size=k))
        low = distribution.mean if high_currents else 0.0
        current = rng.uniform(low, values.max() if high_currents else 40.0)
        objects.append(
            UncertainObject(f"d{i}", float(current), distribution, cost=float(rng.uniform(0.5, 3.0)))
        )
    weights = rng.uniform(-2.0, 2.0, size=n)
    weights[rng.choice(n, size=zero_weights, replace=False)] = 0.0
    return UncertainDatabase(objects), LinearClaim.from_vector(weights)


def _normal_instance(seed, n=12, zero_weights=0):
    """Normal errors off their current values plus a signed linear claim."""
    rng = np.random.default_rng(seed)
    objects = [
        UncertainObject(
            f"v{i}",
            float(rng.uniform(20.0, 80.0)),
            NormalSpec(mean=float(rng.uniform(20.0, 80.0)), std=float(rng.uniform(1.0, 9.0))),
            cost=float(rng.uniform(1.0, 10.0)),
        )
        for i in range(n)
    ]
    weights = rng.uniform(-1.5, 1.5, size=n)
    weights[rng.choice(n, size=zero_weights, replace=False)] = 0.0
    return UncertainDatabase(objects), LinearClaim.from_vector(weights)


def _crossing_instance():
    """Nine 5-point and three 2-point supports, with every drop <= 0.

    The current values sit at the top of each support, so every added
    object can only lower ``f`` and the probability keeps growing: the run
    picks all 12 objects, and the support-size product passes the 200,000
    exact-outcome cap (5^7 * 2^2 = 312,500) at the tenth pick.
    """
    rng = np.random.default_rng(0)
    objects = []
    for i in range(12):
        k = 2 if i % 4 == 0 else 5
        values = np.sort(rng.uniform(0.0, 10.0, size=k))
        distribution = DiscreteDistribution(values, rng.uniform(0.5, 1.0, size=k))
        objects.append(
            UncertainObject(
                f"c{i}", float(values.max()), distribution, cost=float(rng.uniform(1.0, 1.5))
            )
        )
    return UncertainDatabase(objects), LinearClaim.from_vector(rng.uniform(0.5, 1.5, size=12))


CROSSING_TAU = 8.0


def _per_set(database, weights, cleaned, tau):
    if database.all_normal():
        return surprise_probability_normal_linear(database, weights, cleaned, tau=tau)
    return surprise_probability_discrete_linear(database, weights, cleaned, tau=tau)


def _assert_steps_match_per_set(database, claim, tau, fraction):
    """Replay a recorded run through a fresh engine, checking every score."""
    weights = claim.weights(len(database))
    budget = database.total_cost * fraction
    steps: list = []
    GreedyMaxPr(claim, tau=tau)._run(database, budget, record_steps=steps)
    assert steps, "the instance must make at least one pick"
    engine = SurpriseEngine(SurpriseBase.build(database, claim))
    prefix: list = []
    for step in steps:
        current = _per_set(database, weights, prefix, tau)
        assert engine.probability(tau) == pytest.approx(current, abs=GAIN_ATOL)
        scores = engine.probabilities(tau)
        for i in range(len(database)):
            if i not in prefix:
                expected = _per_set(database, weights, prefix + [i], tau)
                assert scores[i] == pytest.approx(expected, abs=GAIN_ATOL)
        expected_gain = _per_set(database, weights, prefix + [step.index], tau) - current
        assert step.gain == pytest.approx(expected_gain, abs=GAIN_ATOL)
        engine.condition_on(step.index)
        prefix.append(step.index)
    return steps


class TestPerStepGainsMatchPerSet:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tau", [0.0, 4.0])
    def test_discrete(self, seed, tau):
        database, claim = _discrete_instance(seed)
        _assert_steps_match_per_set(database, claim, tau, fraction=0.6)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tau", [0.0, 6.0])
    def test_normal(self, seed, tau):
        database, claim = _normal_instance(seed)
        _assert_steps_match_per_set(database, claim, tau, fraction=0.6)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("tau", [-0.5, 0.0, 2.0])
    def test_discrete_zero_weights(self, seed, tau):
        database, claim = _discrete_instance(seed + 40, zero_weights=3)
        _assert_steps_match_per_set(database, claim, tau, fraction=0.8)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("tau", [-0.5, 0.0, 2.0])
    def test_normal_zero_weights(self, seed, tau):
        database, claim = _normal_instance(seed + 40, zero_weights=3)
        _assert_steps_match_per_set(database, claim, tau, fraction=0.8)

    def test_crossing_the_exact_outcome_cap(self, monkeypatch):
        database, claim = _crossing_instance()
        merges = 0
        convolve = kernels.convolve_support

        def counting_convolve(*arrays):
            nonlocal merges
            merges += 1
            return convolve(*arrays)

        monkeypatch.setattr(kernels, "convolve_support", counting_convolve)
        steps: list = []
        GreedyMaxPr(claim, tau=CROSSING_TAU)._run(
            database, database.total_cost, record_steps=steps
        )
        monkeypatch.undo()

        sizes = np.array([database[i].distribution.support_size for i in range(len(database))])
        outcomes, mixed_step, crossed_at = 1, False, None
        for position, step in enumerate(steps):
            candidates = np.ones(len(database), dtype=bool)
            candidates[[s.index for s in steps[:position]]] = False
            central = outcomes * sizes[candidates] > MAX_EXACT_OUTCOMES
            mixed_step |= bool(central.any() and not central.all())
            outcomes *= int(sizes[step.index])
            if crossed_at is None and outcomes > MAX_EXACT_OUTCOMES:
                crossed_at = position
        assert mixed_step, "some step must score exact and central-limit candidates together"
        assert crossed_at is not None and crossed_at < len(steps) - 1
        # One merge per pick while the prefix stays exact, none after.
        assert merges == crossed_at
        _assert_steps_match_per_set(database, claim, tau=CROSSING_TAU, fraction=1.0)

    def test_normal_zero_weight_counts_for_negative_tau(self):
        database, claim = _normal_instance(5, zero_weights=1)
        weights = claim.weights(len(database))
        zero = int(np.flatnonzero(weights == 0.0)[0])
        engine = SurpriseEngine(SurpriseBase.build(database, claim))
        # An unmoved f clears a negative threshold: the normal closed form
        # counts the zero-variance set, the discrete calculator drops it.
        assert engine.probabilities(-0.5)[zero] == 1.0
        assert surprise_probability_normal_linear(database, weights, [zero], tau=-0.5) == 1.0
        engine.condition_on(zero)
        assert engine.probability(-0.5) == 1.0
        assert engine.probability(0.5) == 0.0

    def test_empty_prefix_scores_zero(self):
        for database, claim in (_discrete_instance(1), _normal_instance(1)):
            engine = SurpriseEngine(SurpriseBase.build(database, claim))
            assert engine.probability(-5.0) == 0.0


class TestSelectionsMatchScratchLoop:
    @pytest.mark.parametrize("seed", range(10))
    def test_discrete_brute_force(self, seed):
        database, claim = _discrete_instance(
            seed + 100, n=8, zero_weights=seed % 2, high_currents=True
        )
        for fraction in (0.15, 0.35, 0.6):
            budget = database.total_cost * fraction
            expected = oracle.greedy_maxpr(claim, database, budget, tau=5.0)
            assert GreedyMaxPr(claim, tau=5.0).select_indices(database, budget) == expected


class TestCrossingTrace:
    def test_trace_slices_match_scratch_runs(self):
        database, claim = _crossing_instance()
        trace = GreedyMaxPr(claim, tau=CROSSING_TAU).trace(database, database.total_cost)
        assert len(trace) == len(database)
        for fraction in (0.1, 0.3, 0.5, 0.7, 0.9):
            budget = database.total_cost * fraction
            scratch = GreedyMaxPr(claim, tau=CROSSING_TAU).select_indices(database, budget)
            assert trace.indices_at(budget) == scratch


class TestMatrixWorkloads:
    """The matrix's greedy_maxpr cells, at a size the per-set loop affords."""

    @pytest.mark.parametrize("name", available_workloads())
    def test_traced_selections_match_per_set_loop(self, name):
        workload = get_workload_spec(name).build(n=40, seed=cell_seed(0, name))
        database = workload.database
        claim = workload.linear_function()
        if SurpriseBase.build(database, claim) is None:
            # Only a mixed database leaves the engine: it stays on the
            # per-set Monte-Carlo loop.
            assert not (database.all_normal() or database.all_discrete())
            return
        budgets = [budget_from_fraction(database, f) for f in (0.05, 0.1, 0.2)]
        trace = GreedyMaxPr(claim).trace(database, max(budgets))
        benefit = oracle.SurpriseBenefit(claim, database)
        for budget in budgets:
            assert trace.indices_at(budget) == oracle.greedy_maxpr_per_set(
                database, budget, benefit
            )

    def test_the_engine_serves_every_workload_but_the_mixed_one(self):
        served = {"normal": 0, "discrete": 0}
        for name in available_workloads():
            workload = get_workload_spec(name).build(n=40, seed=cell_seed(0, name))
            base = SurpriseBase.build(workload.database, workload.linear_function())
            if base is not None:
                served[base.mode] += 1
        assert served == {"normal": 7, "discrete": 8}
