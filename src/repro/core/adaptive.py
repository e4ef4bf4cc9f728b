"""Adaptive cleaning policies (the paper's Section 6 future-work direction).

The algorithms in :mod:`repro.core.greedy` commit to a whole cleaning set up
front.  An *adaptive* policy instead cleans one object at a time, observes the
revealed value, updates the database, and only then decides what to clean
next.  Adaptivity is particularly useful for MaxPr: once a counterargument has
been revealed there is no reason to keep spending budget, and a revealed value
changes which remaining objects are most likely to produce the needed drop.

Three policies are provided:

* :class:`AdaptiveMinVar` — at every step cleans the affordable object with
  the largest reduction in expected variance *given everything revealed so
  far*.
* :class:`AdaptiveMaxPr` — at every step cleans the affordable object that
  maximizes the probability of reaching the surprise target given the values
  revealed so far, and stops as soon as the target is already met (or no
  object can still help).
* :class:`AdaptiveDep` — the correlation-aware MinVar policy: reveals update
  a maintained conditional covariance through rank-one downdates
  (:class:`~repro.uncertainty.correlation.ConditionalGaussian`), so each step
  is one reveal, one O(n^2) downdate, and one vectorized scoring pass over
  every remaining candidate.

All three interact with the world through a *reveal oracle* — any callable
mapping an object index to its true value.  :func:`ground_truth_oracle`
builds one from a fixed hidden world (the usual simulation setup);
:func:`sampling_oracle` draws outcomes from the error model instead.

Incremental conditioning engine
-------------------------------

A reveal is a *small* event: it pins one object and leaves everything else
untouched.  The policies exploit that end to end instead of tearing the
stack down every step:

* the working database is a :meth:`~repro.uncertainty.database.UncertainDatabase.conditioned`
  reveal overlay (shared cost/name state, delta-patched stat vectors), not a
  full ``cleaned()`` rebuild;
* MinVar keeps a :meth:`~repro.core.expected_variance.DecomposedEVCalculator.condition`-chained
  calculator whose memo tables survive each reveal, re-scoring only the
  objects that share a term (or interacting pair) with the revealed one —
  for linear claims the Lemma 3.1 closed form degenerates to an O(1)
  per-step update of a contributions vector;
* MaxPr scores every candidate at once through a
  :class:`~repro.core.surprise.SurpriseEngine` at the empty prefix (per-object
  drop statistics precomputed once, one vectorized pass per step);
* the affordable-candidate set is a persistent boolean mask pruned in place
  (feasibility is monotone), not an O(n) list rebuild per step.

The one exception is AdaptiveMinVar on claims only exact enumeration can
score (``ev_strategy`` ``"exact"``): it rebuilds a ``cleaned()`` database
and calculator per step.  :func:`run_adaptive_trials` batches the Monte-Carlo
ablation across trials: one rng draws every hidden world in a single stacked
``sample_worlds`` call and all trials share the policy's per-database
precomputation (base calculator, memoized pieces, surprise-engine base).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.core.expected_variance import (
    DecomposedEVCalculator,
    ev_strategy,
    make_ev_calculator,
)
from repro.core.problems import check_budget
from repro.core.solver import Solver, register_solver
from repro.core.surprise import (
    SurpriseBase,
    SurpriseEngine,
    finite_tau,
    make_surprise_calculator,
)
from repro.uncertainty.correlation import GaussianWorldModel
from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "RevealOracle",
    "ground_truth_oracle",
    "sampling_oracle",
    "AdaptiveStep",
    "AdaptiveRun",
    "AdaptiveMinVar",
    "AdaptiveMaxPr",
    "AdaptiveDep",
    "AdaptiveTrialsResult",
    "run_adaptive_trials",
]

RevealOracle = Callable[[int], float]

_EMPTY_FROZEN: frozenset = frozenset()


def ground_truth_oracle(truth: Sequence[float]) -> RevealOracle:
    """Oracle that reveals values from a fixed hidden world."""
    values = np.asarray(truth, dtype=float)

    def reveal(index: int) -> float:
        return float(values[int(index)])

    return reveal


def sampling_oracle(database: UncertainDatabase, rng: np.random.Generator) -> RevealOracle:
    """Oracle that draws each revealed value from the object's error model."""

    def reveal(index: int) -> float:
        return float(database[int(index)].sample(rng))

    return reveal


@dataclass(frozen=True)
class AdaptiveStep:
    """One cleaning action taken by an adaptive policy."""

    index: int
    revealed_value: float
    cost: float
    objective_before: float
    objective_after: float


@dataclass
class AdaptiveRun:
    """Trace of an adaptive cleaning session."""

    steps: List[AdaptiveStep] = field(default_factory=list)
    total_cost: float = 0.0
    final_objective: Optional[float] = None
    stopped_early: bool = False

    @property
    def cleaned_indices(self) -> List[int]:
        """Indices revealed so far, in cleaning order."""
        return [step.index for step in self.steps]

    def __len__(self) -> int:
        return len(self.steps)


class _AdaptivePolicy(Solver):
    """Solver shim for the adaptive policies.

    An adaptive policy is defined by its interaction with a reveal oracle, so
    its natural entry point is :meth:`run`.  The Solver-protocol
    ``select_indices`` is provided for harnesses that want a plan from an
    adaptive policy without managing an oracle: it simulates a run against a
    :func:`sampling_oracle` seeded from ``simulation_seed`` (deterministic by
    default) and returns the cleaned indices in reveal order.  Every
    policy's :meth:`run` refuses a NaN or negative budget with
    ``ValueError``.
    """

    simulation_seed: int = 0

    def run(self, database: UncertainDatabase, budget: float, oracle: RevealOracle) -> "AdaptiveRun":
        raise NotImplementedError

    def select_indices(self, database: UncertainDatabase, budget: float) -> List[int]:
        rng = np.random.default_rng(self.simulation_seed)
        return self.run(database, budget, sampling_oracle(database, rng)).cleaned_indices


@register_solver
class AdaptiveMinVar(_AdaptivePolicy):
    """Sequentially clean the object with the largest conditional variance reduction.

    After each reveal the database is conditioned on the observed value, so
    later decisions account for how the outcome shifted the query function's
    distribution — unlike the static GreedyMinVar, which evaluates everything
    against the prior.

    Claim-quality measures on discrete databases and linear claims run on
    the incremental conditioning engine (overlay databases,
    ``DecomposedEVCalculator.condition`` chains with surviving memo tables,
    neighbour-only gain updates, O(1) contribution updates for linear
    claims); every other claim takes the exact-enumeration teardown loop,
    which rebuilds the database and calculator every step.  The paths
    produce identical runs wherever more than one applies.
    """

    name = "AdaptiveMinVar"

    def __init__(self, function: ClaimFunction, min_gain: float = 1e-12):
        self.function = function
        self.min_gain = min_gain
        self._prepared: Optional[Tuple] = None

    def run(
        self,
        database: UncertainDatabase,
        budget: float,
        oracle: RevealOracle,
    ) -> AdaptiveRun:
        """Clean adaptively until the budget is exhausted or nothing helps."""
        check_budget(budget)
        # ev_strategy is the routing make_ev_calculator applies inside the
        # exact loop, so every path takes the calculator's mathematical route.
        strategy = ev_strategy(database, self.function)
        if strategy == "decomposed":
            return self._run_decomposed(database, budget, oracle)
        if strategy == "linear":
            return self._run_linear(database, budget, oracle)
        return self._run_exact(database, budget, oracle)

    def _run_linear(
        self, database: UncertainDatabase, budget: float, oracle: RevealOracle
    ) -> AdaptiveRun:
        """Lemma 3.1 closed form with O(1) per-reveal state updates.

        ``EV(T) = sum_{i not in T} w_i^2 Var[X_i]`` does not depend on the
        revealed outcomes at all, so the whole adaptive run needs one
        contributions vector: a reveal zeroes one entry (and the matching
        ratio), and the best candidate is a masked argmax.  The objective is
        deliberately re-summed per step rather than kept as a running
        difference — one vectorized ``np.sum`` buys bit-identical agreement
        with :func:`~repro.core.expected_variance.linear_expected_variance`,
        where a k-step running subtraction would accumulate drift.
        """
        n = len(database)
        costs = database.costs
        weights = self.function.weights(n)
        contributions = (weights**2) * database.variances
        run = AdaptiveRun()
        spent = 0.0
        feasible = np.ones(n, dtype=bool)
        # Contributions only ever change at the revealed entry, so the ratio
        # vector is maintained in place across steps (-inf marks revealed or
        # unaffordable objects).
        ratios = np.where(feasible, contributions / costs, -np.inf)

        while True:
            pruned = feasible & ((spent + costs) > budget + 1e-9)
            if pruned.any():
                feasible &= ~pruned
                ratios[pruned] = -np.inf
            current = float(contributions.sum())
            if not feasible.any():
                run.final_objective = current
                return run
            best = int(np.argmax(ratios))
            if contributions[best] <= self.min_gain:
                run.final_objective = current
                run.stopped_early = True
                return run

            revealed = oracle(best)
            contributions[best] = 0.0
            feasible[best] = False
            ratios[best] = -np.inf
            spent += costs[best]
            after = float(contributions.sum())
            run.steps.append(
                AdaptiveStep(
                    index=best,
                    revealed_value=float(revealed),
                    cost=float(costs[best]),
                    objective_before=current,
                    objective_after=after,
                )
            )
            run.total_cost = spent
            run.final_objective = after

    def _decomposed_base(self, database: UncertainDatabase):
        """Per-database base state: calculator, empty-set gains, objective.

        Cached by database identity so repeated runs on the same database
        (the multi-trial driver, budget comparisons) pay the standalone-gain
        sweep once; only the most recent database is kept because the
        calculator pins its database alive.
        """
        cached = self._prepared
        if cached is not None and cached[0] is database:
            return cached[1], cached[2], cached[3]
        calculator = DecomposedEVCalculator(database, self.function)
        gains = np.array(
            [calculator.marginal_gain(_EMPTY_FROZEN, i) for i in range(len(database))],
            dtype=float,
        )
        current = calculator.expected_variance(())
        self._prepared = (database, calculator, gains, current)
        return calculator, gains, current

    def _run_decomposed(
        self, database: UncertainDatabase, budget: float, oracle: RevealOracle
    ) -> AdaptiveRun:
        """Theorem 3.8 decomposition with condition-chained calculators.

        Each reveal hands the loop a conditioned calculator that shares every
        memoized piece not referencing the revealed object, so re-scoring is
        confined to the revealed object's term/pair neighbours — exactly the
        objects whose gains can change — and the objective update is a cache
        read-back over the unaffected terms.
        """
        n = len(database)
        costs = database.costs
        calculator, base_gains, current = self._decomposed_base(database)
        gains = base_gains.copy()
        run = AdaptiveRun()
        spent = 0.0
        feasible = np.ones(n, dtype=bool)
        ratios = np.where(feasible, gains / costs, -np.inf)

        while True:
            pruned = feasible & ((spent + costs) > budget + 1e-9)
            if pruned.any():
                feasible &= ~pruned
                ratios[pruned] = -np.inf
            if not feasible.any():
                run.final_objective = current
                return run
            best = int(np.argmax(ratios))
            if gains[best] <= self.min_gain:
                run.final_objective = current
                run.stopped_early = True
                return run

            revealed = oracle(best)
            calculator = calculator.condition(best, revealed)
            after = calculator.expected_variance(())
            feasible[best] = False
            ratios[best] = -np.inf
            spent += costs[best]
            run.steps.append(
                AdaptiveStep(
                    index=best,
                    revealed_value=float(revealed),
                    cost=float(costs[best]),
                    objective_before=current,
                    objective_after=after,
                )
            )
            run.total_cost = spent
            run.final_objective = after
            current = after
            for i in calculator.neighbours(best):
                if feasible[i]:
                    gains[i] = calculator.marginal_gain(_EMPTY_FROZEN, i)
                    ratios[i] = gains[i] / costs[i]

    def _run_exact(
        self, database: UncertainDatabase, budget: float, oracle: RevealOracle
    ) -> AdaptiveRun:
        """Teardown loop for claims only exact enumeration can score.

        Each step rebuilds the ``cleaned()`` database and its calculator and
        scores each affordable candidate with one calculator call.
        """
        working = database
        costs = database.costs
        run = AdaptiveRun()
        spent = 0.0
        cleaned: set = set()

        while True:
            ev = make_ev_calculator(working, self.function)
            current = ev([])
            candidates = [
                i
                for i in range(len(database))
                if i not in cleaned and spent + costs[i] <= budget + 1e-9
            ]
            if not candidates:
                run.final_objective = current
                return run
            gains = {i: current - ev([i]) for i in candidates}
            best = max(candidates, key=lambda i: gains[i] / costs[i])
            if gains[best] <= self.min_gain:
                run.final_objective = current
                run.stopped_early = True
                return run

            revealed = oracle(best)
            working = working.cleaned({best: revealed})
            after = make_ev_calculator(working, self.function)([])
            cleaned.add(best)
            spent += costs[best]
            run.steps.append(
                AdaptiveStep(
                    index=best,
                    revealed_value=revealed,
                    cost=float(costs[best]),
                    objective_before=current,
                    objective_after=after,
                )
            )
            run.total_cost = spent
            run.final_objective = after


@register_solver
class AdaptiveMaxPr(_AdaptivePolicy):
    """Sequentially clean toward a surprise target, stopping once it is met.

    The target is ``f`` dropping below ``f(u) - tau`` where ``u`` is the
    *original* database's current values.  At every step the policy evaluates,
    for each affordable object, the probability that cleaning it (on top of
    everything already revealed) meets the target, cleans the best one, and
    re-plans.  If the revealed values alone already meet the target the run
    stops — the counterargument is in hand and the remaining budget is saved.

    Re-drawing one object moves a linear ``f`` by ``w_i (X_i - u_i)``, which
    no other reveal changes, so the default path scores all candidates with
    one :class:`~repro.core.surprise.SurpriseEngine` held at the empty prefix
    (per-object drop statistics built once; only the required drop changes
    per step) and keeps the working database as a reveal overlay.  Functions
    and databases the engine does not serve fall back to a per-candidate
    calculator per step.  On all-normal databases the engine keeps the
    Lemma 3.3 closed form for the whole run, where a ``cleaned()`` rebuild
    would lose it after the first reveal (the cleaned point mass makes the
    database mixed and forces a per-step calculator onto the Monte-Carlo
    fallback).  ``tau`` must be finite.
    """

    name = "AdaptiveMaxPr"

    def __init__(
        self,
        function: ClaimFunction,
        tau: float = 0.0,
        min_gain: float = 1e-12,
    ):
        self.function = function
        self.tau = finite_tau(tau)
        self.min_gain = min_gain
        self._prepared: Optional[Tuple[UncertainDatabase, Optional[SurpriseEngine]]] = None

    def _engine_for(self, database: UncertainDatabase) -> Optional[SurpriseEngine]:
        """The empty-prefix engine for ``database`` (None without an engine path).

        Kept for the most recent database, so every trial of
        :func:`run_adaptive_trials` shares one base.
        """
        cached = self._prepared
        if cached is not None and cached[0] is database:
            return cached[1]
        base = SurpriseBase.build(database, self.function)
        engine = SurpriseEngine(base) if base is not None else None
        self._prepared = (database, engine)
        return engine

    def run(
        self,
        database: UncertainDatabase,
        budget: float,
        oracle: RevealOracle,
    ) -> AdaptiveRun:
        """Execute the adaptive loop: reveal, update beliefs, re-plan (see class docs)."""
        check_budget(budget)
        baseline = float(self.function.evaluate(database.current_values))
        target = baseline - self.tau
        n = len(database)
        costs = database.costs
        engine = self._engine_for(database)
        working = database
        run = AdaptiveRun()
        spent = 0.0
        feasible = np.ones(n, dtype=bool)
        # Carried across iterations: each step's closing after_value is the
        # next step's current value (same array, same evaluation), so the
        # claim is evaluated once per reveal instead of twice.
        current_value = baseline

        while True:
            if current_value < target - 1e-12:
                # The revealed data already supports the counterargument.
                run.final_objective = 1.0
                run.stopped_early = True
                return run

            feasible &= (spent + costs) <= budget + 1e-9
            if not feasible.any():
                run.final_objective = 0.0
                return run

            # Express the original target as the drop still required from the
            # current (partially revealed) state.
            required_drop = max(current_value - target, 0.0)
            if engine is not None:
                scores = engine.probabilities(required_drop)
            else:
                calculator = make_surprise_calculator(
                    working, self.function, tau=required_drop
                )
                scores = np.zeros(n, dtype=float)
                for i in np.flatnonzero(feasible):
                    scores[i] = calculator([int(i)])
            ratios = np.where(feasible, scores / costs, -np.inf)
            best = int(np.argmax(ratios))
            if scores[best] <= self.min_gain:
                run.final_objective = 0.0
                run.stopped_early = True
                return run

            revealed = oracle(best)
            before = float(scores[best])
            working = working.conditioned(best, revealed)
            feasible[best] = False
            spent += costs[best]
            after_value = float(self.function.evaluate(working.current_values))
            run.steps.append(
                AdaptiveStep(
                    index=best,
                    revealed_value=float(revealed),
                    cost=float(costs[best]),
                    objective_before=before,
                    objective_after=1.0 if after_value < target - 1e-12 else 0.0,
                )
            )
            run.total_cost = spent
            run.final_objective = run.steps[-1].objective_after
            current_value = after_value


@register_solver
class AdaptiveDep(_AdaptivePolicy):
    """Correlation-aware adaptive MinVar: reveal, rank-one downdate, re-score.

    The dependency-aware analogue of :class:`AdaptiveMinVar`: the error model
    is a :class:`~repro.uncertainty.correlation.GaussianWorldModel` (full
    covariance matrix), so revealing one object shrinks the uncertainty of
    every object correlated with it.  Each step follows the PR-3 conditioning
    pattern end to end — reveal the chosen object, apply one O(n^2) rank-one
    downdate to the maintained conditional covariance
    (:class:`~repro.uncertainty.correlation.ConditionalGaussian`), and
    re-score *all* remaining candidates in a single vectorized gains pass —
    instead of a fresh Schur complement per candidate per step.

    Note that for a multivariate normal the conditional covariance does not
    depend on the revealed *values*, so the selection order matches the
    static :class:`~repro.core.greedy.GreedyDep` loop (without its knapsack
    safeguard); what adaptivity adds is the recorded trajectory — the actual
    reveals and the conditional-variance profile — and early stopping once no
    affordable candidate reduces the variance by more than ``min_gain``.
    ``conditional=False`` uses the marginal (Theorem 3.9) semantics.
    """

    name = "AdaptiveDep"

    def __init__(
        self,
        function: ClaimFunction,
        model: GaussianWorldModel,
        min_gain: float = 1e-12,
        conditional: bool = True,
    ):
        if not function.is_linear():
            raise TypeError("AdaptiveDep requires a linear query function")
        self.function = function
        self.model = model
        self.min_gain = min_gain
        self.conditional = bool(conditional)
        self._prepared = None

    def run(
        self,
        database: UncertainDatabase,
        budget: float,
        oracle: RevealOracle,
    ) -> AdaptiveRun:
        """Execute the adaptive loop: reveal, update beliefs, re-plan (see class docs)."""
        check_budget(budget)
        n = len(database)
        costs = database.costs
        weights = self.function.weights(n)
        engine = self.model.engine(weights, conditional=self.conditional)
        run = AdaptiveRun()
        spent = 0.0
        feasible = np.ones(n, dtype=bool)
        current = engine.variance()
        gains = engine.gains()
        ratios = np.where(feasible, gains / costs, -np.inf)

        while True:
            pruned = feasible & ((spent + costs) > budget + 1e-9)
            if pruned.any():
                feasible &= ~pruned
                ratios[pruned] = -np.inf
            if not feasible.any():
                run.final_objective = current
                return run
            best = int(np.argmax(ratios))
            if gains[best] <= self.min_gain:
                run.final_objective = current
                run.stopped_early = True
                return run

            revealed = oracle(best)
            engine.condition_on(best)
            after = engine.variance()
            feasible[best] = False
            spent += costs[best]
            run.steps.append(
                AdaptiveStep(
                    index=best,
                    revealed_value=float(revealed),
                    cost=float(costs[best]),
                    objective_before=current,
                    objective_after=after,
                )
            )
            run.total_cost = spent
            run.final_objective = after
            current = after
            # Correlations can move any candidate's gain, so every step
            # re-scores all of them — one vectorized pass on the engine.
            gains = engine.gains()
            ratios = np.where(feasible, gains / costs, -np.inf)


@dataclass
class AdaptiveTrialsResult:
    """Outcome of a batched multi-trial adaptive simulation.

    ``truths`` holds the stacked hidden worlds (one row per trial) the
    ground-truth oracles revealed from; ``runs`` the per-trial traces.
    """

    runs: List[AdaptiveRun]
    truths: np.ndarray

    @property
    def trials(self) -> int:
        """Number of simulated trials."""
        return len(self.runs)

    @property
    def total_costs(self) -> np.ndarray:
        """Total cleaning cost spent per trial."""
        return np.array([run.total_cost for run in self.runs], dtype=float)

    @property
    def final_objectives(self) -> np.ndarray:
        """Final objective value per trial."""
        return np.array(
            [np.nan if run.final_objective is None else run.final_objective for run in self.runs],
            dtype=float,
        )

    @property
    def mean_cost(self) -> float:
        """Mean cleaning cost across trials."""
        return float(self.total_costs.mean()) if self.runs else 0.0

    @property
    def success_rate(self) -> float:
        """Fraction of trials that ended with the objective met (MaxPr semantics)."""
        if not self.runs:
            return 0.0
        return float(np.mean(self.final_objectives == 1.0))


def run_adaptive_trials(
    policy: _AdaptivePolicy,
    database: UncertainDatabase,
    budget: float,
    trials: int,
    rng: Optional[np.random.Generator] = None,
    truths: Optional[np.ndarray] = None,
) -> AdaptiveTrialsResult:
    """Batched Monte-Carlo ablation: run ``policy`` against ``trials`` hidden worlds.

    One generator draws every hidden world in a single stacked
    ``sample_worlds`` call (one vectorized draw per object column instead of
    ``trials * n`` scalar draws) and every trial replays against the same base
    database, so the policy's per-database precomputation — the decomposed
    base calculator with its standalone gains, the surprise engine's
    per-object drop arrays — is built once and shared; pieces memoized by
    one trial's conditioned calculators are reused by every later trial that
    visits them.  Pass
    ``truths`` (shape ``(trials, n)``) to pin the hidden worlds explicitly;
    otherwise ``rng`` (default seed 0) draws them.
    """
    if truths is None:
        generator = rng if rng is not None else np.random.default_rng(0)
        truths = database.sample_worlds(generator, int(trials))
    else:
        truths = np.asarray(truths, dtype=float)
        if truths.ndim != 2 or truths.shape != (int(trials), len(database)):
            raise ValueError(
                f"truths must have shape ({int(trials)}, {len(database)}), got {truths.shape}"
            )
    runs = [
        policy.run(database, budget, ground_truth_oracle(truths[t]))
        for t in range(truths.shape[0])
    ]
    return AdaptiveTrialsResult(runs=runs, truths=truths)
