"""From-scratch reference loops for the dependency-aware, MaxPr and adaptive policies.

The production policies keep a conditioning engine, overlay database or
surprise engine alive across steps.  These loops instead recompute every
candidate's objective from scratch each step — one Schur complement or one
surprise probability per candidate — so a shared-state bug in the fast path
cannot hide in the reference.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import List, Optional, Sequence

import numpy as np
import scipy.linalg

from repro.claims.functions import ClaimFunction
from repro.core.adaptive import AdaptiveRun, AdaptiveStep, RevealOracle
from repro.core.greedy import greedy_select
from repro.core.solver import SelectionStep
from repro.core.surprise import make_surprise_calculator
from repro.uncertainty.correlation import GaussianWorldModel
from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "variance_after",
    "DepBenefit",
    "greedy_dep",
    "greedy_maxpr",
    "SurpriseBenefit",
    "greedy_maxpr_per_set",
    "adaptive_dep",
    "adaptive_maxpr",
]


def variance_after(
    model: GaussianWorldModel, weights: np.ndarray, cleaned: Sequence[int], conditional: bool
) -> float:
    """``Var[w . X]`` once ``cleaned`` is cleaned, by one Schur complement.

    ``conditional`` is the Gaussian conditional variance given the cleaned
    objects ``c``, ``w_r' Sigma_rr w_r - b' Sigma_cc^{-1} b`` with
    ``b = Sigma_cr w_r`` over the objects ``r`` left unclean.  It is taken as
    a quadratic form, never forming the conditional covariance matrix: one
    Cholesky solve against the cleaned block, or its pseudo-inverse when the
    block is singular or ill-conditioned.  Otherwise it is the marginal
    variance of the objects left unclean (the Theorem 3.9 formulation).
    """
    cleaned = sorted(set(int(i) for i in cleaned))
    covariance = model.covariance
    if conditional:
        kept = np.array(weights, dtype=float)
        kept[cleaned] = 0.0
        variance = float(kept @ covariance @ kept)
        if not cleaned:
            return variance
        cross = covariance[cleaned] @ kept
        block = covariance[np.ix_(cleaned, cleaned)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            try:
                solution = scipy.linalg.solve(block, cross, assume_a="pos")
            except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning):
                solution = np.linalg.pinv(block) @ cross
        return variance - float(cross @ solution)
    cleaned_set = set(cleaned)
    remaining = [i for i in range(model.size) if i not in cleaned_set]
    w = weights[remaining]
    return float(w @ covariance[np.ix_(remaining, remaining)] @ w)


class DepBenefit:
    """GreedyDep's benefit ``Var(T) - Var(T + i)`` for ``greedy_select``.

    Every distinct set's variance is one :func:`variance_after` call, cached
    for the run; :attr:`evaluations` counts the benefit calls.
    """

    def __init__(
        self, function: ClaimFunction, model: GaussianWorldModel, conditional: bool = True
    ):
        self.weights = function.weights(model.size)
        self.model = model
        self.conditional = conditional
        self.evaluations = 0
        self._variances: dict = {}

    def variance(self, indices: Sequence[int]) -> float:
        key = frozenset(indices)
        if key not in self._variances:
            self._variances[key] = variance_after(self.model, self.weights, key, self.conditional)
        return self._variances[key]

    def __call__(self, current: Sequence[int], index: int) -> float:
        self.evaluations += 1
        return self.variance(current) - self.variance(tuple(current) + (index,))


def greedy_dep(
    function: ClaimFunction,
    model: GaussianWorldModel,
    database: UncertainDatabase,
    budget: float,
    conditional: bool = True,
    record_steps: Optional[List[SelectionStep]] = None,
) -> List[int]:
    """GreedyDep as Algorithm 1 with a from-scratch benefit per candidate per step."""
    return greedy_select(
        database,
        budget,
        DepBenefit(function, model, conditional),
        adaptive=True,
        record_steps=record_steps,
    )


def _affordable(database: UncertainDatabase, cleaned, spent: float, budget: float) -> List[int]:
    costs = database.costs
    return [
        i for i in range(len(database)) if i not in cleaned and spent + costs[i] <= budget + 1e-9
    ]


def _normal_surprise(
    database: UncertainDatabase, weights: np.ndarray, cleaned: Sequence[int], tau: float
) -> float:
    """``Pr[f(X') < f(u) - tau]`` for a linear ``f`` over independent normal errors.

    Only the cleaned objects are re-drawn, so ``f(X') - f(u)`` is normal with
    mean ``sum w_i (mu_i - u_i)`` and variance ``sum w_i^2 sigma_i^2`` over
    ``cleaned``; the cdf is taken through ``math.erfc``.
    """
    if not cleaned:
        return 0.0
    shift = 0.0
    variance = 0.0
    for i in sorted(cleaned):
        distribution = database[i].distribution
        shift += weights[i] * (distribution.mean - database[i].current_value)
        variance += weights[i] ** 2 * distribution.variance
    if variance <= 0.0:
        return 1.0 if shift < -tau else 0.0
    return 0.5 * math.erfc((tau + shift) / math.sqrt(2.0 * variance))


def _discrete_surprise(
    database: UncertainDatabase, weights: np.ndarray, cleaned: Sequence[int], tau: float
) -> float:
    """``Pr[f(X') < f(u) - tau]`` for a linear ``f`` over independent discrete errors.

    Enumerates the joint support of the cleaned nonzero-weight objects with
    ``itertools.product`` and adds the mass of every outcome whose drop
    ``sum w_i (x_i - u_i)`` clears ``-tau`` by 1e-12.  Zero-weight objects
    cannot move ``f`` and are left out; a set of only such objects scores 0.
    """
    relevant = [i for i in sorted(cleaned) if weights[i] != 0.0]
    if not relevant:
        return 0.0
    supports = [
        [
            (float(weights[i] * (value - database[i].current_value)), float(mass))
            for value, mass in zip(
                database[i].distribution.values, database[i].distribution.probabilities
            )
        ]
        for i in relevant
    ]
    total = 0.0
    for outcome in itertools.product(*supports):
        if sum(drop for drop, _mass in outcome) < -tau - 1e-12:
            total += math.prod(mass for _drop, mass in outcome)
    return total


def greedy_maxpr(
    function: ClaimFunction, database: UncertainDatabase, budget: float, tau: float = 0.0
) -> List[int]:
    """GreedyMaxPr on an all-normal or all-discrete database, as a scratch Algorithm-1 loop.

    Every step recomputes each affordable candidate's surprise probability
    from scratch — the normal closed form, or brute-force enumeration of the
    discrete joint support — with no cache and no ``greedy_select``.  It
    stops once the best ratio's gain is at most 1e-12, then applies the
    single-item safeguard on standalone probabilities.  The discrete
    enumeration has no central-limit switch, so keep its instances small.
    """
    if database.all_normal():
        surprise = _normal_surprise
    elif database.all_discrete():
        surprise = _discrete_surprise
    else:
        raise ValueError("the scratch MaxPr loop needs an all-normal or all-discrete database")
    weights = function.weights(len(database))
    costs = database.costs
    selected: List[int] = []
    spent = 0.0
    while True:
        candidates = _affordable(database, selected, spent, budget)
        if not candidates:
            break
        current = surprise(database, weights, selected, tau)
        gains = {
            i: surprise(database, weights, selected + [i], tau) - current for i in candidates
        }
        best = max(candidates, key=lambda i: gains[i] / costs[i])
        if gains[best] <= 1e-12:
            break
        selected.append(best)
        spent += costs[best]
    remaining = _affordable(database, selected, 0.0, budget)
    if remaining:
        standalone = {i: surprise(database, weights, [i], tau) for i in range(len(database))}
        best_single = max(remaining, key=lambda i: standalone[i])
        if standalone[best_single] > sum(standalone[i] for i in selected):
            return [best_single]
    return selected


class SurpriseBenefit:
    """GreedyMaxPr's per-set benefit ``Pr(T + i) - Pr(T)`` for ``greedy_select``.

    Every distinct set's probability is one call of the per-set calculator
    :func:`~repro.core.surprise.make_surprise_calculator` returns, memoized
    for the benefit's lifetime so several budgets can share it.  On the
    databases the surprise engine serves, this per-set loop is its
    reference.
    """

    def __init__(self, function: ClaimFunction, database: UncertainDatabase, tau: float = 0.0):
        self.probability = make_surprise_calculator(database, function, tau=tau)
        self._probabilities: dict = {}

    def set_probability(self, indices: Sequence[int]) -> float:
        key = frozenset(indices)
        if key not in self._probabilities:
            self._probabilities[key] = self.probability(list(key))
        return self._probabilities[key]

    def __call__(self, current: Sequence[int], index: int) -> float:
        return self.set_probability(tuple(current) + (index,)) - self.set_probability(current)


def greedy_maxpr_per_set(
    database: UncertainDatabase,
    budget: float,
    benefit: SurpriseBenefit,
    record_steps: Optional[List[SelectionStep]] = None,
) -> List[int]:
    """GreedyMaxPr as Algorithm 1 over the memoized per-set benefit."""
    return greedy_select(
        database,
        budget,
        benefit,
        adaptive=True,
        stop_when_no_gain=True,
        record_steps=record_steps,
    )


def adaptive_dep(
    function: ClaimFunction,
    model: GaussianWorldModel,
    database: UncertainDatabase,
    budget: float,
    oracle: RevealOracle,
    conditional: bool = True,
    min_gain: float = 1e-12,
) -> AdaptiveRun:
    """AdaptiveDep with one :func:`variance_after` per candidate per step."""
    weights = function.weights(len(database))
    costs = database.costs
    run = AdaptiveRun()
    cleaned: List[int] = []
    while True:
        current = variance_after(model, weights, cleaned, conditional)
        candidates = _affordable(database, cleaned, run.total_cost, budget)
        run.final_objective = current
        if not candidates:
            return run
        gains = {
            i: current - variance_after(model, weights, cleaned + [i], conditional)
            for i in candidates
        }
        best = max(candidates, key=lambda i: gains[i] / costs[i])
        if gains[best] <= min_gain:
            run.stopped_early = True
            return run
        revealed = oracle(best)
        cleaned.append(best)
        after = variance_after(model, weights, cleaned, conditional)
        run.steps.append(AdaptiveStep(best, float(revealed), float(costs[best]), current, after))
        run.total_cost += costs[best]


def adaptive_maxpr(
    function: ClaimFunction,
    database: UncertainDatabase,
    budget: float,
    oracle: RevealOracle,
    tau: float = 0.0,
    min_gain: float = 1e-12,
) -> AdaptiveRun:
    """AdaptiveMaxPr rebuilding the ``cleaned()`` database and calculator every step.

    Only a reference on all-discrete databases: on all-normal ones the
    first reveal makes the rebuilt database mixed, which sends its per-step
    calculator to the Monte-Carlo fallback, while the production policy
    keeps the Lemma 3.3 closed form for the whole run.
    """
    target = float(function.evaluate(database.current_values)) - tau
    costs = database.costs
    working = database
    run = AdaptiveRun()
    cleaned: set = set()
    while True:
        current_value = float(function.evaluate(working.current_values))
        if current_value < target - 1e-12:
            run.final_objective = 1.0
            run.stopped_early = True
            return run
        candidates = _affordable(database, cleaned, run.total_cost, budget)
        run.final_objective = 0.0
        if not candidates:
            return run
        # Surprise is measured from the working database's current values,
        # so the original target becomes the drop still required.
        calculator = make_surprise_calculator(
            working, function, tau=max(current_value - target, 0.0)
        )
        scores = {i: calculator([i]) for i in candidates}
        best = max(candidates, key=lambda i: scores[i] / costs[i])
        if scores[best] <= min_gain:
            run.stopped_early = True
            return run
        revealed = oracle(best)
        working = working.cleaned({best: revealed})
        cleaned.add(best)
        met = float(function.evaluate(working.current_values)) < target - 1e-12
        run.steps.append(
            AdaptiveStep(best, float(revealed), float(costs[best]), scores[best], float(met))
        )
        run.total_cost += costs[best]
