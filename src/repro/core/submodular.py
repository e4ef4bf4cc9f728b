"""Submodular machinery for general query functions (Section 3.3).

With mutually independent errors, ``EV(.)`` is non-increasing (Lemma 3.4) and
submodular (Lemma 3.5) in the cleaned set — regardless of the query function.
Complementing the decision variable (choose the set *not* to clean,
Lemma 3.6) turns MinVar into minimizing a non-decreasing submodular function
under a knapsack *lower-bound* constraint, which the Iyer–Bilmes framework
solves with iterated modular bounds.  This module provides:

* :class:`BestSubmodularMinVar` — the paper's "Best" algorithm: iterated
  modular-upper-bound minimization, each round solved as a knapsack.
* :class:`ExhaustiveMinVar` ("OPT") — brute-force search over all feasible
  subsets, the yardstick used on small instances (Section 4.5).
* :func:`curvature` — the curvature ``kappa`` that controls Best's
  approximation factor (Theorem 3.7).
* :func:`bicriteria_unit_cost` — the unit-cost bi-criteria variant mentioned
  at the end of Section 3.3.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.core.expected_variance import make_ev_calculator
from repro.core.knapsack import solve_knapsack_dp
from repro.core.problems import CleaningPlan
from repro.core.solver import Solver, register_solver
from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "curvature",
    "BestSubmodularMinVar",
    "ExhaustiveMinVar",
    "bicriteria_unit_cost",
]

EVFunction = Callable[[Iterable[int]], float]


def curvature(database: UncertainDatabase, ev: EVFunction) -> float:
    """Curvature ``kappa = 1 - min_i (EV(∅) - EV({i})) / EV(O \\ {i})`` of EV.

    ``kappa`` close to 0 means the function is nearly modular (every object's
    marginal contribution is the same whether it is cleaned first or last);
    ``kappa = 1`` means some object's first-step gain is negligible relative
    to the variance it can still remove at the end.  Theorem 3.7's
    approximation factor for Best is ``O(1 / (1 - kappa))``.
    """
    n = len(database)
    baseline = ev([])
    if baseline <= 0:
        return 0.0
    ratios = []
    all_indices = set(range(n))
    for i in range(n):
        gain_first = baseline - ev([i])
        remaining = ev(sorted(all_indices - {i}))
        if remaining <= 1e-15:
            # Cleaning everything else already removes all variance: this
            # object contributes nothing at the end, so it does not constrain
            # the curvature ratio.
            continue
        ratios.append(gain_first / remaining)
    if not ratios:
        return 0.0
    kappa = 1.0 - min(ratios)
    return float(min(max(kappa, 0.0), 1.0))


@register_solver
class BestSubmodularMinVar(Solver):
    """The "Best" algorithm: iterated modular upper bounds for MinVar.

    Following Lemma 3.6 we choose the complement set ``T̄`` (objects left
    *unclean*) to minimize the non-decreasing submodular function
    ``EV̄(T̄) = EV(O \\ T̄)`` subject to ``cost(T̄) >= total_cost - budget``.
    Each round replaces ``EV̄`` by a modular upper bound that is tight at the
    current iterate (the standard Nemhauser–Wolsey/Iyer–Bilmes bound built
    from singleton gains) and solves the resulting covering knapsack exactly —
    equivalently, a max-knapsack over the objects *to clean* with the original
    budget.  Iteration stops when the objective stops improving.
    """

    name = "Best"

    def __init__(
        self,
        function: ClaimFunction,
        max_iterations: int = 10,
        ev_factory: Optional[Callable[[UncertainDatabase, ClaimFunction], EVFunction]] = None,
    ):
        self.function = function
        self.max_iterations = max_iterations
        self._ev_factory = ev_factory

    # ------------------------------------------------------------------ #
    def _make_ev(self, database: UncertainDatabase) -> EVFunction:
        if self._ev_factory is not None:
            return self._ev_factory(database, self.function)
        return make_ev_calculator(database, self.function)

    def select_indices(self, database: UncertainDatabase, budget: float) -> List[int]:
        """Best of the iterated greedy bounds at the given budget."""
        n = len(database)
        costs = database.costs
        ev = self._make_ev(database)
        all_indices = list(range(n))
        baseline = ev([])

        # Singleton gains of EV̄ used to seed the first modular upper bound:
        #   EV̄({j} | ∅) = EV(O \ {j}) - EV(O)          ("cost of leaving j dirty")
        ev_all_clean = ev(all_indices)
        gain_alone = np.array(
            [ev([i for i in all_indices if i != j]) - ev_all_clean for j in range(n)],
            dtype=float,
        )
        gain_alone = np.maximum(gain_alone, 0.0)

        def solve_round(weights: np.ndarray) -> List[int]:
            """Pick the cleaning set maximizing the modular weight within budget."""
            solution = solve_knapsack_dp(np.maximum(weights, 0.0), costs, budget)
            return list(solution.selected)

        # Round 0: use the "leave-j-dirty costs EV this much" bound, which is
        # exactly the modular objective when EV is modular.
        current_clean = solve_round(gain_alone)
        current_value = ev(current_clean)

        for _ in range(self.max_iterations):
            # Modular upper bound tight at the current iterate: the benefit of
            # cleaning object j is its marginal EV reduction at the current
            # cleaned set (removed if already cleaned, added if not).
            current_set = set(current_clean)
            weights = np.empty(n, dtype=float)
            for j in range(n):
                if j in current_set:
                    without = sorted(current_set - {j})
                    weights[j] = ev(without) - current_value
                else:
                    with_j = sorted(current_set | {j})
                    weights[j] = current_value - ev(with_j)
            weights = np.maximum(weights, 0.0)

            candidate = solve_round(weights)
            candidate_value = ev(candidate)
            if candidate_value < current_value - 1e-12:
                current_clean, current_value = candidate, candidate_value
            else:
                break
        return sorted(current_clean)

    def select(self, database: UncertainDatabase, budget: float) -> CleaningPlan:
        """The selection wrapped in a :class:`CleaningPlan` (records the EV)."""
        indices = self.select_indices(database, budget)
        ev = self._make_ev(database)
        return CleaningPlan.from_indices(
            database, indices, objective_value=ev(indices), algorithm=self.name
        )


@register_solver
class ExhaustiveMinVar(Solver):
    """Brute-force optimum ("OPT"): try every feasible subset.

    Only usable on small instances; it is the yardstick of the Section 4.5
    dependency experiments.  An arbitrary objective function can be supplied
    (e.g. a dependency-aware expected variance), otherwise the independent-
    errors EV of the query function is used.
    """

    name = "OPT"

    def __init__(
        self,
        function: Optional[ClaimFunction] = None,
        objective: Optional[EVFunction] = None,
        max_objects: int = 22,
    ):
        if function is None and objective is None:
            raise ValueError("provide either a query function or an explicit objective")
        self.function = function
        self.objective = objective
        self.max_objects = max_objects

    def _make_objective(self, database: UncertainDatabase) -> EVFunction:
        if self.objective is not None:
            return self.objective
        return make_ev_calculator(database, self.function)

    def select_indices(self, database: UncertainDatabase, budget: float) -> List[int]:
        """Exhaustive search over all affordable subsets."""
        n = len(database)
        if n > self.max_objects:
            raise ValueError(
                f"ExhaustiveMinVar is limited to {self.max_objects} objects (got {n})"
            )
        costs = database.costs
        objective = self._make_objective(database)

        best_set: Tuple[int, ...] = ()
        best_value = objective([])
        for r in range(1, n + 1):
            for combo in itertools.combinations(range(n), r):
                if costs[list(combo)].sum() > budget + 1e-9:
                    continue
                value = objective(list(combo))
                if value < best_value - 1e-12:
                    best_value = value
                    best_set = combo
        return list(best_set)

    def select(self, database: UncertainDatabase, budget: float) -> CleaningPlan:
        """The selection wrapped in a :class:`CleaningPlan` (records the objective)."""
        indices = self.select_indices(database, budget)
        objective = self._make_objective(database)
        return CleaningPlan.from_indices(
            database, indices, objective_value=objective(indices), algorithm=self.name
        )


def bicriteria_unit_cost(
    database: UncertainDatabase,
    ev: EVFunction,
    budget: float,
    alpha: float = 0.5,
) -> List[int]:
    """Bi-criteria greedy for unit cleaning costs (end of Section 3.3).

    Greedily cleans the object with the largest marginal EV reduction until
    either the relaxed budget ``budget / (1 - alpha)`` is reached or the
    expected variance has dropped to an ``alpha`` fraction of its initial
    value.  Returns the selected indices; the caller decides whether the
    budget overshoot is acceptable.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    costs = database.costs
    if not np.allclose(costs, costs[0]):
        raise ValueError("the bi-criteria variant assumes unit (equal) cleaning costs")

    relaxed_budget = budget / (1.0 - alpha)
    baseline = ev([])
    target = baseline / max(1.0 / alpha, 1.0)

    n = len(database)
    selected: List[int] = []
    spent = 0.0
    current_value = baseline
    while current_value > target + 1e-12:
        candidates = [
            i for i in range(n) if i not in selected and spent + costs[i] <= relaxed_budget + 1e-9
        ]
        if not candidates:
            break
        gains = {i: current_value - ev(selected + [i]) for i in candidates}
        best = max(candidates, key=lambda i: gains[i])
        if gains[best] <= 1e-15:
            break
        selected.append(best)
        spent += costs[best]
        current_value -= gains[best]
    return selected
