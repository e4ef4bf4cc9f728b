"""Knapsack solvers used by the modular-objective algorithms (Section 3.2).

With a modularizable objective, MinVar / MaxPr reduce to 0/1 knapsack
problems: maximize the total item value ``sum_{i in T} w_i`` subject to
``sum_{i in T} c_i <= C`` (maximum knapsack), or equivalently pick the
complement that minimizes the value left behind (minimum / covering
knapsack).  This module provides:

* :func:`solve_knapsack_dp` — exact pseudo-polynomial dynamic program
  (Lemmas 3.2 and 3.3's "optimal solution in O(nC)").
* :func:`solve_knapsack_fptas` — the classical value-scaling FPTAS
  ((1 - eps)-approximation in O(n^3 / eps)).
* :func:`solve_knapsack_greedy` — density-ordered greedy with the single-item
  safeguard of Algorithm 1 (a 2-approximation).
* :func:`solve_min_knapsack_dp` — the covering variant: minimize the value of
  the chosen set subject to its cost reaching a lower bound (used by the
  iterated-bound submodular algorithm).

Costs may be arbitrary positive reals; the DP discretizes them on a fixed
resolution grid, which keeps it exact for integer costs and an arbitrarily
fine approximation otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "KnapsackSolution",
    "solve_knapsack_dp",
    "solve_knapsack_fptas",
    "solve_knapsack_greedy",
    "solve_min_knapsack_dp",
]


@dataclass(frozen=True)
class KnapsackSolution:
    """Selected item indices, their total value and total cost."""

    selected: Tuple[int, ...]
    total_value: float
    total_cost: float


def _validate(values: Sequence[float], costs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if values.shape != costs.shape:
        raise ValueError("values and costs must have the same length")
    if np.any(costs <= 0):
        raise ValueError("all costs must be positive")
    if np.any(values < 0):
        raise ValueError("all values must be nonnegative")
    return values, costs


def _discretize_costs(costs: np.ndarray, budget: float, resolution: int) -> Tuple[np.ndarray, int]:
    """Scale costs to integers on a grid of about ``resolution`` budget steps.

    Costs are rounded *up* and the budget *down*, so every feasible solution of
    the discretized problem is feasible in the original one.  Integer costs
    are kept as they are only when they are integers exactly: a tolerance
    test would round a cost like 100.0004 *down* and admit over-budget plans.
    """
    if budget <= 0:
        return np.full(costs.shape, 1, dtype=int), 0
    if np.array_equal(costs, np.floor(costs)) and float(np.round(budget)) <= resolution:
        return costs.astype(int), int(math.floor(budget + 1e-9))
    scale = resolution / budget
    scaled_costs = np.ceil(costs * scale - 1e-9).astype(int)
    scaled_costs = np.maximum(scaled_costs, 1)
    return scaled_costs, int(math.floor(budget * scale + 1e-9))


def solve_knapsack_dp(
    values: Sequence[float],
    costs: Sequence[float],
    budget: float,
    resolution: int = 2000,
) -> KnapsackSolution:
    """Exact 0/1 maximum knapsack via dynamic programming over cost.

    ``resolution`` bounds the size of the cost grid for non-integer costs;
    integer costs within the resolution are handled exactly.  Each item
    updates the whole capacity row with numpy rolling arrays (one shifted
    add, one comparison, one where).
    """
    values, costs = _validate(values, costs)
    n = values.size
    if n == 0 or budget <= 0:
        return KnapsackSolution((), 0.0, 0.0)

    int_costs, capacity = _discretize_costs(costs, budget, resolution)
    if capacity <= 0:
        return KnapsackSolution((), 0.0, 0.0)

    # best[c] = best value achievable with discretized cost exactly <= c
    best = np.zeros(capacity + 1, dtype=float)
    choice = np.zeros((n, capacity + 1), dtype=bool)
    for i in range(n):
        cost_i = int_costs[i]
        if cost_i > capacity:
            continue
        # The shifted slice reads the pre-item row (a snapshot), so each item
        # is used at most once.
        candidate = best[: capacity - cost_i + 1] + values[i]
        improved = candidate > best[cost_i:] + 1e-15
        choice[i, cost_i:] = improved
        best[cost_i:] = np.where(improved, candidate, best[cost_i:])

    # Trace back the selected set from the full-capacity cell.
    selected: List[int] = []
    remaining = capacity
    for i in range(n - 1, -1, -1):
        if remaining >= int_costs[i] and choice[i, remaining]:
            selected.append(i)
            remaining -= int_costs[i]
    selected.reverse()

    total_cost = float(costs[selected].sum()) if selected else 0.0
    total_value = float(values[selected].sum()) if selected else 0.0
    return KnapsackSolution(tuple(selected), total_value, total_cost)


def solve_knapsack_fptas(
    values: Sequence[float],
    costs: Sequence[float],
    budget: float,
    epsilon: float = 0.1,
) -> KnapsackSolution:
    """(1 - epsilon)-approximate maximum knapsack via value scaling.

    Classical FPTAS: scale values so the largest becomes ``n / epsilon``, run
    the value-indexed dynamic program, and map back.  Runs in ``O(n^3 / eps)``.
    Each item updates the whole scaled-value row with numpy rolling arrays
    and records its improved positions as a packed bitset (``value_cap / 8``
    bytes per item — improvement sets are dense in practice, where index
    arrays or per-item dicts balloon).
    """
    if epsilon <= 0 or epsilon >= 1:
        raise ValueError("epsilon must be in (0, 1)")
    values, costs = _validate(values, costs)
    n = values.size
    if n == 0 or budget <= 0:
        return KnapsackSolution((), 0.0, 0.0)

    feasible = costs <= budget + 1e-12
    max_value = float(values[feasible].max()) if np.any(feasible) else 0.0
    if max_value <= 0:
        return KnapsackSolution((), 0.0, 0.0)

    scale = (n / epsilon) / max_value
    scaled = np.floor(values * scale).astype(int)
    value_cap = int(scaled[feasible].sum())

    INF = float("inf")
    # min_cost[v] = minimum cost achieving scaled value exactly v
    min_cost = np.full(value_cap + 1, INF)
    min_cost[0] = 0.0
    improved_bits: List[Optional[np.ndarray]] = [None] * n
    bit_offsets = np.zeros(n, dtype=np.intp)
    for i in range(n):
        if not feasible[i] or scaled[i] <= 0:
            continue
        vi, ci = int(scaled[i]), float(costs[i])
        # As in the cost DP: the shifted slice is the pre-item row (each
        # item used once).
        candidate = min_cost[: value_cap + 1 - vi] + ci
        improved = candidate < min_cost[vi:] - 1e-15
        improved_bits[i] = np.packbits(improved)
        bit_offsets[i] = vi
        min_cost[vi:] = np.where(improved, candidate, min_cost[vi:])

    def took(item: int, v: int) -> bool:
        bits = improved_bits[item]
        if bits is None:
            return False
        position = v - int(bit_offsets[item])
        if position < 0:
            return False
        # packbits is MSB-first within each byte.
        return bool((int(bits[position >> 3]) >> (7 - (position & 7))) & 1)

    best_v = 0
    reachable = np.flatnonzero(min_cost <= budget + 1e-9)
    if reachable.size:
        best_v = int(reachable[-1])

    # Reconstruct greedily: walk items in reverse, keeping a consistent chain.
    selected: List[int] = []
    v = best_v
    for i in range(n - 1, -1, -1):
        if v <= 0:
            break
        if took(i, v):
            selected.append(i)
            v -= int(scaled[i])
    selected.reverse()
    # The reconstruction above is heuristic for ties; recompute exact totals.
    total_cost = float(costs[selected].sum()) if selected else 0.0
    if total_cost > budget + 1e-9:
        # Fall back to a safe reconstruction via the DP solution value only.
        greedy = solve_knapsack_greedy(values, costs, budget)
        return greedy
    total_value = float(values[selected].sum()) if selected else 0.0
    return KnapsackSolution(tuple(selected), total_value, total_cost)


def solve_knapsack_greedy(
    values: Sequence[float],
    costs: Sequence[float],
    budget: float,
) -> KnapsackSolution:
    """Density-ordered greedy with the Algorithm-1 single-item safeguard.

    Items are taken in decreasing value/cost order while they fit; at the end,
    if the single best remaining feasible item beats the whole greedy set, it
    is taken instead.  This is the classical 2-approximation.
    """
    values, costs = _validate(values, costs)
    n = values.size
    if n == 0 or budget <= 0:
        return KnapsackSolution((), 0.0, 0.0)

    order = sorted(range(n), key=lambda i: (-(values[i] / costs[i]), costs[i]))
    selected: List[int] = []
    spent = 0.0
    for i in order:
        if values[i] <= 0:
            continue
        if spent + costs[i] <= budget + 1e-9:
            selected.append(i)
            spent += costs[i]

    chosen_value = float(values[selected].sum()) if selected else 0.0
    remaining = [i for i in range(n) if i not in set(selected) and costs[i] <= budget + 1e-9]
    if remaining:
        best_single = max(remaining, key=lambda i: values[i])
        if values[best_single] > chosen_value:
            return KnapsackSolution(
                (best_single,), float(values[best_single]), float(costs[best_single])
            )
    return KnapsackSolution(tuple(sorted(selected)), chosen_value, spent)


def solve_min_knapsack_dp(
    values: Sequence[float],
    costs: Sequence[float],
    cost_lower_bound: float,
    resolution: int = 2000,
) -> KnapsackSolution:
    """Covering knapsack: minimize total value subject to total cost >= bound.

    Solved by complementation: choosing the set ``Y`` with ``cost(Y) >= bound``
    minimizing ``value(Y)`` is the same as choosing its complement ``Z`` with
    ``cost(Z) <= total_cost - bound`` maximizing ``value(Z)``.
    """
    values, costs = _validate(values, costs)
    total_cost = float(costs.sum())
    complement_budget = total_cost - cost_lower_bound
    if complement_budget < -1e-9:
        raise ValueError("cost lower bound exceeds the total cost of all items")
    complement_budget = max(complement_budget, 0.0)

    complement = solve_knapsack_dp(values, costs, complement_budget, resolution=resolution)
    complement_set = set(complement.selected)
    selected = tuple(i for i in range(values.size) if i not in complement_set)
    total_value = float(values[list(selected)].sum()) if selected else 0.0
    selected_cost = float(costs[list(selected)].sum()) if selected else 0.0
    return KnapsackSolution(selected, total_value, selected_cost)
