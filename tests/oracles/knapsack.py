"""Python-loop reference dynamic programs for :mod:`repro.core.knapsack`.

The same cost discretization (or value scaling) and traceback as the
production solvers, but each item's row update walks the capacities one at
a time, in descending order so each item is used at most once.  Both make
identical improvement decisions, so the selections must agree exactly.
"""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as np

from repro.core.knapsack import (
    KnapsackSolution,
    _discretize_costs,
    _validate,
    solve_knapsack_greedy,
)

__all__ = ["solve_knapsack_dp", "solve_knapsack_fptas"]


def _solution(values: np.ndarray, costs: np.ndarray, selected: List[int]) -> KnapsackSolution:
    if not selected:
        return KnapsackSolution((), 0.0, 0.0)
    return KnapsackSolution(
        tuple(selected), float(values[selected].sum()), float(costs[selected].sum())
    )


def solve_knapsack_dp(
    values: Sequence[float], costs: Sequence[float], budget: float, resolution: int = 2000
) -> KnapsackSolution:
    """Maximum knapsack by the cost-indexed DP, one capacity at a time."""
    values, costs = _validate(values, costs)
    n = values.size
    if n == 0 or budget <= 0:
        return KnapsackSolution((), 0.0, 0.0)
    int_costs, capacity = _discretize_costs(costs, budget, resolution)
    if capacity <= 0:
        return KnapsackSolution((), 0.0, 0.0)
    best = [0.0] * (capacity + 1)
    took: List[Set[int]] = [set() for _ in range(n)]
    for i in range(n):
        cost_i = int(int_costs[i])
        for c in range(capacity, cost_i - 1, -1):
            if best[c - cost_i] + values[i] > best[c] + 1e-15:
                best[c] = best[c - cost_i] + values[i]
                took[i].add(c)
    selected: List[int] = []
    remaining = capacity
    for i in range(n - 1, -1, -1):
        if remaining >= int_costs[i] and remaining in took[i]:
            selected.append(i)
            remaining -= int(int_costs[i])
    return _solution(values, costs, selected[::-1])


def solve_knapsack_fptas(
    values: Sequence[float], costs: Sequence[float], budget: float, epsilon: float = 0.1
) -> KnapsackSolution:
    """The value-scaling FPTAS with the value-indexed DP, one value at a time."""
    values, costs = _validate(values, costs)
    n = values.size
    if n == 0 or budget <= 0:
        return KnapsackSolution((), 0.0, 0.0)
    feasible = costs <= budget + 1e-12
    max_value = float(values[feasible].max()) if np.any(feasible) else 0.0
    if max_value <= 0:
        return KnapsackSolution((), 0.0, 0.0)
    scaled = np.floor(values * ((n / epsilon) / max_value)).astype(int)
    value_cap = int(scaled[feasible].sum())
    min_cost = [float("inf")] * (value_cap + 1)
    min_cost[0] = 0.0
    took: List[Set[int]] = [set() for _ in range(n)]
    for i in range(n):
        if not feasible[i] or scaled[i] <= 0:
            continue
        vi, ci = int(scaled[i]), float(costs[i])
        for v in range(value_cap, vi - 1, -1):
            if min_cost[v - vi] + ci < min_cost[v] - 1e-15:
                min_cost[v] = min_cost[v - vi] + ci
                took[i].add(v)
    v = max(w for w in range(value_cap + 1) if min_cost[w] <= budget + 1e-9)
    selected: List[int] = []
    for i in range(n - 1, -1, -1):
        if v <= 0:
            break
        if v in took[i]:
            selected.append(i)
            v -= int(scaled[i])
    solution = _solution(values, costs, selected[::-1])
    if solution.total_cost > budget + 1e-9:
        return solve_knapsack_greedy(values, costs, budget)
    return solution
