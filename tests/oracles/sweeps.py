"""The budget sweep as one independent solve per budget.

The sweep engine reads every checkpoint back from one anytime trace run at
the largest budget; this loop instead calls ``select_indices`` afresh at
each budget, which is what the traced sweep must reproduce exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.core.problems import budget_from_fraction
from repro.uncertainty.database import UncertainDatabase

__all__ = ["per_budget_sweep"]


def per_budget_sweep(
    database: UncertainDatabase,
    algorithms: Mapping[str, object],
    evaluate: Callable[[Sequence[int]], float],
    budget_fractions: Sequence[float],
) -> Tuple[Dict[str, List[float]], Dict[str, List[tuple]]]:
    """``(series, selections)`` keyed like ``SweepResult``, one solve per budget."""
    series: Dict[str, List[float]] = {}
    selections: Dict[str, List[tuple]] = {}
    for name, algorithm in algorithms.items():
        series[name], selections[name] = [], []
        for fraction in budget_fractions:
            budget = budget_from_fraction(database, float(fraction))
            selected = tuple(algorithm.select_indices(database, budget))
            series[name].append(float(evaluate(selected)))
            selections[name].append(selected)
    return series, selections
