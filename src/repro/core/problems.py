"""Problem definitions: MinVar, MaxPr and the cleaning plans they produce.

A *problem* bundles everything an algorithm needs: the uncertain database, the
query function ``f``, the cost budget, and (for MaxPr) the surprise threshold
``tau``.  Algorithms return a :class:`CleaningPlan` — the ordered set of
objects selected for cleaning together with its cost and achieved objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.core.surprise import finite_tau
from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "MinVarProblem",
    "MaxPrProblem",
    "CleaningPlan",
    "budget_from_fraction",
    "check_budget",
]


def check_budget(budget: float) -> None:
    """Raise ``ValueError`` unless ``budget`` is a number >= 0.

    A NaN budget makes every affordability test false, so a greedy loop
    pruning "cost > budget" would clean every object and one testing
    "cost <= budget" none; either is silent, so NaN is refused outright.
    """
    if not budget >= 0:
        raise ValueError(f"budget must be nonnegative, got {budget!r}")


def budget_from_fraction(database: UncertainDatabase, fraction: float) -> float:
    """Budget expressed as a fraction of the total cost of cleaning everything.

    The paper's plots all use this normalization ("budget (fraction)").
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("budget fraction must be in [0, 1]")
    return float(fraction * database.total_cost)


@dataclass(frozen=True)
class CleaningPlan:
    """The outcome of a selection algorithm.

    ``selected`` is the ordered tuple of object indices chosen for cleaning
    (selection order is meaningful for greedy algorithms and for the
    "in action" experiments that reveal values one by one).
    """

    selected: Tuple[int, ...]
    cost: float
    objective_value: Optional[float] = None
    algorithm: str = ""

    def __post_init__(self):
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("a cleaning plan must not select the same object twice")
        if self.cost < -1e-12:
            raise ValueError("plan cost must be nonnegative")

    @property
    def selected_set(self) -> FrozenSet[int]:
        """The selected indices as a frozenset."""
        return frozenset(self.selected)

    def __len__(self) -> int:
        return len(self.selected)

    def __contains__(self, index: int) -> bool:
        return index in self.selected_set

    @classmethod
    def empty(cls, algorithm: str = "") -> "CleaningPlan":
        """A plan that cleans nothing."""
        return cls(selected=(), cost=0.0, objective_value=None, algorithm=algorithm)

    @classmethod
    def from_indices(
        cls,
        database: UncertainDatabase,
        indices: Sequence[int],
        objective_value: Optional[float] = None,
        algorithm: str = "",
    ) -> "CleaningPlan":
        """Build a plan from selected indices, computing the total cost."""
        indices = tuple(int(i) for i in indices)
        cost = float(sum(database[i].cost for i in indices))
        return cls(selected=indices, cost=cost, objective_value=objective_value, algorithm=algorithm)


@dataclass(frozen=True)
class MinVarProblem:
    """Choose ``T`` with ``cost(T) <= budget`` minimizing the expected variance of ``f``."""

    database: UncertainDatabase
    query_function: ClaimFunction
    budget: float

    def __post_init__(self):
        check_budget(self.budget)

    @property
    def n_objects(self) -> int:
        """Number of objects in the instance."""
        return len(self.database)

    def is_feasible(self, indices: Sequence[int]) -> bool:
        """True when cleaning the given objects stays within budget."""
        cost = sum(self.database[i].cost for i in set(indices))
        return cost <= self.budget + 1e-9

    def plan(self, indices: Sequence[int], objective_value: Optional[float] = None, algorithm: str = "") -> CleaningPlan:
        """Wrap a selection in a :class:`CleaningPlan` for this instance."""
        plan = CleaningPlan.from_indices(self.database, indices, objective_value, algorithm)
        if plan.cost > self.budget + 1e-9:
            raise ValueError(
                f"plan cost {plan.cost:g} exceeds budget {self.budget:g}"
            )
        return plan


@dataclass(frozen=True)
class MaxPrProblem:
    """Choose ``T`` within budget maximizing ``Pr[f(X) < f(u) - tau | uncleaned = u]``."""

    database: UncertainDatabase
    query_function: ClaimFunction
    budget: float
    tau: float = 0.0

    def __post_init__(self):
        check_budget(self.budget)
        if finite_tau(self.tau) < 0:
            raise ValueError("tau must be nonnegative")

    @property
    def n_objects(self) -> int:
        """Number of objects in the instance."""
        return len(self.database)

    @property
    def baseline_value(self) -> float:
        """``f(u)`` — the query function on the current values."""
        return float(self.query_function.evaluate(self.database.current_values))

    def is_feasible(self, indices: Sequence[int]) -> bool:
        """True when the indices fit the budget (with floating-point slack)."""
        cost = sum(self.database[i].cost for i in set(indices))
        return cost <= self.budget + 1e-9

    def plan(self, indices: Sequence[int], objective_value: Optional[float] = None, algorithm: str = "") -> CleaningPlan:
        """Wrap a selection in a :class:`CleaningPlan` for this instance."""
        plan = CleaningPlan.from_indices(self.database, indices, objective_value, algorithm)
        if plan.cost > self.budget + 1e-9:
            raise ValueError(
                f"plan cost {plan.cost:g} exceeds budget {self.budget:g}"
            )
        return plan
