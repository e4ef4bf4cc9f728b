"""The budget-sweep engine: every algorithm across a range of budgets.

This is the engine behind most of the paper's figures, which all share the
same x-axis (budget as a fraction of the total cleaning cost) and differ only
in the workload and the objective reported on the y-axis.

Engine strategy
---------------
Each algorithm is swept independently, in the calling process:

* **Incremental solvers** (``supports_trace``) are run *once*, at the largest
  requested budget, recording an anytime
  :class:`~repro.core.solver.SelectionTrace`; every budget checkpoint is then
  read back from the trace.  The read-back is exact — it resumes the solver's
  own loop from the recorded prefix (see :mod:`repro.core.solver`) — so the
  sweep result is identical to per-budget re-runs while costing one run plus
  a few boundary rounds per checkpoint.  This turns the Figure 1/2/3/6/7
  sweeps from O(budgets x greedy-run) into O(one greedy run) per algorithm.
* **Non-incremental solvers** (knapsack optimum, iterated submodular bounds,
  exhaustive OPT) keep the per-budget solve, exactly as before.

A sweep is always serial.  Parallelism lives one level up: the scenario
matrix (:mod:`repro.experiments.matrix`) shards whole workloads across its
process pool, and each shard runs its sweeps with this engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.expected_variance import linear_expected_variance
from repro.core.problems import budget_from_fraction
from repro.core.solver import TraceNotSupported
from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "SweepResult",
    "run_budget_sweep",
    "sweep_algorithm",
    "LinearVarianceObjective",
    "DEFAULT_BUDGET_FRACTIONS",
]

DEFAULT_BUDGET_FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)


@dataclass
class SweepResult:
    """Objective values per algorithm per budget fraction.

    ``series[algorithm]`` is a list aligned with ``budget_fractions``; each
    entry is the objective value achieved by that algorithm's selection at
    that budget.  ``selections`` records the selected index tuples, which the
    "in action" experiments reuse.
    """

    budget_fractions: List[float]
    series: Dict[str, List[float]]
    selections: Dict[str, List[tuple]] = field(default_factory=dict)
    description: str = ""

    def as_rows(self) -> List[dict]:
        """Tidy rows (one per algorithm x budget) for reporting/benchmarks."""
        rows = []
        for algorithm, values in self.series.items():
            for fraction, value in zip(self.budget_fractions, values):
                rows.append(
                    {
                        "algorithm": algorithm,
                        "budget_fraction": fraction,
                        "objective": value,
                    }
                )
        return rows

    def best_algorithm_at(
        self, fraction: float, lower_is_better: bool = True, tolerance: float = 1e-6
    ) -> str:
        """Name of the algorithm with the best objective at the given fraction.

        The fraction is matched against the swept ``budget_fractions`` with a
        tolerance (floating-point budget grids rarely survive exact ``==``);
        a fraction not within ``tolerance`` of any swept value raises a
        ``ValueError`` naming the available fractions.
        """
        if not self.budget_fractions:
            raise ValueError("this sweep has no budget fractions")
        deltas = [abs(f - fraction) for f in self.budget_fractions]
        index = min(range(len(deltas)), key=deltas.__getitem__)
        if deltas[index] > tolerance:
            raise ValueError(
                f"no swept budget fraction within {tolerance:g} of {fraction:g}; "
                f"available fractions: {self.budget_fractions}"
            )
        chooser = min if lower_is_better else max
        return chooser(self.series, key=lambda name: self.series[name][index])


class LinearVarianceObjective:
    """Sweep objective: remaining linear EV on a fixed database.

    A callable class rather than a closure, so the scenario matrix and the
    figure harnesses share one objective for linear query functions.
    """

    def __init__(self, database: UncertainDatabase, weights: Sequence[float]):
        self.database = database
        self.weights = np.asarray(weights, dtype=float)

    def __call__(self, selected: Sequence[int]) -> float:
        return linear_expected_variance(self.database, self.weights, selected)


def sweep_algorithm(
    database: UncertainDatabase,
    algorithm,
    fractions: Sequence[float],
    evaluate: Callable[[Sequence[int]], float],
) -> Tuple[List[float], List[tuple]]:
    """Sweep one algorithm over the budget fractions.

    Returns the objective values and selections aligned with ``fractions``.
    This is the single place the trace-vs-per-budget decision is made.
    """
    fractions = [float(f) for f in fractions]
    budgets = [budget_from_fraction(database, fraction) for fraction in fractions]

    trace = None
    # ``sweep_with_trace`` lets a solver that *can* trace opt out of the
    # engine's automatic trace path: RandomSelector uses it to keep the
    # legacy per-budget semantics (an independent permutation per budget)
    # rather than freezing one permutation across the sweep.
    if (
        budgets
        and getattr(algorithm, "supports_trace", False)
        and getattr(algorithm, "sweep_with_trace", True)
    ):
        try:
            trace = algorithm.trace(database, max(budgets))
        except TraceNotSupported:
            trace = None

    values: List[float] = []
    selections: List[tuple] = []
    for budget in budgets:
        if trace is not None:
            selected = tuple(trace.indices_at(budget))
        else:
            selected = tuple(algorithm.select_indices(database, budget))
        values.append(float(evaluate(selected)))
        selections.append(selected)
    return values, selections


def run_budget_sweep(
    database: UncertainDatabase,
    algorithms: Mapping[str, object],
    evaluate: Callable[[Sequence[int]], float],
    budget_fractions: Sequence[float] = DEFAULT_BUDGET_FRACTIONS,
    description: str = "",
) -> SweepResult:
    """Run each algorithm across each budget and evaluate its selection.

    ``algorithms`` maps a display name to an object with a
    ``select_indices(database, budget)`` method (all selection algorithms in
    :mod:`repro.core` provide it).  ``evaluate`` maps a selection to the
    objective value reported on the y-axis — typically the expected variance
    that remains, or the probability of finding a counter.

    Incremental solvers are traced once at the largest budget and sliced per
    checkpoint; others run per budget (see the module docstring).
    """
    fractions = [float(f) for f in budget_fractions]
    series: Dict[str, List[float]] = {}
    selections: Dict[str, List[tuple]] = {}
    for name, algorithm in algorithms.items():
        series[name], selections[name] = sweep_algorithm(
            database, algorithm, fractions, evaluate
        )
    return SweepResult(
        budget_fractions=fractions,
        series=series,
        selections=selections,
        description=description,
    )
