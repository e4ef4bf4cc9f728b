"""Partial cleaning (the paper's Section 6 future-work direction).

The base model assumes cleaning an object reveals its exact true value.  In
practice a cleaning action often only *reduces* uncertainty — a second source
narrows the error bar without eliminating it.  This module models that:

* :func:`shrink_distribution` — the post-cleaning distribution of a value
  whose uncertainty is shrunk by a factor ``rho`` around a revealed estimate
  (``rho = 0`` recovers full cleaning, ``rho = 1`` means cleaning is useless);
* :func:`partially_cleaned` — apply the shrink to a subset of a database;
* :func:`partial_linear_expected_variance` — the closed-form MinVar objective
  for affine query functions under partial cleaning with uncorrelated errors:
  cleaned objects keep ``rho**2`` of their variance;
* :class:`GreedyPartialMinVar` — the Algorithm-1 greedy with per-object
  shrink factors (objects whose cleaning procedure is more reliable are more
  attractive, all else equal).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.core.greedy import modular_walk
from repro.core.problems import CleaningPlan
from repro.core.solver import ResumableSolver, SelectionStep, register_solver
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution, NormalSpec
from repro.uncertainty.objects import UncertainObject

__all__ = [
    "shrink_distribution",
    "partially_cleaned",
    "partial_linear_expected_variance",
    "GreedyPartialMinVar",
]


def shrink_distribution(
    obj: UncertainObject, revealed_estimate: float, rho: float
) -> UncertainObject:
    """Object after a partial cleaning that centers on ``revealed_estimate``.

    The residual distribution keeps the shape of the original error model but
    its spread around the new estimate is scaled by ``rho``; its variance is
    therefore ``rho**2`` times the original variance.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    if rho == 0.0:
        return obj.cleaned(revealed_estimate)

    distribution = obj.distribution
    if isinstance(distribution, NormalSpec):
        shrunk: Union[NormalSpec, DiscreteDistribution] = NormalSpec(
            mean=float(revealed_estimate), std=distribution.std * rho
        )
    else:
        centered = distribution.values - distribution.mean
        shrunk = DiscreteDistribution(
            revealed_estimate + rho * centered, distribution.probabilities
        )
    return UncertainObject(
        name=obj.name,
        current_value=float(revealed_estimate),
        distribution=shrunk,
        cost=obj.cost,
        label=obj.label,
    )


def partially_cleaned(
    database: UncertainDatabase,
    revealed: Mapping[int, float],
    rho: Union[float, Mapping[int, float]] = 0.0,
) -> UncertainDatabase:
    """Database after partially cleaning the objects in ``revealed``.

    ``rho`` is either a single residual factor for every cleaned object or a
    per-object mapping.
    """
    objects: List[UncertainObject] = []
    for i, obj in enumerate(database):
        if i in revealed:
            factor = rho[i] if isinstance(rho, Mapping) else rho
            objects.append(shrink_distribution(obj, revealed[i], float(factor)))
        else:
            objects.append(obj)
    return UncertainDatabase(objects)


def partial_linear_expected_variance(
    database: UncertainDatabase,
    weights: Sequence[float],
    cleaned: Iterable[int],
    rho: Union[float, Mapping[int, float]] = 0.0,
) -> float:
    """Expected variance of an affine query function under partial cleaning.

    With uncorrelated errors, a cleaned object contributes
    ``rho_i**2 * w_i**2 * Var[X_i]`` instead of dropping out entirely, so the
    objective stays modular and everything in Section 3.2 carries over with
    re-weighted benefits ``(1 - rho_i**2) * w_i**2 * Var[X_i]``.
    """
    weights = np.asarray(weights, dtype=float)
    variances = database.variances
    cleaned_set = set(int(i) for i in cleaned)
    total = 0.0
    for i in range(len(database)):
        contribution = (weights[i] ** 2) * variances[i]
        if i in cleaned_set:
            factor = rho[i] if isinstance(rho, Mapping) else rho
            if not 0.0 <= float(factor) <= 1.0:
                raise ValueError("rho must be in [0, 1]")
            contribution *= float(factor) ** 2
        total += contribution
    return float(total)


@register_solver
class GreedyPartialMinVar(ResumableSolver):
    """Algorithm-1 greedy for MinVar when cleaning only shrinks uncertainty.

    The benefit of cleaning object ``i`` is the variance it *removes*,
    ``(1 - rho_i**2) * w_i**2 * Var[X_i]`` — which is still modular, so the
    static density order plus the single-item safeguard is a 2-approximation
    exactly as in the full-cleaning case.
    """

    name = "GreedyPartialMinVar"

    def __init__(
        self,
        function: ClaimFunction,
        rho: Union[float, Mapping[int, float]] = 0.0,
    ):
        if not function.is_linear():
            raise TypeError("GreedyPartialMinVar requires a linear query function")
        self.function = function
        self.rho = rho

    def _residual_factor(self, index: int) -> float:
        factor = self.rho[index] if isinstance(self.rho, Mapping) else self.rho
        factor = float(factor)
        if not 0.0 <= factor <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        return factor

    def _run(
        self,
        database: UncertainDatabase,
        budget: float,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        weights = self.function.weights(len(database))
        variances = database.variances
        removable = np.array(
            [
                (1.0 - self._residual_factor(i) ** 2) * (weights[i] ** 2) * variances[i]
                for i in range(len(database))
            ]
        )
        return modular_walk(
            database,
            budget,
            removable,
            initial_selection=initial_selection,
            record_steps=record_steps,
        )

    def select(self, database: UncertainDatabase, budget: float) -> CleaningPlan:
        """The selection wrapped in a :class:`CleaningPlan`."""
        indices = self.select_indices(database, budget)
        weights = self.function.weights(len(database))
        objective = partial_linear_expected_variance(database, weights, indices, self.rho)
        return CleaningPlan.from_indices(
            database, indices, objective_value=objective, algorithm=self.name
        )
