"""The Solver protocol, anytime selection traces, and the solver registry.

Every selection algorithm in :mod:`repro.core` is a :class:`Solver`: an object
with a ``name``, a ``select_indices(database, budget)`` primitive, and the
derived ``select`` / ``solve`` entry points that wrap the selection in a
:class:`~repro.core.problems.CleaningPlan`.

*Incremental* solvers — the greedy family, whose selection at a smaller budget
is a prefix of the same run — additionally expose
``trace(database, max_budget)``: a single full run recorded as a
:class:`SelectionTrace`, an ordered list of ``(index, cost, marginal gain)``
steps from which the plan at *any* budget ``<= max_budget`` can be read back
without re-running the algorithm.  This is what turns a budget sweep from
O(budgets x greedy-run) into O(one greedy run): the sweep engine
(:func:`repro.experiments.sweeps.run_budget_sweep`) traces each incremental
algorithm once at the largest budget and slices checkpoints.

Exactness
---------
``trace(db, B_max).indices_at(B)`` is guaranteed to equal a from-scratch
``select_indices(db, B)`` for every ``B <= B_max``.  The argument: along the
shared prefix, the scratch run at the smaller budget sees a *subset* of the
trace run's affordable candidates, and the trace's pick — being affordable at
``B`` — is still the (first) argmax of that subset, so both runs make
identical picks until the first trace step that no longer fits.  From that
point on the runs can genuinely diverge (the scratch run may substitute
cheaper objects), so the trace does not guess: it *resumes* the solver's own
selection loop from the prefix state via the ``resume`` callback the solver
installed when it built the trace.  The resumed loop is warm — selection
caches (memoized EV terms, set probabilities) were populated by the trace run
— so the continuation costs a handful of rounds near the budget boundary, not
a full re-run.

Registry
--------
:func:`register_solver` records solver classes by name so sweep engines,
benchmarks and CLIs can enumerate or look them up without importing each
module by hand::

    @register_solver
    class MySolver(Solver):
        name = "MySolver"
        ...

    get_solver("MySolver")  # -> MySolver class
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.problems import CleaningPlan, check_budget
from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "Solver",
    "ResumableSolver",
    "SelectionStep",
    "SelectionTrace",
    "TraceNotSupported",
    "register_solver",
    "get_solver",
    "available_solvers",
]

# Budget-feasibility slack shared with the greedy loops.
_BUDGET_EPS = 1e-9


class TraceNotSupported(NotImplementedError):
    """Raised when ``trace`` is called on a solver without incremental structure."""


@dataclass(frozen=True)
class SelectionStep:
    """One pick of an incremental run: which object, at what cost, for what gain.

    ``gain`` is the marginal benefit the solver attributed to the pick *at
    selection time* (conditioned on everything selected before it) — for
    MinVar greedy the expected-variance reduction, for MaxPr the increase in
    the counterargument probability, for the static baselines the static
    benefit.  ``remaining_budget`` is what was left of the run's budget
    *after* paying for this pick; solvers that predate the field (or
    hand-built steps) may leave it ``None``.
    """

    index: int
    cost: float
    gain: float
    remaining_budget: Optional[float] = None

    @property
    def marginal_gain(self) -> float:
        """Alias for ``gain`` under the paper's name for the quantity."""
        return self.gain


# resume(prefix_indices, budget) -> the full selection at `budget`, continuing
# the solver's own loop from the prefix state (safeguards included).
ResumeFunction = Callable[[List[int], float], List[int]]


class SelectionTrace:
    """An anytime record of one incremental run up to ``max_budget``.

    ``steps`` is the ordered pick sequence; ``indices_at(budget)`` reads the
    affordable prefix and hands it to the solver's ``resume`` hook, which
    finishes the selection exactly as a from-scratch run at that budget would
    (including budget-boundary substitutions and the Algorithm-1 single-item
    safeguard).  See the module docstring for why the combination is exact.
    """

    def __init__(
        self,
        algorithm: str,
        max_budget: float,
        steps: Sequence[SelectionStep],
        database: UncertainDatabase,
        resume: ResumeFunction,
    ):
        self.algorithm = algorithm
        self.max_budget = float(max_budget)
        self.steps: Tuple[SelectionStep, ...] = tuple(steps)
        self.database = database
        self._resume = resume

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def total_cost(self) -> float:
        """Cost of the full recorded selection (at ``max_budget``)."""
        return float(sum(step.cost for step in self.steps))

    def prefix_at(self, budget: float) -> Tuple[List[int], float]:
        """Longest step prefix affordable at ``budget`` and its total cost.

        The walk stops at the *first* step that does not fit — later, cheaper
        steps are not skipped into the prefix, because the from-scratch run
        would have re-scored candidates at that point (that is exactly what
        ``resume`` does).
        """
        prefix: List[int] = []
        spent = 0.0
        for step in self.steps:
            if spent + step.cost <= budget + _BUDGET_EPS:
                prefix.append(step.index)
                spent += step.cost
            else:
                break
        return prefix, spent

    def indices_at(self, budget: float) -> List[int]:
        """The selection a from-scratch run at ``budget`` would produce."""
        check_budget(budget)
        if budget > self.max_budget + _BUDGET_EPS:
            raise ValueError(
                f"budget {budget:g} exceeds the trace's max budget {self.max_budget:g}; "
                "re-trace at a larger budget"
            )
        prefix, _spent = self.prefix_at(budget)
        return self._resume(prefix, float(budget))

    def plan_at(self, budget: float, objective_value: Optional[float] = None) -> CleaningPlan:
        """The :class:`CleaningPlan` at ``budget``, read from the trace.

        Raises ``ValueError`` when ``budget`` is below the first recorded
        step's cost: an empty plan there is ambiguous (is the budget too
        small, or was nothing worth cleaning?), so the caller must say which
        they mean by querying :meth:`indices_at` / :meth:`prefix_at` directly
        if an empty prefix is acceptable.
        """
        if self.steps and budget + _BUDGET_EPS < self.steps[0].cost:
            raise ValueError(
                f"budget {budget:g} is below the first step's cost "
                f"{self.steps[0].cost:g}; use indices_at/prefix_at if an "
                "empty selection is acceptable"
            )
        return CleaningPlan.from_indices(
            self.database,
            self.indices_at(budget),
            objective_value=objective_value,
            algorithm=self.algorithm,
        )

    def as_rows(self) -> List[dict]:
        """Tidy per-step rows (order, index, cost, gain, cumulative cost)."""
        rows = []
        cumulative = 0.0
        for position, step in enumerate(self.steps, start=1):
            cumulative += step.cost
            rows.append(
                {
                    "algorithm": self.algorithm,
                    "position": position,
                    "index": step.index,
                    "cost": step.cost,
                    "gain": step.gain,
                    "cumulative_cost": cumulative,
                    "remaining_budget": step.remaining_budget,
                }
            )
        return rows


class Solver:
    """Base class for every selection algorithm.

    Subclasses implement :meth:`select_indices`; the base class derives
    :meth:`select` (wrap in a plan) and :meth:`solve` (accept a
    ``MinVarProblem`` / ``MaxPrProblem`` bundle).  Incremental solvers set
    ``supports_trace = True`` and implement :meth:`trace`.
    """

    name: str = "Solver"
    #: True when :meth:`trace` returns a usable :class:`SelectionTrace`.
    supports_trace: bool = False
    #: Sweep engines may trace this solver once and slice checkpoints.  A
    #: solver whose per-budget runs are intentionally independent (e.g. a
    #: randomized baseline drawing a fresh permutation per call) sets this
    #: False to keep per-budget semantics in sweeps while still offering an
    #: explicit :meth:`trace`.
    sweep_with_trace: bool = True

    def select_indices(self, database: UncertainDatabase, budget: float) -> List[int]:
        """Indices of the objects to clean within ``budget`` (the core primitive)."""
        raise NotImplementedError

    def select(self, database: UncertainDatabase, budget: float) -> CleaningPlan:
        """The selection wrapped in a :class:`CleaningPlan` (records cost and algorithm)."""
        indices = self.select_indices(database, budget)
        return CleaningPlan.from_indices(database, indices, algorithm=self.name)

    def solve(self, problem) -> CleaningPlan:
        """Solve a problem bundle (anything with ``database`` and ``budget``)."""
        return self.select(problem.database, problem.budget)

    def trace(self, database: UncertainDatabase, max_budget: float) -> SelectionTrace:
        """Record one run at ``max_budget`` as an anytime :class:`SelectionTrace`."""
        raise TraceNotSupported(
            f"{self.name} is not an incremental solver; run select_indices per budget"
        )


class ResumableSolver(Solver):
    """Base for solvers whose selection loop can be warm-started.

    Concrete solvers implement ``_run(database, budget, initial_selection,
    record_steps)``: a from-scratch selection when called bare, a resumed one
    when given a previously recorded prefix.  ``select_indices`` and
    ``trace`` are derived from those two calls, which is what makes the
    anytime-trace guarantee hold by construction — the resume path *is* the
    solver's own loop.  Both refuse a NaN or negative budget with
    ``ValueError``.
    """

    supports_trace = True

    def _run(
        self,
        database: UncertainDatabase,
        budget: float,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        raise NotImplementedError

    def select_indices(self, database: UncertainDatabase, budget: float) -> List[int]:
        """A from-scratch run of the solver's loop at the given budget."""
        check_budget(budget)
        return self._run(database, budget)

    def trace(self, database: UncertainDatabase, max_budget: float) -> SelectionTrace:
        check_budget(max_budget)
        steps: List[SelectionStep] = []
        self._run(database, max_budget, record_steps=steps)

        def resume(prefix: List[int], budget: float) -> List[int]:
            return self._run(database, budget, initial_selection=prefix)

        return SelectionTrace(self.name, max_budget, steps, database, resume)


# --------------------------------------------------------------------------- #
# Solver registry
# --------------------------------------------------------------------------- #
_SOLVER_REGISTRY: Dict[str, Type[Solver]] = {}


def register_solver(cls: Optional[Type] = None, *, name: Optional[str] = None):
    """Class decorator adding a solver class to the global registry.

    The registry key defaults to the class's ``name`` attribute.  Re-registering
    a key overwrites it (supports reloading in notebooks).
    """

    def _register(solver_cls: Type) -> Type:
        key = name if name is not None else getattr(solver_cls, "name", solver_cls.__name__)
        _SOLVER_REGISTRY[str(key)] = solver_cls
        return solver_cls

    if cls is None:
        return _register
    return _register(cls)


def get_solver(name: str) -> Type[Solver]:
    """Look up a registered solver class by name."""
    try:
        return _SOLVER_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_SOLVER_REGISTRY))
        raise KeyError(f"no solver registered under {name!r}; known solvers: {known}") from None


def available_solvers() -> Dict[str, Type[Solver]]:
    """Registered solver classes, keyed by name (insertion order preserved)."""
    return dict(_SOLVER_REGISTRY)
