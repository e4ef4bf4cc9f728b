"""Greedy selection algorithms (Algorithm 1 and its instantiations).

The paper's Algorithm 1 is a template parameterized by a benefit-estimation
function ``beta``: repeatedly clean the feasible object with the best
benefit-per-cost ratio, then apply a single-item safeguard that guarantees a
2-approximation for modular objectives.  The instantiations evaluated in
Section 4 are all provided here:

* :class:`RandomSelector` — uniform random order (baseline).
* :class:`GreedyNaiveCostBlind` — clean by decreasing marginal variance,
  ignoring costs.
* :class:`GreedyNaive` — clean by decreasing ``Var[X_i] / c_i`` (objective-
  blind).
* :class:`GreedyMinVar` — benefit is the actual reduction in expected
  variance ``EV(T) - EV(T ∪ {i})`` (objective-aware, adaptive).
* :class:`GreedyMaxPr` — benefit is the increase in the surprise probability.
* :class:`GreedyDep` — like GreedyMinVar but aware of a correlated
  (multivariate normal) error model (Section 4.5).

Algorithm 1 is written twice, once per kind of benefit:

* ``_greedy_loop`` — the one adaptive loop.  It runs over a *gains engine*
  that returns the current gain vector, folds in a pick, and returns
  standalone gains for the safeguard.  Four engines serve it: the Gaussian
  conditioning engines (GreedyDep), the decomposed-EV calculator, which
  re-scores only the term neighbours of a pick (Theorem 3.8, GreedyMinVar),
  the :class:`~repro.core.surprise.SurpriseEngine` (GreedyMaxPr), and a
  per-candidate adapter over a ``benefit(T, i)`` callable
  (:func:`greedy_select`: generic-EV GreedyMinVar, GreedyMinEntropy and
  GreedyMaxPr's per-set fallback).  When the engine names the gains a pick
  moved, only their ratios are patched; otherwise the ratio vector is
  rebuilt.
* :func:`modular_walk` — fixed benefits (the naive baselines, linear
  GreedyMinVar): one sorted walk.

All of them are :class:`~repro.core.solver.Solver` subclasses and support
anytime :class:`~repro.core.solver.SelectionTrace` recording: one run at the
largest budget yields the exact selection at every smaller budget (the sweep
engine's single-trace fast path).  Both loops take ``initial_selection``
(warm-start from a recorded prefix) and ``record_steps`` (log each pick).

Every step takes the best-ranked of all feasible candidates, so no variant
samples candidates or re-scores them lazily from stale upper bounds.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.core.expected_variance import DecomposedEVCalculator, make_ev_calculator
from repro.core.problems import check_budget
from repro.core.solver import (
    ResumableSolver,
    SelectionStep,
    SelectionTrace,
    register_solver,
)
from repro.core.surprise import (
    SurpriseBase,
    SurpriseEngine,
    check_surprise_options,
    finite_tau,
    make_surprise_calculator,
)
from repro.uncertainty.correlation import GaussianWorldModel
from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "greedy_select",
    "modular_walk",
    "RandomSelector",
    "GreedyNaiveCostBlind",
    "GreedyNaive",
    "GreedyMinVar",
    "GreedyMaxPr",
    "GreedyDep",
]

BenefitFunction = Callable[[Sequence[int], int], float]

#: MaxPr stops once the best-ratio gain is at most this.  A saturated
#: probability summed in another order can differ by ~1e-14, so a smaller
#: threshold could let rounding noise buy zero-value picks.
MAXPR_MIN_GAIN = 1e-12
#: Per-database cache key of GreedyMaxPr's engine arrays; the per-set path
#: keys its cache by frozenset, so the two cannot collide.
_ENGINE_BASE = "surprise_base"


def _prefix(initial_selection: Optional[Sequence[int]]) -> List[int]:
    return [int(i) for i in initial_selection] if initial_selection else []


def _safeguard(
    selected: List[int],
    costs: np.ndarray,
    budget: float,
    standalone: Callable[[np.ndarray], np.ndarray],
) -> List[int]:
    """Lines 5-8 of Algorithm 1: the best affordable single object, if it beats the selection.

    ``standalone(indices)`` returns the empty-set benefits of ``indices`` in
    order; it is asked once, for the remaining affordable objects ascending
    and then the picks in pick order.  The selection's total is a left fold
    in pick order on every path, so a tie breaks the same way everywhere.
    """
    affordable = costs <= budget + 1e-9
    affordable[selected] = False
    remaining = np.flatnonzero(affordable)
    if remaining.size == 0:
        return selected
    values = standalone(np.concatenate((remaining, np.array(selected, dtype=remaining.dtype))))
    best = int(np.argmax(values[: remaining.size]))
    if values[best] > sum(values[remaining.size :].tolist()):
        return [int(remaining[best])]
    return selected


def _greedy_loop(
    engine,
    database: UncertainDatabase,
    budget: float,
    selected: List[int],
    stop_when_no_gain: bool = False,
    apply_safeguard: bool = True,
    record_steps: Optional[List[SelectionStep]] = None,
) -> List[int]:
    """Algorithm 1 over a gains engine, warm-started from ``selected``.

    Each step prunes the candidates the remaining budget no longer affords
    (feasibility is monotone, so a mask pruned in place), takes the first
    index of the best gain/cost ratio, optionally stops once that gain is at
    most ``MAXPR_MIN_GAIN``, records the pick and hands it to the engine.
    ``selected`` is the warm-start prefix (extended in place); the engine
    must already be conditioned on it.  The engine is duck-typed:

    * ``gains(feasible)`` — the gain of every object against the current
      selection; entries outside ``feasible`` are ignored;
    * ``select(index)`` — fold in a pick and return the indices whose
      entries of the last ``gains`` array it rewrote in place, or None when
      any gain may have moved (the loop then asks ``gains`` again);
    * ``standalone(indices)`` — empty-set gains for the safeguard.

    Named moves patch only their own ratios: on the decomposed engine a
    rebuild of the whole ratio vector would add about a fifth to each step.
    """
    costs = database.costs
    feasible = np.ones(len(database), dtype=bool)
    feasible[selected] = False
    spent = float(costs[selected].sum()) if selected else 0.0
    ratios = None  # None: the next step reads every gain afresh
    while True:
        pruned = feasible & ((spent + costs) > budget + 1e-9)
        if pruned.any():
            feasible &= ~pruned
            if ratios is not None:
                ratios[pruned] = -np.inf
        if not feasible.any():
            break
        if ratios is None:
            gains = engine.gains(feasible)
            ratios = np.where(feasible, gains / costs, -np.inf)
        best = int(np.argmax(ratios))
        gain = float(gains[best])
        if stop_when_no_gain and gain <= MAXPR_MIN_GAIN:
            break
        if record_steps is not None:
            record_steps.append(
                SelectionStep(
                    best, float(costs[best]), gain, float(budget - (spent + costs[best]))
                )
            )
        selected.append(best)
        feasible[best] = False
        spent += costs[best]
        moved = engine.select(best)
        if moved is None:
            ratios = None
        else:
            ratios[best] = -np.inf
            for i in moved:
                if feasible[i]:
                    ratios[i] = gains[i] / costs[i]
    if apply_safeguard:
        return _safeguard(selected, costs, budget, engine.standalone)
    return selected


class _PerCandidateGains:
    """``benefit(T, i)`` for each feasible candidate, ascending, once per step.

    The safeguard's standalone benefits are asked in the order
    :func:`_safeguard` lists them, so a benefit that draws random numbers
    (Monte-Carlo MaxPr) draws them in a fixed order.
    """

    def __init__(self, benefit: BenefitFunction, selected: Sequence[int]):
        self.benefit = benefit
        self.selected = list(selected)

    def gains(self, feasible: np.ndarray) -> np.ndarray:
        gains = np.zeros(feasible.size)
        for i in np.flatnonzero(feasible).tolist():
            gains[i] = self.benefit(self.selected, i)
        return gains

    def select(self, index: int) -> None:
        self.selected.append(index)

    def standalone(self, indices: np.ndarray) -> np.ndarray:
        return np.array([self.benefit((), i) for i in indices.tolist()], dtype=float)


class _VectorGains:
    """An engine that keeps its gain vector and its standalone gain vector."""

    _gains: np.ndarray
    _standalone: np.ndarray

    def gains(self, feasible: np.ndarray) -> np.ndarray:
        return self._gains

    def standalone(self, indices: np.ndarray) -> np.ndarray:
        return self._standalone[indices]


class _GaussianGains(_VectorGains):
    """GreedyDep's engine: one downdate and one vectorized gains pass per pick.

    Correlations can move any candidate's gain, so every pick re-scores all
    of them.  A warm engine may already be conditioned on prefix members
    (out-of-band reveals that intersect the kept prefix), so a pick of a
    cleaned object is not downdated twice.
    """

    def __init__(self, engine, selected: Sequence[int]):
        self.engine = engine
        # Empty-set gains double as the single-item safeguard inputs.
        self._standalone = engine.gains()
        for index in selected:
            if not engine.is_cleaned(index):
                engine.condition_on(index)
        self._gains = engine.gains() if selected else self._standalone

    def select(self, index: int) -> None:
        if not self.engine.is_cleaned(index):
            self.engine.condition_on(index)
        self._gains = self.engine.gains()


class _DecomposedGains(_VectorGains):
    """Decomposed-EV gains: a pick re-scores only its term/pair neighbours.

    Adding an object to the cleaned set can only change the marginal gain
    of objects that share a perturbation term (or an interacting term pair)
    with it (Theorem 3.8).  EV's submodularity (Lemma 3.5) means gains grow
    as the selection does, so CELF-style lazy evaluation with stale upper
    bounds would *not* be exact here — this invalidation scheme is.  A warm
    start follows the same rule: it copies the standalone gains and
    re-scores only the prefix members' neighbours.  Neighbour sets are
    symmetric, so no piece of any other object's gain reads the prefix, and
    its standalone entry is the very float ``marginal_gain(prefix, i)``
    would return.
    """

    def __init__(self, calculator: DecomposedEVCalculator, selected: Sequence[int]):
        self.calculator = calculator
        # Memoized by the calculator and patched across rebased children, so
        # a warm-started streaming re-solve re-prices a handful of entries.
        self._standalone = calculator.standalone_gains()
        self.selected = frozenset(selected)
        self._gains = self._standalone.copy()  # read-only; select writes
        if selected:
            touched: set = set()
            for index in self.selected:
                touched |= calculator.neighbours(index)
            self._gains[list(self.selected)] = 0.0
            for i in sorted(touched - self.selected):
                self._gains[i] = calculator.marginal_gain(self.selected, i)

    def select(self, index: int) -> List[int]:
        calculator = self.calculator
        self.selected = selected = self.selected | {index}
        moved = [i for i in calculator.neighbours(index) if i not in selected]
        for i in moved:
            self._gains[i] = calculator.marginal_gain(selected, i)
        return moved


class _SurpriseGains(_VectorGains):
    """GreedyMaxPr's engine: every candidate scored against the prefix in one pass."""

    def __init__(self, base: SurpriseBase, tau: float, selected: Sequence[int]):
        self.engine = SurpriseEngine(base)
        self.tau = tau
        # Empty-prefix probabilities double as the single-item safeguard inputs.
        self._standalone = self._scores = self.engine.probabilities(tau)
        for index in selected:
            self.select(index)

    def gains(self, feasible: np.ndarray) -> np.ndarray:
        if self._scores is None:
            self._scores = self.engine.probabilities(self.tau)
        return self._scores - self.engine.probability(self.tau)

    def select(self, index: int) -> None:
        self.engine.condition_on(index)
        self._scores = None


def greedy_select(
    database: UncertainDatabase,
    budget: float,
    benefit: BenefitFunction,
    stop_when_no_gain: bool = False,
    apply_safeguard: bool = True,
    initial_selection: Optional[Sequence[int]] = None,
    record_steps: Optional[List[SelectionStep]] = None,
) -> List[int]:
    """The Algorithm-1 greedy over a per-candidate benefit callable.

    Every step scores each feasible candidate against the current selection
    (ascending index order, one call each), so each pick is the exact best
    ratio; ties go to the lowest index.  Benefits known up front belong in
    :func:`modular_walk` instead.

    Parameters
    ----------
    benefit:
        ``benefit(T, i)`` estimates the benefit of cleaning object ``i`` given
        the objects ``T`` already chosen.
    stop_when_no_gain:
        Stop as soon as the best-ratio candidate's benefit is at most
        ``MAXPR_MIN_GAIN`` (1e-12).  Used by GreedyMaxPr, where cleaning more
        objects can reduce the objective (Figure 12's plateau).
    apply_safeguard:
        Apply the final single-item check (lines 5--8 of Algorithm 1), on
        standalone benefits ``benefit((), i)``.
    initial_selection:
        Warm-start the loop as if these objects had already been selected (in
        this order) by an earlier identical run — the resume half of the
        anytime-trace machinery.  Because the trace prefix is exactly what a
        from-scratch run at this budget would have picked first, warm-started
        and from-scratch runs return identical selections.
    record_steps:
        When a list is supplied, every pick is appended to it as a
        :class:`~repro.core.solver.SelectionStep` (index, cost, marginal
        benefit at selection time).  The single-item safeguard is *not* part
        of the step log — it is re-applied per budget when a trace is sliced.

    A NaN or negative ``budget`` raises ``ValueError``.
    """
    check_budget(budget)
    selected = _prefix(initial_selection)
    return _greedy_loop(
        _PerCandidateGains(benefit, selected),
        database,
        budget,
        selected,
        stop_when_no_gain=stop_when_no_gain,
        apply_safeguard=apply_safeguard,
        record_steps=record_steps,
    )


def modular_walk(
    database: UncertainDatabase,
    budget: float,
    benefits: Sequence[float],
    use_cost_ratio: bool = True,
    apply_safeguard: bool = True,
    initial_selection: Optional[Sequence[int]] = None,
    record_steps: Optional[List[SelectionStep]] = None,
) -> List[int]:
    """Algorithm 1 for fixed benefits: one sorted walk.

    ``benefits[i]`` is object ``i``'s benefit, independent of the selection
    (a modular objective).  Objects are taken in decreasing ``benefit /
    cost`` order — raw benefit when ``use_cost_ratio`` is False, the
    cost-blind baseline — with ties broken by cost, then index, while they
    fit the budget.  The walk bulk-accepts affordable runs with vectorized
    cumulative sums, so it costs O(n log n) numpy work: at n = 10^6 that is
    the difference between milliseconds and minutes.  ``apply_safeguard``,
    ``initial_selection`` and ``record_steps`` are :func:`greedy_select`'s;
    the safeguard reads ``benefits``.  A NaN or negative ``budget`` raises
    ``ValueError``.
    """
    check_budget(budget)
    n = len(database)
    costs = database.costs
    static = np.asarray(benefits, dtype=float)
    if static.shape != (n,):
        raise ValueError(f"benefits must have shape ({n},), got {static.shape}")
    selected = _prefix(initial_selection)
    spent = float(costs[selected].sum()) if selected else 0.0

    def record(index: int, remaining: float) -> None:
        record_steps.append(
            SelectionStep(index, float(costs[index]), float(static[index]), float(remaining))
        )

    keys = static / costs if use_cost_ratio else static
    # lexsort is stable, so ties on (key desc, cost asc) keep index
    # order — exactly the semantics of the sorted() walk it replaces.
    order = np.lexsort((costs, -keys))
    if selected:
        keep = np.ones(n, dtype=bool)
        keep[selected] = False
        order = order[keep[order]]
    order_costs = costs[order]
    rounds = 0
    while order.size:
        rounds += 1
        if rounds > 64:
            # Pathological cost pattern (every round accepts and drops only
            # a handful of near-boundary items): finish with the reference
            # item-by-item walk over what is left, which is exactly the
            # semantics the vectorized rounds reproduce.
            for raw, cost in zip(order.tolist(), order_costs.tolist()):
                if spent + cost <= budget + 1e-9:
                    if record_steps is not None:
                        record(raw, budget - (spent + costs[raw]))
                    selected.append(raw)
                    spent += cost
            break
        # Bulk-accept the longest affordable prefix.  The cumsum is seeded
        # with the running spend so the float additions fold left-to-right
        # exactly like the item-by-item walk.
        cumulative = np.cumsum(np.concatenate(([spent], order_costs)))[1:]
        fits = cumulative <= budget + 1e-9
        stop = int(np.argmax(~fits)) if not fits.all() else int(fits.size)
        if stop:
            taken = order[:stop].tolist()
            if record_steps is not None:
                # Per-item remaining budgets come from the same cumulative
                # sums that gated the accept.
                for position, i in enumerate(taken):
                    record(i, budget - float(cumulative[position]))
            selected.extend(taken)
            spent = float(cumulative[stop - 1])
        if stop == order.size:
            break
        # Spend only grows and float addition is monotone, so any item that
        # does not fit on its own now can never fit later.  Drop that whole
        # cohort at once — including the item at ``stop``, which just
        # failed — instead of skipping failures one at a time (quadratic
        # under unit costs at large n).
        tail_costs = order_costs[stop:]
        keep = spent + tail_costs <= budget + 1e-9
        order = order[stop:][keep]
        order_costs = tail_costs[keep]

    if apply_safeguard:
        return _safeguard(selected, costs, budget, static.__getitem__)
    return selected


class _DatabaseKeyedCache:
    """Mixin: per-database memo dicts keyed by database *identity*.

    Results cached for one database can never leak into another — each
    database object owns its own dict, held weakly so dropping the database
    drops the cache.  :meth:`reset_cache` (the documented explicit reset
    point) remains as a compatible alias that empties everything.
    """

    def _init_caches(self) -> None:
        self._caches: "weakref.WeakKeyDictionary[UncertainDatabase, dict]" = (
            weakref.WeakKeyDictionary()
        )

    def _cache_for(self, database: UncertainDatabase) -> dict:
        cache = self._caches.get(database)
        if cache is None:
            cache = {}
            self._caches[database] = cache
        return cache

    def reset_cache(self) -> None:
        """Drop every per-database cache (kept for API compatibility)."""
        self._init_caches()


@register_solver
class RandomSelector(ResumableSolver):
    """Clean objects in uniformly random order until the budget is exhausted.

    ``sweep_with_trace`` is False: in a budget sweep each budget draws an
    independent permutation (the legacy averaging semantics), while an
    explicit :meth:`trace` freezes one permutation and slices it anytime.
    """

    name = "Random"
    sweep_with_trace = False

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def _walk(
        self,
        order: Sequence[int],
        costs: np.ndarray,
        budget: float,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        selected: List[int] = [int(i) for i in initial_selection] if initial_selection else []
        chosen = set(selected)
        spent = float(costs[selected].sum()) if selected else 0.0
        for i in order:
            if i in chosen:
                continue
            if spent + costs[i] <= budget + 1e-9:
                if record_steps is not None:
                    record_steps.append(
                        SelectionStep(
                            int(i),
                            float(costs[i]),
                            0.0,
                            float(budget - (spent + costs[i])),
                        )
                    )
                selected.append(int(i))
                chosen.add(int(i))
                spent += costs[i]
        return selected

    def select_indices(self, database: UncertainDatabase, budget: float) -> List[int]:
        """One fresh random permutation walked until the budget is exhausted."""
        check_budget(budget)
        order = [int(i) for i in self.rng.permutation(len(database))]
        return self._walk(order, database.costs, budget)

    def trace(self, database: UncertainDatabase, max_budget: float) -> SelectionTrace:
        """One permutation, walked at every budget.

        Note that a trace freezes the random order: slicing it at several
        budgets reuses the *same* permutation (the anytime semantics), whereas
        calling ``select_indices`` per budget draws a fresh permutation each
        time.
        """
        check_budget(max_budget)
        costs = database.costs
        order = [int(i) for i in self.rng.permutation(len(database))]
        steps: List[SelectionStep] = []
        self._walk(order, costs, max_budget, record_steps=steps)

        def resume(prefix: List[int], budget: float) -> List[int]:
            return self._walk(order, costs, budget, initial_selection=prefix)

        return SelectionTrace(self.name, max_budget, steps, database, resume)


class _StaticVarianceGreedy(ResumableSolver):
    """Shared loop for the variance-ordered naive baselines."""

    use_cost_ratio = True

    def __init__(self, function: Optional[ClaimFunction] = None):
        self.function = function

    def _run(
        self,
        database: UncertainDatabase,
        budget: float,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        benefits = database.variances
        if self.function is not None:
            # Objects the query function never reads have no benefit.
            referenced = sorted(self.function.referenced_indices)
            benefits = np.zeros(len(database))
            benefits[referenced] = database.variances[referenced]
        return modular_walk(
            database,
            budget,
            benefits,
            use_cost_ratio=self.use_cost_ratio,
            apply_safeguard=False,
            initial_selection=initial_selection,
            record_steps=record_steps,
        )


@register_solver
class GreedyNaiveCostBlind(_StaticVarianceGreedy):
    """Clean objects in decreasing order of their variance, ignoring costs."""

    name = "GreedyNaiveCostBlind"
    use_cost_ratio = False


@register_solver
class GreedyNaive(_StaticVarianceGreedy):
    """Clean objects in decreasing order of variance per unit cost.

    The benefit estimate is just ``Var[X_i]`` (0 for objects the query
    function never reads); it ignores the actual optimization objective, which
    is exactly the shortcoming Section 3.1 and the experiments highlight.
    """

    name = "GreedyNaive"
    use_cost_ratio = True


@register_solver
class GreedyMinVar(ResumableSolver):
    """Objective-aware greedy for MinVar.

    The benefit of cleaning object ``i`` given the already-selected set ``T``
    is the actual reduction in expected variance, ``EV(T) - EV(T ∪ {i})``.
    Three paths, by claim:

    * linear claims use the Lemma 3.1 closed form, so the algorithm
      degenerates to the modular greedy of Section 3.2 — one vectorized
      :func:`modular_walk`, which scales to n = 10^6 (the BENCH_scale run);
    * claim-quality measures on discrete databases run the Algorithm-1 loop
      on the Theorem 3.8 decomposition (:class:`DecomposedEVCalculator`,
      memoized), where a pick re-scores only its term/pair neighbours;
    * anything else runs the same loop over a per-candidate EV difference
      (:func:`~repro.core.expected_variance.make_ev_calculator`).
    """

    name = "GreedyMinVar"

    def __init__(
        self,
        function: ClaimFunction,
        calculator: Optional[DecomposedEVCalculator] = None,
    ):
        self.function = function
        self.calculator = calculator
        # Auto-built calculator for the most recently seen database, so
        # repeated selections and trace resumes share the memoized per-term
        # computations even when no calculator was supplied explicitly.  Only
        # the latest database's calculator is kept: a calculator holds a
        # strong reference to its database, so an unbounded per-database map
        # would pin every swept database in memory for the solver's lifetime.
        self._auto_calculator: Optional[Tuple[UncertainDatabase, DecomposedEVCalculator]] = None

    def _resolve_calculator(self, database: UncertainDatabase) -> DecomposedEVCalculator:
        # A caller-supplied calculator lets repeated selections (budget
        # sweeps) share the memoized per-term computations.
        if self.calculator is not None:
            return self.calculator
        cached = self._auto_calculator
        if cached is not None and cached[0] is database:
            return cached[1]
        calculator = DecomposedEVCalculator(database, self.function)
        self._auto_calculator = (database, calculator)
        return calculator

    def _run(
        self,
        database: UncertainDatabase,
        budget: float,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        if self.function.is_linear():
            weights = self.function.weights(len(database))
            return modular_walk(
                database,
                budget,
                (weights**2) * database.variances,
                initial_selection=initial_selection,
                record_steps=record_steps,
            )

        try:
            calculator = self._resolve_calculator(database)
        except TypeError:
            calculator = None
        selected = _prefix(initial_selection)
        if calculator is not None:
            engine = _DecomposedGains(calculator, selected)
        else:
            ev = make_ev_calculator(database, self.function)

            def benefit(current: Sequence[int], index: int) -> float:
                current_set = list(current)
                return ev(current_set) - ev(current_set + [index])

            engine = _PerCandidateGains(benefit, selected)
        return _greedy_loop(engine, database, budget, selected, record_steps=record_steps)


@register_solver
class GreedyMaxPr(_DatabaseKeyedCache, ResumableSolver):
    """Objective-aware greedy for MaxPr.

    The benefit of cleaning object ``i`` given ``T`` is the increase in the
    probability of finding a counterargument.  Selection stops once the
    best-ratio candidate gains at most ``1e-12`` (cleaning more would only
    hurt, the behaviour Figure 12 documents; below that a gain is summation
    noise on a saturated probability).

    Both paths run the Algorithm-1 loop.  A linear ``f`` on an all-discrete
    database (``method`` ``"auto"`` or ``"convolution"``) or an all-normal
    one (``"auto"`` or ``"normal"``) runs on a
    :class:`~repro.core.surprise.SurpriseEngine`: each step scores every
    candidate against the selected prefix in one vectorized pass, and a
    pick costs at most one support merge.  Everything else — non-linear
    claims, mixed databases, ``"exact"`` and ``"monte_carlo"`` — scores one
    candidate per call through the per-set calculator of
    :func:`~repro.core.surprise.make_surprise_calculator`.

    Both paths cache per database *identity* (a weakly keyed dict per
    database object): the engine's per-database arrays, or the per-set path's
    evaluated-set probabilities, so budget sweeps and trace resumes reuse
    them and results computed for one database never leak into another.
    :meth:`reset_cache` remains as the explicit reset point that keeps
    long-lived solvers from accumulating caches.

    ``tau`` must be finite, ``method`` one of ``"auto"``, ``"normal"``,
    ``"convolution"``, ``"exact"``, ``"monte_carlo"``, and
    ``monte_carlo_samples`` an integer >= 1; the constructor checks all three.
    """

    name = "GreedyMaxPr"

    def __init__(
        self,
        function: ClaimFunction,
        tau: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        monte_carlo_samples: int = 4000,
        method: str = "auto",
    ):
        check_surprise_options(method, monte_carlo_samples)
        self.function = function
        self.tau = finite_tau(tau)
        self.rng = rng
        self.monte_carlo_samples = monte_carlo_samples
        self.method = method
        self._init_caches()

    def _run(
        self,
        database: UncertainDatabase,
        budget: float,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        """Algorithm 1 on the surprise engine, or on the per-set calculator."""
        cache = self._cache_for(database)
        if _ENGINE_BASE not in cache:
            cache[_ENGINE_BASE] = SurpriseBase.build(database, self.function, self.method)
        base = cache[_ENGINE_BASE]
        selected = _prefix(initial_selection)
        if base is not None:
            engine = _SurpriseGains(base, self.tau, selected)
        else:
            engine = _PerCandidateGains(self._per_set_benefit(database, cache), selected)
        return _greedy_loop(
            engine, database, budget, selected, stop_when_no_gain=True, record_steps=record_steps
        )

    def _per_set_benefit(self, database: UncertainDatabase, cache: dict) -> BenefitFunction:
        """``Pr(T + i) - Pr(T)`` with every evaluated set's probability memoized."""
        probability = make_surprise_calculator(
            database,
            self.function,
            tau=self.tau,
            rng=self.rng,
            monte_carlo_samples=self.monte_carlo_samples,
            method=self.method,
        )

        def pr(indices: Tuple[int, ...]) -> float:
            key = frozenset(indices)
            if key not in cache:
                cache[key] = probability(list(key))
            return cache[key]

        def benefit(current: Sequence[int], index: int) -> float:
            current_tuple = tuple(current)
            return pr(current_tuple + (index,)) - pr(current_tuple)

        return benefit


@register_solver
class GreedyDep(ResumableSolver):
    """Dependency-aware greedy for MinVar with a linear query function.

    Uses a :class:`GaussianWorldModel` (means + full covariance matrix) to
    compute the post-cleaning variance of the linear query function, so the
    benefit estimates account for correlations between object errors
    (Section 4.5).

    ``conditional`` selects how "variance after cleaning" is computed: the
    Schur-complement conditional variance of the multivariate normal
    (statistically exact) or the marginal variance of the objects left
    unclean (the formulation the paper's Theorem 3.9 derivation uses).

    The Algorithm-1 loop runs on the model's conditioning engine: a pick is
    one rank-one downdate plus one vectorized gains pass over every
    candidate (correlations can move any gain).  For dense models that is
    the :class:`~repro.uncertainty.correlation.ConditionalGaussian` (O(n^2)
    per step); for models built with
    :meth:`GaussianWorldModel.from_structure
    <repro.uncertainty.correlation.GaussianWorldModel.from_structure>` the
    dispatch in ``model.engine`` hands back the matching structured engine
    (banded / block-diagonal / low-rank), whose downdates cost
    O(bandwidth^2) / O(block^2) / O(n r) with O(n * bandwidth)-class memory —
    the n = 10^5 dependency runs in BENCH_scale.json go through exactly this
    loop, unchanged.  Both ``conditional`` modes are covered (the marginal
    mode maintains the same matvec under row/column zeroing).  A warm start
    replays the prefix through the engine — k downdates — and continues the
    same loop.
    """

    name = "GreedyDep"

    def __init__(
        self,
        function: ClaimFunction,
        model: GaussianWorldModel,
        conditional: bool = True,
        warm_engine=None,
    ):
        if not function.is_linear():
            raise TypeError("GreedyDep requires a linear query function")
        self.function = function
        self.model = model
        self.conditional = conditional
        #: Optional pre-conditioned engine the selection loop clones
        #: instead of building one from the model: the streaming planner's
        #: warm-start hook.  The caller guarantees the engine carries the
        #: same weights and ``conditional`` mode as this solver and is
        #: already conditioned on every out-of-band reveal — each run then
        #: costs ``engine.copy()`` plus the loop's own downdates, never a
        #: fresh O(n^2) covariance build.
        self.warm_engine = warm_engine

    def _run(
        self,
        database: UncertainDatabase,
        budget: float,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        """Algorithm 1 on the rank-one conditioning engine."""
        if self.warm_engine is not None:
            engine = self.warm_engine.copy()
        else:
            weights = self.function.weights(len(database))
            engine = self.model.engine(weights, conditional=self.conditional)
        selected = _prefix(initial_selection)
        return _greedy_loop(
            _GaussianGains(engine, selected), database, budget, selected, record_steps=record_steps
        )
