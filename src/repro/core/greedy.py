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

All of them are :class:`~repro.core.solver.Solver` subclasses and support
anytime :class:`~repro.core.solver.SelectionTrace` recording: one run at the
largest budget yields the exact selection at every smaller budget (the sweep
engine's single-trace fast path).  The shared mechanics live in
``greedy_select``'s ``initial_selection`` (warm-start the loop from a recorded
prefix) and ``record_steps`` (log each pick) hooks.

Each solver is one exact loop: every step takes the best-ranked of all
feasible candidates.  The engines already make a step cheap — GreedyDep
scores every candidate in one ``engine.gains()`` pass, the decomposed
GreedyMinVar re-scores only the term neighbours of the last pick (Theorem
3.8) and the modular walk is one sort — so no variant samples candidates or
re-scores them lazily from stale upper bounds.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.core.expected_variance import DecomposedEVCalculator, make_ev_calculator
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
from repro.uncertainty.correlation import ConditionalGaussian, GaussianWorldModel
from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "greedy_select",
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


def greedy_select(
    database: UncertainDatabase,
    budget: float,
    benefit: BenefitFunction,
    adaptive: bool = True,
    stop_when_no_gain: bool = False,
    use_cost_ratio: bool = True,
    apply_safeguard: bool = True,
    static_benefits: Optional[Sequence[float]] = None,
    initial_selection: Optional[Sequence[int]] = None,
    record_steps: Optional[List[SelectionStep]] = None,
) -> List[int]:
    """The Algorithm-1 greedy template.

    Every adaptive step scores each feasible candidate against the current
    selection, so each pick is the exact best ratio; the non-adaptive path
    is one sorted walk.

    Parameters
    ----------
    benefit:
        ``benefit(T, i)`` estimates the benefit of cleaning object ``i`` given
        the objects ``T`` already chosen.  Non-adaptive strategies simply
        ignore ``T``.
    adaptive:
        When False, benefits are computed once against the empty set and the
        objects are processed in a single sorted pass (the GreedyNaive /
        modular fast path), vectorized so the walk costs O(n log n) numpy
        work rather than n Python-level benefit calls when
        ``static_benefits`` is supplied.
    stop_when_no_gain:
        Stop as soon as the best-ratio candidate's benefit is at most
        ``MAXPR_MIN_GAIN`` (1e-12).  Used by GreedyMaxPr, where cleaning more
        objects can reduce the objective (Figure 12's plateau).
    use_cost_ratio:
        Rank candidates by ``benefit / cost``; when False rank by raw benefit
        (the cost-blind baseline).
    apply_safeguard:
        Apply the final single-item check (lines 5--8 of Algorithm 1).
    static_benefits:
        Precomputed standalone benefits for the non-adaptive path (entry
        ``i`` is ``benefit((), i)``).  Skips the n Python-level benefit
        calls — at n = 10^6 that is the difference between milliseconds and
        minutes — and doubles as the safeguard's input.
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
    """
    n = len(database)
    costs = database.costs
    selected: List[int] = [int(i) for i in initial_selection] if initial_selection else []
    selected_set: Set[int] = set(selected)
    spent = float(costs[selected].sum()) if selected else 0.0
    need_gain = stop_when_no_gain or record_steps is not None
    standalone_static: Optional[np.ndarray] = None  # reused by the safeguard

    def score(index: int, current: Sequence[int]) -> float:
        b = benefit(current, index)
        if not use_cost_ratio:
            return b
        return b / costs[index]

    def record(index: int, gain: float, remaining: Optional[float] = None) -> None:
        if record_steps is not None:
            if remaining is None:
                # record() is called before `spent` is advanced, so the
                # remaining budget after this pick is one addition away.
                remaining = budget - (spent + costs[index])
            record_steps.append(
                SelectionStep(
                    int(index), float(costs[index]), float(gain), float(remaining)
                )
            )

    if adaptive:
        # Feasibility is monotone (spent only grows), so a boolean mask pruned
        # in place replaces the O(n) candidate-list rebuild of each round.
        feasible = np.ones(n, dtype=bool)
        if selected:
            feasible[selected] = False
        while True:
            feasible &= (spent + costs) <= budget + 1e-9
            candidates = np.flatnonzero(feasible)
            if candidates.size == 0:
                break
            best = int(max(candidates, key=lambda i: score(int(i), selected)))
            if need_gain:
                gain = benefit(selected, best)
                if stop_when_no_gain and gain <= MAXPR_MIN_GAIN:
                    break
                record(best, gain)
            selected.append(best)
            selected_set.add(best)
            feasible[best] = False
            spent += costs[best]
    else:
        if static_benefits is not None:
            static = np.asarray(static_benefits, dtype=float)
            if static.shape != (n,):
                raise ValueError(
                    f"static_benefits must have shape ({n},), got {static.shape}"
                )
        else:
            static = np.array([benefit((), i) for i in range(n)], dtype=float)
        standalone_static = static
        keys = static / costs if use_cost_ratio else static
        # lexsort is stable, so ties on (key desc, cost asc) keep index
        # order — exactly the semantics of the sorted() walk it replaces.
        order = np.lexsort((costs, -keys))
        if stop_when_no_gain:
            # Keys sort descending, so every non-positive static benefit
            # sits in one suffix; the sequential walk broke at its start.
            nonpositive = np.flatnonzero(static[order] <= 0)
            if nonpositive.size:
                order = order[: nonpositive[0]]
        if selected_set:
            keep = np.ones(n, dtype=bool)
            keep[list(selected_set)] = False
            order = order[keep[order]]
        order_costs = costs[order]
        rounds = 0
        while order.size:
            rounds += 1
            if rounds > 64:
                # Pathological cost pattern (every round accepts and
                # drops only a handful of near-boundary items): finish
                # with the reference item-by-item walk over what is
                # left, which is exactly the semantics the vectorized
                # rounds reproduce.
                for raw, cost in zip(order.tolist(), order_costs.tolist()):
                    if spent + cost <= budget + 1e-9:
                        record(int(raw), float(static[raw]))
                        selected.append(int(raw))
                        selected_set.add(int(raw))
                        spent += cost
                break
            # Bulk-accept the longest affordable prefix.  The cumsum is
            # seeded with the running spend so the float additions fold
            # left-to-right exactly like the item-by-item walk.
            cumulative = np.cumsum(np.concatenate(([spent], order_costs)))[1:]
            fits = cumulative <= budget + 1e-9
            stop = int(np.argmax(~fits)) if not fits.all() else int(fits.size)
            if stop:
                taken = order[:stop]
                if record_steps is not None:
                    # `spent` is only advanced after the whole bulk
                    # accept, so per-item remaining budgets come from the
                    # same cumulative sums that gated the accept.
                    for position, i in enumerate(taken):
                        record(
                            int(i),
                            float(static[i]),
                            budget - float(cumulative[position]),
                        )
                selected.extend(int(i) for i in taken)
                selected_set.update(int(i) for i in taken)
                spent = float(cumulative[stop - 1])
            if stop == order.size:
                break
            # Spend only grows and float addition is monotone, so any
            # item that does not fit on its own now can never fit later.
            # Drop that whole cohort at once — including the item at
            # ``stop``, which just failed — instead of skipping failures
            # one at a time (quadratic under unit costs at large n).
            tail_costs = order_costs[stop:]
            keep = spent + tail_costs <= budget + 1e-9
            order = order[stop:][keep]
            order_costs = tail_costs[keep]

    if apply_safeguard:
        if standalone_static is not None:
            remaining_mask = costs <= budget + 1e-9
            if selected:
                remaining_mask[selected] = False
            if remaining_mask.any():
                best_single = int(
                    np.argmax(np.where(remaining_mask, standalone_static, -np.inf))
                )
                chosen_total = sum(float(standalone_static[i]) for i in selected)
                if float(standalone_static[best_single]) > chosen_total:
                    return [best_single]
        else:
            remaining = [
                i for i in range(n) if i not in selected_set and costs[i] <= budget + 1e-9
            ]
            if remaining:
                # Benefits for the safeguard are standalone (with respect to
                # the empty set), matching the knapsack 2-approximation
                # argument.
                standalone = {i: benefit((), i) for i in remaining}
                best_single = max(remaining, key=lambda i: standalone[i])
                chosen_total = sum(benefit((), i) for i in selected)
                if standalone[best_single] > chosen_total:
                    return [best_single]
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
        order = [int(i) for i in self.rng.permutation(len(database))]
        return self._walk(order, database.costs, budget)

    def trace(self, database: UncertainDatabase, max_budget: float) -> SelectionTrace:
        """One permutation, walked at every budget.

        Note that a trace freezes the random order: slicing it at several
        budgets reuses the *same* permutation (the anytime semantics), whereas
        calling ``select_indices`` per budget draws a fresh permutation each
        time.
        """
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
        variances = database.variances
        referenced = (
            self.function.referenced_indices if self.function is not None else None
        )

        def benefit(_current: Sequence[int], index: int) -> float:
            if referenced is not None and index not in referenced:
                return 0.0
            return float(variances[index])

        return greedy_select(
            database,
            budget,
            benefit,
            adaptive=False,
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
    For claim-quality measures on discrete databases the Theorem 3.8
    decomposition (with memoization) makes each evaluation cheap; for linear
    claims the closed form is used and the algorithm degenerates to the
    modular greedy of Section 3.2 — the linear path is fully vectorized
    (``static_benefits``), so it scales to n = 10^6 (the BENCH_scale run).
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
            variances = database.variances
            contributions = (weights**2) * variances

            def benefit(_current: Sequence[int], index: int) -> float:
                return float(contributions[index])

            return greedy_select(
                database,
                budget,
                benefit,
                adaptive=False,
                static_benefits=contributions,
                initial_selection=initial_selection,
                record_steps=record_steps,
            )

        try:
            calculator = self._resolve_calculator(database)
        except TypeError:
            calculator = None
        if calculator is None:
            ev = make_ev_calculator(database, self.function)

            def benefit(current: Sequence[int], index: int) -> float:
                current_set = list(current)
                return ev(current_set) - ev(current_set + [index])

            return greedy_select(
                database,
                budget,
                benefit,
                adaptive=True,
                initial_selection=initial_selection,
                record_steps=record_steps,
            )

        return self._select_decomposed(
            database, budget, calculator, initial_selection, record_steps
        )

    def _select_decomposed(
        self,
        database: UncertainDatabase,
        budget: float,
        calculator: DecomposedEVCalculator,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        """Exact greedy over a decomposed EV with neighbour-only gain updates.

        Adding an object to the cleaned set can only change the marginal gain
        of objects that share a perturbation term (or an interacting term
        pair) with it, so after each selection only those neighbours are
        re-scored.  Note that EV's submodularity (Lemma 3.5) means gains grow
        as the selection does, so CELF-style lazy evaluation with stale upper
        bounds would *not* be exact here — this invalidation scheme is.

        A warm start (``initial_selection``) rebuilds exactly the state the
        loop would have after selecting that prefix: gains conditioned on the
        prefix (memoized by the calculator, so this is a cache read-back) and
        the prefix's spend.
        """
        n = len(database)
        costs = database.costs

        # Object -> objects co-referenced with it in some term or term pair.
        neighbours: List[Set[int]] = [set() for _ in range(n)]
        for term in calculator.terms:
            members = list(term.referenced_indices)
            for i in members:
                neighbours[i].update(members)
        for k, l in calculator.interacting_pairs:
            members = list(
                calculator.terms[k].referenced_indices | calculator.terms[l].referenced_indices
            )
            for i in members:
                neighbours[i].update(members)

        # Standalone (empty-set) gains double as the safeguard inputs below.
        # The calculator memoizes (and patches across rebased children) this
        # vector, so a warm-started streaming re-solve pays for a handful of
        # stale entries, not n.
        standalone_gains = calculator.standalone_gains()
        selected: List[int] = [int(i) for i in initial_selection] if initial_selection else []
        selected_set: Set[int] = set(selected)
        selected_frozen = frozenset(selected_set)
        if selected:
            gains = np.array(
                [calculator.marginal_gain(selected_frozen, i) for i in range(n)], dtype=float
            )
        else:
            gains = standalone_gains.copy()
        feasible = np.ones(n, dtype=bool)
        if selected:
            feasible[selected] = False
        spent = float(costs[selected].sum()) if selected else 0.0
        # Feasibility is monotone (spent only grows), so a mask pruned in
        # place replaces the O(n) candidate-list rebuild of each round, and
        # the benefit/cost ratios are maintained incrementally (-inf marks
        # selected or unaffordable objects) so each round is one argmax.
        ratios = np.where(feasible, gains / costs, -np.inf)
        while True:
            pruned = feasible & ((spent + costs) > budget + 1e-9)
            if pruned.any():
                feasible &= ~pruned
                ratios[pruned] = -np.inf
            if not feasible.any():
                break
            best = int(np.argmax(ratios))
            if record_steps is not None:
                record_steps.append(
                    SelectionStep(
                        best,
                        float(costs[best]),
                        float(gains[best]),
                        float(budget - (spent + costs[best])),
                    )
                )
            selected.append(best)
            selected_set.add(best)
            selected_frozen = selected_frozen | {best}
            feasible[best] = False
            ratios[best] = -np.inf
            spent += costs[best]
            for i in neighbours[best]:
                if i not in selected_set:
                    gains[i] = calculator.marginal_gain(selected_frozen, i)
                    if feasible[i]:
                        ratios[i] = gains[i] / costs[i]

        # Single-item safeguard (lines 5-8 of Algorithm 1), using standalone gains.
        remaining_mask = np.ones(n, dtype=bool)
        if selected:
            remaining_mask[selected] = False
        remaining_mask &= costs <= budget + 1e-9
        if remaining_mask.any():
            best_single = int(np.argmax(np.where(remaining_mask, standalone_gains, -np.inf)))
            chosen_total = float(standalone_gains[selected].sum()) if selected else 0.0
            if standalone_gains[best_single] > chosen_total:
                return [best_single]
        return selected


@register_solver
class GreedyMaxPr(_DatabaseKeyedCache, ResumableSolver):
    """Objective-aware greedy for MaxPr.

    The benefit of cleaning object ``i`` given ``T`` is the increase in the
    probability of finding a counterargument.  Selection stops once the
    best-ratio candidate gains at most ``1e-12`` (cleaning more would only
    hurt, the behaviour Figure 12 documents; below that a gain is summation
    noise on a saturated probability).

    A linear ``f`` on an all-discrete database (``method`` ``"auto"`` or
    ``"convolution"``) or an all-normal one (``"auto"`` or ``"normal"``)
    runs on a :class:`~repro.core.surprise.SurpriseEngine`: each step scores
    every candidate against the selected prefix in one vectorized pass, and
    a pick costs at most one support merge.  Everything else — non-linear claims,
    mixed databases, ``"exact"`` and ``"monte_carlo"`` — runs
    :func:`greedy_select` over the per-set calculator of
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
        """Algorithm 1 on the surprise engine, or on the per-set calculator.

        Per engine round: one vectorized pass scores every candidate against
        the prefix, one argmax over the gain/cost ratios picks (first index
        on ties), and the pick is merged into the prefix.  A warm start
        replays the prefix through the engine and continues the same loop.
        """
        cache = self._cache_for(database)
        if _ENGINE_BASE not in cache:
            cache[_ENGINE_BASE] = SurpriseBase.build(database, self.function, self.method)
        base = cache[_ENGINE_BASE]
        if base is None:
            return self._run_per_set(database, budget, cache, initial_selection, record_steps)

        n = len(database)
        costs = database.costs
        tau = self.tau
        engine = SurpriseEngine(base)
        # Empty-prefix probabilities double as the single-item safeguard inputs.
        standalone = engine.probabilities(tau)
        selected: List[int] = [int(i) for i in initial_selection] if initial_selection else []
        for index in selected:
            engine.condition_on(index)
        scores = engine.probabilities(tau) if selected else standalone
        feasible = np.ones(n, dtype=bool)
        if selected:
            feasible[selected] = False
        spent = float(costs[selected].sum()) if selected else 0.0
        while True:
            feasible &= (spent + costs) <= budget + 1e-9
            if not feasible.any():
                break
            gains = scores - engine.probability(tau)
            best = int(np.argmax(np.where(feasible, gains / costs, -np.inf)))
            gain = float(gains[best])
            if gain <= MAXPR_MIN_GAIN:
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
            engine.condition_on(best)
            scores = engine.probabilities(tau)

        # Single-item safeguard (lines 5-8 of Algorithm 1), standalone probabilities.
        remaining_mask = costs <= budget + 1e-9
        if selected:
            remaining_mask[selected] = False
        if remaining_mask.any():
            best_single = int(np.argmax(np.where(remaining_mask, standalone, -np.inf)))
            # A left fold in pick order, like greedy_select's, so a tie with
            # the best single object breaks the same way on both paths.
            chosen_total = sum(float(standalone[i]) for i in selected)
            if standalone[best_single] > chosen_total:
                return [best_single]
        return selected

    def _run_per_set(
        self,
        database: UncertainDatabase,
        budget: float,
        cache: dict,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        """:func:`greedy_select` with every evaluated set's probability memoized."""
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

        return greedy_select(
            database,
            budget,
            benefit,
            adaptive=True,
            stop_when_no_gain=True,
            initial_selection=initial_selection,
            record_steps=record_steps,
        )


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

    Each step runs on the model's conditioning engine: one rank-one downdate
    plus one vectorized gains pass.  For dense models that is the
    :class:`~repro.uncertainty.correlation.ConditionalGaussian` (O(n^2) per
    step); for models built with
    :meth:`GaussianWorldModel.from_structure
    <repro.uncertainty.correlation.GaussianWorldModel.from_structure>` the
    dispatch in ``model.engine`` hands back the matching structured engine
    (banded / block-diagonal / low-rank), whose downdates cost
    O(bandwidth^2) / O(block^2) / O(n r) with O(n * bandwidth)-class memory —
    the n = 10^5 dependency runs in BENCH_scale.json go through exactly this
    loop, unchanged.  Both ``conditional`` modes are covered (the marginal
    mode maintains the same matvec under row/column zeroing).
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
        """Algorithm 1 on the rank-one conditioning engine.

        Per round: one argmax over incrementally maintained benefit/cost
        ratios, one O(n^2) downdate, one vectorized re-score of *all*
        candidates (correlations can move any candidate's gain, so there is
        no neighbour structure to exploit as in the decomposed-EV greedy).
        A warm start replays the prefix through the engine — k downdates —
        and continues the identical loop.
        """
        n = len(database)
        costs = database.costs
        if self.warm_engine is not None:
            engine = self.warm_engine.copy()
        else:
            weights = self.function.weights(n)
            engine = self.model.engine(weights, conditional=self.conditional)

        # Empty-set gains double as the single-item safeguard inputs below.
        standalone_gains = engine.gains()
        selected: List[int] = [int(i) for i in initial_selection] if initial_selection else []
        for index in selected:
            # A warm engine may already be conditioned on prefix members
            # (out-of-band reveals that intersect the kept prefix).
            if not engine.is_cleaned(index):
                engine.condition_on(index)
        gains = engine.gains() if selected else standalone_gains.copy()
        feasible = np.ones(n, dtype=bool)
        if selected:
            feasible[selected] = False
        spent = float(costs[selected].sum()) if selected else 0.0
        ratios = np.where(feasible, gains / costs, -np.inf)
        while True:
            pruned = feasible & ((spent + costs) > budget + 1e-9)
            if pruned.any():
                feasible &= ~pruned
                ratios[pruned] = -np.inf
            if not feasible.any():
                break
            best = int(np.argmax(ratios))
            if record_steps is not None:
                record_steps.append(
                    SelectionStep(
                        best,
                        float(costs[best]),
                        float(gains[best]),
                        float(budget - (spent + costs[best])),
                    )
                )
            selected.append(best)
            feasible[best] = False
            spent += costs[best]
            if not engine.is_cleaned(best):
                engine.condition_on(best)
            gains = engine.gains()
            ratios = np.where(feasible, gains / costs, -np.inf)

        # Single-item safeguard (lines 5-8 of Algorithm 1), standalone gains.
        remaining_mask = np.ones(n, dtype=bool)
        if selected:
            remaining_mask[selected] = False
        remaining_mask &= costs <= budget + 1e-9
        if remaining_mask.any():
            best_single = int(np.argmax(np.where(remaining_mask, standalone_gains, -np.inf)))
            chosen_total = float(standalone_gains[selected].sum()) if selected else 0.0
            if standalone_gains[best_single] > chosen_total:
                return [best_single]
        return selected
