"""The warm-starting streaming planner.

:class:`StreamingPlanner` keeps a cleaning plan *live* while
:mod:`~repro.streaming.events` arrive.  Each event is folded into the
state as a cheap delta — a :meth:`~repro.uncertainty.database.
UncertainDatabase.conditioned` / :meth:`~repro.uncertainty.database.
UncertainDatabase.with_cost` / :meth:`~repro.uncertainty.database.
UncertainDatabase.with_appended` overlay of the *root* database plus a
rank-one engine downdate or a piece-local calculator invalidation — and
the plan is then repaired, not recomputed:

1. **Keep the still-valid prefix.**  The previous solve's
   :class:`~repro.core.solver.SelectionStep` log is walked and truncated
   at the first step the delta could have displaced.  For the modular
   (linear, independent-errors) track the test is a ratio threshold — a
   step survives while its benefit/cost key strictly beats every changed
   key, which is exact because the remaining keys and the prefix's spend
   are untouched.  For the decomposed (claim-quality) track the test is
   a verify-walk — only objects sharing a perturbation term or an
   interacting pair with the changed object can have moved (Theorem
   3.8's locality), so each kept step only has to beat the best
   *affected* challenger at the same loop state.  A challenger is
   scored once and re-scored only after a kept step lands in its own
   neighbourhood, the only way the prefix can reach its gain.  Both
   rules truncate conservatively on ties: a shorter prefix never
   changes the answer, it only does a little more resume work.
2. **Resume through the solver's own machinery.**  The kept prefix is
   handed to the solver's ``_run(initial_selection=...)`` hook — the
   same code path :class:`~repro.core.solver.SelectionTrace` read-backs
   use — which rebuilds the loop state conditioned on the prefix and
   continues exactly as a from-scratch run would, single-item safeguard
   included.  On the decomposed track that rebuild starts from the
   calculator's standalone gains and re-scores only the prefix's
   neighbours.  Warm and cold solves therefore return identical
   selections (the equivalence the streaming tests pin down).
3. **Reuse the conditioning state.**  The decomposed track keeps one
   :class:`~repro.core.expected_variance.DecomposedEVCalculator` alive
   across events via :meth:`~repro.core.expected_variance.
   DecomposedEVCalculator.rebased` (memoized pieces survive every event
   that does not touch their objects); the dependency track keeps one
   :class:`~repro.uncertainty.correlation.ConditionalGaussian` updated
   by rank-one downdates and hands it to
   :class:`~repro.core.greedy.GreedyDep` as its ``warm_engine``.

The **cold-solve fallback** is automatic: an event that invalidates
everything (an ``insert`` on the dependency track — appending a row and
column to a conditioned covariance is a rebuild, not a downdate) resets
the engine from scratch and the planner reports ``mode="cold"`` for
that step.  Correlations can re-rank *any* candidate after a reveal, so
the dependency track never keeps a prefix — its warmness is the reused
engine, which is where the paper's cost lives (the O(n^2)-per-step
covariance work), not the Python loop.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.claims.functions import ClaimFunction, LinearClaim
from repro.core.expected_variance import (
    DecomposedEVCalculator,
    linear_expected_variance,
)
from repro.core.greedy import GreedyDep, GreedyMinVar
from repro.core.problems import check_budget
from repro.core.solver import SelectionStep
from repro.resilience.degradation import record_degradation
from repro.resilience.faults import maybe_corrupt_event
from repro.streaming.events import (
    CostChangeEvent,
    InsertEvent,
    RemoveEvent,
    RevealEvent,
    StreamEvent,
    event_from_dict,
    event_to_dict,
)
from repro.uncertainty.correlation import GaussianWorldModel, conditional_covariance
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import NormalSpec
from repro.uncertainty.objects import UncertainObject

__all__ = ["StreamingPlanner"]

#: Version tag of the checkpoint state format (see ``state_dict``).
STATE_VERSION = 1

_EPS = 1e-9


class StreamingPlanner:
    """Maintains a live cleaning plan across an event stream.

    Parameters
    ----------
    database:
        The initial uncertain database.  Every event is applied as an
        overlay against this root, so a long stream never copies it.
    function:
        The claim function the budget is planned for.  A linear claim
        selects the modular track (or, with ``model``, the dependency
        track); a claim-quality measure selects the decomposed track.
    budget:
        The absolute cleaning budget every re-solve plans against.
    track:
        ``"modular"``, ``"decomposed"``, ``"dependency"`` or ``"auto"``
        (dependency when ``model`` is given, modular for linear claims,
        decomposed otherwise).
    model:
        The :class:`~repro.uncertainty.correlation.GaussianWorldModel`
        for the dependency track (dense covariance; inserts extend it
        block-diagonally, so structured models are not supported here).
    conditional:
        The dependency track's variance mode (Schur conditional vs
        marginal), forwarded to :class:`~repro.core.greedy.GreedyDep`.
    discretize_points:
        Support size inserted objects are discretized to on the
        decomposed track (matching ``UncertainObject.discretized``).
    store:
        An optional :class:`~repro.store.sqlite_store.PlanStore`.  When
        given, every :meth:`apply` becomes crash-safe: the event is made
        durable *before* it is applied and the resulting plan (plus a
        periodic checkpoint) is committed atomically afterwards, so
        :meth:`resume` can rebuild the planner after a SIGKILL at any
        point and reproduce the uninterrupted plan sequence exactly.
    stream_id:
        The store stream this planner journals under.
    checkpoint_every:
        Take a durable state checkpoint every ``k`` events (0 disables
        periodic checkpoints; the binding checkpoint is always written).
    """

    def __init__(
        self,
        database: UncertainDatabase,
        function: ClaimFunction,
        budget: float,
        track: str = "auto",
        model: Optional[GaussianWorldModel] = None,
        conditional: bool = True,
        discretize_points: int = 6,
        store: Optional[Any] = None,
        stream_id: str = "stream",
        checkpoint_every: int = 10,
    ):
        if track == "auto":
            if model is not None:
                track = "dependency"
            elif function.is_linear():
                track = "modular"
            else:
                track = "decomposed"
        if track not in ("modular", "decomposed", "dependency"):
            raise ValueError(f"unknown track {track!r}")
        if track == "dependency" and model is None:
            raise ValueError("the dependency track needs a GaussianWorldModel")
        if track == "modular" and not function.is_linear():
            raise TypeError("the modular track needs a linear claim function")
        self.track = track
        self.database = database
        self.function = function
        check_budget(budget)
        self.budget = float(budget)
        self.conditional = bool(conditional)
        self.discretize_points = int(discretize_points)

        self.events_applied = 0
        self.warm_solves = 0
        self.cold_solves = 0
        self.last_mode = "init"
        self.last_prefix_kept = 0

        self._calculator: Optional[DecomposedEVCalculator] = None
        self._engine = None
        self._model: Optional[GaussianWorldModel] = None
        self._base_cov: Optional[np.ndarray] = None
        self._revealed: Dict[int, float] = {}
        self._inserts: List[Dict[str, object]] = []
        self._function_extended = False
        self._store: Optional[Any] = None
        self._stream_id = str(stream_id)
        self.checkpoint_every = int(checkpoint_every)
        self._owner: Optional[str] = None
        if track == "decomposed":
            self._calculator = DecomposedEVCalculator(database, function)
        elif track == "dependency":
            self._model = model
            self._base_cov = np.array(model.covariance, dtype=float)
            weights = function.weights(len(database))
            self._engine = model.engine(weights, conditional=self.conditional)

        self._steps: List[SelectionStep] = []
        self.plan: List[int] = []
        self._solve(prefix_steps=[])
        self.last_mode = "init"
        if store is not None:
            self.bind_store(store, stream_id=stream_id, checkpoint_every=checkpoint_every)

    # ------------------------------------------------------------------ #
    # Versioning and ownership
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """The monotonic plan version: the number of events folded in.

        Version 0 is the initial cold solve; every successful
        :meth:`apply` (or :meth:`_durable_apply`) increments it by exactly
        one, so a plan stamped with version *v* is the deterministic result
        of the first *v* journal events.  The service layer exposes this
        stamp on every response and the concurrent-history harness asserts
        it only ever moves forward per session.
        """
        return int(self.events_applied)

    def claim_owner(self, owner: str) -> None:
        """Claim exclusive write ownership of this planner for ``owner``.

        A planner folds events strictly serially — two writers interleaving
        :meth:`apply` calls would corrupt the warm-start state — so the
        service's session manager claims each planner once and routes every
        ingest through the owning session's write lock.  A second claim (by
        any name, including the same one) raises ``RuntimeError`` until
        :meth:`release_owner` runs; this turns an accidental double-bind
        into a loud error instead of silent plan corruption.
        """
        name = str(owner)
        if not name:
            raise ValueError("owner name must be non-empty")
        if self._owner is not None:
            raise RuntimeError(
                f"planner already owned by {self._owner!r}; "
                f"release_owner() before claiming for {name!r}"
            )
        self._owner = name

    def release_owner(self) -> None:
        """Release the write-ownership claim (no-op when unclaimed)."""
        self._owner = None

    @property
    def owner(self) -> Optional[str]:
        """The current exclusive owner's name, or ``None`` when unclaimed."""
        return self._owner

    # ------------------------------------------------------------------ #
    # Event application
    # ------------------------------------------------------------------ #
    def apply(self, event: StreamEvent) -> Dict[str, object]:
        """Fold one event into the state and repair the plan.

        Returns a summary dict: the event ``kind``, the re-solve ``mode``
        (``"warm"`` when a non-empty prefix survived, ``"replan"`` when
        the prefix emptied but the conditioning state was reused,
        ``"cold"`` when the state had to be rebuilt), how many prefix
        steps were kept, and the new plan.

        The event is validated up front — non-finite values, NaN costs
        and the like raise :class:`ValueError` before any state mutates.
        With a bound store the application is durable (see
        :meth:`bind_store`); either way a failure of the warm path falls
        back down the warm→cold degradation chain instead of leaving the
        planner in a half-applied state.
        """
        self._validate_event(event)
        if self._store is not None:
            return self._durable_apply(event)
        try:
            return self._apply_once(event)
        except Exception:
            record_degradation("planner", "warm_to_cold")
            return self._apply_cold(event)

    def _apply_once(self, event: StreamEvent) -> Dict[str, object]:
        """The warm path: fold the event as a delta and repair the plan."""
        cold = False
        if isinstance(event, RevealEvent):
            prefix = self._apply_reveal(int(event.index), float(event.value))
        elif isinstance(event, CostChangeEvent):
            prefix = self._apply_cost_change(int(event.index), float(event.cost))
        elif isinstance(event, InsertEvent):
            prefix, cold = self._apply_insert(event)
        elif isinstance(event, RemoveEvent):
            prefix = self._apply_remove(int(event.index))
        else:
            raise TypeError(f"not a stream event: {event!r}")

        self._solve(prefix_steps=prefix)
        self.events_applied += 1
        if cold:
            self.cold_solves += 1
            self.last_mode = "cold"
        elif prefix:
            self.warm_solves += 1
            self.last_mode = "warm"
        else:
            self.warm_solves += 1
            self.last_mode = "replan"
        self.last_prefix_kept = len(prefix)
        return {
            "kind": event.kind,
            "mode": self.last_mode,
            "prefix_kept": self.last_prefix_kept,
            "plan": list(self.plan),
        }

    def _apply_reveal(self, index: int, value: float) -> List[SelectionStep]:
        self.database = self.database.conditioned(index, value)
        if self.track == "decomposed":
            self._calculator = self._calculator.rebased(self.database, (index,))
            return self._decomposed_prefix({index})
        if self.track == "dependency":
            self._revealed[index] = value
            if not self._engine.is_cleaned(index):
                self._engine.condition_on(index)
            return []
        return self._modular_prefix({index}, threshold=0.0)

    def _apply_cost_change(self, index: int, cost: float) -> List[SelectionStep]:
        self.database = self.database.with_cost(index, cost)
        if self.track == "decomposed":
            # Expected variance never reads costs: no pieces invalidated,
            # only the changed object's benefit/cost ratio moved.
            self._calculator = self._calculator.rebased(self.database, ())
            return self._decomposed_prefix({index})
        if self.track == "dependency":
            return []
        weights = self.function.weights(len(self.database))
        new_key = 0.0
        if math.isfinite(cost):
            new_key = float(
                weights[index] ** 2 * self.database.variances[index] / cost
            )
        return self._modular_prefix({index}, threshold=new_key)

    def _insert_delta(self, event: InsertEvent) -> int:
        """Apply an insert's database / function / covariance delta.

        Returns the pre-insert size.  Shared by the warm path, the cold
        recovery path and (through the recorded construction parameters)
        :meth:`restore`, so all three build bit-identical state.
        """
        old_n = len(self.database)
        obj = UncertainObject(
            name=event.name,
            current_value=float(event.current_value),
            distribution=NormalSpec(float(event.mean), float(event.std)),
            cost=float(event.cost),
        )
        if self.track == "decomposed":
            # The calculator only accepts an all-discrete database, and every
            # delta keeps it so: no need to scan the overlay per insert.
            obj = obj.discretized(points=self.discretize_points)
        self.database = self.database.with_appended([obj])
        self._inserts.append(event_to_dict(event))

        if self.track != "decomposed" and (
            float(event.weight) != 0.0 or self.track == "dependency"
        ):
            old_weights = self.function.weights(old_n)
            self.function = LinearClaim.from_vector(
                np.append(old_weights, float(event.weight))
            )
            self._function_extended = True

        if self.track == "dependency":
            extended = np.zeros((old_n + 1, old_n + 1), dtype=float)
            extended[:old_n, :old_n] = self._base_cov
            extended[old_n, old_n] = float(event.std) ** 2
            self._base_cov = extended
        return old_n

    def _rebuild_engine(self) -> None:
        """Fresh dependency engine from the base covariance + reveal replay."""
        self._model = GaussianWorldModel(
            self.database.current_values, self._base_cov, validate=False
        )
        weights = self.function.weights(len(self.database))
        self._engine = self._model.engine(weights, conditional=self.conditional)
        for index in self._revealed:
            if not self._engine.is_cleaned(index):
                self._engine.condition_on(index)

    def _apply_insert(self, event: InsertEvent) -> Tuple[List[SelectionStep], bool]:
        old_n = self._insert_delta(event)

        if self.track == "decomposed":
            self._calculator = self._calculator.rebased(self.database, ())
            return self._decomposed_prefix({old_n}), False

        if self.track == "dependency":
            # A new row/column cannot be folded into a conditioned
            # covariance by a downdate: rebuild the engine from the
            # extended base covariance and replay the reveals — the
            # documented cold-solve fallback.
            self._rebuild_engine()
            return [], True

        weights = self.function.weights(old_n + 1)
        new_key = float(
            weights[old_n] ** 2 * self.database.variances[old_n] / event.cost
        )
        return self._modular_prefix(set(), threshold=new_key), False

    def _apply_remove(self, index: int) -> List[SelectionStep]:
        # Tombstone: reveal at the current value (variance contribution
        # drops to zero) and price the object out forever.  Positions of
        # every other object — and therefore every claim index — survive.
        value = float(self.database.current_values[index])
        self.database = self.database.conditioned(index, value).with_cost(
            index, math.inf
        )
        if self.track == "decomposed":
            self._calculator = self._calculator.rebased(self.database, (index,))
            return self._decomposed_prefix({index})
        if self.track == "dependency":
            self._revealed[index] = value
            if not self._engine.is_cleaned(index):
                self._engine.condition_on(index)
            return []
        return self._modular_prefix({index}, threshold=0.0)

    # ------------------------------------------------------------------ #
    # Prefix-validity rules
    # ------------------------------------------------------------------ #
    def _modular_prefix(
        self, changed: Set[int], threshold: float
    ) -> List[SelectionStep]:
        """Steps of the last solve a modular delta provably cannot displace.

        The modular greedy is a single descending benefit/cost walk, so a
        recorded step stays the cold solve's next pick as long as (a) it is
        not itself a changed object and (b) its key strictly beats every
        changed object's *new* key — nothing can have been re-ranked above
        it, and the prefix's spend is unchanged because kept costs are
        unchanged.  Ties truncate (the cold walk breaks them by cost and
        index, which is not worth re-deriving here).
        """
        kept: List[SelectionStep] = []
        guard = threshold * (1.0 + 1e-12) + 1e-15
        for step in self._steps:
            if step.index in changed:
                break
            if step.cost <= 0 or step.gain / step.cost <= guard:
                break
            kept.append(step)
        return kept

    def _decomposed_prefix(self, changed: Set[int]) -> List[SelectionStep]:
        """Steps of the last solve a decomposed delta provably cannot displace.

        By Theorem 3.8's locality only the ``changed`` objects and their
        term/pair neighbours can have moved, so the old step log is
        *verified* in loop order: at each step the best affected-and-
        affordable challenger is checked against the step's recorded ratio
        (unaffected gains are bit-identical), and the walk truncates at the
        first step that is itself affected or no longer provably beats the
        challengers.  A challenger's score is computed once and reused until
        a kept step lands in its neighbourhood: only then can the kept
        prefix reach one of the pieces its gain reads.
        """
        calculator = self._calculator
        affected: Set[int] = set(changed)
        for index in changed:
            affected |= calculator.neighbours(index)
        costs = self.database.costs
        limit = self.budget + _EPS
        # Kept steps are never affected, so no challenger is ever selected.
        challengers = [(c, float(costs[c])) for c in affected if c < len(costs)]
        # Only a kept step inside some challenger's neighbourhood can move a
        # cached score.
        reach: Set[int] = set()
        for candidate, _ in challengers:
            reach |= calculator.neighbours(candidate)
        kept: List[SelectionStep] = []
        selected: Set[int] = set()
        cached: Dict[int, float] = {}  # challenger -> gain / cost
        spent = 0.0
        for step in self._steps:
            if step.index in affected:
                break
            ratio = step.gain / step.cost if step.cost > 0 else math.inf
            threshold = ratio * (1.0 - 1e-12) - 1e-18
            displaced = False
            for candidate, cost in challengers:
                if spent + cost > limit:
                    continue
                challenger = cached.get(candidate)
                if challenger is None:
                    challenger = cached[candidate] = (
                        calculator.marginal_gain(frozenset(selected), candidate) / cost
                    )
                if challenger >= threshold:
                    displaced = True
                    break
            if displaced:
                break
            kept.append(step)
            selected.add(step.index)
            spent += step.cost
            if step.index in reach:
                for index in calculator.neighbours(step.index):
                    cached.pop(index, None)
        return kept

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def _solver(self):
        if self.track == "decomposed":
            return GreedyMinVar(self.function, calculator=self._calculator)
        if self.track == "dependency":
            return GreedyDep(
                self.function,
                self._model,
                conditional=self.conditional,
                warm_engine=self._engine,
            )
        return GreedyMinVar(self.function)

    def _solve(self, prefix_steps: Sequence[SelectionStep]) -> None:
        prefix = [step.index for step in prefix_steps]
        new_steps: List[SelectionStep] = []
        solver = self._solver()
        result = solver._run(
            self.database,
            self.budget,
            initial_selection=prefix,
            record_steps=new_steps,
        )
        self.plan = [int(i) for i in result]
        if prefix and self.plan[: len(prefix)] != prefix:
            # The single-item safeguard replaced the greedy selection; the
            # step log no longer describes the plan, so the next event
            # starts from an empty prefix (correct, just less warm).
            self._steps = []
        else:
            self._steps = list(prefix_steps) + new_steps

    # ------------------------------------------------------------------ #
    # Cold references (for the replay harness and the equivalence tests)
    # ------------------------------------------------------------------ #
    def cold_plan(self) -> List[int]:
        """The plan a from-scratch solve on the current state produces.

        Builds everything fresh — a new calculator on the decomposed
        track, a new model from the reveal-conditioned covariance on the
        dependency track — so timing this against :meth:`apply` measures
        exactly what warm-starting saves.
        """
        if self.track == "dependency":
            solver = GreedyDep(
                self.function, self._cold_model(), conditional=self.conditional
            )
            return solver.select_indices(self.database, self.budget)
        solver = GreedyMinVar(self.function)
        return solver.select_indices(self.database, self.budget)

    def _cold_model(self) -> GaussianWorldModel:
        """The post-reveal world model, derived from the base covariance."""
        n = len(self.database)
        revealed = sorted(self._revealed)
        if not revealed:
            covariance = self._base_cov
        elif self.conditional:
            covariance = np.zeros((n, n), dtype=float)
            remaining = [i for i in range(n) if i not in self._revealed]
            if remaining:
                reduced = conditional_covariance(self._base_cov, revealed)
                covariance[np.ix_(remaining, remaining)] = reduced
        else:
            covariance = self._base_cov.copy()
            covariance[revealed, :] = 0.0
            covariance[:, revealed] = 0.0
        return GaussianWorldModel(
            self.database.current_values, covariance, validate=False
        )

    def objective(self, plan: Optional[Sequence[int]] = None) -> float:
        """The post-cleaning objective value of ``plan`` (default: the live plan)."""
        indices = list(self.plan if plan is None else plan)
        if self.track == "decomposed":
            return float(self._calculator.expected_variance(indices))
        if self.track == "dependency":
            engine = self._engine.copy()
            for index in indices:
                if not engine.is_cleaned(index):
                    engine.condition_on(index)
            return float(engine.variance())
        weights = self.function.weights(len(self.database))
        return float(linear_expected_variance(self.database, weights, indices))

    @property
    def steps(self) -> List[SelectionStep]:
        """The step log describing the live plan (empty after a safeguard hit)."""
        return list(self._steps)

    # ------------------------------------------------------------------ #
    # Validation and the warm→cold degradation chain
    # ------------------------------------------------------------------ #
    def _validate_event(self, event: StreamEvent) -> None:
        """Reject malformed events before any state mutates.

        A NaN smuggled into a reveal value or a cost delta would poison
        every later solve silently; raising here keeps the planner state
        pristine, which is what lets the durable path re-read the
        uncorrupted event from the store and retry.  The same holds for
        events the planner could never apply — an index that is not an
        integer in ``[0, n)``, an insert name that is empty, not a string
        or already taken: with a bound store, validation is the last check
        before the event is journaled, and a journaled event that cannot
        be applied would wedge the stream and every resume of it.
        """
        if isinstance(event, (RevealEvent, CostChangeEvent, RemoveEvent)):
            index = event.index
            n = len(self.database)
            if (
                not isinstance(index, numbers.Integral)
                or isinstance(index, bool)
                or not 0 <= index < n
            ):
                raise ValueError(
                    f"{event.kind} index must be an integer in [0, {n}), got {index!r}"
                )
        if isinstance(event, RevealEvent):
            if not math.isfinite(float(event.value)):
                raise ValueError(
                    f"reveal value for object {event.index} must be finite, "
                    f"got {event.value!r}"
                )
        elif isinstance(event, CostChangeEvent):
            cost = float(event.cost)
            if math.isnan(cost) or cost <= 0:
                raise ValueError(
                    f"cost change for object {event.index} must be positive, "
                    f"got {event.cost!r}"
                )
        elif isinstance(event, InsertEvent):
            if not isinstance(event.name, str) or not event.name:
                raise ValueError(
                    f"insert name must be a non-empty string, got {event.name!r}"
                )
            if event.name in self.database:
                raise ValueError(f"insert name {event.name!r} already names an object")
            for label in ("current_value", "mean", "weight"):
                if not math.isfinite(float(getattr(event, label))):
                    raise ValueError(
                        f"insert {event.name!r}: {label} must be finite, "
                        f"got {getattr(event, label)!r}"
                    )
            std = float(event.std)
            if not math.isfinite(std) or std < 0:
                raise ValueError(
                    f"insert {event.name!r}: std must be finite and "
                    f"nonnegative, got {event.std!r}"
                )
            cost = float(event.cost)
            if not math.isfinite(cost) or cost <= 0:
                raise ValueError(
                    f"insert {event.name!r}: cost must be finite and "
                    f"positive, got {event.cost!r}"
                )
        elif not isinstance(event, RemoveEvent):
            raise TypeError(f"not a stream event: {event!r}")

    def _apply_cold(self, event: StreamEvent) -> Dict[str, object]:
        """The bottom of the warm→cold chain: re-apply the event's logical
        delta idempotently, then rebuild every derived structure from the
        database overlay and solve from scratch.

        Overlay writes are idempotent (re-conditioning on the same value,
        re-pricing to the same cost), so this is safe even when the warm
        path failed halfway through its mutations.
        """
        if isinstance(event, RevealEvent):
            self.database = self.database.conditioned(int(event.index), float(event.value))
            if self.track == "dependency":
                self._revealed[int(event.index)] = float(event.value)
        elif isinstance(event, CostChangeEvent):
            self.database = self.database.with_cost(int(event.index), float(event.cost))
        elif isinstance(event, RemoveEvent):
            index = int(event.index)
            value = float(self.database.current_values[index])
            self.database = self.database.conditioned(index, value).with_cost(
                index, math.inf
            )
            if self.track == "dependency":
                self._revealed.setdefault(index, value)
        elif isinstance(event, InsertEvent):
            if event.name not in self.database:
                self._insert_delta(event)
        else:
            raise TypeError(f"not a stream event: {event!r}")
        self.rebuild_cold()
        self.events_applied += 1
        self.cold_solves += 1
        self.last_mode = "cold"
        self.last_prefix_kept = 0
        return {
            "kind": event.kind,
            "mode": "cold",
            "prefix_kept": 0,
            "plan": list(self.plan),
        }

    def rebuild_cold(self) -> None:
        """Rebuild calculator / engine from the database overlay and re-solve."""
        if self.track == "decomposed":
            self._calculator = DecomposedEVCalculator(self.database, self.function)
        elif self.track == "dependency":
            self._rebuild_engine()
        self._steps = []
        self._solve(prefix_steps=[])

    # ------------------------------------------------------------------ #
    # Durable state: checkpoints, restore and resume
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, object]:
        """The planner's complete logical state as a JSON-ready dict.

        Nothing derived is serialized — no engines, calculators or memo
        tables.  The overlay deltas (reveals, cost overrides, inserted
        objects, all in chronological first-touch order, which the
        overlay dicts preserve) plus the claim weights, the step log and
        the counters are enough for :meth:`restore` to rebuild state that
        continues bit-identically to the uninterrupted planner.
        """
        weights: Optional[List[float]] = None
        if self.track != "decomposed":
            weights = [float(w) for w in self.function.weights(len(self.database))]
        return {
            "version": STATE_VERSION,
            "track": self.track,
            "budget": float(self.budget),
            "conditional": bool(self.conditional),
            "discretize_points": int(self.discretize_points),
            "checkpoint_every": int(self.checkpoint_every),
            "base_n": int(len(self.database)) - int(self.database.appended_count),
            "events_applied": int(self.events_applied),
            "warm_solves": int(self.warm_solves),
            "cold_solves": int(self.cold_solves),
            "last_mode": str(self.last_mode),
            "last_prefix_kept": int(self.last_prefix_kept),
            "reveals": [
                [int(i), float(v)] for i, v in self.database.revealed.items()
            ],
            "cost_overrides": [
                [int(i), float(c)] for i, c in self.database.cost_overrides.items()
            ],
            "inserts": [dict(wire) for wire in self._inserts],
            "function_extended": bool(self._function_extended),
            "weights": weights,
            "steps": [
                [
                    int(step.index),
                    float(step.cost),
                    float(step.gain),
                    None
                    if step.remaining_budget is None
                    else float(step.remaining_budget),
                ]
                for step in self._steps
            ],
            "plan": [int(i) for i in self.plan],
        }

    def state_fingerprint(self) -> str:
        """SHA-256 of the canonical JSON state.

        Equal fingerprints mean identical resumable state: two planners
        with the same fingerprint produce the same plans for the same
        future events.
        """
        text = json.dumps(self.state_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @classmethod
    def restore(
        cls,
        state: Dict[str, object],
        database: UncertainDatabase,
        function: ClaimFunction,
        model: Optional[GaussianWorldModel] = None,
    ) -> "StreamingPlanner":
        """Rebuild a planner from a checkpoint ``state``.

        ``database`` / ``function`` / ``model`` are the *initial* inputs
        the original planner was constructed from (the checkpoint holds
        only deltas against them).  The decomposed track needs the
        original ``function`` — claim-quality measures have no weight
        vector to serialize; the others rebuild an extended
        :class:`~repro.claims.functions.LinearClaim` when inserts grew
        the claim.
        """
        if state.get("version") != STATE_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {state.get('version')!r} "
                f"(expected {STATE_VERSION})"
            )
        track = str(state["track"])
        if len(database) != int(state["base_n"]):
            raise ValueError(
                f"checkpoint was taken against a base database of "
                f"{state['base_n']} objects, got {len(database)}"
            )
        if track == "dependency" and model is None:
            raise ValueError("restoring the dependency track needs its model")

        planner = object.__new__(cls)
        planner.track = track
        planner.budget = float(state["budget"])
        planner.conditional = bool(state["conditional"])
        planner.discretize_points = int(state["discretize_points"])
        planner.checkpoint_every = int(state.get("checkpoint_every", 10))
        planner.events_applied = int(state["events_applied"])
        planner.warm_solves = int(state["warm_solves"])
        planner.cold_solves = int(state["cold_solves"])
        planner.last_mode = str(state["last_mode"])
        planner.last_prefix_kept = int(state["last_prefix_kept"])
        planner._store = None
        planner._stream_id = "stream"
        planner._owner = None
        planner._calculator = None
        planner._engine = None
        planner._model = None
        planner._base_cov = None
        planner._revealed = {}
        planner._inserts = [dict(wire) for wire in state["inserts"]]
        planner._function_extended = bool(state["function_extended"])

        if track != "decomposed" and planner._function_extended:
            planner.function = LinearClaim.from_vector(
                np.asarray(state["weights"], dtype=float)
            )
        else:
            planner.function = function

        # Database: inserts first, then reveals, then cost overrides — the
        # final overlay (appended tuple + delta dicts in chronological
        # order) is identical to the interleaved original.
        db = database
        appended: List[UncertainObject] = []
        for wire in planner._inserts:
            event = event_from_dict(wire)
            obj = UncertainObject(
                name=event.name,
                current_value=float(event.current_value),
                distribution=NormalSpec(float(event.mean), float(event.std)),
                cost=float(event.cost),
            )
            if track == "decomposed":
                obj = obj.discretized(points=planner.discretize_points)
            appended.append(obj)
        if appended:
            db = db.with_appended(appended)
        for index, value in state["reveals"]:
            db = db.conditioned(int(index), float(value))
            if track == "dependency":
                planner._revealed[int(index)] = float(value)
        for index, cost in state["cost_overrides"]:
            db = db.with_cost(int(index), float(cost))
        planner.database = db

        if track == "decomposed":
            planner._calculator = DecomposedEVCalculator(db, planner.function)
        elif track == "dependency":
            base_cov = np.array(model.covariance, dtype=float)
            for wire in planner._inserts:
                old_n = base_cov.shape[0]
                extended = np.zeros((old_n + 1, old_n + 1), dtype=float)
                extended[:old_n, :old_n] = base_cov
                extended[old_n, old_n] = float(wire["std"]) ** 2
                base_cov = extended
            planner._base_cov = base_cov
            if planner._inserts:
                planner._rebuild_engine()
            else:
                planner._model = model
                weights = planner.function.weights(len(db))
                planner._engine = model.engine(
                    weights, conditional=planner.conditional
                )
                for index in planner._revealed:
                    if not planner._engine.is_cleaned(index):
                        planner._engine.condition_on(index)

        planner._steps = [
            SelectionStep(
                index=int(index),
                cost=float(cost),
                gain=float(gain),
                remaining_budget=None if remaining is None else float(remaining),
            )
            for index, cost, gain, remaining in state["steps"]
        ]
        planner.plan = [int(i) for i in state["plan"]]
        return planner

    def bind_store(
        self,
        store: Any,
        stream_id: str = "stream",
        checkpoint_every: int = 10,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        """Attach a durable store: every later :meth:`apply` is crash-safe.

        The protocol per event (seq = ``events_applied``):

        1. the event row is committed *before* anything is applied;
        2. the plan row, the cursor and — every ``checkpoint_every``
           events — a state checkpoint are committed in one transaction
           *after* the solve.

        A crash between (1) and (2) leaves a durable event with no plan
        row; :meth:`resume` re-applies it deterministically.  Binding
        also writes an initial checkpoint at the current position so a
        stream is resumable from its very first event.
        """
        self._store = store
        self._stream_id = str(stream_id)
        self.checkpoint_every = int(checkpoint_every)
        store.ensure_stream(self._stream_id, metadata)
        if store.latest_checkpoint(self._stream_id) is None:
            store.save_checkpoint(self._stream_id, self.events_applied, self.state_dict())

    def _durable_apply(self, event: StreamEvent) -> Dict[str, object]:
        """One crash-safe event application (see :meth:`bind_store`)."""
        store, stream = self._store, self._stream_id
        seq = self.events_applied
        store.append_event(stream, seq, event_to_dict(event))
        delivered = maybe_corrupt_event(event)
        try:
            self._validate_event(delivered)
            summary = self._apply_once(delivered)
        except Exception:
            if delivered is not event:
                # Injected in-memory corruption: validation rejected it
                # before any mutation, so re-read the pristine event from
                # the store and retry the warm path once.
                record_degradation("planner", "event_retry")
                pristine = event_from_dict(store.events(stream, seq)[0][1])
                try:
                    summary = self._apply_once(pristine)
                except Exception:
                    record_degradation("planner", "warm_to_cold")
                    summary = self._apply_cold(pristine)
            else:
                record_degradation("planner", "warm_to_cold")
                summary = self._apply_cold(event)
        with store.transaction():
            store.record_plan(stream, seq, dict(summary))
            store.set_cursor(stream, seq)
            if self.checkpoint_every and (seq + 1) % self.checkpoint_every == 0:
                store.save_checkpoint(stream, seq + 1, self.state_dict())
        return summary

    @classmethod
    def resume(
        cls,
        store: Any,
        database: UncertainDatabase,
        function: ClaimFunction,
        stream_id: str = "stream",
        model: Optional[GaussianWorldModel] = None,
        checkpoint_every: Optional[int] = None,
    ) -> "StreamingPlanner":
        """Rebuild a planner from ``store`` after a crash.

        Restores the latest durable checkpoint, then replays only the
        events journaled *after* it (each re-applied durably, so the plan
        rows and cursor catch up and a second crash mid-resume is just
        another resume).  The result is bit-identical to a planner that
        never crashed — including after a SIGKILL between an event's
        durable append and its plan commit — and resuming twice is
        idempotent.
        """
        found = store.latest_checkpoint(stream_id)
        if found is None:
            raise ValueError(f"stream {stream_id!r} has no checkpoint to resume from")
        _, state = found
        planner = cls.restore(state, database, function, model=model)
        planner._store = store
        planner._stream_id = str(stream_id)
        if checkpoint_every is not None:
            planner.checkpoint_every = int(checkpoint_every)
        for seq, payload in store.events(stream_id, start_seq=planner.events_applied):
            if seq != planner.events_applied:
                raise ValueError(
                    f"stream {stream_id!r} has an event gap: expected seq "
                    f"{planner.events_applied}, found {seq}"
                )
            planner._durable_apply(event_from_dict(payload))
        return planner
