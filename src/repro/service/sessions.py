"""Sessions: one claim + workload bound to one durable stream.

A *session* is the unit the service multiplexes: a deterministic workload
(database + claim function, rebuilt bit-identically from its config), a
:class:`~repro.streaming.planner.StreamingPlanner` owning the live plan,
and a :class:`~repro.store.sqlite_store.PlanStore` file making every
ingested event durable before it is applied.  The concurrency contract:

* **Single writer, many readers** — each session carries a
  readers-writer lock.  Ingests take the write side (the planner's warm
  state mutates), plan reads take the read side, and arbitrary-budget
  read-backs additionally serialize on a small read-back lock because the
  solver's resume loop shares the planner's calculator memos.
* **Monotonic versions** — a session's plan version is exactly
  :attr:`~repro.streaming.planner.StreamingPlanner.version` (events
  folded in).  Every response carries ``version`` plus the SHA-256
  :func:`~repro.service.wire.plan_signature_hex` binding the plan bytes
  to it, which is what the history harness replays against.
* **Exactly-once ingest** — a client may send an ``idempotency_key``;
  the key row commits in the *same transaction* as the event row, so a
  retry after any crash or injected fault either finds nothing durable
  (and ingests fresh) or finds the key and gets the original ack
  replayed from the plan row at its sequence number.
* **Storage-backed mode** — ``storage_backed: true`` sessions page their
  stat columns into the store
  (:class:`~repro.store.columns.DatabasePageStore`) and serve from the
  lazily-loading :class:`~repro.store.columns.StoredDatabase`; reveal and
  cost events write the dirty page back after the durable apply.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.claims.functions import LinearClaim
from repro.core.solver import SelectionTrace
from repro.service.wire import ServiceError, plan_signature_hex, require_number
from repro.store.columns import DatabasePageStore
from repro.store.sqlite_store import PlanStore
from repro.streaming.events import (
    CostChangeEvent,
    RemoveEvent,
    RevealEvent,
    StreamEvent,
    event_from_dict,
    event_to_dict,
)
from repro.streaming.planner import StreamingPlanner
from repro.uncertainty.database import UncertainDatabase

__all__ = ["Session", "SessionConfig", "SessionManager"]

#: The stream-metadata key a session's config is persisted under.
_CONFIG_KEY = "service_session"

#: Workload kinds a session config may name.
WORKLOAD_KINDS = ("linear_normal", "urx_uniqueness")


class _RWLock:
    """A readers-writer lock: many concurrent readers, one exclusive writer.

    Writer-preferring: once a writer is waiting, new readers queue behind
    it, so a stream of plan reads cannot starve ingests.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._condition:
            self._writer = False
            self._condition.notify_all()

    class _Side:
        def __init__(self, lock: "_RWLock", write: bool):
            self._lock, self._write = lock, write

        def __enter__(self):
            (self._lock.acquire_write if self._write else self._lock.acquire_read)()

        def __exit__(self, *exc):
            (self._lock.release_write if self._write else self._lock.release_read)()

    def read(self) -> "_RWLock._Side":
        """Context manager for the shared (reader) side."""
        return self._Side(self, write=False)

    def write(self) -> "_RWLock._Side":
        """Context manager for the exclusive (writer) side."""
        return self._Side(self, write=True)


@dataclass(frozen=True)
class SessionConfig:
    """The deterministic recipe a session's workload is rebuilt from.

    Everything a fresh process needs to reconstruct the *initial* database
    and claim function bit-identically lives here (and is persisted in the
    stream's metadata): the workload ``kind``, its size ``n`` and ``seed``,
    the solve ``budget``, and — for the uniqueness workload — the claim's
    ``gamma`` / ``window_width``.  ``storage_backed`` selects the paged
    :class:`~repro.store.columns.StoredDatabase` mode (all-normal
    workloads only).
    """

    kind: str = "linear_normal"
    n: int = 60
    seed: int = 0
    budget: float = 10.0
    gamma: float = 170.0
    window_width: int = 4
    storage_backed: bool = False
    page_size: int = 1024
    checkpoint_every: int = 10

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ServiceError(
                400, f"unknown workload kind {self.kind!r}; expected one of {WORKLOAD_KINDS}", "bad_kind"
            )
        if self.n < 2:
            raise ServiceError(400, f"n must be at least 2, got {self.n}", "bad_field")
        if self.seed < 0:
            raise ServiceError(400, f"seed must be nonnegative, got {self.seed}", "bad_field")
        if not (math.isfinite(self.budget) and self.budget > 0):
            raise ServiceError(
                400, f"budget must be finite and positive, got {self.budget}", "bad_field"
            )
        if not math.isfinite(self.gamma):
            raise ServiceError(400, f"gamma must be finite, got {self.gamma}", "bad_field")
        if self.window_width < 1:
            raise ServiceError(
                400, f"window_width must be at least 1, got {self.window_width}", "bad_field"
            )
        if self.kind == "urx_uniqueness" and self.n < self.window_width:
            raise ServiceError(
                400,
                f"n={self.n} is smaller than window_width={self.window_width}",
                "bad_field",
            )
        if self.page_size < 1:
            raise ServiceError(400, f"page_size must be positive, got {self.page_size}", "bad_field")

    def to_dict(self) -> Dict[str, object]:
        """The JSON form persisted in stream metadata."""
        return {
            "kind": self.kind,
            "n": int(self.n),
            "seed": int(self.seed),
            "budget": float(self.budget),
            "gamma": float(self.gamma),
            "window_width": int(self.window_width),
            "storage_backed": bool(self.storage_backed),
            "page_size": int(self.page_size),
            "checkpoint_every": int(self.checkpoint_every),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "SessionConfig":
        """Parse and validate a config from a request body / metadata dict."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ServiceError(400, f"unknown config fields {unknown}", "bad_field")
        merged = dict(payload)
        if "budget" in merged:
            merged["budget"] = require_number(merged, "budget")
        if not isinstance(merged.get("storage_backed", False), bool):
            raise ServiceError(400, "field 'storage_backed' must be a boolean", "bad_field")
        try:
            return cls(
                kind=str(merged.get("kind", "linear_normal")),
                n=int(merged.get("n", 60)),
                seed=int(merged.get("seed", 0)),
                budget=float(merged.get("budget", 10.0)),
                gamma=float(merged.get("gamma", 170.0)),
                window_width=int(merged.get("window_width", 4)),
                storage_backed=merged.get("storage_backed", False),
                page_size=int(merged.get("page_size", 1024)),
                checkpoint_every=int(merged.get("checkpoint_every", 10)),
            )
        except (TypeError, ValueError) as error:
            raise ServiceError(400, f"malformed session config: {error}", "bad_field") from None

    def build_inputs(self) -> Tuple[UncertainDatabase, object]:
        """The deterministic (database, claim function) pair for this config.

        ``linear_normal`` draws an all-normal array-backed database and a
        positive-weight linear claim from one seeded generator (the fast
        modular track, storable as column pages); ``urx_uniqueness`` is the
        paper's duplicity workload over the URx synthetic dataset (the
        decomposed track, discrete supports, in-memory only).
        """
        if self.kind == "linear_normal":
            rng = np.random.default_rng(self.seed)
            values = rng.normal(10.0, 2.0, self.n)
            stds = rng.uniform(0.5, 2.0, self.n)
            costs = rng.uniform(1.0, 3.0, self.n)
            weights = rng.uniform(0.5, 1.5, self.n)
            database = UncertainDatabase.from_normal_arrays(values, stds, costs=costs)
            return database, LinearClaim.from_vector(weights)
        from repro.datasets.synthetic import generate_urx
        from repro.experiments.workloads import uniqueness_workload

        workload = uniqueness_workload(
            generate_urx(self.n, self.seed),
            window_width=self.window_width,
            gamma=self.gamma,
        )
        return workload.database, workload.query_function


class Session:
    """One live session: planner + store + locks (see the module docstring)."""

    def __init__(
        self,
        session_id: str,
        config: SessionConfig,
        store: PlanStore,
        planner: StreamingPlanner,
        pages: Optional[DatabasePageStore] = None,
    ):
        self.session_id = str(session_id)
        self.config = config
        self.store = store
        self.planner = planner
        self.pages = pages
        self._lock = _RWLock()
        # Arbitrary-budget read-backs re-run the solver loop, which shares
        # the planner's calculator memos — concurrent *readers* must take
        # turns on it (writers are already excluded by the RW lock).
        self._readback_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def snapshot_plan(
        self, budget: Optional[float] = None, want_objective: bool = False
    ) -> Dict[str, object]:
        """The current plan (or its exact read-back at a smaller budget).

        Taken under the read lock, so the ``(version, plan)`` pair is
        always a committed planner state — never a half-applied event.
        The default budget returns the live plan by reference-copy; any
        other budget is answered from the anytime
        :class:`~repro.core.solver.SelectionTrace` (affordable step prefix
        + the solver's own resume loop), which is exactly the plan a
        from-scratch solve at that budget would produce.
        """
        with self._lock.read():
            planner = self.planner
            version = planner.version
            max_budget = float(planner.budget)
            if budget is None or abs(float(budget) - max_budget) <= 1e-12:
                served_budget = max_budget
                plan = [int(i) for i in planner.plan]
            else:
                served_budget = float(budget)
                if not served_budget > 0:
                    raise ServiceError(
                        400, f"budget must be positive, got {served_budget:g}", "bad_field"
                    )
                if served_budget > max_budget + 1e-9:
                    raise ServiceError(
                        400,
                        f"budget {served_budget:g} exceeds the session budget "
                        f"{max_budget:g}; the anytime trace only reads back smaller budgets",
                        "bad_field",
                    )
                with self._readback_lock:
                    plan = [int(i) for i in self._trace().indices_at(served_budget)]
            response: Dict[str, object] = {
                "session": self.session_id,
                "version": version,
                "budget": served_budget,
                "plan": plan,
                "signature": plan_signature_hex(version, plan),
            }
            if want_objective:
                with self._readback_lock:
                    response["objective"] = float(self.planner.objective(plan))
            return response

    def _trace(self) -> SelectionTrace:
        """The anytime trace over the planner's live step log."""
        planner = self.planner
        solver = planner._solver()
        database = planner.database

        def resume(prefix: List[int], budget: float) -> List[int]:
            return solver._run(database, budget, initial_selection=prefix)

        return SelectionTrace(
            "streaming", planner.budget, planner.steps, database, resume
        )

    def info(self) -> Dict[str, object]:
        """Session metadata: config, version, counters, storage state."""
        with self._lock.read():
            planner = self.planner
            # After events the live database is an overlay; the stored
            # (lazily loading) base is the overlay chain's root.
            root = planner.database._overlay_base or planner.database
            loaded = (
                root.loaded_columns()
                if self.pages is not None and hasattr(root, "loaded_columns")
                else None
            )
            return {
                "session": self.session_id,
                "config": self.config.to_dict(),
                "version": planner.version,
                "track": planner.track,
                "n": len(planner.database),
                "budget": float(planner.budget),
                "events": self.store.event_count(self.session_id),
                "warm_solves": planner.warm_solves,
                "cold_solves": planner.cold_solves,
                "last_mode": planner.last_mode,
                "storage_backed": self.pages is not None,
                "loaded_columns": loaded,
            }

    def objects(self, start: int = 0, count: int = 50) -> Dict[str, object]:
        """A slice of the session's objects (current view, post-events)."""
        start, count = int(start), int(count)
        if start < 0 or count < 1:
            raise ServiceError(400, "start must be >= 0 and count >= 1", "bad_field")
        with self._lock.read():
            database = self.planner.database
            n = len(database)
            stop = min(n, start + count)
            names = database.names[start:stop]
            return {
                "session": self.session_id,
                "version": self.planner.version,
                "n": n,
                "start": start,
                "objects": [
                    {
                        "index": index,
                        "name": names[index - start],
                        "current_value": float(database._current_values[index]),
                        "std": float(database._stds[index]),
                        "cost": float(database._costs[index]),
                    }
                    for index in range(start, stop)
                ],
            }

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def ingest(
        self, payload: Dict[str, object], idempotency_key: Optional[str] = None
    ) -> Dict[str, object]:
        """Durably journal one event, re-solve, and ack with the new plan.

        The sequence under the write lock:

        1. an already-seen ``idempotency_key`` short-circuits to a replay
           of the original ack (read from the plan row at its seq);
        2. the event is parsed and validated *before* anything durable —
           a 400 never leaves a journal row behind;
        3. the event row and the key row commit in one transaction;
        4. the planner's crash-safe apply folds the event in (warm-start
           re-solve, plan row + cursor + periodic checkpoint);
        5. storage-backed sessions write the dirty column page back.
        """
        with self._lock.write():
            if idempotency_key is not None:
                seen = self.store.idempotency_seq(self.session_id, idempotency_key)
                if seen is not None:
                    return self._replay_ack(seen, idempotency_key)
            event = self._parse_event(payload)
            seq = self.planner.events_applied
            with self.store.transaction():
                self.store.append_event(self.session_id, seq, event_to_dict(event))
                if idempotency_key is not None:
                    self.store.record_idempotency_key(
                        self.session_id, idempotency_key, seq
                    )
            summary = self.planner._durable_apply(event)
            self._write_back(event)
            plan = [int(i) for i in summary["plan"]]
            version = self.planner.version
            return {
                "session": self.session_id,
                "seq": seq,
                "version": version,
                "mode": summary["mode"],
                "prefix_kept": int(summary["prefix_kept"]),
                "plan": plan,
                "signature": plan_signature_hex(version, plan),
            }

    def _replay_ack(self, seq: int, idempotency_key: str) -> Dict[str, object]:
        """Reconstruct the ack a key's original ingest returned."""
        record = None
        for row_seq, row in self.store.plan_records(self.session_id, upto_seq=seq):
            if row_seq == seq:
                record = row
                break
        if record is None:
            # The key committed with its event but the plan row has not
            # landed yet (a crash happened in between and resume has not
            # caught up) — tell the client to retry, not to re-send.
            raise ServiceError(
                503,
                f"event {seq} is journaled but its plan is not yet durable; retry",
                "not_yet_applied",
                retryable=True,
            )
        version = int(seq) + 1
        plan = [int(i) for i in record["plan"]]
        return {
            "session": self.session_id,
            "seq": int(seq),
            "version": version,
            "mode": str(record.get("mode", "unknown")),
            "prefix_kept": int(record.get("prefix_kept", 0)),
            "plan": plan,
            "signature": plan_signature_hex(version, plan),
            "idempotent_replay": True,
        }

    def _parse_event(self, payload: Dict[str, object]) -> StreamEvent:
        """Parse + fully validate an event body (400s, nothing durable)."""
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ServiceError(400, "event body must carry a 'kind' field", "bad_event")
        try:
            event = event_from_dict(dict(payload))
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(400, f"malformed event: {error}", "bad_event") from None
        try:
            self.planner._validate_event(event)
        except (TypeError, ValueError) as error:
            raise ServiceError(400, str(error), "bad_event") from None
        return event

    def _write_back(self, event: StreamEvent) -> None:
        """Dirty-page writeback for storage-backed sessions (no-op otherwise)."""
        if self.pages is None:
            return
        if isinstance(event, RevealEvent):
            self.pages.write_back_reveal(int(event.index), float(event.value))
        elif isinstance(event, CostChangeEvent):
            self.pages.write_back_cost(int(event.index), float(event.cost))
        elif isinstance(event, RemoveEvent):
            self.pages.write_back_cost(int(event.index), math.inf)
        # Inserts live as overlay appends only: the stored base columns
        # always describe the planner's *initial* database.

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release planner ownership and close the store (idempotent)."""
        self.planner.release_owner()
        self.store.close()


class SessionManager:
    """Creates, resumes, serves and deletes the sessions of one service.

    One manager owns one root directory with one ``PlanStore`` file per
    session (``<root>/<session_id>.sqlite``).  Per-file stores keep
    cross-session lock contention at zero — sessions only ever contend on
    their own locks — and make deletion a file unlink.  The manager claims
    each planner's write ownership on construction, so a second manager
    (or a stray direct user) binding the same planner fails loudly.
    """

    def __init__(self, root: str, owner: str = "service"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.owner = str(owner)
        self._sessions: Dict[str, Session] = {}
        self._lock = threading.Lock()
        self._next_id = 1

    # ------------------------------------------------------------------ #
    # Creation and resume
    # ------------------------------------------------------------------ #
    def _allocate_id(self) -> str:
        while True:
            session_id = f"s{self._next_id:04d}"
            self._next_id += 1
            if session_id not in self._sessions and not (
                self.root / f"{session_id}.sqlite"
            ).exists():
                return session_id

    def create_session(self, payload: Dict[str, object]) -> Session:
        """Create a session from a config body; returns the live session."""
        config = SessionConfig.from_payload(payload)
        database, function = config.build_inputs()
        if config.storage_backed and not database.all_normal():
            raise ServiceError(
                400,
                f"workload kind {config.kind!r} is not all-normal and cannot "
                "be storage-backed",
                "bad_field",
            )
        with self._lock:
            session_id = self._allocate_id()
            store = PlanStore(
                self.root / f"{session_id}.sqlite", check_same_thread=False
            )
            pages: Optional[DatabasePageStore] = None
            try:
                if config.storage_backed:
                    pages = DatabasePageStore(store, session_id)
                    pages.save_database(database, page_size=config.page_size)
                    database = pages.open_database()
                planner = StreamingPlanner(
                    database,
                    function,
                    budget=config.budget,
                    checkpoint_every=config.checkpoint_every,
                )
                planner.bind_store(
                    store,
                    stream_id=session_id,
                    checkpoint_every=config.checkpoint_every,
                    metadata={_CONFIG_KEY: config.to_dict()},
                )
                planner.claim_owner(self.owner)
            except Exception:
                store.close()
                raise
            session = Session(session_id, config, store, planner, pages)
            self._sessions[session_id] = session
            return session

    def resume_all(self) -> List[str]:
        """Re-open every session found under the root directory.

        Each resume replays the journal past the last durable checkpoint
        (the planner's crash-safe resume), so a SIGKILL at any point —
        including between an event's journal row and its plan row —
        recovers to the exact state an uninterrupted run would hold.
        """
        resumed: List[str] = []
        for path in sorted(self.root.glob("*.sqlite")):
            session_id = path.stem
            with self._lock:
                if session_id in self._sessions:
                    continue
                store = PlanStore(path, check_same_thread=False)
                try:
                    meta = store.stream_metadata(session_id).get(_CONFIG_KEY)
                    if not isinstance(meta, dict):
                        store.close()
                        continue
                    config = SessionConfig.from_payload(meta)
                    database, function = config.build_inputs()
                    pages: Optional[DatabasePageStore] = None
                    if config.storage_backed:
                        pages = DatabasePageStore(store, session_id)
                        database = pages.open_database()
                    planner = StreamingPlanner.resume(
                        store,
                        database,
                        function,
                        stream_id=session_id,
                        checkpoint_every=config.checkpoint_every,
                    )
                    planner.claim_owner(self.owner)
                except Exception:
                    store.close()
                    raise
                self._sessions[session_id] = Session(
                    session_id, config, store, planner, pages
                )
                number = int(session_id[1:]) if session_id[1:].isdigit() else 0
                self._next_id = max(self._next_id, number + 1)
                resumed.append(session_id)
        return resumed

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def get(self, session_id: str) -> Session:
        """The live session, or a 404 ``ServiceError``."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ServiceError(404, f"no session {session_id!r}", "not_found")
        return session

    def session_ids(self) -> List[str]:
        """Every live session id, sorted."""
        with self._lock:
            return sorted(self._sessions)

    def delete_session(self, session_id: str) -> None:
        """Close a session and remove its store file (404 when unknown)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise ServiceError(404, f"no session {session_id!r}", "not_found")
        session.close()
        for suffix in ("", "-wal", "-shm"):
            path = self.root / f"{session_id}.sqlite{suffix}"
            if path.exists():
                path.unlink()

    def close(self) -> None:
        """Close every live session (idempotent)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()
