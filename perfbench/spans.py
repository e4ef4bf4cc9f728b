"""In-memory span recorder and the probes that wrap the program's layer entry points.

A span is ``(id, name, start, end, parent, request_id, thread, size,
counts)``; ``size`` is the bytes a kernel or serializer handled, or the
objects a solver run returned, and ``counts`` tallies the counted calls
made while the span was the innermost one open on its thread.  Spans nest
per thread: a probe opened while another is open on the same thread
becomes its child, so a span's *self time* is its duration minus the time
its children cover.  Spans stay in memory and are written out once, at the
end of a run (:meth:`SpanRecorder.dump`).

The probes time the program from outside: :func:`install` replaces a
function or method with a wrapper that opens a span around the original
call, and returns a callable that puts every original back.  Nothing in
``src/`` is edited.  Forked pool workers inherit the wrappers; a worker
records into a fresh span list and appends it to a per-process file after
each shard it runs (see :func:`_shard_probe`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, int, Optional[str], int, int, Dict[str, int]]


class SpanRecorder:
    """Collects spans and counters for one process.

    ``worker_dir`` is where forked pool workers write their spans; the
    parent reads them back with :func:`load_worker_spans`.
    """

    def __init__(self, worker_dir: Optional[Path] = None):
        self.pid = self.origin_pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: List[Span] = []
        self._thread_counts: List[Dict[str, int]] = []
        self.peaks: Dict[str, float] = defaultdict(float)
        self.latest: Dict[str, weakref.ref] = {}
        self.degradations_at_start: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request_id: Optional[str] = None) -> list:
        """Open a span on the calling thread; pass the token to :meth:`end`."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        token = [next(self._ids), name, time.perf_counter(), parent, request_id, {}]
        stack.append(token)
        return token

    def end(self, token: list, size: int = 0) -> None:
        """Close a span opened by :meth:`begin`."""
        finished = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is token:
            stack.pop()
        else:
            stack.remove(token)
        span_id, name, started, parent, request_id, counts = token
        self.spans.append(
            (span_id, name, started, finished, parent, request_id, threading.get_ident(), int(size), counts)
        )

    def count_in_span(self, name: str) -> None:
        """Count one call on the calling thread's innermost open span.

        A call made with no span open (set-up, correctness checks) is not
        counted, so the tally can be limited to the spans inside ops.
        """
        stack = self._stack()
        if stack:
            counts = stack[-1][5]
            counts[name] = counts.get(name, 0) + 1

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to a counter (per-thread tallies, merged on read)."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            with self._lock:
                self._thread_counts.append(counts)
        counts[name] += amount

    @property
    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = defaultdict(int)
        for counts in list(self._thread_counts):
            for name, value in counts.items():
                merged[name] += value
        return dict(merged)

    def peak(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen under ``name``."""
        with self._lock:
            self.peaks[name] = max(self.peaks[name], float(value))

    def reset_for_child(self) -> None:
        """Start a fresh record in a forked worker (drops the parent's spans)."""
        self.pid = os.getpid()
        self.spans = []
        self._thread_counts = []
        self.peaks = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.degradations_at_start = degradation_snapshot()

    def payload(self) -> dict:
        """Everything recorded, as JSON-ready data."""
        return {
            "pid": self.pid,
            "spans": [list(span) for span in self.spans],
            "counts": self.counts,
            "peaks": dict(self.peaks),
            "degradations": degradation_delta(self.degradations_at_start),
        }

    def dump(self, path: Path) -> None:
        """Write :meth:`payload` to ``path``."""
        Path(path).write_text(json.dumps(self.payload()))


def degradation_snapshot() -> Dict[str, int]:
    """The program's process-wide degradation counters (``site.action``)."""
    from repro.resilience.degradation import global_degradations

    return dict(global_degradations().snapshot())


def degradation_delta(start: Dict[str, int]) -> Dict[str, int]:
    """Counters recorded since ``start`` was snapshotted."""
    now = degradation_snapshot()
    return {key: value - start.get(key, 0) for key, value in now.items() if value != start.get(key, 0)}


# --------------------------------------------------------------------------- #
# Probe kinds: each builds a wrapper around ``fn`` recording into ``rec``
# --------------------------------------------------------------------------- #
def _array_bytes(values: Iterable[object]) -> int:
    total = 0
    for value in values:
        nbytes = getattr(value, "nbytes", None)
        if isinstance(nbytes, int):
            total += nbytes
    return total


def _span_probe(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        token = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(token)

    return wrapper


def _count_probe(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        rec.count_in_span(name)
        return fn(*args, **kwargs)

    return wrapper


def _kernel_probe(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    # Bytes are computed from the sizes of the array arguments and the
    # array result, not measured: a CPU run has no memory-traffic counter.
    def wrapper(*args, **kwargs):
        token = rec.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.end(token, _array_bytes(list(args) + list(kwargs.values()) + [result]))

    return wrapper


def _handler_probe(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    # The client sends X-Request-Id; the span carries it so client latency
    # and server handler time can be joined per request.
    def wrapper(handler, *args, **kwargs):
        token = rec.begin(name, handler.headers.get("X-Request-Id"))
        try:
            return fn(handler, *args, **kwargs)
        finally:
            rec.end(token)

    return wrapper


def _sized_result_probe(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    # Size is the length of the result: the characters of serialized JSON,
    # or the objects a solver run returned.
    def wrapper(*args, **kwargs):
        token = rec.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.end(token, len(result) if isinstance(result, (list, str)) else 0)

    return wrapper


def _keep_result_probe(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    # A span that also keeps a weak reference to the latest result, so a
    # derived object (a re-based calculator) can be inspected at run end.
    def wrapper(*args, **kwargs):
        token = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
            rec.latest[name] = weakref.ref(result)
            return result
        finally:
            rec.end(token)

    return wrapper


def _checkpoint_probe(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    # Checkpoint bytes: the size of the state as JSON (computed, outside
    # the span).
    def wrapper(store, stream_id, seq, state, *args, **kwargs):
        token = rec.begin(name)
        try:
            return fn(store, stream_id, seq, state, *args, **kwargs)
        finally:
            rec.end(token)
            rec.count("store.checkpoint_bytes", len(json.dumps(state)))

    return wrapper


def _transaction_probe(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    # ``PlanStore.transaction()`` returns a context manager; the span runs
    # from BEGIN to COMMIT so the statements inside become its children.
    class _Timed:
        def __init__(self, inner):
            self._inner = inner
            self._token = None

        def __enter__(self):
            self._token = rec.begin(name)
            return self._inner.__enter__()

        def __exit__(self, *exc_info):
            try:
                return self._inner.__exit__(*exc_info)
            finally:
                rec.end(self._token)

    def wrapper(*args, **kwargs):
        return _Timed(fn(*args, **kwargs))

    return wrapper


def _engine_probe(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    # Engine memory: bytes of the arrays the engine holds after __init__.
    def wrapper(engine, *args, **kwargs):
        fn(engine, *args, **kwargs)
        rec.peak(name, _array_bytes(vars(engine).values()))

    return wrapper


def _shard_probe(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    # Runs in forked pool workers: the first call in a new process drops
    # the spans inherited from the parent; every call appends this worker's
    # record to a per-process file the parent reads after the matrix.
    def wrapper(*args, **kwargs):
        if os.getpid() != rec.pid:
            rec.reset_for_child()
        token = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(token)
            if rec.worker_dir is not None and os.getpid() != rec.origin_pid:
                rec.dump(Path(rec.worker_dir) / f"worker-{os.getpid()}.json")

    return wrapper


_KINDS = {
    "span": _span_probe,
    "count": _count_probe,
    "kernel": _kernel_probe,
    "handler": _handler_probe,
    "sized": _sized_result_probe,
    "keep": _keep_result_probe,
    "checkpoint": _checkpoint_probe,
    "transaction": _transaction_probe,
    "engine": _engine_probe,
    "shard": _shard_probe,
}

KERNELS = (
    "outer_downdate",
    "conditional_gains",
    "marginal_gains",
    "convolve_support",
    "normal_surprise_scores",
    "banded_downdate",
)

#: (target, span or counter name, probe kind).  A target is
#: ``module:attribute`` or ``module:Class.method``.
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.app:ServiceHandler.do_GET", "service.handler", "handler"),
    ("repro.service.app:ServiceHandler.do_POST", "service.handler", "handler"),
    ("repro.service.app:canonical_json", "service.serialize", "sized"),
    ("repro.service.sessions:_RWLock.acquire_read", "service.lock_wait", "span"),
    ("repro.service.sessions:_RWLock.acquire_write", "service.lock_wait", "span"),
    ("repro.service.sessions:Session.ingest", "service.session", "span"),
    ("repro.service.sessions:Session.snapshot_plan", "service.session", "span"),
    ("repro.core.solver:SelectionTrace.indices_at", "core.readback", "span"),
    ("repro.streaming.planner:StreamingPlanner.apply", "streaming.apply", "span"),
    ("repro.streaming.planner:StreamingPlanner._durable_apply", "streaming.apply", "span"),
    ("repro.streaming.planner:StreamingPlanner.restore", "store.restore", "span"),
    ("repro.store.sqlite_store:PlanStore.append_event", "store.append_event", "span"),
    ("repro.store.sqlite_store:PlanStore.record_idempotency_key", "store.record_idempotency_key", "span"),
    ("repro.store.sqlite_store:PlanStore.record_plan", "store.record_plan", "span"),
    ("repro.store.sqlite_store:PlanStore.set_cursor", "store.set_cursor", "span"),
    ("repro.store.sqlite_store:PlanStore.transaction", "store.transaction", "transaction"),
    ("repro.store.sqlite_store:PlanStore.save_checkpoint", "store.save_checkpoint", "checkpoint"),
    ("repro.store.columns:DatabasePageStore.load_column", "store.load_column", "span"),
    ("repro.store.columns:DatabasePageStore.write_back_reveal", "store.write_back", "span"),
    ("repro.store.columns:DatabasePageStore.write_back_cost", "store.write_back", "span"),
    ("repro.core.greedy:GreedyMinVar._run", "core.solve", "sized"),
    ("repro.core.greedy:GreedyDep._run", "core.solve", "sized"),
    ("repro.core.greedy:GreedyMaxPr._run", "core.solve", "sized"),
    ("repro.core.greedy:RandomSelector.select_indices", "core.solve", "sized"),
    ("repro.core.expected_variance:DecomposedEVCalculator.marginal_gain", "core.benefit_evals", "count"),
    ("repro.core.expected_variance:DecomposedEVCalculator.rebased", "core.ev_rebase", "keep"),
    ("repro.uncertainty.correlation:ConditionalGaussian.__init__", "uncertainty.engine_bytes", "engine"),
    ("repro.uncertainty.correlation:ConditionalGaussian.condition_on", "uncertainty.condition", "span"),
    ("repro.uncertainty.correlation:ConditionalGaussian.gains", "uncertainty.gains", "span"),
    ("repro.uncertainty.database:UncertainDatabase.conditioned", "uncertainty.overlay", "span"),
    ("repro.uncertainty.database:UncertainDatabase.with_cost", "uncertainty.overlay", "span"),
    ("repro.uncertainty.database:UncertainDatabase.with_appended", "uncertainty.overlay", "span"),
    ("repro.workloads.spec:WorkloadSpec.build", "workloads.build", "span"),
    ("repro.experiments.workloads:uniqueness_workload", "workloads.build", "span"),
    ("repro.experiments.workloads:fairness_window_comparison_workload", "workloads.build", "span"),
    ("repro.experiments.matrix:_execute_workload_shard", "experiments.shard", "shard"),
    ("repro.experiments.matrix:ScenarioMatrix.run", "experiments.matrix", "span"),
) + tuple((f"repro.kernels:{k}", f"kernels.{k}", "kernel") for k in KERNELS)


def _resolve(target: str):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def install(rec: SpanRecorder, probes: Sequence[Tuple[str, str, str]] = PROBES) -> Callable[[], None]:
    """Wrap every probe target; returns a callable restoring the originals."""
    rec.degradations_at_start = degradation_snapshot()
    undo = []
    for target, name, kind in probes:
        owner, attr = _resolve(target)
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapper = functools.update_wrapper(_KINDS[kind](rec, name, fn), fn)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        undo.append((owner, attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


def load_worker_spans(worker_dir: Path) -> List[dict]:
    """The records forked pool workers wrote (one per worker process)."""
    return [json.loads(path.read_text()) for path in sorted(Path(worker_dir).glob("worker-*.json"))]


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
class SpanIndex:
    """Per-span self time and descendant lookups over one process's spans."""

    def __init__(self, spans: Iterable[Sequence]):
        self.spans = {int(s[0]): tuple(s) for s in spans}
        self.children: Dict[int, List[int]] = defaultdict(list)
        self.by_name: Dict[str, List[tuple]] = defaultdict(list)
        for span in self.spans.values():
            self.children[int(span[4])].append(int(span[0]))
            self.by_name[span[1]].append(span)

    def duration(self, span_id: int) -> float:
        span = self.spans[span_id]
        return span[3] - span[2]

    def self_time(self, span_id: int) -> float:
        covered = sum(self.duration(child) for child in self.children.get(span_id, ()))
        return self.duration(span_id) - covered

    def named(self, name: str) -> List[tuple]:
        return self.by_name.get(name, [])

    def under(self, root_ids: Iterable[int]) -> List[int]:
        """Every span id strictly below the given roots."""
        found: List[int] = []
        frontier = list(root_ids)
        while frontier:
            current = frontier.pop()
            for child in self.children.get(current, ()):
                found.append(child)
                frontier.append(child)
        return found


#: Span name -> the layer its self time is charged to in the parts table.
#: Store transactions are split by what they commit (see ``layer_of``).
LAYER_OF_SPAN = {
    "store.append_event": "store.event_commit",
    "store.record_idempotency_key": "store.event_commit",
    "store.record_plan": "store.plan_commit",
    "store.set_cursor": "store.plan_commit",
    "store.save_checkpoint": "store.checkpoint",
    "store.load_column": "store.page_load",
    "store.write_back": "store.writeback",
}


def layer_of(index: SpanIndex, span: tuple) -> str:
    """The parts-table layer a span's self time belongs to."""
    name = span[1]
    if name == "store.transaction":
        child_names = {index.spans[c][1] for c in index.children.get(int(span[0]), ())}
        return "store.plan_commit" if "store.record_plan" in child_names else "store.event_commit"
    return LAYER_OF_SPAN.get(name, name)
