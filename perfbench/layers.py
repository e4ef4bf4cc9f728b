"""Per-layer metrics and the parts table, computed from recorded spans.

Time metrics are milliseconds *per op* of the workload (a request, a
durable event, a solve round, a matrix), so a layer's value reads against
the end-to-end latency of one op and the layers of one op add up.  Spans
count toward an op when they descend from one of the op's root spans; a
few per-call metrics (set-up builds, checkpoints, restores) use every span
the traced phase recorded.  A layer a workload never enters reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set

from spans import KERNELS, SpanIndex, layer_of

MIB = 1024.0 * 1024.0


class TraceView:
    """Spans of one or more processes, with the op-root spans marked."""

    def __init__(self) -> None:
        self.parts: List[tuple] = []  # (SpanIndex, ids of op roots and their descendants, root ids)
        self.counts: Dict[str, int] = defaultdict(int)
        self.peaks: Dict[str, float] = defaultdict(float)
        self.degradations: Dict[str, int] = defaultdict(int)

    def add(self, payload: dict, root_names: Sequence[str], request_ids: Optional[Set[str]] = None) -> SpanIndex:
        """Add one process's record; its op roots are the spans named in ``root_names``.

        With ``request_ids``, only roots carrying one of those ids count.
        """
        index = SpanIndex(payload["spans"])
        roots = [
            int(span[0])
            for name in root_names
            for span in index.named(name)
            if request_ids is None or span[5] in request_ids
        ]
        self.parts.append((index, set(index.under(roots)) | set(roots), roots))
        for key, value in payload.get("counts", {}).items():
            self.counts[key] += value
        for key, value in payload.get("peaks", {}).items():
            self.peaks[key] = max(self.peaks[key], value)
        for key, value in payload.get("degradations", {}).items():
            self.degradations[key] += value
        return index

    def _spans(self, name: str, in_ops: bool) -> Iterable[tuple]:
        for index, inside, _ in self.parts:
            for span in index.named(name):
                if not in_ops or int(span[0]) in inside:
                    yield index, span

    def duration(self, name: str, in_ops: bool = True, parent: str = None) -> float:
        """Seconds in spans called ``name`` (only those directly under ``parent``, if given)."""
        return sum(
            span[3] - span[2]
            for index, span in self._spans(name, in_ops)
            if parent is None or index.spans.get(int(span[4]), (None, None))[1] == parent
        )

    def self_time(self, name: str, in_ops: bool = True) -> float:
        return sum(index.self_time(int(span[0])) for index, span in self._spans(name, in_ops))

    def calls(self, name: str, in_ops: bool = True) -> int:
        return sum(1 for _ in self._spans(name, in_ops))

    def size(self, name: str, in_ops: bool = True) -> int:
        return sum(int(span[7]) for _, span in self._spans(name, in_ops))

    def counted(self, name: str) -> int:
        """Calls counted as ``name`` on spans inside ops (see ``SpanRecorder.count_in_span``)."""
        return sum(
            int(index.spans[span_id][8].get(name, 0)) for index, inside, _ in self.parts for span_id in inside
        )

    def per_call_ms(self, name: str) -> float:
        calls = self.calls(name, in_ops=False)
        return 1e3 * self.duration(name, in_ops=False) / calls if calls else 0.0

    def layer_self(self) -> Dict[str, float]:
        """Seconds of self time per layer over every op, roots included."""
        totals: Dict[str, float] = defaultdict(float)
        for index, inside, _ in self.parts:
            for span_id in inside:
                totals[layer_of(index, index.spans[span_id])] += index.self_time(span_id)
        return dict(totals)

    def root_seconds(self) -> float:
        return sum(index.duration(root) for index, _, roots in self.parts for root in roots)


def parts_table(view: TraceView, op_seconds: float, outside: Dict[str, float]) -> Dict[str, float]:
    """Self seconds per layer, plus ``unattributed`` so the parts sum to the total.

    ``op_seconds`` is the end-to-end time the parts must add up to (summed
    over ops and processes); ``outside`` holds parts measured outside any
    span (the service's socket time).  An op root's own self time is time
    inside the op that no layer span covers, so it is unattributed.
    """
    parts = {name: seconds for name, seconds in view.layer_self().items() if not name.startswith("op")}
    parts.update(outside)
    parts["unattributed"] = op_seconds - sum(parts.values())
    return parts


def attach(phase, view: TraceView, ops: int, extra: Dict[str, float], total: Optional[float] = None,
           outside: Optional[Dict[str, float]] = None) -> None:
    """Fill a traced phase's parts table and per-layer metrics.

    ``total`` defaults to the summed duration of the op roots.
    """
    total = view.root_seconds() if total is None else total
    phase.parts = parts_table(view, total, outside or {})
    phase.parts_total_s = total
    phase.layers = layer_metrics(view, ops, extra, phase.parts)


def layer_metrics(view: TraceView, ops: int, extra: Dict[str, float], parts: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric BENCHMARK.json lists, for one traced phase."""
    per_op = 1e3 / max(ops, 1)
    layer_self = view.layer_self()
    checkpoints = view.calls("store.save_checkpoint", in_ops=False)
    serialized = view.calls("service.serialize")
    degradations = view.degradations
    metrics = {
        "service.socket_ms": 0.0,
        "service.handler_ms": view.self_time("service.handler") * per_op,
        "service.lock_wait_ms": view.duration("service.lock_wait") * per_op,
        "service.lock_hold_ms": (view.duration("service.session") - view.duration("service.lock_wait")) * per_op,
        "service.readback_ms": view.duration("core.readback", parent="service.session") * per_op,
        "service.serialize_ms": view.duration("service.serialize") * per_op,
        "service.response_bytes": view.size("service.serialize") / serialized if serialized else 0.0,
        "streaming.apply_ms": view.self_time("streaming.apply") * per_op,
        "streaming.warm_ratio": 0.0,
        "streaming.prefix_kept": 0.0,
        "store.event_commit_ms": layer_self.get("store.event_commit", 0.0) * per_op,
        "store.plan_commit_ms": layer_self.get("store.plan_commit", 0.0) * per_op,
        "store.checkpoint_ms": view.per_call_ms("store.save_checkpoint"),
        "store.checkpoint_bytes": view.counts.get("store.checkpoint_bytes", 0) / checkpoints if checkpoints else 0.0,
        "store.bytes_per_event": 0.0,
        "store.page_loads": float(view.calls("store.load_column", in_ops=False)),
        "store.writeback_ms": view.duration("store.write_back") * per_op,
        "store.restore_ms": view.per_call_ms("store.restore"),
        "store.replayed_events": 0.0,
        "store.retries": float(sum(v for k, v in degradations.items() if k.startswith("store."))),
        "kernels.fallbacks": float(sum(v for k, v in degradations.items() if k.startswith("kernels."))),
        "resilience.degradations": float(sum(degradations.values())),
        "core.solve_ms": view.self_time("core.solve") * per_op,
        "core.steps": view.size("core.solve") / max(ops, 1),
        "core.benefit_evals": view.counted("core.benefit_evals") / max(ops, 1),
        "core.ev_rebase_ms": view.duration("core.ev_rebase") * per_op,
        "core.ev_cache_entries": 0.0,
        "uncertainty.condition_ms": view.duration("uncertainty.condition") * per_op,
        "uncertainty.gains_ms": view.duration("uncertainty.gains") * per_op,
        "uncertainty.engine_mb": view.peaks.get("uncertainty.engine_bytes", 0.0) / MIB,
        "uncertainty.overlay_ms": view.duration("uncertainty.overlay") * per_op,
        "experiments.shard_s": 0.0,
        "experiments.shard_imbalance": 0.0,
        "experiments.pool_wait_s": 0.0,
        "workloads.build_ms": view.per_call_ms("workloads.build"),
        "trace.unattributed_ms": parts.get("unattributed", 0.0) * per_op,
    }
    for kernel in KERNELS:
        name = f"kernels.{kernel}"
        metrics[f"{name}.calls"] = view.calls(name) / max(ops, 1)
        metrics[f"{name}_ms"] = view.duration(name) * per_op
        metrics[f"{name}.bytes"] = view.size(name) / max(ops, 1)
    for key, value in extra.items():
        if key not in metrics:
            raise KeyError(f"unknown per-layer metric {key!r}")
        metrics[key] = float(value)
    return metrics
