"""stream: durable per-event re-planning at paper scale, then a crash-resume.

One cycle: build the n=2,000 URx uniqueness workload and a seeded
``synthesize_journal`` mix (reveals, cost changes, inserts, removes), solve
it, bind a fresh ``PlanStore`` (checkpoint every 10 events) — that is the
set-up.  Each cycle draws its dataset and journal from its own seed,
derived from the run's seed, so a run's percentiles pool several journals
instead of repeating one journal's few slowest events.  Then every journal
event is applied one at a time through the durable path (journal append ->
plan repair -> plan commit) and timed.  The journal is 205 events long, so
the crash point lies 5 events past the last checkpoint: the store is
closed there, then reopened and ``StreamingPlanner.resume`` is timed until
the planner serves again, five times (each resume restores the same
checkpoint and replays the same five events).  Cycles repeat until the run
has its time and at least 1,000 events.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import List, Optional

from common import Clock, Phase, files_size, mean, median, nearest_rank, p99_supported, self_peak_rss_mb
from spans import SpanRecorder
from layers import TraceView, attach

N = 2000
GAMMA = 100.0
BUDGET_FRACTION = 0.15
CHECKPOINT_EVERY = 10
EVENTS = 205
COLD_CHECKS_PER_CYCLE = 3
RESUMES_PER_CYCLE = 5
MIN_EVENTS = 1000
STREAM = "bench"


def _setup(seed: int, store_path: Path):
    import repro.experiments.workloads as workloads
    from repro.datasets.synthetic import generate_urx
    from repro.store.sqlite_store import PlanStore
    from repro.streaming import StreamingPlanner, synthesize_journal

    workload = workloads.uniqueness_workload(generate_urx(N, seed), window_width=4, gamma=GAMMA)
    journal = list(synthesize_journal(workload.database, EVENTS, seed=seed))
    store = PlanStore(store_path)
    planner = StreamingPlanner(
        workload.database,
        workload.query_function,
        budget=BUDGET_FRACTION * workload.database.total_cost,
    )
    planner.bind_store(store, stream_id=STREAM, checkpoint_every=CHECKPOINT_EVERY)
    return workload, journal, store, planner


def _store_files(path: Path) -> List[Path]:
    return [path, Path(f"{path}-wal")]


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def run_phase(seed: int, seconds: float, out: Path, rec: Optional[SpanRecorder], full: bool = True) -> Phase:
    from repro.store.sqlite_store import PlanStore
    from repro.streaming import StreamingPlanner

    clock = Clock(seconds, min_ops=MIN_EVENTS if full else 1)
    sampler = random.Random(seed)
    setups: List[float] = []
    events: List[float] = []
    resumes: List[float] = []
    failures: List[str] = []
    prefix_kept: List[int] = []
    cache_entries: List[int] = []
    warm = cold = 0
    grown_bytes = 0
    replayed = 0
    event_cpu = 0.0
    cycle_seconds = 0.0
    cycle = 0
    while clock.more(len(events), cycle_seconds):
        cycle_started = time.perf_counter()
        path = out / f"stream-{cycle}.sqlite"
        _remove_store(path)
        started = time.perf_counter()
        workload, journal, store, planner = _setup(seed * 1000 + cycle, path)
        setups.append(time.perf_counter() - started)
        bound_bytes = files_size(_store_files(path))
        checked = set(sampler.sample(range(EVENTS), COLD_CHECKS_PER_CYCLE))
        for position, event in enumerate(journal):
            token = rec.begin("op") if rec is not None else None
            cpu_started = time.thread_time()
            started = time.perf_counter()
            planner.apply(event)
            events.append(time.perf_counter() - started)
            event_cpu += time.thread_time() - cpu_started
            if token is not None:
                rec.end(token)
                prefix_kept.append(planner.last_prefix_kept)
            if position in checked and planner.plan != planner.cold_plan():
                failures.append(f"cycle {cycle} event {position}: warm plan differs from cold_plan()")
        grown_bytes += files_size(_store_files(path)) - bound_bytes
        if rec is not None and "core.ev_rebase" in rec.latest:
            cache_entries.append(sum(rec.latest["core.ev_rebase"]().cache_sizes()))
        warm += planner.warm_solves
        cold += planner.cold_solves
        live_fingerprint = planner.state_fingerprint()
        store.close()

        for _ in range(RESUMES_PER_CYCLE):
            started = time.perf_counter()
            reopened = PlanStore(path)
            resumed = StreamingPlanner.resume(reopened, workload.database, workload.query_function, stream_id=STREAM)
            resumes.append(time.perf_counter() - started)
            replayed += resumed.events_applied - reopened.latest_checkpoint(STREAM)[0]
            if resumed.state_fingerprint() != live_fingerprint:
                failures.append(f"cycle {cycle}: resumed state fingerprint differs from the live planner's")
            reopened.close()
        _remove_store(path)
        cycle += 1
        cycle_seconds = time.perf_counter() - cycle_started

    named = {
        "replan_p50_ms": 1e3 * median(events),
        "replan_p95_ms": 1e3 * nearest_rank(events, 0.95),
        "replan_p99_ms": 1e3 * nearest_rank(events, 0.99),
        "resume_s": mean(resumes),
        "resume_p50_s": median(resumes),
        "event_cpu_share": event_cpu / sum(events),
        "events": len(events),
        "cycles": cycle,
    }
    if not p99_supported(len(events)):
        del named["replan_p99_ms"]
    phase = Phase(
        e2e={
            "setup_s": median(setups),
            "peak_rss_mb": self_peak_rss_mb(),
            "main_ms": 1e3 * median(events),
            # The mean, as for solve's GreedyMinVar solves: a resume is short
            # and its median jumps between the host's two speeds.
            "side_ms": 1e3 * mean(resumes),
            "tail_ms": 1e3 * nearest_rank(events, 0.95),
            "ops_per_s": len(events) / sum(events),
        },
        named=named,
        attempted=len(events) + len(resumes),
        failures=failures,
    )
    if rec is not None:
        view = TraceView()
        # Only the durable events are ops: the per-op layer metrics read
        # against ``replan_p50_ms``.  Resumes are reported per call
        # (``store.restore_ms``, ``store.replayed_events``).
        view.add(rec.payload(), ("op",))
        attach(
            phase,
            view,
            len(events),
            {
                "streaming.warm_ratio": warm / max(warm + cold, 1),
                "streaming.prefix_kept": sum(prefix_kept) / max(len(prefix_kept), 1),
                "store.bytes_per_event": grown_bytes / max(len(events), 1),
                "store.replayed_events": replayed / max(len(resumes), 1),
                "core.ev_cache_entries": median(cache_entries) if cache_entries else 0.0,
            },
        )
    return phase
