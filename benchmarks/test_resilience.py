"""Resilience benchmark: checkpoint overhead, crash recovery, chaos replay (PR 9).

The same 200-event journal over the n = 2,000 uniqueness workload as
``BENCH_stream.json``, replayed three ways:

1. **warm, in-memory** — the PR-8 baseline the durability layer must not
   slow down;
2. **durable** — every event journaled to a WAL-mode SQLite
   :class:`~repro.store.PlanStore` before it is applied, plan + cursor +
   periodic checkpoint committed after.  The wall-clock ratio of (2) over
   (1) is the *checkpoint overhead* and must stay ≤ 10%;
3. **durable under chaos** — the same replay with deterministic injected
   faults (transient store locks, NaN event corruption); its plans must be
   byte-identical to the clean run's.

Crash recovery is verified *exhaustively*: for every one of the 201 event
boundaries the planner is restored from the last durable checkpoint, the
journaled events past it are re-applied, and the state fingerprint must
equal the uninterrupted run's at that boundary.  A sample of boundaries
additionally runs the full :func:`~repro.store.resume_replay` continuation
(byte-identical plan signatures), and one boundary is exercised by a
genuine SIGKILL: a ``repro.cli store run`` subprocess hard-killed with
``os._exit(137)`` mid-stream, then resumed in-process.

Everything goes to ``BENCH_resilience.json`` *before* the asserts;
``benchmarks/check_regressions.py`` enforces the committed ceilings in CI.
Deselected from tier-1 by the ``scale`` marker — run with
``pytest benchmarks/test_resilience.py -m scale``.

Reference numbers on the machine that introduced the store: warm replay
~1.5 s, durable replay within a few percent of it, full recovery from a
mid-journal kill ~1 s.
"""

import json
import os
import shutil
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.datasets.synthetic import generate_urx
from repro.experiments.workloads import uniqueness_workload
from repro.kernels import environment_metadata
from repro.resilience import FaultPlan, degradation_scope, fault_scope
from repro.store import PlanStore, durable_replay, resume_replay
from repro.streaming import (
    StreamingPlanner,
    plan_signature,
    replay_journal,
    synthesize_journal,
)
from repro.streaming.events import event_from_dict
from repro.streaming.replay import ReplayResult, apply_and_record

ARTIFACT_PATH = Path(__file__).parent / "BENCH_resilience.json"

# The BENCH_stream configuration, verbatim — overhead is measured against
# the same workload PR 8's speedup floor is pinned to.
N = 2000
EVENTS = 200
SEED = 3
JOURNAL_SEED = 7
GAMMA = 100.0
BUDGET_FRACTION = 0.15
CHECKPOINT_EVERY = 10

#: Durable replay may cost at most 10% over the in-memory warm replay.
OVERHEAD_CEILING = 1.10
#: Full recovery (checkpoint restore + finishing the journal) wall-clock cap.
RECOVERY_CEILING_SECONDS = 60.0
#: Boundaries whose full resume_replay continuation is also verified.
CONTINUATION_BOUNDARIES = (0, 67, 133, 199)
#: The boundary the genuine SIGKILL subprocess dies at.
SIGKILL_BOUNDARY = 100

CHAOS_PLAN = FaultPlan(seed=11, rates={"store": 0.1, "event": 0.05})


def _planner_factory() -> StreamingPlanner:
    workload = uniqueness_workload(
        generate_urx(N, SEED), window_width=4, gamma=GAMMA
    )
    return StreamingPlanner(
        workload.database,
        workload.query_function,
        budget=BUDGET_FRACTION * workload.database.total_cost,
    )


def _timed_replay(journal, store=None, stream_id="s"):
    """(wall seconds of the event loop, result) — planner build untimed."""
    planner = _planner_factory()
    if store is not None:
        planner.bind_store(
            store,
            stream_id=stream_id,
            checkpoint_every=CHECKPOINT_EVERY,
            metadata=dict(journal.metadata),
        )
    result = ReplayResult(metadata=dict(journal.metadata))
    started = time.perf_counter()
    for event in journal:
        apply_and_record(planner, event, result, False, time.perf_counter)
    return time.perf_counter() - started, result


def _boundary_fingerprints(journal):
    """State fingerprints of an uninterrupted run at every event boundary."""
    planner = _planner_factory()
    fingerprints = [planner.state_fingerprint()]
    for event in journal:
        planner.apply(event)
        fingerprints.append(planner.state_fingerprint())
    return fingerprints


def _restore_to_boundary(store, base, boundary, stream_id="s"):
    """Rebuild the planner state a crash at ``boundary`` events leaves behind."""
    seq, state = store.latest_checkpoint(stream_id, max_seq=boundary)
    planner = StreamingPlanner.restore(
        state, base.database, base.function, model=base._model
    )
    for event_seq, payload in store.events(stream_id, start_seq=seq):
        if event_seq >= boundary:
            break
        planner.apply(event_from_dict(payload))
    return planner


def _truncate_store_to_boundary(source, target, boundary):
    """Copy ``source`` and delete everything a kill at ``boundary`` predates."""
    shutil.copy(source, target)
    with sqlite3.connect(target) as raw:
        raw.execute("DELETE FROM events WHERE seq >= ?", (boundary,))
        raw.execute("DELETE FROM plans WHERE seq >= ?", (boundary,))
        raw.execute("DELETE FROM checkpoints WHERE seq > ?", (boundary,))
        if boundary == 0:
            raw.execute("DELETE FROM cursors")
        else:
            raw.execute("UPDATE cursors SET applied_seq = ?", (boundary - 1,))
        raw.commit()


def _sigkill_subprocess_resume(tmp_path):
    """Hard-kill a CLI `store run` mid-journal, resume in-process, compare.

    The CLI synthesizes its journal from ``--seed`` (not JOURNAL_SEED), so
    the uninterrupted reference signature is recomputed for that stream.
    """
    store_path = tmp_path / "sigkill.db"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "store",
        "run",
        "--store",
        str(store_path),
        "--n",
        str(N),
        "--events",
        str(EVENTS),
        "--seed",
        str(SEED),
        "--gamma",
        str(GAMMA),
        "--budget-fraction",
        str(BUDGET_FRACTION),
        "--checkpoint-every",
        str(CHECKPOINT_EVERY),
        "--kill-after-events",
        str(SIGKILL_BOUNDARY),
    ]
    killed = subprocess.run(command, env=env, capture_output=True, timeout=600)
    assert killed.returncode == 137, killed.stderr.decode()

    cli_journal = synthesize_journal(
        _planner_factory().database, EVENTS, seed=SEED
    )
    reference = plan_signature(
        replay_journal(cli_journal, _planner_factory, compare_cold=False)
    )
    started = time.perf_counter()
    with PlanStore(store_path) as store:
        resumed = resume_replay(
            store, _planner_factory, cli_journal, stream_id="stream"
        )
    recovery_seconds = time.perf_counter() - started
    identical = plan_signature(resumed) == reference
    return identical, recovery_seconds, resumed.metadata["resumed_at"]


@pytest.mark.scale
@pytest.mark.benchmark(group="resilience")
def test_checkpoint_overhead_and_crash_recovery(tmp_path, report):
    base = _planner_factory()
    journal = synthesize_journal(base.database, EVENTS, seed=JOURNAL_SEED)
    fingerprints = _boundary_fingerprints(journal)

    # Best-of-2 for both legs: the ratio gate should compare steady-state
    # replay costs, not whichever run a CI neighbor perturbed.
    warm_seconds = min(_timed_replay(journal)[0] for _ in range(2))
    durable_walls = []
    for attempt in range(2):
        with PlanStore(tmp_path / f"durable-{attempt}.db") as store:
            wall, result = _timed_replay(journal, store=store)
            durable_walls.append(wall)
    durable_seconds = min(durable_walls)
    overhead_ratio = durable_seconds / warm_seconds
    clean_signature = plan_signature(result)

    # The last durable store is the crash corpus: verify recovery at every
    # event boundary against the uninterrupted fingerprints.
    durable_path = tmp_path / "durable-1.db"
    boundaries_verified = 0
    with PlanStore(durable_path) as store:
        assert store.verify()["corrupt"] == []
        for boundary in range(EVENTS + 1):
            restored = _restore_to_boundary(store, base, boundary)
            if restored.state_fingerprint() == fingerprints[boundary]:
                boundaries_verified += 1

    # A sample of boundaries also runs the full resume continuation on a
    # store truncated to exactly the state a kill at that boundary leaves.
    continuations_identical = 0
    for boundary in CONTINUATION_BOUNDARIES:
        truncated = tmp_path / f"killed-{boundary}.db"
        _truncate_store_to_boundary(durable_path, truncated, boundary)
        with PlanStore(truncated) as store:
            resumed = resume_replay(store, _planner_factory, journal, stream_id="s")
            if plan_signature(resumed) == clean_signature:
                continuations_identical += 1

    # Chaos leg: the same durable replay under deterministic faults must
    # produce byte-identical plans — only the counters may differ.
    with fault_scope(CHAOS_PLAN), degradation_scope() as counters:
        with PlanStore(tmp_path / "chaos.db") as store:
            _, chaos_result = _timed_replay(journal, store=store)
    chaos_divergence = int(plan_signature(chaos_result) != clean_signature)

    sigkill_identical, recovery_seconds, resumed_at = _sigkill_subprocess_resume(
        tmp_path
    )

    artifact = {
        "description": (
            "Durability and fault injection over the BENCH_stream journal "
            "(200 events, n=2000 uniqueness): durable-replay overhead vs "
            "the in-memory warm baseline, exhaustive kill-and-resume "
            "verification at all 201 event boundaries, a genuine SIGKILL "
            "subprocess recovery, and a chaos replay under injected faults"
        ),
        "n": N,
        "events": EVENTS,
        "journal_seed": JOURNAL_SEED,
        "checkpoint_every": CHECKPOINT_EVERY,
        "warm_seconds": round(warm_seconds, 4),
        "durable_seconds": round(durable_seconds, 4),
        "checkpoint_overhead_ratio": round(overhead_ratio, 4),
        "checkpoint_overhead_ceiling": OVERHEAD_CEILING,
        "resume_boundaries_verified": boundaries_verified,
        "resume_boundaries_required": EVENTS + 1,
        "continuation_boundaries": list(CONTINUATION_BOUNDARIES),
        "continuations_identical": continuations_identical,
        "sigkill_boundary": SIGKILL_BOUNDARY,
        "sigkill_resumed_at": resumed_at,
        "sigkill_resume_identical": int(sigkill_identical),
        "sigkill_resume_required": 1,
        "recovery_seconds": round(recovery_seconds, 4),
        "recovery_ceiling_seconds": RECOVERY_CEILING_SECONDS,
        "chaos_fault_plan": json.loads(CHAOS_PLAN.to_json()),
        "chaos_plan_divergence": chaos_divergence,
        "chaos_divergence_ceiling": 0,
        "chaos_degradations": counters.snapshot(),
        "environment": environment_metadata(),
    }
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")
    report(
        f"resilience artifact -> {ARTIFACT_PATH.name}: "
        + json.dumps(artifact, indent=2)
    )

    # Artifact is on disk — now enforce the acceptance criteria.
    assert boundaries_verified == EVENTS + 1, (
        f"{EVENTS + 1 - boundaries_verified} event boundaries failed to "
        "restore to the uninterrupted state fingerprint"
    )
    assert continuations_identical == len(CONTINUATION_BOUNDARIES)
    assert sigkill_identical, "SIGKILL resume diverged from the clean run"
    assert chaos_divergence == 0, "injected faults changed the plans"
    assert counters.total() > 0, "the chaos plan injected nothing"
    assert overhead_ratio <= OVERHEAD_CEILING, (
        f"durable replay costs {overhead_ratio:.3f}x the warm baseline, "
        f"above the {OVERHEAD_CEILING}x ceiling"
    )
    assert recovery_seconds <= RECOVERY_CEILING_SECONDS
