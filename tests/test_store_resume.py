"""Crash-resume determinism: kill at every event index, resume, compare.

The acceptance property of the durability layer: a planner killed at *any*
point — between events, or mid-event after the durable append but before
the plan commit — resumes from the store to the byte-identical
:func:`~repro.streaming.replay.plan_signature` of an uninterrupted run.
These tests exercise it exhaustively on a 50-event journal for all three
planner tracks, plus double-resume idempotence and a genuine SIGKILL of a
subprocess.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.claims.functions import LinearClaim
from repro.datasets.synthetic import generate_urx
from repro.experiments.workloads import uniqueness_workload
from repro.store import PlanStore, durable_replay, resume_replay
from repro.streaming import (
    Journal,
    StreamingPlanner,
    plan_signature,
    replay_journal,
    synthesize_journal,
)
from repro.streaming.events import (
    CostChangeEvent,
    InsertEvent,
    RemoveEvent,
    RevealEvent,
    event_to_dict,
)
from repro.uncertainty.correlation import GaussianWorldModel
from repro.uncertainty.database import UncertainDatabase

EVENTS = 50


def _normal_db(n, seed):
    rng = np.random.default_rng(seed)
    return UncertainDatabase.from_normal_arrays(
        rng.normal(size=n),
        np.abs(rng.normal(size=n)) + 0.1,
        np.abs(rng.normal(size=n)) + 0.5,
    )


def _track_setup(track):
    """(planner_factory, journal) for one planner track, ~50 events each."""
    if track == "modular":
        db = _normal_db(30, 1)
        fn = LinearClaim.from_vector(np.random.default_rng(11).uniform(0.2, 1, 30))
        factory = lambda: StreamingPlanner(db, fn, budget=0.25 * db.total_cost)
        journal = synthesize_journal(db, EVENTS, seed=5, insert_weight=0.7)
    elif track == "dependency":
        db = _normal_db(20, 2)
        fn = LinearClaim.from_vector(np.random.default_rng(12).normal(size=20))
        model = GaussianWorldModel.from_database(db, gamma=0.6)
        factory = lambda: StreamingPlanner(
            db, fn, budget=0.25 * db.total_cost, model=model
        )
        journal = synthesize_journal(db, EVENTS, seed=6, insert_weight=0.5)
    else:  # decomposed
        workload = uniqueness_workload(generate_urx(16, 3), window_width=4, gamma=30.0)
        db = workload.database
        factory = lambda: StreamingPlanner(
            db, workload.query_function, budget=0.3 * db.total_cost
        )
        journal = synthesize_journal(db, EVENTS, seed=9)
    return factory, journal


@pytest.mark.parametrize("track", ["modular", "dependency", "decomposed"])
def test_kill_and_resume_at_every_event_index(track, tmp_path):
    factory, journal = _track_setup(track)
    signature = plan_signature(replay_journal(journal, factory, compare_cold=False))
    for kill_at in range(EVENTS + 1):
        path = tmp_path / f"{track}-{kill_at}.db"
        partial = Journal(journal.events[:kill_at], journal.metadata)
        with PlanStore(path) as store:
            durable_replay(partial, factory, store, stream_id="s", checkpoint_every=7)
        with PlanStore(path) as store:
            resumed = resume_replay(store, factory, journal, stream_id="s")
            assert plan_signature(resumed) == signature, (track, kill_at)
            assert resumed.metadata["resumed_at"] == kill_at


@pytest.mark.parametrize("track", ["modular", "dependency"])
def test_sigkill_mid_event_window_resumes_identically(track, tmp_path):
    """Die between the durable event append and the plan commit."""
    factory, journal = _track_setup(track)
    signature = plan_signature(replay_journal(journal, factory, compare_cold=False))
    path = tmp_path / "mid.db"
    partial = Journal(journal.events[:9], journal.metadata)
    with PlanStore(path) as store:
        durable_replay(partial, factory, store, stream_id="s", checkpoint_every=7)
        # The crash window: event 9 is durable, its plan never committed.
        store.append_event("s", 9, event_to_dict(journal.events[9]))
    with PlanStore(path) as store:
        resumed = resume_replay(store, factory, journal, stream_id="s")
        assert plan_signature(resumed) == signature


@pytest.mark.parametrize("kill_at", [0, 1, 13, 29, 42, EVENTS - 1])
def test_double_resume_is_idempotent(kill_at, tmp_path):
    """Resuming a stream twice (a crash during recovery) changes nothing."""
    factory, journal = _track_setup("modular")
    signature = plan_signature(replay_journal(journal, factory, compare_cold=False))
    path = tmp_path / "p.db"
    partial = Journal(journal.events[:kill_at], journal.metadata)
    with PlanStore(path) as store:
        durable_replay(partial, factory, store, stream_id="s", checkpoint_every=7)
    with PlanStore(path) as store:
        first = resume_replay(store, factory, journal, stream_id="s")
    with PlanStore(path) as store:
        second = resume_replay(store, factory, journal, stream_id="s")
        assert plan_signature(first) == signature
        assert plan_signature(second) == signature
        assert second.metadata["resumed_at"] == EVENTS


def test_durable_state_matches_uninterrupted_fingerprint(tmp_path):
    factory, journal = _track_setup("modular")
    reference = factory()
    for event in journal:
        reference.apply(event)
    with PlanStore(tmp_path / "p.db") as store:
        planner = factory()
        planner.bind_store(store, stream_id="s", checkpoint_every=10)
        for event in journal:
            planner.apply(event)
        assert planner.state_fingerprint() == reference.state_fingerprint()
        # ... and the planner StreamingPlanner.resume rebuilds agrees too.
        base = factory()
        resumed = StreamingPlanner.resume(
            store, base.database, base.function, stream_id="s"
        )
        assert resumed.state_fingerprint() == reference.state_fingerprint()


#: Events the planner can never apply, each built against the base database.
_UNAPPLIABLE = {
    "index_past_end": lambda db: RevealEvent(index=len(db), value=0.5),
    "negative_index": lambda db: RevealEvent(index=-1, value=0.5),
    "float_index": lambda db: RevealEvent(index=1.7, value=0.5),
    "bool_index": lambda db: CostChangeEvent(index=True, cost=2.0),
    "string_index": lambda db: RemoveEvent(index="3"),
    "empty_name": lambda db: InsertEvent(name="", current_value=0.0, mean=0.0, std=1.0),
    "taken_name": lambda db: InsertEvent(
        name=db[0].name, current_value=0.0, mean=0.0, std=1.0
    ),
}


@pytest.mark.parametrize("case", sorted(_UNAPPLIABLE))
def test_unappliable_event_is_refused_before_it_is_journaled(case, tmp_path):
    # A journaled event that cannot be applied would fail every later event
    # and every resume, so validation must refuse it while nothing is durable.
    factory, journal = _track_setup("modular")
    with PlanStore(tmp_path / "p.db") as store:
        planner = factory()
        planner.bind_store(store, stream_id="s", checkpoint_every=10)
        with pytest.raises(ValueError):
            planner.apply(_UNAPPLIABLE[case](planner.database))
        assert store.event_count("s") == 0
        planner.apply(journal.events[0])
        assert planner.events_applied == 1
        base = factory()
        resumed = StreamingPlanner.resume(
            store, base.database, base.function, stream_id="s"
        )
        assert resumed.state_fingerprint() == planner.state_fingerprint()


def test_resume_rejects_diverged_journal(tmp_path):
    factory, journal = _track_setup("modular")
    partial = Journal(journal.events[:10], journal.metadata)
    with PlanStore(tmp_path / "p.db") as store:
        durable_replay(partial, factory, store, stream_id="s", checkpoint_every=5)
        other = synthesize_journal(
            _normal_db(30, 1), EVENTS, seed=99, insert_weight=0.7
        )
        with pytest.raises(ValueError, match="diverges"):
            resume_replay(store, factory, other, stream_id="s")


def test_resume_without_checkpoint_raises(tmp_path):
    factory, journal = _track_setup("modular")
    with PlanStore(tmp_path / "p.db") as store:
        with pytest.raises(ValueError, match="no checkpoint"):
            resume_replay(store, factory, journal, stream_id="missing")


def test_checkpoint_every_zero_keeps_only_binding_checkpoint(tmp_path):
    factory, journal = _track_setup("modular")
    signature = plan_signature(replay_journal(journal, factory, compare_cold=False))
    partial = Journal(journal.events[:17], journal.metadata)
    with PlanStore(tmp_path / "p.db") as store:
        durable_replay(partial, factory, store, stream_id="s", checkpoint_every=0)
        assert store.checkpoint_seqs("s") == [0]
    with PlanStore(tmp_path / "p.db") as store:
        resumed = resume_replay(store, factory, journal, stream_id="s")
        assert plan_signature(resumed) == signature


def test_subprocess_sigkill_resume(tmp_path):
    """A real hard kill: the CLI process dies with os._exit, then resumes."""
    store_path = tmp_path / "plans.db"
    base = [
        sys.executable,
        "-m",
        "repro.cli",
        "store",
    ]
    common = [
        "--store",
        str(store_path),
        "--n",
        "40",
        "--events",
        "24",
        "--seed",
        "3",
    ]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    killed = subprocess.run(
        base + ["run"] + common + ["--kill-after-events", "11"],
        env=env,
        capture_output=True,
        timeout=600,
    )
    assert killed.returncode == 137, killed.stderr.decode()
    resumed = subprocess.run(
        base + ["resume"] + common, env=env, capture_output=True, timeout=600
    )
    assert resumed.returncode == 0, resumed.stderr.decode()
    assert b"resumed stream" in resumed.stdout
    # The resumed signature equals an uninterrupted in-process run's.
    workload = uniqueness_workload(generate_urx(40, 3), window_width=4, gamma=40.0)
    journal = synthesize_journal(workload.database, 24, seed=3)
    budget = 0.15 * workload.database.total_cost
    factory = lambda: StreamingPlanner(
        workload.database, workload.query_function, budget=budget
    )
    signature = plan_signature(replay_journal(journal, factory, compare_cold=False))
    with PlanStore(store_path) as store:
        resumed_result = resume_replay(store, factory, journal, stream_id="stream")
        assert plan_signature(resumed_result) == signature
