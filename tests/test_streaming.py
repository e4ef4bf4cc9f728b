"""Streaming engine tests: overlays, cache safety, warm-vs-cold equivalence.

The load-bearing contract is warm-start-vs-cold equivalence: after *every*
journal event, the incremental plan must equal a from-scratch solve on the
identical post-event database — exact on selections, 1e-9 on objectives —
across seeds and tracks.  The overlay tests pin the sharing/GC guarantees
``with_cost`` / ``with_appended`` advertise, and the cache-leakage tests
cover the satellite requirement that solver caches keyed by database
identity treat every overlay as a distinct database.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from repro.claims import lower_is_stronger, subtraction_strength
from repro.claims.functions import LinearClaim
from repro.claims.perturbations import window_sum_perturbations
from repro.claims.quality import Duplicity, Fragility
from repro.core import greedy
from repro.core.expected_variance import DecomposedEVCalculator
from repro.core.greedy import GreedyMaxPr, GreedyMinVar
from repro.datasets.synthetic import generate_urx
from repro.experiments.workloads import uniqueness_workload
from repro.streaming import (
    CostChangeEvent,
    InsertEvent,
    Journal,
    RemoveEvent,
    RevealEvent,
    StreamingPlanner,
    event_from_dict,
    event_to_dict,
    plan_signature,
    replay_journal,
    synthesize_journal,
)
from repro.uncertainty.correlation import GaussianWorldModel
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import NormalSpec
from repro.uncertainty.objects import UncertainObject


def _normal_db(n: int, seed: int) -> UncertainDatabase:
    rng = np.random.default_rng(seed)
    return UncertainDatabase.from_normal_arrays(
        rng.normal(size=n),
        rng.uniform(0.5, 2.0, n),
        costs=rng.uniform(1.0, 5.0, n),
    )


# --------------------------------------------------------------------- #
# Overlay mechanics
# --------------------------------------------------------------------- #
class TestCostOverlay:
    def test_shares_stat_vectors_with_root(self):
        db = _normal_db(12, 0)
        overlay = db.with_cost(3, 9.0)
        assert overlay.means is db.means
        assert overlay.variances is db.variances
        assert overlay.stds is db.stds
        assert overlay.current_values is db.current_values

    def test_cost_vector_and_object_view_updated(self):
        db = _normal_db(12, 0)
        overlay = db.with_cost(3, 9.0)
        assert overlay.costs[3] == 9.0
        assert overlay[3].cost == 9.0
        assert overlay[3].mean == db[3].mean
        assert overlay.total_cost == pytest.approx(
            db.total_cost - db.costs[3] + 9.0
        )
        # The base is untouched.
        assert db.costs[3] != 9.0
        assert overlay.cost_overrides == {3: 9.0}

    def test_infinite_cost_tombstone_allowed(self):
        db = _normal_db(6, 1)
        overlay = db.with_cost(2, math.inf)
        assert overlay.costs[2] == math.inf
        assert overlay[2].cost == math.inf

    def test_validation(self):
        db = _normal_db(6, 1)
        with pytest.raises(ValueError):
            db.with_cost(0, 0.0)
        with pytest.raises(ValueError):
            db.with_cost(0, -1.0)
        with pytest.raises(IndexError):
            db.with_cost(6, 1.0)

    def test_cost_only_overlay_stays_pure_normal(self):
        db = _normal_db(6, 2)
        overlay = db.with_cost(1, 2.0)
        assert overlay._is_pure_normal_arrays()


class TestAppendOverlay:
    def test_appends_share_root_prefix(self):
        db = _normal_db(10, 3)
        new = UncertainObject("x0", 1.0, NormalSpec(0.5, 2.0), cost=3.0)
        overlay = db.with_appended([new])
        assert len(overlay) == 11
        assert overlay[10].name == "x0"
        assert overlay.index_of("x0") == 10
        assert overlay.names == db.names + ["x0"]
        np.testing.assert_array_equal(overlay.means[:10], db.means)
        assert overlay.means[10] == 0.5
        assert overlay.costs[10] == 3.0
        assert overlay.appended_count == 1

    def test_empty_append_returns_self(self):
        db = _normal_db(5, 3)
        assert db.with_appended([]) is db

    def test_name_clash_rejected(self):
        db = _normal_db(5, 3)
        clash = UncertainObject(db.names[0], 0.0, NormalSpec(0.0, 1.0))
        with pytest.raises(ValueError):
            db.with_appended([clash])
        a = UncertainObject("dup", 0.0, NormalSpec(0.0, 1.0))
        with pytest.raises(ValueError):
            db.with_appended([a, a])

    def test_reveal_on_appended_index(self):
        db = _normal_db(8, 4)
        overlay = db.with_appended(
            [UncertainObject("x0", 1.0, NormalSpec(0.5, 2.0))]
        )
        revealed = overlay.conditioned(8, 0.25)
        assert revealed.means[8] == 0.25
        assert revealed.variances[8] == 0.0
        assert revealed[8].variance == 0.0


class TestOverlayChainsAreGCable:
    def test_long_chains_accumulate_against_the_root(self):
        db = _normal_db(20, 5)
        intermediates = []
        current = db
        for i in range(5):
            current = current.conditioned(i, 0.0).with_cost(10 + i, 2.0)
            intermediates.append(weakref.ref(current))
        current = current.with_appended(
            [UncertainObject("x0", 0.0, NormalSpec(0.0, 1.0))]
        )
        # Every overlay references the root directly, never its predecessor.
        assert current._overlay_base is db
        final = current
        del current
        gc.collect()
        # All intermediate overlays are collectable; only the final one
        # (held by `final`) and the root survive.
        assert all(ref() is None for ref in intermediates)
        assert final.revealed == {i: 0.0 for i in range(5)}
        assert final.cost_overrides == {10 + i: 2.0 for i in range(5)}


# --------------------------------------------------------------------- #
# Solver-cache safety across overlays (satellite regression)
# --------------------------------------------------------------------- #
class TestCrossOverlayCacheSafety:
    def test_minvar_auto_calculator_not_reused_across_overlays(self):
        workload = uniqueness_workload(generate_urx(24, 7), window_width=4, gamma=40.0)
        db = workload.database
        budget = 0.3 * db.total_cost
        solver = GreedyMinVar(workload.query_function)
        base_plan = solver.select_indices(db, budget)
        # Pricing the first selected object out must change the plan, even
        # though the same solver instance (with its auto-calculator cache)
        # is reused on the overlay.
        expensive = db.with_cost(base_plan[0], db.total_cost * 10)
        overlay_plan = solver.select_indices(expensive, budget)
        fresh_plan = GreedyMinVar(workload.query_function).select_indices(
            expensive, budget
        )
        assert overlay_plan == fresh_plan
        assert base_plan[0] not in overlay_plan
        # And going back to the base must reproduce the original plan.
        assert solver.select_indices(db, budget) == base_plan

    def test_maxpr_weak_cache_not_reused_across_overlays(self):
        db = generate_urx(20, 8).discretized(points=4)
        function = LinearClaim.from_vector(
            np.random.default_rng(8).normal(size=20)
        )
        budget = 0.3 * db.total_cost
        solver = GreedyMaxPr(function, tau=0.0, method="exact")
        base_plan = solver.select_indices(db, budget)
        appended = db.with_appended(
            [
                UncertainObject(
                    "x0", 0.0, NormalSpec(0.0, 1.0).discretize(points=4), cost=1.0
                )
            ]
        )
        overlay_plan = solver.select_indices(appended, budget)
        fresh_plan = GreedyMaxPr(function, tau=0.0, method="exact").select_indices(
            appended, budget
        )
        assert overlay_plan == fresh_plan
        assert solver.select_indices(db, budget) == base_plan


# --------------------------------------------------------------------- #
# Event model: wire form, JSONL, synthesis determinism
# --------------------------------------------------------------------- #
class TestEventModel:
    def test_wire_round_trip(self):
        events = [
            RevealEvent(index=3, value=1.5),
            CostChangeEvent(index=1, cost=2.25),
            InsertEvent(name="s0", current_value=0.1, mean=0.2, std=0.3, cost=1.5, weight=0.4),
            RemoveEvent(index=2),
        ]
        for event in events:
            assert event_from_dict(event_to_dict(event)) == event
        with pytest.raises(ValueError):
            event_from_dict({"kind": "mystery"})

    def test_jsonl_round_trip(self, tmp_path):
        db = _normal_db(15, 10)
        journal = synthesize_journal(db, 30, seed=11)
        path = tmp_path / "journal.jsonl"
        journal.to_jsonl(path)
        assert Journal.from_jsonl(path) == journal

    def test_append_only_writer(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        events = [RevealEvent(index=0, value=0.0), RemoveEvent(index=1)]
        for event in events:
            Journal.append(path, event)
        assert Journal.from_jsonl(path).events == tuple(events)

    def test_synthesis_is_deterministic(self):
        db = _normal_db(15, 10)
        assert synthesize_journal(db, 40, seed=12) == synthesize_journal(db, 40, seed=12)
        assert synthesize_journal(db, 40, seed=12) != synthesize_journal(db, 40, seed=13)

    def test_synthesis_respects_mix(self):
        db = _normal_db(15, 10)
        journal = synthesize_journal(
            db, 10, seed=0, mix={"reveal": 1.0, "cost_change": 0, "insert": 0, "remove": 0}
        )
        assert all(event.kind == "reveal" for event in journal)
        # Once every original object is revealed, the synthesizer falls
        # back to cost changes so the journal still reaches its length.
        exhausted = synthesize_journal(
            db, 20, seed=0, mix={"reveal": 1.0, "cost_change": 0, "insert": 0, "remove": 0}
        )
        assert len(exhausted) == 20
        assert {event.kind for event in exhausted} == {"reveal", "cost_change"}
        with pytest.raises(ValueError):
            synthesize_journal(db, 5, seed=0, mix={"explode": 1.0})


# --------------------------------------------------------------------- #
# Warm-start vs cold equivalence (the tentpole contract)
# --------------------------------------------------------------------- #
def _assert_warm_equals_cold(planner: StreamingPlanner, journal: Journal) -> None:
    for event in journal:
        planner.apply(event)
        cold = planner.cold_plan()
        assert planner.plan == cold, (
            f"{event.kind}: warm {planner.plan} != cold {cold}"
        )
        gap = abs(planner.objective() - planner.objective(cold))
        assert gap <= 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_modular_track_matches_cold_after_every_event(seed):
    db = _normal_db(40, seed)
    rng = np.random.default_rng(100 + seed)
    function = LinearClaim.from_vector(rng.normal(size=40))
    planner = StreamingPlanner(db, function, budget=0.25 * db.total_cost)
    assert planner.track == "modular"
    journal = synthesize_journal(db, 15, seed=200 + seed)
    _assert_warm_equals_cold(planner, journal)
    assert planner.events_applied == 15


@pytest.mark.parametrize("seed", range(10))
def test_dependency_track_matches_cold_after_every_event(seed):
    db = _normal_db(30, seed)
    rng = np.random.default_rng(300 + seed)
    function = LinearClaim.from_vector(rng.normal(size=30))
    model = GaussianWorldModel.from_database(db, gamma=0.6)
    planner = StreamingPlanner(
        db, function, budget=0.2 * db.total_cost, model=model
    )
    assert planner.track == "dependency"
    journal = synthesize_journal(db, 12, seed=400 + seed)
    _assert_warm_equals_cold(planner, journal)
    # Inserts are the documented cold fallback on this track.
    inserts = sum(1 for event in journal if event.kind == "insert")
    assert planner.cold_solves == inserts


@pytest.mark.parametrize("seed", range(4))
def test_decomposed_track_matches_cold_after_every_event(seed):
    workload = uniqueness_workload(
        generate_urx(24, seed), window_width=4, gamma=40.0
    )
    planner = StreamingPlanner(
        workload.database, workload.query_function, budget=0.3 * workload.database.total_cost
    )
    assert planner.track == "decomposed"
    journal = synthesize_journal(workload.database, 12, seed=500 + seed)
    _assert_warm_equals_cold(planner, journal)


def _overlapping(measure_cls, n: int, seed: int):
    """A measure over one-step sliding windows: term pairs interact, so an
    object's neighbours reach past its own terms."""
    database = generate_urx(n, seed, max_support=4)
    perturbations = window_sum_perturbations(
        n_objects=n, width=3, original_start=n - 3, non_overlapping=False, include_original=True
    )
    baseline = float(database.current_values[n - 3 :].sum())
    strength = lower_is_stronger if measure_cls is Duplicity else subtraction_strength
    measure = measure_cls(perturbations, database.current_values, strength=strength, baseline=baseline)
    return database, measure


@pytest.mark.parametrize("measure_cls", [Duplicity, Fragility])
def test_decomposed_track_with_interacting_pairs_matches_cold(measure_cls):
    database, measure = _overlapping(measure_cls, 24, 1)
    assert DecomposedEVCalculator(database, measure).interacting_pairs
    planner = StreamingPlanner(database, measure, budget=0.3 * database.total_cost)
    journal = synthesize_journal(database, 10, seed=7)
    _assert_warm_equals_cold(planner, journal)
    assert planner.warm_solves == 10


def _uniqueness_planner(n: int, seed: int) -> StreamingPlanner:
    workload = uniqueness_workload(generate_urx(n, seed), window_width=4, gamma=100.0)
    return StreamingPlanner(
        workload.database, workload.query_function, budget=0.15 * workload.database.total_cost
    )


def _step_log(steps):
    return [(step.index, step.cost, step.gain) for step in steps]


@pytest.mark.parametrize(
    "case", ["uniqueness-1", "uniqueness-2", "uniqueness-3", "uniqueness-4", "duplicity", "fragility"]
)
def test_decomposed_step_log_equals_cold_run(case):
    """The kept prefix plus the resumed steps are the cold run's step log, float for float.

    The remaining budgets are left out: a warm start sums the prefix's costs
    in one pass, a cold run one pick at a time.
    """
    if case.startswith("uniqueness"):
        seed = int(case.split("-")[1])
        planner = _uniqueness_planner(400, seed)
        journal = synthesize_journal(planner.database, 20, seed=600 + seed)
    else:
        database, measure = _overlapping(Duplicity if case == "duplicity" else Fragility, 24, 2)
        planner = StreamingPlanner(database, measure, budget=0.3 * database.total_cost)
        journal = synthesize_journal(database, 10, seed=8)
    compared = 0
    for event in journal:
        planner.apply(event)
        if not planner.steps:  # the safeguard replaced the greedy selection
            continue
        cold: list = []
        GreedyMinVar(planner.function)._run(planner.database, planner.budget, record_steps=cold)
        assert _step_log(planner.steps) == _step_log(cold), event
        compared += 1
    assert compared >= len(journal) // 2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decomposed_replan_work_stays_in_the_neighbourhood(seed, monkeypatch):
    """Each event's re-plan scores fewer than n/2 candidates, and the warm
    start re-scores only the kept prefix's neighbours."""
    n = 400
    planner = _uniqueness_planner(n, seed)
    journal = synthesize_journal(planner.database, 30, seed=seed)
    calls = []
    warm_starts = []
    marginal_gain = DecomposedEVCalculator.marginal_gain

    def counted(calculator, cleaned, candidate):
        calls.append((cleaned, candidate))
        return marginal_gain(calculator, cleaned, candidate)

    engine_init = greedy._DecomposedGains.__init__

    def recorded_init(engine, calculator, selected):
        first = len(calls)
        engine_init(engine, calculator, selected)
        warm_starts.append((calculator, list(selected), calls[first:]))

    monkeypatch.setattr(DecomposedEVCalculator, "marginal_gain", counted)
    monkeypatch.setattr(greedy._DecomposedGains, "__init__", recorded_init)
    prefixes_checked = 0
    for event in journal:
        calls.clear()
        warm_starts.clear()
        planner.apply(event)
        assert planner.last_mode != "cold"
        assert len(calls) < n // 2, (event, len(calls))
        for calculator, prefix, made in warm_starts:
            reach = set()
            for index in prefix:
                reach |= calculator.neighbours(index)
            scored = {candidate for cleaned, candidate in made if cleaned}
            assert scored <= reach - set(prefix)
            prefixes_checked += bool(prefix)
    assert prefixes_checked >= len(journal) // 2


def test_decomposed_insert_does_not_scan_the_database(monkeypatch):
    """The decomposed track is all-discrete by construction: an insert
    discretizes the new object without asking the database."""
    planner = _uniqueness_planner(60, 4)

    def refuse(database):
        raise AssertionError("all_discrete() called during an insert")

    monkeypatch.setattr(UncertainDatabase, "all_discrete", refuse)
    summary = planner.apply(
        InsertEvent(name="late", current_value=3.0, mean=3.0, std=1.0, cost=2.0)
    )
    assert summary["mode"] != "cold"
    assert planner.cold_solves == 0
    monkeypatch.undo()
    assert planner.database.all_discrete()
    assert planner.plan == planner.cold_plan()


def test_dependency_marginal_mode_matches_cold():
    db = _normal_db(25, 42)
    function = LinearClaim.from_vector(np.random.default_rng(42).normal(size=25))
    model = GaussianWorldModel.from_database(db, gamma=0.5)
    planner = StreamingPlanner(
        db, function, budget=0.2 * db.total_cost, model=model, conditional=False
    )
    journal = synthesize_journal(db, 10, seed=43)
    _assert_warm_equals_cold(planner, journal)


def test_event_stream_never_copies_the_database():
    db = _normal_db(50, 6)
    function = LinearClaim.from_vector(np.random.default_rng(6).normal(size=50))
    planner = StreamingPlanner(db, function, budget=0.2 * db.total_cost)
    journal = synthesize_journal(db, 30, seed=7)
    for event in journal:
        planner.apply(event)
    # However long the stream, the planner's database is one overlay over
    # the original root — intermediate overlays are not pinned.
    assert planner.database._overlay_base is db


def test_planner_rejects_bad_configuration():
    db = _normal_db(8, 0)
    function = LinearClaim.from_vector(np.ones(8))
    with pytest.raises(ValueError):
        StreamingPlanner(db, function, budget=1.0, track="mystery")
    with pytest.raises(ValueError):
        StreamingPlanner(db, function, budget=1.0, track="dependency")
    with pytest.raises(TypeError):
        planner = StreamingPlanner(db, function, budget=1.0)
        planner.apply("not an event")


# --------------------------------------------------------------------- #
# Replay harness
# --------------------------------------------------------------------- #
def _replay_factory(seed: int = 2, budget_fraction: float = 0.3):
    def factory() -> StreamingPlanner:
        workload = uniqueness_workload(
            generate_urx(24, seed), window_width=4, gamma=40.0
        )
        return StreamingPlanner(
            workload.database,
            workload.query_function,
            budget=budget_fraction * workload.database.total_cost,
        )

    return factory


def test_replay_twice_is_byte_identical():
    factory = _replay_factory()
    base = factory().database
    journal = synthesize_journal(base, 12, seed=9)
    first = replay_journal(journal, factory)
    second = replay_journal(journal, factory, compare_cold=False)
    assert plan_signature(first) == plan_signature(second)


def test_replay_records_divergence_and_timing():
    factory = _replay_factory()
    journal = synthesize_journal(factory().database, 8, seed=10)
    result = replay_journal(journal, factory)
    assert len(result.records) == 8
    summary = result.divergence_summary()
    assert summary["events_compared"] == 8
    assert summary["min_jaccard"] == 1.0
    assert summary["max_objective_gap"] <= 1e-9
    assert result.warm_seconds > 0.0
    assert result.cold_seconds > 0.0
    payload = result.as_dict()
    assert payload["warm_solves"] + payload["cold_fallbacks"] == 8

    no_cold = replay_journal(journal, factory, compare_cold=False)
    assert no_cold.cold_seconds == 0.0
    assert all("cold_plan" not in record for record in no_cold.records)
