"""Pickle round-trips, and the sizing helpers of the scenario matrix's pool.

Structured covariances, array-backed databases and sweep objectives must
survive ``pickle`` and behave identically on the other side, so a caller
can cache them or hand them to its own processes.  The matrix pool itself
ships only workload names and run parameters; its worker-sizing and
chunking helpers are pinned here too.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.claims.functions import LinearClaim
from repro.datasets.synthetic import generate_urx
from repro.experiments.parallel import chunk_ranges, machine_workers, resolve_max_workers
from repro.experiments.sweeps import LinearVarianceObjective
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.structured import (
    BandedCovariance,
    BlockDiagonalCovariance,
    LowRankCovariance,
)


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value))


class TestStructuredCovariancePickling:
    def _structures(self):
        rng = np.random.default_rng(3)
        stds = rng.uniform(1.0, 5.0, 12)
        return [
            BandedCovariance.from_moving_average(stds, bandwidth=3, rho=0.7),
            BlockDiagonalCovariance.from_equicorrelated(stds, block_size=4, rho=0.5),
            LowRankCovariance(stds**2, rng.normal(0.0, 1.0, (12, 2))),
        ]

    def test_linear_algebra_survives_roundtrip(self):
        rng = np.random.default_rng(4)
        vector = rng.standard_normal(12)
        for structure in self._structures():
            clone = _roundtrip(structure)
            assert clone.size == structure.size
            assert clone.kind == structure.kind
            assert clone.nbytes == structure.nbytes
            np.testing.assert_array_equal(clone.diagonal(), structure.diagonal())
            np.testing.assert_array_equal(clone.matvec(vector), structure.matvec(vector))

    def test_engines_behave_identically_after_roundtrip(self):
        rng = np.random.default_rng(5)
        weights = rng.uniform(-1.0, 1.0, 12)
        for structure in self._structures():
            original = structure.engine(weights)
            restored = _roundtrip(structure).engine(weights)
            np.testing.assert_allclose(restored.gains(), original.gains(), atol=1e-12)
            for index in (1, 6, 9):
                original.condition_on(index)
                restored.condition_on(index)
                np.testing.assert_allclose(
                    restored.gains(), original.gains(), atol=1e-12
                )


class TestDatabasePickling:
    def test_from_normal_arrays_roundtrip(self):
        rng = np.random.default_rng(6)
        database = UncertainDatabase.from_normal_arrays(
            current_values=rng.uniform(10.0, 90.0, 15),
            stds=rng.uniform(1.0, 8.0, 15),
            costs=rng.uniform(1.0, 4.0, 15),
            means=rng.uniform(10.0, 90.0, 15),
        )
        clone = _roundtrip(database)
        assert len(clone) == len(database)
        assert clone.total_cost == database.total_cost
        np.testing.assert_array_equal(clone.current_values, database.current_values)
        np.testing.assert_array_equal(clone.stds, database.stds)
        np.testing.assert_array_equal(clone.costs, database.costs)
        np.testing.assert_array_equal(clone.means, database.means)

    def test_lazy_objects_materialize_after_roundtrip(self):
        # from_normal_arrays defers per-object materialization; pickling must
        # not freeze a half-built object list on the worker side.
        database = UncertainDatabase.from_normal_arrays(
            current_values=[1.0, 2.0, 3.0], stds=[0.1, 0.2, 0.3], prefix="row"
        )
        clone = _roundtrip(database)
        assert clone[1].name == database[1].name == "row1"
        assert clone[2].current_value == 3.0

    def test_objective_roundtrip_computes_identically(self):
        database = generate_urx(n=18, seed=9)
        claim = LinearClaim({i: 1.0 + 0.05 * i for i in range(18)})
        objective = LinearVarianceObjective(database, claim.weights(18))
        clone = _roundtrip(objective)
        for selection in [(), (0, 3), tuple(range(10))]:
            assert clone(selection) == objective(selection)


class TestWorkerSizing:
    def test_machine_workers_is_positive(self):
        assert machine_workers() >= 1

    def test_resolve_none_and_auto_size_to_machine(self):
        assert resolve_max_workers(None) == machine_workers()
        assert resolve_max_workers("auto") == machine_workers()
        assert resolve_max_workers(" AUTO ") == machine_workers()

    def test_resolve_int_passes_through_capped_by_tasks(self):
        assert resolve_max_workers(4) == 4
        assert resolve_max_workers(4, task_count=2) == 2
        assert resolve_max_workers(1, task_count=0) == 1

    def test_resolve_rejects_bad_values(self):
        with pytest.raises(ValueError, match="max_workers"):
            resolve_max_workers(0)
        with pytest.raises(ValueError, match="max_workers"):
            resolve_max_workers("sixteen")

    def test_chunk_ranges_partition_exactly(self):
        for count, workers in [(10, 2), (3, 8), (100, 4), (1, 1)]:
            chunks = chunk_ranges(count, workers)
            flattened = [i for chunk in chunks for i in chunk]
            assert flattened == list(range(count))
        assert chunk_ranges(0, 4) == []
