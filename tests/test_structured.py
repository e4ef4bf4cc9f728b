"""Structured-engine equivalence suite.

Contracts pinned here:

* **Structured == dense, exactly.**  For every structure (banded / block /
  low-rank), both ``conditional`` modes, across >= 20 seeded workloads:
  ``GreedyDep`` over :meth:`GaussianWorldModel.from_structure` returns the
  same selections and per-step gains (atol 1e-9) as the dense
  :class:`ConditionalGaussian` path over the materialized matrix.  The
  banded / block builders in :mod:`repro.uncertainty.structured` are the
  band- / block-storage twins of :func:`banded_covariance` /
  :func:`block_covariance` and must agree with them entrywise.
* **Guards, not surprises.**  Above ``DENSE_MATERIALIZATION_LIMIT`` any
  dense n x n materialization (``to_dense``, an engine's ``matrix`` /
  ``submatrix``, the model's ``covariance``) raises
  :class:`StructureTooLargeError` instead of allocating; builder parameter
  abuse (bandwidth >= n, block_size > n, dead rho) raises ``ValueError``.
* **Array-backed databases are drop-ins.**
  :meth:`UncertainDatabase.from_normal_arrays` behaves like the
  object-built constructor, conditioning overlays included.
"""

import numpy as np
import pytest

from repro.claims.functions import LinearClaim
from repro.core.greedy import GreedyDep
from repro.uncertainty.correlation import (
    GaussianWorldModel,
    banded_covariance,
    block_covariance,
)
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.structured import (
    DENSE_MATERIALIZATION_LIMIT,
    BandedCovariance,
    BlockDiagonalCovariance,
    LowRankCovariance,
    StructureTooLargeError,
)

N_OBJECTS = 14


def _array_database(rng: np.random.Generator, n: int = N_OBJECTS) -> UncertainDatabase:
    return UncertainDatabase.from_normal_arrays(
        current_values=rng.uniform(20.0, 80.0, n),
        stds=rng.uniform(2.0, 9.0, n),
        costs=rng.uniform(1.0, 10.0, n),
        means=rng.uniform(20.0, 80.0, n),
    )


def _claim(rng: np.random.Generator, n: int) -> LinearClaim:
    return LinearClaim({i: float(rng.uniform(-1.5, 1.5)) for i in range(n)})


def _structure_pair(kind: str, rng: np.random.Generator, database: UncertainDatabase):
    """(structured model, dense-twin model) over the same covariance values."""
    stds = database.stds
    n = len(database)
    if kind == "banded":
        structure = BandedCovariance.from_moving_average(stds, bandwidth=3, rho=0.7)
        dense = banded_covariance(stds, bandwidth=3, rho=0.7)
    elif kind == "block":
        structure = BlockDiagonalCovariance.from_equicorrelated(stds, block_size=4, rho=0.6)
        dense = block_covariance(stds, block_size=4, rho=0.6)
    else:  # low_rank
        factor = rng.normal(0.0, 1.0, (n, 2))
        structure = LowRankCovariance(stds**2, factor)
        dense = structure.to_dense()
    structured_model = GaussianWorldModel.from_structure(database.current_values, structure)
    dense_model = GaussianWorldModel(database.current_values, dense)
    return structured_model, dense_model


STRUCTURES = ["banded", "block", "low_rank"]


class TestStructuredDenseEquivalence:
    """PR-6 acceptance: >= 20 seeded workloads, every structure, both modes."""

    @pytest.mark.parametrize("kind", STRUCTURES)
    @pytest.mark.parametrize("conditional", [True, False])
    @pytest.mark.parametrize("seed", range(20))
    def test_selections_and_per_step_gains_match(self, seed, conditional, kind):
        rng = np.random.default_rng(seed)
        database = _array_database(rng)
        claim = _claim(rng, len(database))
        structured_model, dense_model = _structure_pair(kind, rng, database)
        for fraction in (0.25, 0.6):
            budget = database.total_cost * fraction
            structured_steps: list = []
            dense_steps: list = []
            structured = GreedyDep(claim, structured_model, conditional=conditional)._run(
                database, budget, record_steps=structured_steps
            )
            dense = GreedyDep(claim, dense_model, conditional=conditional)._run(
                database, budget, record_steps=dense_steps
            )
            assert structured == dense
            assert len(structured_steps) == len(dense_steps)
            for fast, slow in zip(structured_steps, dense_steps):
                assert fast.index == slow.index
                assert fast.gain == pytest.approx(slow.gain, abs=1e-9)

    @pytest.mark.parametrize("kind", STRUCTURES)
    @pytest.mark.parametrize("conditional", [True, False])
    def test_engine_gains_and_variance_track_dense(self, kind, conditional):
        """Step through a fixed cleaning order; every intermediate state matches."""
        rng = np.random.default_rng(99)
        database = _array_database(rng)
        claim = _claim(rng, len(database))
        structured_model, dense_model = _structure_pair(kind, rng, database)
        weights = claim.weights(len(database))
        fast = structured_model.engine(weights, conditional=conditional)
        slow = dense_model.engine(weights, conditional=conditional)
        order = rng.permutation(len(database))[:8]
        np.testing.assert_allclose(fast.gains(), slow.gains(), atol=1e-9)
        for j in order:
            fast.condition_on(int(j))
            slow.condition_on(int(j))
            np.testing.assert_allclose(fast.gains(), slow.gains(), atol=1e-9)
            assert fast.variance() == pytest.approx(slow.variance(), abs=1e-9)
        assert fast.cleaned == slow.cleaned

    @pytest.mark.parametrize("kind", STRUCTURES)
    def test_engine_copy_is_independent(self, kind):
        rng = np.random.default_rng(5)
        database = _array_database(rng)
        structured_model, _ = _structure_pair(kind, rng, database)
        engine = structured_model.engine(np.ones(len(database)), conditional=True)
        clone = engine.copy()
        engine.condition_on(0)
        assert clone.cleaned == []
        assert 0 in engine.cleaned
        np.testing.assert_allclose(
            clone.gains(),
            structured_model.engine(np.ones(len(database)), conditional=True).gains(),
        )

    def test_structured_builders_match_dense_twins_entrywise(self):
        stds = np.random.default_rng(3).uniform(1.0, 6.0, 17)
        np.testing.assert_allclose(
            BandedCovariance.from_moving_average(stds, 4, 0.8).to_dense(),
            banded_covariance(stds, 4, 0.8),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            BlockDiagonalCovariance.from_equicorrelated(stds, 5, 0.45).to_dense(),
            block_covariance(stds, 5, 0.45),
            atol=1e-12,
        )

    def test_zero_std_components_condition_degenerately(self):
        """Zero-variance components are legal and match the dense engine."""
        stds = np.array([3.0, 0.0, 2.0, 4.0, 0.0, 1.0])
        structure = BandedCovariance.from_moving_average(stds, bandwidth=2, rho=0.5)
        dense = banded_covariance(stds, bandwidth=2, rho=0.5)
        w = np.array([1.0, -1.0, 0.5, 2.0, 1.0, -0.5])
        fast = structure.engine(w, conditional=True)
        means = np.zeros(stds.size)
        slow = GaussianWorldModel(means, dense).engine(w, conditional=True)
        for j in (1, 0, 4, 3):
            fast.condition_on(j)
            slow.condition_on(j)
            np.testing.assert_allclose(fast.gains(), slow.gains(), atol=1e-9)


class TestBuilderValidation:
    def test_banded_bandwidth_must_be_below_n(self):
        stds = np.ones(5)
        with pytest.raises(ValueError, match="bandwidth 5 must be smaller"):
            BandedCovariance.from_moving_average(stds, bandwidth=5)
        with pytest.raises(ValueError, match="nonnegative"):
            BandedCovariance.from_moving_average(stds, bandwidth=-1)

    def test_banded_rejects_bad_band_storage(self):
        with pytest.raises(ValueError, match="past the matrix edge"):
            BandedCovariance(np.array([[1.0, 1.0, 1.0], [0.5, 0.5, 0.5]]))
        with pytest.raises(ValueError, match="diagonal band must be nonnegative"):
            BandedCovariance(np.array([[1.0, -1.0, 1.0]]))

    def test_block_size_bounds(self):
        stds = np.ones(6)
        with pytest.raises(ValueError, match="exceeds n=6"):
            BlockDiagonalCovariance.from_equicorrelated(stds, block_size=7, rho=0.5)
        with pytest.raises(ValueError, match="must be positive"):
            BlockDiagonalCovariance.from_equicorrelated(stds, block_size=0, rho=0.5)
        with pytest.raises(ValueError, match="block_size=1 with rho != 0"):
            BlockDiagonalCovariance.from_equicorrelated(stds, block_size=1, rho=0.5)
        # block_size=1 with rho=0 is plain independence and is fine.
        diag_only = BlockDiagonalCovariance.from_equicorrelated(stds, 1, 0.0)
        np.testing.assert_allclose(diag_only.to_dense(), np.eye(6))

    def test_low_rank_shape_validation(self):
        with pytest.raises(ValueError, match="rank 4 exceeds n=3"):
            LowRankCovariance(np.ones(3), np.ones((3, 4)))
        with pytest.raises(ValueError, match="nonnegative"):
            LowRankCovariance(np.array([1.0, -1.0]), np.ones((2, 1)))
        with pytest.raises(ValueError, match="symmetric"):
            LowRankCovariance(
                np.ones(2), np.ones((2, 2)), capacity=np.array([[1.0, 2.0], [0.0, 1.0]])
            )

    def test_negative_stds_rejected_everywhere(self):
        bad = np.array([1.0, -2.0, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            BandedCovariance.from_moving_average(bad, 1, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            BlockDiagonalCovariance.from_equicorrelated(bad, 3, 0.5)


class TestDenseMaterializationGuards:
    """At structured sizes, n x n requests fail loudly instead of allocating."""

    BIG = DENSE_MATERIALIZATION_LIMIT + 1

    def _big_structure(self):
        return BandedCovariance.from_moving_average(np.ones(self.BIG), 2, 0.5)

    def test_to_dense_guard_and_force(self):
        structure = self._big_structure()
        with pytest.raises(StructureTooLargeError, match="to_dense"):
            structure.to_dense()
        small = BandedCovariance.from_moving_average(np.ones(8), 2, 0.5)
        assert small.to_dense().shape == (8, 8)

    def test_engine_matrix_and_submatrix_guarded(self):
        engine = self._big_structure().engine(conditional=True)
        with pytest.raises(StructureTooLargeError, match="matrix"):
            engine.matrix
        with pytest.raises(StructureTooLargeError, match="matrix"):
            engine.submatrix()

    def test_model_covariance_guarded(self):
        model = GaussianWorldModel.from_structure(
            np.zeros(self.BIG), self._big_structure()
        )
        with pytest.raises(StructureTooLargeError):
            model.covariance
        # The structure-aware surfaces keep working at the same size.
        assert model.engine(np.ones(self.BIG), conditional=True).size == self.BIG


class TestArrayBackedDatabase:
    """from_normal_arrays is a drop-in for the object-built constructor."""

    def test_matches_object_built_database(self):
        rng = np.random.default_rng(4)
        n = 9
        vals = rng.uniform(20, 80, n)
        stds = rng.uniform(1, 5, n)
        costs = rng.uniform(1, 4, n)
        array_db = UncertainDatabase.from_normal_arrays(
            vals, stds, costs=costs, prefix="v"
        )
        from repro.uncertainty.distributions import NormalSpec
        from repro.uncertainty.objects import UncertainObject

        object_db = UncertainDatabase(
            [
                UncertainObject(
                    name=f"v{i}",
                    current_value=float(vals[i]),
                    distribution=NormalSpec(mean=float(vals[i]), std=float(stds[i])),
                    cost=float(costs[i]),
                )
                for i in range(n)
            ]
        )
        np.testing.assert_allclose(array_db.current_values, object_db.current_values)
        np.testing.assert_allclose(array_db.stds, object_db.stds)
        np.testing.assert_allclose(array_db.costs, object_db.costs)
        assert array_db.names == object_db.names
        assert array_db.index_of("v3") == 3
        assert "v0" in array_db and "v9" not in array_db
        assert array_db[2].name == "v2"
        assert array_db.all_normal() and not array_db.all_discrete()

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            UncertainDatabase.from_normal_arrays(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="stds must have shape"):
            UncertainDatabase.from_normal_arrays(np.zeros(3), np.ones(2))
        with pytest.raises(ValueError, match="nonnegative"):
            UncertainDatabase.from_normal_arrays(np.zeros(2), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="positive"):
            UncertainDatabase.from_normal_arrays(
                np.zeros(2), np.ones(2), costs=np.array([1.0, 0.0])
            )
        with pytest.raises(ValueError, match="prefix"):
            UncertainDatabase.from_normal_arrays(np.zeros(2), np.ones(2), prefix="")

    def test_conditioning_overlay_still_works(self):
        rng = np.random.default_rng(8)
        database = _array_database(rng, n=6)
        revealed = database.conditioned(2, 55.0)
        assert revealed.current_values[2] == pytest.approx(55.0)
        assert revealed.stds[2] == 0.0
        # The base is untouched and the overlay keeps the array fast paths.
        assert database.stds[2] > 0
        assert revealed[0].name == database[0].name
        assert revealed.revealed == {2: 55.0}
