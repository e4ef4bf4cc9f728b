"""Unit tests for repro.uncertainty.database."""

import numpy as np
import pytest

from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution, NormalSpec
from repro.uncertainty.objects import UncertainObject


def make_db():
    return UncertainDatabase(
        [
            UncertainObject("a", 1.0, DiscreteDistribution.uniform([0.0, 2.0]), cost=1.0),
            UncertainObject("b", 5.0, DiscreteDistribution.uniform([4.0, 5.0, 6.0]), cost=2.0),
            UncertainObject("c", 10.0, DiscreteDistribution.point_mass(10.0), cost=4.0),
        ]
    )


class TestContainer:
    def test_len(self):
        assert len(make_db()) == 3

    def test_getitem_by_index_and_name(self):
        db = make_db()
        assert db[0].name == "a"
        assert db["b"].current_value == 5.0

    def test_contains(self):
        db = make_db()
        assert "a" in db
        assert "zzz" not in db

    def test_iteration_order(self):
        db = make_db()
        assert [obj.name for obj in db] == ["a", "b", "c"]

    def test_names_and_index_of(self):
        db = make_db()
        assert db.names == ["a", "b", "c"]
        assert db.index_of("c") == 2
        assert db.indices_of(["c", "a"]) == [2, 0]

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            UncertainDatabase(
                [
                    UncertainObject("a", 0.0, DiscreteDistribution.point_mass(0.0)),
                    UncertainObject("a", 1.0, DiscreteDistribution.point_mass(1.0)),
                ]
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UncertainDatabase([])

    def test_repr(self):
        assert "UncertainDatabase" in repr(make_db())


class TestVectorViews:
    def test_current_values(self):
        assert list(make_db().current_values) == [1.0, 5.0, 10.0]

    def test_means(self):
        db = make_db()
        assert db.means == pytest.approx([1.0, 5.0, 10.0])

    def test_variances(self):
        db = make_db()
        assert db.variances == pytest.approx([1.0, 2.0 / 3.0, 0.0])

    def test_costs_and_total(self):
        db = make_db()
        assert list(db.costs) == [1.0, 2.0, 4.0]
        assert db.total_cost == 7.0

    def test_stds(self):
        db = make_db()
        assert db.stds == pytest.approx(np.sqrt(db.variances))

    def test_max_support_size(self):
        assert make_db().max_support_size() == 3

    def test_all_discrete_and_all_normal(self, normal_database):
        assert make_db().all_discrete()
        assert not make_db().all_normal()
        assert normal_database.all_normal()
        assert not normal_database.all_discrete()


class TestTransformations:
    def test_discretized(self, normal_database):
        discrete = normal_database.discretized(points=5)
        assert discrete.all_discrete()
        assert len(discrete) == len(normal_database)
        assert discrete.means == pytest.approx(normal_database.means, rel=1e-6)

    def test_with_current_values(self):
        db = make_db()
        updated = db.with_current_values([7.0, 8.0, 9.0])
        assert list(updated.current_values) == [7.0, 8.0, 9.0]
        # Distributions and costs preserved.
        assert updated.variances == pytest.approx(db.variances)
        assert list(updated.costs) == list(db.costs)

    def test_with_current_values_wrong_length(self):
        with pytest.raises(ValueError):
            make_db().with_current_values([1.0, 2.0])

    def test_cleaned(self):
        db = make_db()
        cleaned = db.cleaned({0: 2.0})
        assert cleaned[0].is_certain()
        assert cleaned[0].current_value == 2.0
        assert not cleaned[1].is_certain()
        # original untouched
        assert not db[0].is_certain()

    def test_subset_preserves_order(self):
        db = make_db()
        sub = db.subset([2, 0])
        assert [obj.name for obj in sub] == ["c", "a"]


class TestWorldEnumeration:
    def test_empty_subset_yields_single_world(self):
        db = make_db()
        worlds = list(db.enumerate_joint_support([]))
        assert worlds == [({}, 1.0)]

    def test_single_object(self):
        db = make_db()
        worlds = list(db.enumerate_joint_support([0]))
        assert len(worlds) == 2
        assert sum(p for _, p in worlds) == pytest.approx(1.0)

    def test_joint_probabilities_multiply(self):
        db = make_db()
        worlds = list(db.enumerate_joint_support([0, 1]))
        assert len(worlds) == 6
        assert sum(p for _, p in worlds) == pytest.approx(1.0)
        for assignment, p in worlds:
            assert set(assignment) == {0, 1}
            assert p == pytest.approx(db[0].distribution.pmf(assignment[0]) * db[1].distribution.pmf(assignment[1]))

    def test_point_mass_object_contributes_one_outcome(self):
        db = make_db()
        worlds = list(db.enumerate_joint_support([2]))
        assert len(worlds) == 1
        assert worlds[0][0] == {2: 10.0}

    def test_requires_discrete(self, normal_database):
        with pytest.raises(TypeError):
            list(normal_database.enumerate_joint_support([0]))

    def test_joint_support_size(self):
        db = make_db()
        assert db.joint_support_size([0, 1]) == 6
        assert db.joint_support_size([]) == 1

    def test_joint_support_size_requires_discrete(self, normal_database):
        with pytest.raises(TypeError):
            normal_database.joint_support_size([0])

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 7, 4096])
    def test_blocks_concatenate_to_the_joint_support_arrays(self, rows):
        # Zero-mass support points drop whole worlds, so a decoded block can
        # come up short and its kept rows carry into the next one.
        rng = np.random.default_rng(0)
        objects = []
        for i in range(6):
            masses = rng.uniform(0.1, 1.0, 3)
            masses[i % 3] = 0.0
            objects.append(UncertainObject(f"z{i}", 0.0, DiscreteDistribution(rng.normal(size=3), masses)))
        db = UncertainDatabase(objects)
        for indices in ([0, 1, 2, 3, 4, 5], [5, 3, 1], [2], []):
            worlds, probabilities = db.joint_support_arrays(indices)
            blocks = list(db.joint_support_blocks(indices, rows))
            assert all(block[1].size == rows for block in blocks[:-1])
            assert 0 < blocks[-1][1].size <= rows
            np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), worlds)
            np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks]), probabilities)

    def test_blocks_require_discrete(self, normal_database):
        with pytest.raises(TypeError):
            list(normal_database.joint_support_blocks([0], 8))


class TestSampling:
    def test_sample_world_shape(self, rng):
        db = make_db()
        world = db.sample_world(rng)
        assert world.shape == (3,)
        assert world[2] == 10.0

    def test_sample_worlds(self, rng):
        db = make_db()
        worlds = db.sample_worlds(rng, 20)
        assert worlds.shape == (20, 3)

    def test_values_with_assignment_defaults_to_current(self):
        db = make_db()
        values = db.values_with_assignment({1: 4.0})
        assert list(values) == [1.0, 4.0, 10.0]

    def test_values_with_assignment_custom_base(self):
        db = make_db()
        values = db.values_with_assignment({0: 0.0}, base=np.array([9.0, 9.0, 9.0]))
        assert list(values) == [0.0, 9.0, 9.0]

    def test_values_with_assignment_does_not_mutate_base(self):
        db = make_db()
        base = np.array([9.0, 9.0, 9.0])
        db.values_with_assignment({0: 0.0}, base=base)
        assert list(base) == [9.0, 9.0, 9.0]
