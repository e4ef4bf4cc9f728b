"""The uncertain database: an ordered collection of uncertain objects.

This is the substrate every algorithm in :mod:`repro.core` operates on.  It
exposes:

* vectorized views of current values, means, variances and costs — computed
  once at construction (the database is immutable) and returned as read-only
  arrays, so greedy loops can read them every round without rebuilding lists;
* enumeration of the joint support of any subset of objects (assuming
  independent errors, the setting of Lemmas 3.2--3.6 and Theorem 3.8), both
  as a lazy generator (:meth:`UncertainDatabase.enumerate_joint_support`) and
  as batched ``(worlds, k)`` arrays (:meth:`UncertainDatabase.joint_support_arrays`)
  for the vectorized kernels, whole or in bounded blocks
  (:meth:`UncertainDatabase.joint_support_blocks`);
* world sampling (for Monte-Carlo estimators and the "in action" experiments),
  batched column-by-column through ``distribution.sample(rng, size)``;
* conditioning: producing the database that results from cleaning a subset of
  objects to specific revealed values.  ``with_current_values`` / ``cleaned``
  / ``subset`` return fresh instances with their own cached vectors (a full
  O(n) rebuild), while :meth:`UncertainDatabase.conditioned` returns a cheap
  *reveal overlay* — shared name index and cost vector, numpy-copied stat
  vectors with the reveal applied, and an object list materialized lazily —
  which is what the adaptive policies use so that a k-step run costs k small
  deltas instead of k full rebuilds;
* non-reveal overlays for the streaming engine:
  :meth:`UncertainDatabase.with_cost` (replace one object's cleaning cost)
  and :meth:`UncertainDatabase.with_appended` (append new objects) share the
  root's arrays the same GC-able way ``conditioned()`` does — every overlay,
  whatever the mix of reveals / cost changes / appends, references the *root*
  database plus one accumulated delta, so a long event stream never copies
  the database and never pins intermediate overlays.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.uncertainty.distributions import DiscreteDistribution, NormalSpec
from repro.uncertainty.objects import UncertainObject

__all__ = ["UncertainDatabase"]


class UncertainDatabase:
    """An ordered set of :class:`UncertainObject` values.

    Objects are addressable both by integer index (their position) and by
    name.  The order is significant: claim functions reference objects by
    index, matching the paper's vector notation ``X = (X_1, ..., X_n)``.
    """

    def __init__(self, objects: Sequence[UncertainObject]):
        objects = list(objects)
        if not objects:
            raise ValueError("an uncertain database needs at least one object")
        names = [obj.name for obj in objects]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate object names: {duplicates}")
        self._objects_list: Optional[List[UncertainObject]] = objects
        self._index_by_name: Optional[Dict[str, int]] = {
            obj.name: i for i, obj in enumerate(objects)
        }
        # Array-backed databases (`from_normal_arrays`) carry a name prefix
        # instead of an object list; None means object-backed.
        self._array_prefix: Optional[str] = None
        # Overlay state.  A plain database is its own base; an overlay built
        # by `conditioned` / `with_cost` / `with_appended` references the
        # *root* database (never an intermediate overlay, so chains of deltas
        # don't pin dead overlays) plus the accumulated deltas: the
        # {index: revealed value} reveals, the {index: new cost} cost
        # overrides, and the tuple of appended objects.
        self._overlay_base: Optional["UncertainDatabase"] = None
        self._overlay_delta: Dict[int, float] = {}
        self._overlay_costs: Dict[int, float] = {}
        self._overlay_appended: Tuple[UncertainObject, ...] = ()
        self._overlay_objects: Dict[int, UncertainObject] = {}
        # Objects are immutable (frozen dataclasses), so the vector views can
        # be materialized once and shared.  They are marked read-only; callers
        # that need a scratch vector copy first (as they already did).
        self._current_values = self._frozen([obj.current_value for obj in objects])
        self._means = self._frozen([obj.mean for obj in objects])
        self._variances = self._frozen([obj.variance for obj in objects])
        self._costs = self._frozen([obj.cost for obj in objects])
        self._stds = self._frozen(np.sqrt(self._variances))
        self._total_cost = float(self._costs.sum())
        self._validate_stats(lambda i: f" ({names[i]!r})")

    def _validate_stats(self, describe) -> None:
        """Reject NaN / infinite stats and NaN / nonpositive costs.

        A NaN current value or variance silently poisons every downstream
        benefit ratio and covariance solve; failing construction with the
        offending index is the only place the mistake is still attributable
        to its source.  ``math.inf`` is allowed *only* as a cost (the
        streaming tombstone for removed objects).
        """
        for label, vector in (
            ("current value", self._current_values),
            ("mean", self._means),
            ("variance", self._variances),
        ):
            finite = np.isfinite(vector)
            if not finite.all():
                index = int(np.argmin(finite))
                raise ValueError(
                    f"object {index}{describe(index)} has a non-finite "
                    f"{label}: {vector[index]}"
                )
        valid = self._costs > 0  # False for NaN, zero and negative costs
        if not valid.all():
            index = int(np.argmin(valid))
            raise ValueError(
                f"object {index}{describe(index)} has an invalid cleaning "
                f"cost {self._costs[index]}: costs must be positive "
                f"(math.inf is allowed as a tombstone)"
            )

    @staticmethod
    def _frozen(values) -> np.ndarray:
        array = np.array(values, dtype=float)
        array.setflags(write=False)
        return array

    # ------------------------------------------------------------------ #
    # Array-backed construction (large n)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_normal_arrays(
        cls,
        current_values: Sequence[float],
        stds: Sequence[float],
        costs: Optional[Sequence[float]] = None,
        means: Optional[Sequence[float]] = None,
        prefix: str = "obj",
    ) -> "UncertainDatabase":
        """All-normal database built directly from stat vectors.

        The per-object :class:`UncertainObject` list costs hundreds of bytes
        per entry, which dominates memory at the BENCH_scale regimes
        (n = 10^6); this constructor skips it entirely.  The four stat
        vectors are stored as the usual read-only views, object names are
        ``f"{prefix}{i}"``, and the name index and object list are
        materialized lazily only if something actually asks for them — the
        vectorized selection paths never do.  Semantically identical to
        ``UncertainDatabase([UncertainObject(f"{prefix}{i}", u[i],
        NormalSpec(mean[i], std[i]), cost[i]) for i in range(n)])``.

        ``means`` defaults to ``current_values`` (the usual "reported value
        is the best guess" workload setup); ``costs`` defaults to unit.
        """
        current = np.asarray(current_values, dtype=float)
        if current.ndim != 1 or current.size == 0:
            raise ValueError("current_values must be a non-empty 1-D array")
        n = current.size
        if not np.isfinite(current).all():
            index = int(np.argmin(np.isfinite(current)))
            raise ValueError(
                f"current_values[{index}] must be finite, got {current[index]}"
            )
        stds_arr = np.asarray(stds, dtype=float)
        if stds_arr.shape != (n,):
            raise ValueError(f"stds must have shape ({n},), got {stds_arr.shape}")
        valid_stds = np.isfinite(stds_arr) & (stds_arr >= 0)
        if not valid_stds.all():
            index = int(np.argmin(valid_stds))
            raise ValueError(
                f"stds[{index}] must be finite and nonnegative, got "
                f"{stds_arr[index]}"
            )
        if costs is None:
            costs_arr = np.ones(n, dtype=float)
        else:
            costs_arr = np.asarray(costs, dtype=float)
            if costs_arr.shape != (n,):
                raise ValueError(f"costs must have shape ({n},), got {costs_arr.shape}")
            valid_costs = costs_arr > 0  # False for NaN, zero and negatives
            if not valid_costs.all():
                index = int(np.argmin(valid_costs))
                raise ValueError(
                    f"costs[{index}] must be positive, got {costs_arr[index]}"
                )
        if means is None:
            means_arr = current
        else:
            means_arr = np.asarray(means, dtype=float)
            if means_arr.shape != (n,):
                raise ValueError(f"means must have shape ({n},), got {means_arr.shape}")
            if not np.isfinite(means_arr).all():
                index = int(np.argmin(np.isfinite(means_arr)))
                raise ValueError(
                    f"means[{index}] must be finite, got {means_arr[index]}"
                )
        if not prefix:
            raise ValueError("prefix must be non-empty")

        database = object.__new__(cls)
        database._objects_list = None
        database._index_by_name = None
        database._overlay_base = None
        database._overlay_delta = {}
        database._overlay_costs = {}
        database._overlay_appended = ()
        database._overlay_objects = {}
        database._array_prefix = str(prefix)
        database._current_values = cls._frozen(current)
        database._means = cls._frozen(means_arr)
        database._variances = cls._frozen(stds_arr * stds_arr)
        database._stds = cls._frozen(stds_arr)
        database._costs = cls._frozen(costs_arr)
        database._total_cost = float(database._costs.sum())
        return database

    def _array_object(self, index: int) -> UncertainObject:
        """Materialize the single object at ``index`` of an array-backed database."""
        return UncertainObject(
            name=f"{self._array_prefix}{index}",
            current_value=float(self._current_values[index]),
            distribution=NormalSpec(
                mean=float(self._means[index]), std=float(self._stds[index])
            ),
            cost=float(self._costs[index]),
        )

    def _name_index(self) -> Dict[str, int]:
        """The name -> position index, built lazily for array-backed databases."""
        if self._index_by_name is None:
            if self._overlay_appended:
                index = dict(self._overlay_base._name_index())
                offset = len(self._overlay_base)
                for position, obj in enumerate(self._overlay_appended):
                    index[obj.name] = offset + position
                self._index_by_name = index
            else:
                self._index_by_name = {
                    f"{self._array_prefix}{i}": i for i in range(len(self))
                }
        return self._index_by_name

    # ------------------------------------------------------------------ #
    # Overlays (incremental conditioning, cost changes, appends)
    # ------------------------------------------------------------------ #
    @property
    def _objects(self) -> List[UncertainObject]:
        """The object list; materialized on first full access for overlays."""
        if self._objects_list is None:
            if self._overlay_base is not None:
                materialized = list(self._overlay_base._objects)
                materialized.extend(self._overlay_appended)
                for index in set(self._overlay_delta) | set(self._overlay_costs):
                    materialized[index] = self._overlay_object(index)
            else:
                materialized = [self._array_object(i) for i in range(len(self))]
            self._objects_list = materialized
        return self._objects_list

    def _overlay_object(self, index: int) -> UncertainObject:
        """The object an overlay exposes at a revealed / re-costed position."""
        cached = self._overlay_objects.get(index)
        if cached is None:
            base = self._overlay_base
            if index < len(base):
                cached = base[index]
            else:
                cached = self._overlay_appended[index - len(base)]
            if index in self._overlay_delta:
                cached = cached.cleaned(self._overlay_delta[index])
            override = self._overlay_costs.get(index)
            if override is not None:
                cached = cached.with_cost(override)
            self._overlay_objects[index] = cached
        return cached

    def _overlay_root(self) -> "UncertainDatabase":
        """The root database a new overlay should reference (never an overlay)."""
        return self._overlay_base if self._overlay_base is not None else self

    @classmethod
    def _make_overlay(
        cls,
        base: "UncertainDatabase",
        delta: Dict[int, float],
        costs: Optional[Dict[int, float]] = None,
        appended: Tuple[UncertainObject, ...] = (),
    ) -> "UncertainDatabase":
        """Overlay of ``base`` with reveals, cost overrides and appends applied.

        Skips ``__init__`` entirely and shares whatever the delta leaves
        unchanged: with no appends the name index is shared and the stat
        vectors are shared (cost-only overlays) or numpy-copied with the
        revealed entries overwritten; the cost vector and total cost are
        shared unless a cost override or an append touches them.  Appends
        concatenate the appended objects' stats onto the base vectors.  The
        object list is always left unmaterialized.
        """
        costs = costs or {}
        appended = tuple(appended)
        overlay = object.__new__(cls)
        overlay._objects_list = None
        overlay._index_by_name = None if appended else base._index_by_name
        overlay._array_prefix = base._array_prefix
        overlay._overlay_base = base
        overlay._overlay_delta = delta
        overlay._overlay_costs = costs
        overlay._overlay_appended = appended
        overlay._overlay_objects = {}
        if appended:
            current = np.concatenate(
                [base._current_values, [obj.current_value for obj in appended]]
            )
            means = np.concatenate([base._means, [obj.mean for obj in appended]])
            variances = np.concatenate([base._variances, [obj.variance for obj in appended]])
            stds = np.concatenate([base._stds, [obj.std for obj in appended]])
        elif delta:
            current = base._current_values.copy()
            means = base._means.copy()
            variances = base._variances.copy()
            stds = base._stds.copy()
        else:
            current = means = variances = stds = None
        if delta:
            indices = np.fromiter(delta.keys(), dtype=np.intp, count=len(delta))
            values = np.fromiter(delta.values(), dtype=float, count=len(delta))
            current[indices] = values
            means[indices] = values
            variances[indices] = 0.0
            stds[indices] = 0.0
        if current is None:
            # Cost-only overlay: reveals and appends are absent, so the four
            # stat vectors are exactly the base's — share them.
            overlay._current_values = base._current_values
            overlay._means = base._means
            overlay._variances = base._variances
            overlay._stds = base._stds
        else:
            for vector in (current, means, variances, stds):
                vector.setflags(write=False)
            overlay._current_values = current
            overlay._means = means
            overlay._variances = variances
            overlay._stds = stds
        if costs or appended:
            if appended:
                cost_vector = np.concatenate(
                    [base._costs, [obj.cost for obj in appended]]
                )
            else:
                cost_vector = base._costs.copy()
            if costs:
                cost_indices = np.fromiter(costs.keys(), dtype=np.intp, count=len(costs))
                cost_values = np.fromiter(costs.values(), dtype=float, count=len(costs))
                cost_vector[cost_indices] = cost_values
            cost_vector.setflags(write=False)
            overlay._costs = cost_vector
            overlay._total_cost = float(cost_vector.sum())
        else:
            overlay._costs = base._costs
            overlay._total_cost = base._total_cost
        return overlay

    def conditioned(self, index: int, value: float) -> "UncertainDatabase":
        """Database after revealing object ``index`` to ``value`` — a cheap overlay.

        Semantically identical to ``cleaned({index: value})`` (the revealed
        object becomes a point mass at ``value`` and its mean/variance views
        update accordingly) but without rebuilding the n objects or
        re-deriving the cached vectors: the overlay shares the base's name
        index and cost vector, copies the stat vectors with one entry
        overwritten, and materializes cleaned objects lazily.  Conditioning
        an overlay extends its delta against the same root database (cost
        overrides and appends carry over), so a chain of k reveals holds one
        root reference and a k-entry delta — intermediate overlays are
        garbage-collectable.
        """
        index = int(index)
        if not 0 <= index < len(self):
            raise IndexError(f"object index {index} out of range for n={len(self)}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"revealed value for object {index} must be finite, got {value}"
            )
        delta = dict(self._overlay_delta)
        delta[index] = value
        return self._make_overlay(
            self._overlay_root(), delta, dict(self._overlay_costs), self._overlay_appended
        )

    def with_cost(self, index: int, cost: float) -> "UncertainDatabase":
        """Database with object ``index``'s cleaning cost replaced — a cheap overlay.

        The overlay shares the root's stat vectors outright (a cost change
        touches no distribution) and copies only the cost vector.  Like
        :meth:`conditioned`, stacking cost changes accumulates one delta
        against the root database, so intermediate overlays stay
        garbage-collectable.  ``math.inf`` is accepted and makes the object
        permanently unaffordable — the streaming engine's tombstone for
        removed objects.
        """
        index = int(index)
        if not 0 <= index < len(self):
            raise IndexError(f"object index {index} out of range for n={len(self)}")
        cost = float(cost)
        if not cost > 0:
            raise ValueError(f"cleaning cost must be positive, got {cost}")
        costs = dict(self._overlay_costs)
        costs[index] = cost
        return self._make_overlay(
            self._overlay_root(), dict(self._overlay_delta), costs, self._overlay_appended
        )

    def with_appended(self, objects: Sequence[UncertainObject]) -> "UncertainDatabase":
        """Database with ``objects`` appended at the end — a cheap overlay.

        Existing objects keep their positions (claim functions reference
        objects positionally, so appending never invalidates a claim), the
        new objects take positions ``len(self) ..``, and the overlay
        concatenates the root's stat vectors once instead of rebuilding n
        objects.  Appending to an overlay accumulates against the root like
        :meth:`conditioned` does.  Returns ``self`` unchanged for an empty
        sequence.
        """
        objects = tuple(objects)
        if not objects:
            return self
        new_names = [obj.name for obj in objects]
        if len(set(new_names)) != len(new_names):
            duplicates = sorted({n for n in new_names if new_names.count(n) > 1})
            raise ValueError(f"duplicate appended object names: {duplicates}")
        existing = self._name_index()
        clashes = sorted(name for name in new_names if name in existing)
        if clashes:
            raise ValueError(f"appended object names already exist: {clashes}")
        return self._make_overlay(
            self._overlay_root(),
            dict(self._overlay_delta),
            dict(self._overlay_costs),
            self._overlay_appended + objects,
        )

    @property
    def revealed(self) -> Dict[int, float]:
        """The reveals this overlay applies to its base (empty for plain databases)."""
        return dict(self._overlay_delta)

    @property
    def cost_overrides(self) -> Dict[int, float]:
        """The cost replacements this overlay applies (empty for plain databases)."""
        return dict(self._overlay_costs)

    @property
    def appended_count(self) -> int:
        """Number of objects this overlay appends to its root (0 for plain databases)."""
        return len(self._overlay_appended)

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        # Via the stat vector, not the object list: overlays answer len()
        # without materializing their objects.
        return int(self._current_values.shape[0])

    def __iter__(self) -> Iterator[UncertainObject]:
        return iter(self._objects)

    def __getitem__(self, key) -> UncertainObject:
        if isinstance(key, str):
            key = self._name_index()[key]
        if self._objects_list is None and isinstance(key, (int, np.integer)):
            # Overlay / array-backed fast path: serve single objects without
            # materializing the full list.
            index = int(key)
            if index < 0:
                index += len(self)
            if not 0 <= index < len(self):
                raise IndexError(f"object index {key} out of range for n={len(self)}")
            if index in self._overlay_delta or index in self._overlay_costs:
                return self._overlay_object(index)
            if self._overlay_base is not None:
                base = self._overlay_base
                if index >= len(base):
                    return self._overlay_appended[index - len(base)]
                return base[index]
            return self._array_object(index)
        return self._objects[key]

    def __contains__(self, name: str) -> bool:
        return name in self._name_index()

    def __repr__(self) -> str:
        return f"UncertainDatabase(n={len(self)}, total_cost={self.total_cost:g})"

    @property
    def objects(self) -> List[UncertainObject]:
        """The objects as a fresh list (overlays materialize lazily here)."""
        return list(self._objects)

    @property
    def names(self) -> List[str]:
        """Object names in positional order."""
        if self._objects_list is None and self._overlay_base is None:
            return [f"{self._array_prefix}{i}" for i in range(len(self))]
        if self._objects_list is None and self._overlay_base is not None:
            # Names are untouched by reveals and cost changes; answer from
            # the base plus appends without materializing the object list.
            return self._overlay_base.names + [
                obj.name for obj in self._overlay_appended
            ]
        return [obj.name for obj in self._objects]

    def index_of(self, name: str) -> int:
        """Position of the object with the given name."""
        return self._name_index()[name]

    def indices_of(self, names: Iterable[str]) -> List[int]:
        """Positions of the objects with the given names, in input order."""
        index = self._name_index()
        return [index[name] for name in names]

    # ------------------------------------------------------------------ #
    # Vector views
    # ------------------------------------------------------------------ #
    @property
    def current_values(self) -> np.ndarray:
        """The vector ``u`` of current (reported) values (read-only view)."""
        return self._current_values

    @property
    def means(self) -> np.ndarray:
        """Per-object means of the true-value distributions (read-only view)."""
        return self._means

    @property
    def variances(self) -> np.ndarray:
        """Per-object variances of the true-value distributions (read-only view)."""
        return self._variances

    @property
    def stds(self) -> np.ndarray:
        """Per-object standard deviations (read-only view)."""
        return self._stds

    @property
    def costs(self) -> np.ndarray:
        """Per-object cleaning costs ``c_i`` (read-only view)."""
        return self._costs

    @property
    def total_cost(self) -> float:
        """Cost of cleaning every object."""
        return self._total_cost

    def _is_pure_normal_arrays(self) -> bool:
        """True for array-backed databases with no reveals: every object is
        a :class:`NormalSpec` by construction, so the distribution-kind
        queries below can answer without materializing n objects."""
        return (
            self._array_prefix is not None
            and not self._overlay_delta
            and not self._overlay_appended
        )

    def max_support_size(self) -> int:
        """Largest discrete support size among the objects (``V`` in Thm 3.8)."""
        if self._is_pure_normal_arrays():
            return 0
        sizes = [
            obj.distribution.support_size
            for obj in self._objects
            if isinstance(obj.distribution, DiscreteDistribution)
        ]
        return max(sizes) if sizes else 0

    def all_discrete(self) -> bool:
        """True when every object has a finite discrete distribution."""
        if self._is_pure_normal_arrays():
            return False
        return all(isinstance(obj.distribution, DiscreteDistribution) for obj in self._objects)

    def all_normal(self) -> bool:
        """True when every object has a normal error model."""
        if self._is_pure_normal_arrays():
            return True
        return all(isinstance(obj.distribution, NormalSpec) for obj in self._objects)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def discretized(self, points: int = 6, method: str = "quantile") -> "UncertainDatabase":
        """Database with every normal error model discretized."""
        return UncertainDatabase([obj.discretized(points=points, method=method) for obj in self._objects])

    def with_current_values(self, values: Sequence[float]) -> "UncertainDatabase":
        """Database with the same distributions but different current values."""
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self),):
            raise ValueError(f"expected {len(self)} values, got {values.shape}")
        updated = [
            UncertainObject(
                name=obj.name,
                current_value=float(v),
                distribution=obj.distribution,
                cost=obj.cost,
                label=obj.label,
            )
            for obj, v in zip(self._objects, values)
        ]
        return UncertainDatabase(updated)

    def cleaned(self, revealed: Mapping[int, float]) -> "UncertainDatabase":
        """Database after cleaning the objects in ``revealed``.

        ``revealed`` maps object indices to their revealed true values.  The
        cleaned objects become certain (point-mass distributions) while the
        remaining objects are untouched.
        """
        updated = []
        for i, obj in enumerate(self._objects):
            if i in revealed:
                updated.append(obj.cleaned(revealed[i]))
            else:
                updated.append(obj)
        return UncertainDatabase(updated)

    def subset(self, indices: Sequence[int]) -> "UncertainDatabase":
        """Database restricted to the given object positions (order preserved)."""
        return UncertainDatabase([self._objects[i] for i in indices])

    # ------------------------------------------------------------------ #
    # World enumeration (independent errors)
    # ------------------------------------------------------------------ #
    def enumerate_joint_support(
        self, indices: Sequence[int]
    ) -> Iterator[Tuple[Dict[int, float], float]]:
        """Enumerate the joint support of the objects at ``indices``.

        Yields ``(assignment, probability)`` pairs where ``assignment`` maps
        each index to a support value.  Errors are assumed independent, so the
        joint probability is the product of marginals.  Objects must have
        discrete distributions (discretize first otherwise).

        An empty ``indices`` yields a single empty assignment with probability
        one, which keeps callers uniform.
        """
        indices = list(indices)
        if not indices:
            yield {}, 1.0
            return
        supports = []
        for i in indices:
            dist = self._objects[i].distribution
            if not isinstance(dist, DiscreteDistribution):
                raise TypeError(
                    f"object {self._objects[i].name!r} has a continuous distribution; "
                    "call .discretized() before enumerating worlds"
                )
            supports.append(list(zip(dist.values, dist.probabilities)))
        for combo in itertools.product(*supports):
            probability = 1.0
            assignment = {}
            for index, (value, p) in zip(indices, combo):
                probability *= p
                assignment[index] = float(value)
            if probability > 0.0:
                yield assignment, probability

    def joint_support_arrays(
        self, indices: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Joint support of the objects at ``indices`` as batched arrays.

        Returns ``(values_matrix, probabilities)`` where ``values_matrix`` has
        shape ``(worlds, len(indices))`` — column ``j`` holds the values taken
        by object ``indices[j]`` — and ``probabilities`` has shape
        ``(worlds,)``.  The row order matches
        :meth:`enumerate_joint_support` exactly (last index varies fastest)
        and zero-probability worlds are dropped, so the two views are
        interchangeable.  This is the input format of the vectorized
        expected-variance and surprise kernels, which assign the matrix into
        the referenced columns of a batched value matrix instead of walking
        per-world Python dicts.
        """
        indices = list(indices)
        if not indices:
            return np.zeros((1, 0), dtype=float), np.ones(1, dtype=float)
        supports, weights = self._discrete_supports(indices)
        value_grids = np.meshgrid(*supports, indexing="ij")
        values_matrix = np.stack([grid.reshape(-1) for grid in value_grids], axis=1)
        probabilities = np.ones(values_matrix.shape[0], dtype=float)
        for grid in np.meshgrid(*weights, indexing="ij"):
            probabilities = probabilities * grid.reshape(-1)
        keep = probabilities > 0.0
        if not keep.all():
            values_matrix = values_matrix[keep]
            probabilities = probabilities[keep]
        return values_matrix, probabilities

    def joint_support_blocks(
        self, indices: Sequence[int], rows: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`joint_support_arrays` cut into blocks of ``rows`` worlds.

        Yields ``(values_matrix, probabilities)`` pairs whose concatenation
        is exactly ``joint_support_arrays(indices)``: the same rows in the
        same order, the same probability products and no zero-probability
        worlds, in consecutive blocks of ``rows`` kept worlds (the last one
        may be shorter).  Each world is decoded from its row number (mixed
        radix, last index fastest) instead of a full ``meshgrid``, so memory
        stays ``O(rows * len(indices))`` however large the joint support is.
        """
        indices = list(indices)
        if not indices:
            yield np.zeros((1, 0), dtype=float), np.ones(1, dtype=float)
            return
        supports, weights = self._discrete_supports(indices)
        sizes = [values.size for values in supports]
        total = math.prod(sizes)
        carried_values = np.zeros((0, len(indices)), dtype=float)
        carried_probs = np.zeros(0, dtype=float)
        for start in range(0, total, rows):
            remainder = np.arange(start, min(start + rows, total), dtype=np.int64)
            digits = [None] * len(sizes)
            for j in range(len(sizes) - 1, -1, -1):
                remainder, digits[j] = np.divmod(remainder, sizes[j])
            values = np.stack([support[d] for support, d in zip(supports, digits)], axis=1)
            probabilities = np.ones(values.shape[0], dtype=float)
            for masses, d in zip(weights, digits):
                probabilities = probabilities * masses[d]
            keep = probabilities > 0.0
            if not keep.all():
                values = values[keep]
                probabilities = probabilities[keep]
            if carried_probs.size:
                values = np.concatenate((carried_values, values))
                probabilities = np.concatenate((carried_probs, probabilities))
            if probabilities.size >= rows:
                yield values[:rows], probabilities[:rows]
                values, probabilities = values[rows:], probabilities[rows:]
            carried_values, carried_probs = values, probabilities
        if carried_probs.size:
            yield carried_values, carried_probs

    def _discrete_supports(
        self, indices: Sequence[int]
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Support values and masses of ``indices``; TypeError on a continuous one."""
        supports = []
        weights = []
        for i in indices:
            dist = self._objects[i].distribution
            if not isinstance(dist, DiscreteDistribution):
                raise TypeError(
                    f"object {self._objects[i].name!r} has a continuous distribution; "
                    "call .discretized() before enumerating worlds"
                )
            supports.append(dist.values)
            weights.append(dist.probabilities)
        return supports, weights

    def joint_support_size(self, indices: Sequence[int]) -> int:
        """Number of joint outcomes for the objects at ``indices``."""
        size = 1
        for i in indices:
            dist = self._objects[i].distribution
            if not isinstance(dist, DiscreteDistribution):
                raise TypeError("joint support size requires discrete distributions")
            size *= dist.support_size
        return size

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_world(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one full assignment of true values (a possible world)."""
        return np.array([obj.sample(rng) for obj in self._objects], dtype=float)

    def sample_worlds(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` worlds; returns an array of shape ``(count, n)``.

        Sampling is batched column by column through
        ``distribution.sample(rng, size=count)``, so the cost is one vectorized
        draw per object instead of ``count * n`` scalar draws.  (The stream of
        random numbers therefore differs from calling :meth:`sample_world`
        ``count`` times, but any fixed seed still yields a reproducible batch.)
        """
        if count <= 0:
            return np.zeros((0, len(self)), dtype=float)
        if self._is_pure_normal_arrays():
            # One matrix draw instead of n column draws (different random
            # stream than the per-column path, but reproducible per seed).
            return rng.normal(self._means, self._stds, size=(count, len(self)))
        worlds = np.empty((count, len(self)), dtype=float)
        for j, obj in enumerate(self._objects):
            worlds[:, j] = obj.distribution.sample(rng, size=count)
        return worlds

    def values_with_assignment(
        self, assignment: Mapping[int, float], base: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Full value vector with ``assignment`` overriding ``base``.

        ``base`` defaults to the vector of current values, matching the MaxPr
        semantics where uncleaned objects keep their current values.
        """
        values = np.array(self.current_values if base is None else base, dtype=float, copy=True)
        for index, value in assignment.items():
            values[index] = value
        return values
