"""Equivalence suite for the ``repro.kernels`` hot-path kernels.

Contracts pinned here:

* **Every kernel computes what the oracle computes.**  For each of the six
  kernels, randomized inputs produce the result of the scalar reference
  loop in :mod:`oracles.kernels` within atol 1e-9 — also when the inputs
  are strided, reversed or column-major views, which is how the engines
  hand them over (``np.diagonal`` of the working covariance, for one).
* **Selections never depend on the kernel implementation.**  Greedy and
  adaptive runs pick the same objects with the numpy kernels as with the
  oracle loops patched into :mod:`repro.kernels`.
* **One implementation, one precision.**  The module exports the six
  kernels plus the benchmark metadata helpers, and the environment
  variables that once selected another tier or float32 change nothing.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import kernels as oracle_kernels
from repro import kernels
from repro.claims.functions import LinearClaim
from repro.core.adaptive import AdaptiveMaxPr
from repro.core.greedy import GreedyDep, GreedyMaxPr
from repro.uncertainty.correlation import (
    ConditionalGaussian,
    GaussianWorldModel,
    banded_covariance,
)
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution, convolve_support
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.structured import BandedCovariance, BlockDiagonalCovariance

TOLERANCE = dict(atol=1e-9, rtol=1e-9)


def _call(implementation, args):
    """Call a kernel on fresh copies of ``args``; in-place kernels yield ``args[0]``."""
    args = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    result = implementation(*args)
    return args[0] if result is None else result


def _both(name, *args):
    """``(oracle result, kernel result)`` for one call of kernel ``name``."""
    return _call(getattr(oracle_kernels, name), args), _call(getattr(kernels, name), args)


class TestKernelEquivalence:
    """Randomized oracle == numpy for each kernel."""

    @pytest.mark.parametrize("seed", range(5))
    def test_outer_downdate(self, seed):
        rng = np.random.default_rng(seed)
        n = 24
        base = rng.standard_normal((n, n))
        matrix = base @ base.T + n * np.eye(n)
        pivot_index = int(rng.integers(n))
        column = matrix[:, pivot_index].copy()
        pivot = float(matrix[pivot_index, pivot_index])
        reference, result = _both("outer_downdate", matrix, column, pivot)
        np.testing.assert_allclose(result, reference, **TOLERANCE)

    @pytest.mark.parametrize("seed", range(5))
    def test_banded_downdate(self, seed):
        rng = np.random.default_rng(100 + seed)
        bandwidth, n = 5, 40
        bands = rng.standard_normal((bandwidth + 1, n))
        lo = int(rng.integers(n - bandwidth))
        column = rng.standard_normal(bandwidth + 1)
        pivot = float(1.0 + abs(rng.standard_normal()))
        reference, result = _both("banded_downdate", bands, lo, column, pivot)
        np.testing.assert_allclose(result, reference, **TOLERANCE)

    @pytest.mark.parametrize("seed", range(5))
    def test_convolve_support(self, seed):
        # Integer-valued supports: the exact-equality merge collapses the
        # same duplicates in the oracle and the kernel.
        rng = np.random.default_rng(200 + seed)
        n, m = 17, 4
        values = rng.integers(0, 10, n).astype(float)
        probs = rng.uniform(0.1, 1.0, n)
        probs = probs / probs.sum()
        contributions = rng.integers(0, 6, m).astype(float)
        cprobs = rng.uniform(0.1, 1.0, m)
        cprobs = cprobs / cprobs.sum()

        (ref_values, ref_probs), (out_values, out_probs) = _both(
            "convolve_support", values, probs, contributions, cprobs
        )
        assert float(np.sum(ref_probs)) == pytest.approx(1.0, abs=1e-5)
        np.testing.assert_array_equal(out_values, ref_values)
        np.testing.assert_allclose(out_probs, ref_probs, **TOLERANCE)

    @pytest.mark.parametrize("seed", range(5))
    def test_normal_surprise_scores(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = 33
        shifts = rng.standard_normal(n)
        sds = np.abs(rng.standard_normal(n)) + 0.05
        sds[::4] = 0.0  # degenerate branch: indicator, not a cdf
        reference, scores = _both("normal_surprise_scores", shifts, sds, 0.25)
        np.testing.assert_allclose(scores, reference, **TOLERANCE)
        # The degenerate entries are exact indicators.
        assert set(np.unique(scores[::4])) <= {0.0, 1.0}

    @pytest.mark.parametrize("seed", range(5))
    def test_conditional_gains(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = 29
        matvec = rng.standard_normal(n)
        diagonal = np.abs(rng.standard_normal(n)) + 0.01
        floor = np.full(n, 1e-6)
        diagonal[::5] = 0.0  # at/below the floor: gain must be exactly 0
        reference, gains = _both("conditional_gains", matvec, diagonal, floor)
        np.testing.assert_allclose(gains, reference, **TOLERANCE)
        assert not np.any(gains[::5])

    @pytest.mark.parametrize("seed", range(5))
    def test_marginal_gains(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = 31
        weights = rng.standard_normal(n)
        matvec = rng.standard_normal(n)
        diagonal = np.abs(rng.standard_normal(n))
        cleaned = np.zeros(n, dtype=bool)
        cleaned[rng.integers(0, n, 7)] = True
        reference, gains = _both("marginal_gains", weights, matvec, diagonal, cleaned)
        np.testing.assert_allclose(gains, reference, **TOLERANCE)
        assert not np.any(gains[cleaned])


#: Non-contiguous layouts the kernels must read (and, for the in-place
#: downdates, write through): a step-2 slice of a zero buffer, a
#: negative-stride view, and column-major storage — Fortran order for a
#: matrix, one column of a row-major matrix for a vector.
LAYOUTS = ["every_other", "reversed", "column_major"]


def _relayout(array: np.ndarray, layout: str) -> np.ndarray:
    """A non-contiguous view holding ``array``'s values in ``layout``."""
    if layout == "every_other":
        buffer = np.zeros(tuple(2 * size for size in array.shape), dtype=array.dtype)
        view = buffer[(slice(None, None, 2),) * array.ndim]
    elif layout == "reversed":
        view = np.flip(np.empty_like(array))
    elif array.ndim == 2:
        view = np.empty(array.shape, dtype=array.dtype, order="F")
    else:
        view = np.empty((array.size, 2), dtype=array.dtype)[:, 0]
    view[...] = array
    assert not view.flags.c_contiguous
    return view


class TestNonContiguousInputs:
    """Oracle on contiguous copies == kernel on strided views."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_outer_downdate(self, layout):
        rng = np.random.default_rng(600)
        n = 16
        base = rng.standard_normal((n, n))
        matrix = base @ base.T + n * np.eye(n)
        column = matrix[:, 5].copy()
        pivot = float(matrix[5, 5])
        expected = matrix.copy()
        oracle_kernels.outer_downdate(expected, column, pivot)
        view = _relayout(matrix, layout)
        kernels.outer_downdate(view, _relayout(column, layout), pivot)
        np.testing.assert_allclose(view, expected, **TOLERANCE)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_banded_downdate(self, layout):
        rng = np.random.default_rng(601)
        bands = rng.standard_normal((4, 30))
        column = rng.standard_normal(4)
        expected = bands.copy()
        oracle_kernels.banded_downdate(expected, 11, column, 1.7)
        view = _relayout(bands, layout)
        kernels.banded_downdate(view, 11, _relayout(column, layout), 1.7)
        np.testing.assert_allclose(view, expected, **TOLERANCE)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_convolve_support(self, layout):
        rng = np.random.default_rng(602)
        values = rng.integers(0, 10, 13).astype(float)
        probs = rng.dirichlet(np.ones(13))
        contributions = rng.integers(0, 6, 5).astype(float)
        cprobs = rng.dirichlet(np.ones(5))
        ref_values, ref_probs = oracle_kernels.convolve_support(
            values, probs, contributions, cprobs
        )
        out_values, out_probs = kernels.convolve_support(
            *(_relayout(a, layout) for a in (values, probs, contributions, cprobs))
        )
        np.testing.assert_array_equal(out_values, ref_values)
        np.testing.assert_allclose(out_probs, ref_probs, **TOLERANCE)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_normal_surprise_scores(self, layout):
        rng = np.random.default_rng(603)
        shifts = rng.standard_normal(21)
        sds = np.abs(rng.standard_normal(21)) + 0.05
        sds[::3] = 0.0
        reference = oracle_kernels.normal_surprise_scores(shifts, sds, 0.4)
        scores = kernels.normal_surprise_scores(
            _relayout(shifts, layout), _relayout(sds, layout), 0.4
        )
        np.testing.assert_allclose(scores, reference, **TOLERANCE)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_conditional_gains(self, layout):
        rng = np.random.default_rng(604)
        matvec = rng.standard_normal(19)
        diagonal = np.abs(rng.standard_normal(19)) + 0.01
        diagonal[::4] = 0.0
        floor = np.full(19, 1e-6)
        reference = oracle_kernels.conditional_gains(matvec, diagonal, floor)
        gains = kernels.conditional_gains(
            *(_relayout(a, layout) for a in (matvec, diagonal, floor))
        )
        np.testing.assert_allclose(gains, reference, **TOLERANCE)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_marginal_gains(self, layout):
        rng = np.random.default_rng(605)
        weights = rng.standard_normal(23)
        matvec = rng.standard_normal(23)
        diagonal = np.abs(rng.standard_normal(23))
        cleaned = np.zeros(23, dtype=bool)
        cleaned[[1, 8, 9, 20]] = True
        reference = oracle_kernels.marginal_gains(weights, matvec, diagonal, cleaned)
        gains = kernels.marginal_gains(
            *(_relayout(a, layout) for a in (weights, matvec, diagonal, cleaned))
        )
        np.testing.assert_allclose(gains, reference, **TOLERANCE)


def test_integer_inputs_are_converted_to_float():
    # An integer covariance must not leave an integer working matrix: the
    # in-place downdate cannot write float updates into it.
    covariance = np.array([[4, 2, 0], [2, 5, 1], [0, 1, 3]])
    exact = ConditionalGaussian(covariance.astype(float), weights=[1.0, 2.0, 1.0])
    engine = ConditionalGaussian(covariance, weights=[1, 2, 1])
    assert engine.matrix.dtype == np.dtype(np.float64)
    engine.condition_on(1)
    exact.condition_on(1)
    np.testing.assert_array_equal(engine.gains(), exact.gains())
    np.testing.assert_array_equal(engine.matrix, exact.matrix)

    values, probs = convolve_support([0, 1], [1, 1], [0, 2], [1, 3])
    assert values.dtype == probs.dtype == np.dtype(np.float64)
    np.testing.assert_array_equal(values, [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(probs, [1.0, 1.0, 3.0, 3.0])


def _normal_workload(seed: int, n: int = 12):
    rng = np.random.default_rng(seed)
    database = UncertainDatabase.from_normal_arrays(
        current_values=rng.uniform(20.0, 80.0, n),
        stds=rng.uniform(2.0, 9.0, n),
        costs=rng.uniform(1.0, 10.0, n),
    )
    claim = LinearClaim({i: float(rng.uniform(-1.5, 1.5)) for i in range(n)})
    return database, claim


def _assert_oracle_picks_the_same(monkeypatch, database, make_solver, fraction=0.5):
    """``make_solver()`` selects alike on the numpy kernels and the oracle loops.

    Each run gets a fresh solver (and model), so no engine built on one set
    of kernels is reused under the other.
    """
    budget = database.total_cost * fraction
    with_numpy = make_solver().select_indices(database, budget)
    for name in oracle_kernels.__all__:
        monkeypatch.setattr(kernels, name, getattr(oracle_kernels, name))
    with_oracle = make_solver().select_indices(database, budget)
    monkeypatch.undo()
    assert with_numpy == with_oracle


class TestSelectionEquivalence:
    """The kernels change how fast a step runs, never which objects get picked."""

    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_dep_dense_selections_match(self, monkeypatch, seed):
        database, claim = _normal_workload(seed)
        sigma = banded_covariance(database.stds, bandwidth=3, rho=0.7)
        _assert_oracle_picks_the_same(
            monkeypatch,
            database,
            lambda: GreedyDep(claim, GaussianWorldModel(database.current_values, sigma)),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_dep_banded_selections_match(self, monkeypatch, seed):
        database, claim = _normal_workload(seed + 50)
        structure = BandedCovariance.from_moving_average(database.stds, bandwidth=3, rho=0.7)
        model = lambda: GaussianWorldModel.from_structure(database.current_values, structure)
        _assert_oracle_picks_the_same(monkeypatch, database, lambda: GreedyDep(claim, model()))

    def test_greedy_dep_block_selections_match(self, monkeypatch):
        database, claim = _normal_workload(70, n=14)
        structure = BlockDiagonalCovariance.from_equicorrelated(
            database.stds, block_size=4, rho=0.6
        )
        model = lambda: GaussianWorldModel.from_structure(database.current_values, structure)
        _assert_oracle_picks_the_same(monkeypatch, database, lambda: GreedyDep(claim, model()))

    def test_greedy_dep_marginal_selections_match(self, monkeypatch):
        database, claim = _normal_workload(80)
        sigma = banded_covariance(database.stds, bandwidth=2, rho=0.5)
        model = lambda: GaussianWorldModel(database.current_values, sigma)
        _assert_oracle_picks_the_same(
            monkeypatch, database, lambda: GreedyDep(claim, model(), conditional=False)
        )

    def test_adaptive_maxpr_selections_match(self, monkeypatch):
        database, claim = _normal_workload(90)
        _assert_oracle_picks_the_same(
            monkeypatch, database, lambda: AdaptiveMaxPr(claim, tau=5.0), fraction=0.6
        )

    def test_greedy_maxpr_discrete_selections_match(self, monkeypatch):
        # A linear claim over discrete errors: every candidate's drop
        # distribution is built by repeated support convolutions.
        rng = np.random.default_rng(5)
        values = np.sort(rng.integers(0, 20, (8, 3)), axis=1) + np.arange(3.0)
        database = UncertainDatabase(
            [
                UncertainObject(
                    f"d{i}",
                    float(row[1]),
                    DiscreteDistribution(row, rng.dirichlet(np.ones(3))),
                    cost=float(rng.uniform(1.0, 5.0)),
                )
                for i, row in enumerate(values)
            ]
        )
        claim = LinearClaim({i: float(rng.uniform(0.5, 1.5)) for i in range(8)})
        _assert_oracle_picks_the_same(monkeypatch, database, lambda: GreedyMaxPr(claim, tau=2.0))


def test_module_exports_the_kernels_and_the_benchmark_helpers():
    assert set(kernels.__all__) == {
        "outer_downdate",
        "banded_downdate",
        "convolve_support",
        "normal_surprise_scores",
        "conditional_gains",
        "marginal_gains",
        "environment_metadata",
        "get_kernel_tier",
        "get_kernel_dtype",
    }
    assert set(oracle_kernels.__all__) < set(kernels.__all__)
    assert kernels.get_kernel_tier() == "numpy"
    assert kernels.get_kernel_dtype() == np.dtype(np.float64)


def test_former_tier_and_dtype_variables_change_nothing():
    # REPRO_KERNEL and REPRO_KERNEL_DTYPE once selected a C tier and
    # float32 engines; a stale setting must neither fail nor take effect.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    env["REPRO_KERNEL"] = "compiled"
    env["REPRO_KERNEL_DTYPE"] = "float32"
    script = (
        "import numpy as np; "
        "from repro import kernels; "
        "from repro.uncertainty.correlation import ConditionalGaussian; "
        "engine = ConditionalGaussian(np.eye(3), weights=[1.0, 1.0, 1.0]); "
        "print(kernels.get_kernel_tier(), kernels.get_kernel_dtype(), "
        "engine.matrix.dtype, engine.gains().dtype)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
    )
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.decode().split() == ["numpy", "float64", "float64", "float64"]


def test_environment_metadata_is_complete():
    metadata = kernels.environment_metadata()
    for key in ("python", "cpu_count", "numpy", "scipy"):
        assert key in metadata
    assert metadata["numpy"] == np.__version__
