"""Tier-comparison harness: every dispatched kernel, both tiers, both dtypes.

Measures the six hot-path kernels (``repro.kernels``) at several sizes in
float64 and float32, through the *dispatch layer* (so the measured cost is
what an engine actually pays), and writes the grid to ``BENCH_tiers.json``:

* per-kernel, per-dtype best-of timings at each size on the ``numpy`` tier,
  and on the ``compiled`` tier for the three kernels it has C code for
  (the other three run numpy on both tiers, so their compiled column would
  only time numpy twice);
* the compiled-over-numpy speedup at each size, and the *crossover point* —
  the smallest measured size at which compiled beats numpy (or null if it
  never does), with the sizes numpy still wins recorded alongside rather
  than cherry-picked away;
* the committed acceptance gate: the best compiled-over-numpy speedup across
  the float64 grid must clear ``COMPILED_SPEEDUP_FLOOR`` (enforced again by
  ``check_regressions.py`` on the artifact).

The harness skips (leaving the committed artifact in place) when no compiled
backend exists.  The numpy fallback and the equivalence of the tiers with
the reference loops are asserted by ``tests/test_kernel_tiers.py``, not
here.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import kernels

ARTIFACT_PATH = Path(__file__).parent / "BENCH_tiers.json"

#: Acceptance floor: compiled must beat numpy by at least this factor on at
#: least one (kernel, size) cell of the float64 grid.
COMPILED_SPEEDUP_FLOOR = 3.0

DTYPES = (np.float64, np.float32)
TIERS = ("numpy", "compiled")

#: The kernels the compiled tier runs in C; it runs numpy for the rest.
COMPILED_KERNELS = ("outer_downdate", "banded_downdate", "normal_surprise_scores")

REPEATS = 30


def _best_of(function, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _kernel_cases(rng: np.random.Generator, dtype) -> dict:
    """size -> zero-argument closure per kernel, for one dtype.

    In-place downdates reuse one working buffer across repeats; the values
    drift (each repeat subtracts another rank-one term) but stay well inside
    normal float range, so the arithmetic cost is unchanged.
    """
    cases: dict = {}

    sizes = (32, 128, 512)
    closures = {}
    for n in sizes:
        matrix = np.asarray(rng.standard_normal((n, n)), dtype=dtype)
        column = np.asarray(rng.standard_normal(n), dtype=dtype)
        closures[n] = lambda m=matrix, c=column: kernels.outer_downdate(m, c, 2.0)
    cases["outer_downdate"] = closures

    sizes = (8, 32, 128)
    closures = {}
    for m in sizes:
        bands = np.asarray(rng.standard_normal((m, 1000)), dtype=dtype)
        column = np.asarray(rng.standard_normal(m), dtype=dtype)
        closures[m] = lambda b=bands, c=column: kernels.banded_downdate(b, 100, c, 2.0)
    cases["banded_downdate"] = closures

    sizes = (10, 100, 1000)
    closures = {}
    contributions = np.asarray([0.0, 3.0, 7.0], dtype=dtype)
    cprobs = np.asarray([0.5, 0.3, 0.2], dtype=dtype)
    for n in sizes:
        values = np.arange(n, dtype=dtype)
        probs = np.full(n, 1.0 / n, dtype=dtype)
        closures[n] = lambda v=values, p=probs: kernels.convolve_support(
            v, p, contributions, cprobs
        )
    cases["convolve_support"] = closures

    sizes = (16, 256, 4096)
    closures = {}
    for n in sizes:
        shifts = np.asarray(rng.standard_normal(n), dtype=dtype)
        sds = np.asarray(np.abs(rng.standard_normal(n)) + 0.1, dtype=dtype)
        sds[::7] = 0.0  # keep the degenerate branch in the measured path
        closures[n] = lambda s=shifts, d=sds: kernels.normal_surprise_scores(
            s, d, 0.3
        )
    cases["normal_surprise_scores"] = closures

    sizes = (16, 256, 4096)
    closures = {}
    for n in sizes:
        matvec = np.asarray(rng.standard_normal(n), dtype=dtype)
        diagonal = np.asarray(np.abs(rng.standard_normal(n)) + 0.01, dtype=dtype)
        floor = np.full(n, 1e-12, dtype=dtype)
        closures[n] = lambda v=matvec, d=diagonal, f=floor: kernels.conditional_gains(
            v, d, f
        )
    cases["conditional_gains"] = closures

    sizes = (16, 256, 4096)
    closures = {}
    for n in sizes:
        weights = np.asarray(rng.standard_normal(n), dtype=dtype)
        matvec = np.asarray(rng.standard_normal(n), dtype=dtype)
        diagonal = np.asarray(np.abs(rng.standard_normal(n)), dtype=dtype)
        cleaned = np.zeros(n, dtype=bool)
        cleaned[::5] = True
        closures[n] = lambda w=weights, v=matvec, d=diagonal, c=cleaned: (
            kernels.marginal_gains(w, v, d, c)
        )
    cases["marginal_gains"] = closures

    return cases


@pytest.mark.benchmark(group="tiers")
def test_tier_crossover_grid(report):
    """Measure the full kernel x size x tier x dtype grid (BENCH_tiers.json)."""
    if not kernels.compiled_available():
        pytest.skip(
            "no compiled kernel backend available "
            f"({kernels.compiled_unavailable_reason()}); "
            "tier grid needs both tiers"
        )

    grid: dict = {}
    for dtype in DTYPES:
        rng = np.random.default_rng(12345)
        cases = _kernel_cases(rng, dtype)
        for kernel_name, closures in cases.items():
            entry = grid.setdefault(
                kernel_name, {"sizes": sorted(closures), "timings": {}}
            )
            dtype_name = np.dtype(dtype).name
            tiers = TIERS if kernel_name in COMPILED_KERNELS else ("numpy",)
            timings = {tier: [] for tier in tiers}
            for size in entry["sizes"]:
                closure = closures[size]
                for tier in tiers:
                    with kernels.kernel_tier(tier):
                        closure()  # warm: compile/dispatch outside the timing
                        timings[tier].append(_best_of(closure, REPEATS))
            entry["timings"][dtype_name] = timings

    # Speedups and crossover points, float64 and float32 alike.
    best_speedup, best_kernel, best_size = 0.0, None, None
    for kernel_name in COMPILED_KERNELS:
        entry = grid[kernel_name]
        entry["compiled_over_numpy"] = {}
        entry["crossover"] = {}
        for dtype_name, timings in entry["timings"].items():
            ratios = [
                n / c for n, c in zip(timings["numpy"], timings["compiled"])
            ]
            entry["compiled_over_numpy"][dtype_name] = ratios
            wins = [
                size for size, ratio in zip(entry["sizes"], ratios) if ratio > 1.0
            ]
            entry["crossover"][dtype_name] = {
                "compiled_beats_numpy_at": min(wins) if wins else None,
                "numpy_wins_at": [
                    size
                    for size, ratio in zip(entry["sizes"], ratios)
                    if ratio <= 1.0
                ],
            }
            if dtype_name == "float64":
                for size, ratio in zip(entry["sizes"], ratios):
                    if ratio > best_speedup:
                        best_speedup, best_kernel, best_size = (
                            ratio,
                            kernel_name,
                            size,
                        )

    artifact = {
        "description": (
            "hot-path kernel timings (best-of seconds) per tier and dtype, "
            "with compiled-over-numpy crossover points"
        ),
        "environment": kernels.environment_metadata(),
        "compiled_backend": kernels.compiled_backend(),
        "tiers": list(TIERS),
        "compiled_kernels": list(COMPILED_KERNELS),
        "dtypes": [np.dtype(d).name for d in DTYPES],
        "kernels": grid,
        "max_compiled_over_numpy_speedup": best_speedup,
        "max_speedup_kernel": best_kernel,
        "max_speedup_size": best_size,
        "compiled_speedup_floor": COMPILED_SPEEDUP_FLOOR,
    }
    # Artifact first, assert second — a regression must reach disk so the CI
    # gate fails on fresh numbers.
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")

    lines = [
        f"Kernel tier grid ({kernels.compiled_backend()} backend), float64 "
        "compiled-over-numpy per size:"
    ]
    for kernel_name in COMPILED_KERNELS:
        entry = grid[kernel_name]
        ratios = entry["compiled_over_numpy"]["float64"]
        pairs = ", ".join(
            f"{size}: {ratio:.2f}x" for size, ratio in zip(entry["sizes"], ratios)
        )
        cross = entry["crossover"]["float64"]["compiled_beats_numpy_at"]
        lines.append(f"  {kernel_name}: {pairs} (crossover at {cross})")
    lines.append(
        f"best speedup {best_speedup:.1f}x ({best_kernel} @ {best_size}, "
        f"floor {COMPILED_SPEEDUP_FLOOR}x); artifact -> {ARTIFACT_PATH.name}"
    )
    report("\n".join(lines))

    assert best_speedup >= COMPILED_SPEEDUP_FLOOR, (
        f"best compiled-over-numpy speedup {best_speedup:.2f}x is below the "
        f"{COMPILED_SPEEDUP_FLOOR}x acceptance floor ({best_kernel} @ {best_size})"
    )


@pytest.mark.benchmark(group="tiers")
def test_tier_results_agree_on_grid_inputs(report):
    """Spot-check the measured closures return the same results per tier."""
    rng = np.random.default_rng(99)
    n = 64
    matrix = rng.standard_normal((n, n))
    matrix = matrix @ matrix.T + n * np.eye(n)
    column = matrix[:, 5].copy()
    pivot = float(matrix[5, 5])

    results = {}
    for tier in TIERS:
        with kernels.kernel_tier(tier):
            if tier == "compiled" and not kernels.compiled_available():
                continue
            work = matrix.copy()
            kernels.outer_downdate(work, column, pivot)
            scores = kernels.normal_surprise_scores(
                np.linspace(-2.0, 2.0, 20), np.full(20, 0.7), 0.3
            )
            results[tier] = (work, scores)

    reference = results["numpy"]
    for tier, (work, scores) in results.items():
        np.testing.assert_allclose(work, reference[0], atol=1e-9)
        np.testing.assert_allclose(scores, reference[1], atol=1e-12)
    report(f"tier agreement verified for {sorted(results)}")
