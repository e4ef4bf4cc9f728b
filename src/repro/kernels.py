"""The hot-path numeric kernels, one numpy implementation each.

Every hot numeric loop in the engines lives here instead of inline: the
dense and banded rank-one downdates of the Gaussian conditioning engines,
the discrete-sum convolution step, the batched normal-tail surprise scores
and the two vectorized gains passes.  Engines call them through the module
(``kernels.outer_downdate(...)``, never ``from repro.kernels import ...``),
so a profiler that wraps the module attributes reaches every call.

The scalar reference loops the kernels are tested against live in
``tests/oracles/kernels.py``.  The scipy import for the normal CDF happens
inside :func:`normal_surprise_scores` so importing this module stays cheap.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Tuple

import numpy as np

__all__ = [
    "environment_metadata",
    "get_kernel_tier",
    "get_kernel_dtype",
    "outer_downdate",
    "banded_downdate",
    "convolve_support",
    "normal_surprise_scores",
    "conditional_gains",
    "marginal_gains",
]


def get_kernel_tier() -> str:
    """The kernel implementation in use: always ``"numpy"``.

    ``perfbench/run.py`` checks it before every benchmark run.
    """
    return "numpy"


def get_kernel_dtype() -> np.dtype:
    """The engines' working precision: always float64 (checked like the tier)."""
    return np.dtype(np.float64)


def environment_metadata() -> dict:
    """Machine/toolchain facts for benchmark artifacts.

    Recorded in every BENCH_*.json so a regression diff can distinguish a
    real slowdown from a hardware or library change.
    """
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas = (
            config.get("Build Dependencies", {}).get("blas", {}).get("name")
        )
    except Exception:
        pass
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def outer_downdate(matrix: np.ndarray, column: np.ndarray, pivot: float) -> None:
    """``matrix -= outer(column, column) / pivot`` (allocates the n x n outer)."""
    matrix -= np.outer(column, column) / pivot


def banded_downdate(
    bands: np.ndarray, lo: int, column: np.ndarray, pivot: float
) -> None:
    """Per-lag slice subtraction on band storage (already widened by the caller)."""
    m = column.size
    scaled = column / pivot
    for lag in range(min(m, bands.shape[0])):
        bands[lag, lo : lo + m - lag] -= scaled[: m - lag] * column[lag:]


def convolve_support(
    values: np.ndarray,
    probabilities: np.ndarray,
    contributions: np.ndarray,
    contribution_probabilities: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Outer sum + ``np.unique`` merge + ``np.bincount`` mass accumulation."""
    sums = (values[:, None] + contributions[None, :]).reshape(-1)
    mass = (probabilities[:, None] * contribution_probabilities[None, :]).reshape(-1)
    merged_values, inverse = np.unique(sums, return_inverse=True)
    merged_probabilities = np.bincount(
        inverse.reshape(-1), weights=mass, minlength=merged_values.size
    )
    if merged_probabilities.dtype != mass.dtype:
        merged_probabilities = merged_probabilities.astype(mass.dtype)
    return merged_values, merged_probabilities


def normal_surprise_scores(
    shifts: np.ndarray, sds: np.ndarray, tau: float
) -> np.ndarray:
    """Vectorized ``Phi((-tau - shift) / sd)`` with the degenerate indicator."""
    from scipy import stats

    with np.errstate(divide="ignore", invalid="ignore"):
        z = (-tau - shifts) / sds
        probabilities = stats.norm.cdf(z)
    degenerate = sds <= 0.0
    if degenerate.any():
        probabilities = np.where(
            degenerate, (shifts < -tau).astype(float), probabilities
        )
    return np.asarray(probabilities, dtype=shifts.dtype)


def conditional_gains(
    matvec: np.ndarray, diagonal: np.ndarray, floor: np.ndarray
) -> np.ndarray:
    """``v^2 / diag`` where the pivot clears its floor, else 0 (one pass)."""
    live = diagonal > floor
    out = np.zeros(matvec.shape, dtype=matvec.dtype)
    np.divide(matvec * matvec, diagonal, out=out, where=live)
    return out


def marginal_gains(
    weights: np.ndarray,
    matvec: np.ndarray,
    diagonal: np.ndarray,
    cleaned_mask: np.ndarray,
) -> np.ndarray:
    """``2 w v - w^2 diag`` with cleaned components zeroed (one pass)."""
    out = 2.0 * weights * matvec - (weights * weights) * diagonal
    out[cleaned_mask] = 0.0
    return out
