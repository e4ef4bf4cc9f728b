"""Tier dispatch for the hot-path kernels.

Every hot numeric loop in the engines routes through this module's
module-level functions (:func:`outer_downdate` and friends).  Which
implementation actually runs is a process-wide *tier*:

``numpy``
    The vectorized expressions the engines used inline before this layer
    existed — the default, and bit-identical to the pre-dispatch code.
``compiled``
    A C translation unit compiled with the system compiler and loaded via
    cffi, for the three kernels it speeds up (``outer_downdate``,
    ``banded_downdate``, ``normal_surprise_scores``); the other three run
    their numpy implementation on this tier too.  If the C library cannot
    be built or loaded the tier *behaves* like numpy after emitting one
    warning — selections never change, only speed.

The tier comes from ``REPRO_KERNEL`` at import time and can be changed with
:func:`set_kernel_tier` or scoped with the :func:`kernel_tier` context
manager.  Precision is a separate axis: :func:`kernel_dtype` /
``REPRO_KERNEL_DTYPE`` select float64 (default) or float32 working
precision; engines that support it read :func:`get_kernel_dtype` at
construction time.
"""

from __future__ import annotations

import os
import platform
import sys
import warnings
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.kernels import numpy_impl
from repro.resilience.degradation import record_degradation
from repro.resilience.faults import KernelBackendFault, faults_active, maybe_inject

__all__ = [
    "TIERS",
    "kernel_tier",
    "kernel_dtype",
    "set_kernel_tier",
    "get_kernel_tier",
    "set_kernel_dtype",
    "get_kernel_dtype",
    "effective_tier",
    "compiled_available",
    "compiled_backend",
    "compiled_unavailable_reason",
    "environment_metadata",
    "outer_downdate",
    "banded_downdate",
    "convolve_support",
    "normal_surprise_scores",
    "conditional_gains",
    "marginal_gains",
]

TIERS = ("numpy", "compiled")

_KERNEL_NAMES = (
    "outer_downdate",
    "banded_downdate",
    "convolve_support",
    "normal_surprise_scores",
    "conditional_gains",
    "marginal_gains",
)

_NUMPY_TABLE: Dict[str, Callable] = {
    name: getattr(numpy_impl, name) for name in _KERNEL_NAMES
}

_ACTIVE: Dict[str, Callable] = dict(_NUMPY_TABLE)
_TIER = "numpy"
_EFFECTIVE_TIER = "numpy"
_DTYPE = np.dtype(np.float64)
_WARNED_FALLBACK = False


def _validate_tier(tier: str) -> str:
    tier = str(tier).strip().lower()
    if tier not in TIERS:
        raise ValueError(f"unknown kernel tier {tier!r}; expected one of {TIERS}")
    return tier


def _compiled_table() -> Optional[Dict[str, Callable]]:
    from repro.kernels import compiled

    return compiled.load_implementations()


def _activate(tier: str) -> None:
    """Rebuild the active implementation table for ``tier``.

    Dispatch itself must stay cheap (the downdate kernel runs once per
    greedy pick), so tier changes pay the lookup cost once here and the
    hot-path wrappers below do a single dict access.
    """
    global _ACTIVE, _TIER, _EFFECTIVE_TIER, _WARNED_FALLBACK
    _TIER = tier
    if tier == "numpy":
        _ACTIVE, _EFFECTIVE_TIER = dict(_NUMPY_TABLE), "numpy"
        return
    table = _compiled_table()
    if table is not None:
        _ACTIVE, _EFFECTIVE_TIER = {**_NUMPY_TABLE, **table}, "compiled"
        return
    record_degradation("kernels", "compiled_unavailable")
    if not _WARNED_FALLBACK:
        _WARNED_FALLBACK = True
        warnings.warn(
            "compiled kernel tier requested but no backend is available "
            f"({compiled_unavailable_reason()}); falling back to the numpy tier",
            RuntimeWarning,
            stacklevel=3,
        )
    _ACTIVE, _EFFECTIVE_TIER = dict(_NUMPY_TABLE), "numpy"


def set_kernel_tier(tier: str) -> None:
    """Select the process-wide kernel tier (``numpy`` or ``compiled``)."""
    _activate(_validate_tier(tier))


def get_kernel_tier() -> str:
    """The *requested* tier (``compiled`` even when it fell back to numpy)."""
    return _TIER


def effective_tier() -> str:
    """The tier actually executing (``numpy`` when compiled is unavailable)."""
    return _EFFECTIVE_TIER


@contextmanager
def kernel_tier(tier: str) -> Iterator[None]:
    """Scoped tier override: ``with kernel_tier("compiled"): ...``."""
    previous = _TIER
    set_kernel_tier(tier)
    try:
        yield
    finally:
        set_kernel_tier(previous)


def set_kernel_dtype(dtype) -> None:
    """Select the working precision engines adopt at construction time."""
    global _DTYPE
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(
            f"unsupported kernel dtype {resolved}; expected float64 or float32"
        )
    _DTYPE = resolved


def get_kernel_dtype() -> np.dtype:
    """The current working precision (float64 unless float32 was selected)."""
    return _DTYPE


@contextmanager
def kernel_dtype(dtype) -> Iterator[None]:
    """Scoped precision override: ``with kernel_dtype(np.float32): ...``."""
    previous = _DTYPE
    set_kernel_dtype(dtype)
    try:
        yield
    finally:
        set_kernel_dtype(previous)


def compiled_available() -> bool:
    """Whether the compiled (cffi) backend can actually run."""
    return _compiled_table() is not None


def compiled_backend() -> Optional[str]:
    """``"cffi"`` when the compiled backend is available, else ``None``."""
    from repro.kernels import compiled

    return compiled.backend_name()


def compiled_unavailable_reason() -> Optional[str]:
    """Why the compiled tier cannot run (``None`` when it can)."""
    from repro.kernels import compiled

    return compiled.unavailable_reason()


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
        "compiled_backend": compiled_backend(),
        "compiled_unavailable_reason": compiled_unavailable_reason(),
    }


def _call_with_faults(name: str, *args):
    """The degradation-chain path: one kernel call under an active fault plan.

    An injected :class:`~repro.resilience.faults.KernelBackendFault` degrades
    exactly this call to the numpy implementation — bit-identical results on
    the numpy tier, float-level identical on compiled — and records a
    ``("kernels", "<tier>_to_numpy")`` counter instead of warning.
    """
    try:
        maybe_inject("kernel")
    except KernelBackendFault:
        record_degradation("kernels", f"{_EFFECTIVE_TIER}_to_numpy")
        return _NUMPY_TABLE[name](*args)
    return _ACTIVE[name](*args)


def outer_downdate(matrix: np.ndarray, column: np.ndarray, pivot: float) -> None:
    """In-place dense rank-one downdate: ``matrix -= outer(c, c) / pivot``."""
    if faults_active():
        _call_with_faults("outer_downdate", matrix, column, pivot)
        return
    _ACTIVE["outer_downdate"](matrix, column, pivot)


def banded_downdate(
    bands: np.ndarray, lo: int, column: np.ndarray, pivot: float
) -> None:
    """In-place rank-one downdate on band storage (caller pre-widens)."""
    if faults_active():
        _call_with_faults("banded_downdate", bands, lo, column, pivot)
        return
    _ACTIVE["banded_downdate"](bands, lo, column, pivot)


def convolve_support(
    values: np.ndarray,
    probabilities: np.ndarray,
    contributions: np.ndarray,
    contribution_probabilities: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One discrete-convolution step; returns the merged ``(values, probs)``."""
    if faults_active():
        return _call_with_faults(
            "convolve_support",
            values,
            probabilities,
            contributions,
            contribution_probabilities,
        )
    return _ACTIVE["convolve_support"](
        values, probabilities, contributions, contribution_probabilities
    )


def normal_surprise_scores(
    shifts: np.ndarray, sds: np.ndarray, tau: float
) -> np.ndarray:
    """Batched ``Phi((-tau - shift) / sd)`` with the degenerate indicator."""
    if faults_active():
        return _call_with_faults("normal_surprise_scores", shifts, sds, tau)
    return _ACTIVE["normal_surprise_scores"](shifts, sds, tau)


def conditional_gains(
    matvec: np.ndarray, diagonal: np.ndarray, floor: np.ndarray
) -> np.ndarray:
    """Conditional-mode gains: ``v^2/diag`` above the pivot floor, else 0."""
    if faults_active():
        return _call_with_faults("conditional_gains", matvec, diagonal, floor)
    return _ACTIVE["conditional_gains"](matvec, diagonal, floor)


def marginal_gains(
    weights: np.ndarray,
    matvec: np.ndarray,
    diagonal: np.ndarray,
    cleaned_mask: np.ndarray,
) -> np.ndarray:
    """Marginal-mode gains: ``2wv - w^2 diag``, zero for cleaned components."""
    if faults_active():
        return _call_with_faults(
            "marginal_gains", weights, matvec, diagonal, cleaned_mask
        )
    return _ACTIVE["marginal_gains"](weights, matvec, diagonal, cleaned_mask)


# Honour the environment at import time so `REPRO_KERNEL=compiled pytest`
# exercises the whole suite on a different tier without code changes.
_ENV_TIER = os.environ.get("REPRO_KERNEL")
if _ENV_TIER:
    set_kernel_tier(_ENV_TIER)
_ENV_DTYPE = os.environ.get("REPRO_KERNEL_DTYPE")
if _ENV_DTYPE:
    set_kernel_dtype(_ENV_DTYPE)
