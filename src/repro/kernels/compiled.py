"""The compiled kernel tier: the cffi C backend for three kernels.

The C translation unit in :mod:`repro.kernels._c_source` is compiled with
the system compiler and loaded in ABI mode (:mod:`repro.kernels._cffi_backend`).
It covers the kernels where compiled loops beat numpy — ``outer_downdate``,
``banded_downdate`` and ``normal_surprise_scores``; the dispatch layer runs
the numpy implementation of every other kernel on the compiled tier too.
When the library cannot be built or loaded, :func:`load_implementations`
returns ``None`` and :func:`unavailable_reason` explains why, so the
dispatch layer can fall back to the numpy tier with a single warning.

The cffi wrappers pass raw pointers, so they require C-contiguous arrays of
a supported dtype (float64/float32); the dispatch layer's call sites
guarantee that for the engine hot paths, and the wrappers fall back to the
numpy implementation per call for anything else (e.g. a strided view handed
to a kernel directly in a test).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.kernels import numpy_impl

__all__ = [
    "load_implementations",
    "backend_name",
    "unavailable_reason",
]

_RESOLVED = False
_BACKEND: Optional[str] = None
_IMPLEMENTATIONS: Optional[Dict[str, Callable]] = None
_UNAVAILABLE_REASON: Optional[str] = None

_SUFFIX = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}


def _usable_together(*arrays: np.ndarray) -> bool:
    """All arrays contiguous, supported, and of ONE dtype.

    The C functions take homogeneous pointers; a caller mixing float32 and
    float64 arrays (e.g. a float32 engine handed a float64 column) must fall
    back to numpy's promoting semantics, not get reinterpreted memory.
    """
    return all(a.flags.c_contiguous and a.dtype in _SUFFIX for a in arrays) and (
        len({a.dtype for a in arrays}) == 1
    )


def _build_cffi_implementations(ffi, lib) -> Dict[str, Callable]:
    """Adapt the raw C functions to the kernel calling convention."""

    def _ptr(array: np.ndarray):
        kind = "double *" if array.dtype == np.float64 else "float *"
        return ffi.cast(kind, array.ctypes.data)

    def outer_downdate(matrix, column, pivot):
        if not _usable_together(matrix, column):
            return numpy_impl.outer_downdate(matrix, column, pivot)
        fn = getattr(lib, f"outer_downdate_{_SUFFIX[matrix.dtype]}")
        fn(_ptr(matrix), _ptr(column), pivot, matrix.shape[0])

    def banded_downdate(bands, lo, column, pivot):
        if not _usable_together(bands, column):
            return numpy_impl.banded_downdate(bands, lo, column, pivot)
        fn = getattr(lib, f"banded_downdate_{_SUFFIX[bands.dtype]}")
        fn(
            _ptr(bands),
            bands.shape[0],
            bands.shape[1],
            int(lo),
            _ptr(column),
            column.size,
            pivot,
        )

    def normal_surprise_scores(shifts, sds, tau):
        if not _usable_together(shifts, sds):
            return numpy_impl.normal_surprise_scores(shifts, sds, tau)
        fn = getattr(lib, f"normal_surprise_{_SUFFIX[shifts.dtype]}")
        out = np.empty(shifts.shape, dtype=shifts.dtype)
        fn(_ptr(shifts), _ptr(sds), tau, _ptr(out), shifts.size)
        return out

    return {
        "outer_downdate": outer_downdate,
        "banded_downdate": banded_downdate,
        "normal_surprise_scores": normal_surprise_scores,
    }


def _resolve() -> None:
    global _RESOLVED, _BACKEND, _IMPLEMENTATIONS, _UNAVAILABLE_REASON
    if _RESOLVED:
        return
    _RESOLVED = True
    from repro.kernels import _cffi_backend

    loaded = _cffi_backend.load_library()
    if loaded is None:
        _UNAVAILABLE_REASON = f"cffi: {_cffi_backend.UNAVAILABLE_REASON}"
        return
    _BACKEND = "cffi"
    _IMPLEMENTATIONS = _build_cffi_implementations(*loaded)


def load_implementations() -> Optional[Dict[str, Callable]]:
    """The compiled kernels by name, or ``None`` if the backend cannot run."""
    _resolve()
    return _IMPLEMENTATIONS


def backend_name() -> Optional[str]:
    """``"cffi"`` once resolved and available, else ``None``."""
    _resolve()
    return _BACKEND


def unavailable_reason() -> Optional[str]:
    """Why the compiled backend is unavailable (``None`` when it is)."""
    _resolve()
    return _UNAVAILABLE_REASON
