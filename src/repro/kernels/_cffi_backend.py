"""Build and load the C kernels with a system compiler + cffi (ABI mode).

The C translation unit in :mod:`repro.kernels._c_source` is compiled once per
source revision with the system C compiler (``cc``/``gcc``/``clang``) into a
content-addressed shared library, then loaded with ``cffi.FFI().dlopen`` —
no setuptools build step and no import-time cost when the library is already
cached.

Cache directory resolution (first hit wins):

1. ``REPRO_KERNEL_CACHE`` environment variable;
2. ``<repo root>/build/kernels`` when running from a source checkout (the
   directory containing ``pyproject.toml``);
3. ``~/.cache/repro-kernels`` (the conventional user cache location).

Every failure mode — no cffi, no compiler, a compile error, a load error —
is captured in :data:`UNAVAILABLE_REASON` instead of raised, so the dispatch
layer can fall back to the numpy tier gracefully and tests can assert on the
reason.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

from repro.kernels._c_source import C_DECLARATIONS, C_SOURCE

__all__ = ["load_library", "cache_directory"]

#: Why the backend is unavailable (None while undetermined / available).
UNAVAILABLE_REASON: Optional[str] = None

_LIBRARY = None
_FFI = None
_LOAD_ATTEMPTED = False


def cache_directory() -> Path:
    """The directory compiled kernel libraries are cached in (see module doc)."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    # Source checkout: pyproject.toml three levels above this file
    # (src/repro/kernels/_cffi_backend.py).
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "pyproject.toml").is_file():
        return repo_root / "build" / "kernels"
    return Path.home() / ".cache" / "repro-kernels"


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile(compiler: str, directory: Path, tag: str) -> Path:
    """Compile the kernel source into ``libreprokernels-<tag>.so`` atomically."""
    directory.mkdir(parents=True, exist_ok=True)
    library = directory / f"libreprokernels-{tag}.so"
    if library.is_file():
        return library
    source = directory / f"reprokernels-{tag}.c"
    source.write_text(C_SOURCE)
    # Build to a temp name then rename, so concurrent processes (the sweep
    # pool's workers all importing at once) never dlopen a half-written file.
    fd, temporary = tempfile.mkstemp(suffix=".so", dir=str(directory))
    os.close(fd)
    try:
        subprocess.run(
            [compiler, "-O3", "-fPIC", "-shared", str(source), "-o", temporary, "-lm"],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        os.replace(temporary, library)
    except BaseException:
        Path(temporary).unlink(missing_ok=True)
        raise
    return library


def load_library() -> Optional[Tuple[object, object]]:
    """``(ffi, lib)`` for the compiled kernels, or None (reason recorded).

    The first call does all the work (imports cffi, finds a compiler,
    compiles if the cache is cold, dlopens); later calls return the cached
    handle.  Failures set :data:`UNAVAILABLE_REASON` and return None.
    """
    global _LIBRARY, _FFI, _LOAD_ATTEMPTED, UNAVAILABLE_REASON
    if _LOAD_ATTEMPTED:
        return None if _LIBRARY is None else (_FFI, _LIBRARY)
    _LOAD_ATTEMPTED = True
    try:
        import cffi
    except ImportError:
        UNAVAILABLE_REASON = "cffi is not installed"
        return None
    compiler = _find_compiler()
    if compiler is None:
        UNAVAILABLE_REASON = "no C compiler found (tried cc, gcc, clang)"
        return None
    tag = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    try:
        library_path = _compile(compiler, cache_directory(), tag)
    except (OSError, subprocess.SubprocessError) as error:
        detail = getattr(error, "stderr", "") or str(error)
        UNAVAILABLE_REASON = f"kernel compilation failed: {detail.strip()[:500]}"
        return None
    try:
        ffi = cffi.FFI()
        ffi.cdef(C_DECLARATIONS)
        library = ffi.dlopen(str(library_path))
    except Exception as error:  # dlopen/cdef failures are environment-specific
        UNAVAILABLE_REASON = f"kernel library failed to load: {error}"
        return None
    _FFI, _LIBRARY = ffi, library
    UNAVAILABLE_REASON = None
    return (ffi, library)
