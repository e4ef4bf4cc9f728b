"""The benchmark's hooks into the program still resolve.

``perfbench/spans.py`` wraps program entry points by name at run time, and
``perfbench/run.py`` calls three ``repro.kernels`` functions.  A rename in
``src/`` would otherwise only surface when a traced benchmark run fails.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro import kernels

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_is_defined_on_its_owner():
    spans = _load_spans()
    unresolved = []
    for target, _name, kind in spans.PROBES:
        try:
            owner, attr = spans._resolve(target)
        except (ImportError, AttributeError):
            unresolved.append(target)
            continue
        # install() reads vars(owner)[attr]: a method inherited from a base
        # class resolves with getattr but would raise KeyError there.
        raw = vars(owner).get(attr)
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        if not callable(function) or kind not in spans._KINDS:
            unresolved.append(target)
    assert not unresolved, f"probe targets missing from the program: {unresolved}"


def test_run_py_kernel_calls():
    assert kernels.get_kernel_tier() in kernels.TIERS
    assert kernels.get_kernel_dtype() in (np.dtype(np.float64), np.dtype(np.float32))
    facts = kernels.environment_metadata()
    assert {"python", "cpu_count", "numpy", "compiled_backend"} <= set(facts)
