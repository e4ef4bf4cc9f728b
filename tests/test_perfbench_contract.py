"""The benchmark's hooks into the program still resolve.

``perfbench/spans.py`` wraps program entry points by name at run time, and
``perfbench/run.py`` calls three ``repro.kernels`` functions.  A rename in
``src/`` would otherwise only surface when a traced benchmark run fails.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro import kernels
from repro.claims.functions import LinearClaim
from repro.core.adaptive import AdaptiveMaxPr
from repro.core.expected_variance import weighted_sum_pmf
from repro.core.greedy import GreedyDep, GreedyMaxPr
from repro.uncertainty.correlation import GaussianWorldModel, banded_covariance
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.structured import BandedCovariance

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
CHECK_REGRESSIONS_PATH = SPANS_PATH.parents[1] / "benchmarks" / "check_regressions.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("perfbench_spans", SPANS_PATH)


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
    assert kernels.get_kernel_tier() == "numpy"
    assert str(kernels.get_kernel_dtype()) == "float64"
    checks = _load("check_regressions", CHECK_REGRESSIONS_PATH)
    assert set(checks.REQUIRED_ENVIRONMENT_KEYS) <= set(kernels.environment_metadata())


def _kernel_paths():
    """Small solves that between them reach all six kernels through the engines.

    Each entry is ``(label, run, kernels)``: ``run()`` must reach every
    kernel in ``kernels`` by itself, so an engine that stops calling one
    through the module fails its own row.
    """
    rng = np.random.default_rng(3)
    n = 12
    database = UncertainDatabase.from_normal_arrays(
        current_values=rng.uniform(20.0, 80.0, n),
        stds=rng.uniform(2.0, 9.0, n),
        costs=rng.uniform(1.0, 10.0, n),
    )
    claim = LinearClaim({i: float(rng.uniform(0.5, 1.5)) for i in range(n)})
    budget = database.total_cost * 0.4

    dense = GaussianWorldModel(
        database.current_values, banded_covariance(database.stds, bandwidth=3, rho=0.7)
    )
    banded = GaussianWorldModel.from_structure(
        database.current_values,
        BandedCovariance.from_moving_average(database.stds, bandwidth=3, rho=0.7),
    )
    discrete = UncertainDatabase(
        [
            UncertainObject(f"d{i}", 1.0, DiscreteDistribution([0.0, 1.0, 2.0], [0.2, 0.5, 0.3]))
            for i in range(3)
        ]
    )
    discrete_claim = LinearClaim({0: 1.0, 1: 2.0, 2: 1.0})
    return [
        (
            "conditional GreedyDep",
            lambda: GreedyDep(claim, dense, conditional=True).select_indices(database, budget),
            {"outer_downdate", "conditional_gains"},
        ),
        (
            "marginal GreedyDep",
            lambda: GreedyDep(claim, dense, conditional=False).select_indices(database, budget),
            {"marginal_gains"},
        ),
        (
            "banded GreedyDep",
            lambda: GreedyDep(claim, banded, conditional=True).select_indices(database, budget),
            {"banded_downdate", "conditional_gains"},
        ),
        (
            "normal GreedyMaxPr",
            lambda: GreedyMaxPr(claim, tau=5.0).select_indices(database, budget),
            {"normal_surprise_scores"},
        ),
        (
            "discrete GreedyMaxPr",
            lambda: GreedyMaxPr(discrete_claim, tau=0.5).select_indices(discrete, 3.0),
            {"convolve_support"},
        ),
        (
            "AdaptiveMaxPr",
            lambda: AdaptiveMaxPr(claim, tau=5.0).select_indices(database, budget),
            {"normal_surprise_scores"},
        ),
        (
            "weighted_sum_pmf",
            lambda: weighted_sum_pmf(discrete, [0, 1, 2], {0: 1.0, 1: 2.0, 2: 1.0}),
            {"convolve_support"},
        ),
    ]


def test_kernel_probes_see_every_engine_call():
    # An engine that imports a kernel by name (``from repro.kernels import
    # outer_downdate``) would bypass the probes and zero the traced run's
    # kernel attribution without failing anything else.
    spans = _load_spans()
    kernel_probes = [p for p in spans.PROBES if p[2] == "kernel"]
    seen = set()
    unseen = {}
    for label, run, expected in _kernel_paths():
        recorder = spans.SpanRecorder()
        uninstall = spans.install(recorder, kernel_probes)
        try:
            run()
        finally:
            uninstall()
        recorded = {span[1].removeprefix("kernels.") for span in recorder.spans}
        seen |= recorded
        if expected - recorded:
            unseen[label] = sorted(expected - recorded)
    assert not unseen, f"kernel probes saw no call from {unseen}"
    missing = [name for name in spans.KERNELS if name not in seen]
    assert not missing, f"kernel probes saw no call to {missing}"
