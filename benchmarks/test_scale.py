"""Large-n scale smoke for the structured selection engine.

Two regimes, both far beyond what the dense engine could touch:

* **Modular, n = 10^6.**  Array-backed database
  (``UncertainDatabase.from_normal_arrays`` — no per-object Python
  objects), linear recent-share claim, vectorized ``GreedyMinVar`` walk at
  a 1% budget.
* **Dependency-aware, n = 10^5.**  The registered ``scale_share_banded``
  workload — banded moving-average covariance held in band storage
  (O(n * bandwidth) memory; dense would be 80 GB) — driven through
  ``GreedyDep`` on the :class:`BandedConditionalGaussian` engine.

Timings, the engine's final effective bandwidth, its band-storage bytes,
and the process peak RSS go to ``BENCH_scale.json`` *before* the ceiling
asserts, so a breach still updates the artifact;
``benchmarks/check_regressions.py`` gates the committed numbers in CI.
Deselected from tier-1 by the ``scale`` marker (see pyproject) — run with
``pytest benchmarks/test_scale.py -m scale``.

Reference timings on the machine that introduced the engine: modular
n = 10^6 ~0.3 s, dependency n = 10^5 ~0.25 s, peak RSS ~420 MB, final
bandwidth 38 from an initial 8.
"""

import json
import resource
import time
from pathlib import Path

import pytest

from repro.core.greedy import GreedyDep, GreedyMinVar
from repro.kernels import environment_metadata
from repro.workloads.catalog import DEFAULT_N  # noqa: F401  (registers specs)
from repro.workloads.generators import make_normal_array_database, recent_share_claim
from repro.workloads.spec import build_workload

ARTIFACT_PATH = Path(__file__).parent / "BENCH_scale.json"

MODULAR_N = 10**6
DEPENDENCY_N = 10**5

# Measured ~0.3 s / ~0.25 s locally; ceilings are loose for slow CI hosts
# while still catching a return to the quadratic walk (hours) or to
# per-step band-storage doubling (also hours, and tens of GB).
MODULAR_CEILING_SECONDS = 30.0
DEPENDENCY_CEILING_SECONDS = 30.0
# O(n * bandwidth)-class memory: 256 band rows at n = 10^5 is 205 MB, vs
# 80 GB dense.  The run lands at ~39 rows; the ceiling flags runaway fill-in.
BAND_STORAGE_CEILING_BYTES = 256 * DEPENDENCY_N * 8
# Peak RSS for the whole process (both regimes, numpy itself, the pytest
# host): measured ~420 MB; 8 TB would be the dense covariance at n = 10^6.
PEAK_RSS_CEILING_MB = 4096.0


def _peak_rss_mb() -> float:
    # ru_maxrss is KB on Linux; a process-wide high-water mark.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.mark.scale
@pytest.mark.benchmark(group="scale")
def test_scale_structured_engine(report):
    results = {}

    # --- modular, n = 10^6 ------------------------------------------------ #
    database = make_normal_array_database(MODULAR_N, seed=0, cost_model="unit")
    claim = recent_share_claim(MODULAR_N, period=MODULAR_N // 16, share=0.25)
    budget = 0.01 * database.total_cost

    start = time.perf_counter()
    eager = GreedyMinVar(claim).select_indices(database, budget)
    results["modular_seconds"] = time.perf_counter() - start
    results["modular_selected"] = len(eager)

    # --- dependency-aware, n = 10^5 on the banded engine ------------------- #
    workload = build_workload("scale_share_banded", n=DEPENDENCY_N, seed=1)
    dep_database = workload.database
    dep_claim = workload.linear_function()
    dep_budget = 200.0  # unit costs: 200 conditioning steps

    solver = GreedyDep(dep_claim, workload.world_model, conditional=True)
    start = time.perf_counter()
    dep_selected = solver.select_indices(dep_database, dep_budget)
    results["dependency_seconds"] = time.perf_counter() - start
    results["dependency_steps"] = len(dep_selected)

    # Replay the selection on a fresh engine to read the storage the run
    # actually needed (the solver's engine is internal to the run).
    engine = workload.world_model.engine(
        dep_claim.weights(DEPENDENCY_N), conditional=True
    )
    for index in dep_selected:
        engine.condition_on(index)
    results["dependency_final_bandwidth"] = engine.bandwidth
    results["dependency_band_storage_bytes"] = engine.storage_nbytes

    results["peak_rss_mb"] = _peak_rss_mb()

    artifact = {
        "description": (
            "Structured-engine scale smoke: n=1e6 modular (array-backed "
            "database, vectorized walk) and n=1e5 banded dependency "
            "(BandedConditionalGaussian)"
        ),
        "modular_n": MODULAR_N,
        "dependency_n": DEPENDENCY_N,
        "dependency_initial_bandwidth": 8,
        **{key: round(value, 4) if isinstance(value, float) else value
           for key, value in results.items()},
        "modular_ceiling_seconds": MODULAR_CEILING_SECONDS,
        "dependency_ceiling_seconds": DEPENDENCY_CEILING_SECONDS,
        "band_storage_ceiling_bytes": BAND_STORAGE_CEILING_BYTES,
        "peak_rss_ceiling_mb": PEAK_RSS_CEILING_MB,
    }
    artifact["environment"] = environment_metadata()
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")
    report(f"scale artifact -> {ARTIFACT_PATH.name}: " + json.dumps(artifact, indent=2))

    # Artifact is on disk — now enforce the ceilings.
    assert results["modular_selected"] > 0
    assert results["dependency_steps"] == 200
    assert results["modular_seconds"] <= MODULAR_CEILING_SECONDS
    assert results["dependency_seconds"] <= DEPENDENCY_CEILING_SECONDS
    assert results["dependency_band_storage_bytes"] <= BAND_STORAGE_CEILING_BYTES
    assert results["peak_rss_mb"] <= PEAK_RSS_CEILING_MB
