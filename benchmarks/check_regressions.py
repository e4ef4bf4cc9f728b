#!/usr/bin/env python
"""Fail loudly when any BENCH_*.json artifact exceeds its regression ceiling.

The perf-regression tests assert the same contracts, but a contract buried in
a pytest failure is easy to miss among unrelated errors — CI runs this script
as its own step (even when the test step failed), so a breached ceiling is a
named, red job step of its own.

Each known artifact declares which of its keys is the measured value and
which is the committed ceiling/floor it must respect.  Unknown ``BENCH_*``
files are reported but not enforced (add a rule when a new artifact lands);
a known artifact with missing keys fails loudly — a silently renamed key
must not disable its gate.  Every artifact must also carry an
``environment`` block (CPU counts, numpy/scipy versions) so a regression
diff can tell a real slowdown from a machine or toolchain change.

``--write-baseline`` regenerates every ``BENCH_*.json`` in one command: it
runs the perf-regression and scale benchmarks (including the
``scale``-marked ones the default pytest addopts deselect) and then
re-checks the fresh artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# artifact name -> list of (measured key, comparator, limit key)
RULES = {
    "BENCH_kernels.json": [
        ("greedy_decomposed_ev_seconds", "<=", "greedy_ceiling_seconds"),
    ],
    "BENCH_sweeps.json": [
        ("traced_over_single_ratio", "<=", "ratio_ceiling"),
    ],
    "BENCH_adaptive.json": [
        ("speedup", ">=", "speedup_floor"),
    ],
    "BENCH_dep.json": [
        ("speedup", ">=", "speedup_floor"),
    ],
    "BENCH_scale.json": [
        ("modular_seconds", "<=", "modular_ceiling_seconds"),
        ("dependency_seconds", "<=", "dependency_ceiling_seconds"),
        ("dependency_band_storage_bytes", "<=", "band_storage_ceiling_bytes"),
        ("peak_rss_mb", "<=", "peak_rss_ceiling_mb"),
    ],
    "BENCH_stream.json": [
        ("speedup", ">=", "speedup_floor"),
    ],
    "BENCH_resilience.json": [
        ("checkpoint_overhead_ratio", "<=", "checkpoint_overhead_ceiling"),
        ("recovery_seconds", "<=", "recovery_ceiling_seconds"),
        ("resume_boundaries_verified", ">=", "resume_boundaries_required"),
        ("sigkill_resume_identical", ">=", "sigkill_resume_required"),
        ("chaos_plan_divergence", "<=", "chaos_divergence_ceiling"),
    ],
    "BENCH_service.json": [
        ("read_p99_ms", "<=", "read_p99_ceiling_ms"),
        ("ingest_p99_ms", "<=", "ingest_p99_ceiling_ms"),
        ("responses_verified", ">=", "responses_required"),
        ("plan_mismatches", "<=", "mismatch_ceiling"),
        ("signature_mismatches", "<=", "mismatch_ceiling"),
        ("version_violations", "<=", "mismatch_ceiling"),
        ("sigkill_acked_events_lost", "<=", "mismatch_ceiling"),
    ],
}

#: Environment facts every artifact must record (enforced for known
#: artifacts): enough to attribute a timing shift to hardware or toolchain.
REQUIRED_ENVIRONMENT_KEYS = ("python", "cpu_count", "numpy", "scipy")


def check(path: Path) -> list:
    failures = []
    rules = RULES.get(path.name)
    if rules is None:
        print(f"  ? {path.name}: no regression rule registered (not enforced)")
        return failures
    data = json.loads(path.read_text())
    environment = data.get("environment")
    if not isinstance(environment, dict) or any(
        key not in environment for key in REQUIRED_ENVIRONMENT_KEYS
    ):
        failures.append(
            f"{path.name}: missing or incomplete 'environment' metadata "
            f"(need at least {', '.join(REQUIRED_ENVIRONMENT_KEYS)}) — "
            "regenerate with --write-baseline"
        )
    for measured_key, comparator, limit_key in rules:
        if measured_key not in data or limit_key not in data:
            failures.append(
                f"{path.name}: expected keys {measured_key!r} and {limit_key!r} "
                f"are missing — the artifact schema changed without updating "
                f"{Path(__file__).name}"
            )
            continue
        measured = float(data[measured_key])
        limit = float(data[limit_key])
        ok = measured <= limit if comparator == "<=" else measured >= limit
        verdict = "ok" if ok else "REGRESSION"
        print(
            f"  {'✓' if ok else '✗'} {path.name}: {measured_key}={measured:g} "
            f"{comparator} {limit_key}={limit:g} [{verdict}]"
        )
        if not ok:
            failures.append(
                f"{path.name}: {measured_key}={measured:g} violates "
                f"{measured_key} {comparator} {limit_key}={limit:g}"
            )
    return failures


def write_baseline(bench_dir: Path) -> int:
    """Regenerate every BENCH_*.json by running the benchmark suites once.

    Two pytest invocations cover every artifact writer: the
    perf-regression suite (BENCH_kernels/sweeps/adaptive/dep) and the
    ``scale``-marked benchmarks (BENCH_scale, BENCH_stream,
    BENCH_resilience and BENCH_service — selected explicitly against the
    default addopts).
    """
    repo_root = bench_dir.parent
    environment = dict(os.environ)
    source_dir = str(repo_root / "src")
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        source_dir if not existing else source_dir + os.pathsep + existing
    )
    runs = [
        ["benchmarks/test_perf_regression.py"],
        [
            "benchmarks/test_scale.py",
            "benchmarks/test_stream.py",
            "benchmarks/test_resilience.py",
            "benchmarks/test_service_harness.py",
            "-m",
            "scale",
        ],
    ]
    for selection in runs:
        command = [sys.executable, "-m", "pytest", "-q", *selection]
        print(f"$ {' '.join(command)}")
        completed = subprocess.run(command, cwd=repo_root, env=environment)
        if completed.returncode != 0:
            print(f"baseline run failed (exit {completed.returncode}); aborting")
            return completed.returncode
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate every BENCH_*.json (runs the benchmark suites), then check",
    )
    args = parser.parse_args()
    bench_dir = Path(__file__).parent
    if args.write_baseline:
        status = write_baseline(bench_dir)
        if status != 0:
            return status
    artifacts = sorted(bench_dir.glob("BENCH_*.json"))
    if not artifacts:
        print("no BENCH_*.json artifacts found — nothing to check")
        return 1
    print(f"checking {len(artifacts)} benchmark artifact(s) in {bench_dir}:")
    failures = []
    for path in artifacts:
        failures.extend(check(path))
    if failures:
        print("\nPERF REGRESSION CEILING EXCEEDED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("all benchmark artifacts within their regression ceilings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
