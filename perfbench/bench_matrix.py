"""matrix: the 144-cell scenario matrix on the program's own process pool.

Every registered workload x {greedy_minvar, greedy_maxpr, random} x budget
fractions {0.05, 0.1, 0.2} at n=200, with ``max_workers="auto"`` (the run
pins itself to at most two CPUs, so the pool has two workers).  The matrix
always runs at base seed 0, the seed ``make matrix`` uses: its cost depends
strongly on the generated data (base seeds 0, 1 and 12 took 10, 7 and 13 s
on a two-vCPU x86-64 VM), so a run-seeded matrix would measure the seed,
not the program.  The run's ``--seed`` is recorded and otherwise unused
here.  Set-up is what a user pays before the first cell: a fresh
interpreter importing the experiments and workload registries and building
the matrix, timed three times.  Matrices repeat for the run's time, at
least two, and every matrix must produce the same 144 rows (wall-clock
aside) with nothing skipped.
"""

from __future__ import annotations

import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    ROOT,
    Clock,
    Phase,
    children_peak_rss_mb,
    median,
    program_env,
    self_peak_rss_mb,
)
from spans import SpanRecorder, load_worker_spans
from layers import TraceView, attach

SOLVERS = ("greedy_minvar", "greedy_maxpr", "random")
BUDGETS = (0.05, 0.1, 0.2)
N = 200
CELLS = 144
SETUPS = 3
MIN_MATRICES = 2
MATRIX_SEED = 0

_REGISTRY_LOAD = (
    "from repro.experiments.matrix import ScenarioMatrix; "
    "ScenarioMatrix(workloads='all', solvers={solvers!r}, budget_fractions={budgets!r}, "
    "n={n}, seed={seed}, max_workers='auto')"
)


def _registry_load_seconds() -> float:
    code = _REGISTRY_LOAD.format(solvers=SOLVERS, budgets=BUDGETS, n=N, seed=MATRIX_SEED)
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=program_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL
    )
    return time.perf_counter() - started


def _matrix():
    from repro.experiments.matrix import ScenarioMatrix

    return ScenarioMatrix(
        workloads="all", solvers=SOLVERS, budget_fractions=BUDGETS, n=N, seed=MATRIX_SEED, max_workers="auto"
    ).run()


def _worker_extras(view_workers: List[dict], matrices: List[tuple]) -> Dict[str, float]:
    """Slowest worker's busy seconds, imbalance and pool wait, per matrix."""
    busy_by_matrix: Dict[int, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for payload in view_workers:
        for span in payload["spans"]:
            if span[1] != "experiments.shard":
                continue
            for position, (started, ended, _cpu) in enumerate(matrices):
                if started <= span[2] <= ended:
                    busy_by_matrix[position][payload["pid"]] += span[3] - span[2]
    slowest, imbalance = [], []
    for busy in busy_by_matrix.values():
        values = list(busy.values())
        slowest.append(max(values))
        imbalance.append(max(values) / (sum(values) / len(values)))
    return {
        "experiments.shard_s": median(slowest) if slowest else 0.0,
        "experiments.shard_imbalance": median(imbalance) if imbalance else 0.0,
        "experiments.pool_wait_s": median([(ended - started) - cpu for started, ended, cpu in matrices]),
    }


def run_phase(seed: int, seconds: float, out: Path, rec: Optional[SpanRecorder], full: bool = True) -> Phase:
    setups = [_registry_load_seconds() for _ in range(SETUPS if full else 1)]
    clock = Clock(seconds, min_ops=MIN_MATRICES if full else 1)
    walls: List[float] = []
    work: List[float] = []
    intervals: List[tuple] = []
    failures: List[str] = []
    reference_rows = None
    while clock.more(len(walls), walls[-1] if walls else 0.0):
        token = rec.begin("op") if rec is not None else None
        cpu_started = time.process_time()
        started = time.perf_counter()
        result = _matrix()
        ended = time.perf_counter()
        walls.append(ended - started)
        intervals.append((started, ended, time.process_time() - cpu_started))
        if token is not None:
            rec.end(token)
        work.append(sum(result.workload_seconds.values()))
        rows = [cell.as_row() for cell in result.cells]
        if len(rows) != CELLS or result.skipped:
            failures.append(f"matrix {len(walls)}: {len(rows)} cells, {len(result.skipped)} skipped")
        if reference_rows is None:
            reference_rows = rows
        elif rows != reference_rows:
            failures.append(f"matrix {len(walls)}: rows differ from the run's first matrix")

    phase = Phase(
        e2e={
            "setup_s": median(setups),
            "peak_rss_mb": self_peak_rss_mb() + children_peak_rss_mb(),
            "main_ms": 1e3 * median(walls),
            "side_ms": 1e3 * median(work),
            "tail_ms": 1e3 * max(walls),
            "ops_per_s": CELLS * len(walls) / sum(walls),
        },
        named={"matrix_s": median(walls), "matrices": len(walls), "shard_work_s": median(work)},
        attempted=len(walls),
        failures=failures,
        rows=reference_rows,
    )
    if rec is not None:
        view = TraceView()
        view.add(rec.payload(), ("op",))
        workers = load_worker_spans(rec.worker_dir)
        for payload in workers:
            view.add(payload, ("experiments.shard",))
        attach(phase, view, len(walls), _worker_extras(workers, intervals))
        if not workers:
            # Pool workers did not inherit the probes (a non-fork start
            # method): their layers are unmeasured, not zero.
            for name in phase.layers:
                if name.startswith("kernels.") and not name.startswith("kernels.fallbacks"):
                    phase.layers[name] = -1.0
    return phase


def cross_check(untraced: Phase, traced: Phase) -> List[str]:
    """The traced matrix must produce the untraced matrix's rows."""
    if untraced.rows != traced.rows:
        return ["traced matrix rows differ from the untraced matrix's rows"]
    return []
