"""Shared helpers: paths, statistics, memory readings and the phase result type."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The checkout root: the benchmark is run from it and builds nothing.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
#: Everything a run writes goes under this ignored directory.
OUT_ROOT = ROOT / ".perfbench-out"


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (``q=0.99`` is the p99)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def p99_supported(count: int) -> bool:
    """True when a p99 has at least ten samples beyond it."""
    return count - math.ceil(0.99 * count) >= 10


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any waited-for child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def files_size(paths: Sequence[Path]) -> int:
    return sum(path.stat().st_size for path in paths if path.exists())


def host_jiffies() -> List[int]:
    """``[steal, total]`` CPU ticks of the whole machine since boot (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        ticks = [int(value) for value in handle.readline().split()[1:9]]
    return [ticks[7], sum(ticks)]


def reference_ms(repeats: int = 5) -> float:
    """Fastest time of a fixed loop of interpreter and numpy work, in ms.

    The loop is the benchmark's own code, so it does the same work at every
    commit: a change in its time between runs is a change in the host's
    speed, not in the program.  Reported for diagnosis only.
    """
    import numpy as np

    matrix = np.ones((1000, 1000))
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value % 7
        for _ in range(10):
            np.multiply(matrix, 0.999, out=matrix)
        times.append(time.perf_counter() - started)
    return 1e3 * min(times)


class HostMeter:
    """What the host did during a run: CPU steal and the reference loop's speed.

    Steal is the share of the machine's CPU ticks the hypervisor gave to
    other guests; the reference loop is timed at the start and at the end.
    """

    def __init__(self) -> None:
        self.jiffies = host_jiffies()
        self.reference_start_ms = reference_ms()

    def finish(self) -> Dict[str, float]:
        steal, total = (now - then for now, then in zip(host_jiffies(), self.jiffies))
        return {
            "steal_share": steal / max(total, 1),
            "reference_start_ms": self.reference_start_ms,
            "reference_end_ms": reference_ms(),
        }


class Clock:
    """Decides when a measured loop stops.

    A loop runs for ``seconds``; it keeps going past that until it has
    ``min_ops`` samples (so a p99 has ten samples beyond it), and never
    starts an op that would end past ``seconds`` once ``min_ops`` is met.
    ``cap_seconds`` bounds the whole loop whatever the program's speed.
    """

    def __init__(self, seconds: float, min_ops: int = 1, cap_seconds: float = 120.0):
        self.seconds = float(seconds)
        self.min_ops = int(min_ops)
        self.cap = float(cap_seconds)
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def more(self, done: int, next_op_estimate: float = 0.0) -> bool:
        elapsed = self.elapsed()
        if elapsed >= self.cap:
            return False
        if done < self.min_ops:
            return True
        return elapsed + next_op_estimate < self.seconds


@dataclass
class Phase:
    """What one measured phase (untraced or traced) of a workload produced.

    ``e2e`` holds the end-to-end metrics under their BENCHMARK.json names;
    ``named`` holds the same measurements under the per-workload names a
    reader looks for (``read_p50_ms``, ``dep_solve_s`` ...), plus sample
    counts.  ``layers`` and ``parts`` are filled for traced phases only.
    """

    e2e: Dict[str, float]
    named: Dict[str, float]
    attempted: int
    failures: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    parts: Dict[str, float] = field(default_factory=dict)
    parts_total_s: float = 0.0
    rows: Optional[list] = None

