"""Machine-sizing and scheduling helpers for the scenario matrix's process pool.

The scenario matrix (:mod:`repro.experiments.matrix`) is the one place that
shards work across a process pool; the policy for *how many* workers and
*how the work is chunked* lives here:

* :func:`machine_workers` sizes a pool to the CPUs this process may actually
  use (the scheduler affinity mask, not the raw core count — containers and
  ``taskset`` restrict the former);
* :func:`resolve_max_workers` turns a user-facing ``max_workers`` value
  (``None``, ``"auto"`` or an int) into a concrete worker count;
* :func:`chunk_ranges` slices a task list into contiguous chunks so each
  pool submission carries several cells (amortizing per-task pickling)
  while still letting the pool balance load across workers;
* :func:`collect_or_rerun` collects one shard, re-running it serially when
  its worker crashed.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, TypeVar, Union

from repro.resilience.degradation import record_degradation
from repro.resilience.faults import WorkerCrashFault, maybe_inject

__all__ = [
    "machine_workers",
    "resolve_max_workers",
    "chunk_ranges",
    "collect_or_rerun",
]

T = TypeVar("T")


def collect_or_rerun(future, serial_thunk: Callable[[], T]) -> T:
    """Collect one pool future, re-running the shard serially on a crash.

    The pool→serial degradation chain: a worker that died
    (``BrokenProcessPool``, or an injected
    :class:`~repro.resilience.faults.WorkerCrashFault` at site ``pool``)
    costs one serial re-run of that shard and a ``("pool",
    "pool_to_serial")`` counter — never the whole experiment.
    """
    try:
        maybe_inject("pool")
        return future.result()
    except (WorkerCrashFault, BrokenProcessPool):
        record_degradation("pool", "pool_to_serial")
        return serial_thunk()


def machine_workers() -> int:
    """Number of CPUs this process may use (affinity-aware, at least 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


def resolve_max_workers(
    max_workers: Union[int, str, None], task_count: Optional[int] = None
) -> int:
    """Concrete worker count for a ``max_workers`` argument.

    ``None`` and ``"auto"`` size to the machine (:func:`machine_workers`);
    an int passes through (validated ``>= 1``).  When ``task_count`` is
    given the result is additionally capped by it — more workers than tasks
    just forks idle processes.
    """
    if max_workers is None or (
        isinstance(max_workers, str) and max_workers.strip().lower() == "auto"
    ):
        workers = machine_workers()
    else:
        try:
            workers = int(max_workers)
        except (TypeError, ValueError):
            raise ValueError(
                f"max_workers must be an int or 'auto', got {max_workers!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {workers}")
    if task_count is not None:
        workers = max(1, min(workers, int(task_count)))
    return workers


def chunk_ranges(count: int, workers: int, chunks_per_worker: int = 4) -> List[range]:
    """Contiguous index chunks covering ``range(count)``.

    Aims for ``workers * chunks_per_worker`` chunks — small enough that one
    submission amortizes pickling over several tasks, large enough that a
    straggler chunk cannot serialize the tail of the run.
    """
    if count <= 0:
        return []
    target = max(1, workers * max(1, chunks_per_worker))
    size = max(1, -(-count // target))
    return [range(lo, min(lo + size, count)) for lo in range(0, count, size)]
