"""Fault injection, bounded retries and graceful-degradation accounting.

The resilience layer has three pieces, each usable on its own:

* :mod:`repro.resilience.faults` — a deterministic, seeded
  :class:`~repro.resilience.faults.FaultPlan` injected at named sites
  (pool workers, store I/O, journal writes, stream events, column-page
  reads, HTTP requests), installable per scope or through the ``REPRO_FAULTS``
  environment variable;
* :mod:`repro.resilience.retry` — the bounded, jittered, counted
  :func:`~repro.resilience.retry.retry_call` loop the store and the pool
  engines share;
* :mod:`repro.resilience.degradation` — structured
  :class:`~repro.resilience.degradation.DegradationCounters` recording
  every graceful fallback (warm→cold re-solve, pool→serial execution,
  store retries) as counters instead of warnings lost to stderr.

The point of the combination: a chaos run (faults injected everywhere)
must finish with the *same plans* as a clean run, differing only in its
degradation counters — the property the chaos tests and the CI chaos leg
pin down.
"""

from repro.resilience.degradation import (
    DegradationCounters,
    degradation_scope,
    global_degradations,
    record_degradation,
    reset_global_degradations,
)
from repro.resilience.faults import (
    FAULT_SITES,
    FaultPlan,
    HttpRequestFault,
    InjectedFault,
    StoreReadFault,
    TransientStoreFault,
    WorkerCrashFault,
    active_fault_plan,
    clear_fault_plan,
    fault_scope,
    injected_counts,
    install_fault_plan,
    maybe_corrupt_event,
    maybe_inject,
    maybe_torn_write,
)
from repro.resilience.retry import BackoffPolicy, retry_call

__all__ = [
    "BackoffPolicy",
    "DegradationCounters",
    "FAULT_SITES",
    "FaultPlan",
    "HttpRequestFault",
    "InjectedFault",
    "StoreReadFault",
    "TransientStoreFault",
    "WorkerCrashFault",
    "active_fault_plan",
    "clear_fault_plan",
    "degradation_scope",
    "fault_scope",
    "global_degradations",
    "injected_counts",
    "install_fault_plan",
    "maybe_corrupt_event",
    "maybe_inject",
    "maybe_torn_write",
    "record_degradation",
    "reset_global_degradations",
    "retry_call",
]
