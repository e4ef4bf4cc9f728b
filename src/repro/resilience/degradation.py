"""Structured degradation counters for the graceful-fallback chains.

Every layer of the system has a *degradation chain* — a cheaper, slower or
less-parallel mode it can fall back to without changing answers:

========================  ==========================================
chain                     where it lives
========================  ==========================================
warm → cold re-solve      :class:`repro.streaming.planner.StreamingPlanner`
pool → serial execution   :mod:`repro.experiments.sweeps` / ``matrix``
store retry → give up     :mod:`repro.store.sqlite_store`
torn journal → truncate   :meth:`repro.streaming.events.Journal.from_jsonl`
========================  ==========================================

Historically these fallbacks emitted a ``RuntimeWarning`` and nothing else —
visible in an interactive session, lost to stderr in a service.  This module
gives every chain a *counter*: a ``(site, action)`` key incremented on every
degradation, readable as a plain dict.  A process-wide collector
(:func:`global_degradations`) always records; :func:`degradation_scope`
additionally captures into a fresh collector for the duration of a block, so
harnesses can assert "this run degraded exactly twice, both pool→serial"
without scraping warnings.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping

__all__ = [
    "DegradationCounters",
    "degradation_scope",
    "global_degradations",
    "record_degradation",
    "reset_global_degradations",
]


class DegradationCounters:
    """A thread-safe bag of ``site.action -> count`` degradation counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def record(self, site: str, action: str, count: int = 1) -> None:
        """Count one (or ``count``) degradations of ``action`` at ``site``."""
        key = f"{site}.{action}"
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + int(count)

    def snapshot(self) -> Dict[str, int]:
        """The current counters as a plain sorted dict (a copy)."""
        with self._lock:
            return dict(sorted(self._counts.items()))

    def total(self) -> int:
        """Total degradations recorded across every site and action."""
        with self._lock:
            return sum(self._counts.values())

    def get(self, site: str, action: str) -> int:
        """The count for one ``(site, action)`` pair (0 when never recorded)."""
        with self._lock:
            return self._counts.get(f"{site}.{action}", 0)

    def merge(self, other: Mapping[str, int]) -> None:
        """Add another snapshot's counts into this collector."""
        with self._lock:
            for key, count in other.items():
                self._counts[key] = self._counts.get(key, 0) + int(count)

    def reset(self) -> None:
        """Drop every counter."""
        with self._lock:
            self._counts.clear()

    def __repr__(self) -> str:
        return f"DegradationCounters({self.snapshot()})"


_GLOBAL = DegradationCounters()
_SCOPES: List[DegradationCounters] = []
_SCOPES_LOCK = threading.Lock()


def global_degradations() -> DegradationCounters:
    """The process-wide collector every degradation is recorded into."""
    return _GLOBAL


def reset_global_degradations() -> None:
    """Clear the process-wide collector (test isolation helper)."""
    _GLOBAL.reset()


def record_degradation(site: str, action: str, count: int = 1) -> None:
    """Record a degradation into the global collector and every open scope.

    This is the one entry point the chains call; it must stay cheap enough
    for per-call fallbacks such as store retries (one lock per open
    collector, no allocation when nothing is scoped).
    """
    _GLOBAL.record(site, action, count)
    if _SCOPES:
        with _SCOPES_LOCK:
            scopes = list(_SCOPES)
        for scope in scopes:
            scope.record(site, action, count)


@contextmanager
def degradation_scope() -> Iterator[DegradationCounters]:
    """Capture the degradations recorded while the block runs.

    Scopes nest: every open scope sees every record, so an outer harness
    scope still observes degradations counted inside an inner one.
    """
    collector = DegradationCounters()
    with _SCOPES_LOCK:
        _SCOPES.append(collector)
    try:
        yield collector
    finally:
        with _SCOPES_LOCK:
            _SCOPES.remove(collector)
