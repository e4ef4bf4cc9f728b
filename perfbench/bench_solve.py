"""solve: one-shot GreedyDep and GreedyMinVar solves on fresh solvers.

Set-up builds two input sets from the seed, three times over (the median is
reported): the ``figure11c_gamma_grid`` dependency setup — the n=2,000 URx
fairness workload with dense decaying covariance (gamma 0.7) at a 10%
budget — and the n=2,000 URx uniqueness workload at budget 500.  A round
is one conditional-mode GreedyDep solve followed by decomposed-EV
GreedyMinVar solves for as long as that GreedyDep solve took (at least
1 s), each on a fresh solver (and a fresh calculator); rounds repeat for
the run's time, at least two.  A GreedyDep solve takes 3-7 s and a
GreedyMinVar solve 45-120 ms on a shared two-vCPU x86-64 VM whose speed
drifts over seconds to minutes, so both solvers get half of the run,
interleaved: GreedyMinVar figures drawn from a few seconds of a run swing
with the host's speed.  Every
selection is checked against the budget, and its objective is recomputed
without the solver's engine: a pseudo-inverse Schur complement for
GreedyDep, a fresh ``DecomposedEVCalculator`` for GreedyMinVar (once per
distinct selection; every GreedyMinVar solve of a run must return the
same selection).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional

from common import Clock, Phase, mean, median, self_peak_rss_mb
from spans import SpanRecorder
from layers import TraceView, attach

N = 2000
DEP_GAMMA = 0.7
DEP_BUDGET_FRACTION = 0.1
MINVAR_GAMMA = 100.0
MINVAR_BUDGET = 500.0
MINVAR_MIN_BLOCK_S = 1.0
SETUPS = 3
MIN_ROUNDS = 2
TOLERANCE = 1e-9


class Inputs:
    """Both solve problems, built from the seed."""

    def __init__(self, seed: int):
        import repro.experiments.workloads as workloads
        from repro.core.problems import budget_from_fraction
        from repro.datasets.synthetic import generate_urx
        from repro.uncertainty.correlation import GaussianWorldModel, decaying_covariance

        self.dep_database = generate_urx(n=N, seed=seed)
        fairness = workloads.fairness_window_comparison_workload(
            self.dep_database,
            width=4,
            later_window_start=4,
            max_perturbations=None,
            sensibility_rate=1.002,
        )
        self.bias = fairness.query_function
        self.weights = self.bias.weights(N)
        covariance = decaying_covariance(self.dep_database.stds, DEP_GAMMA)
        self.model = GaussianWorldModel(self.dep_database.current_values, covariance, validate=False)
        self.dep_budget = budget_from_fraction(self.dep_database, DEP_BUDGET_FRACTION)
        uniqueness = workloads.uniqueness_workload(generate_urx(N, seed), window_width=4, gamma=MINVAR_GAMMA)
        self.minvar_database = uniqueness.database
        self.measure = uniqueness.query_function


def _check_dep(inputs: Inputs, steps) -> List[str]:
    selection = [step.index for step in steps]
    failures = []
    spent = float(inputs.dep_database.costs[selection].sum())
    if spent > inputs.dep_budget + 1e-9:
        failures.append(f"GreedyDep spent {spent:g} over budget {inputs.dep_budget:g}")
    initial = inputs.model.variance_of_linear(inputs.weights)
    own = initial - sum(step.gain for step in steps)
    recomputed = inputs.model.post_cleaning_variance(inputs.weights, selection)
    if abs(own - recomputed) > TOLERANCE * initial:
        failures.append(f"GreedyDep objective {own!r} != recomputed {recomputed!r}")
    return failures


def _check_minvar(inputs: Inputs, selection, calculator) -> List[str]:
    from repro.core.expected_variance import DecomposedEVCalculator

    failures = []
    spent = float(inputs.minvar_database.costs[list(selection)].sum())
    if spent > MINVAR_BUDGET + 1e-9:
        failures.append(f"GreedyMinVar spent {spent:g} over budget {MINVAR_BUDGET:g}")
    own = calculator.expected_variance(selection)
    recomputed = DecomposedEVCalculator(inputs.minvar_database, inputs.measure).expected_variance(selection)
    if abs(own - recomputed) > TOLERANCE * max(1.0, abs(recomputed)):
        failures.append(f"GreedyMinVar objective {own!r} != recomputed {recomputed!r}")
    return failures


def run_phase(seed: int, seconds: float, out: Path, rec: Optional[SpanRecorder], full: bool = True) -> Phase:
    from repro.core.expected_variance import DecomposedEVCalculator
    from repro.core.greedy import GreedyDep, GreedyMinVar

    setups: List[float] = []
    for _ in range(SETUPS if full else 1):
        started = time.perf_counter()
        inputs = Inputs(seed)
        setups.append(time.perf_counter() - started)

    clock = Clock(seconds, min_ops=MIN_ROUNDS if full else 1)
    dep: List[float] = []
    dep_steps: List[int] = []
    minvar: List[float] = []
    failures: List[str] = []
    first_selection = None
    cache_entries: List[int] = []
    cpu = 0.0
    round_seconds = 0.0
    while clock.more(len(dep), round_seconds):
        round_started = time.perf_counter()
        token = rec.begin("op") if rec is not None else None
        cpu_started = time.thread_time()
        started = time.perf_counter()
        trace = GreedyDep(inputs.bias, inputs.model, conditional=True).trace(inputs.dep_database, inputs.dep_budget)
        dep.append(time.perf_counter() - started)
        cpu += time.thread_time() - cpu_started
        if token is not None:
            rec.end(token)
        dep_steps.append(len(trace.steps))
        failures.extend(_check_dep(inputs, trace.steps))
        block_seconds = max(MINVAR_MIN_BLOCK_S, dep[-1])
        block_started = time.perf_counter()
        while time.perf_counter() - block_started < block_seconds:
            token = rec.begin("op") if rec is not None else None
            cpu_started = time.thread_time()
            started = time.perf_counter()
            calculator = DecomposedEVCalculator(inputs.minvar_database, inputs.measure)
            selection = GreedyMinVar(inputs.measure, calculator=calculator).select_indices(
                inputs.minvar_database, MINVAR_BUDGET
            )
            minvar.append(time.perf_counter() - started)
            cpu += time.thread_time() - cpu_started
            if token is not None:
                rec.end(token)
            if first_selection is None:
                first_selection = selection
                failures.extend(_check_minvar(inputs, selection, calculator))
            elif selection != first_selection:
                failures.append("GreedyMinVar returned a different selection for the same input")
        cache_entries.append(sum(calculator.cache_sizes()))
        round_seconds = time.perf_counter() - round_started

    phase = Phase(
        e2e={
            "setup_s": median(setups),
            "peak_rss_mb": self_peak_rss_mb(),
            "main_ms": 1e3 * median(dep),
            # The mean, not the median: the host switches between two speeds
            # every few seconds, and a run's median of these short solves
            # jumps from one speed to the other as their shares cross one
            # half, while the mean follows the shares smoothly.
            "side_ms": 1e3 * mean(minvar),
            "tail_ms": 1e3 * max(dep),
            # Objects GreedyDep selects per second of its time.  A rate
            # pooling both solvers would hinge on how many GreedyDep solves
            # fit into the run.
            "ops_per_s": sum(dep_steps) / sum(dep),
        },
        named={
            "dep_solve_s": median(dep),
            "minvar_solve_s": mean(minvar),
            "minvar_solve_p50_s": median(minvar),
            "dep_solves": len(dep),
            "minvar_solves": len(minvar),
            "dep_steps": len(trace.steps),
            "solve_cpu_share": cpu / (sum(dep) + sum(minvar)),
        },
        attempted=len(dep) + len(minvar),
        failures=failures,
    )
    if rec is not None:
        view = TraceView()
        view.add(rec.payload(), ("op",))
        attach(phase, view, len(dep), {"core.ev_cache_entries": median(cache_entries)})
    return phase
