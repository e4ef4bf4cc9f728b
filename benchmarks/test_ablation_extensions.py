"""Ablation benchmarks for the extension features (paper Section 6 future work).

* adaptive vs. static MaxPr cleaning — how much budget adaptivity saves when
  the goal is to reveal a counterargument;
* partial cleaning — how the achievable variance reduction degrades as the
  cleaning procedure becomes less reliable (residual factor rho);
* entropy vs. variance objectives — how often the two disagree on what to
  clean for a numeric fairness measure.
"""

import numpy as np
import pytest

from conftest import run_once
from repro.claims.quality import Bias
from repro.claims.perturbations import window_sum_perturbations
from repro.core.adaptive import AdaptiveMaxPr, run_adaptive_trials
from repro.core.entropy import GreedyMinEntropy, expected_entropy
from repro.core.expected_variance import expected_variance_exact, linear_expected_variance
from repro.core.greedy import GreedyMaxPr, GreedyMinVar
from repro.core.partial import GreedyPartialMinVar, partial_linear_expected_variance
from repro.datasets.synthetic import generate_urx
from repro.datasets.adoptions import load_adoptions
from repro.experiments.reporting import format_rows
from repro.experiments.workloads import fairness_window_comparison_workload


@pytest.mark.benchmark(group="ablation-adaptive")
def test_ablation_adaptive_vs_static_maxpr(benchmark, report):
    """Adaptive MaxPr stops as soon as a counter is revealed; static does not.

    The Monte-Carlo side runs through :func:`run_adaptive_trials`: one rng
    draws all hidden worlds in a single stacked ``sample_worlds`` call and
    the trials share the policy's surprise-engine base.
    """
    database = generate_urx(n=24, seed=5)
    perturbations = window_sum_perturbations(
        n_objects=24, width=4, original_start=20, non_overlapping=True
    )
    bias = Bias(perturbations, database.current_values)
    tau = 10.0
    trials = 5
    budget = database.total_cost * 0.5

    def run_comparison():
        static_plan = GreedyMaxPr(bias, tau=tau).select(database, budget)
        batch = run_adaptive_trials(
            AdaptiveMaxPr(bias, tau=tau),
            database,
            budget,
            trials=trials,
            rng=np.random.default_rng(1),
        )
        return [
            {
                "trial": trial,
                "static_cost": static_plan.cost,
                "adaptive_cost": run.total_cost,
                "adaptive_succeeded": run.final_objective == 1.0,
            }
            for trial, run in enumerate(batch.runs)
        ]

    rows = run_once(benchmark, run_comparison)
    report(format_rows(rows, title="Ablation: adaptive vs static MaxPr cleaning cost"))
    # Adaptivity never spends more than the static plan.
    assert all(row["adaptive_cost"] <= row["static_cost"] + 1e-9 for row in rows)


@pytest.mark.benchmark(group="ablation-partial")
def test_ablation_partial_cleaning(benchmark, report):
    """Variance reduction achievable at 20% budget as cleaning reliability degrades."""
    database = load_adoptions()
    workload = fairness_window_comparison_workload(database, width=4, later_window_start=4)
    bias = workload.query_function
    weights = bias.weights(len(database))
    budget = database.total_cost * 0.2
    initial = linear_expected_variance(database, weights, [])

    def run_sweep():
        rows = []
        for rho in (0.0, 0.3, 0.5, 0.7, 0.9):
            plan = GreedyPartialMinVar(bias, rho=rho).select(database, budget)
            rows.append(
                {
                    "rho": rho,
                    "initial_variance": initial,
                    "variance_after": plan.objective_value,
                    "fraction_removed": 1.0 - plan.objective_value / initial,
                }
            )
        return rows

    rows = run_once(benchmark, run_sweep)
    report(format_rows(rows, title="Ablation: partial cleaning (residual factor rho), Adoptions"))
    removed = [row["fraction_removed"] for row in rows]
    # Less reliable cleaning removes less variance, monotonically.
    assert all(removed[i] >= removed[i + 1] - 1e-9 for i in range(len(removed) - 1))


@pytest.mark.benchmark(group="ablation-entropy")
def test_ablation_entropy_vs_variance_objective(benchmark, report):
    """Entropy- and variance-driven selection on a small fairness workload."""
    database = generate_urx(n=8, seed=11)
    perturbations = window_sum_perturbations(
        n_objects=8, width=2, original_start=6, non_overlapping=True
    )
    bias = Bias(perturbations, database.current_values)
    budget = database.total_cost * 0.4

    def run_comparison():
        minvar = GreedyMinVar(bias).select_indices(database, budget)
        minent = GreedyMinEntropy(bias).select_indices(database, budget)
        return {
            "minvar_selection": tuple(sorted(minvar)),
            "minentropy_selection": tuple(sorted(minent)),
            "minvar_ev": expected_variance_exact(database, bias, minvar),
            "minentropy_ev": expected_variance_exact(database, bias, minent),
            "minvar_eh": expected_entropy(database, bias, minvar),
            "minentropy_eh": expected_entropy(database, bias, minent),
        }

    results = run_once(benchmark, run_comparison)
    report(format_rows([results], title="Ablation: entropy vs variance objective (URx fairness)"))
    # Each objective's own greedy is at least as good on its own metric.
    assert results["minvar_ev"] <= results["minentropy_ev"] + 1e-9
    assert results["minentropy_eh"] <= results["minvar_eh"] + 1e-9
