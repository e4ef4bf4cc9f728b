"""Unit tests for the experiment harness (sweeps, scenarios, reporting, efficiency)."""

import numpy as np
import pytest

from oracles.sweeps import per_budget_sweep
from repro.claims.functions import LinearClaim, WindowSumClaim
from repro.claims.perturbations import PerturbationSet
from repro.claims.quality import Bias, Duplicity
from repro.claims.strength import lower_is_stronger
from repro.core.expected_variance import DecomposedEVCalculator, linear_expected_variance
from repro.core.greedy import (
    GreedyDep,
    GreedyMaxPr,
    GreedyMinVar,
    GreedyNaive,
    GreedyNaiveCostBlind,
    RandomSelector,
)
from repro.core.modular import OptimumModularMinVar
from repro.core.partial import GreedyPartialMinVar
from repro.core.surprise import surprise_probability_normal_linear
from repro.experiments.efficiency import time_budget_scaling, time_size_scaling
from repro.experiments.reporting import format_rows, format_series_table
from repro.experiments.scenarios import (
    measure_moments,
    run_competing_objectives,
    run_counter_discovery,
    run_in_action_experiment,
)
from repro.experiments.sweeps import run_budget_sweep, sweep_algorithm
from repro.experiments.workloads import uniqueness_workload
from repro.datasets.synthetic import generate_urx
from repro.uncertainty.correlation import GaussianWorldModel, banded_covariance
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.structured import BandedCovariance


@pytest.fixture
def normal_linear():
    """A normal-error database with varied costs and a mixed-sign linear claim."""
    rng = np.random.default_rng(11)
    n = 14
    database = UncertainDatabase.from_normal_arrays(
        current_values=rng.uniform(20.0, 80.0, n),
        stds=rng.uniform(2.0, 9.0, n),
        costs=rng.uniform(1.0, 10.0, n),
    )
    claim = LinearClaim({i: float(rng.uniform(-1.5, 1.5)) for i in range(n)})
    return database, claim


#: Trace-capable solvers over ``normal_linear``, one fresh instance per call.
NORMAL_LINEAR_SOLVERS = {
    "GreedyNaiveCostBlind": lambda db, claim: GreedyNaiveCostBlind(claim),
    "GreedyMaxPr": lambda db, claim: GreedyMaxPr(claim, tau=2.0),
    "GreedyPartialMinVar": lambda db, claim: GreedyPartialMinVar(claim, rho=0.5),
    "GreedyDep-dense": lambda db, claim: GreedyDep(
        claim,
        GaussianWorldModel(db.current_values, banded_covariance(db.stds, bandwidth=2, rho=0.6)),
    ),
    "GreedyDep-marginal": lambda db, claim: GreedyDep(
        claim,
        GaussianWorldModel(db.current_values, banded_covariance(db.stds, bandwidth=2, rho=0.6)),
        conditional=False,
    ),
    "GreedyDep-banded": lambda db, claim: GreedyDep(
        claim,
        GaussianWorldModel.from_structure(
            db.current_values,
            BandedCovariance.from_moving_average(db.stds, bandwidth=2, rho=0.6),
        ),
    ),
}


@pytest.fixture
def urx_uniqueness():
    db = generate_urx(n=16, seed=3)
    workload = uniqueness_workload(db, window_width=4, gamma=180.0)
    calculator = DecomposedEVCalculator(workload.database, workload.query_function)
    return workload, calculator


class TestRunBudgetSweep:
    def test_series_shapes(self, urx_uniqueness):
        workload, calculator = urx_uniqueness
        algorithms = {
            "GreedyNaive": GreedyNaive(workload.query_function),
            "GreedyMinVar": GreedyMinVar(workload.query_function, calculator=calculator),
        }
        result = run_budget_sweep(
            workload.database,
            algorithms,
            calculator.expected_variance,
            budget_fractions=(0.25, 0.5, 1.0),
        )
        assert result.budget_fractions == [0.25, 0.5, 1.0]
        assert set(result.series) == {"GreedyNaive", "GreedyMinVar"}
        assert all(len(values) == 3 for values in result.series.values())

    def test_objective_non_increasing_in_budget(self, urx_uniqueness):
        workload, calculator = urx_uniqueness
        algorithms = {"GreedyMinVar": GreedyMinVar(workload.query_function, calculator=calculator)}
        result = run_budget_sweep(
            workload.database,
            algorithms,
            calculator.expected_variance,
            budget_fractions=(0.2, 0.5, 1.0),
        )
        series = result.series["GreedyMinVar"]
        assert series[0] >= series[1] - 1e-9 >= series[2] - 2e-9

    def test_full_budget_removes_all_uncertainty(self, urx_uniqueness):
        workload, calculator = urx_uniqueness
        algorithms = {"GreedyMinVar": GreedyMinVar(workload.query_function, calculator=calculator)}
        result = run_budget_sweep(
            workload.database, algorithms, calculator.expected_variance, budget_fractions=(1.0,)
        )
        assert result.series["GreedyMinVar"][0] == pytest.approx(0.0, abs=1e-9)

    def test_as_rows_and_best_algorithm(self, urx_uniqueness):
        workload, calculator = urx_uniqueness
        algorithms = {
            "GreedyNaive": GreedyNaive(workload.query_function),
            "GreedyMinVar": GreedyMinVar(workload.query_function, calculator=calculator),
        }
        result = run_budget_sweep(
            workload.database, algorithms, calculator.expected_variance, budget_fractions=(0.5,)
        )
        rows = result.as_rows()
        assert len(rows) == 2
        assert {"algorithm", "budget_fraction", "objective"} <= set(rows[0])
        assert result.best_algorithm_at(0.5) in algorithms


class TestSweepEngine:
    """The single-trace fast path must be indistinguishable from per-budget runs."""

    FRACTIONS = (0.05, 0.15, 0.3, 0.5, 0.75, 1.0)

    def test_traced_sweep_matches_per_budget_sweep(self, urx_uniqueness):
        workload, calculator = urx_uniqueness

        def build():
            return {
                "GreedyNaive": GreedyNaive(workload.query_function),
                "GreedyMinVar": GreedyMinVar(workload.query_function, calculator=calculator),
            }

        traced = run_budget_sweep(
            workload.database,
            build(),
            calculator.expected_variance,
            budget_fractions=self.FRACTIONS,
        )
        series, selections = per_budget_sweep(
            workload.database, build(), calculator.expected_variance, self.FRACTIONS
        )
        assert traced.series == series
        assert traced.selections == selections

    @pytest.mark.parametrize("solver", list(NORMAL_LINEAR_SOLVERS))
    def test_traced_sweep_matches_per_budget_sweep_for(self, normal_linear, solver):
        database, claim = normal_linear
        build = NORMAL_LINEAR_SOLVERS[solver]
        assert build(database, claim).supports_trace  # the sweep reads one trace
        weights = claim.weights(len(database))

        def evaluate(selection):
            return linear_expected_variance(database, weights, selection)

        traced = run_budget_sweep(
            database, {solver: build(database, claim)}, evaluate, budget_fractions=self.FRACTIONS
        )
        series, selections = per_budget_sweep(
            database, {solver: build(database, claim)}, evaluate, self.FRACTIONS
        )
        assert traced.selections == selections
        assert traced.series == series
        # The sweep reaches at least one non-empty, non-final selection, so
        # the comparison is not vacuous.
        assert len(set(selections[solver])) > 2

    def test_non_incremental_algorithms_still_sweep(self, urx_uniqueness):
        workload, calculator = urx_uniqueness

        class LegacyAlgorithm:
            """Duck-typed pre-Solver object: select_indices only."""

            def select_indices(self, database, budget):
                costs = database.costs
                selected, spent = [], 0.0
                for i in range(len(database)):
                    if spent + costs[i] <= budget + 1e-9:
                        selected.append(i)
                        spent += costs[i]
                return selected

        result = run_budget_sweep(
            workload.database,
            {"Legacy": LegacyAlgorithm()},
            calculator.expected_variance,
            budget_fractions=(0.3, 1.0),
        )
        assert len(result.series["Legacy"]) == 2
        assert result.series["Legacy"][1] == pytest.approx(0.0, abs=1e-9)

    def test_random_selector_keeps_per_budget_draws(self, urx_uniqueness):
        workload, calculator = urx_uniqueness

        fractions = (0.2, 0.5, 0.8)
        swept = run_budget_sweep(
            workload.database,
            {"Random": RandomSelector(np.random.default_rng(7))},
            calculator.expected_variance,
            budget_fractions=fractions,
        )
        _, selections = per_budget_sweep(
            workload.database,
            {"Random": RandomSelector(np.random.default_rng(7))},
            calculator.expected_variance,
            fractions,
        )
        # RandomSelector opts out of the trace path (sweep_with_trace=False),
        # so the engine draws an independent permutation per budget, exactly
        # like one solve per budget.
        assert swept.selections == selections

    def test_sweep_algorithm_unit(self, urx_uniqueness):
        workload, calculator = urx_uniqueness
        values, selections = sweep_algorithm(
            workload.database,
            GreedyMinVar(workload.query_function, calculator=calculator),
            (0.25, 1.0),
            calculator.expected_variance,
        )
        assert len(values) == len(selections) == 2
        assert values[1] == pytest.approx(0.0, abs=1e-9)


class TestBestAlgorithmAt:
    def _sweep(self, urx_uniqueness):
        workload, calculator = urx_uniqueness
        algorithms = {
            "GreedyNaive": GreedyNaive(workload.query_function),
            "GreedyMinVar": GreedyMinVar(workload.query_function, calculator=calculator),
        }
        return run_budget_sweep(
            workload.database,
            algorithms,
            calculator.expected_variance,
            budget_fractions=(0.1, 0.3, 0.5),
        )

    def test_tolerates_float_noise(self, urx_uniqueness):
        result = self._sweep(urx_uniqueness)
        exact = result.best_algorithm_at(0.3)
        assert result.best_algorithm_at(0.3 + 4e-7) == exact
        assert result.best_algorithm_at(0.1 * 3) == exact  # 0.30000000000000004

    def test_unmatched_fraction_raises_with_context(self, urx_uniqueness):
        result = self._sweep(urx_uniqueness)
        with pytest.raises(ValueError, match="available fractions"):
            result.best_algorithm_at(0.42)

    def test_higher_is_better_mode(self, urx_uniqueness):
        result = self._sweep(urx_uniqueness)
        best_low = result.best_algorithm_at(0.5, lower_is_better=True)
        best_high = result.best_algorithm_at(0.5, lower_is_better=False)
        series_at = {name: values[2] for name, values in result.series.items()}
        assert series_at[best_low] == min(series_at.values())
        assert series_at[best_high] == max(series_at.values())


class TestMeasureMoments:
    def test_certain_database_has_zero_std(self, urx_uniqueness):
        workload, _ = urx_uniqueness
        db = workload.database
        cleaned = db.cleaned({i: db[i].current_value for i in range(len(db))})
        mean, std = measure_moments(cleaned, workload.query_function)
        assert std == pytest.approx(0.0, abs=1e-9)
        assert mean == pytest.approx(
            workload.query_function.evaluate(db.current_values)
        )

    def test_uncertain_database_has_positive_std(self, urx_uniqueness):
        workload, calculator = urx_uniqueness
        mean, std = measure_moments(workload.database, workload.query_function)
        assert std == pytest.approx(np.sqrt(calculator.expected_variance([])), abs=1e-9)
        assert 0.0 <= mean <= len(workload.perturbations)


class TestInActionExperiment:
    def test_estimates_tighten_with_budget(self, urx_uniqueness):
        workload, calculator = urx_uniqueness
        algorithms = {"GreedyMinVar": GreedyMinVar(workload.query_function, calculator=calculator)}
        result = run_in_action_experiment(
            workload.database,
            workload.query_function,
            algorithms,
            budget_fractions=(0.0, 0.5, 1.0),
            seed=1,
        )
        stds = result.stds["GreedyMinVar"]
        assert stds[-1] == pytest.approx(0.0, abs=1e-9)
        assert stds[0] >= stds[-1]

    def test_full_cleaning_recovers_truth(self, urx_uniqueness):
        workload, calculator = urx_uniqueness
        algorithms = {"GreedyMinVar": GreedyMinVar(workload.query_function, calculator=calculator)}
        result = run_in_action_experiment(
            workload.database,
            workload.query_function,
            algorithms,
            budget_fractions=(1.0,),
            seed=2,
        )
        assert result.means["GreedyMinVar"][0] == pytest.approx(result.true_value)

    def test_as_rows(self, urx_uniqueness):
        workload, calculator = urx_uniqueness
        algorithms = {"GreedyNaive": GreedyNaive(workload.query_function)}
        result = run_in_action_experiment(
            workload.database, workload.query_function, algorithms, budget_fractions=(0.5,), seed=0
        )
        rows = result.as_rows()
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "GreedyNaive"

    def test_explicit_ground_truth(self, urx_uniqueness):
        workload, calculator = urx_uniqueness
        truth = workload.database.current_values
        algorithms = {"GreedyNaive": GreedyNaive(workload.query_function)}
        result = run_in_action_experiment(
            workload.database,
            workload.query_function,
            algorithms,
            budget_fractions=(1.0,),
            ground_truth=truth,
        )
        assert result.true_value == pytest.approx(
            workload.query_function.evaluate(truth)
        )


class TestCounterDiscovery:
    def test_records_budget_fraction(self, urx_uniqueness):
        workload, _ = urx_uniqueness
        db = workload.database
        bias = Bias(workload.perturbations, db.current_values)
        truth = db.current_values * 0.5  # every window drops, counters everywhere

        def counter_found(values):
            return bool(np.sum(values[:4]) < np.sum(db.current_values[-4:]))

        result = run_counter_discovery(
            db, counter_found, {"GreedyMaxPr": GreedyMaxPr(bias)}, truth
        )
        assert result.counter_exists_in_truth
        fraction = result.budget_fraction_used["GreedyMaxPr"]
        assert fraction is None or 0.0 < fraction <= 1.0

    def test_no_counter_in_truth(self, urx_uniqueness):
        workload, _ = urx_uniqueness
        db = workload.database
        bias = Bias(workload.perturbations, db.current_values)
        result = run_counter_discovery(
            db, lambda values: False, {"GreedyNaive": GreedyNaive(bias)}, db.current_values
        )
        assert not result.counter_exists_in_truth
        assert result.budget_fraction_used["GreedyNaive"] is None
        assert result.as_rows()[0]["values_cleaned"] is None


class TestCompetingObjectives:
    def test_each_algorithm_wins_its_own_objective(self, normal_database):
        db = normal_database
        # Shift current values away from the means to break alignment.
        db = db.with_current_values(db.means + np.array([8.0, -12.0, 3.0, 15.0, -5.0]))
        original = WindowSumClaim(3, 2)
        ps = PerturbationSet(original, (WindowSumClaim(0, 2), WindowSumClaim(2, 2)), (1, 1))
        bias = Bias(ps, db.current_values)
        weights = bias.weights(len(db))
        tau = 5.0

        result = run_competing_objectives(
            db,
            minvar_algorithm=OptimumModularMinVar(bias),
            maxpr_algorithm=GreedyMaxPr(bias, tau=tau),
            evaluate_variance=lambda T: linear_expected_variance(db, weights, T),
            evaluate_probability=lambda T: surprise_probability_normal_linear(
                db, weights, T, tau=tau
            ),
            budget_fractions=(0.6,),
        )
        assert result.expected_variance["MinVar"][0] <= result.expected_variance["MaxPr"][0] + 1e-9
        assert (
            result.counter_probability["MaxPr"][0]
            >= result.counter_probability["MinVar"][0] - 1e-9
        )

    def test_as_rows(self, normal_database):
        original = WindowSumClaim(3, 2)
        ps = PerturbationSet(original, (WindowSumClaim(0, 2),), (1.0,))
        bias = Bias(ps, normal_database.current_values)
        weights = bias.weights(len(normal_database))
        result = run_competing_objectives(
            normal_database,
            OptimumModularMinVar(bias),
            GreedyMaxPr(bias, tau=1.0),
            lambda T: linear_expected_variance(normal_database, weights, T),
            lambda T: surprise_probability_normal_linear(normal_database, weights, T, tau=1.0),
            budget_fractions=(0.3, 0.7),
        )
        rows = result.as_rows()
        assert len(rows) == 4
        assert {"algorithm", "budget_fraction", "expected_variance", "counter_probability"} <= set(
            rows[0]
        )


class TestEfficiencyHarness:
    def test_budget_scaling_rows(self):
        result = time_budget_scaling(n=60, budget_fractions=(0.1, 0.3), gamma=150.0)
        assert len(result.seconds) == 2
        assert all(s >= 0.0 for s in result.seconds)
        rows = result.as_rows()
        assert rows[0]["n_objects"] == 60

    def test_size_scaling_rows(self):
        result = time_size_scaling(sizes=(40, 80), budget=30.0, gamma=150.0)
        assert len(result.seconds) == 2
        assert result.parameter_values == [40.0, 80.0]


class TestReporting:
    def test_format_series_table(self):
        text = format_series_table(
            [0.1, 0.2], {"A": [1.0, 2.0], "B": [3.0, 4.0]}, title="demo"
        )
        assert "demo" in text
        assert "A" in text and "B" in text
        assert "0.10" in text

    def test_format_rows(self):
        text = format_rows([{"x": 1, "y": 2.5}, {"x": 3, "y": 4.0}])
        assert "x" in text and "y" in text
        assert "2.5" in text

    def test_format_rows_empty(self):
        assert format_rows([], title="nothing") == "nothing"
