"""Scenario matrix: determinism, regret math, artifacts, CLI wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.experiments.matrix import (
    DEFAULT_MATRIX_SOLVERS,
    MatrixCell,
    ScenarioMatrix,
    SOLVER_BUILDERS,
    cell_seed,
)

SMALL_WORKLOADS = "fairness_urx_uniform,uniqueness_lnx_heavy,fairness_normal_chain"


def small_matrix(**overrides) -> ScenarioMatrix:
    options = dict(
        workloads=SMALL_WORKLOADS,
        solvers=["greedy_minvar", "greedy_maxpr", "random"],
        budget_fractions=[0.1, 0.3],
        n=20,
        seed=0,
    )
    options.update(overrides)
    return ScenarioMatrix(**options)


class TestDeterminism:
    def test_two_runs_identical_modulo_timing(self):
        a = small_matrix().run().as_dict()
        b = small_matrix().run().as_dict()
        a.pop("workload_seconds")
        b.pop("workload_seconds")
        assert a == b

    def test_seed_changes_random_solver_cells(self):
        a = small_matrix(seed=0).run()
        b = small_matrix(seed=1).run()
        a_random = [c.objective for c in a.cells if c.solver == "random"]
        b_random = [c.objective for c in b.cells if c.solver == "random"]
        assert a_random != b_random

    def test_cell_seed_is_stable_and_distinct(self):
        assert cell_seed(0, "w", "s") == cell_seed(0, "w", "s")
        assert cell_seed(0, "w", "s") != cell_seed(1, "w", "s")
        assert cell_seed(0, "w", "s") != cell_seed(0, "w", "t")


class TestRegretMath:
    def test_regret_and_win_annotations(self):
        result = small_matrix().run()
        by_group = {}
        for cell in result.cells:
            by_group.setdefault((cell.workload, cell.budget_fraction), []).append(cell)
        for group in by_group.values():
            best = min(c.objective for c in group)
            winners = [c for c in group if c.win]
            assert winners, "every group has at least one winner"
            for cell in group:
                assert cell.regret == pytest.approx(cell.objective - best)
                assert cell.regret >= 0
                if cell.win:
                    assert cell.regret <= 1e-9
                assert 0.0 <= cell.relative_regret or cell.relative_regret == 0.0

    def test_relative_regret_normalization(self):
        cells = [
            MatrixCell("w", "a", 0.1, objective=5.0, initial_objective=10.0),
            MatrixCell("w", "b", 0.1, objective=10.0, initial_objective=10.0),
        ]
        ScenarioMatrix._annotate_regret(cells)
        assert cells[0].win and not cells[1].win
        # b achieved none of the reduction a achieved: relative regret 1.
        assert cells[1].relative_regret == pytest.approx(1.0)

    def test_solver_summary_win_rates(self):
        result = small_matrix().run()
        summary = {row["solver"]: row for row in result.solver_summary()}
        assert set(summary) == {"greedy_minvar", "greedy_maxpr", "random"}
        for row in summary.values():
            assert 0.0 <= row["win_rate"] <= 1.0
            assert row["cells"] == 6  # 3 workloads x 2 budgets
        total_wins = sum(row["wins"] for row in summary.values())
        assert total_wins >= 6  # >= one winner per group


class TestSkippingAndErrors:
    def test_inapplicable_solver_is_recorded_not_silent(self):
        result = small_matrix(solvers=["greedy_minvar", "greedy_dep"]).run()
        skipped = {(s["workload"], s["solver"]) for s in result.skipped}
        # greedy_dep only applies to the correlated workload.
        assert ("fairness_urx_uniform", "greedy_dep") in skipped
        assert ("uniqueness_lnx_heavy", "greedy_dep") in skipped
        ran = {(c.workload, c.solver) for c in result.cells}
        assert ("fairness_normal_chain", "greedy_dep") in ran

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            ScenarioMatrix(workloads="no_such_workload")

    def test_unknown_solver_raises(self):
        with pytest.raises(KeyError, match="unknown solver"):
            ScenarioMatrix(workloads=SMALL_WORKLOADS, solvers=["nope"])

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_tau_must_be_finite(self, tau):
        # `matrix --tau nan` used to write every greedy_maxpr cell with no pick.
        with pytest.raises(ValueError, match="tau"):
            ScenarioMatrix(workloads=SMALL_WORKLOADS, tau=tau)

    def test_default_aliases_exist(self):
        for alias in DEFAULT_MATRIX_SOLVERS:
            assert alias in SOLVER_BUILDERS


class TestArtifacts:
    def test_json_and_csv_roundtrip(self, tmp_path):
        result = small_matrix().run()
        json_path = result.write_json(tmp_path / "matrix.json")
        csv_path = result.write_csv(tmp_path / "matrix.csv")
        payload = json.loads(json_path.read_text())
        assert payload["meta"]["seed"] == 0
        assert len(payload["cells"]) == len(result.cells)
        assert payload["coverage"]["correlation"]  # breadth is stated
        assert {row["solver"] for row in payload["solver_summary"]} == {
            "greedy_minvar",
            "greedy_maxpr",
            "random",
        }
        header = csv_path.read_text().splitlines()[0].split(",")
        assert header[0] == "workload" and "objective" in header and "win" in header
        assert len(csv_path.read_text().splitlines()) == len(result.cells) + 1

    def test_cli_matrix_subcommand(self, tmp_path, capsys):
        code = cli_main(
            [
                "matrix",
                "--workloads",
                SMALL_WORKLOADS,
                "--solvers",
                "greedy_minvar,random",
                "--budgets",
                "0.1,0.3",
                "--n",
                "16",
                "--seed",
                "0",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "solver summary" in output
        assert "coverage" in output
        assert (tmp_path / "scenario_matrix.json").exists()
        assert (tmp_path / "scenario_matrix.csv").exists()

    def test_cli_matrix_deterministic_under_fixed_seed(self, tmp_path, capsys):
        """The acceptance-criteria invariant, at test scale."""
        payloads = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = cli_main(
                [
                    "matrix",
                    "--workloads",
                    SMALL_WORKLOADS,
                    "--solvers",
                    "greedy_minvar,greedy_maxpr,random",
                    "--budgets",
                    "0.05,0.1,0.2",
                    "--n",
                    "16",
                    "--seed",
                    "0",
                    "--out-dir",
                    str(out),
                ]
            )
            assert code == 0
            payload = json.loads((out / "scenario_matrix.json").read_text())
            payload.pop("workload_seconds")
            payloads.append(payload)
        capsys.readouterr()
        assert payloads[0] == payloads[1]


class TestObjectives:
    def test_correlated_workload_scored_under_true_covariance(self):
        result = small_matrix(workloads="fairness_normal_chain").run()
        kinds = {c.objective_kind for c in result.cells}
        assert kinds == {"unclean variance under true covariance"}

    def test_initial_objective_consistent_within_workload(self):
        result = small_matrix().run()
        by_workload = {}
        for cell in result.cells:
            by_workload.setdefault(cell.workload, set()).add(cell.initial_objective)
        for initials in by_workload.values():
            assert len(initials) == 1

    def test_objective_never_above_initial_for_minvar(self):
        result = small_matrix(solvers=["greedy_minvar"]).run()
        for cell in result.cells:
            assert cell.objective <= cell.initial_objective + 1e-9

    def test_pool_matches_serial_across_workloads(self, monkeypatch):
        # Three workloads at max_workers=2 resolve to two workers, so the run
        # crosses the process boundary and must reassemble the cells in
        # workload order.
        pooled_with = []
        execute_in_pool = ScenarioMatrix._execute_in_pool

        def spy(names, config, workers):
            pooled_with.append(workers)
            return execute_in_pool(names, config, workers)

        monkeypatch.setattr(ScenarioMatrix, "_execute_in_pool", staticmethod(spy))
        serial = small_matrix().run()
        assert pooled_with == []
        pooled = small_matrix(max_workers=2).run()
        assert pooled_with == [2]
        assert [c.as_row() for c in pooled.cells] == [c.as_row() for c in serial.cells]

    def test_auto_without_workers_stays_serial(self):
        result = small_matrix(workloads="fairness_normal_chain").run()
        assert result.meta["max_workers"] is None

    def test_parallel_option_is_gone(self, capsys):
        # max_workers alone selects the pool.
        with pytest.raises(TypeError):
            small_matrix(parallel="off")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["matrix", "--parallel", "off"])
        assert exit_info.value.code == 2
        assert "--parallel" in capsys.readouterr().err
