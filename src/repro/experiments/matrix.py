"""The scenario matrix: registered workloads x solvers x budget grids.

The figures harness answers "how does algorithm A behave on the workload of
Figure N"; the scenario matrix answers the breadth question the ROADMAP
cares about — *across every registered scenario*, which solver wins where,
and by how much.  One :class:`ScenarioMatrix` run crosses

* workload specs from the :mod:`repro.workloads` registry (``"all"`` or an
  explicit list),
* solvers named by the aliases in :data:`SOLVER_BUILDERS` (thin factories
  over the :mod:`repro.core` solver registry — a workload must supply
  whatever the solver needs, e.g. a linear weight vector for MaxPr/Dep, so
  inapplicable cells are *recorded as skipped with a reason*, never silently
  dropped),
* a budget-fraction grid,

on the traced sweep engine (:func:`~repro.experiments.sweeps.run_budget_sweep`
— incremental solvers are traced once per workload and sliced per budget).
Every cell gets a deterministic seed derived from ``(seed, workload,
solver)``, so the whole matrix is reproducible from one integer.

``max_workers`` (``"auto"`` sizes to the machine) shards the run across a
process pool at the *workload* level: each worker receives a chunk of spec
names plus the run parameters — a few strings and numbers, never a workload
object — and rebuilds its workloads from the registry, so the submissions
stay pickle-light no matter how large ``n`` is.  Chunks are assembled back
in registry order, making the pooled result cell-for-cell identical to the
serial one (same crc32 cell seeds, same solver construction).  ``None`` (the
default) runs serially, and so does a ``max_workers`` that resolves to one
worker.  This is the only process pool in the experiments layer: each shard
runs its budget sweeps serially.

The result is a :class:`MatrixResult`: tidy per-cell rows (objective,
regret against the per-cell winner, win flag), per-solver win-rate/regret
summaries, the skipped cells, and the axis-coverage statement of the
workloads that actually ran.  ``write_json`` / ``write_csv`` persist the
report; the ``matrix`` CLI subcommand (registered here) does both and prints
the summary tables.
"""

from __future__ import annotations

import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.alignment import quadratic_coverage
from repro.core.expected_variance import DecomposedEVCalculator
from repro.core.greedy import (
    GreedyDep,
    GreedyMaxPr,
    GreedyMinVar,
    GreedyNaive,
    GreedyNaiveCostBlind,
    RandomSelector,
)
from repro.core.modular import OptimumModularMinVar
from repro.experiments.parallel import (
    chunk_ranges,
    collect_or_rerun,
    resolve_max_workers,
)
from repro.experiments.persistence import write_rows_csv
from repro.experiments.registry import argument, register_experiment
from repro.experiments.reporting import format_rows
from repro.experiments.sweeps import LinearVarianceObjective, run_budget_sweep
from repro.experiments.workloads import Workload

__all__ = [
    "SOLVER_BUILDERS",
    "MatrixCell",
    "MatrixResult",
    "ScenarioMatrix",
    "CoverageObjective",
    "MeasureEVObjective",
    "cell_seed",
]

# Objective ties closer than this are joint wins.
_WIN_TOLERANCE = 1e-9

DEFAULT_MATRIX_SOLVERS = ("greedy_minvar", "greedy_maxpr", "random")
DEFAULT_MATRIX_BUDGETS = (0.05, 0.1, 0.2)


def cell_seed(base_seed: int, workload: str, solver: str = "") -> int:
    """Deterministic per-cell seed derived from the base seed and cell labels.

    A stable hash (crc32) rather than Python's randomized ``hash``, so the
    same (seed, workload, solver) triple seeds the same RNG stream in every
    process and on every run — the determinism the matrix tests assert.
    """
    token = f"{int(base_seed)}:{workload}:{solver}".encode()
    return int(zlib.crc32(token))


# --------------------------------------------------------------------------- #
# Objectives
# --------------------------------------------------------------------------- #
class CoverageObjective:
    """Sweep objective for correlated workloads: unclean variance under Sigma.

    The Figure 11 semantics — the variance of ``w . X`` contributed by the
    objects left unclean, computed under the *true* injected covariance —
    shared by every solver swept on a correlated workload, dependency-aware
    or not.
    """

    def __init__(self, weights: Sequence[float], covariance: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)
        self.covariance = np.asarray(covariance, dtype=float)

    def __call__(self, selected: Sequence[int]) -> float:
        chosen = set(selected)
        remaining = [i for i in range(self.weights.size) if i not in chosen]
        return quadratic_coverage(self.weights, self.covariance, remaining)


class MeasureEVObjective:
    """Sweep objective for measure workloads: remaining decomposed EV.

    Wraps one shared :class:`DecomposedEVCalculator`, so every budget
    checkpoint of every solver reads the same memoized term computations.
    """

    def __init__(self, calculator: DecomposedEVCalculator):
        self.calculator = calculator

    def __call__(self, selected: Sequence[int]) -> float:
        return self.calculator.expected_variance(selected)


def _workload_objective(workload: Workload) -> Tuple[Callable[[Sequence[int]], float], str]:
    """The evaluation objective for one workload, plus its report label.

    Correlated workloads are scored under their true covariance (Figure 11
    semantics); independent linear workloads use the closed-form linear EV;
    everything else uses the Theorem 3.8 decomposed EV of the measure.
    Lower is better for all three.
    """
    database = workload.database
    linear = workload.linear_function()
    if workload.world_model is not None:
        if linear is None:
            raise ValueError(
                f"workload {workload.name or workload.description!r} has a world model "
                "but no linear query handle to score against it"
            )
        weights = linear.weights(len(database))
        return (
            CoverageObjective(weights, workload.world_model.covariance),
            "unclean variance under true covariance",
        )
    if workload.query_function.is_linear():
        weights = workload.query_function.weights(len(database))
        return LinearVarianceObjective(database, weights), "remaining linear EV"
    calculator = DecomposedEVCalculator(database, workload.query_function)
    return MeasureEVObjective(calculator), "remaining decomposed EV"


# --------------------------------------------------------------------------- #
# Solver aliases
# --------------------------------------------------------------------------- #
def _build_greedy_minvar(workload: Workload, seed: int):
    return GreedyMinVar(workload.query_function), None


def _build_greedy_naive(workload: Workload, seed: int):
    return GreedyNaive(workload.query_function), None


def _build_greedy_naive_cost_blind(workload: Workload, seed: int):
    return GreedyNaiveCostBlind(workload.query_function), None


def _build_random(workload: Workload, seed: int):
    return RandomSelector(np.random.default_rng(seed)), None


def _build_greedy_maxpr(workload: Workload, seed: int, tau: float = 0.0):
    function = workload.linear_function()
    if function is None:
        return None, "no linear query handle for the MaxPr objective"
    database = workload.database
    if database.all_normal() or database.all_discrete():
        # Closed form / convolution paths: deterministic, no sampling needed.
        return GreedyMaxPr(function, tau=tau), None
    return (
        GreedyMaxPr(
            function,
            tau=tau,
            rng=np.random.default_rng(seed),
            monte_carlo_samples=256,
            method="monte_carlo",
        ),
        None,
    )


def _build_greedy_dep(workload: Workload, seed: int):
    if workload.world_model is None:
        return None, "workload has no correlated world model"
    function = workload.linear_function()
    if function is None:
        return None, "no linear query handle for the dependency engine"
    return GreedyDep(function, workload.world_model, conditional=False), None


def _build_optimum(workload: Workload, seed: int):
    if not workload.query_function.is_linear():
        return None, "knapsack Optimum requires a linear query function"
    return OptimumModularMinVar(workload.query_function), None


#: alias -> factory(workload, seed, **options) returning (solver, None) when
#: applicable or (None, reason) when the cell must be skipped.
SOLVER_BUILDERS: Dict[str, Callable] = {
    "greedy_minvar": _build_greedy_minvar,
    "greedy_maxpr": _build_greedy_maxpr,
    "greedy_naive": _build_greedy_naive,
    "greedy_naive_cost_blind": _build_greedy_naive_cost_blind,
    "greedy_dep": _build_greedy_dep,
    "random": _build_random,
    "optimum": _build_optimum,
}


# --------------------------------------------------------------------------- #
# Result containers
# --------------------------------------------------------------------------- #
@dataclass
class MatrixCell:
    """One (workload, solver, budget) outcome of a matrix run."""

    workload: str
    solver: str
    budget_fraction: float
    objective: float
    initial_objective: float
    regret: float = 0.0
    relative_regret: float = 0.0
    win: bool = False
    n_selected: int = 0
    cost_spent: float = 0.0
    family: str = ""
    cost_model: str = ""
    correlation: str = ""
    claim_shape: str = ""
    objective_kind: str = ""
    seed: int = 0

    def as_row(self) -> dict:
        """The cell as a flat dict row (CSV/JSON serializable)."""
        return {
            "workload": self.workload,
            "family": self.family,
            "cost_model": self.cost_model,
            "correlation": self.correlation,
            "claim_shape": self.claim_shape,
            "solver": self.solver,
            "budget_fraction": self.budget_fraction,
            "objective": self.objective,
            "initial_objective": self.initial_objective,
            "regret": self.regret,
            "relative_regret": self.relative_regret,
            "win": int(self.win),
            "n_selected": self.n_selected,
            "cost_spent": self.cost_spent,
            "objective_kind": self.objective_kind,
            "seed": self.seed,
        }


CSV_COLUMNS = [
    "workload",
    "family",
    "cost_model",
    "correlation",
    "claim_shape",
    "solver",
    "budget_fraction",
    "objective",
    "initial_objective",
    "regret",
    "relative_regret",
    "win",
    "n_selected",
    "cost_spent",
    "objective_kind",
    "seed",
]


@dataclass
class MatrixResult:
    """Everything a scenario-matrix run produced.

    ``cells`` are the tidy per-(workload, solver, budget) rows with regret
    and win annotations already computed; ``skipped`` records every cell a
    solver factory declined, with its reason; ``coverage`` states the axis
    values the executed workloads span; ``meta`` pins the run parameters
    (workloads, solvers, budgets, n, seed) so an artifact is self-describing.
    """

    meta: Dict[str, object]
    coverage: Dict[str, List[str]]
    cells: List[MatrixCell]
    skipped: List[dict] = field(default_factory=list)
    workload_seconds: Dict[str, float] = field(default_factory=dict)

    def solver_summary(self) -> List[dict]:
        """Per-solver win rate and regret aggregates across all cells."""
        by_solver: Dict[str, List[MatrixCell]] = {}
        for cell in self.cells:
            by_solver.setdefault(cell.solver, []).append(cell)
        rows = []
        for solver, cells in by_solver.items():
            wins = sum(1 for c in cells if c.win)
            rows.append(
                {
                    "solver": solver,
                    "cells": len(cells),
                    "wins": wins,
                    "win_rate": wins / len(cells),
                    "mean_regret": float(np.mean([c.regret for c in cells])),
                    "mean_relative_regret": float(
                        np.mean([c.relative_regret for c in cells])
                    ),
                    "max_relative_regret": float(
                        np.max([c.relative_regret for c in cells])
                    ),
                }
            )
        rows.sort(key=lambda row: -row["win_rate"])
        return rows

    def workload_winners(self) -> List[dict]:
        """Winning solver per (workload, budget fraction)."""
        winners: Dict[Tuple[str, float], MatrixCell] = {}
        for cell in self.cells:
            key = (cell.workload, cell.budget_fraction)
            incumbent = winners.get(key)
            if incumbent is None or cell.objective < incumbent.objective:
                winners[key] = cell
        return [
            {
                "workload": workload,
                "budget_fraction": fraction,
                "winner": cell.solver,
                "objective": cell.objective,
            }
            for (workload, fraction), cell in winners.items()
        ]

    def as_dict(self) -> dict:
        """The full report as one JSON-serializable dict."""
        return {
            "meta": dict(self.meta),
            "coverage": dict(self.coverage),
            "solver_summary": self.solver_summary(),
            "cells": [cell.as_row() for cell in self.cells],
            "skipped": list(self.skipped),
            "workload_seconds": dict(self.workload_seconds),
        }

    def write_json(self, path) -> "Path":
        """Write the full report (meta, coverage, cells, summaries) as JSON."""
        import json
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(self.as_dict(), handle, indent=2, default=float)
            handle.write("\n")
        return path

    def write_csv(self, path) -> "Path":
        """Write the tidy per-cell rows as CSV."""
        return write_rows_csv(
            [cell.as_row() for cell in self.cells], path, columns=CSV_COLUMNS
        )


# --------------------------------------------------------------------------- #
# Workload execution (module-level so process-pool shards can run it)
# --------------------------------------------------------------------------- #
def _build_solver_set(
    workload: Workload, solvers: Sequence[str], base_seed: int, tau: float
) -> Tuple[Dict[str, object], List[dict]]:
    built: Dict[str, object] = {}
    skipped: List[dict] = []
    for alias in solvers:
        factory = SOLVER_BUILDERS[alias]
        seed = cell_seed(base_seed, workload.name, alias)
        if alias == "greedy_maxpr":
            solver, reason = factory(workload, seed, tau=tau)
        else:
            solver, reason = factory(workload, seed)
        if solver is None:
            skipped.append(
                {"workload": workload.name, "solver": alias, "reason": reason}
            )
        else:
            built[alias] = solver
    return built, skipped


def _execute_workload(
    name: str,
    n: Optional[int],
    base_seed: int,
    solvers: Sequence[str],
    budget_fractions: Sequence[float],
    tau: float,
) -> dict:
    """Build and sweep one workload; everything returned is plain data.

    This is the unit a pool shard repeats: the workload is rebuilt from its
    registered spec *inside* the calling process (only the name crosses the
    process boundary), the sweep runs serially (the shards are the
    parallelism), and the result is a dict of :class:`MatrixCell` rows plus
    bookkeeping, identical whether it ran in a worker or inline.
    """
    from repro.workloads import get_workload_spec

    spec = get_workload_spec(name)
    workload = spec.build(n=n, seed=cell_seed(base_seed, name))
    objective, objective_kind = _workload_objective(workload)
    algorithms, skipped = _build_solver_set(workload, solvers, base_seed, tau)
    if not algorithms:
        return {
            "name": name,
            "cells": [],
            "skipped": skipped,
            "seconds": 0.0,
            "executed": False,
        }
    started = time.perf_counter()
    sweep = run_budget_sweep(
        workload.database,
        algorithms,
        objective,
        budget_fractions=budget_fractions,
        description=spec.description,
    )
    seconds = time.perf_counter() - started
    initial = float(objective(()))
    costs = workload.database.costs
    cells: List[MatrixCell] = []
    for alias in algorithms:
        values = sweep.series[alias]
        selections = sweep.selections[alias]
        for fraction, value, selection in zip(budget_fractions, values, selections):
            cells.append(
                MatrixCell(
                    workload=name,
                    solver=alias,
                    budget_fraction=float(fraction),
                    objective=float(value),
                    initial_objective=initial,
                    n_selected=len(selection),
                    cost_spent=float(costs[list(selection)].sum())
                    if selection
                    else 0.0,
                    family=spec.family,
                    cost_model=spec.cost_model,
                    correlation=spec.correlation,
                    claim_shape=spec.claim_shape,
                    objective_kind=objective_kind,
                    seed=cell_seed(base_seed, name, alias),
                )
            )
    return {
        "name": name,
        "cells": cells,
        "skipped": skipped,
        "seconds": seconds,
        "executed": True,
    }


def _execute_workload_shard(names: Sequence[str], *config) -> List[dict]:
    """Pool worker: run a chunk of workloads serially, in the given order."""
    return [_execute_workload(name, *config) for name in names]


# --------------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------------- #
class ScenarioMatrix:
    """Cross registered workloads x solver aliases x a budget grid.

    ``workloads`` is ``"all"`` or a sequence of registered spec names;
    ``solvers`` is a sequence of :data:`SOLVER_BUILDERS` aliases.  ``n`` and
    ``seed`` parameterize the workload builds (fixed-dataset specs ignore
    ``n``); every (workload, solver) cell seeds its own RNG via
    :func:`cell_seed`.  ``max_workers`` (int or ``"auto"``) shards the
    workloads across a process pool when it resolves to two or more workers
    (see the module docstring); ``None`` runs serially.  ``tau`` is the MaxPr
    drop threshold.
    """

    def __init__(
        self,
        workloads="all",
        solvers: Sequence[str] = DEFAULT_MATRIX_SOLVERS,
        budget_fractions: Sequence[float] = DEFAULT_MATRIX_BUDGETS,
        n: Optional[int] = 200,
        seed: int = 0,
        tau: float = 0.0,
        max_workers: Union[int, str, None] = None,
    ):
        from repro.workloads import available_workloads

        if isinstance(workloads, str):
            names = (
                list(available_workloads())
                if workloads == "all"
                else [w.strip() for w in workloads.split(",") if w.strip()]
            )
        else:
            names = list(workloads)
        known = available_workloads()
        unknown = [name for name in names if name not in known]
        if unknown:
            raise KeyError(
                f"unknown workload(s) {unknown}; registered: {sorted(known)}"
            )
        unknown_solvers = [s for s in solvers if s not in SOLVER_BUILDERS]
        if unknown_solvers:
            raise KeyError(
                f"unknown solver alias(es) {unknown_solvers}; "
                f"known: {sorted(SOLVER_BUILDERS)}"
            )
        self.workload_names = names
        self.solvers = list(solvers)
        self.budget_fractions = [float(f) for f in budget_fractions]
        self.n = n
        self.seed = int(seed)
        self.tau = float(tau)
        self.max_workers = max_workers

    def _build_solvers(self, workload: Workload) -> Tuple[Dict[str, object], List[dict]]:
        return _build_solver_set(workload, self.solvers, self.seed, self.tau)

    def _worker_config(self) -> tuple:
        """The per-workload parameters shipped to pool shards (plain data only)."""
        return (
            self.n,
            self.seed,
            list(self.solvers),
            list(self.budget_fractions),
            self.tau,
        )

    def _execute_all(self) -> Dict[str, dict]:
        """Run every workload: pooled when ``max_workers`` gives two or more."""
        names = self.workload_names
        config = self._worker_config()
        if self.max_workers is not None and names:
            workers = resolve_max_workers(self.max_workers, task_count=len(names))
            if workers > 1:
                return self._execute_in_pool(names, config, workers)
        return {name: _execute_workload(name, *config) for name in names}

    @staticmethod
    def _execute_in_pool(
        names: List[str], config: tuple, workers: int
    ) -> Dict[str, dict]:
        """Shard the workload list across a process pool, chunked.

        Submissions carry chunks of spec *names* plus the config tuple —
        pickle-light regardless of workload size.  There is no pickling
        downgrade on this path (the inputs are strings and numbers), but a
        worker that *crashes* degrades its chunk to a serial re-run through
        :func:`~repro.experiments.parallel.collect_or_rerun`, counted as a
        ``pool.pool_to_serial`` degradation.  Real errors raised by a
        workload still propagate.
        """
        chunks = chunk_ranges(len(names), workers)
        outcomes: Dict[str, dict] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            submissions = [
                ([names[i] for i in chunk], pool.submit(
                    _execute_workload_shard, [names[i] for i in chunk], *config
                ))
                for chunk in chunks
            ]
            for chunk_names, future in submissions:
                shard = collect_or_rerun(
                    future,
                    lambda chunk_names=chunk_names: _execute_workload_shard(
                        chunk_names, *config
                    ),
                )
                for outcome in shard:
                    outcomes[outcome["name"]] = outcome
        return outcomes

    def run(self) -> MatrixResult:
        """Execute every cell and return the annotated :class:`MatrixResult`.

        Outcomes are reassembled in the declared workload order whatever the
        pool's completion order was, so pooled and serial runs produce the
        same rows in the same order.
        """
        from repro.workloads import coverage_summary, get_workload_spec

        outcomes = self._execute_all()

        cells: List[MatrixCell] = []
        skipped: List[dict] = []
        workload_seconds: Dict[str, float] = {}
        executed_specs = []
        for name in self.workload_names:
            outcome = outcomes[name]
            skipped.extend(outcome["skipped"])
            if not outcome["executed"]:
                continue
            # Coverage is stated over the workloads that actually produced
            # cells, so a fully-skipped workload cannot inflate the breadth.
            executed_specs.append(get_workload_spec(name))
            workload_seconds[name] = outcome["seconds"]
            cells.extend(outcome["cells"])

        self._annotate_regret(cells)
        meta = {
            "workloads": list(self.workload_names),
            "solvers": list(self.solvers),
            "budget_fractions": list(self.budget_fractions),
            "n": self.n,
            "seed": self.seed,
            "tau": self.tau,
            "max_workers": self.max_workers,
            "n_cells": len(cells),
            "n_skipped": len(skipped),
        }
        return MatrixResult(
            meta=meta,
            coverage=coverage_summary(executed_specs),
            cells=cells,
            skipped=skipped,
            workload_seconds=workload_seconds,
        )

    @staticmethod
    def _annotate_regret(cells: List[MatrixCell]) -> None:
        """Fill regret / relative regret / win against each cell group's best.

        Relative regret is the fraction of the achievable objective reduction
        the solver missed: ``(objective - best) / (initial - best)`` — 0 for
        the winner, 1 for a solver that achieved nothing the winner did —
        falling back to 0 when no solver moved the objective at all.
        """
        groups: Dict[Tuple[str, float], List[MatrixCell]] = {}
        for cell in cells:
            groups.setdefault((cell.workload, cell.budget_fraction), []).append(cell)
        for group in groups.values():
            best = min(cell.objective for cell in group)
            for cell in group:
                cell.regret = float(cell.objective - best)
                achievable = cell.initial_objective - best
                cell.relative_regret = (
                    float(cell.regret / achievable) if achievable > _WIN_TOLERANCE else 0.0
                )
                cell.win = cell.regret <= _WIN_TOLERANCE


# --------------------------------------------------------------------------- #
# CLI registration
# --------------------------------------------------------------------------- #
def _parse_names(raw: str) -> List[str]:
    return [token.strip() for token in raw.split(",") if token.strip()]


def _parse_workers(raw: str) -> Union[int, str]:
    """Argparse type for --max-workers: an int or the literal 'auto'."""
    if raw.strip().lower() == "auto":
        return "auto"
    return int(raw)


@register_experiment(
    name="matrix",
    description="Scenario matrix: registered workloads x solvers x budgets, with a report",
    arguments=[
        argument(
            "--workloads",
            default="all",
            help="comma-separated registered workload names, or 'all' (default)",
        ),
        argument(
            "--solvers",
            default=",".join(DEFAULT_MATRIX_SOLVERS),
            help="comma-separated solver aliases (default: %(default)s)",
        ),
        argument(
            "--budgets",
            default=",".join(str(f) for f in DEFAULT_MATRIX_BUDGETS),
            help="comma-separated budget fractions (default: %(default)s)",
        ),
        argument("--n", type=int, default=200, help="size for scalable workloads"),
        argument("--seed", type=int, default=0),
        argument("--tau", type=float, default=0.0, help="MaxPr drop threshold"),
        argument(
            "--max-workers",
            type=_parse_workers,
            default=None,
            help="workload-shard pool size: an int or 'auto' to size to the "
            "machine's usable CPUs (default: serial)",
        ),
        argument(
            "--out-dir",
            default="reports",
            help="directory for the JSON/CSV report artifacts (default: %(default)s)",
        ),
    ],
)
def _matrix_experiment(args) -> str:
    from pathlib import Path

    matrix = ScenarioMatrix(
        workloads=args.workloads,
        solvers=_parse_names(args.solvers),
        budget_fractions=[float(f) for f in _parse_names(args.budgets)],
        n=args.n,
        seed=args.seed,
        tau=args.tau,
        max_workers=args.max_workers,
    )
    result = matrix.run()
    out_dir = Path(args.out_dir)
    json_path = result.write_json(out_dir / "scenario_matrix.json")
    csv_path = result.write_csv(out_dir / "scenario_matrix.csv")

    coverage_line = "; ".join(
        f"{axis}: {', '.join(values)}" for axis, values in result.coverage.items()
    )
    sections = [
        format_rows(result.solver_summary(), title="Scenario matrix: solver summary"),
        format_rows(
            sorted(
                result.workload_winners(),
                key=lambda row: (row["workload"], row["budget_fraction"]),
            ),
            title="Winner per workload x budget",
        ),
    ]
    if result.skipped:
        sections.append(
            format_rows(result.skipped, title="Skipped cells (solver not applicable)")
        )
    sections.append(
        "\n".join(
            [
                f"coverage — {coverage_line}",
                f"cells: {len(result.cells)}  skipped: {len(result.skipped)}",
                f"wrote {json_path}",
                f"wrote {csv_path}",
            ]
        )
    )
    return "\n\n".join(sections)
