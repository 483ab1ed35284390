"""Per-figure experiment definitions (the paper's Figs. 3–11).

Each ``figureN`` function reproduces one figure of the paper's evaluation and
returns a :class:`FigureResult` containing the regenerated data (series for
the line figures, one value per scheduler for the bar figures) plus metadata
describing the workload and the qualitative expectation stated in the paper.
The ``FIGURES`` registry maps figure ids to these functions; the CLI and the
benchmark suite both go through :func:`run_figure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..cluster.topology import heterogeneous_cluster
from ..ga.engine import GAConfig
from ..ga.problem import BatchProblem
from ..parallel.executor import ExperimentExecutor, resolve_executor
from ..parallel.jobs import GARunJob, run_comparison_repeat, run_ga_job
from ..schedulers.registry import ALL_SCHEDULER_NAMES
from ..telemetry import span
from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, ensure_rng, spawn_rngs
from ..util.tables import format_bar_chart, format_series_table
from ..workloads.generator import generate_workload
from ..workloads.suites import (
    normal_paper_workload,
    poisson_large_workload,
    poisson_small_workload,
    uniform_narrow_workload,
    uniform_standard_workload,
    uniform_wide_workload,
)
from .config import ExperimentScale, default_scale
from .runner import (
    ComparisonResult,
    compare_schedulers,
    comparison_jobs,
    summarise_comparison,
)

__all__ = [
    "FigureResult",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "FIGURES",
    "run_figure",
    "list_figures",
]


@dataclass
class FigureResult:
    """Regenerated data for one of the paper's figures.

    Attributes
    ----------
    figure_id:
        ``"fig3"`` … ``"fig11"``.
    title:
        Short description (mirrors the paper's caption).
    kind:
        ``"series"`` for line figures, ``"bars"`` for bar figures.
    x_name, x_values:
        The x-axis of a series figure (unused for bar figures).
    series:
        For a series figure: one y-series per label.  For a bar figure: one
        single-element list per scheduler.
    expectation:
        The qualitative claim the paper makes about this figure, used by the
        benchmark suite's shape checks.
    metadata:
        Workload/scale parameters the data was generated with.
    comparisons:
        The underlying per-condition :class:`ComparisonResult` objects for
        scheduler-comparison figures (empty for the GA-internal figures).
    """

    figure_id: str
    title: str
    kind: str
    x_name: str
    x_values: List[float]
    series: Dict[str, List[float]]
    expectation: str
    metadata: Dict[str, object] = field(default_factory=dict)
    comparisons: List[ComparisonResult] = field(default_factory=list)

    def bar_values(self) -> Dict[str, float]:
        """For bar figures: the single value per label."""
        if self.kind != "bars":
            raise ConfigurationError(f"{self.figure_id} is not a bar figure")
        return {name: values[0] for name, values in self.series.items()}

    def to_text(self) -> str:
        """Render the figure's data as an aligned plain-text table/chart."""
        header = f"{self.figure_id}: {self.title}"
        if self.kind == "bars":
            return format_bar_chart(self.bar_values(), title=header)
        return format_series_table(self.x_name, self.x_values, self.series, title=header)

    def best_label(self, lower_is_better: bool = True) -> str:
        """Label with the best final value (lowest for makespan, highest for efficiency)."""
        finals = {name: values[-1] for name, values in self.series.items()}
        chooser = min if lower_is_better else max
        return chooser(finals, key=finals.get)


# ---------------------------------------------------------------------------
# Figure 3 — makespan reduction per generation (pure GA / 1 rebalance / 50)
# ---------------------------------------------------------------------------

def _convergence_problem(scale: ExperimentScale, rng: np.random.Generator) -> BatchProblem:
    """One batch problem representative of the paper's convergence study."""
    workload_rng, cluster_rng = spawn_rngs(rng, 2)
    spec = normal_paper_workload(scale.batch_size)
    tasks = generate_workload(spec, workload_rng)
    cluster = heterogeneous_cluster(
        scale.n_processors, mean_comm_cost=scale.bar_comm_cost_mean, rng=cluster_rng
    )
    return BatchProblem.from_tasks(
        list(tasks),
        rates=cluster.current_rates(0.0),
        comm_costs=cluster.network.mean_costs(0.0),
    )


def figure3(
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    *,
    rebalance_levels: Sequence[int] = (0, 1, 50),
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Fig. 3 — average reduction in makespan after each GA generation.

    Runs the GA on one batch with 0 ("pure GA"), 1 and 50 re-balances per
    individual per generation, and reports the fractional reduction of the
    best makespan relative to the initial population, averaged over
    ``scale.repeats`` independent batches.  The ``levels × repeats`` GA runs
    are independent jobs sharded across ``scale.jobs`` worker processes (or
    the explicit *executor*); the averaged curves are bit-identical either way.

    The initial population for this study uses the fully randomised end of
    the paper's list-scheduling seeding (every task placed randomly), so the
    convergence behaviour of the GA — rather than the strength of the greedy
    seed — is what the curves show; the paper's Fig. 3 likewise starts from a
    population whose makespan the GA can still reduce by 25–35 %.
    """
    scale = scale or default_scale()
    rng = ensure_rng(seed)
    executor = resolve_executor(executor, scale.jobs)
    generations = scale.convergence_generations
    labels = {0: "pure GA", 1: "1 rebalance"}
    # Pair the comparison: every rebalance level sees the same batch problems
    # and the same GA seeds, so the curves differ only in the re-balancing.
    problems = [_convergence_problem(scale, rng) for _ in range(scale.repeats)]
    ga_seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(scale.repeats)]
    jobs = [
        GARunJob(
            config=GAConfig(
                population_size=20,
                max_generations=generations,
                n_rebalances=int(level),
                seeded_initialisation=True,
                random_init_fraction=1.0,
            ),
            problem=problem,
            ga_seed=ga_seed,
        )
        for level in rebalance_levels
        for problem, ga_seed in zip(problems, ga_seeds)
    ]
    outcomes = executor.map(run_ga_job, jobs)
    series: Dict[str, List[float]] = {}
    for k, level in enumerate(rebalance_levels):
        label = labels.get(level, f"{level} rebalances")
        histories = []
        for outcome in outcomes[k * scale.repeats : (k + 1) * scale.repeats]:
            history = outcome.reduction_history
            # Pad (should not normally be needed: no other stop condition fires).
            if history.size < generations:
                history = np.pad(history, (0, generations - history.size), mode="edge")
            histories.append(history[:generations])
        series[label] = np.mean(np.vstack(histories), axis=0).tolist()
    return FigureResult(
        figure_id="fig3",
        title="Average reduction in makespan after each generation of the GA",
        kind="series",
        x_name="generation",
        x_values=list(range(1, generations + 1)),
        series=series,
        expectation=(
            "Most of the reduction happens early; more rebalances give a larger final "
            "reduction (paper: ~25% pure GA, ~30% with 1 rebalance, ~35% with 50)."
        ),
        metadata={
            "scale": scale.name,
            "batch_size": scale.batch_size,
            "n_processors": scale.n_processors,
            "generations": generations,
            "repeats": scale.repeats,
            "executor": executor.describe(),
        },
    )


# ---------------------------------------------------------------------------
# Figure 4 — scheduling time vs number of rebalances
# ---------------------------------------------------------------------------

def figure4(
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    *,
    rebalance_levels: Sequence[int] = (0, 1, 2, 5, 10, 20),
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Fig. 4 — wall-clock time of a GA run vs re-balances per generation.

    The paper times the scheduling of 10,000 tasks; the shape of interest is
    the *linear* growth with the number of re-balances, which is preserved at
    any batch size, so this reproduction times a single GA batch.  Each GA
    run is timed inside its own job, and the jobs go through ``imap``, which
    runs them one at a time: a run stacked with others in a serial ``map``
    would report a share of its group's time.  Note that unlike the stochastic
    figures, this figure's y-values are wall-clock *measurements*: with
    ``jobs > 1`` concurrent workers contend for cores, which inflates and
    adds noise to the per-run times, so time this figure serially when the
    absolute values matter (the linear shape survives either way).
    """
    scale = scale or default_scale()
    rng = ensure_rng(seed)
    executor = resolve_executor(executor, scale.jobs)
    # Time every rebalance level on the same batch problems and GA seeds.
    problems = [_convergence_problem(scale, rng) for _ in range(scale.repeats)]
    ga_seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(scale.repeats)]
    jobs = [
        GARunJob(
            config=GAConfig(
                population_size=20,
                max_generations=scale.convergence_generations,
                n_rebalances=int(level),
                seeded_initialisation=True,
                random_init_fraction=1.0,
            ),
            problem=problem,
            ga_seed=ga_seed,
        )
        for level in rebalance_levels
        for problem, ga_seed in zip(problems, ga_seeds)
    ]
    outcomes = list(executor.imap(run_ga_job, jobs))
    times: List[float] = []
    for k in range(len(rebalance_levels)):
        per_level = outcomes[k * scale.repeats : (k + 1) * scale.repeats]
        times.append(sum(o.elapsed_seconds for o in per_level) / scale.repeats)
    return FigureResult(
        figure_id="fig4",
        title="Time taken to run the GA with varying numbers of re-balances per generation",
        kind="series",
        x_name="rebalances_per_generation",
        x_values=[float(level) for level in rebalance_levels],
        series={"seconds": times},
        expectation="Scheduling time grows roughly linearly with the number of re-balances.",
        metadata={
            "scale": scale.name,
            "batch_size": scale.batch_size,
            "generations": scale.convergence_generations,
            "repeats": scale.repeats,
            "executor": executor.describe(),
        },
    )


# ---------------------------------------------------------------------------
# Figures 5 & 7 — efficiency vs 1/mean communication cost
# ---------------------------------------------------------------------------

def _efficiency_sweep(
    figure_id: str,
    title: str,
    workload_factory: Callable[[int], object],
    scale: ExperimentScale,
    seed: RNGLike,
    expectation: str,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    rng = ensure_rng(seed)
    executor = resolve_executor(executor, scale.jobs)
    spec = workload_factory(scale.n_tasks)
    # Sweep from the largest mean cost (smallest 1/cost) to the smallest, so the
    # x axis is increasing like the paper's.
    costs = sorted(scale.comm_cost_means, reverse=True)
    x_values = [1.0 / c for c in costs]
    # Every condition's repeats go into one map, seeded condition after
    # condition from the one stream, as consecutive comparisons would be.
    job_lists = [comparison_jobs(spec, scale, mean_comm_cost=cost, seed=rng) for cost in costs]
    outcomes = executor.map(run_comparison_repeat, [job for jobs in job_lists for job in jobs])
    series: Dict[str, List[float]] = {name: [] for name in ALL_SCHEDULER_NAMES}
    comparisons: List[ComparisonResult] = []
    for k, (cost, jobs) in enumerate(zip(costs, job_lists)):
        comparison = summarise_comparison(
            jobs,
            outcomes[k * scale.repeats : (k + 1) * scale.repeats],
            condition={"figure": figure_id, "mean_comm_cost": cost},
            executor=executor.describe(),
        )
        comparisons.append(comparison)
        for name in ALL_SCHEDULER_NAMES:
            series[name].append(comparison.schedulers[name].efficiency.mean)
    return FigureResult(
        figure_id=figure_id,
        title=title,
        kind="series",
        x_name="1/mean_comm_cost",
        x_values=x_values,
        series=series,
        expectation=expectation,
        metadata={
            "scale": scale.name,
            "n_tasks": scale.n_tasks,
            "n_processors": scale.n_processors,
            "workload": spec.sizes.name,
            "repeats": scale.repeats,
            "executor": executor.describe(),
        },
        comparisons=comparisons,
    )


def figure5(
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    *,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Fig. 5 — efficiency vs 1/mean comm cost, normal(1000, 9e5) task sizes."""
    return _efficiency_sweep(
        "fig5",
        "Efficiency of schedulers with a normal distribution of task sizes "
        "and varying communication costs",
        normal_paper_workload,
        scale or default_scale(),
        seed,
        expectation=(
            "PN gives the best efficiency across the sweep; efficiency increases as the "
            "mean communication cost decreases (1/cost increases)."
        ),
        executor=executor,
    )


def figure7(
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    *,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Fig. 7 — efficiency vs 1/mean comm cost, uniform[10, 1000] task sizes."""
    return _efficiency_sweep(
        "fig7",
        "Efficiency of schedulers with a uniform distribution of task sizes "
        "and varying communication costs",
        uniform_standard_workload,
        scale or default_scale(),
        seed,
        expectation=(
            "The two GA schedulers (PN and ZO) are clearly more efficient than the simple "
            "heuristics; PN is the best overall."
        ),
        executor=executor,
    )


# ---------------------------------------------------------------------------
# Figures 6, 8, 9, 10, 11 — makespan bar charts
# ---------------------------------------------------------------------------

def _makespan_bars(
    figure_id: str,
    title: str,
    workload_factory: Callable[[int], object],
    scale: ExperimentScale,
    seed: RNGLike,
    expectation: str,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    rng = ensure_rng(seed)
    executor = resolve_executor(executor, scale.jobs)
    spec = workload_factory(scale.n_tasks_large)
    comparison = compare_schedulers(
        spec,
        scale,
        mean_comm_cost=scale.bar_comm_cost_mean,
        seed=rng,
        condition={"figure": figure_id, "mean_comm_cost": scale.bar_comm_cost_mean},
        executor=executor,
    )
    series = {
        name: [comparison.schedulers[name].makespan.mean] for name in ALL_SCHEDULER_NAMES
    }
    return FigureResult(
        figure_id=figure_id,
        title=title,
        kind="bars",
        x_name="scheduler",
        x_values=[0.0],
        series=series,
        expectation=expectation,
        metadata={
            "scale": scale.name,
            "n_tasks": scale.n_tasks_large,
            "n_processors": scale.n_processors,
            "workload": spec.sizes.name,
            "mean_comm_cost": scale.bar_comm_cost_mean,
            "repeats": scale.repeats,
            "executor": executor.describe(),
        },
        comparisons=[comparison],
    )


def figure6(
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    *,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Fig. 6 — makespan per scheduler, normal(1000 MFLOPs, 9e5) task sizes."""
    return _makespan_bars(
        "fig6",
        "Makespan when task sizes are normally distributed (mean 1000 MFLOPs, variance 9e5)",
        normal_paper_workload,
        scale or default_scale(),
        seed,
        expectation="PN outperforms all other schedulers in total execution time.",
        executor=executor,
    )


def figure8(
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    *,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Fig. 8 — makespan per scheduler, uniform[10, 100] MFLOPs task sizes."""
    return _makespan_bars(
        "fig8",
        "Makespan when task sizes are uniformly distributed between 10 and 100 MFLOPs",
        uniform_narrow_workload,
        scale or default_scale(),
        seed,
        expectation=(
            "With a narrow 1:10 size range most schedulers produce similarly efficient "
            "schedules; PN remains among the best."
        ),
        executor=executor,
    )


def figure9(
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    *,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Fig. 9 — makespan per scheduler, uniform[10, 10000] MFLOPs task sizes."""
    return _makespan_bars(
        "fig9",
        "Makespan when task sizes are uniformly distributed between 10 and 10000 MFLOPs",
        uniform_wide_workload,
        scale or default_scale(),
        seed,
        expectation=(
            "With a wide 1:1000 size range the differences between schedulers become "
            "accentuated; PN has the lowest makespan."
        ),
        executor=executor,
    )


def figure10(
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    *,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Fig. 10 — makespan per scheduler, Poisson(mean 10 MFLOPs) task sizes."""
    return _makespan_bars(
        "fig10",
        "Makespan when task sizes are Poisson distributed with a mean of 10 MFLOPs",
        poisson_small_workload,
        scale or default_scale(),
        seed,
        expectation=(
            "PN performs best, followed by MM; MX performs poorly because every task is "
            "small and near-uniform."
        ),
        executor=executor,
    )


def figure11(
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    *,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Fig. 11 — makespan per scheduler, Poisson(mean 100 MFLOPs) task sizes."""
    return _makespan_bars(
        "fig11",
        "Makespan when task sizes are Poisson distributed with a mean of 100 MFLOPs",
        poisson_large_workload,
        scale or default_scale(),
        seed,
        expectation=(
            "All batch schedulers perform well; the immediate-mode schedulers lag behind."
        ),
        executor=executor,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
}


def list_figures() -> List[str]:
    """Figure ids in the paper's order."""
    return list(FIGURES)


def run_figure(
    figure_id: str,
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    *,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Run the experiment reproducing *figure_id* (``"fig3"`` … ``"fig11"``).

    *executor* (or ``scale.jobs``) controls how the figure's independent
    repeats / GA runs are sharded across worker processes.  All stochastic
    results are bit-identical regardless; only measured wall-clock values
    (Fig. 4's seconds) vary with the run and can be inflated by core
    contention when sharded.  With telemetry on, the figure's work nests
    under one ``figure:<id>`` span.
    """
    key = figure_id.strip().lower().replace("figure", "fig")
    if key not in FIGURES:
        raise ConfigurationError(
            f"unknown figure {figure_id!r}; expected one of {list(FIGURES)}"
        )
    with span(f"figure:{key}"):
        return FIGURES[key](scale=scale, seed=seed, executor=executor)
