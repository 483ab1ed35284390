"""Scheduler-comparison runner.

One :func:`compare_schedulers` call evaluates every requested scheduler on
the *same* sequence of randomly generated workloads and clusters (the paper's
"all schedulers were presented with the same set of tasks"), repeats the
whole simulation ``scale.repeats`` times with fresh workloads, and returns
per-scheduler summaries of makespan and efficiency.

Repeats are independent jobs, each seeded from its own
:class:`numpy.random.SeedSequence` child stream spawned up-front by the
parent, and are routed through an :class:`~repro.parallel.ExperimentExecutor`
(serial by default, ``scale.jobs > 1`` shards them across worker processes).
Because each repeat's randomness is fully determined by its own stream and
results are aggregated in repeat order, serial and parallel runs with the
same master seed produce bit-identical aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..parallel.executor import ExperimentExecutor, resolve_executor
from ..parallel.jobs import ComparisonRepeatJob, run_comparison_repeat
from ..schedulers.registry import ALL_SCHEDULER_NAMES
from ..sim.simulation import SimulationConfig
from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, ensure_rng
from ..workloads.generator import WorkloadSpec
from .config import ExperimentScale
from .stats import SampleSummary, summarise

__all__ = ["SchedulerComparison", "ComparisonResult", "compare_schedulers"]


@dataclass(frozen=True)
class SchedulerComparison:
    """Aggregated outcome of one scheduler over all repeats."""

    scheduler: str
    makespan: SampleSummary
    efficiency: SampleSummary
    mean_response_time: SampleSummary
    invocations: SampleSummary

    def as_row(self) -> List[object]:
        """Row used by the reporting tables."""
        return [
            self.scheduler,
            self.makespan.mean,
            self.makespan.std,
            self.efficiency.mean,
            self.efficiency.std,
        ]


@dataclass
class ComparisonResult:
    """All schedulers' aggregated results for one experimental condition."""

    condition: Dict[str, object]
    schedulers: Dict[str, SchedulerComparison]
    repeats: int
    #: Which executor produced the repeats (``"serial"`` or ``"process[N]"``);
    #: recorded so persisted results document how they were computed.
    executor: str = "serial"

    def makespans(self) -> Dict[str, float]:
        """Mean makespan per scheduler (insertion order preserved)."""
        return {name: cmp.makespan.mean for name, cmp in self.schedulers.items()}

    def efficiencies(self) -> Dict[str, float]:
        """Mean efficiency per scheduler."""
        return {name: cmp.efficiency.mean for name, cmp in self.schedulers.items()}

    def best_by_makespan(self) -> str:
        """Name of the scheduler with the lowest mean makespan."""
        return min(self.schedulers, key=lambda n: self.schedulers[n].makespan.mean)

    def best_by_efficiency(self) -> str:
        """Name of the scheduler with the highest mean efficiency."""
        return max(self.schedulers, key=lambda n: self.schedulers[n].efficiency.mean)

    def rank_of(self, scheduler: str, metric: str = "makespan") -> int:
        """1-based rank of *scheduler* (1 = best) under the given metric."""
        if metric == "makespan":
            ordered = sorted(self.schedulers, key=lambda n: self.schedulers[n].makespan.mean)
        elif metric == "efficiency":
            ordered = sorted(
                self.schedulers, key=lambda n: -self.schedulers[n].efficiency.mean
            )
        else:
            raise ConfigurationError(f"unknown metric {metric!r}")
        return ordered.index(scheduler) + 1


def compare_schedulers(
    workload_spec: WorkloadSpec,
    scale: ExperimentScale,
    *,
    mean_comm_cost: float,
    scheduler_names: Optional[Sequence[str]] = None,
    cluster_factory: Optional[Callable[[np.random.Generator], Cluster]] = None,
    seed: RNGLike = None,
    condition: Optional[Dict[str, object]] = None,
    sim_config: Optional[SimulationConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> ComparisonResult:
    """Run every scheduler on identical workloads and summarise the outcomes.

    Each repeat is an independent :class:`~repro.parallel.ComparisonRepeatJob`
    seeded from its own ``SeedSequence`` child stream; the executor maps the
    job list and the outcomes are aggregated in repeat order.  A parallel run
    (``scale.jobs > 1`` or an explicit :class:`~repro.parallel.ParallelExecutor`)
    therefore returns exactly the same aggregates as the serial run with the
    same master seed.

    Parameters
    ----------
    workload_spec:
        The workload shape (size distribution, arrival process); a fresh task
        set is drawn from it for every repeat and shared by all schedulers.
    scale:
        Experiment scale (processor count, batch size, GA budget, repeats,
        and ``jobs`` — the number of worker processes the repeats are
        sharded across).
    mean_comm_cost:
        Mean per-link communication cost of the generated cluster (seconds).
    scheduler_names:
        Which schedulers to run; defaults to the paper's seven.
    cluster_factory:
        Optional custom cluster builder ``f(rng) -> Cluster``; the default
        builds a heterogeneous cluster per repeat with the requested mean
        communication cost.  Must be picklable to run in worker processes;
        unpicklable factories transparently fall back to in-process execution.
    seed:
        Master seed; per-repeat and per-scheduler streams are derived from it.
    condition:
        Free-form description of the experimental condition stored in the
        result (e.g. ``{"figure": "5", "mean_comm_cost": 20.0}``).
    executor:
        Explicit executor to route the repeats through; overrides
        ``scale.jobs`` when given.
    """
    names = list(scheduler_names or ALL_SCHEDULER_NAMES)
    unknown = [n for n in names if n.upper() not in ALL_SCHEDULER_NAMES]
    if unknown:
        raise ConfigurationError(f"unknown schedulers requested: {unknown}")
    executor = resolve_executor(executor, scale.jobs)

    # One 64-bit draw per repeat from the master stream, exactly as the serial
    # harness has always consumed it; each draw seeds the repeat's private
    # SeedSequence so workers need no shared random state.
    master_rng = ensure_rng(seed)
    repeat_seeds = [
        int(master_rng.integers(0, 2**63 - 1)) for _ in range(scale.repeats)
    ]
    jobs = [
        ComparisonRepeatJob(
            seed_entropy=repeat_seed,
            workload_spec=workload_spec,
            scheduler_names=tuple(names),
            n_processors=scale.n_processors,
            batch_size=scale.batch_size,
            max_generations=scale.max_generations,
            mean_comm_cost=mean_comm_cost,
            sim_config=sim_config,
            cluster_factory=cluster_factory,
        )
        for repeat_seed in repeat_seeds
    ]
    outcomes = executor.map(run_comparison_repeat, jobs)

    per_scheduler: Dict[str, Dict[str, List[float]]] = {
        name: {"makespan": [], "efficiency": [], "response": [], "invocations": []}
        for name in names
    }
    for outcome in outcomes:
        for name in names:
            makespan, efficiency, response, invocations = outcome.metrics[name]
            per_scheduler[name]["makespan"].append(makespan)
            per_scheduler[name]["efficiency"].append(efficiency)
            per_scheduler[name]["response"].append(response)
            per_scheduler[name]["invocations"].append(invocations)

    comparisons = {
        name: SchedulerComparison(
            scheduler=name,
            makespan=summarise(data["makespan"]),
            efficiency=summarise(data["efficiency"]),
            mean_response_time=summarise(data["response"]),
            invocations=summarise(data["invocations"]),
        )
        for name, data in per_scheduler.items()
    }
    return ComparisonResult(
        condition=dict(condition or {"mean_comm_cost": mean_comm_cost}),
        schedulers=comparisons,
        repeats=scale.repeats,
        executor=executor.describe(),
    )
