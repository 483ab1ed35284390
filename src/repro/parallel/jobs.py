"""Picklable job specs and worker functions for the experiment executors.

One *job* is one independent unit of experimental work: a full
scheduler-comparison repeat (generate workload + cluster, simulate every
scheduler) or one GA run on a pre-built batch problem.  Jobs carry everything
the worker needs as plain data — dataclasses of numpy arrays, scalars and a
:class:`numpy.random.SeedSequence` — so they cross a process boundary
untouched, and the worker functions live at module level so they can be
pickled by :class:`concurrent.futures.ProcessPoolExecutor`.

Determinism contract
--------------------
A comparison repeat's randomness is derived exclusively from its
``seed`` (a ``SeedSequence`` spawned by the parent), and a GA job's from its
``ga_seed`` integer.  The worker spawns the same four child streams
(workload, cluster, simulation, scheduler) that the serial harness
historically used, in the same order, so results are bit-identical no matter
which executor — or which worker process — runs the job.

This module intentionally never imports from :mod:`repro.experiments`
(the experiment harness imports *us*), which keeps the worker-side import
graph acyclic and cheap to load in spawned processes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.topology import heterogeneous_cluster
from ..ga.engine import GAConfig, GeneticAlgorithm
from ..ga.problem import BatchProblem
from ..schedulers.registry import make_scheduler
from ..sim.simulation import SimulationConfig, simulate_schedule
from ..workloads.generator import WorkloadSpec, generate_workload

__all__ = [
    "ComparisonRepeatJob",
    "ComparisonRepeatOutcome",
    "run_comparison_repeat",
    "GARunJob",
    "GARunOutcome",
    "run_ga_job",
    "job_label",
]


def job_label(job: object) -> str:
    """A short human-readable label for any executor job (monitor display).

    Understands every job shape the executors see — campaign cells, groups
    of them (a list, named by its first and last job and its size),
    comparison repeats and GA runs — and falls back to the type name for
    anything else, so the live monitor can always say *what* a worker is
    chewing on.
    """
    if isinstance(job, list) and job:
        first, last = job_label(job[0]), job_label(job[-1])
        return first if len(job) == 1 else f"{first} .. {last} ({len(job)} jobs)"
    cell_id = getattr(job, "cell_id", None)
    if cell_id is not None:
        return str(cell_id)
    if isinstance(job, ComparisonRepeatJob):
        return f"repeat:seed={job.seed_entropy}"
    if isinstance(job, GARunJob):
        return f"ga:seed={job.ga_seed}"
    inner = getattr(job, "job", None)
    if inner is not None:
        return job_label(inner)
    return type(job).__name__


# ---------------------------------------------------------------------------
# Scheduler-comparison repeats (experiments/runner.py)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRepeatJob:
    """One repeat of a scheduler comparison: workload + cluster + all schedulers.

    Attributes
    ----------
    seed_entropy:
        Entropy of the repeat's private ``SeedSequence``.  The worker builds
        the sequence and spawns the workload, cluster, simulation and
        scheduler child streams from it; carrying the plain integer (rather
        than a ``SeedSequence`` object, whose ``spawn`` mutates internal
        state) keeps a job bit-identical when re-run.
    scheduler_names:
        Schedulers to evaluate, all on the identical workload/cluster/sim-seed.
    n_processors, batch_size, max_generations:
        The scale parameters the repeat needs (copied out of
        ``ExperimentScale`` so this module stays independent of the
        experiments layer).
    cluster_factory:
        Optional custom cluster builder; must be picklable for parallel runs
        (the executor falls back to in-process execution otherwise).
    """

    seed_entropy: int
    workload_spec: WorkloadSpec
    scheduler_names: Tuple[str, ...]
    n_processors: int
    batch_size: int
    max_generations: int
    mean_comm_cost: float
    sim_config: Optional[SimulationConfig] = None
    cluster_factory: Optional[Callable[[np.random.Generator], Cluster]] = None


@dataclass(frozen=True)
class ComparisonRepeatOutcome:
    """Per-scheduler metrics of one comparison repeat.

    ``metrics`` maps scheduler name to
    ``(makespan, efficiency, mean_response_time, scheduler_invocations)``.
    """

    metrics: Dict[str, Tuple[float, float, float, float]]


def run_comparison_repeat(job: ComparisonRepeatJob) -> ComparisonRepeatOutcome:
    """Run one comparison repeat; every scheduler sees identical conditions."""
    seed_seq = np.random.SeedSequence(job.seed_entropy)
    workload_rng, cluster_rng, sim_seed_rng, sched_seed_rng = (
        np.random.default_rng(child) for child in seed_seq.spawn(4)
    )
    tasks = generate_workload(job.workload_spec, workload_rng)
    if job.cluster_factory is not None:
        cluster = job.cluster_factory(cluster_rng)
    else:
        cluster = heterogeneous_cluster(
            job.n_processors,
            mean_comm_cost=job.mean_comm_cost,
            rng=cluster_rng,
        )
    sim_seed = int(sim_seed_rng.integers(0, 2**31 - 1))

    metrics: Dict[str, Tuple[float, float, float, float]] = {}
    for name in job.scheduler_names:
        scheduler = make_scheduler(
            name,
            n_processors=cluster.n_processors,
            batch_size=job.batch_size,
            max_generations=job.max_generations,
            rng=int(sched_seed_rng.integers(0, 2**31 - 1)),
        )
        # Every scheduler sees the same workload, cluster and the same stream
        # of communication-cost noise (identical sim seed).
        result = simulate_schedule(
            scheduler, cluster, tasks, config=job.sim_config, rng=sim_seed
        )
        metrics[name] = (
            float(result.makespan),
            float(result.efficiency),
            float(result.metrics.mean_response_time),
            float(result.scheduler_invocations),
        )
    return ComparisonRepeatOutcome(metrics=metrics)


# ---------------------------------------------------------------------------
# GA runs (experiments/sweep.py and the GA-internal figures)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GARunJob:
    """One GA run: a config, a pre-built batch problem and an integer seed."""

    config: GAConfig
    problem: BatchProblem
    ga_seed: int


@dataclass(frozen=True)
class GARunOutcome:
    """The scalars and history the experiment harness aggregates from a GA run.

    ``elapsed_seconds`` is measured around the whole ``evolve`` call in the
    worker (what Fig. 4 plots, so Fig. 4 runs its jobs one at a time);
    ``wall_time_seconds`` is the GA's own internally reported timing, a
    stacked run's share of its group's (see :class:`~repro.ga.GAResult`).
    """

    best_makespan: float
    reduction_fraction: float
    generations: int
    wall_time_seconds: float
    elapsed_seconds: float
    reduction_history: np.ndarray


def run_ga_job(job: GARunJob) -> GARunOutcome:
    """Evolve the job's problem under its config; return aggregate outcomes."""
    start = time.perf_counter()
    result = GeneticAlgorithm(job.config, rng=job.ga_seed).evolve(job.problem)
    elapsed = time.perf_counter() - start
    return GARunOutcome(
        best_makespan=float(result.best_makespan),
        reduction_fraction=float(result.reduction_fraction),
        generations=int(result.generations),
        wall_time_seconds=float(result.wall_time_seconds),
        elapsed_seconds=float(elapsed),
        reduction_history=np.asarray(result.reduction_history(), dtype=float),
    )
