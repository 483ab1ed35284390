"""repro — reproduction of Page & Naughton (2005).

"Dynamic task scheduling using genetic algorithms for heterogeneous
distributed computing" (IEEE IPDPS / Heterogeneous Computing Workshop, 2005).

The package provides:

* :mod:`repro.core` — the paper's PN scheduler (dynamic batch GA scheduling
  with communication-cost prediction, re-balancing and dynamic batch sizing);
* :mod:`repro.schedulers` — the six baseline policies (EF, LL, RR, MM, MX, ZO)
  and the shared scheduler interfaces;
* :mod:`repro.ga` — the underlying genetic-algorithm machinery;
* :mod:`repro.cluster` and :mod:`repro.workloads` — models of heterogeneous
  processors, variable resources, network links and random task workloads;
* :mod:`repro.sim` — the discrete-event simulator of the master/worker
  dispatch protocol and the paper's metrics (makespan, efficiency);
* :mod:`repro.experiments` — the harness reproducing every figure of the
  paper's evaluation (Figs. 3–11);
* :mod:`repro.parallel` — the experiment executors that shard independent
  repeats across worker processes with deterministic, bit-identical results;
* :mod:`repro.scenarios` — declarative cluster-dynamics scenarios (worker
  failure/recovery/join, load spikes), a named scenario library, and the
  sharded scenario-matrix runner;
* :mod:`repro.campaigns` — durable experiment campaigns: a
  content-addressed result store, declarative campaign specs composing
  figures / scenario matrices / GA sweeps, and a resumable runner that
  checkpoints after every completed cell.

Quickstart
----------
>>> from repro import (
...     PNScheduler, heterogeneous_cluster, normal_paper_workload,
...     generate_workload, simulate_schedule,
... )
>>> cluster = heterogeneous_cluster(8, mean_comm_cost=1.0, rng=0)
>>> tasks = generate_workload(normal_paper_workload(100), rng=1)
>>> scheduler = PNScheduler(n_processors=8, rng=2)
>>> result = simulate_schedule(scheduler, cluster, tasks, rng=3)
>>> result.makespan > 0 and 0 < result.efficiency <= 1
True
"""

from .campaigns import (
    CampaignSpec,
    ResultStore,
    SweepSpec,
    run_campaign,
)
from .cluster import (
    Cluster,
    CommLink,
    Network,
    Processor,
    build_random_network,
    heterogeneous_cluster,
    homogeneous_cluster,
    paper_cluster,
    varying_availability_cluster,
)
from .core import (
    CommCostEstimator,
    DynamicBatchSizer,
    FixedBatchSizer,
    PNScheduler,
    default_pn_ga_config,
)
from .ga import BatchProblem, GAConfig, GAResult, GeneticAlgorithm
from .parallel import (
    ExperimentExecutor,
    ParallelExecutor,
    SerialExecutor,
    executor_from_jobs,
)
from .scenarios import (
    ClusterSpec,
    DynamicsTimeline,
    LoadSpike,
    ScenarioSpec,
    WorkerFailure,
    WorkerJoin,
    WorkerRecovery,
    get_scenario,
    run_scenario_matrix,
    scenario_names,
)
from .schedulers import (
    ALL_SCHEDULER_NAMES,
    EarliestFirstScheduler,
    LightestLoadedScheduler,
    MaxMinScheduler,
    MinMinScheduler,
    RoundRobinScheduler,
    ScheduleAssignment,
    Scheduler,
    SchedulingContext,
    ZomayaScheduler,
    make_all_schedulers,
    make_scheduler,
)
from .sim import (
    SimulationConfig,
    SimulationMetrics,
    SimulationResult,
    simulate_schedule,
)
from .workloads import (
    NormalSizes,
    PoissonSizes,
    Task,
    TaskSet,
    UniformSizes,
    WorkloadSpec,
    generate_workload,
    normal_paper_workload,
    paper_workloads,
    uniform_standard_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "PNScheduler",
    "default_pn_ga_config",
    "DynamicBatchSizer",
    "FixedBatchSizer",
    "CommCostEstimator",
    # ga
    "BatchProblem",
    "GAConfig",
    "GAResult",
    "GeneticAlgorithm",
    # schedulers
    "Scheduler",
    "SchedulingContext",
    "ScheduleAssignment",
    "EarliestFirstScheduler",
    "LightestLoadedScheduler",
    "RoundRobinScheduler",
    "MinMinScheduler",
    "MaxMinScheduler",
    "ZomayaScheduler",
    "ALL_SCHEDULER_NAMES",
    "make_scheduler",
    "make_all_schedulers",
    # cluster
    "Cluster",
    "Processor",
    "CommLink",
    "Network",
    "build_random_network",
    "homogeneous_cluster",
    "heterogeneous_cluster",
    "paper_cluster",
    "varying_availability_cluster",
    # workloads
    "Task",
    "TaskSet",
    "UniformSizes",
    "NormalSizes",
    "PoissonSizes",
    "WorkloadSpec",
    "generate_workload",
    "normal_paper_workload",
    "uniform_standard_workload",
    "paper_workloads",
    # parallel
    "ExperimentExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "executor_from_jobs",
    # sim
    "SimulationConfig",
    "SimulationResult",
    "SimulationMetrics",
    "simulate_schedule",
    # scenarios
    "ScenarioSpec",
    "ClusterSpec",
    "DynamicsTimeline",
    "WorkerFailure",
    "WorkerRecovery",
    "WorkerJoin",
    "LoadSpike",
    "scenario_names",
    "get_scenario",
    "run_scenario_matrix",
    # campaigns
    "CampaignSpec",
    "SweepSpec",
    "ResultStore",
    "run_campaign",
]
