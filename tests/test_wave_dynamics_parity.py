"""Differential test of the two immediate-mode placement paths under dynamics.

The simulation master places an immediate-mode policy's queue either with
one ``schedule()`` invocation per task (the reference path, taken when the
policy declines the wave, as inside ``reference_kernels.references``) or
through the policy's batched wave kernel (the default).  Both must realise
the same schedule on runs with failures, recoveries, joins and load spikes:
the same trace, the same bookkeeping (invocations, batch sizes, events) and
the same dynamics counters, ``tasks_redirected`` included.  The scenario
golden digests cannot catch a miscount here, because
``ScenarioMatrixResult.signature()`` omits the redirect, reclaim and
invocation counters.  The batch policies' batch kernel is held to its
reference on the same timelines.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.schedule_check import validate_simulation
from repro.cluster.topology import heterogeneous_cluster
from repro.experiments.config import get_scale
from repro.scenarios import (
    DynamicsTimeline,
    LoadSpike,
    WorkerFailure,
    WorkerJoin,
    WorkerRecovery,
    get_scenario,
)
from repro.schedulers.registry import make_scheduler
from repro.sim.metrics import DynamicsStats
from repro.sim.simulation import DistributedSystemSimulation
from repro.workloads import Task, TaskSet, UniformSizes
from repro.workloads.generator import generate_workload

from reference_kernels import references

#: Every library scenario with a dynamics timeline.
DYNAMIC_SCENARIOS = (
    "flash-crowd",
    "failure-storm",
    "rolling-restart",
    "elastic-scale-out",
    "heavy-tail-mix",
)
TRACE_COLUMNS = (
    "task_id",
    "proc_id",
    "size_mflops",
    "arrival_time",
    "assigned_time",
    "dispatch_time",
    "exec_start",
    "exec_end",
)


def run_both(build):
    """Run *build()*'s simulation on the per-task path and on the default path.

    *build* returns a fresh ``(simulation, tasks)`` pair per call, so the two
    runs share no mutable state.
    """
    sim, tasks = build()
    with references(sim.scheduler):
        per_task = sim.run()
    sim, tasks = build()
    return per_task, sim.run(), tasks


def assert_same_run(per_task, default, tasks):
    for name in TRACE_COLUMNS:
        np.testing.assert_array_equal(
            default.trace.column(name), per_task.trace.column(name), err_msg=name
        )
    assert default.scheduler_invocations == per_task.scheduler_invocations
    assert default.batch_sizes == per_task.batch_sizes
    assert default.events_processed == per_task.events_processed
    for field in dataclasses.fields(DynamicsStats):
        assert getattr(default.metrics.dynamics, field.name) == getattr(
            per_task.metrics.dynamics, field.name
        ), field.name
    for result in (per_task, default):
        # The validator does not know load-spike tasks, so it checks the
        # trace alone when the run injected any.
        report = validate_simulation(result, None if result.tasks_injected else tasks)
        assert report.ok, report.summary()


def scenario_build(scenario, scheduler_name, seed):
    scale = get_scale("smoke")
    spec = get_scenario(scenario, scale)

    def build():
        tasks = generate_workload(spec.workload, np.random.default_rng(seed))
        cluster = spec.build_cluster(np.random.default_rng(seed + 1))
        scheduler = make_scheduler(
            scheduler_name,
            n_processors=cluster.n_processors,
            batch_size=scale.batch_size,
            max_generations=scale.max_generations,
            rng=seed + 2,
        )
        sim = DistributedSystemSimulation(
            scheduler, cluster, tasks, dynamics=spec.timeline(), rng=seed + 3
        )
        return sim, tasks

    return build


class TestLibraryScenarios:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("scheduler_name", ["EF", "LL", "RR"])
    @pytest.mark.parametrize("scenario", DYNAMIC_SCENARIOS)
    def test_placement_paths_agree(self, scenario, scheduler_name, seed):
        per_task, default, tasks = run_both(scenario_build(scenario, scheduler_name, seed))
        assert_same_run(per_task, default, tasks)

    def test_round_robin_cells_exercise_diversion(self):
        # RR ignores loads, so it is the policy whose picks land on offline
        # workers; without diverted tasks the comparison above would not
        # cover the master's diversion at all.
        redirected = 0
        for scenario in DYNAMIC_SCENARIOS:
            per_task, default, _ = run_both(scenario_build(scenario, "RR", 0))
            assert default.metrics.dynamics.tasks_redirected == (
                per_task.metrics.dynamics.tasks_redirected
            )
            redirected += per_task.metrics.dynamics.tasks_redirected
        assert redirected > 0


def direct_build(policy_name, actions, *, n_tasks=40, n_processors=4, seed=5):
    """A heterogeneous cluster fed tasks over time, with *actions* injected."""

    def build():
        rng = np.random.default_rng(seed)
        sizes = rng.choice([50.0, 100.0, 200.0, 400.0], size=n_tasks)
        arrivals = np.sort(rng.integers(0, 40, size=n_tasks)) * 0.5
        tasks = TaskSet(
            Task(task_id=i, size_mflops=float(sizes[i]), arrival_time=float(arrivals[i]))
            for i in range(n_tasks)
        )
        cluster = heterogeneous_cluster(
            n_processors, mean_comm_cost=0.5, rng=np.random.default_rng(seed + 1)
        )
        policy = make_scheduler(policy_name, n_processors=n_processors, rng=seed + 2)
        sim = DistributedSystemSimulation(
            policy, cluster, tasks, dynamics=DynamicsTimeline(actions), rng=seed + 3
        )
        return sim, tasks

    return build


#: A fixed timeline: a late joiner, two overlapping failures, a blackout
#: window with every worker offline, and a spike landing inside it.
FIXED_ACTIONS = (
    WorkerJoin(time=3.0, proc=3),
    WorkerFailure(time=2.0, proc=0),
    WorkerFailure(time=4.0, proc=1),
    WorkerRecovery(time=6.0, proc=0),
    WorkerRecovery(time=7.5, proc=1),
    WorkerFailure(time=10.0, proc=0),
    WorkerFailure(time=10.0, proc=1),
    WorkerFailure(time=10.0, proc=2),
    WorkerFailure(time=10.0, proc=3),
    LoadSpike(time=11.0, n_tasks=6, sizes=UniformSizes(20.0, 300.0)),
    WorkerRecovery(time=12.5, proc=2),
    WorkerRecovery(time=13.0, proc=0),
    WorkerRecovery(time=13.0, proc=1),
    WorkerRecovery(time=14.0, proc=3),
)


class TestDirectSimulation:
    # MM and MX have no wave: on the reference side their batches run on the
    # reference batch kernel, and the master diverts offline placements.
    @pytest.mark.parametrize("policy_name", ["EF", "LL", "RR", "MM", "MX"])
    def test_placement_paths_agree(self, policy_name):
        per_task, default, tasks = run_both(direct_build(policy_name, FIXED_ACTIONS))
        assert_same_run(per_task, default, tasks)
        assert per_task.metrics.dynamics.worker_failures == 6


#: Event times on a coarse grid, so actions tie with each other and with
#: task arrivals (which land on multiples of 0.5).
grid_times = st.integers(0, 60).map(lambda k: k * 0.5)


@st.composite
def random_timelines(draw):
    """Failures, recoveries, joins and spikes on a 4-processor cluster.

    Each processor either starts online or joins late, then toggles between
    failure and recovery; every processor recovers at the end so the run
    completes.  A blackout window with every worker offline is drawn half
    the time.
    """
    actions = []
    end = 40.0
    for proc in range(4):
        times = sorted(set(draw(st.lists(grid_times, max_size=5))))
        if times and draw(st.booleans()):
            actions.append(WorkerJoin(time=times[0], proc=proc))
            times = times[1:]
        for i, time in enumerate(times):
            kind = WorkerFailure if i % 2 == 0 else WorkerRecovery
            actions.append(kind(time=time, proc=proc))
        actions.append(WorkerRecovery(time=end, proc=proc))
    if draw(st.booleans()):
        start = draw(st.integers(61, 70).map(lambda k: k * 0.5))
        stop = start + draw(st.integers(1, 8).map(lambda k: k * 0.5))
        for proc in range(4):
            actions.append(WorkerFailure(time=start, proc=proc))
            actions.append(WorkerRecovery(time=stop, proc=proc))
    for time in draw(st.lists(st.integers(0, 100).map(lambda k: k * 0.5), max_size=3)):
        n_tasks = draw(st.integers(1, 8))
        actions.append(LoadSpike(time=time, n_tasks=n_tasks, sizes=UniformSizes(10.0, 400.0)))
    return tuple(actions)


class TestRandomTimelines:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        actions=random_timelines(),
        policy_name=st.sampled_from(["EF", "LL", "RR"]),
        seed=st.integers(0, 3),
    )
    def test_placement_paths_agree(self, actions, policy_name, seed):
        per_task, default, tasks = run_both(
            direct_build(policy_name, actions, seed=seed)
        )
        assert_same_run(per_task, default, tasks)
