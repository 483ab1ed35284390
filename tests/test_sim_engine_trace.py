"""Tests for the event loop (on real simulation runs), traces and metrics."""

import hashlib

import numpy as np
import pytest

from repro.cluster import homogeneous_cluster
from repro.experiments.config import get_scale
from repro.scenarios import DynamicsTimeline, LoadSpike, WorkerFailure, WorkerRecovery
from repro.scenarios.runner import resolve_scenario_specs
from repro.schedulers import EarliestFirstScheduler, RoundRobinScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim import (
    DistributedSystemSimulation,
    EventKind,
    ExecutionTrace,
    SimulationConfig,
    TaskRecord,
    WorkerState,
    compute_metrics,
)
from repro.telemetry import telemetry_session
from repro.util.errors import SimulationError
from repro.workloads import ConstantSizes, Task, TaskSet
from repro.workloads.generator import generate_workload

#: The library scenarios whose timelines fail, recover, join or spike.
DYNAMIC_SCENARIOS = (
    "flash-crowd",
    "failure-storm",
    "rolling-restart",
    "elastic-scale-out",
    "heavy-tail-mix",
)
#: Each dynamic scenario on the event loop, and a static one on both paths.
SCENARIO_PATHS = [(name, "event") for name in DYNAMIC_SCENARIOS] + [
    ("steady-state", "event"),
    ("steady-state", "fast"),
]
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


def on_path(sim, path):
    """Force *sim* onto the event loop when *path* is ``"event"``."""
    if path == "event":
        sim.uses_fast_path = lambda: False
    else:
        assert sim.uses_fast_path()
    return sim


def scenario_sim(name, path="event", **config):
    """A seeded smoke-scale LL simulation of library scenario *name*."""
    (spec,) = resolve_scenario_specs([name], get_scale("smoke"))
    rng = np.random.default_rng(0)
    tasks = generate_workload(spec.workload, rng)
    cluster = spec.build_cluster(rng)
    sim = DistributedSystemSimulation(
        make_scheduler("LL", n_processors=cluster.n_processors, rng=1),
        cluster,
        tasks,
        config=SimulationConfig(**config),
        dynamics=DynamicsTimeline(spec.dynamics),
        rng=2,
    )
    return on_path(sim, path)


def run_digest(sim, result):
    """Digest of the trace, the result's counters and every worker's books."""
    h = hashlib.sha256()
    for name in TRACE_COLUMNS:
        h.update(result.trace.column(name).tobytes())
    h.update(
        repr(
            (
                result.events_processed,
                result.scheduler_invocations,
                result.batch_sizes,
                result.metrics.summary(),
                result.metrics.dynamics.queue_length_trajectory,
                [(w.busy_seconds, w.comm_seconds, w.downtime_seconds) for w in sim.workers],
            )
        ).encode()
    )
    return h.hexdigest()


def failover_sim():
    """Worker 1 fails at t=5, mid-way through its task, and recovers at t=100.

    Two identical workers (100 Mflop/s, no communication cost) and two tasks
    at t=0 that run 10 s and 15 s.  EF puts task 0 on worker 0 and task 1 on
    worker 1.  The failure re-queues task 1 behind task 0 on worker 0, so
    worker 1's completion at t=15 is cancelled and task 1 ends at t=25.
    Twelve events are handled: two arrivals, two scheduler invocations
    (t=0, t=5), four fetches (two at t=0, one at t=10 and one at t=25), two
    live completions (t=10, t=25), the failure and the recovery.
    """
    tasks = TaskSet(
        [
            Task(task_id=0, size_mflops=1000.0, arrival_time=0.0),
            Task(task_id=1, size_mflops=1500.0, arrival_time=0.0),
        ]
    )
    timeline = DynamicsTimeline(
        [WorkerFailure(time=5.0, proc=1), WorkerRecovery(time=100.0, proc=1)]
    )
    return DistributedSystemSimulation(
        EarliestFirstScheduler(),
        homogeneous_cluster(2, rate_mflops=100.0, mean_comm_cost=0.0),
        tasks,
        dynamics=timeline,
        rng=0,
    )


def skipped_completions(sim):
    """Run *sim* under telemetry; return its result and ``sim.tombstones_skipped``."""
    with telemetry_session() as session:
        result = sim.run()
    counters = session.metrics.snapshot()["counters"]
    return result, counters["sim.tombstones_skipped"]


class TestEventOrder:
    @pytest.mark.parametrize("scenario,path", SCENARIO_PATHS)
    def test_events_are_handled_in_time_order(self, scenario, path):
        result = scenario_sim(scenario, path).run()
        # Completions are recorded as they are handled.
        assert np.all(np.diff(result.trace.column("exec_end")) >= 0)
        samples = [t for t, _, _ in result.metrics.dynamics.queue_length_trajectory]
        assert samples == sorted(samples)

    @pytest.mark.parametrize("path", ["event", "fast"])
    def test_simultaneous_events_keep_their_scheduling_order(self, path):
        # Nine equal tasks at t=0, listed out of id order, on three identical
        # workers with no communication cost.  The arrivals tie and keep task
        # order, so round robin deals them out in list order; the completions
        # tie at t=1, 2 and 3 and pop in dispatch order, which is worker order.
        order = [5, 2, 7, 0, 8, 1, 4, 6, 3]
        tasks = TaskSet(
            [Task(task_id=i, size_mflops=100.0, arrival_time=0.0) for i in order]
        )
        sim = DistributedSystemSimulation(
            RoundRobinScheduler(),
            homogeneous_cluster(3, rate_mflops=100.0, mean_comm_cost=0.0),
            tasks,
            rng=0,
        )
        result = on_path(sim, path).run()
        assert result.trace.column("task_id").tolist() == order
        assert result.trace.column("proc_id").tolist() == [0, 1, 2] * 3
        assert result.trace.column("exec_end").tolist() == [1.0] * 3 + [2.0] * 3 + [3.0] * 3

    def test_timeline_events_follow_arrivals_and_precede_runtime_events(self):
        # A spike and a failure of worker 0 at the arrivals' own time pop
        # after the four arrivals and before the scheduler invocation the
        # arrivals asked for: each samples all six tasks unscheduled, and
        # nothing is ever placed on worker 0 or re-queued from it.
        tasks = TaskSet(
            [Task(task_id=i, size_mflops=100.0, arrival_time=0.0) for i in range(4)]
        )
        timeline = DynamicsTimeline(
            [
                LoadSpike(time=0.0, n_tasks=2, sizes=ConstantSizes(100.0)),
                WorkerFailure(time=0.0, proc=0),
            ]
        )
        result = DistributedSystemSimulation(
            EarliestFirstScheduler(),
            homogeneous_cluster(3, rate_mflops=100.0, mean_comm_cost=0.0),
            tasks,
            dynamics=timeline,
            rng=0,
        ).run()
        assert result.metrics.dynamics.queue_length_trajectory[:3] == ((0.0, 6, 0),) * 3
        assert result.metrics.dynamics.tasks_rescheduled == 0
        assert 0 not in result.trace.column("proc_id").tolist()
        assert sorted(result.trace.column("task_id").tolist()) == list(range(6))


class TestCancelledCompletions:
    def test_a_failed_workers_completion_is_never_handled_or_counted(self):
        result, skipped = skipped_completions(failover_sim())
        assert skipped == 1
        assert result.events_processed == 12
        assert result.trace.column("task_id").tolist() == [0, 1]
        assert result.trace.column("proc_id").tolist() == [0, 0]
        assert result.trace.column("exec_end").tolist() == [10.0, 25.0]
        assert result.metrics.dynamics.worker_downtime_seconds == 95.0

    @pytest.mark.parametrize("scenario", DYNAMIC_SCENARIOS)
    def test_failed_workers_run_nothing_and_every_cancel_is_skipped(
        self, scenario, monkeypatch
    ):
        # Every failure that strikes a busy worker cancels one completion,
        # which the loop skips once (the run drains the heap).
        struck = []
        fail = WorkerState.fail

        def counting_fail(worker, now):
            task = fail(worker, now)
            struck.append(task is not None)
            return task

        monkeypatch.setattr(WorkerState, "fail", counting_fail)
        sim = scenario_sim(scenario)
        result, skipped = skipped_completions(sim)
        assert skipped == sum(struck)
        if scenario in ("failure-storm", "rolling-restart", "heavy-tail-mix"):
            assert skipped > 0
        ids = result.trace.column("task_id").tolist()
        assert sorted(ids) == sorted(set(ids))
        assert len(ids) == len(sim.tasks) + result.tasks_injected
        # Nothing is recorded on a worker while it is out of the cluster.
        for action in sim._dynamics.actions:
            if isinstance(action, WorkerFailure):
                back = min(
                    (
                        a.time
                        for a in sim._dynamics.actions
                        if isinstance(a, WorkerRecovery)
                        and a.proc == action.proc
                        and a.time > action.time
                    ),
                    default=np.inf,
                )
                mask = result.trace.column("proc_id") == action.proc
                ends = result.trace.column("exec_end")[mask]
                dispatches = result.trace.column("dispatch_time")[mask]
                assert np.all((ends <= action.time) | (dispatches >= back))


class TestRunGuards:
    @pytest.mark.parametrize("scenario,path", SCENARIO_PATHS)
    def test_event_budget_raises_and_keeps_the_partial_trace(self, scenario, path):
        full_sim = scenario_sim(scenario, path)
        full = full_sim.run()
        budget = full.events_processed // 2
        sim = scenario_sim(scenario, path, max_events=budget)
        with pytest.raises(SimulationError, match=f"event budget of {budget} exceeded"):
            sim.run()
        # The records handled before the budget ran out are a prefix of the
        # full run's trace.
        done = len(sim.trace)
        assert 0 < done < len(full.trace)
        for name in TRACE_COLUMNS:
            np.testing.assert_array_equal(
                sim.trace.column(name), full.trace.column(name)[:done], err_msg=name
            )

    @pytest.mark.parametrize("scenario,path", SCENARIO_PATHS)
    def test_two_fresh_runs_are_identical(self, scenario, path):
        digests = []
        for _ in range(2):
            sim = scenario_sim(scenario, path)
            digests.append(run_digest(sim, sim.run()))
        assert digests[0] == digests[1]

    def test_non_positive_event_budget_rejected(self, small_cluster, small_tasks):
        with pytest.raises(SimulationError, match="max_events must be positive"):
            DistributedSystemSimulation(
                EarliestFirstScheduler(),
                small_cluster,
                small_tasks,
                config=SimulationConfig(max_events=0),
            )

    def test_timeline_may_schedule_only_dynamics_events(self, small_cluster, small_tasks):
        class ArrivalTimeline:
            def initially_offline(self):
                return ()

            def __bool__(self):
                return True

            def sim_events(self, *, next_task_id, rng=None):
                return [(1.0, EventKind.TASK_ARRIVAL, {"task": None})]

        sim = DistributedSystemSimulation(
            EarliestFirstScheduler(), small_cluster, small_tasks, dynamics=ArrivalTimeline()
        )
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.run()


def record(
    task_id=0, proc=0, size=100.0, arrival=0.0, assigned=0.0, dispatch=1.0, start=2.0, end=5.0
):
    return TaskRecord(
        task_id=task_id,
        proc_id=proc,
        size_mflops=size,
        arrival_time=arrival,
        assigned_time=assigned,
        dispatch_time=dispatch,
        exec_start=start,
        exec_end=end,
    )


class TestTaskRecord:
    def test_derived_durations(self):
        r = record()
        assert r.comm_time == pytest.approx(1.0)
        assert r.exec_time == pytest.approx(3.0)
        assert r.queue_wait == pytest.approx(1.0)
        assert r.response_time == pytest.approx(5.0)

    def test_inconsistent_times_rejected(self):
        with pytest.raises(SimulationError):
            record(start=10.0, end=5.0)
        with pytest.raises(SimulationError):
            record(dispatch=0.5, assigned=1.0)


class TestExecutionTrace:
    def test_accumulates_per_processor(self):
        trace = ExecutionTrace(2)
        trace.add(record(task_id=0, proc=0))
        trace.add(record(task_id=1, proc=1, dispatch=1.0, start=1.5, end=2.5))
        assert len(trace) == 2
        assert trace.busy_seconds().tolist() == [3.0, 1.0]
        assert trace.comm_seconds().tolist() == [1.0, 0.5]
        assert trace.tasks_per_processor().tolist() == [1, 1]
        assert trace.completion_time() == 5.0

    def test_record_lookup(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=7))
        assert trace.record_of(7).task_id == 7
        with pytest.raises(SimulationError):
            trace.record_of(8)

    def test_invalid_processor_rejected(self):
        trace = ExecutionTrace(1)
        with pytest.raises(SimulationError):
            trace.add(record(proc=3))

    def test_gantt_sorted_by_start(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, dispatch=5.0, start=6.0, end=7.0))
        trace.add(record(task_id=1, dispatch=1.0, start=2.0, end=3.0))
        gantt = trace.gantt()
        assert [entry[2] for entry in gantt[0]] == [1, 0]

    def test_records_for_processor(self):
        trace = ExecutionTrace(2)
        trace.add(record(task_id=0, proc=1))
        assert trace.records_for(0) == []
        assert len(trace.records_for(1)) == 1


class TestComputeMetrics:
    def test_single_processor_fully_busy(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, dispatch=0.0, start=0.0, end=5.0))
        metrics = compute_metrics(trace)
        assert metrics.makespan == 5.0
        assert metrics.efficiency == pytest.approx(1.0)
        assert metrics.tasks_completed == 1

    def test_efficiency_definition(self):
        # two processors, makespan 10, busy 5 + 10 => efficiency 15/20
        trace = ExecutionTrace(2)
        trace.add(record(task_id=0, proc=0, dispatch=0.0, start=0.0, end=5.0))
        trace.add(record(task_id=1, proc=1, dispatch=0.0, start=0.0, end=10.0))
        metrics = compute_metrics(trace)
        assert metrics.makespan == 10.0
        assert metrics.efficiency == pytest.approx(0.75)
        assert metrics.idle_fraction == pytest.approx(0.25)

    def test_communication_fraction(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, dispatch=0.0, start=2.0, end=10.0))
        metrics = compute_metrics(trace)
        assert metrics.communication_fraction == pytest.approx(0.2)
        assert metrics.efficiency == pytest.approx(0.8)

    def test_per_processor_stats(self):
        trace = ExecutionTrace(2)
        trace.add(record(task_id=0, proc=0, size=123.0, dispatch=0.0, start=0.0, end=4.0))
        trace.add(record(task_id=1, proc=1, size=7.0, dispatch=0.0, start=0.0, end=8.0))
        metrics = compute_metrics(trace)
        assert metrics.per_processor[0].mflops_processed == 123.0
        assert metrics.per_processor[0].utilisation == pytest.approx(0.5)
        assert metrics.per_processor[1].utilisation == pytest.approx(1.0)

    def test_summary_keys(self):
        trace = ExecutionTrace(1)
        trace.add(record())
        summary = compute_metrics(trace).summary()
        for key in ("makespan", "efficiency", "tasks_completed", "mean_response_time"):
            assert key in summary

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            compute_metrics(ExecutionTrace(1))
