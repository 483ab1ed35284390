"""Tests for the fault/elasticity injection layer (repro.scenarios.dynamics).

The load-bearing invariant throughout is *task conservation*: whatever the
timeline does to the cluster (failures mid-execution, recoveries, elastic
joins, load spikes), every arrived task completes exactly once.
"""

import numpy as np
import pytest

from repro.cluster import homogeneous_cluster
from repro.scenarios import (
    DynamicsTimeline,
    LoadSpike,
    WorkerFailure,
    WorkerJoin,
    WorkerRecovery,
)
from repro.schedulers import EarliestFirstScheduler, RoundRobinScheduler
from repro.sim import simulate_schedule
from repro.util.errors import ConfigurationError
from repro.workloads import ConstantSizes, Task, TaskSet


def tasks_at_zero(n, size=100.0):
    return TaskSet(
        [Task(task_id=i, size_mflops=size, arrival_time=0.0) for i in range(n)]
    )


def run(scheduler, timeline, *, n_tasks=10, n_procs=2, rate=100.0, seed=1):
    """A fully deterministic run: homogeneous cluster, zero comm cost."""
    cluster = homogeneous_cluster(n_procs, rate_mflops=rate, mean_comm_cost=0.0)
    return simulate_schedule(
        scheduler, cluster, tasks_at_zero(n_tasks), dynamics=timeline, rng=seed
    )


def assert_conserved(result, expected_tasks):
    ids = [record.task_id for record in result.trace.records]
    assert len(ids) == expected_tasks
    assert len(set(ids)) == len(ids), "a task completed more than once"


class TestActionValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerFailure(time=-1.0, proc=0)

    def test_negative_proc_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerRecovery(time=0.0, proc=-1)

    def test_load_spike_needs_positive_tasks(self):
        with pytest.raises(ConfigurationError):
            LoadSpike(time=1.0, n_tasks=0, sizes=ConstantSizes(10.0))

    def test_double_join_rejected(self):
        with pytest.raises(ConfigurationError, match="more than one join"):
            DynamicsTimeline([WorkerJoin(1.0, proc=3), WorkerJoin(2.0, proc=3)])

    def test_failure_before_join_rejected(self):
        with pytest.raises(ConfigurationError, match="before joining"):
            DynamicsTimeline([WorkerFailure(1.0, proc=3), WorkerJoin(2.0, proc=3)])


class TestTimeline:
    def test_actions_sorted_by_time(self):
        timeline = DynamicsTimeline(
            [WorkerRecovery(5.0, proc=0), WorkerFailure(1.0, proc=0)]
        )
        assert [type(a) for a in timeline.actions] == [WorkerFailure, WorkerRecovery]

    def test_initially_offline_is_join_set(self):
        timeline = DynamicsTimeline(
            [WorkerJoin(1.0, proc=4), WorkerFailure(2.0, proc=0)]
        )
        assert timeline.initially_offline() == {4}

    def test_injected_task_count(self):
        timeline = DynamicsTimeline(
            [
                LoadSpike(1.0, n_tasks=5, sizes=ConstantSizes(10.0)),
                LoadSpike(2.0, n_tasks=7, sizes=ConstantSizes(10.0)),
            ]
        )
        assert timeline.injected_task_count() == 12

    def test_sim_events_deterministic_for_seed(self):
        timeline = DynamicsTimeline([LoadSpike(1.0, n_tasks=4, sizes=ConstantSizes(9.0))])
        a = timeline.sim_events(next_task_id=100, rng=42)
        b = timeline.sim_events(next_task_id=100, rng=42)
        sizes_a = [t.size_mflops for t in a[0][2]["tasks"]]
        sizes_b = [t.size_mflops for t in b[0][2]["tasks"]]
        assert sizes_a == sizes_b
        assert [t.task_id for t in a[0][2]["tasks"]] == [100, 101, 102, 103]

    def test_describe_covers_every_action(self):
        timeline = DynamicsTimeline(
            [
                WorkerFailure(1.0, proc=0),
                WorkerRecovery(2.0, proc=0),
                WorkerJoin(3.0, proc=1),
                LoadSpike(4.0, n_tasks=2, sizes=ConstantSizes(5.0)),
            ]
        )
        lines = timeline.describe()
        assert len(lines) == 4
        assert any("fails" in line for line in lines)
        assert any("load spike" in line for line in lines)


class TestWorkerFailure:
    def test_conservation_with_midrun_failure_and_recovery(self):
        # 10 x 1s tasks on 2 workers; worker 0 dies mid-task and comes back.
        timeline = DynamicsTimeline(
            [WorkerFailure(2.5, proc=0), WorkerRecovery(6.0, proc=0)]
        )
        result = run(EarliestFirstScheduler(), timeline, n_tasks=10)
        assert_conserved(result, 10)
        dynamics = result.metrics.dynamics
        assert dynamics.worker_failures == 1
        assert dynamics.worker_recoveries == 1
        # The in-flight task (and any queued work) was pulled back.
        assert dynamics.tasks_rescheduled >= 1

    def test_conservation_without_recovery(self):
        timeline = DynamicsTimeline([WorkerFailure(2.5, proc=0)])
        result = run(EarliestFirstScheduler(), timeline, n_tasks=10)
        assert_conserved(result, 10)
        # Everything after the failure ran on the surviving worker.
        late = [r for r in result.trace.records if r.exec_start >= 2.5]
        assert late and all(r.proc_id == 1 for r in late)

    def test_no_execution_during_outage(self):
        timeline = DynamicsTimeline(
            [WorkerFailure(2.5, proc=0), WorkerRecovery(6.0, proc=0)]
        )
        result = run(EarliestFirstScheduler(), timeline, n_tasks=12)
        for record in result.trace.records:
            if record.proc_id == 0:
                overlaps = record.exec_start < 6.0 and record.exec_end > 2.5
                assert not overlaps, f"task {record.task_id} ran during the outage"

    def test_blind_policy_assignments_are_redirected(self):
        # Round-robin keeps proposing the dead worker; the master must divert
        # those tasks to the online queue rather than stranding them.
        timeline = DynamicsTimeline([WorkerFailure(0.5, proc=0)])
        result = run(RoundRobinScheduler(), timeline, n_tasks=10)
        assert_conserved(result, 10)
        assert result.metrics.dynamics.tasks_redirected >= 1

    def test_failure_of_idle_worker_counts_downtime(self):
        # One 1s task keeps worker 0 busy; worker 1 idles, fails, recovers.
        timeline = DynamicsTimeline(
            [WorkerFailure(0.2, proc=1), WorkerRecovery(0.8, proc=1)]
        )
        result = run(EarliestFirstScheduler(), timeline, n_tasks=1)
        assert result.metrics.dynamics.worker_downtime_seconds == pytest.approx(0.6)

    def test_downtime_runs_to_end_without_recovery(self):
        timeline = DynamicsTimeline([WorkerFailure(1.0, proc=0)])
        result = run(EarliestFirstScheduler(), timeline, n_tasks=10)
        downtime = result.metrics.dynamics.worker_downtime_seconds
        assert downtime == pytest.approx(result.makespan - 1.0)

    def test_duplicate_failure_is_noop(self):
        timeline = DynamicsTimeline(
            [WorkerFailure(1.0, proc=0), WorkerFailure(2.0, proc=0)]
        )
        result = run(EarliestFirstScheduler(), timeline, n_tasks=6)
        assert_conserved(result, 6)
        assert result.metrics.dynamics.worker_failures == 1

    def test_whole_cluster_outage_then_recovery_completes(self):
        timeline = DynamicsTimeline(
            [
                WorkerFailure(1.2, proc=0),
                WorkerFailure(1.4, proc=1),
                WorkerRecovery(5.0, proc=0),
                WorkerRecovery(6.0, proc=1),
            ]
        )
        result = run(EarliestFirstScheduler(), timeline, n_tasks=10)
        assert_conserved(result, 10)
        assert result.metrics.dynamics.worker_failures == 2
        assert result.metrics.dynamics.worker_recoveries == 2


class TestWorkerJoin:
    def test_join_worker_only_runs_after_join_time(self):
        timeline = DynamicsTimeline([WorkerJoin(3.0, proc=1)])
        result = run(EarliestFirstScheduler(), timeline, n_tasks=10)
        assert_conserved(result, 10)
        assert result.metrics.dynamics.worker_joins == 1
        on_joiner = [r for r in result.trace.records if r.proc_id == 1]
        assert on_joiner, "the joined worker never received work"
        assert all(r.dispatch_time >= 3.0 for r in on_joiner)

    def test_join_accrues_no_downtime(self):
        timeline = DynamicsTimeline([WorkerJoin(3.0, proc=1)])
        result = run(EarliestFirstScheduler(), timeline, n_tasks=10)
        assert result.metrics.dynamics.worker_downtime_seconds == pytest.approx(0.0)

    def test_join_reclaims_rather_than_reschedules(self):
        # Membership growth is elective re-mapping, not failure recovery:
        # the two kinds of pull-back must not be conflated in the metrics.
        timeline = DynamicsTimeline([WorkerJoin(3.0, proc=1)])
        result = run(EarliestFirstScheduler(), timeline, n_tasks=10)
        dynamics = result.metrics.dynamics
        assert dynamics.tasks_rescheduled == 0
        assert dynamics.tasks_reclaimed >= 1


class TestLoadSpike:
    def test_spike_tasks_complete_with_fresh_ids(self):
        timeline = DynamicsTimeline(
            [LoadSpike(2.0, n_tasks=5, sizes=ConstantSizes(100.0))]
        )
        result = run(EarliestFirstScheduler(), timeline, n_tasks=10)
        assert result.tasks_injected == 5
        assert result.n_tasks == 10
        assert_conserved(result, 15)
        spike_records = [r for r in result.trace.records if r.task_id >= 10]
        assert len(spike_records) == 5
        assert all(r.arrival_time == pytest.approx(2.0) for r in spike_records)

    def test_spike_interacts_with_failure(self):
        timeline = DynamicsTimeline(
            [
                WorkerFailure(1.5, proc=0),
                LoadSpike(2.0, n_tasks=4, sizes=ConstantSizes(50.0)),
                WorkerRecovery(4.0, proc=0),
            ]
        )
        result = run(EarliestFirstScheduler(), timeline, n_tasks=8)
        assert_conserved(result, 12)


class TestStaticRunsUnchanged:
    def test_no_dynamics_means_zero_dynamics_stats(self):
        result = run(EarliestFirstScheduler(), None, n_tasks=6)
        dynamics = result.metrics.dynamics
        assert dynamics.worker_failures == 0
        assert dynamics.tasks_rescheduled == 0
        assert dynamics.tasks_redirected == 0
        assert dynamics.worker_downtime_seconds == 0.0
        # The queue trajectory is sampled even in static runs.
        assert dynamics.queue_length_trajectory

    def test_static_results_identical_with_and_without_empty_timeline(self):
        a = run(EarliestFirstScheduler(), None, n_tasks=8, seed=5)
        b = run(EarliestFirstScheduler(), DynamicsTimeline([]), n_tasks=8, seed=5)
        assert a.makespan == b.makespan
        assert a.efficiency == b.efficiency
        assert [r.task_id for r in a.trace.records] == [
            r.task_id for r in b.trace.records
        ]

    def test_summary_exposes_dynamics_keys(self):
        result = run(EarliestFirstScheduler(), None, n_tasks=4)
        summary = result.metrics.summary()
        for key in (
            "tasks_rescheduled",
            "tasks_reclaimed",
            "tasks_redirected",
            "worker_downtime_seconds",
            "mean_queue_length",
        ):
            assert key in summary


class TestSeededStreamsPrefixStable:
    def test_dynamics_stream_does_not_shift_static_randomness(self):
        # The simulator now spawns a third child stream for dynamics; the
        # first two (master, network) must be exactly the historical ones.
        from repro.util.rng import spawn_rngs

        a = spawn_rngs(np.random.default_rng(123), 2)
        b = spawn_rngs(np.random.default_rng(123), 3)
        for old, new in zip(a, b[:2]):
            assert (old.integers(0, 2**31, 16) == new.integers(0, 2**31, 16)).all()
