"""Tests for the scheduler interfaces: context, assignment, base classes."""

import numpy as np
import pytest

from repro.schedulers import ScheduleAssignment, SchedulingContext
from repro.schedulers.base import BatchScheduler, ImmediateScheduler
from repro.util.errors import ConfigurationError, SchedulingError
from repro.workloads import Task


class TestSchedulingContext:
    def test_valid_construction(self, context):
        assert context.n_processors == 4
        assert context.time == 0.0

    def test_pending_times(self):
        ctx = SchedulingContext(
            time=0.0,
            rates=np.array([10.0, 20.0]),
            pending_loads=np.array([100.0, 100.0]),
            comm_costs=np.zeros(2),
        )
        assert ctx.pending_times() == pytest.approx([10.0, 5.0])

    def test_finish_time(self):
        ctx = SchedulingContext(
            time=0.0,
            rates=np.array([10.0, 20.0]),
            pending_loads=np.array([100.0, 0.0]),
            comm_costs=np.zeros(2),
        )
        assert ctx.finish_time(0, extra_mflops=100.0) == pytest.approx(20.0)
        assert ctx.finish_time(1) == 0.0

    def test_finish_time_invalid_proc(self, context):
        with pytest.raises(ConfigurationError):
            context.finish_time(99)

    def test_copy_is_independent(self, context):
        clone = context.copy()
        clone.pending_loads[0] += 100.0
        assert context.pending_loads[0] == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rates=np.array([]), pending_loads=np.array([]), comm_costs=np.array([])),
            dict(rates=np.array([0.0]), pending_loads=np.zeros(1), comm_costs=np.zeros(1)),
            dict(rates=np.ones(2), pending_loads=np.zeros(3), comm_costs=np.zeros(2)),
            dict(rates=np.ones(2), pending_loads=-np.ones(2), comm_costs=np.zeros(2)),
            dict(
                rates=np.ones(2),
                pending_loads=np.zeros(2),
                comm_costs=np.zeros(2),
                online=np.ones(3, dtype=bool),
            ),
            dict(
                rates=np.ones(2),
                pending_loads=np.zeros(2),
                comm_costs=np.zeros(2),
                online=np.zeros(2, dtype=bool),
            ),
        ],
    )
    def test_invalid_contexts_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SchedulingContext(time=0.0, **kwargs)

    def test_online_mask_is_normalised_and_copied(self):
        state = dict(time=0.0, rates=np.ones(3), pending_loads=np.zeros(3), comm_costs=np.zeros(3))
        # An all-online mask means "every worker is online": None.
        assert SchedulingContext(**state, online=[True, True, True]).online is None
        ctx = SchedulingContext(**state, online=[1, 0, 1])
        assert ctx.online.dtype == bool
        assert ctx.online.tolist() == [True, False, True]
        clone = ctx.copy()
        clone.online[0] = False
        assert ctx.online[0]


class TestScheduleAssignment:
    def test_queues_and_lookup(self):
        assignment = ScheduleAssignment([[3, 1], [], [2]])
        assert assignment.n_processors == 3
        assert assignment.n_tasks == 3
        assert assignment.queue(0) == [3, 1]
        assert assignment.processor_of(2) == 2
        assert assignment.task_ids() == [1, 2, 3]

    def test_duplicate_task_rejected(self):
        with pytest.raises(SchedulingError):
            ScheduleAssignment([[1], [1]])

    def test_unassigned_task_lookup_raises(self):
        with pytest.raises(SchedulingError):
            ScheduleAssignment([[1]]).processor_of(99)

    def test_empty_factory(self):
        assignment = ScheduleAssignment.empty(5)
        assert assignment.n_processors == 5
        assert assignment.n_tasks == 0

    def test_from_mapping(self):
        assignment = ScheduleAssignment.from_mapping({1: 0, 2: 2, 3: 0}, n_processors=3)
        assert assignment.queue(0) == [1, 3]
        assert assignment.queue(2) == [2]

    def test_from_mapping_invalid_proc(self):
        with pytest.raises(SchedulingError):
            ScheduleAssignment.from_mapping({1: 9}, n_processors=3)

    def test_counts(self):
        assignment = ScheduleAssignment([[1, 2], [3], []])
        assert assignment.counts().tolist() == [2, 1, 0]

    def test_assigned_mflops(self):
        tasks = {1: Task(1, 10.0), 2: Task(2, 20.0), 3: Task(3, 5.0)}
        assignment = ScheduleAssignment([[1, 2], [3]])
        assert assignment.assigned_mflops(tasks).tolist() == [30.0, 5.0]

    def test_merged_with(self):
        a = ScheduleAssignment([[1], []])
        b = ScheduleAssignment([[2], [3]])
        merged = a.merged_with(b)
        assert merged.queue(0) == [1, 2]
        assert merged.queue(1) == [3]

    def test_merge_mismatched_sizes_rejected(self):
        with pytest.raises(SchedulingError):
            ScheduleAssignment([[1]]).merged_with(ScheduleAssignment([[2], []]))

    def test_equality(self):
        assert ScheduleAssignment([[1], [2]]) == ScheduleAssignment([[1], [2]])
        assert ScheduleAssignment([[1], [2]]) != ScheduleAssignment([[2], [1]])


class _StubImmediate(ImmediateScheduler):
    name = "stub"

    def select_processor(self, task, ctx):
        return int(np.argmin(ctx.pending_loads))


class TestImmediateSchedulerBase:
    def test_sequential_placement_sees_earlier_decisions(self, context):
        tasks = [Task(i, 100.0) for i in range(4)]
        assignment = _StubImmediate().schedule(tasks, context)
        # with equal task sizes and zero initial load every processor gets one
        assert sorted(assignment.counts().tolist()) == [1, 1, 1, 1]

    def test_context_not_mutated(self, context):
        _StubImmediate().schedule([Task(0, 50.0)], context)
        assert np.all(context.pending_loads == 0.0)

    def test_preferred_batch_size_is_one(self, context):
        scheduler = _StubImmediate()
        assert scheduler.preferred_batch_size(context, 100) == 1
        assert scheduler.preferred_batch_size(context, 0) == 0

    def test_invalid_processor_from_policy_raises(self, context):
        class Bad(ImmediateScheduler):
            name = "bad"

            def select_processor(self, task, ctx):
                return 99

        with pytest.raises(SchedulingError):
            Bad().schedule([Task(0, 1.0)], context)


class TestBatchSchedulerBase:
    def test_preferred_batch_size_capped_by_queue(self, context):
        class Stub(BatchScheduler):
            name = "stub-batch"

            def schedule(self, tasks, ctx):
                return ScheduleAssignment.empty(ctx.n_processors)

        scheduler = Stub(batch_size=10)
        assert scheduler.preferred_batch_size(context, 100) == 10
        assert scheduler.preferred_batch_size(context, 4) == 4
        assert scheduler.preferred_batch_size(context, 0) == 0

    def test_unbounded_batch_takes_everything(self, context):
        class Stub(BatchScheduler):
            name = "stub-batch"

            def schedule(self, tasks, ctx):
                return ScheduleAssignment.empty(ctx.n_processors)

        assert Stub(batch_size=None).preferred_batch_size(context, 73) == 73

    def test_invalid_batch_size(self):
        class Stub(BatchScheduler):
            name = "stub-batch"

            def schedule(self, tasks, ctx):
                return ScheduleAssignment.empty(1)

        with pytest.raises(ConfigurationError):
            Stub(batch_size=0)
