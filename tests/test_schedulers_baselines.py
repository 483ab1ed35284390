"""Tests for the six baseline schedulers (EF, LL, RR, MM, MX, ZO) and the registry."""

import numpy as np
import pytest

from repro.schedulers import (
    ALL_SCHEDULER_NAMES,
    EarliestFirstScheduler,
    LightestLoadedScheduler,
    MaxMinScheduler,
    MinMinScheduler,
    RoundRobinScheduler,
    SchedulerMode,
    SchedulingContext,
    ZomayaScheduler,
    make_all_schedulers,
    make_scheduler,
)
from repro.core import PNScheduler
from repro.ga import GAConfig
from repro.schedulers.zomaya import default_zomaya_ga_config
from repro.util.errors import ConfigurationError
from repro.workloads import Task


def make_context(rates, pending=None, comm=None, seed=0):
    rates = np.asarray(rates, dtype=float)
    return SchedulingContext(
        time=0.0,
        rates=rates,
        pending_loads=np.zeros_like(rates) if pending is None else np.asarray(pending, float),
        comm_costs=np.zeros_like(rates) if comm is None else np.asarray(comm, float),
        rng=np.random.default_rng(seed),
    )


class TestRoundRobin:
    def test_cycles_through_processors(self):
        ctx = make_context([10, 10, 10])
        scheduler = RoundRobinScheduler()
        tasks = [Task(i, 5.0) for i in range(7)]
        assignment = scheduler.schedule(tasks, ctx)
        assert assignment.counts().tolist() == [3, 2, 2]
        assert assignment.processor_of(0) == 0
        assert assignment.processor_of(1) == 1
        assert assignment.processor_of(3) == 0

    def test_state_persists_across_calls(self):
        ctx = make_context([10, 10])
        scheduler = RoundRobinScheduler()
        scheduler.schedule([Task(0, 1.0)], ctx)
        second = scheduler.schedule([Task(1, 1.0)], ctx)
        assert second.processor_of(1) == 1

    def test_reset_restarts_rotation(self):
        ctx = make_context([10, 10])
        scheduler = RoundRobinScheduler()
        scheduler.schedule([Task(0, 1.0)], ctx)
        scheduler.reset()
        assert scheduler.schedule([Task(1, 1.0)], ctx).processor_of(1) == 0

    def test_is_immediate_mode(self):
        assert RoundRobinScheduler().mode is SchedulerMode.IMMEDIATE

    def test_ignores_loads(self):
        ctx = make_context([10, 10], pending=[1e9, 0.0])
        assert RoundRobinScheduler().schedule([Task(0, 1.0)], ctx).processor_of(0) == 0


class TestLightestLoaded:
    def test_picks_lowest_pending_load(self):
        ctx = make_context([10, 10, 10], pending=[500, 100, 300])
        assert LightestLoadedScheduler().schedule([Task(0, 1.0)], ctx).processor_of(0) == 1

    def test_ignores_processor_speed(self):
        # the slow processor has less pending load, LL picks it even though it is slow
        ctx = make_context([1.0, 1000.0], pending=[10.0, 20.0])
        assert LightestLoadedScheduler().schedule([Task(0, 100.0)], ctx).processor_of(0) == 0

    def test_spreads_equal_tasks(self):
        ctx = make_context([10, 10, 10])
        assignment = LightestLoadedScheduler().schedule([Task(i, 5.0) for i in range(6)], ctx)
        assert sorted(assignment.counts().tolist()) == [2, 2, 2]


class TestEarliestFirst:
    def test_accounts_for_speed(self):
        # same pending load: the faster processor finishes the new task earlier
        ctx = make_context([10.0, 100.0], pending=[100.0, 100.0])
        assert EarliestFirstScheduler().schedule([Task(0, 50.0)], ctx).processor_of(0) == 1

    def test_accounts_for_pending_load(self):
        ctx = make_context([10.0, 10.0], pending=[1000.0, 0.0])
        assert EarliestFirstScheduler().schedule([Task(0, 50.0)], ctx).processor_of(0) == 1

    def test_balances_finish_times(self):
        ctx = make_context([10.0, 20.0])
        tasks = [Task(i, 100.0) for i in range(6)]
        assignment = EarliestFirstScheduler().schedule(tasks, ctx)
        # the 2x faster processor should take roughly 2x the tasks
        counts = assignment.counts()
        assert counts[1] > counts[0]


class TestMinMinMaxMin:
    def test_min_min_schedules_smallest_first(self):
        ctx = make_context([10.0, 10.0])
        tasks = [Task(0, 100.0), Task(1, 1.0), Task(2, 50.0)]
        scheduler = MinMinScheduler(batch_size=10)
        assignment = scheduler.schedule(tasks, ctx)
        assert assignment.n_tasks == 3

    def test_max_min_puts_largest_alone(self):
        ctx = make_context([10.0, 10.0])
        # one huge task and several small ones: MX gives the huge task its own processor
        tasks = [Task(0, 1000.0), Task(1, 10.0), Task(2, 10.0), Task(3, 10.0)]
        assignment = MaxMinScheduler(batch_size=10).schedule(tasks, ctx)
        huge_proc = assignment.processor_of(0)
        assert all(assignment.processor_of(t) != huge_proc for t in (1, 2, 3))

    def test_sort_directions_differ(self):
        assert MinMinScheduler.descending is False
        assert MaxMinScheduler.descending is True

    def test_batch_mode(self):
        assert MinMinScheduler().mode is SchedulerMode.BATCH
        assert MaxMinScheduler().mode is SchedulerMode.BATCH

    def test_all_tasks_assigned_on_heterogeneous_cluster(self):
        ctx = make_context([5.0, 50.0, 500.0])
        tasks = [Task(i, float(10 + i * 7)) for i in range(30)]
        for scheduler in (MinMinScheduler(), MaxMinScheduler()):
            assignment = scheduler.schedule(tasks, ctx)
            assert sorted(assignment.task_ids()) == list(range(30))


class TestZomaya:
    def test_produces_valid_assignment(self):
        ctx = make_context([10.0, 20.0, 40.0])
        tasks = [Task(i, float(20 + i)) for i in range(15)]
        scheduler = ZomayaScheduler(
            batch_size=20, ga_config=default_zomaya_ga_config(max_generations=10), rng=0
        )
        assignment = scheduler.schedule(tasks, ctx)
        assert sorted(assignment.task_ids()) == list(range(15))
        assert scheduler.last_result is not None

    def test_ignores_comm_costs(self):
        # identical contexts except for comm costs must give identical schedules
        tasks = [Task(i, float(20 + i)) for i in range(12)]
        cfg = default_zomaya_ga_config(max_generations=8)
        a = ZomayaScheduler(ga_config=cfg, rng=5).schedule(
            tasks, make_context([10.0, 20.0], comm=[0.0, 0.0], seed=3)
        )
        b = ZomayaScheduler(ga_config=cfg, rng=5).schedule(
            tasks, make_context([10.0, 20.0], comm=[100.0, 0.0], seed=3)
        )
        assert a == b

    def test_pn_only_features_stripped_from_config(self):
        scheduler = ZomayaScheduler(ga_config=GAConfig(n_rebalances=5, seeded_initialisation=True))
        assert scheduler.ga_config.n_rebalances == 0
        assert scheduler.ga_config.seeded_initialisation is False

    def test_empty_batch(self):
        scheduler = ZomayaScheduler(rng=0)
        assignment = scheduler.schedule([], make_context([10.0, 10.0]))
        assert assignment.n_tasks == 0

    def test_reset_clears_history(self):
        ctx = make_context([10.0, 20.0])
        scheduler = ZomayaScheduler(ga_config=default_zomaya_ga_config(max_generations=5), rng=0)
        scheduler.schedule([Task(0, 10.0)], ctx)
        scheduler.reset()
        assert scheduler.last_result is None


class TestRegistry:
    def test_all_names_constructible(self):
        for name in ALL_SCHEDULER_NAMES:
            scheduler = make_scheduler(name, n_processors=4, max_generations=5)
            assert scheduler.name == name

    def test_pn_is_from_core(self):
        assert isinstance(make_scheduler("PN", n_processors=4), PNScheduler)

    def test_case_insensitive(self):
        assert make_scheduler("pn", n_processors=3).name == "PN"
        assert make_scheduler("ef", n_processors=3).name == "EF"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("XX", n_processors=4)

    def test_make_all_schedulers(self):
        schedulers = make_all_schedulers(n_processors=4, max_generations=5)
        assert set(schedulers) == set(ALL_SCHEDULER_NAMES)

    def test_make_subset(self):
        schedulers = make_all_schedulers(n_processors=4, names=["EF", "PN"], max_generations=5)
        assert set(schedulers) == {"EF", "PN"}

    def test_fixed_batch_pn(self):
        # The registry's PN uses the dynamic rule; a fixed batch is built
        # directly.
        from repro.core.batching import FixedBatchSizer
        from repro.sim import simulate_schedule
        from repro.cluster import homogeneous_cluster
        from repro.workloads import TaskSet

        scheduler = PNScheduler(
            n_processors=4,
            ga_config=GAConfig(population_size=4, max_generations=2),
            batch_sizer=FixedBatchSizer(batch_size=33),
            rng=0,
        )
        assert scheduler.batch_sizer.batch_size == 33
        tasks = TaskSet(Task(task_id=i, size_mflops=100.0) for i in range(70))
        result = simulate_schedule(scheduler, homogeneous_cluster(4), tasks, rng=0)
        assert result.batch_sizes == [33, 33, 4]

    def test_registry_pn_batches_dynamically(self):
        from repro.core.batching import DynamicBatchSizer

        scheduler = make_scheduler("PN", n_processors=4, batch_size=33)
        assert isinstance(scheduler.batch_sizer, DynamicBatchSizer)
        with pytest.raises(TypeError, match="dynamic_batch"):
            make_scheduler("PN", n_processors=4, dynamic_batch=False)
