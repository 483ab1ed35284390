"""Tests for the PN scheduler (the paper's contribution)."""

import numpy as np
import pytest

from repro.core import DynamicBatchSizer, FixedBatchSizer, PNScheduler, default_pn_ga_config
from repro.schedulers import SchedulerMode, SchedulingContext
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


def quick_pn(n_processors=3, **kwargs):
    defaults = dict(
        ga_config=default_pn_ga_config(max_generations=10),
        rng=0,
    )
    defaults.update(kwargs)
    return PNScheduler(n_processors=n_processors, **defaults)


class TestConstruction:
    def test_default_ga_config_follows_paper(self):
        config = default_pn_ga_config()
        assert config.population_size == 20
        assert config.max_generations == 1000
        assert config.n_rebalances == 1
        assert config.seeded_initialisation is True

    def test_name_and_mode(self):
        scheduler = quick_pn()
        assert scheduler.name == "PN"
        assert scheduler.mode is SchedulerMode.BATCH

    def test_invalid_processor_count(self):
        with pytest.raises(ConfigurationError):
            PNScheduler(n_processors=0)


class TestScheduling:
    def test_assigns_every_task(self):
        scheduler = quick_pn()
        tasks = [Task(i, float(10 + i * 3)) for i in range(20)]
        assignment = scheduler.schedule(tasks, make_context([10.0, 20.0, 40.0]))
        assert sorted(assignment.task_ids()) == list(range(20))

    def test_empty_batch_returns_empty_assignment(self):
        assignment = quick_pn().schedule([], make_context([10.0, 10.0, 10.0]))
        assert assignment.n_tasks == 0

    def test_counts_batches_and_keeps_only_the_last_result(self):
        scheduler = quick_pn()
        ctx = make_context([10.0, 20.0, 40.0])
        assert scheduler.last_result is None and scheduler.batches == 0
        scheduler.schedule([Task(0, 10.0), Task(1, 20.0)], ctx)
        first = scheduler.last_result
        assignment = scheduler.schedule([Task(2, 10.0), Task(3, 20.0)], ctx)
        last = scheduler.last_result
        assert scheduler.batches == 2
        assert last is not first and last.best_queues == assignment.queues()
        assert scheduler.total_generations() == first.generations + last.generations == 20

    def test_mismatched_context_rejected(self):
        scheduler = quick_pn(n_processors=3)
        with pytest.raises(ConfigurationError):
            scheduler.schedule([Task(0, 1.0)], make_context([10.0, 10.0]))

    def test_favours_faster_processors(self):
        scheduler = quick_pn(n_processors=2, ga_config=default_pn_ga_config(max_generations=30))
        tasks = [Task(i, 100.0) for i in range(12)]
        assignment = scheduler.schedule(tasks, make_context([10.0, 90.0]))
        counts = assignment.counts()
        assert counts[1] > counts[0]

    def test_uses_comm_estimates_from_observations(self):
        # Processor 1 is observed to have a huge dispatch cost; with two equal
        # processors the GA should then load processor 0 more heavily.
        config = default_pn_ga_config(max_generations=40)
        scheduler = PNScheduler(n_processors=2, ga_config=config, rng=1)
        for cost in (10.0, 50.0, 90.0):
            scheduler.observe_communication(1, cost, time=0.0)
            scheduler.observe_communication(0, 0.1, time=0.0)
        # Γ with ν = 0.5: 10, then 10 + (50 - 10)/2 = 30, then 30 + (90 - 30)/2 = 60.
        costs = scheduler._effective_comm_costs(make_context([10.0, 10.0], comm=[1.0, 1.0]))
        assert costs.tolist() == [0.1, 60.0]
        tasks = [Task(i, 100.0) for i in range(10)]
        assignment = scheduler.schedule(tasks, make_context([10.0, 10.0]))
        counts = assignment.counts()
        assert counts[0] > counts[1]

    def test_observe_completion_updates_rate_estimates(self):
        scheduler = quick_pn(n_processors=2)
        # processor 0 is observed to be much slower than its nominal rating:
        # effective rates of 1 then 3 Mflop/s, smoothed with ν = 0.5.
        scheduler.observe_completion(0, Task(0, 100.0), processing_time=100.0, time=0.0)
        scheduler.observe_completion(0, Task(1, 300.0), processing_time=100.0, time=0.0)
        rates = scheduler._effective_rates(make_context([50.0, 50.0]))
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(50.0)

    def test_reset_clears_learned_state(self):
        scheduler = quick_pn(n_processors=2)
        scheduler.observe_communication(0, 5.0, time=0.0)
        scheduler.schedule([Task(0, 10.0)], make_context([10.0, 10.0]))
        scheduler.reset()
        assert scheduler.last_result is None
        assert scheduler.batches == 0 and scheduler.total_generations() == 0
        assert scheduler.comm_estimator.estimate(0) == 0.0


class TestBatchSizing:
    def test_preferred_batch_size_uses_dynamic_rule(self):
        scheduler = PNScheduler(
            n_processors=2,
            batch_sizer=DynamicBatchSizer(nu=1.0, min_batch=1, max_batch=1000, initial_batch=100),
            ga_config=default_pn_ga_config(max_generations=5),
            rng=0,
        )
        ctx = make_context([10.0, 10.0], pending=[990.0, 2000.0])
        # s_p = min(99, 200) = 99 -> floor(sqrt(100)) = 10
        assert scheduler.preferred_batch_size(ctx, n_queued=50) == 10

    def test_zero_queue_gives_zero(self):
        assert quick_pn().preferred_batch_size(make_context([1.0, 1.0, 1.0]), 0) == 0

    def test_fixed_batch_sizer_supported(self):
        scheduler = PNScheduler(
            n_processors=2,
            batch_sizer=FixedBatchSizer(batch_size=7),
            ga_config=default_pn_ga_config(max_generations=5),
            rng=0,
        )
        assert scheduler.preferred_batch_size(make_context([1.0, 1.0]), 100) == 7

    def test_batch_never_exceeds_queue(self):
        scheduler = quick_pn()
        ctx = make_context([10.0, 10.0, 10.0])
        assert scheduler.preferred_batch_size(ctx, 3) <= 3
