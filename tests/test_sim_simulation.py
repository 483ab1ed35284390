"""Integration-level tests of the full master/worker simulation."""

import dataclasses
import gc

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    CommLink,
    Network,
    Processor,
    SinusoidalAvailability,
    heterogeneous_cluster,
    homogeneous_cluster,
)
from repro.core import PNScheduler, default_pn_ga_config
from repro.schedulers import (
    ALL_SCHEDULER_NAMES,
    EarliestFirstScheduler,
    MinMinScheduler,
    RoundRobinScheduler,
    make_scheduler,
)
from repro.experiments import get_scale
from repro.scenarios.runner import build_scenario_cells, resolve_scenario_specs, run_scenario_cell
from repro.sim import DistributedSystemSimulation, SimulationConfig, simulate_schedule
from repro.util.errors import SimulationError
from repro.workloads import (
    PoissonArrivals,
    Task,
    TaskSet,
    UniformSizes,
    WorkloadSpec,
    generate_workload,
)


class TestBasicSimulation:
    def test_all_tasks_complete(self, small_cluster, small_tasks):
        result = simulate_schedule(EarliestFirstScheduler(), small_cluster, small_tasks, rng=0)
        assert result.metrics.tasks_completed == len(small_tasks)
        assert len(result.trace) == len(small_tasks)
        assert result.makespan > 0
        assert 0 < result.efficiency <= 1.0

    def test_empty_task_set_rejected(self, small_cluster):
        with pytest.raises(SimulationError):
            simulate_schedule(EarliestFirstScheduler(), small_cluster, TaskSet([]), rng=0)

    def test_deterministic_given_seeds(self, small_cluster, small_tasks):
        a = simulate_schedule(EarliestFirstScheduler(), small_cluster, small_tasks, rng=3)
        b = simulate_schedule(EarliestFirstScheduler(), small_cluster, small_tasks, rng=3)
        assert a.makespan == pytest.approx(b.makespan)
        assert a.efficiency == pytest.approx(b.efficiency)

    def test_single_task_single_processor(self):
        cluster = homogeneous_cluster(1, rate_mflops=10.0)
        tasks = TaskSet([Task(0, 100.0)])
        result = simulate_schedule(RoundRobinScheduler(), cluster, tasks, rng=0)
        assert result.makespan == pytest.approx(10.0)
        assert result.efficiency == pytest.approx(1.0)

    def test_makespan_bounded_below_by_ideal(self, small_cluster, small_tasks):
        result = simulate_schedule(EarliestFirstScheduler(), small_cluster, small_tasks, rng=0)
        ideal = small_tasks.total_mflops() / small_cluster.total_peak_rate()
        assert result.makespan >= ideal

    def test_every_scheduler_completes_the_workload(self, small_cluster, small_tasks):
        for name in ALL_SCHEDULER_NAMES:
            scheduler = make_scheduler(
                name, n_processors=small_cluster.n_processors, batch_size=6, max_generations=5
            )
            result = simulate_schedule(scheduler, small_cluster, small_tasks, rng=1)
            assert result.metrics.tasks_completed == len(small_tasks), name
            assert result.scheduler_name == name

    def test_record_times_are_consistent(self, small_cluster, small_tasks):
        result = simulate_schedule(MinMinScheduler(batch_size=6), small_cluster, small_tasks, rng=0)
        for record in result.trace:
            assert record.arrival_time <= record.assigned_time <= record.dispatch_time
            assert record.dispatch_time <= record.exec_start <= record.exec_end

    def test_pending_loads_drain_to_zero(self, small_cluster, small_tasks):
        from repro.sim.simulation import DistributedSystemSimulation

        sim = DistributedSystemSimulation(
            EarliestFirstScheduler(), small_cluster, small_tasks, rng=0
        )
        sim.run()
        assert np.allclose(sim.master.pending_loads, 0.0)


class TestCommunicationCosts:
    def test_zero_comm_cost_gives_high_efficiency(self):
        cluster = homogeneous_cluster(4, rate_mflops=100.0, mean_comm_cost=0.0)
        tasks = generate_workload(
            WorkloadSpec(n_tasks=80, sizes=UniformSizes(100, 1000)), rng=0
        )
        result = simulate_schedule(EarliestFirstScheduler(), cluster, tasks, rng=0)
        assert result.efficiency > 0.9

    def test_higher_comm_cost_lowers_efficiency(self):
        tasks = generate_workload(
            WorkloadSpec(n_tasks=60, sizes=UniformSizes(100, 1000)), rng=0
        )
        cheap = homogeneous_cluster(4, rate_mflops=100.0, mean_comm_cost=0.1)
        expensive = homogeneous_cluster(4, rate_mflops=100.0, mean_comm_cost=10.0)
        eff_cheap = simulate_schedule(EarliestFirstScheduler(), cheap, tasks, rng=1).efficiency
        eff_expensive = simulate_schedule(
            EarliestFirstScheduler(), expensive, tasks, rng=1
        ).efficiency
        assert eff_cheap > eff_expensive

    def test_comm_time_recorded_in_trace(self):
        cluster = Cluster(
            [Processor(proc_id=0, peak_rate_mflops=100.0)],
            Network([CommLink(proc_id=0, mean_cost=2.0, relative_std=0.0)]),
        )
        tasks = TaskSet([Task(0, 100.0), Task(1, 100.0)])
        result = simulate_schedule(RoundRobinScheduler(), cluster, tasks, rng=0)
        assert result.metrics.total_comm_seconds == pytest.approx(4.0)
        assert result.makespan == pytest.approx(6.0)  # 2 * (2 + 1)


class TestDynamicBehaviour:
    def test_dynamic_arrivals_complete(self, small_cluster):
        spec = WorkloadSpec(
            n_tasks=40, sizes=UniformSizes(50, 500), arrivals=PoissonArrivals(5.0)
        )
        tasks = generate_workload(spec, rng=2)
        result = simulate_schedule(EarliestFirstScheduler(), small_cluster, tasks, rng=0)
        assert result.metrics.tasks_completed == 40
        # completion can never precede the last arrival
        assert result.trace.completion_time() >= tasks.arrival_times().max()

    def test_varying_availability_slows_execution(self):
        fast = homogeneous_cluster(2, rate_mflops=100.0)
        slow_procs = [
            Processor(
                proc_id=i,
                peak_rate_mflops=100.0,
                availability=SinusoidalAvailability(base=0.5, amplitude=0.0),
            )
            for i in range(2)
        ]
        slow = Cluster(slow_procs, fast.network)
        tasks = generate_workload(WorkloadSpec(n_tasks=30, sizes=UniformSizes(100, 200)), rng=0)
        fast_result = simulate_schedule(EarliestFirstScheduler(), fast, tasks, rng=1)
        slow_result = simulate_schedule(EarliestFirstScheduler(), slow, tasks, rng=1)
        assert slow_result.makespan > fast_result.makespan

    def test_pn_scheduler_runs_multiple_batches(self, random_cluster):
        tasks = generate_workload(WorkloadSpec(n_tasks=60, sizes=UniformSizes(50, 500)), rng=3)
        scheduler = PNScheduler(
            n_processors=random_cluster.n_processors,
            ga_config=default_pn_ga_config(max_generations=10),
            rng=0,
        )
        result = simulate_schedule(scheduler, random_cluster, tasks, rng=4)
        assert result.metrics.tasks_completed == 60
        assert result.scheduler_invocations >= 1
        assert scheduler.batches == result.scheduler_invocations

    def test_batch_sizes_recorded(self, random_cluster):
        tasks = generate_workload(WorkloadSpec(n_tasks=30, sizes=UniformSizes(50, 500)), rng=3)
        scheduler = MinMinScheduler(batch_size=10)
        result = simulate_schedule(scheduler, random_cluster, tasks, rng=0)
        assert sum(result.batch_sizes) == 30
        assert all(size <= 10 for size in result.batch_sizes)


class TestSimulationConfig:
    def test_two_settable_fields(self):
        assert [f.name for f in dataclasses.fields(SimulationConfig)] == [
            "max_events",
            "phase_timing",
        ]

    @pytest.mark.parametrize("field", ["time_horizon", "comm_nu", "rate_nu"])
    def test_retired_options_are_not_fields(self, field):
        # Every run completes every task, and the master smooths its
        # observations with the paper's ν = 0.5.
        with pytest.raises(TypeError, match=field):
            SimulationConfig(**{field: 1.0})

    def test_master_smooths_with_the_papers_nu(self, small_cluster, small_tasks):
        from repro.sim.master import NU

        assert NU == 0.5
        sim = DistributedSystemSimulation(
            EarliestFirstScheduler(), small_cluster, small_tasks, rng=0
        )
        master = sim.master
        master.observe_dispatch(1, 4.0, 0.0)
        master.observe_dispatch(1, 2.0, 1.0)
        assert master.estimated_comm_costs()[1] == 4.0 + NU * (2.0 - 4.0)
        task = small_tasks[0]
        master.observe_completion(2, task, task.size_mflops / 80.0, 2.0)
        master.observe_completion(2, task, task.size_mflops / 40.0, 3.0)
        assert master.estimated_rates()[2] == 80.0 + NU * (40.0 - 80.0)


class TestSchedulerQuality:
    def test_ef_beats_round_robin_on_heterogeneous_cluster(self):
        cluster = heterogeneous_cluster(6, rate_range=(20.0, 500.0), mean_comm_cost=0.0, rng=0)
        tasks = generate_workload(WorkloadSpec(n_tasks=120, sizes=UniformSizes(100, 1000)), rng=1)
        ef = simulate_schedule(EarliestFirstScheduler(), cluster, tasks, rng=2)
        rr = simulate_schedule(RoundRobinScheduler(), cluster, tasks, rng=2)
        assert ef.makespan < rr.makespan

    def test_pn_competitive_with_ef(self, random_cluster):
        tasks = generate_workload(WorkloadSpec(n_tasks=80, sizes=UniformSizes(100, 1000)), rng=5)
        ef = simulate_schedule(EarliestFirstScheduler(), random_cluster, tasks, rng=6)
        pn = simulate_schedule(
            PNScheduler(
                n_processors=random_cluster.n_processors,
                ga_config=default_pn_ga_config(max_generations=30),
                rng=1,
            ),
            random_cluster,
            tasks,
            rng=6,
        )
        # PN should be at least in the same ballpark as the greedy heuristic
        assert pn.makespan <= ef.makespan * 1.25


def _cyclic_garbage_after(run) -> int:
    """Objects ``gc.collect()`` finds after *run* returns, with gc off meanwhile."""
    run()  # warm caches and lazy imports first
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestNoReferenceCycles:
    """A finished simulation is freed by reference counting: it leaves no
    cyclic garbage, so suspended lockstep jobs do not pile it up."""

    @pytest.mark.parametrize("name", ["EF", "PN"])
    def test_simulate_schedule(self, name, random_cluster):
        tasks = generate_workload(
            WorkloadSpec(n_tasks=40, sizes=UniformSizes(10.0, 1000.0)),
            np.random.default_rng(3),
        )

        def run():
            scheduler = make_scheduler(
                name,
                n_processors=random_cluster.n_processors,
                batch_size=10,
                max_generations=5,
                rng=4,
            )
            simulate_schedule(scheduler, random_cluster, tasks, rng=5)

        assert _cyclic_garbage_after(run) == 0

    def test_dynamics_scenario_cell(self):
        scale = get_scale("smoke")
        cells, _ = build_scenario_cells(
            resolve_scenario_specs(["failure-storm"], scale),
            scale=scale,
            schedulers=["PN"],
            n_repeats=1,
            sim_config=SimulationConfig(),
            master_rng=np.random.default_rng(0),
        )
        assert _cyclic_garbage_after(lambda: run_scenario_cell(cells[0])) == 0

    def test_second_run_still_fails_loudly(self, small_cluster, small_tasks):
        sim = DistributedSystemSimulation(
            EarliestFirstScheduler(), small_cluster, small_tasks, rng=0
        )
        sim.uses_fast_path = lambda: False
        sim.run()
        with pytest.raises(SimulationError, match="before the current time"):
            sim.run()
