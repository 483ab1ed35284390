"""Property-based tests of cross-module invariants (hypothesis).

These complement the per-module property tests by generating whole scheduling
scenarios and asserting the invariants the paper's evaluation relies on:
every scheduler assigns every task exactly once, simulated metrics stay
within their physical bounds, and the GA never returns a schedule worse than
the best individual it has seen.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import heterogeneous_cluster
from repro.ga import (
    BatchProblem,
    GAConfig,
    GeneticAlgorithm,
    VectorizedBackend,
    evaluate_assignments,
)
from repro.ga import engine as engine_module
from repro.ga.fitness import completion_times, swap_completion_delta
from repro.ga.mutation import rebalance_many
from repro.schedulers import (
    EarliestFirstScheduler,
    LightestLoadedScheduler,
    MaxMinScheduler,
    MinMinScheduler,
    RoundRobinScheduler,
    SchedulingContext,
)
from repro.sim import simulate_schedule
from repro.workloads import Task, UniformSizes, WorkloadSpec, generate_workload

from reference_kernels import LoopBackend

HEURISTICS = [
    EarliestFirstScheduler,
    LightestLoadedScheduler,
    RoundRobinScheduler,
    lambda: MinMinScheduler(batch_size=16),
    lambda: MaxMinScheduler(batch_size=16),
]


def build_context(n_procs, seed):
    rng = np.random.default_rng(seed)
    return SchedulingContext(
        time=0.0,
        rates=rng.uniform(10.0, 500.0, n_procs),
        pending_loads=rng.uniform(0.0, 1000.0, n_procs),
        comm_costs=rng.uniform(0.0, 5.0, n_procs),
        rng=rng,
    )


class TestSchedulerAssignmentInvariants:
    @given(
        n_tasks=st.integers(min_value=1, max_value=40),
        n_procs=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_heuristic_assigns_each_task_exactly_once(self, n_tasks, n_procs, seed):
        rng = np.random.default_rng(seed)
        tasks = [Task(i, float(rng.uniform(1, 1000))) for i in range(n_tasks)]
        ctx = build_context(n_procs, seed)
        for factory in HEURISTICS:
            assignment = factory().schedule(tasks, ctx)
            assert sorted(assignment.task_ids()) == list(range(n_tasks))
            for proc in range(n_procs):
                for tid in assignment.queue(proc):
                    assert assignment.processor_of(tid) == proc

    @given(
        n_tasks=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_earliest_first_never_picks_strictly_dominated_processor(self, n_tasks, seed):
        """EF must always pick a processor minimising the projected finish time."""
        rng = np.random.default_rng(seed)
        ctx = build_context(4, seed)
        scheduler = EarliestFirstScheduler()
        for i in range(n_tasks):
            task = Task(i, float(rng.uniform(1, 500)))
            proc = scheduler.select_processor(task, ctx)
            finishes = (ctx.pending_loads + task.size_mflops) / ctx.rates
            assert finishes[proc] == pytest.approx(finishes.min())
            ctx.pending_loads[proc] += task.size_mflops


class TestGAInvariants:
    @pytest.mark.parametrize(
        "backend", [LoopBackend, VectorizedBackend], ids=["loop", "vectorized"]
    )
    @given(
        n_tasks=st.integers(min_value=2, max_value=25),
        n_procs=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ga_result_is_consistent_schedule(self, backend, n_tasks, n_procs, seed):
        rng = np.random.default_rng(seed)
        problem = BatchProblem(
            task_ids=np.arange(n_tasks) + 100,
            sizes=rng.uniform(1.0, 1000.0, n_tasks),
            rates=rng.uniform(10.0, 500.0, n_procs),
            pending_loads=rng.uniform(0.0, 500.0, n_procs),
            comm_costs=rng.uniform(0.0, 2.0, n_procs),
        )
        config = GAConfig(population_size=8, max_generations=6, n_rebalances=1)
        with mock.patch.object(engine_module, "_KERNELS", backend()):
            result = GeneticAlgorithm(config, rng=seed).evolve(problem)
        # queues cover exactly the batch's task ids
        flat = sorted(tid for q in result.best_queues for tid in q)
        assert flat == sorted(problem.task_ids.tolist())
        # reported makespan equals the makespan of the reported assignment
        recomputed = evaluate_assignments(result.best_assignment, problem)
        assert result.best_makespan == pytest.approx(recomputed.makespans[0])
        # history is non-increasing and the final value equals the reported best
        history = np.asarray(result.makespan_history)
        assert np.all(np.diff(history) <= 1e-9)
        assert history[-1] == pytest.approx(result.best_makespan)
        # the best schedule is never worse than the initial population's best
        assert result.best_makespan <= result.initial_best_makespan + 1e-9


def _random_problem(rng, n_tasks, n_procs):
    return BatchProblem(
        task_ids=np.arange(n_tasks),
        sizes=rng.uniform(1.0, 1000.0, n_tasks),
        rates=rng.uniform(10.0, 500.0, n_procs),
        pending_loads=rng.uniform(0.0, 500.0, n_procs),
        comm_costs=rng.uniform(0.0, 2.0, n_procs),
    )


class TestSwapDeltaConsistency:
    """Guards the O(1) accept/reject shortcut used by the re-balance heuristic."""

    @given(
        n_tasks=st.integers(min_value=2, max_value=40),
        n_procs=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_swap_completion_delta_matches_full_reevaluation(self, n_tasks, n_procs, seed):
        """Property: for a random cross-processor task swap, the O(1)
        ``swap_completion_delta`` equals a full ``completion_times`` pass on
        the swapped assignment."""
        rng = np.random.default_rng(seed)
        problem = _random_problem(rng, n_tasks, n_procs)
        assignment = rng.integers(0, n_procs, size=n_tasks)
        task_a, task_b = rng.choice(n_tasks, size=2, replace=False)
        proc_a, proc_b = int(assignment[task_a]), int(assignment[task_b])
        completions = completion_times(assignment, problem)[0]

        shortcut = swap_completion_delta(
            completions,
            problem,
            proc_a,
            proc_b,
            float(problem.sizes[task_a]),
            float(problem.sizes[task_b]),
        )
        swapped = assignment.copy()
        swapped[task_a], swapped[task_b] = proc_b, proc_a
        full = completion_times(swapped, problem)[0]
        assert np.allclose(shortcut, full, rtol=1e-12, atol=1e-9)

    @given(
        n_tasks=st.integers(min_value=2, max_value=30),
        n_procs=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_same_processor_swap_is_identity(self, n_tasks, n_procs, seed):
        rng = np.random.default_rng(seed)
        problem = _random_problem(rng, n_tasks, n_procs)
        assignment = rng.integers(0, n_procs, size=n_tasks)
        completions = completion_times(assignment, problem)[0]
        proc = int(rng.integers(0, n_procs))
        shortcut = swap_completion_delta(completions, problem, proc, proc, 10.0, 500.0)
        assert np.array_equal(shortcut, completions)


class TestRebalancePopulationInvariants:
    @given(
        n_tasks=st.integers(min_value=2, max_value=30),
        n_procs=st.integers(min_value=2, max_value=6),
        pop=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_rebalance_never_increases_error_across_population(
        self, n_tasks, n_procs, pop, seed
    ):
        """Property: re-balancing any individual of a random population never
        increases its relative error (the GA relies on this to keep elitism
        meaningful)."""
        rng = np.random.default_rng(seed)
        problem = _random_problem(rng, n_tasks, n_procs)
        population = rng.integers(0, n_procs, size=(pop, n_tasks))
        before = evaluate_assignments(population, problem)
        for i in range(pop):
            outcome = rebalance_many(
                population[i],
                before.completions[i],
                problem,
                n_rebalances=3,
                rng=seed + i,
            )
            after = evaluate_assignments(outcome.assignment, problem)
            assert after.errors[0] <= before.errors[i] + 1e-9


class TestSimulationInvariants:
    @given(
        n_tasks=st.integers(min_value=5, max_value=40),
        n_procs=st.integers(min_value=1, max_value=8),
        comm=st.floats(min_value=0.0, max_value=5.0),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_simulation_metrics_within_physical_bounds(self, n_tasks, n_procs, comm, seed):
        cluster = heterogeneous_cluster(n_procs, mean_comm_cost=comm, rng=seed)
        tasks = generate_workload(
            WorkloadSpec(n_tasks=n_tasks, sizes=UniformSizes(10.0, 500.0)), rng=seed + 1
        )
        result = simulate_schedule(EarliestFirstScheduler(), cluster, tasks, rng=seed + 2)
        metrics = result.metrics
        assert metrics.tasks_completed == n_tasks
        assert 0.0 < metrics.efficiency <= 1.0
        assert metrics.makespan >= tasks.total_mflops() / cluster.total_peak_rate() - 1e-9
        assert metrics.total_busy_seconds <= metrics.makespan * n_procs + 1e-6
        fractions = (
            metrics.efficiency + metrics.communication_fraction + metrics.idle_fraction
        )
        assert fractions == pytest.approx(1.0, abs=1e-6)
        # every task record is attributed to a valid processor
        for record in result.trace:
            assert 0 <= record.proc_id < n_procs
