"""Tests for the batch problem and the relative-error fitness function."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import (
    BatchProblem,
    completion_times,
    evaluate_assignments,
    evaluate_single,
    makespan_of_assignment,
    swap_completion_delta,
)
from repro.util.errors import ConfigurationError
from repro.workloads import Task


def make_problem(sizes, rates, pending=None, comm=None):
    return BatchProblem(
        task_ids=np.arange(len(sizes)),
        sizes=np.asarray(sizes, dtype=float),
        rates=np.asarray(rates, dtype=float),
        pending_loads=np.zeros(len(rates)) if pending is None else np.asarray(pending, float),
        comm_costs=np.zeros(len(rates)) if comm is None else np.asarray(comm, float),
    )


class TestBatchProblem:
    def test_dimensions(self, small_problem):
        assert small_problem.n_tasks == 12
        assert small_problem.n_processors == 4

    def test_optimal_time_formula(self):
        problem = make_problem([100, 200], [50, 50], pending=[100, 0])
        # psi = 300/100 + (100/50 + 0) = 3 + 2 = 5
        assert problem.optimal_time() == pytest.approx(5.0)

    def test_pending_times(self):
        problem = make_problem([10], [10, 20], pending=[100, 40])
        assert problem.pending_times() == pytest.approx([10.0, 2.0])

    def test_execution_times_matrix(self):
        problem = make_problem([100, 50], [10, 100])
        expected = np.array([[10.0, 1.0], [5.0, 0.5]])
        assert np.allclose(problem.execution_times(), expected)

    def test_lower_bound_at_least_largest_task(self):
        problem = make_problem([1000, 1], [10, 1000])
        assert problem.lower_bound_makespan() >= 1000 / 1000

    def test_from_tasks(self):
        tasks = [Task(task_id=5, size_mflops=10.0), Task(task_id=7, size_mflops=20.0)]
        problem = BatchProblem.from_tasks(tasks, rates=[1.0, 2.0])
        assert problem.task_ids.tolist() == [5, 7]
        assert problem.sizes.tolist() == [10.0, 20.0]

    def test_without_communication(self):
        problem = make_problem([1], [1, 1], comm=[5.0, 5.0])
        stripped = problem.without_communication()
        assert np.all(stripped.comm_costs == 0)
        assert np.all(problem.comm_costs == 5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sizes=[0.0], rates=[1.0]),
            dict(sizes=[1.0], rates=[0.0]),
            dict(sizes=[1.0], rates=[1.0], pending=[-1.0]),
            dict(sizes=[1.0], rates=[1.0], comm=[-1.0]),
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_problem(**kwargs)

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchProblem(
                task_ids=np.array([1, 1]),
                sizes=np.array([1.0, 2.0]),
                rates=np.array([1.0]),
                pending_loads=np.zeros(1),
                comm_costs=np.zeros(1),
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            make_problem([], [1.0])

    def test_fields_and_arrays_are_immutable(self):
        problem = make_problem([100.0, 200.0], [10.0, 20.0], pending=[5.0, 0.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.sizes = np.array([1.0, 1.0])
        for name in ("task_ids", "sizes", "rates", "pending_loads", "comm_costs"):
            with pytest.raises(ValueError):
                getattr(problem, name)[0] = 1
        with pytest.raises(ValueError):
            problem.pending_times()[0] = 0.0
        with pytest.raises(ValueError):
            problem.task_costs[0, 0] = 0.0

    def test_caller_arrays_stay_writeable_and_are_not_aliased(self):
        pending = np.array([50.0, 0.0])
        sizes = np.array([100.0, 200.0])
        problem = BatchProblem(
            task_ids=np.arange(2),
            sizes=sizes,
            rates=np.array([10.0, 20.0]),
            pending_loads=pending,
            comm_costs=np.zeros(2),
        )
        assert pending.flags.writeable and sizes.flags.writeable
        pending[0] = 1000.0
        sizes[0] = 1.0
        assert problem.pending_loads.tolist() == [50.0, 0.0]
        assert problem.sizes.tolist() == [100.0, 200.0]
        assert problem.pending_times().tolist() == [5.0, 0.0]

    def test_pickle_round_trip_stays_frozen(self):
        problem = make_problem([100.0, 200.0], [10.0, 20.0], comm=[1.0, 2.0])
        problem.task_costs  # populate the cache before pickling
        clone = pickle.loads(pickle.dumps(problem))
        assert np.array_equal(clone.task_costs, problem.task_costs)
        assert clone.optimal_time() == problem.optimal_time()
        with pytest.raises(ValueError):
            clone.sizes[0] = 1.0

    def test_task_costs_table(self):
        problem = make_problem([100.0, 50.0], [10.0, 100.0], comm=[1.0, 0.5])
        expected = problem.execution_times() + problem.comm_costs[None, :]
        assert np.array_equal(problem.task_costs, expected)


class TestCompletionTimes:
    def test_hand_computed_example(self):
        # two tasks, two processors; tasks both on proc 0
        problem = make_problem([100, 200], [10, 20], comm=[1.0, 2.0])
        completions = completion_times(np.array([[0, 0]]), problem)
        # proc0: 100/10 + 1 + 200/10 + 1 = 32 ; proc1: 0
        assert completions[0, 0] == pytest.approx(32.0)
        assert completions[0, 1] == pytest.approx(0.0)

    def test_pending_load_included(self):
        problem = make_problem([100], [10, 10], pending=[50, 0])
        completions = completion_times(np.array([[1]]), problem)
        assert completions[0, 0] == pytest.approx(5.0)  # 50/10 pending
        assert completions[0, 1] == pytest.approx(10.0)

    def test_population_shape(self, small_problem):
        pop = np.zeros((7, small_problem.n_tasks), dtype=int)
        assert completion_times(pop, small_problem).shape == (7, 4)

    def test_invalid_processor_index_rejected(self, small_problem):
        bad = np.full((1, small_problem.n_tasks), 99)
        with pytest.raises(ConfigurationError):
            completion_times(bad, small_problem)

    def test_wrong_task_count_rejected(self, small_problem):
        with pytest.raises(ConfigurationError):
            completion_times(np.zeros((1, 3), dtype=int), small_problem)


class TestEvaluate:
    def test_perfectly_balanced_has_highest_fitness(self):
        # two identical tasks on two identical processors: balanced vs stacked
        problem = make_problem([100, 100], [10, 10])
        result = evaluate_assignments(np.array([[0, 1], [0, 0]]), problem)
        assert result.fitness[0] > result.fitness[1]
        assert result.makespans[0] < result.makespans[1]

    def test_fitness_is_inverse_error(self):
        problem = make_problem([100, 100], [10, 10])
        result = evaluate_assignments(np.array([[0, 0]]), problem)
        assert result.fitness[0] == pytest.approx(1.0 / result.errors[0])

    def test_makespan_is_max_completion(self, small_problem):
        assignment = np.zeros(small_problem.n_tasks, dtype=int)
        result = evaluate_assignments(assignment, small_problem)
        assert result.makespans[0] == pytest.approx(result.completions[0].max())

    def test_best_index_selects_lowest_makespan(self):
        problem = make_problem([100, 100], [10, 10])
        result = evaluate_assignments(np.array([[0, 0], [0, 1]]), problem)
        assert result.best_index == 1
        assert result.best_makespan == result.makespans[1]

    def test_evaluate_single_matches_population(self, small_problem):
        assignment = np.arange(small_problem.n_tasks) % small_problem.n_processors
        err, fit, mk = evaluate_single(assignment, small_problem)
        pop_result = evaluate_assignments(assignment[None, :], small_problem)
        assert err == pytest.approx(pop_result.errors[0])
        assert mk == pytest.approx(pop_result.makespans[0])

    def test_makespan_of_assignment_helper(self, small_problem):
        assignment = np.zeros(small_problem.n_tasks, dtype=int)
        assert makespan_of_assignment(assignment, small_problem) == pytest.approx(
            evaluate_assignments(assignment, small_problem).makespans[0]
        )

    def test_communication_costs_increase_completion(self):
        base = make_problem([100], [10, 10])
        with_comm = make_problem([100], [10, 10], comm=[5.0, 5.0])
        a = completion_times(np.array([[0]]), base)[0, 0]
        b = completion_times(np.array([[0]]), with_comm)[0, 0]
        assert b == pytest.approx(a + 5.0)

    def test_swap_completion_delta_matches_recomputation(self):
        problem = make_problem([100, 30, 60], [10, 20], comm=[1.0, 2.0])
        assignment = np.array([0, 1, 1])
        completions = completion_times(assignment, problem)[0]
        # swap task0 (proc0, size 100) with task1 (proc1, size 30)
        updated = swap_completion_delta(completions, problem, 0, 1, 100.0, 30.0)
        swapped = assignment.copy()
        swapped[0], swapped[1] = 1, 0
        expected = completion_times(swapped, problem)[0]
        assert np.allclose(updated, expected)

    def test_swap_same_processor_is_noop(self):
        problem = make_problem([10, 20], [1.0, 1.0])
        completions = np.array([5.0, 7.0])
        assert np.allclose(
            swap_completion_delta(completions, problem, 1, 1, 10, 20), completions
        )


class TestFitnessProperties:
    @given(
        n_tasks=st.integers(min_value=1, max_value=20),
        n_procs=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_makespan_at_least_optimal_over_procs(self, n_tasks, n_procs, seed):
        """Property: any schedule's makespan >= total work / total rate (psi without pending)."""
        rng = np.random.default_rng(seed)
        sizes = rng.uniform(1, 100, n_tasks)
        rates = rng.uniform(1, 50, n_procs)
        problem = make_problem(sizes, rates)
        assignment = rng.integers(0, n_procs, n_tasks)
        result = evaluate_assignments(assignment, problem)
        assert result.makespans[0] >= problem.optimal_time() - 1e-9

    @given(
        n_tasks=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_errors_and_fitness_are_positive_and_finite(self, n_tasks, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.uniform(1, 100, n_tasks)
        problem = make_problem(sizes, [10.0, 25.0, 40.0], comm=[0.5, 1.0, 0.1])
        pop = rng.integers(0, 3, size=(8, n_tasks))
        result = evaluate_assignments(pop, problem)
        assert np.all(np.isfinite(result.errors))
        assert np.all(result.fitness > 0)
        assert np.all(result.makespans > 0)
