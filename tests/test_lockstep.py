"""Tests for the serial executor's lockstep map (repro.parallel.executor).

A serial ``map`` runs its jobs as cooperative threads, one at a time, that
yield only inside :func:`repro.util.lockstep.batched` or when they finish.
These tests pin the scheduling contract with a toy batch function (job
order, width, failure and interrupt handling, nesting, thread cleanup), and
the GA contract end to end: jobs whose GA runs stack must get the results
they get alone.
"""

import _thread
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.experiments import get_scale, run_figure, sweep_ga_parameter
from repro.ga import BatchProblem, GAConfig, GeneticAlgorithm
from repro.parallel import LOCKSTEP_WIDTH, ParallelExecutor, SerialExecutor
from repro.telemetry import TelemetrySession, span, telemetry_session
from repro.util.lockstep import batched

from reference_kernels import fitness_log

JOB_THREAD = "repro-lockstep-job"

#: Every call of the toy batch function: the items it was handed.
BATCHES = []


def _double_all(items):
    BATCHES.append(list(items))
    return [2 * item for item in items]


def _steps(n):
    """A job that makes *n* batched calls and returns their results."""
    return [batched(_double_all, 10 * n + step) for step in range(n)]


def _affinity_in_a_map(_):
    """The CPUs a serial map's job may run on (module-level: a pool runs it)."""
    return SerialExecutor().map(lambda n: os.sched_getaffinity(0), [0])[0]


HAS_TWO_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


@pytest.fixture(autouse=True)
def _clean():
    BATCHES.clear()
    yield
    _assert_job_threads_exit()


def _assert_job_threads_exit():
    for thread in threading.enumerate():
        if thread.name == JOB_THREAD:
            thread.join(timeout=10.0)
            assert not thread.is_alive()


class TestScheduling:
    def test_results_come_back_in_job_order(self):
        jobs = [3, 0, 5, 1, 2, 0, 4]
        assert SerialExecutor().map(_steps, jobs) == [_steps(n) for n in jobs]

    def test_waiting_jobs_share_batches(self):
        SerialExecutor().map(_steps, [2, 2, 2])
        assert BATCHES == [[20, 20, 20], [21, 21, 21]]

    def test_batched_outside_a_map_is_a_batch_of_one(self):
        assert batched(_double_all, 4) == 8
        assert BATCHES == [[4]]

    def test_ga_free_jobs_run_one_after_another(self):
        events = []
        active = []

        def job(index):
            events.append(("start", index, len(active)))
            active.append(index)
            time.sleep(0.002)
            active.remove(index)
            events.append(("end", index))
            return index

        assert SerialExecutor().map(job, range(6)) == list(range(6))
        expected = []
        for index in range(6):
            expected += [("start", index, 0), ("end", index)]
        assert events == expected

    def test_width_is_never_exceeded(self):
        in_flight = []
        peak = []

        def job(n):
            in_flight.append(n)
            peak.append(len(in_flight))
            result = _steps(n)
            in_flight.remove(n)
            return result

        jobs = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        assert SerialExecutor().map(job, jobs) == [_steps(n) for n in jobs]
        assert max(peak) == LOCKSTEP_WIDTH
        assert max(len(items) for items in BATCHES) <= LOCKSTEP_WIDTH

    def test_nested_map_inside_a_job(self):
        def outer(n):
            return SerialExecutor().map(_steps, [n, n + 1]) + [batched(_double_all, n)]

        assert SerialExecutor().map(outer, [1, 2]) == [
            [_steps(1), _steps(2), 2],
            [_steps(2), _steps(3), 4],
        ]

    def test_empty_map(self):
        assert SerialExecutor().map(_steps, []) == []

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no thread affinity")
    def test_threads_share_one_cpu_and_the_caller_gets_its_cpus_back(self):
        before = os.sched_getaffinity(0)
        seen = SerialExecutor().map(lambda n: (os.sched_getaffinity(0), _steps(n)), [1, 2])
        assert seen[0][0] == seen[1][0]
        assert len(seen[0][0]) == 1 and seen[0][0] <= before
        assert os.sched_getaffinity(0) == before

        def fails(n):
            raise ValueError("no CPUs leak")

        with pytest.raises(ValueError):
            SerialExecutor().map(fails, [1])
        assert os.sched_getaffinity(0) == before

    @pytest.mark.skipif(not HAS_TWO_CPUS, reason="needs thread affinity and two CPUs")
    def test_map_keeps_the_cpu_its_caller_is_on(self):
        before = os.sched_getaffinity(0)
        for cpu in sorted(before)[-2:]:
            os.sched_setaffinity(0, {cpu})
            try:
                seen = SerialExecutor().map(lambda n: os.sched_getaffinity(0), [0, 1])
            finally:
                os.sched_setaffinity(0, before)
            assert seen == [{cpu}, {cpu}]

    @pytest.mark.skipif(not HAS_TWO_CPUS, reason="needs thread affinity and two CPUs")
    def test_pool_workers_maps_do_not_share_one_cpu(self):
        with ParallelExecutor(2) as executor:
            seen = executor.map(_affinity_in_a_map, [0, 1])
        assert len(seen[0] | seen[1]) > 1

    def test_map_runs_where_affinity_is_refused(self, monkeypatch):
        def refuse(pid, cpus):
            raise OSError("not permitted")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        assert SerialExecutor().map(_steps, [2, 3]) == [_steps(2), _steps(3)]

    def test_imap_stays_sequential(self):
        SerialExecutor().imap(_steps, [2, 2])  # lazy: nothing runs yet
        assert BATCHES == []
        assert list(SerialExecutor().imap(_steps, [2, 2])) == [_steps(2)] * 2
        assert all(len(items) == 1 for items in BATCHES)


class TestFailures:
    def test_a_raising_job_releases_the_others(self):
        def job(n):
            _steps(2)
            if n == 2:
                raise ValueError("job 2 failed")
            return _steps(3)

        with pytest.raises(ValueError, match="job 2 failed"):
            SerialExecutor().map(job, range(6))

    def test_a_failing_batch_fails_its_jobs(self):
        def broken(items):
            raise RuntimeError("batch failed")

        with pytest.raises(RuntimeError, match="batch failed"):
            SerialExecutor().map(lambda n: batched(broken, n), [1, 2])

    def test_interrupt_from_a_waiting_job_reaches_the_caller(self):
        def job(n):
            if n == 1:
                _thread.interrupt_main()
            return _steps(3)

        with pytest.raises(KeyboardInterrupt):
            SerialExecutor().map(job, range(4))


def _problem(seed, n_tasks=10, n_procs=10):
    rng = np.random.default_rng(seed)
    return BatchProblem(
        task_ids=np.arange(n_tasks),
        sizes=rng.uniform(1.0, 1000.0, n_tasks),
        rates=rng.uniform(10.0, 500.0, n_procs),
        pending_loads=rng.uniform(0.0, 500.0, n_procs),
        comm_costs=rng.uniform(0.0, 2.0, n_procs),
    )


def _evolve_three(seed):
    """One job: three GA runs in a row on one generator, like a PN simulation."""
    config = GAConfig(population_size=8, max_generations=4)
    engine_rng = np.random.default_rng(seed)
    problems = [_problem(seed + k) for k in range(3)]
    results = [GeneticAlgorithm(config, rng=engine_rng).evolve(problem) for problem in problems]
    return (
        [(r.best_queues, r.makespan_history, r.stacked) for r in results],
        problems,
        engine_rng.bit_generator.state,
    )


class TestGAStacking:
    def test_stress_with_fast_thread_switching(self):
        """16 jobs under a 1 µs switch interval each get their solo results."""
        interval = sys.getswitchinterval()
        with fitness_log() as log:
            solo = [_evolve_three(seed) for seed in range(16)]
            sys.setswitchinterval(1e-6)
            try:
                start = time.monotonic()
                stacked = SerialExecutor().map(_evolve_three, range(16))
                assert time.monotonic() - start < 60.0
            finally:
                sys.setswitchinterval(interval)
        for (solo_runs, solo_problems, solo_state), (runs, problems, state) in zip(solo, stacked):
            assert state == solo_state
            for solo_run, run in zip(solo_runs, runs):
                assert run[:2] == solo_run[:2]
                assert solo_run[2] == 1
                assert run[2] == LOCKSTEP_WIDTH
            # Every generation's population, evaluated alone and stacked.
            assert [log(p) for p in problems] == [log(p) for p in solo_problems]
            assert all(log(p) for p in problems)

    def test_figure4_runs_never_stack(self):
        """fig4 and the GA sweep report each run's measured seconds, so they
        run them alone; fig3 maps the same kind of runs and stacks them."""
        scale = get_scale("smoke").scaled(repeats=2, convergence_generations=4)
        with telemetry_session(TelemetrySession()) as session:
            run_figure("fig4", scale=scale, seed=3)
            run_figure("fig3", scale=scale, seed=3)
            with span("sweep"):
                sweep_ga_parameter("n_rebalances", [0, 1], scale=scale, repeats=3, seed=3)
        by_id = {opened.span_id: opened for opened in session.spans}
        stacked = {}
        for opened in session.spans:
            if opened.name == "ga:evolve":
                parent = by_id[opened.parent_id].name
                stacked.setdefault(parent, []).append(opened.attrs["stacked"])
        assert stacked == {
            "figure:fig4": [1] * 12,
            "figure:fig3": [2] * 6,
            "sweep": [1] * 6,
        }
