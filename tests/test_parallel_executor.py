"""Tests for the parallel experiment executors (repro.parallel).

The load-bearing guarantee is determinism: sharding repeats across worker
processes must produce aggregates bit-identical to the serial run with the
same master seed, and repeated serial runs must be bit-identical to each
other.  These are regression tests for that contract, plus unit tests of the
executor mechanics (ordering, fallback, construction, failure modes).
"""


import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.experiments import (
    compare_schedulers,
    figure3,
    figure6,
    get_scale,
    run_figure,
    sweep_ga_parameter,
)
from repro.parallel import (
    ComparisonRepeatJob,
    GARunJob,
    ParallelExecutor,
    SerialExecutor,
    executor_from_jobs,
    resolve_executor,
    run_comparison_repeat,
    run_ga_job,
)
from repro.util.errors import ConfigurationError, ExperimentInterrupted
from repro.workloads import normal_paper_workload


def _square(x):
    return x * x


def _interrupting(x):
    if x == 4:
        raise KeyboardInterrupt  # simulates Ctrl-C reaching a worker
    time.sleep(0.01)
    return x


def _boom(x):
    if x == 5:
        raise ValueError("boom on 5")
    return x


class _UnpicklableError(Exception):
    def __init__(self):
        super().__init__("unpicklable")
        self.lock = threading.Lock()  # cannot cross the process boundary


def _raise_unpicklable(x):
    if x == 5:
        raise _UnpicklableError()
    return x


def _hard_exit_on_zero(x):
    if x == 0:
        time.sleep(1.0)  # let the other worker finish every other job first
        os._exit(17)  # hard-kill this worker process mid-job
    return x * x


def _uneven(x):
    # One slow job at the head of the list: later jobs finish first, yet
    # results must still come back in job order.
    time.sleep(0.15 if x == 0 else 0.002)
    return x


def _wait_for_flag(arg):
    index, flag_path = arg
    if index == 0:
        return True
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if os.path.exists(flag_path):
            return True
        time.sleep(0.01)
    return False


def _touch_marker(arg):
    index, directory = arg
    with open(f"{directory}/{index}.marker", "w", encoding="utf8") as handle:
        handle.write("ran")
    time.sleep(0.02)
    return index


@pytest.fixture(scope="module")
def tiny_scale():
    return get_scale("smoke").scaled(
        n_tasks=25,
        n_tasks_large=25,
        n_processors=4,
        batch_size=10,
        max_generations=5,
        repeats=3,
        convergence_generations=6,
        comm_cost_means=(5.0, 20.0),
    )


def _comparison_key(result):
    """Everything aggregate about a ComparisonResult, as plain floats."""
    return {
        name: (
            cmp.makespan.mean,
            cmp.makespan.std,
            cmp.efficiency.mean,
            cmp.efficiency.std,
            cmp.mean_response_time.mean,
            cmp.invocations.mean,
        )
        for name, cmp in result.schedulers.items()
    }


class TestExecutors:
    def test_serial_maps_in_order(self):
        assert SerialExecutor().map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_parallel_maps_in_order(self):
        assert ParallelExecutor(2).map(_square, list(range(8))) == [
            x * x for x in range(8)
        ]

    def test_parallel_single_job_runs_inline(self):
        assert ParallelExecutor(4).map(_square, [5]) == [25]

    def test_parallel_empty_job_list(self):
        assert ParallelExecutor(2).map(_square, []) == []

    def test_unpicklable_jobs_fall_back_to_serial(self):
        fn = lambda x: x + 1  # noqa: E731 - deliberately unpicklable
        executor = ParallelExecutor(2)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            assert executor.map(fn, [1, 2]) == [2, 3]
        # the degradation is reflected in what results will record
        assert executor.describe() == "process[2]:serial-fallback"

    def test_serial_close_is_noop(self):
        executor = SerialExecutor()
        executor.close()
        assert executor.map(_square, [2]) == [4]

    def test_describe(self):
        assert SerialExecutor().describe() == "serial"
        assert ParallelExecutor(3).describe() == "process[3]"

    def test_pool_reused_across_map_calls_and_recreated_after_close(self):
        with ParallelExecutor(2) as executor:
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
            pool = executor._pool
            assert pool is not None
            assert executor.map(_square, [4, 5, 6]) == [16, 25, 36]
            assert executor._pool is pool
            executor.close()
            assert executor._pool is None
            assert executor.map(_square, [7, 8]) == [49, 64]
        assert executor._pool is None

    def test_imap_yields_in_order_for_every_executor(self):
        jobs = list(range(9))
        expected = [x * x for x in jobs]
        assert list(SerialExecutor().imap(_square, jobs)) == expected
        with ParallelExecutor(2) as executor:
            assert list(executor.imap(_square, jobs)) == expected

    def test_serial_imap_is_lazy(self):
        calls = []

        def record(x):
            calls.append(x)
            return x

        stream = SerialExecutor().imap(record, [1, 2, 3])
        assert calls == []
        assert next(stream) == 1
        assert calls == [1]  # later jobs not computed until asked for

    def test_abandoned_imap_cancels_pending_chunks(self, tmp_path):
        # A consumer that stops early (campaign --max-cells) must not leave
        # the whole job list queued: close() would otherwise block until
        # every submitted chunk has run.
        jobs = [(i, str(tmp_path)) for i in range(40)]
        executor = ParallelExecutor(2)
        stream = executor.imap(_touch_marker, jobs)
        assert [next(stream) for _ in range(3)] == [0, 1, 2]
        stream.close()  # cancels the not-yet-started chunks
        executor.close()
        ran = len(list(tmp_path.glob("*.marker")))
        assert 3 <= ran < 40  # in-flight jobs may finish; the rest must not

    def test_keyboard_interrupt_terminates_pool_and_surfaces_partials(self):
        executor = ParallelExecutor(2)
        start = time.perf_counter()
        with pytest.raises(ExperimentInterrupted) as info:
            executor.map(_interrupting, list(range(10)))
        # The fix: no hang on the pool join — the map fails promptly...
        assert time.perf_counter() - start < 30.0
        # ...the worker pool is gone (a later map recreates it)...
        assert executor._pool is None
        # ...and completed results are surfaced for checkpointing.
        assert info.value.total == 10
        assert all(info.value.partial[i] == i for i in info.value.partial)
        assert executor.map(_square, [3]) == [9]
        executor.close()

    @pytest.mark.parametrize(
        "fn, error, match",
        [(_boom, ValueError, "boom on 5"), (_raise_unpicklable, TypeError, "pickle")],
    )
    def test_job_exception_propagates_and_pool_stays_usable(self, fn, error, match):
        # An exception that cannot be pickled back surfaces as the pickling
        # TypeError instead of killing the worker.
        with ParallelExecutor(2) as executor:
            with pytest.raises(error, match=match):
                executor.map(fn, list(range(10)))
            assert executor.map(_square, [2, 3]) == [4, 9]

    def test_worker_crash_surfaces_finished_results(self):
        executor = ParallelExecutor(2)
        with pytest.raises(ExperimentInterrupted) as info:
            executor.map(_hard_exit_on_zero, list(range(10)))
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        # Nothing is retried: the crashed job is lost, the nine the other
        # worker finished are surfaced for checkpointing...
        assert info.value.total == 10
        assert info.value.partial == {x: x * x for x in range(1, 10)}
        # ...and the broken pool is dropped, so the next map recreates it.
        assert executor._pool is None
        assert executor.map(_square, [3, 4]) == [9, 16]
        executor.close()

    @pytest.mark.parametrize("chunksize", [1, 3, 7])
    def test_chunked_map_preserves_order(self, chunksize):
        # 40 jobs do not divide into chunks of 3 or 7: the short last chunk
        # must land at the end, nothing dropped or duplicated.
        with ParallelExecutor(2, chunksize=chunksize) as executor:
            assert executor.map(_square, list(range(40))) == [x * x for x in range(40)]

    def test_uneven_job_costs_keep_job_order(self):
        with ParallelExecutor(2) as executor:
            assert executor.map(_uneven, list(range(32))) == list(range(32))

    def test_imap_streams_before_later_jobs_finish(self, tmp_path):
        # Job 1 waits for a flag the consumer only writes after receiving
        # job 0's result: a map materialised before yielding would time the
        # job out (False) instead of streaming (True).
        flag = str(tmp_path / "consumed.flag")
        with ParallelExecutor(2) as executor:
            stream = executor.imap(_wait_for_flag, [(0, flag), (1, flag)])
            assert next(stream) is True
            with open(flag, "w", encoding="utf8") as handle:
                handle.write("0")
            assert next(stream) is True
            assert list(stream) == []

    def test_worker_crash_partials_are_keyed_by_job_index_across_chunks(self):
        # Chunks of two: the crash loses job 0 and its chunk-mate 1, and the
        # finished chunks map back to their jobs' indices, not chunk indices.
        executor = ParallelExecutor(2, chunksize=2)
        with pytest.raises(ExperimentInterrupted) as info:
            executor.map(_hard_exit_on_zero, list(range(10)))
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        assert info.value.partial == {x: x * x for x in range(2, 10)}
        executor.close()

    def test_default_jobs_is_the_cpu_count(self):
        assert ParallelExecutor().jobs == (os.cpu_count() or 1)

    @pytest.mark.parametrize(
        "jobs, label",
        [(None, "serial"), (1, "serial"), (2, "process[2]"), (4, "process[4]")],
    )
    def test_jobs_count_alone_picks_the_executor(self, jobs, label):
        executor = resolve_executor(None, jobs)
        assert executor.describe() == label
        assert executor.jobs == (jobs or 1)

    def test_executor_from_jobs(self):
        assert isinstance(executor_from_jobs(None), SerialExecutor)
        assert isinstance(executor_from_jobs(1), SerialExecutor)
        parallel = executor_from_jobs(2)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.jobs == 2
        with pytest.raises(ConfigurationError):
            executor_from_jobs(0)

    def test_resolve_executor_prefers_explicit(self):
        explicit = SerialExecutor()
        assert resolve_executor(explicit, 8) is explicit
        assert isinstance(resolve_executor(None, 2), ParallelExecutor)

    def test_invalid_parallel_construction(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(2, chunksize=0)

    def test_scale_jobs_validated(self):
        with pytest.raises(Exception):
            get_scale("smoke").scaled(jobs=0)


class TestComparisonJobDeterminism:
    def test_repeat_job_is_self_contained(self, tiny_scale):
        """The same job run twice gives identical metrics (no hidden state)."""
        job = ComparisonRepeatJob(
            seed_entropy=99,
            workload_spec=normal_paper_workload(tiny_scale.n_tasks),
            scheduler_names=("EF", "RR"),
            n_processors=tiny_scale.n_processors,
            batch_size=tiny_scale.batch_size,
            max_generations=tiny_scale.max_generations,
            mean_comm_cost=5.0,
        )
        assert run_comparison_repeat(job).metrics == run_comparison_repeat(job).metrics

    def test_chunked_repeats_match_serial(self, tiny_scale):
        jobs = [
            ComparisonRepeatJob(
                seed_entropy=entropy,
                workload_spec=normal_paper_workload(tiny_scale.n_tasks),
                scheduler_names=("EF", "PN"),
                n_processors=tiny_scale.n_processors,
                batch_size=tiny_scale.batch_size,
                max_generations=tiny_scale.max_generations,
                mean_comm_cost=5.0,
            )
            for entropy in range(5)
        ]
        serial = SerialExecutor().map(run_comparison_repeat, jobs)
        with ParallelExecutor(2, chunksize=2) as executor:
            parallel = executor.map(run_comparison_repeat, jobs)
        assert [o.metrics for o in serial] == [o.metrics for o in parallel]

    def test_ga_job_is_self_contained(self, tiny_scale):
        from repro.experiments import make_benchmark_problem
        from repro.ga import GAConfig

        job = GARunJob(
            config=GAConfig(population_size=8, max_generations=4, n_rebalances=1),
            problem=make_benchmark_problem(tiny_scale, seed=3),
            ga_seed=17,
        )
        a, b = run_ga_job(job), run_ga_job(job)
        assert a.best_makespan == b.best_makespan
        assert np.array_equal(a.reduction_history, b.reduction_history)


class TestSerialParallelIdentity:
    """Same seed ⇒ identical aggregates whichever executor runs the repeats."""

    def test_compare_schedulers_serial_vs_parallel(self, tiny_scale):
        spec = normal_paper_workload(tiny_scale.n_tasks)
        kwargs = dict(mean_comm_cost=5.0, seed=42)
        serial = compare_schedulers(spec, tiny_scale, **kwargs)
        parallel = compare_schedulers(spec, tiny_scale.scaled(jobs=2), **kwargs)
        assert serial.executor == "serial"
        assert parallel.executor == "process[2]"
        assert _comparison_key(serial) == _comparison_key(parallel)

    def test_compare_schedulers_repeated_serial_runs_bit_identical(self, tiny_scale):
        spec = normal_paper_workload(tiny_scale.n_tasks)
        kwargs = dict(mean_comm_cost=5.0, seed=7)
        a = compare_schedulers(spec, tiny_scale, **kwargs)
        b = compare_schedulers(spec, tiny_scale, **kwargs)
        assert _comparison_key(a) == _comparison_key(b)

    def test_explicit_executor_overrides_scale(self, tiny_scale):
        spec = normal_paper_workload(tiny_scale.n_tasks)
        result = compare_schedulers(
            spec,
            tiny_scale.scaled(jobs=2),
            mean_comm_cost=5.0,
            seed=42,
            executor=SerialExecutor(),
        )
        assert result.executor == "serial"

    def test_sweep_serial_vs_parallel(self, tiny_scale):
        kwargs = dict(scale=tiny_scale, seed=5, repeats=2)
        serial = sweep_ga_parameter("n_rebalances", [0, 1], **kwargs)
        parallel = sweep_ga_parameter(
            "n_rebalances",
            [0, 1],
            scale=tiny_scale.scaled(jobs=2),
            seed=5,
            repeats=2,
        )
        assert serial.executor == "serial"
        assert parallel.executor == "process[2]"
        for p_serial, p_parallel in zip(serial.points, parallel.points):
            assert p_serial.value == p_parallel.value
            assert p_serial.makespan.mean == p_parallel.makespan.mean
            assert p_serial.makespan.std == p_parallel.makespan.std
            assert p_serial.reduction.mean == p_parallel.reduction.mean
            assert p_serial.generations.mean == p_parallel.generations.mean

    def test_sweep_repeated_serial_runs_bit_identical(self, tiny_scale):
        a = sweep_ga_parameter("n_rebalances", [0, 1], scale=tiny_scale, seed=9, repeats=2)
        b = sweep_ga_parameter("n_rebalances", [0, 1], scale=tiny_scale, seed=9, repeats=2)
        assert a.makespans() == b.makespans()

    def test_figure3_serial_vs_parallel(self, tiny_scale):
        serial = figure3(scale=tiny_scale, seed=11, rebalance_levels=(0, 1))
        parallel = figure3(
            scale=tiny_scale.scaled(jobs=2), seed=11, rebalance_levels=(0, 1)
        )
        assert serial.series == parallel.series
        assert parallel.metadata["executor"] == "process[2]"

    def test_figure6_serial_vs_parallel(self, tiny_scale):
        serial = figure6(scale=tiny_scale, seed=13)
        parallel = figure6(scale=tiny_scale.scaled(jobs=2), seed=13)
        assert serial.bar_values() == parallel.bar_values()
        assert serial.comparisons[0].executor == "serial"
        assert parallel.comparisons[0].executor == "process[2]"

    def test_run_figure_accepts_executor(self, tiny_scale):
        serial = run_figure("fig6", scale=tiny_scale, seed=13)
        explicit = run_figure(
            "fig6", scale=tiny_scale, seed=13, executor=ParallelExecutor(2)
        )
        assert serial.bar_values() == explicit.bar_values()
        assert explicit.metadata["executor"] == "process[2]"
