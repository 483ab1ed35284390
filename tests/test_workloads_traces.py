"""Tests for trace-driven workloads: record, save, replay, synthesize."""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.campaigns.store import cache_key
from repro.cli import main
from repro.cluster import heterogeneous_cluster
from repro.experiments.config import get_scale
from repro.scenarios import (
    ScenarioCell,
    cell_workload,
    get_scenario,
    run_scenario_cell,
    scenario_names,
)
from repro.schedulers.registry import make_scheduler
from repro.sim import DistributedSystemSimulation, simulate_schedule
from repro.util.errors import ConfigurationError, WorkloadError
from repro.workloads import (
    NormalSizes,
    PiecewiseRateArrivals,
    PoissonArrivals,
    TraceData,
    TraceSpec,
    WorkloadSpec,
    bursty_profile,
    diurnal_profile,
    generate_workload,
    load_trace,
    make_bursty_trace,
    make_diurnal_trace,
    make_synthetic_trace,
    save_trace,
    trace_from_result,
    trace_from_tasks,
    trace_sha256,
)
from repro.workloads.suites import workload_by_name


def awkward_trace() -> TraceData:
    """A small trace whose floats do not have short decimal representations."""
    rng = np.random.default_rng(99)
    n = 37
    return TraceData(
        task_id=np.arange(n),
        arrival_time=np.cumsum(rng.exponential(1.0 / 3.0, size=n)),
        size_mflops=rng.normal(1000.0, 30.0, size=n) ** 2 / 7.0,
        comm_cost=rng.uniform(0.0, 0.3, size=n),
    )


def assert_traces_equal(a: TraceData, b: TraceData) -> None:
    assert np.array_equal(a.task_id, b.task_id)
    assert np.array_equal(a.arrival_time, b.arrival_time)
    assert np.array_equal(a.size_mflops, b.size_mflops)
    if a.comm_cost is None:
        assert b.comm_cost is None
    else:
        assert np.array_equal(a.comm_cost, b.comm_cost)


class TestTraceData:
    def test_rows_are_sorted_into_submission_order(self):
        trace = TraceData(
            task_id=[3, 1, 2],
            arrival_time=[5.0, 5.0, 1.0],
            size_mflops=[30.0, 10.0, 20.0],
        )
        assert trace.task_id.tolist() == [2, 1, 3]
        assert trace.arrival_time.tolist() == [1.0, 5.0, 5.0]
        assert trace.size_mflops.tolist() == [20.0, 10.0, 30.0]

    def test_comm_costs_follow_the_sort(self):
        trace = TraceData(
            task_id=[1, 0],
            arrival_time=[2.0, 1.0],
            size_mflops=[10.0, 20.0],
            comm_cost=[0.5, 0.25],
        )
        assert trace.comm_cost.tolist() == [0.25, 0.5]

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(WorkloadError, match="disagree on length"):
            TraceData(task_id=[0, 1], arrival_time=[0.0], size_mflops=[1.0, 2.0])

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError, match="at least one task"):
            TraceData(task_id=[], arrival_time=[], size_mflops=[])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(WorkloadError, match="unique"):
            TraceData(task_id=[1, 1], arrival_time=[0.0, 1.0], size_mflops=[1.0, 1.0])

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(WorkloadError, match="positive"):
            TraceData(task_id=[0], arrival_time=[0.0], size_mflops=[0.0])

    def test_negative_arrivals_rejected(self):
        with pytest.raises(WorkloadError, match="non-negative"):
            TraceData(task_id=[0], arrival_time=[-1.0], size_mflops=[1.0])

    def test_comm_length_mismatch_rejected(self):
        with pytest.raises(WorkloadError, match="comm_cost"):
            TraceData(
                task_id=[0, 1],
                arrival_time=[0.0, 1.0],
                size_mflops=[1.0, 2.0],
                comm_cost=[0.1],
            )

    def test_to_taskset_preserves_every_field(self):
        trace = awkward_trace()
        tasks = trace.to_taskset()
        assert len(tasks) == trace.n_tasks
        assert np.array_equal(np.asarray(tasks.task_ids), trace.task_id)
        assert np.array_equal(tasks.sizes(), trace.size_mflops)
        assert np.array_equal(tasks.arrival_times(), trace.arrival_time)

    def test_describe_summarises_the_columns(self):
        trace = awkward_trace()
        stats = trace.describe()
        assert stats["count"] == trace.n_tasks
        assert stats["mean_mflops"] == pytest.approx(trace.size_mflops.mean())
        assert stats["arrival_span"] > 0


class TestTraceFiles:
    @pytest.mark.parametrize("ext", [".csv", ".json"])
    def test_round_trip_is_bit_identical(self, tmp_path, ext):
        trace = awkward_trace()
        path = str(tmp_path / f"trace{ext}")
        save_trace(trace, path)
        assert_traces_equal(load_trace(path), trace)

    @pytest.mark.parametrize("ext", [".csv", ".json"])
    def test_round_trip_without_comm_column(self, tmp_path, ext):
        trace = TraceData(task_id=[0, 1], arrival_time=[0.0, 0.1], size_mflops=[1.5, 2.5])
        path = str(tmp_path / f"trace{ext}")
        save_trace(trace, path)
        assert_traces_equal(load_trace(path), trace)

    def test_unknown_extension_rejected(self, tmp_path):
        trace = awkward_trace()
        with pytest.raises(ConfigurationError, match="extension"):
            save_trace(trace, str(tmp_path / "trace.parquet"))
        with pytest.raises(ConfigurationError, match="extension"):
            load_trace(__file__)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_trace(str(tmp_path / "nope.csv"))

    def test_bad_csv_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,when,how_big\n0,0.0,1.0\n")
        with pytest.raises(ConfigurationError, match="header"):
            load_trace(str(path))

    def test_non_trace_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": []}')
        with pytest.raises(ConfigurationError, match="repro-trace"):
            load_trace(str(path))

    def test_unsupported_json_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "repro-trace", "version": 99}')
        with pytest.raises(ConfigurationError, match="version"):
            load_trace(str(path))

    def test_sha256_tracks_content_not_name(self, tmp_path):
        trace = awkward_trace()
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        save_trace(trace, a)
        shutil.copy(a, b)
        assert trace_sha256(a) == trace_sha256(b)
        save_trace(
            TraceData(task_id=[0], arrival_time=[0.0], size_mflops=[1.0]),
            str(tmp_path / "c.csv"),
        )
        assert trace_sha256(str(tmp_path / "c.csv")) != trace_sha256(a)


class TestTraceSpec:
    @pytest.fixture
    def trace_path(self, tmp_path) -> str:
        path = str(tmp_path / "trace.csv")
        save_trace(awkward_trace(), path)
        return path

    def test_from_file_fills_hash_and_count(self, trace_path):
        spec = TraceSpec.from_file(trace_path)
        assert spec.sha256 == trace_sha256(trace_path)
        assert spec.n_tasks == awkward_trace().n_tasks

    def test_materialise_replays_under_any_rng(self, trace_path):
        spec = TraceSpec.from_file(trace_path)
        a = generate_workload(spec, np.random.default_rng(1))
        b = generate_workload(spec, np.random.default_rng(999))
        assert list(a) == list(b)
        assert list(a) == list(spec.materialise())

    def test_pickle_round_trip(self, trace_path):
        spec = TraceSpec.from_file(trace_path)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert list(clone.materialise()) == list(spec.materialise())

    def test_hash_mismatch_rejected(self, trace_path, tmp_path):
        other = str(tmp_path / "other.csv")
        save_trace(TraceData(task_id=[0], arrival_time=[0.0], size_mflops=[1.0]), other)
        good = TraceSpec.from_file(trace_path)
        with pytest.raises(ConfigurationError, match="does not match"):
            TraceSpec(path=other, sha256=good.sha256)

    def test_task_count_mismatch_rejected(self, trace_path):
        with pytest.raises(ConfigurationError, match="tasks"):
            TraceSpec(path=trace_path, n_tasks=5)

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            TraceSpec(path="  ")

    def test_workload_facade(self, trace_path):
        spec = TraceSpec.from_file(trace_path)
        described = spec.describe()
        assert described["n_tasks"] == spec.n_tasks
        assert described["sizes"].startswith("trace(")
        assert spec.sha256[:12] in described["arrivals"]
        assert spec.first_task_id == 0
        assert spec.sizes.mean() == pytest.approx(awkward_trace().size_mflops.mean())

    def test_cache_key_follows_content_not_path(self, trace_path, tmp_path):
        moved = str(tmp_path / "elsewhere" / "renamed.csv")
        os.makedirs(os.path.dirname(moved))
        shutil.copy(trace_path, moved)
        key_a = cache_key("workload", TraceSpec.from_file(trace_path))
        key_b = cache_key("workload", TraceSpec.from_file(moved))
        assert key_a == key_b

    def test_cache_key_stable_across_processes(self, trace_path):
        spec = TraceSpec.from_file(trace_path)
        here = cache_key("workload", spec)
        code = (
            "from repro.campaigns.store import cache_key\n"
            "from repro.workloads.traces import TraceSpec\n"
            f"print(cache_key('workload', TraceSpec.from_file({trace_path!r})))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=os.environ.copy(),
            check=True,
        )
        assert proc.stdout.strip() == here


class TestRecordReplay:
    @pytest.fixture
    def cell(self) -> ScenarioCell:
        scale = get_scale("smoke")
        return ScenarioCell(
            spec=get_scenario("steady-state", scale),
            scheduler="LL",
            repeat=0,
            seed_entropy=1234567,
            batch_size=scale.batch_size,
            max_generations=scale.max_generations,
        )

    def test_recorded_cell_replays_bit_identically(self, cell, tmp_path):
        original = cell_workload(cell)
        path = str(tmp_path / "cell.csv")
        save_trace(trace_from_tasks(original), path)
        replayed = TraceSpec.from_file(path).materialise()
        assert np.array_equal(np.asarray(replayed.task_ids), np.asarray(original.task_ids))
        assert np.array_equal(replayed.sizes(), original.sizes())
        assert np.array_equal(replayed.arrival_times(), original.arrival_times())

    def test_replay_matches_generated_run_on_both_backends(
        self, cell, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "cell.csv")
        save_trace(trace_from_tasks(cell_workload(cell)), path)
        trace_spec = TraceSpec.from_file(path)
        baseline = run_scenario_cell(cell)
        for backend in ("fast", "event"):
            if backend == "event":
                monkeypatch.setattr(
                    DistributedSystemSimulation, "uses_fast_path", lambda self: False
                )
            replayed = run_scenario_cell(
                replace(cell, spec=replace(cell.spec, workload=trace_spec))
            )
            # ScenarioCellOutcome equality excludes the wall-clock fields, so
            # this asserts every deterministic output is bit-identical.
            assert replayed == baseline, backend

    def test_trace_from_result_recovers_comm_costs(self, small_cluster, small_tasks):
        result = simulate_schedule(
            make_ef_scheduler(small_cluster.n_processors), small_cluster, small_tasks, rng=0
        )
        trace = trace_from_result(result)
        assert trace.n_tasks == len(small_tasks)
        assert set(trace.task_id.tolist()) == set(small_tasks.task_ids)
        assert trace.comm_cost is not None
        assert trace.comm_cost.min() >= 0.0

    def test_empty_taskset_cannot_be_recorded(self):
        from repro.workloads import TaskSet

        with pytest.raises(WorkloadError, match="empty"):
            trace_from_tasks(TaskSet([]))


def make_ef_scheduler(n_processors: int):
    return make_scheduler("EF", n_processors=n_processors)


class TestPiecewiseRateArrivals:
    def test_unwarp_matches_brute_force_inversion(self):
        profile = PiecewiseRateArrivals([2.0, 1.0, 3.0], [0.5, 4.0, 1.0])
        warped = np.linspace(0.01, 12.0, 257)
        times = profile.unwarp(warped)

        def cumulative_intensity(t: float) -> float:
            total, elapsed = 0.0, 0.0
            for duration, rate in zip(profile.durations, profile.rates):
                span = min(max(t - elapsed, 0.0), duration)
                total += span * rate
                elapsed += duration
            if t > elapsed:
                total += (t - elapsed) * profile.rates[-1]
            return total

        recovered = np.array([cumulative_intensity(t) for t in times])
        np.testing.assert_allclose(recovered, warped, rtol=1e-12, atol=1e-12)

    def test_times_are_sorted_and_deterministic(self):
        profile = PiecewiseRateArrivals([10.0, 10.0], [1.0, 9.0])
        a = profile.times(500, np.random.default_rng(3))
        b = profile.times(500, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)
        assert a.min() >= 0

    def test_single_segment_matches_homogeneous_poisson(self):
        rate = 2.5
        a = PiecewiseRateArrivals([1000.0], [rate]).times(200, np.random.default_rng(5))
        b = PoissonArrivals(rate).times(200, np.random.default_rng(5))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            PiecewiseRateArrivals([], [])
        with pytest.raises(ConfigurationError):
            PiecewiseRateArrivals([1.0, 2.0], [1.0])
        with pytest.raises(ConfigurationError):
            PiecewiseRateArrivals([1.0], [0.0])
        with pytest.raises(ConfigurationError):
            PiecewiseRateArrivals([0.0], [1.0])

    def test_name_reports_segments_and_mean(self):
        profile = PiecewiseRateArrivals([1.0, 1.0], [1.0, 3.0])
        assert "2 segments" in profile.name
        assert "mean=2" in profile.name


class TestSyntheticTraces:
    def test_profile_validation(self):
        with pytest.raises(ConfigurationError, match="amplitude"):
            diurnal_profile(100, 10.0, 100.0, amplitude=1.5)
        with pytest.raises(ConfigurationError, match="segments"):
            diurnal_profile(100, 10.0, 100.0, segments_per_period=1)
        with pytest.raises(ConfigurationError, match="burst_rate"):
            bursty_profile(100, 10.0, 5.0, 10.0, 10.0)
        with pytest.raises(ConfigurationError, match="positive"):
            make_synthetic_trace(PiecewiseRateArrivals([1.0], [1.0]), 0)

    def test_matches_equivalent_workload_spec_draws(self):
        """A synthetic trace with seed s IS the WorkloadSpec workload with seed s."""
        profile = bursty_profile(
            300, base_rate=5.0, burst_rate=50.0, burst_seconds=5.0, calm_seconds=20.0
        )
        sizes = NormalSizes(1000.0, 9.0e5)
        trace = make_synthetic_trace(profile, 300, seed=77, sizes=sizes)
        spec = WorkloadSpec(n_tasks=300, sizes=sizes, arrivals=profile)
        generated = generate_workload(spec, np.random.default_rng(77))
        replayed = trace.to_taskset()
        assert list(replayed) == list(generated)

    @pytest.mark.parametrize("maker", [make_diurnal_trace, make_bursty_trace])
    def test_generators_are_seed_deterministic(self, maker):
        a = maker(400, seed=11)
        b = maker(400, seed=11)
        c = maker(400, seed=12)
        assert_traces_equal(a, b)
        assert not np.array_equal(a.arrival_time, c.arrival_time)
        assert a.n_tasks == 400
        assert a.task_id.tolist() == list(range(400))

    def test_bursty_trace_is_burstier_than_diurnal(self):
        bursty = make_bursty_trace(3000, seed=4)
        diurnal = make_diurnal_trace(3000, seed=4)

        def cv2(trace: TraceData) -> float:
            gaps = np.diff(trace.arrival_time)
            return float(np.var(gaps) / np.mean(gaps) ** 2)

        # Squared coefficient of variation: 1 for Poisson, higher when rates mix.
        assert cv2(bursty) > cv2(diurnal) > 0.9

    @pytest.mark.parametrize("ext", [".csv", ".json"])
    def test_bursty_pipeline_completes_every_task_exactly_once(self, tmp_path, ext):
        # Generate -> save -> load -> materialise -> simulate with LL on the
        # fast path, at 20,000 tasks on 20 processors (CI runs the same
        # pipeline at 1M tasks).
        n_tasks = 20_000
        path = str(tmp_path / f"bursty{ext}")
        save_trace(make_bursty_trace(n_tasks, seed=42), path)
        tasks = TraceSpec.from_file(path).materialise()
        cluster = heterogeneous_cluster(20, mean_comm_cost=5.0, rng=np.random.default_rng(43))
        scheduler = make_scheduler(
            "LL", n_processors=20, batch_size=500, max_generations=10, rng=44
        )
        result = simulate_schedule(scheduler, cluster, tasks, rng=45)
        completed = np.sort(result.trace.task_ids())
        np.testing.assert_array_equal(completed, np.arange(n_tasks))


class TestScenarioAndCliIntegration:
    def test_trace_scenarios_are_registered(self):
        names = scenario_names()
        assert "trace-diurnal" in names
        assert "trace-bursty" in names

    def test_workload_by_name_trace_prefix(self, tmp_path):
        path = str(tmp_path / "t.csv")
        save_trace(awkward_trace(), path)
        spec = workload_by_name(f"trace:{path}", n_tasks=999)
        assert isinstance(spec, TraceSpec)
        assert spec.n_tasks == awkward_trace().n_tasks
        with pytest.raises(ConfigurationError, match="path"):
            workload_by_name("trace:", n_tasks=1)

    def test_traces_make_and_info(self, tmp_path, capsys):
        path = str(tmp_path / "bursty.csv")
        code = main(
            ["traces", "make", "bursty", "--tasks", "64", "--seed", "3", "--output", path]
        )
        assert code == 0
        assert os.path.exists(path)
        assert main(["traces", "info", path]) == 0
        out = capsys.readouterr().out
        assert "64" in out
        assert trace_sha256(path)[:12] in out

    def test_traces_record_scenario_matches_cell_workload(self, tmp_path, capsys):
        path = str(tmp_path / "steady.json")
        code = main(
            [
                "traces",
                "record",
                "--scenario",
                "steady-state",
                "--scale",
                "smoke",
                "--seed",
                "7",
                "--output",
                path,
            ]
        )
        assert code == 0
        scale = get_scale("smoke")
        cell = ScenarioCell(
            spec=get_scenario("steady-state", scale),
            scheduler="LL",
            repeat=0,
            seed_entropy=7,
            batch_size=scale.batch_size,
            max_generations=scale.max_generations,
        )
        expected = cell_workload(cell)
        replayed = TraceSpec.from_file(path).materialise()
        assert list(replayed) == list(expected)

    def test_traces_record_workload_shape(self, tmp_path):
        path = str(tmp_path / "normal.csv")
        code = main(
            [
                "traces",
                "record",
                "--workload",
                "normal",
                "--scale",
                "smoke",
                "--tasks",
                "32",
                "--seed",
                "5",
                "--output",
                path,
            ]
        )
        assert code == 0
        assert load_trace(path).n_tasks == 32

    def test_compare_replays_trace_identically_on_both_backends(
        self, tmp_path, capsys, monkeypatch
    ):
        path = str(tmp_path / "cmp.csv")
        code = main(
            ["traces", "make", "bursty", "--tasks", "40", "--seed", "9", "--output", path]
        )
        assert code == 0
        capsys.readouterr()
        outputs = {}
        for backend in ("fast", "event"):
            if backend == "event":
                monkeypatch.setattr(
                    DistributedSystemSimulation, "uses_fast_path", lambda self: False
                )
            code = main(
                ["compare", "--workload", f"trace:{path}", "--scale", "smoke", "--seed", "1"]
            )
            assert code == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["fast"] == outputs["event"]
