"""Tests for the live run monitor (``repro.telemetry.monitor``).

Contracts under test: the status file is always a complete JSON document
(atomic replace, never torn), heartbeats are free when no monitor is in
scope, and an interrupted run leaves an honest post-mortem status behind
that a resume overwrites with a fresh one.
"""

import io
import json
import logging
import os
import re
from types import SimpleNamespace

import pytest

from repro.campaigns import CampaignSpec, ResultStore, run_campaign
from repro.cli import main
from repro.parallel.jobs import job_label
from repro.experiments.config import get_scale
from repro.scenarios import run_scenario_matrix
from repro.telemetry import monitor as monitor_module
from repro.telemetry.monitor import (
    RECENT_EVENTS,
    RunMonitor,
    WorkerHeartbeat,
    get_heartbeat_dir,
    heartbeat_context,
    load_status,
    load_worker_heartbeats,
    render_status,
    watch,
    wrap_jobs_fn,
)
from repro.util.errors import ConfigurationError


def _square(x):
    return x * x


class TestRunMonitor:
    def test_creates_parent_dirs_and_initial_status(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "run.status.json"
        monitor = RunMonitor(str(path), name="demo", total_units=3)
        status = load_status(str(path))
        assert status["state"] == "running"
        assert status["total_units"] == 3
        assert status["computed"] == 0
        assert os.path.isdir(monitor.workers_dir)

    def test_cell_events_update_counts_and_recent(self, tmp_path):
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(
            path, name="demo", total_units=4, cached=1, executor="process[2]",
            interval=0,
        )
        monitor.cell_event("cell-a", "computed", 1.5)
        monitor.cell_event("cell-b", "cached")
        status = load_status(path)
        assert status["computed"] == 1
        assert status["cached"] == 2
        assert status["pending"] == 1
        assert [e["cell_id"] for e in status["recent"]] == ["cell-a", "cell-b"]
        assert status["recent"][0]["elapsed_seconds"] == 1.5

    def test_recent_events_are_bounded(self, tmp_path):
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(path, name="demo", total_units=100, interval=0)
        for i in range(RECENT_EVENTS + 5):
            monitor.cell_event(f"cell-{i}", "computed")
        recent = load_status(path)["recent"]
        assert len(recent) == RECENT_EVENTS
        assert recent[-1]["cell_id"] == f"cell-{RECENT_EVENTS + 4}"

    def test_throttle_skips_steady_writes_but_finish_forces(self, tmp_path):
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(path, name="demo", total_units=2, interval=3600)
        monitor.cell_event("cell-a", "computed")
        # Throttled: the file still shows the initial snapshot...
        assert load_status(path)["computed"] == 0
        monitor.finish("finished")
        # ...but the terminal write goes through regardless.
        status = load_status(path)
        assert status["computed"] == 1 and status["state"] == "finished"

    def test_finish_records_interrupt_reason(self, tmp_path):
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(path, name="demo", total_units=2, interval=0)
        monitor.finish("interrupted", "stopped after max_cells=1")
        status = load_status(path)
        assert status["state"] == "interrupted"
        assert status["interrupt_reason"] == "stopped after max_cells=1"
        assert "resume" in render_status(status)

    def test_stale_worker_files_cleared_on_start(self, tmp_path):
        path = str(tmp_path / "s.json")
        workers_dir = path + ".workers"
        os.makedirs(workers_dir)
        stale = os.path.join(workers_dir, "worker-99999.json")
        with open(stale, "w") as handle:
            handle.write("{}")
        RunMonitor(path, name="demo", total_units=1)
        assert not os.path.exists(stale)

    def test_status_file_is_always_whole_json(self, tmp_path):
        # Atomic replace: even mid-run there is never a torn file on disk.
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(path, name="demo", total_units=50, interval=0)
        for i in range(50):
            monitor.cell_event(f"cell-{i}", "computed")
            with open(path) as handle:
                json.loads(handle.read())


class TestLoadAndRender:
    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no run status"):
            load_status(str(tmp_path / "nope.json"))

    def test_load_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"kind": "something"}))
        with pytest.raises(ConfigurationError):
            load_status(str(path))

    def _status(self, tmp_path, **overrides):
        path = str(tmp_path / "s.json")
        RunMonitor(path, name="demo", total_units=4, executor="process[2]")
        status = load_status(path)
        status.update(overrides)
        return status

    def test_running_status_goes_stale(self, tmp_path):
        status = self._status(tmp_path)
        now = status["updated_at"]
        assert "STALE" not in render_status(status, now=now + 1, stale_after=15)
        assert "STALE" in render_status(status, now=now + 100, stale_after=15)
        # A finished run is just old, not stale.
        status["state"] = "finished"
        assert "STALE" not in render_status(status, now=now + 100, stale_after=15)

    def test_render_includes_progress_and_workers(self, tmp_path):
        status = self._status(tmp_path, computed=2, cached=1, pending=1)
        beat = {
            "kind": "worker_heartbeat",
            "pid": 4242,
            "state": "running",
            "job": "repeat:seed=9",
            "jobs_done": 3,
            "updated_at": status["updated_at"],
        }
        text = render_status(status, [beat], now=status["updated_at"])
        assert "campaign demo [running]  via process[2]" in text
        assert "2 computed + 1 cached = 3/4" in text
        assert "pid 4242" in text and "repeat:seed=9" in text


class TestWorkerHeartbeats:
    def test_wrap_is_identity_without_monitor(self):
        assert get_heartbeat_dir() is None
        assert wrap_jobs_fn(_square) is _square

    def test_heartbeat_context_activates_and_restores(self, tmp_path):
        directory = str(tmp_path / "workers")
        os.makedirs(directory)
        with heartbeat_context(directory):
            assert get_heartbeat_dir() == directory
            wrapped = wrap_jobs_fn(_square)
            assert isinstance(wrapped, WorkerHeartbeat)
            assert wrapped(6) == 36
        assert get_heartbeat_dir() is None

    def test_heartbeat_file_contents(self, tmp_path):
        status_path = str(tmp_path / "s.json")
        directory = status_path + ".workers"
        os.makedirs(directory)
        WorkerHeartbeat(_square, directory)(3)
        beats = load_worker_heartbeats(status_path)
        assert len(beats) == 1
        beat = beats[0]
        assert beat["pid"] == os.getpid()
        assert beat["state"] == "idle"  # written after the job finished
        assert beat["jobs_done"] >= 1

    def test_torn_heartbeat_files_are_skipped(self, tmp_path):
        status_path = str(tmp_path / "s.json")
        directory = status_path + ".workers"
        os.makedirs(directory)
        with open(os.path.join(directory, "worker-1.json"), "w") as handle:
            handle.write('{"kind": "worker_heartbeat", "pid": 1}')
        with open(os.path.join(directory, "worker-2.json"), "w") as handle:
            handle.write('{"torn...')
        beats = load_worker_heartbeats(status_path)
        assert [b["pid"] for b in beats] == [1]

    def test_missing_workers_dir_is_empty(self, tmp_path):
        assert load_worker_heartbeats(str(tmp_path / "s.json")) == []

    def test_heartbeat_survives_unwritable_directory(self, tmp_path):
        # The work matters, the telemetry doesn't: a dead heartbeat target
        # must not take the job down.
        wrapped = WorkerHeartbeat(_square, str(tmp_path / "gone" / "deeper"))
        assert wrapped(4) == 16

    def test_job_label_shapes(self):
        class WithCell:
            cell_id = "scenario/EF/r0"

        assert job_label(WithCell()) == "scenario/EF/r0"
        assert job_label(object()) == "object"
        # A group job (a list of cells) is named by its cells.
        group = [SimpleNamespace(cell_id=f"scenario/PN/r{r}") for r in range(3)]
        assert job_label(group) == "scenario/PN/r0 .. scenario/PN/r2 (3 jobs)"
        assert job_label(group[:1]) == "scenario/PN/r0"


@pytest.fixture
def pinned_clock(monkeypatch):
    """The monitor's rate clock, advanced only by the test (or by cell events)."""
    now = [100.0]
    monkeypatch.setattr(monitor_module, "_clock", lambda: now[0])
    return now


class TestProgress:
    """Cells/s and ETA come from one place: ``RunMonitor.progress``."""

    def test_rate_and_eta_from_the_pinned_clock(self, tmp_path, pinned_clock):
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(path, name="demo", total_units=10, cached=2, interval=0)
        assert monitor.progress() == (0.0, None, 8)
        pinned_clock[0] = 104.0
        monitor.cell_event("a", "computed")
        monitor.cell_event("b", "computed")
        assert monitor.progress() == (0.5, 12.0, 6)
        assert monitor.progress_text() == "0.50 cells/s, eta 12.0s"
        status = load_status(path)
        assert (status["cells_per_second"], status["eta_seconds"], status["pending"]) == (
            0.5, 12.0, 6,
        )

    def test_monitor_without_a_path_only_counts(self, tmp_path, pinned_clock):
        monitor = RunMonitor(None, name="demo", total_units=2)
        pinned_clock[0] = 101.0
        monitor.cell_event("a", "computed")
        monitor.finish()
        assert monitor.progress() == (1.0, 1.0, 1)
        assert monitor.workers_dir is None
        with monitor.heartbeats():
            assert get_heartbeat_dir() is None

    @pytest.mark.parametrize("runner", ["scenario-matrix", "campaign"])
    def test_logged_and_written_rate_and_eta_agree(
        self, runner, tmp_path, monkeypatch, pinned_clock
    ):
        # Each computed cell advances the pinned clock by 2 s, then the status
        # file is written and the progress line logged at that same instant.
        written = []
        real_write = monitor_module._atomic_write
        real_event = RunMonitor.cell_event

        def record_write(payload, path):
            written.append(payload)
            real_write(payload, path)

        def timed_event(self, *args, **kwargs):
            pinned_clock[0] += 2.0
            self.interval = 0  # write every event, not just unthrottled ones
            real_event(self, *args, **kwargs)

        monkeypatch.setattr(monitor_module, "_atomic_write", record_write)
        monkeypatch.setattr(RunMonitor, "cell_event", timed_event)
        messages = []
        handler = logging.Handler(logging.INFO)
        handler.emit = lambda record: messages.append(record.getMessage())
        logger = logging.getLogger(
            "repro.scenarios" if runner == "scenario-matrix" else "repro.campaigns"
        )
        level = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(handler)
        try:
            if runner == "scenario-matrix":
                run_scenario_matrix(
                    ["steady-state"], scale=get_scale("smoke"), schedulers=["EF", "LL"],
                    repeats=2, seed=1, status_path=str(tmp_path / "m.status.json"),
                )
            else:
                spec = CampaignSpec(
                    name="progress", scale="smoke", seed=1, scenarios=("steady-state",),
                    schedulers=("EF", "LL"), repeats=2,
                )
                run_campaign(spec, ResultStore(str(tmp_path / "store")))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)

        logged = [
            (int(m.group(1)), m.group(2))
            for m in (
                re.search(r": (\d+)/\d+ (?:cells|computed) \((.+? cells/s, eta [^,)]+)", message)
                for message in messages
            )
            if m
        ]
        assert [computed for computed, _ in logged] == [1, 2, 3, 4]
        by_count = {status["computed"]: status for status in written}
        for computed, text in logged:
            status = by_count[computed]
            eta = status["eta_seconds"]
            assert text == (
                f"{status['cells_per_second']:.2f} cells/s, "
                f"eta {monitor_module._fmt_age(eta) if eta is not None else '?'}"
            )
        # 4 cells in 8 pinned seconds: the final status agrees too.
        assert (written[-1]["cells_per_second"], written[-1]["eta_seconds"]) == (0.5, 0.0)


class TestWatch:
    def _finished_status(self, tmp_path, state="finished", reason=""):
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(path, name="demo", total_units=1, interval=0)
        monitor.cell_event("cell-a", "computed")
        monitor.finish(state, reason)
        return path

    def test_once_renders_single_frame(self, tmp_path):
        path = self._finished_status(tmp_path)
        stream = io.StringIO()
        status = watch(path, once=True, stream=stream)
        assert status["state"] == "finished"
        assert stream.getvalue().count("campaign demo") == 1

    def test_exits_when_run_not_running(self, tmp_path):
        path = self._finished_status(tmp_path, "interrupted", "ctrl-c")
        stream = io.StringIO()
        status = watch(path, interval=0.01, stream=stream)
        assert status["state"] == "interrupted"
        assert "ctrl-c" in stream.getvalue()

    def test_max_frames_bounds_a_running_watch(self, tmp_path):
        path = str(tmp_path / "s.json")
        RunMonitor(path, name="demo", total_units=5)  # stays "running"
        stream = io.StringIO()
        status = watch(path, interval=0.01, stream=stream, max_frames=2)
        assert status["state"] == "running"
        assert stream.getvalue().count("campaign demo") == 2


class TestRunnersWriteStatus:
    def _spec(self, name="mon-test"):
        return CampaignSpec(
            name=name, scale="smoke", seed=11,
            scenarios=("failure-storm",), schedulers=("LL", "EF"), repeats=1,
        )

    def test_campaign_writes_finished_status(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        result = run_campaign(self._spec(), store)
        assert result.complete
        status = load_status(store.status_path("mon-test"))
        assert status["state"] == "finished"
        assert status["computed"] == result.computed
        assert status["cached"] == 0
        assert status["total_units"] == 2

    def test_warm_rerun_status_counts_cache_hits(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(self._spec(), store)
        result = run_campaign(self._spec(), store)
        assert result.cached == 2
        status = load_status(store.status_path("mon-test"))
        assert status["state"] == "finished"
        assert status["computed"] == 0 and status["cached"] == 2

    def test_interrupt_then_resume_status_lifecycle(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        spec = self._spec()
        partial = run_campaign(spec, store, max_cells=1)
        assert not partial.complete
        status = load_status(store.status_path("mon-test"))
        assert status["state"] == "interrupted"
        assert status["interrupt_reason"]
        resumed = run_campaign(spec, store)
        assert resumed.complete
        status = load_status(store.status_path("mon-test"))
        assert status["state"] == "finished"
        assert status["cached"] == 1 and status["computed"] == 1

    def test_status_sidecar_not_listed_as_campaign(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(self._spec(), store)
        assert store.manifest_names() == ["mon-test"]

    def test_scenario_matrix_status_file(self, tmp_path):
        status_path = str(tmp_path / "matrix.status.json")
        run_scenario_matrix(
            ["failure-storm"], schedulers=["LL"], repeats=2, seed=3,
            status_path=status_path,
        )
        status = load_status(status_path)
        assert status["state"] == "finished"
        assert status["computed"] == 2
        assert status["name"] == "scenario-matrix"


class TestCliWatch:
    def test_watch_by_store_and_name(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path / "store"))
        spec = CampaignSpec(
            name="cli-watch", scale="smoke", seed=2,
            scenarios=("failure-storm",), schedulers=("LL",), repeats=1,
        )
        run_campaign(spec, store)
        code = main(
            ["campaigns", "watch", "--store", str(tmp_path / "store"),
             "cli-watch", "--once"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign cli-watch [finished]" in out

    def test_watch_status_file_interrupted_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "s.json")
        RunMonitor(path, name="x", total_units=1).finish("interrupted", "boom")
        assert main(["campaigns", "watch", "--status-file", path, "--once"]) == 3
        capsys.readouterr()

    def test_watch_without_target_errors(self, capsys):
        assert main(["campaigns", "watch", "--once"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_scenarios_run_status_file_flag(self, tmp_path, capsys):
        status_path = tmp_path / "deep" / "scen.status.json"
        code = main(
            ["scenarios", "run", "failure-storm", "--scale", "smoke",
             "--repeats", "1", "--schedulers", "LL",
             "--status-file", str(status_path)]
        )
        assert code == 0
        capsys.readouterr()
        assert load_status(str(status_path))["state"] == "finished"
