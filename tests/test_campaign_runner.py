"""Tests for the campaign subsystem (repro.campaigns).

Load-bearing guarantees:

* a campaign interrupted after k of n cells resumes to aggregates
  bit-identical to an uninterrupted run;
* a warm-store rerun computes zero cells;
* on the process pool, each GA scheduler's cells run as group jobs (a
  lockstep map in one worker) with results equal to the serial run's;
* a crashed worker loses only its job in flight, one cell or one group:
  every finished job's cells are stored;
* store hits are bit-identical to fresh computation, on both sim engines;
* a manifest naming a retired backend option still resumes, with a warning;
* campaign aggregates equal the direct ``run_scenario_matrix`` /
  ``sweep_ga_parameter`` results with the same seed.
"""

import json
import logging
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.campaigns import (
    CampaignSpec,
    ResultStore,
    SweepSpec,
    expand_campaign,
    load_manifest,
    run_campaign,
)
from repro.campaigns import runner as runner_module
from repro.campaigns import store as store_module
from repro.campaigns.runner import run_campaign_cell
from repro.cli import main
from repro.experiments import get_scale, sweep_ga_parameter
from repro.parallel import ExperimentExecutor, ParallelExecutor
from repro.scenarios import run_scenario_matrix
from repro.telemetry import telemetry_session
from repro.util.errors import ConfigurationError, ExperimentInterrupted


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec(
        name="test-campaign",
        scale="smoke",
        seed=7,
        figures=("fig6",),
        scenarios=("failure-storm",),
        schedulers=("EF", "LL"),
        repeats=2,
        sweeps=(SweepSpec(parameter="n_rebalances", values=(0, 1), repeats=2),),
    )


@pytest.fixture(scope="module")
def reference_aggregates(spec, tmp_path_factory):
    """Aggregates of one uninterrupted serial run (shared by the tests)."""
    store = ResultStore(tmp_path_factory.mktemp("reference-store"))
    result = run_campaign(spec, store)
    assert result.complete
    return result.aggregates


class TestSpec:
    def test_roundtrip_through_dict(self, spec):
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            CampaignSpec(name="nothing")

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown figures"):
            CampaignSpec(name="x", figures=("fig99",))
        with pytest.raises(ConfigurationError, match="unknown scenarios"):
            CampaignSpec(name="x", scenarios=("no-such-scenario",))
        with pytest.raises(ConfigurationError, match="unknown schedulers"):
            CampaignSpec(name="x", scenarios=("failure-storm",), schedulers=("QQ",))
        with pytest.raises(ConfigurationError, match="unknown scale"):
            CampaignSpec(name="x", figures=("fig6",), scale="enormous")

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate figures"):
            CampaignSpec(name="x", figures=("fig6", "fig6"))
        with pytest.raises(ConfigurationError, match="duplicate values"):
            SweepSpec(parameter="n_rebalances", values=(1, 1))

    def test_retired_backend_keys_are_dropped_with_a_warning(self, spec):
        payload = dict(spec.to_dict(), ga_backend="loop", sim_backend=None)
        # A handler on the logger itself: the CLI's log setup may have turned
        # propagation to the root logger off earlier in the session.
        messages = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = lambda record: messages.append(record.getMessage())
        logger = logging.getLogger("repro.campaigns")
        logger.addHandler(handler)
        try:
            assert CampaignSpec.from_dict(payload) == spec
        finally:
            logger.removeHandler(handler)
        assert messages == [
            f"campaign {spec.name!r}: ignoring retired option ga_backend='loop'; "
            "every run takes the default path now"
        ]
        with pytest.raises(TypeError, match="sim_backend"):
            CampaignSpec(name="x", figures=("fig6",), sim_backend="event")


class TestExpansion:
    def test_expansion_is_deterministic(self, spec):
        a = expand_campaign(spec)
        b = expand_campaign(spec)
        assert [c.cell_id for c in a.cells] == [c.cell_id for c in b.cells]
        assert [c.key for c in a.cells] == [c.key for c in b.cells]

    def test_cell_inventory(self, spec):
        plan = expand_campaign(spec)
        ids = [c.cell_id for c in plan.cells]
        assert "figure:fig6" in ids
        assert "scenario:failure-storm/EF/r0" in ids
        assert "scenario:failure-storm/LL/r1" in ids
        assert "sweep:n_rebalances=0/r0" in ids
        assert "sweep:n_rebalances=1/r1" in ids
        assert len(ids) == 1 + 4 + 4

    def test_seed_changes_every_stochastic_key(self, spec):
        import dataclasses

        reseeded = dataclasses.replace(spec, seed=8)
        keys_a = {c.cell_id: c.key for c in expand_campaign(spec).cells}
        keys_b = {c.cell_id: c.key for c in expand_campaign(reseeded).cells}
        assert keys_a.keys() == keys_b.keys()
        assert all(keys_a[i] != keys_b[i] for i in keys_a)


class TestRunResumeCache:
    def test_complete_run_and_warm_rerun(self, spec, reference_aggregates, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = run_campaign(spec, store)
        assert first.complete
        assert first.computed == first.total_cells and first.cached == 0
        assert first.aggregates == reference_aggregates
        # Warm store: zero computed cells, identical aggregates.
        second = run_campaign(spec, store)
        assert second.complete
        assert second.computed == 0 and second.cached == second.total_cells
        assert second.aggregates == reference_aggregates

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_interrupt_then_resume_is_bit_identical(
        self, spec, reference_aggregates, tmp_path, k
    ):
        store = ResultStore(tmp_path / "store")
        partial = run_campaign(spec, store, max_cells=k)
        assert partial.interrupted and partial.interrupt_reason == "max-cells"
        assert partial.computed == k
        assert partial.aggregates is None
        resumed = run_campaign(spec, store)
        assert resumed.complete
        assert resumed.cached == k and resumed.computed == partial.total_cells - k
        assert resumed.aggregates == reference_aggregates

    def test_parallel_executor_matches_serial(self, spec, reference_aggregates, tmp_path):
        with ParallelExecutor(2) as executor:
            store = ResultStore(tmp_path / "process-store")
            result = run_campaign(spec, store, executor=executor)
        assert result.complete
        assert result.aggregates == reference_aggregates

    def test_worker_crash_keeps_finished_cells(
        self, spec, reference_aggregates, tmp_path, monkeypatch
    ):
        crashed = "scenario:failure-storm/EF/r0"
        monkeypatch.setattr(
            runner_module,
            "run_campaign_cell",
            _CrashOnce(crashed, str(tmp_path / "crashed.flag")),
        )
        store = ResultStore(tmp_path / "store")
        with ParallelExecutor(2) as executor:
            partial = run_campaign(spec, store, executor=executor)
            assert partial.interrupted and partial.interrupt_reason == "worker-crash"
            assert load_manifest(store, spec.name)["interrupt_reason"] == "worker-crash"
            # Every cell but the crashed one reached the store.
            assert partial.computed == partial.total_cells - 1
            resumed = run_campaign(spec, store, executor=executor)
        assert resumed.complete
        assert resumed.cached == resumed.total_cells - 1
        assert [c["cell_id"] for c in resumed.cells if c["status"] == "computed"] == [crashed]
        assert resumed.aggregates == reference_aggregates

    @pytest.mark.parametrize(
        "stop, reason, stored",
        [
            ("ctrl-c", "keyboard-interrupt", [0]),
            ("interrupted", "keyboard-interrupt", [0, 2]),
            ("crashed", "worker-crash", [0, 2]),
        ],
    )
    def test_interrupt_keeps_surfaced_cells_and_records_its_reason(
        self, spec, reference_aggregates, tmp_path, stop, reason, stored
    ):
        store = ResultStore(tmp_path / "store")
        partial = run_campaign(spec, store, executor=_StopAfterFirst(stop))
        assert partial.interrupted and partial.interrupt_reason == reason
        assert load_manifest(store, spec.name)["interrupt_reason"] == reason
        # Cell 2 finished out of order: kept from the exception's partials.
        computed = [i for i, c in enumerate(partial.cells) if c["status"] == "computed"]
        assert computed == stored
        resumed = run_campaign(spec, store)
        assert resumed.complete
        assert resumed.cached == len(stored)
        assert resumed.aggregates == reference_aggregates

    def test_store_hits_are_bit_identical_to_fresh_computation(self, tmp_path):
        """On both engines: stored payload == recomputed payload."""
        spec = CampaignSpec(
            name="parity",
            scale="smoke",
            seed=11,
            # steady-state replays through the fast path, failure-storm pumps
            # the event engine.
            scenarios=("steady-state", "failure-storm"),
            schedulers=("PN",),
            repeats=1,
            sweeps=(SweepSpec(parameter="n_rebalances", values=(1,), repeats=1),),
        )
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store)
        # Wall-clock measurements legitimately vary run to run; every
        # stochastic result must not.
        timing_fields = {
            "wall_clock_seconds",
            "events_per_second",
            "scheduling_seconds",
            "dispatch_seconds",
            "drain_seconds",
            "elapsed_seconds",
            "wall_time_seconds",
        }
        for cell in expand_campaign(spec).cells:
            fresh = run_campaign_cell(cell)["payload"]
            stored = store.payload(cell.key)
            for payload in (fresh, stored):
                for field in timing_fields:
                    payload.pop(field, None)
            assert stored == fresh, cell.cell_id

    def test_wall_clock_figures_stay_out_of_the_aggregates(self, tmp_path):
        # fig4's series are measured seconds: two independent runs must
        # still produce equal aggregates, with the measurement routed into
        # the machine-dependent timing section instead.
        spec = CampaignSpec(name="timed", scale="smoke", seed=5, figures=("fig4",))
        a = run_campaign(spec, ResultStore(tmp_path / "a"))
        b = run_campaign(spec, ResultStore(tmp_path / "b"))
        assert a.complete and b.complete
        assert a.aggregates == b.aggregates
        assert "figures" not in (a.aggregates or {})
        assert a.timing["figures"]["fig4"]["figure_id"] == "fig4"

    def test_retired_backend_manifest_resumes_on_the_default_path(
        self, tmp_path, monkeypatch, capsys
    ):
        spec = CampaignSpec(
            name="old", scale="smoke", seed=3, figures=("fig6",),
            scenarios=("steady-state",), schedulers=("EF", "PN"), repeats=1,
        )
        fresh = run_campaign(spec, ResultStore(tmp_path / "fresh"))
        # A store written under contract "1" by a run that selected the
        # retired backends: its records and its manifest's spec say so.
        store = ResultStore(tmp_path / "old")
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "CODE_CONTRACT_VERSION", "1")
            run_campaign(spec, store)
        manifest_path = store.manifest_path(spec.name)
        with open(manifest_path, encoding="utf8") as handle:
            manifest = json.load(handle)
        manifest["spec"].update(sim_backend="batch", ga_backend="loop", policy_backend=None)
        with open(manifest_path, "w", encoding="utf8") as handle:
            json.dump(manifest, handle)

        capsys.readouterr()
        assert main(["campaigns", "resume", "--store", str(store.root), spec.name]) == 0
        # The CLI logs to stderr: one warning per retired key, naming its value.
        warnings = [line for line in capsys.readouterr().err.splitlines() if "retired" in line]
        assert len(warnings) == 2
        assert "ga_backend='loop'" in warnings[0] and "sim_backend='batch'" in warnings[1]
        resumed = load_manifest(store, spec.name)
        # Contract "2" keys miss every old record: all cells are recomputed...
        assert resumed["computed_cells"] == resumed["total_cells"] == fresh.total_cells
        # ...to exactly the aggregates of a fresh run.
        assert resumed["aggregates"] == fresh.aggregates


class _StopAfterFirst(ExperimentExecutor):
    """In-process executor that delivers job 0, then stops as *stop* says.

    ``"ctrl-c"`` raises a bare ``KeyboardInterrupt`` (Ctrl-C in a serial
    run); ``"interrupted"`` and ``"crashed"`` raise the process pool's
    ``ExperimentInterrupted`` carrying job 2 as a finished partial, with no
    cause or with a ``BrokenProcessPool`` cause.
    """

    def __init__(self, stop):
        self.stop = stop

    def map(self, fn, jobs):
        return list(self.imap(fn, jobs))

    def imap(self, fn, jobs):
        yield fn(jobs[0])
        if self.stop == "ctrl-c":
            raise KeyboardInterrupt
        cause = BrokenProcessPool("worker died") if self.stop == "crashed" else None
        raise ExperimentInterrupted({2: fn(jobs[2])}, len(jobs)) from cause


class _CrashOnce:
    """Campaign cell function whose *cell_id* cell hard-exits its worker once.

    The crash comes long after the other cells' whole run time (~0.2 s), so
    the surviving worker has finished every other cell when the pool breaks.
    """

    def __init__(self, cell_id, flag_path):
        self.cell_id = cell_id
        self.flag_path = flag_path

    def __call__(self, cell):
        if cell.cell_id == self.cell_id and not os.path.exists(self.flag_path):
            with open(self.flag_path, "w", encoding="utf8") as handle:
                handle.write("crashed")
            time.sleep(2.0)
            os._exit(17)  # hard-kill this worker process mid-cell
        return run_campaign_cell(cell)


@pytest.fixture(scope="module")
def ga_spec():
    """PN, ZO and EF on two scenarios, two repeats: 12 cells, 8 of them GA."""
    return CampaignSpec(
        name="ga-groups",
        scale="smoke",
        seed=7,
        scenarios=("steady-state", "failure-storm"),
        schedulers=("PN", "ZO", "EF"),
        repeats=2,
    )


@pytest.fixture(scope="module")
def ga_reference(ga_spec, tmp_path_factory):
    """Aggregates of one uninterrupted serial run of *ga_spec*."""
    result = run_campaign(ga_spec, ResultStore(tmp_path_factory.mktemp("ga-reference")))
    assert result.complete
    return result.aggregates


def _ids(jobs):
    return [[cell.cell_id for cell in job] for job in jobs]


class TestPoolGroups:
    """Under the process pool, each GA scheduler's cells run as group jobs."""

    def test_groups_keep_cell_order_and_split_the_ga_cells_over_the_workers(self, ga_spec):
        cells = expand_campaign(ga_spec).cells
        pn = [c.cell_id for c in cells if "/PN/" in c.cell_id]
        zo = [c.cell_id for c in cells if "/ZO/" in c.cell_id]
        ef = [[c.cell_id] for c in cells if "/EF/" in c.cell_id]
        # Eight GA cells on two workers: one group of four per scheduler,
        # each where its first cell sits (cells 0 and 2).
        assert _ids(runner_module._pool_jobs(cells, 2)) == [pn, zo] + ef
        # On three workers at most three cells a group, in cell order; the
        # second groups start at the second scenario's PN and ZO cells.
        assert _ids(runner_module._pool_jobs(cells, 3)) == (
            [pn[:3], zo[:3]] + ef[:2] + [pn[3:], zo[3:]] + ef[2:]
        )
        # No more GA cells than workers: every job is one cell.
        assert _ids(runner_module._pool_jobs(cells, 8)) == [[c.cell_id] for c in cells]

    def test_groups_are_capped_and_a_figure_keeps_its_place(self):
        spec = CampaignSpec(
            name="cap",
            scale="smoke",
            figures=("fig6",),
            scenarios=("steady-state",),
            schedulers=("PN", "EF"),
            repeats=10,
        )
        cells = expand_campaign(spec).cells
        ids = [c.cell_id for c in cells]
        pn = [i for i in ids if "/PN/" in i]
        # Ten PN cells on two workers would be groups of five: the cap keeps
        # them to GROUP_CELLS (4), and the figure cell is still the first job.
        assert runner_module.GROUP_CELLS == 4
        assert _ids(runner_module._pool_jobs(cells, 2)) == (
            [["figure:fig6"], pn[:4], pn[4:8], pn[8:]] + [[i] for i in ids if "/EF/" in i]
        )

    def test_cells_whose_tasks_arrive_over_time_share_a_group(self, tmp_path):
        spec = CampaignSpec(
            name="arrival-groups",
            scale="smoke",
            seed=7,
            scenarios=("diurnal-load", "steady-state", "failure-storm", "trace-bursty"),
            schedulers=("PN", "ZO", "EF"),
            repeats=1,
        )
        cells = expand_campaign(spec).cells

        def cell(scenario, scheduler):
            return f"scenario:{scenario}/{scheduler}/r0"

        # diurnal-load and trace-bursty arrive over time, the other two at
        # once: per GA scheduler one group of each arrival class, each where
        # its first cell sits, so the over-time groups come first.
        over_time = ("diurnal-load", "trace-bursty")
        at_once = ("steady-state", "failure-storm")
        assert _ids(runner_module._pool_jobs(cells, 2)) == [
            [cell(s, "PN") for s in over_time],
            [cell(s, "ZO") for s in over_time],
            [cell("diurnal-load", "EF")],
            [cell(s, "PN") for s in at_once],
            [cell(s, "ZO") for s in at_once],
            [cell("steady-state", "EF")],
            [cell("failure-storm", "EF")],
            [cell("trace-bursty", "EF")],
        ]

        serial = run_campaign(spec, ResultStore(tmp_path / "serial"))
        with telemetry_session() as session:
            with ParallelExecutor(2) as executor:
                pooled = run_campaign(spec, ResultStore(tmp_path / "pool"), executor=executor)
        assert serial.complete and pooled.complete
        assert pooled.aggregates == serial.aggregates
        # The one-task GA runs of the two over-time PN cells stack.
        assert any(
            s.name == "ga:evolve" and s.attrs["n_tasks"] == 1 and s.attrs["stacked"] >= 2
            for s in session.spans
        )

    def test_serial_and_pool_aggregates_equal_the_direct_matrix(
        self, ga_spec, ga_reference, tmp_path
    ):
        with ParallelExecutor(2) as executor:
            pooled = run_campaign(ga_spec, ResultStore(tmp_path / "store"), executor=executor)
        assert pooled.complete and pooled.computed == 12
        assert pooled.aggregates == ga_reference
        # A grouped cell's seconds include its group-mates' turns: its manifest
        # entry and store record say how many cells shared the group.
        assert {c["cell_id"]: c.get("group_cells") for c in pooled.cells} == {
            c.cell_id: None if "/EF/" in c.cell_id else 4 for c in expand_campaign(ga_spec).cells
        }
        record = ResultStore(tmp_path / "store").get_record(expand_campaign(ga_spec).cells[0].key)
        assert record["meta"]["group_cells"] == 4
        direct = run_scenario_matrix(
            ["steady-state", "failure-storm"],
            scale=get_scale("smoke"),
            schedulers=["PN", "ZO", "EF"],
            repeats=2,
            seed=7,
        )
        assert ga_reference["scenarios"] == direct.signature()

    # The PN group of the whole run is cells 0, 1, 6 and 7: k = 7 stops inside
    # it, k = 8 at its end; k = 3 cuts both GA schedulers' cells.
    @pytest.mark.parametrize("k", [3, 7, 8])
    def test_max_cells_on_the_pool_computes_exactly_k_and_resumes(
        self, ga_spec, ga_reference, tmp_path, k
    ):
        store = ResultStore(tmp_path / "store")
        with ParallelExecutor(2) as executor:
            partial = run_campaign(ga_spec, store, executor=executor, max_cells=k)
            assert partial.interrupted and partial.interrupt_reason == "max-cells"
            statuses = [c["status"] for c in partial.cells]
            assert statuses == ["computed"] * k + ["pending"] * (12 - k)
            resumed = run_campaign(ga_spec, store, executor=executor)
        assert resumed.complete
        assert resumed.cached == k and resumed.computed == 12 - k
        assert resumed.aggregates == ga_reference

    def test_worker_crash_in_a_group_loses_only_that_group(
        self, ga_spec, ga_reference, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            runner_module,
            "run_campaign_cell",
            _CrashOnce("scenario:failure-storm/PN/r0", str(tmp_path / "crashed.flag")),
        )
        pn_group = [c.cell_id for c in expand_campaign(ga_spec).cells if "/PN/" in c.cell_id]
        store = ResultStore(tmp_path / "store")
        with ParallelExecutor(2) as executor:
            partial = run_campaign(ga_spec, store, executor=executor)
            assert partial.interrupted and partial.interrupt_reason == "worker-crash"
            assert load_manifest(store, ga_spec.name)["interrupt_reason"] == "worker-crash"
            # Every cell outside the crashed PN group reached the store.
            lost = [c["cell_id"] for c in partial.cells if c["status"] != "computed"]
            assert lost == pn_group
            resumed = run_campaign(ga_spec, store, executor=executor)
        assert resumed.complete
        assert [c["cell_id"] for c in resumed.cells if c["status"] == "computed"] == pn_group
        assert resumed.aggregates == ga_reference

    def test_pool_run_stacks_the_ga_runs_of_pn_cells(self, ga_spec, tmp_path):
        with telemetry_session() as session:
            with ParallelExecutor(2) as executor:
                result = run_campaign(ga_spec, ResultStore(tmp_path / "store"), executor=executor)
        assert result.complete
        by_id = {s.span_id: s for s in session.spans}

        def cell_of(span):
            while span is not None and not span.name.startswith("cell:"):
                span = by_id.get(span.parent_id)
            return span.name if span is not None else ""

        stacked = [
            s
            for s in session.spans
            if s.name == "ga:evolve" and s.attrs["stacked"] >= 2 and "/PN/" in cell_of(s)
        ]
        assert stacked and all(s.worker.startswith("pid-") for s in stacked)


class TestAggregatesMatchDirectRuns:
    def test_scenario_aggregates_equal_run_scenario_matrix(
        self, spec, reference_aggregates
    ):
        direct = run_scenario_matrix(
            ["failure-storm"],
            scale=get_scale("smoke"),
            schedulers=["EF", "LL"],
            repeats=2,
            seed=7,
        )
        assert reference_aggregates["scenarios"] == direct.signature()

    def test_sweep_aggregates_equal_sweep_ga_parameter(
        self, spec, reference_aggregates
    ):
        direct = sweep_ga_parameter(
            "n_rebalances", [0, 1], scale=get_scale("smoke"), seed=7, repeats=2
        )
        campaign_points = reference_aggregates["sweeps"]["n_rebalances"]
        for point in direct.points:
            entry = campaign_points[repr(point.value)]
            assert entry["makespan_mean"] == point.makespan.mean
            assert entry["makespan_std"] == point.makespan.std
            assert entry["reduction_mean"] == point.reduction.mean

    def test_figure_payload_present(self, reference_aggregates):
        figure = reference_aggregates["figures"]["fig6"]
        assert figure["figure_id"] == "fig6"
        assert set(figure["series"]) >= {"PN", "EF", "LL"}


class TestManifest:
    def test_manifest_checkpoints_and_final_state(self, spec, tmp_path):
        store = ResultStore(tmp_path / "store")
        partial = run_campaign(spec, store, max_cells=2)
        manifest = load_manifest(store, spec.name)
        assert manifest["interrupted"] is True
        assert manifest["computed_cells"] == 2
        assert manifest["aggregates"] is None
        statuses = {c["cell_id"]: c["status"] for c in manifest["cells"]}
        assert sum(1 for s in statuses.values() if s == "computed") == 2
        assert partial.manifest_path == store.manifest_path(spec.name)

        run_campaign(spec, store)
        manifest = load_manifest(store, spec.name)
        assert manifest["interrupted"] is False
        assert manifest["completed_cells"] == manifest["total_cells"]
        assert manifest["aggregates"] is not None
        assert "scenarios" in manifest["timing"]
        # Per-cell timing is recorded, outside the aggregates.
        scenario_rows = manifest["timing"]["scenarios"]["failure-storm"]
        for row in scenario_rows.values():
            assert "events_per_second_mean" in row
            assert "scheduling_mean_seconds" in row
            assert "dispatch_mean_seconds" in row
            assert "drain_mean_seconds" in row

    def test_manifest_with_a_machine_field_still_resumes(self, spec, tmp_path):
        # Manifests used to carry a machine fingerprint; loading checks only
        # the format version, so such a manifest resumes and is rewritten
        # without it.
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store, max_cells=1)
        path = store.manifest_path(spec.name)
        with open(path, encoding="utf8") as handle:
            manifest = json.load(handle)
        assert "machine" not in manifest
        manifest["machine"] = {"cpu_count": 2, "platform": "Linux", "python": "3.11"}
        with open(path, "w", encoding="utf8") as handle:
            json.dump(manifest, handle)
        assert load_manifest(store, spec.name)["machine"]["cpu_count"] == 2
        assert main(["campaigns", "resume", "--store", str(store.root), spec.name]) == 0
        resumed = load_manifest(store, spec.name)
        assert "machine" not in resumed
        assert resumed["completed_cells"] == resumed["total_cells"]

    def test_resume_roundtrips_the_spec(self, spec, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store, max_cells=1)
        manifest = load_manifest(store, spec.name)
        assert CampaignSpec.from_dict(manifest["spec"]) == spec

    def test_colliding_sanitised_names_are_rejected(self, tmp_path):
        # "exp/1" and "exp-1" sanitise onto the same manifest file; the
        # second campaign must fail loudly instead of overwriting the first.
        store = ResultStore(tmp_path / "store")
        first = CampaignSpec(
            name="exp/1", scale="smoke", seed=3,
            scenarios=("steady-state",), schedulers=("EF",), repeats=1,
        )
        run_campaign(first, store)
        import dataclasses

        with pytest.raises(ConfigurationError, match="collides"):
            run_campaign(dataclasses.replace(first, name="exp-1"), store)
        # Re-running the *same* campaign is still fine.
        assert run_campaign(first, store).computed == 0

    def test_unknown_campaign_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="no campaign"):
            load_manifest(store, "missing")

    def test_max_cells_validation(self, spec, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="max_cells"):
            run_campaign(spec, store, max_cells=0)
