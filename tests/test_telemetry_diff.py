"""Tests for run-to-run telemetry diffing (``repro.telemetry.diff``).

The alignment contract under test: spans align by *name path* only — worker
placement (``pid-<n>``) and execution order must not change a diff — and a
path present in one run only is a finding ("added"/"removed"), not an error.
"""

import json
import math

import pytest

from repro.cli import main
from repro.telemetry import (
    TelemetrySession,
    diff_record,
    diff_runs,
    render_diff,
    write_run_jsonl,
)
from repro.telemetry.diff import (
    DEFAULT_MIN_SECONDS,
    DIFF_FORMAT_VERSION,
    aggregate_by_path,
)
from repro.telemetry.spans import Span
from repro.util.errors import ConfigurationError


def _span(name, span_id, parent_id=None, duration=0.0, worker="", cpu=0.0, rss=0):
    return Span(
        name=name,
        span_id=span_id,
        parent_id=parent_id,
        start=0.0,
        duration=duration,
        worker=worker,
        cpu_time=cpu,
        rss_delta=rss,
    )


def _run(spans, run_id="tr-test", counters=None, meta=None):
    return {
        "run_id": run_id,
        "meta": meta or {},
        "spans": list(spans),
        "metrics": {"counters": dict(counters or {})},
    }


class TestAggregateByPath:
    def test_same_name_spans_fold_into_one_node(self):
        spans = [
            _span("root", 0, duration=3.0),
            _span("phase", 1, parent_id=0, duration=1.0, cpu=0.5),
            _span("phase", 2, parent_id=0, duration=2.0, cpu=0.25),
        ]
        nodes = aggregate_by_path(spans)
        assert set(nodes) == {"root", "root/phase"}
        phase = nodes["root/phase"]
        assert phase.count == 2
        assert phase.elapsed == pytest.approx(3.0)
        assert phase.cpu_time == pytest.approx(0.75)
        assert phase.depth == 1
        assert nodes["root"].depth == 0

    def test_worker_attribution_collected_but_not_keyed(self):
        spans = [
            _span("root", 0, duration=1.0),
            _span("cell", 1, parent_id=0, duration=0.5, worker="pid-11"),
            _span("cell", 2, parent_id=0, duration=0.5, worker="pid-22"),
        ]
        nodes = aggregate_by_path(spans)
        assert set(nodes) == {"root", "root/cell"}
        assert sorted(nodes["root/cell"].workers) == ["pid-11", "pid-22"]

    def test_orphan_parent_aggregates_as_root(self):
        nodes = aggregate_by_path([_span("lost", 5, parent_id=99, duration=1.0)])
        assert set(nodes) == {"lost"}
        assert nodes["lost"].depth == 0

    def test_parent_cycle_terminates(self):
        # Malformed input (a <-> b): the walk must break the cycle, not hang.
        spans = [
            _span("a", 0, parent_id=1, duration=0.1),
            _span("b", 1, parent_id=0, duration=0.1),
        ]
        nodes = aggregate_by_path(spans)
        assert len(nodes) == 2


class TestAlignment:
    def test_reordered_pid_subtrees_diff_flat(self):
        """Same cells, different workers + different order => no differences."""

        def run(order, workers):
            spans = [_span("campaign", 0, duration=2.0)]
            next_id = 1
            for cell, worker in zip(order, workers):
                spans.append(
                    _span(f"cell:{cell}", next_id, parent_id=0, duration=0.8,
                          worker=worker)
                )
                spans.append(
                    _span("sim:run", next_id + 1, parent_id=next_id,
                          duration=0.7, worker=worker)
                )
                next_id += 2
            return _run(spans)

        a = run(["x", "y"], ["pid-1", "pid-2"])
        b = run(["y", "x"], ["pid-9", "pid-8"])
        diff = diff_runs(a, b)
        assert all(d.direction == "flat" for d in diff.deltas)
        assert diff.deepest_regression is None
        assert "no significant differences" in render_diff(diff)

    def test_missing_subtree_reports_removed(self):
        cold = _run(
            [
                _span("campaign", 0, duration=1.0),
                _span("sim:run", 1, parent_id=0, duration=0.9),
            ],
            counters={"campaign.cells_computed": 4.0},
        )
        warm = _run(
            [_span("campaign", 0, duration=0.01)],
            counters={"campaign.cells_cached": 4.0},
        )
        diff = diff_runs(cold, warm)
        gone = diff.node("campaign/sim:run")
        assert gone.direction == "removed"
        assert gone.significant
        assert gone.count_b == 0
        # The cache-hit attribution the warm-rerun acceptance demands:
        assert diff.counter_deltas["campaign.cells_cached"] == 4.0
        assert diff.counter_deltas["campaign.cells_computed"] == -4.0
        assert "gone" in render_diff(diff)

    def test_new_subtree_reports_added_with_none_ratio(self):
        a = _run([_span("root", 0, duration=1.0)])
        b = _run(
            [
                _span("root", 0, duration=1.0),
                _span("extra", 1, parent_id=0, duration=0.5),
            ]
        )
        diff = diff_runs(a, b)
        added = diff.node("root/extra")
        assert added.direction == "added"
        assert math.isinf(added.delta_ratio)
        assert added.to_dict()["delta_ratio"] is None


class TestSignificance:
    def test_relative_threshold(self):
        a = _run([_span("root", 0, duration=1.0)])
        b = _run([_span("root", 0, duration=1.04)])
        assert diff_runs(a, b, threshold=0.05).node("root").direction == "flat"
        slower = _run([_span("root", 0, duration=1.2)])
        regressed = diff_runs(a, slower, threshold=0.05).node("root")
        assert regressed.direction == "regressed" and regressed.significant

    def test_absolute_floor_silences_tiny_spans(self):
        # 4x relative change, but the absolute delta is far below the floor.
        a = _run([_span("root", 0, duration=0.0002)])
        b = _run([_span("root", 0, duration=0.0008)])
        assert diff_runs(a, b).node("root").direction == "flat"
        assert DEFAULT_MIN_SECONDS == pytest.approx(1e-3)

    def test_improvement_direction_and_sorting(self):
        a = _run(
            [
                _span("root", 0, duration=3.0),
                _span("slow", 1, parent_id=0, duration=2.0),
                _span("quick", 2, parent_id=0, duration=1.0),
            ]
        )
        b = _run(
            [
                _span("root", 0, duration=1.5),
                _span("slow", 1, parent_id=0, duration=0.4),
                _span("quick", 2, parent_id=0, duration=0.9),
            ]
        )
        diff = diff_runs(a, b)
        improvements = diff.improvements
        assert [d.path for d in improvements[:2]] == ["root/slow", "root"]
        assert not diff.regressions

    def test_negative_threshold_rejected(self):
        run = _run([_span("root", 0, duration=1.0)])
        with pytest.raises(ConfigurationError):
            diff_runs(run, run, threshold=-0.1)


class TestDeepestRegression:
    def test_descends_while_child_explains_parent(self):
        def run(root, mid, leaf, other):
            return _run(
                [
                    _span("root", 0, duration=root),
                    _span("mid", 1, parent_id=0, duration=mid),
                    _span("leaf", 2, parent_id=1, duration=leaf),
                    _span("other", 3, parent_id=0, duration=other),
                ]
            )

        diff = diff_runs(run(2.0, 1.0, 0.8, 0.5), run(3.0, 1.95, 1.7, 0.55))
        assert diff.deepest_regression.path == "root/mid/leaf"

    def test_stops_when_no_child_explains_half(self):
        a = _run(
            [
                _span("root", 0, duration=2.0),
                _span("a", 1, parent_id=0, duration=0.5),
                _span("b", 2, parent_id=0, duration=0.5),
            ]
        )
        # root +1.0s but each child only +0.3s: the regression is diffuse,
        # so it pins on the root, not an arbitrary child.
        b = _run(
            [
                _span("root", 0, duration=3.0),
                _span("a", 1, parent_id=0, duration=0.8),
                _span("b", 2, parent_id=0, duration=0.8),
            ]
        )
        assert diff_runs(a, b).deepest_regression.path == "root"

    def test_none_when_nothing_regressed(self):
        run = _run([_span("root", 0, duration=1.0)])
        assert diff_runs(run, run).deepest_regression is None


class TestRecord:
    def _diff(self):
        a = _run([_span("root", 0, duration=1.0)], run_id="tr-a", meta={"v": 1})
        b = _run([_span("root", 0, duration=2.0)], run_id="tr-b", meta={"v": 2})
        return diff_runs(a, b)

    def test_record_round_trip(self, tmp_path):
        record = diff_record(self._diff())
        path = tmp_path / "diff.json"
        path.write_text(json.dumps(record))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(record))
        assert loaded["kind"] == "telemetry_diff"
        assert loaded["format_version"] == DIFF_FORMAT_VERSION
        assert loaded["run_a"]["run_id"] == "tr-a"
        assert loaded["n_regressions"] == 1
        assert loaded["deepest_regression"]["path"] == "root"
        assert loaded["total_elapsed_a"] == pytest.approx(1.0)
        assert loaded["total_elapsed_b"] == pytest.approx(2.0)

    def test_render_marks_significant_rows_and_verdict(self):
        text = render_diff(self._diff())
        assert "! root" in text
        assert "deepest regressed span: root" in text
        assert "baseline  tr-a" in text and "candidate tr-b" in text


class TestCliDiff:
    def _export(self, path, durations, meta):
        session = TelemetrySession()
        with session.span("root"):
            for name, duration in durations.items():
                session.record_span(name, duration)
        write_run_jsonl(str(path), session, meta=meta)

    def test_diff_command_exits_zero_and_writes_record(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._export(a, {"phase:x": 1.0, "phase:y": 0.5}, {"run": "a"})
        self._export(b, {"phase:x": 2.0, "phase:y": 0.5}, {"run": "b"})
        out_path = tmp_path / "nested" / "dir" / "diff.json"
        assert main(
            ["telemetry", "diff", str(a), str(b), "--output", str(out_path)]
        ) == 0
        rendered = capsys.readouterr().out
        assert "deepest regressed span: root/phase:x" in rendered
        record = json.loads(out_path.read_text())  # parent dirs were created
        assert record["deepest_regression"]["path"] == "root/phase:x"

    def test_diff_is_informational_even_on_regression(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._export(a, {"phase:x": 0.1}, {"run": "a"})
        self._export(b, {"phase:x": 5.0}, {"run": "b"})
        assert main(["telemetry", "diff", str(a), str(b)]) == 0
        capsys.readouterr()

    def test_diff_missing_file_errors(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        self._export(a, {"p": 0.1}, {"run": "a"})
        assert main(["telemetry", "diff", str(a), str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err
