"""Tier-1 checks of the end-to-end benchmark, run on a reduced size table."""

from __future__ import annotations

import numpy as np
import pytest

import run
import workloads
from repro.telemetry import Span
from tracing import cut_out, self_times, tail

#: Test-only sizes: every workload keeps its shape and does a sliver of its work.
TEST_SIZES = {
    "figures_small": {"scale": "smoke", "figures": ["fig6"]},
    "heuristics_paper": {
        "scale": "smoke",
        "n_tasks": 300,
        "repeats": 1,
        "comm_cost": 20.0,
        "shapes": ["normal", "poisson_small"],
    },
    "dynamics_paper": {
        "scale": "smoke",
        "repeats": 1,
        "scenarios": ["flash-crowd", "failure-storm"],
    },
    "campaign_small": {
        "scale": "smoke",
        "repeats": 1,
        "jobs": 2,
        "scenarios": ["steady-state", "failure-storm"],
    },
}


@pytest.fixture(scope="module")
def records():
    """One untraced and one traced record per workload, both at seed 0."""
    with pytest.MonkeyPatch.context() as patch:
        # The machine-speed loop is not under test here and costs ~0.3 s a run.
        patch.setattr(run, "calibrate", lambda: 0.1)
        return {
            (name, trace): run.measure(name, 0, trace, sizes=sizes, setup_runs=1)
            for name, sizes in TEST_SIZES.items()
            for trace in (False, True)
        }


def test_every_declared_metric_is_emitted_with_its_unit(records):
    benchmark = run.load_benchmark()
    for (name, trace), record in records.items():
        section = benchmark["per_layer" if trace else "end_to_end"]
        metrics = run.declared_metrics(record, benchmark)
        assert {m["name"]: m["unit"] for m in section} == {
            key: metric["unit"] for key, metric in metrics.items()
        }, name
        assert record["correct"] and record["attempted"] > 0, name
        if not trace:
            assert all(metric["value"] > 0 for metric in metrics.values()), name


def test_traced_runs_attribute_work_to_the_right_layers(records):
    figures = records[("figures_small", True)]["values"]
    assert figures["ga.evolve_calls"] > 0 and figures["core.pn_calls"] > 0
    for name in ("heuristics_paper", "dynamics_paper"):
        values = records[(name, True)]["values"]
        assert values["ga.evolve_calls"] == 0 and values["schedulers.calls"] > 0, name
    assert records[("heuristics_paper", True)]["values"]["sim.event_runs"] == 0
    assert records[("dynamics_paper", True)]["values"]["sim.fast_runs"] == 0
    assert records[("campaign_small", True)]["values"]["parallel.workers"] == 2
    for (name, trace), record in records.items():
        if trace:
            assert record["values"]["sim.invalid"] == 0, name


def test_digests_are_stable_across_calls(records):
    for name in TEST_SIZES:
        untraced, traced = records[(name, False)], records[(name, True)]
        assert untraced["digest"] == traced["digest"], name
        assert [op["digest"] for op in untraced["ops"]] == [op["digest"] for op in traced["ops"]]


def test_a_golden_mismatch_counts_as_a_failed_operation(tmp_path):
    sizes = TEST_SIZES["heuristics_paper"]
    job = {"workload": "heuristics_paper", "trace": False, "golden": None}
    workload = workloads.HeuristicsPaper(sizes, 0, tmp_path)
    golden = workloads.golden_digests(workloads.measure(workload, job)["ops"])
    golden["normal"] = "0" * 64
    result = workloads.measure(workload, dict(job, golden=golden))
    assert (result["attempted"], result["failed"], result["golden_mismatches"]) == (2, 1, 1)
    assert [op["name"] for op in result["ops"] if op["error"]] == ["normal"]


def _span(span_id, parent_id, start, duration, name="x", **attrs):
    return Span(name, span_id, parent_id, start=start, duration=duration, attrs=attrs)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0, hot_s=0.5),  # [1, 4], half a second of hot calls
        _span(2, 0, 3.0, 4.0),  # [3, 7] overlaps span 1 on [3, 4]
        _span(3, 1, 1.5, 1.0),  # [1.5, 2.5] inside span 1
        _span(4, 0, 9.0, 2.0),  # [9, 11] sticks out of its parent's [0, 10]
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 1.5, 2: 4.0, 3: 1.0, 4: 2.0})


def test_cut_out_stops_the_clock_while_a_removed_span_runs():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 2.0, 3.0, name="check"),
        _span(2, 0, 6.0, 2.0),
    ]
    kept = cut_out(spans, "check")
    assert [(s.span_id, s.start, s.duration) for s in kept] == [(0, 0.0, 7.0), (2, 3.0, 2.0)]


@pytest.mark.parametrize(
    "n, label",
    [
        (99, None),
        (100, "p90"),
        (199, "p90"),
        (200, "p95"),
        (500, "p98"),
        (1000, "p99"),
        (9999, "p99"),
        (10000, "p99.9"),
    ],
)
def test_tail_picks_the_highest_percentile_with_ten_samples_beyond(n, label):
    samples = np.arange(n, dtype=float)
    value, quantile, count = tail(samples)
    assert (quantile, count) == (label, n)
    expected = 0.0 if label is None else np.percentile(samples, float(label[1:]))
    assert value == pytest.approx(expected)
