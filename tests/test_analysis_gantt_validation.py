"""Tests for Gantt rendering and schedule validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    render_gantt,
    utilisation_sparkline,
    validate_simulation,
    validate_trace,
)
from repro.cluster import homogeneous_cluster
from repro.schedulers import EarliestFirstScheduler
from repro.sim import ExecutionTrace, TaskRecord, simulate_schedule
from repro.util.errors import ConfigurationError
from repro.workloads import Task, TaskSet, UniformSizes, WorkloadSpec, generate_workload


def record(task_id=0, proc=0, size=100.0, dispatch=0.0, start=1.0, end=4.0, arrival=0.0):
    return TaskRecord(
        task_id=task_id,
        proc_id=proc,
        size_mflops=size,
        arrival_time=arrival,
        assigned_time=arrival,
        dispatch_time=dispatch,
        exec_start=start,
        exec_end=end,
    )


@pytest.fixture
def simple_trace():
    trace = ExecutionTrace(2)
    trace.add(record(task_id=0, proc=0, dispatch=0.0, start=1.0, end=5.0))
    trace.add(record(task_id=1, proc=1, dispatch=0.0, start=0.5, end=10.0))
    return trace


class TestRenderGantt:
    def test_contains_one_row_per_processor(self, simple_trace):
        text = render_gantt(simple_trace, width=40)
        assert "P0" in text and "P1" in text

    def test_row_width_respected(self, simple_trace):
        text = render_gantt(simple_trace, width=30, show_legend=False)
        rows = [line for line in text.splitlines() if line.startswith("P")]
        for row in rows:
            inner = row.split("|")[1]
            assert len(inner) == 30

    def test_execution_marks_present(self, simple_trace):
        text = render_gantt(simple_trace, width=40)
        assert "#" in text

    def test_idle_marks_for_short_task(self, simple_trace):
        text = render_gantt(simple_trace, width=40, show_legend=False)
        p0_row = next(line for line in text.splitlines() if line.startswith("P0"))
        assert "." in p0_row  # P0 is idle for half the makespan

    def test_legend_toggle(self, simple_trace):
        assert "legend" in render_gantt(simple_trace)
        assert "legend" not in render_gantt(simple_trace, show_legend=False)

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            render_gantt(ExecutionTrace(1))

    def test_invalid_width_rejected(self, simple_trace):
        with pytest.raises(ConfigurationError):
            render_gantt(simple_trace, width=0)

    def test_renders_real_simulation(self, small_cluster, small_tasks):
        result = simulate_schedule(EarliestFirstScheduler(), small_cluster, small_tasks, rng=0)
        text = render_gantt(result.trace, width=60)
        assert text.count("\n") >= small_cluster.n_processors


class TestUtilisationSparkline:
    def test_one_char_per_processor(self, simple_trace):
        line = utilisation_sparkline(simple_trace)
        assert len(line) == 2

    def test_busier_processor_denser(self, simple_trace):
        levels = " .:-=+*#%@"
        line = utilisation_sparkline(simple_trace, levels=levels)
        assert levels.index(line[1]) > levels.index(line[0])

    def test_invalid_levels(self, simple_trace):
        with pytest.raises(ConfigurationError):
            utilisation_sparkline(simple_trace, levels="x")


class TestValidateTrace:
    def test_clean_trace_passes(self, simple_trace):
        report = validate_trace(simple_trace)
        assert report.ok
        assert report.checks_run >= 3

    def test_duplicate_task_detected(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, start=1.0, end=2.0))
        trace.add(record(task_id=0, start=3.0, end=4.0, dispatch=2.5))
        report = validate_trace(trace)
        assert not report.ok
        assert any(issue.code == "duplicate-task" for issue in report.issues)

    def test_overlap_detected(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, start=1.0, end=5.0))
        trace.add(record(task_id=1, start=3.0, end=6.0, dispatch=2.0))
        report = validate_trace(trace)
        assert any(issue.code == "overlap" for issue in report.issues)

    def test_missing_task_detected(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, size=10.0))
        tasks = TaskSet([Task(0, 10.0), Task(1, 20.0)])
        report = validate_trace(trace, tasks)
        assert any(issue.code == "missing-task" for issue in report.issues)

    def test_size_mismatch_detected(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, size=999.0))
        report = validate_trace(trace, TaskSet([Task(0, 10.0)]))
        assert any(issue.code == "size-mismatch" for issue in report.issues)

    def test_summary_strings(self, simple_trace):
        report = validate_trace(simple_trace)
        assert "OK" in report.summary()


class TestValidateSimulation:
    def test_real_simulation_is_valid(self):
        cluster = homogeneous_cluster(3, rate_mflops=100.0, mean_comm_cost=0.5)
        tasks = generate_workload(WorkloadSpec(n_tasks=30, sizes=UniformSizes(10, 300)), rng=0)
        result = simulate_schedule(EarliestFirstScheduler(), cluster, tasks, rng=1)
        report = validate_simulation(result, tasks)
        assert report.ok, [str(i) for i in report.issues]

    def test_every_builtin_scheduler_produces_valid_schedules(self, small_cluster, small_tasks):
        from repro.schedulers import make_scheduler, ALL_SCHEDULER_NAMES

        for name in ALL_SCHEDULER_NAMES:
            scheduler = make_scheduler(
                name, n_processors=small_cluster.n_processors, batch_size=6, max_generations=5
            )
            result = simulate_schedule(scheduler, small_cluster, small_tasks, rng=3)
            report = validate_simulation(result, small_tasks)
            assert report.ok, (name, [str(i) for i in report.issues])


def per_record_issues(trace, tasks=None):
    """The record-by-record validator ``validate_trace`` replaced: its checks
    count and its ``(code, message)`` issues, in order."""
    issues = []
    checks = 1
    seen_ids = [r.task_id for r in trace]
    if len(set(seen_ids)) != len(seen_ids):
        duplicates = sorted({tid for tid in seen_ids if seen_ids.count(tid) > 1})
        issues.append(("duplicate-task", f"tasks executed more than once: {duplicates}"))
    if tasks is not None:
        checks += 1
        submitted, executed = set(tasks.task_ids), set(seen_ids)
        if submitted - executed:
            missing = sorted(submitted - executed)[:10]
            issues.append(("missing-task", f"submitted tasks never executed: {missing}"))
        if executed - submitted:
            unknown = sorted(executed - submitted)[:10]
            issues.append(("unknown-task", f"executed tasks never submitted: {unknown}"))
    checks += 1
    eps = 1e-6
    for r in trace:
        if not (
            r.arrival_time <= r.assigned_time + eps
            and r.assigned_time <= r.dispatch_time + eps
            and r.dispatch_time <= r.exec_start + eps
            and r.exec_start <= r.exec_end + eps
        ):
            issues.append((
                "record-ordering",
                f"task {r.task_id}: inconsistent times ({r.arrival_time}, "
                f"{r.assigned_time}, {r.dispatch_time}, {r.exec_start}, {r.exec_end})",
            ))
        if tasks is not None and r.task_id in tasks:
            task = tasks.get(r.task_id)
            if abs(task.size_mflops - r.size_mflops) > eps:
                issues.append((
                    "size-mismatch",
                    f"task {r.task_id}: submitted {task.size_mflops} MFLOPs but "
                    f"recorded {r.size_mflops}",
                ))
            if r.dispatch_time + eps < task.arrival_time:
                issues.append((
                    "dispatch-before-arrival",
                    f"task {r.task_id} dispatched at {r.dispatch_time} "
                    f"before its arrival at {task.arrival_time}",
                ))
    checks += 1
    for proc in range(trace.n_processors):
        records = trace.records_for(proc)
        for earlier, later in zip(records, records[1:]):
            if later.exec_start + eps < earlier.exec_end:
                issues.append((
                    "overlap",
                    f"processor {proc}: task {later.task_id} starts at {later.exec_start} "
                    f"before task {earlier.task_id} ends at {earlier.exec_end}",
                ))
    return checks, issues


#: Times from a few values, so orderings, ties and overlaps all occur.
TIMES = st.sampled_from([0.0, 1.0, 1.0 + 1e-7, 2.5, 4.0])


@st.composite
def traces_and_tasks(draw):
    n = draw(st.integers(0, 10))
    columns = [
        draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from([10.0, 20.0]), min_size=n, max_size=n)),
    ] + [draw(st.lists(TIMES, min_size=n, max_size=n)) for _ in range(5)]
    trace = ExecutionTrace(3)
    trace.extend_records(*columns)
    tasks = None
    if draw(st.booleans()):
        ids = draw(st.permutations(sorted(draw(st.sets(st.integers(0, 6))))))
        tasks = TaskSet(
            Task(i, draw(st.sampled_from([10.0, 20.0])), draw(st.sampled_from([0.0, 2.0])))
            for i in ids
        )
    return trace, tasks


class TestValidateTraceColumns:
    @given(case=traces_and_tasks())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_record_validator(self, case):
        trace, tasks = case
        report = validate_trace(trace, tasks)
        checks, issues = per_record_issues(trace, tasks)
        assert report.checks_run == checks
        assert [(issue.code, issue.message) for issue in report.issues] == issues

    def test_every_issue_code_fires(self):
        trace = ExecutionTrace(1)
        trace.extend_records(
            [0, 0, 5], [0, 0, 0], [10.0, 10.0, 10.0],
            [0.0, 0.0, 3.0], [0.0, 0.0, 3.0], [0.0, 1.0, 2.0], [1.0, 1.5, 2.0], [2.0, 3.0, 4.0],
        )
        report = validate_trace(trace, TaskSet([Task(0, 20.0, 2.0), Task(1, 10.0)]))
        assert {issue.code for issue in report.issues} == {
            "duplicate-task",
            "missing-task",
            "unknown-task",
            "record-ordering",
            "size-mismatch",
            "dispatch-before-arrival",
            "overlap",
        }


class TestSuiteHook:
    def test_an_invalid_simulated_schedule_is_recorded(
        self, every_simulation_is_valid, monkeypatch, small_cluster, small_tasks
    ):
        # The root conftest validates every simulation a test runs; drop one
        # completion record on its way into the trace, and it must notice.
        extend = ExecutionTrace.extend_records

        def drop_first(trace, *columns):
            extend(trace, *(np.asarray(column)[1:] for column in columns))

        monkeypatch.setattr(ExecutionTrace, "extend_records", drop_first)
        simulate_schedule(EarliestFirstScheduler(), small_cluster, small_tasks, rng=0)
        assert len(every_simulation_is_valid) == 1
        scheduler, issues = every_simulation_is_valid[0]
        assert scheduler == "EF"
        assert any(issue.startswith("[missing-task]") for issue in issues)
        every_simulation_is_valid.clear()  # so this test's teardown passes

    def test_plain_task_lists_and_load_spikes_are_validated(
        self, every_simulation_is_valid, small_cluster, small_tasks
    ):
        from repro.scenarios.dynamics import DynamicsTimeline, LoadSpike
        from repro.workloads import ConstantSizes

        simulate_schedule(EarliestFirstScheduler(), small_cluster, list(small_tasks), rng=0)
        timeline = DynamicsTimeline([LoadSpike(1.0, n_tasks=3, sizes=ConstantSizes(50.0))])
        result = simulate_schedule(
            EarliestFirstScheduler(), small_cluster, small_tasks, dynamics=timeline, rng=0
        )
        assert result.tasks_injected == 3
        assert every_simulation_is_valid == []
