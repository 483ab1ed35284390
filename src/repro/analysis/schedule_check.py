"""Schedule validation: structural checks over a finished simulation.

The experiments hinge on the simulator behaving physically: a processor never
executes two tasks at once, every task is processed exactly once, no task
starts before it arrived, and the reported metrics follow from the trace.
:func:`validate_simulation` re-derives all of that from the raw trace and
returns a report listing any violations — it is used by the integration tests
and is handy when developing new schedulers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..sim.metrics import compute_metrics
from ..sim.simulation import SimulationResult
from ..sim.trace import ExecutionTrace
from ..workloads.task import TaskSet

__all__ = ["ValidationIssue", "ValidationReport", "validate_trace", "validate_simulation"]

#: Numerical slack used when comparing floating-point times.
TIME_EPS = 1e-6


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant."""

    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.code}] {self.message}"


@dataclass
class ValidationReport:
    """Outcome of validating a trace or simulation result."""

    issues: List[ValidationIssue] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.issues

    def add(self, code: str, message: str) -> None:
        """Record one violation."""
        self.issues.append(ValidationIssue(code=code, message=message))

    def summary(self) -> str:
        """One-line human readable summary."""
        status = "OK" if self.ok else f"{len(self.issues)} issue(s)"
        return f"schedule validation: {status} ({self.checks_run} checks)"


def validate_trace(trace: ExecutionTrace, tasks: Optional[TaskSet] = None) -> ValidationReport:
    """Check the physical consistency of an execution trace.

    Checks performed:

    * every task appears at most once (and, when *tasks* is given, exactly the
      submitted tasks appear, each exactly once);
    * per-record time ordering (arrival <= assignment <= dispatch <= start <= end);
    * no two executions overlap on the same processor;
    * when *tasks* is given, recorded sizes match the submitted sizes and no
      task is dispatched before its arrival time.

    Every check runs over the trace's columns; only violating records are
    visited one by one, to word their issues.
    """
    report = ValidationReport()
    ids = trace.column("task_id")
    procs = trace.column("proc_id")
    sizes = trace.column("size_mflops")
    arrival = trace.column("arrival_time")
    assigned = trace.column("assigned_time")
    dispatch = trace.column("dispatch_time")
    start = trace.column("exec_start")
    end = trace.column("exec_end")

    # -- uniqueness / coverage ---------------------------------------------------------
    report.checks_run += 1
    unique, counts = np.unique(ids, return_counts=True)
    if unique.size != ids.size:
        duplicates = unique[counts > 1].tolist()
        report.add("duplicate-task", f"tasks executed more than once: {duplicates}")

    if tasks is not None:
        report.checks_run += 1
        submitted = set(tasks.task_ids)
        executed = set(unique.tolist())
        missing = submitted - executed
        unknown = executed - submitted
        if missing:
            report.add("missing-task", f"submitted tasks never executed: {sorted(missing)[:10]}")
        if unknown:
            report.add("unknown-task", f"executed tasks never submitted: {sorted(unknown)[:10]}")

    # -- per-record consistency -----------------------------------------------------------
    report.checks_run += 1
    disordered = ~(
        (arrival <= assigned + TIME_EPS)
        & (assigned <= dispatch + TIME_EPS)
        & (dispatch <= start + TIME_EPS)
        & (start <= end + TIME_EPS)
    )
    resized = early = np.zeros(ids.size, dtype=bool)
    if tasks is not None and len(tasks):
        # Each record's submitted task (its slot in *tasks*), where there is one.
        submitted_ids = np.asarray(tasks.task_ids, dtype=np.int64)
        by_id = np.argsort(submitted_ids)
        found = np.searchsorted(submitted_ids, ids, sorter=by_id)
        slot = by_id[np.minimum(found, by_id.size - 1)]
        known = submitted_ids[slot] == ids
        submitted_size = tasks.sizes()[slot]
        submitted_arrival = tasks.arrival_times()[slot]
        resized = known & (np.abs(submitted_size - sizes) > TIME_EPS)
        early = known & (dispatch + TIME_EPS < submitted_arrival)
    for i in np.flatnonzero(disordered | resized | early).tolist():
        task_id = int(ids[i])
        if disordered[i]:
            report.add(
                "record-ordering",
                f"task {task_id}: inconsistent times "
                f"({float(arrival[i])}, {float(assigned[i])}, {float(dispatch[i])}, "
                f"{float(start[i])}, {float(end[i])})",
            )
        if resized[i]:
            report.add(
                "size-mismatch",
                f"task {task_id}: submitted {float(submitted_size[i])} MFLOPs but "
                f"recorded {float(sizes[i])}",
            )
        if early[i]:
            report.add(
                "dispatch-before-arrival",
                f"task {task_id} dispatched at {float(dispatch[i])} "
                f"before its arrival at {float(submitted_arrival[i])}",
            )

    # -- no overlapping executions on one processor -----------------------------------------
    report.checks_run += 1
    # By processor, then by start; equal starts keep record order.
    order = np.lexsort((start, procs))
    earlier, later = order[:-1], order[1:]
    overlaps = (procs[earlier] == procs[later]) & (start[later] + TIME_EPS < end[earlier])
    for e, l in zip(earlier[overlaps].tolist(), later[overlaps].tolist()):
        report.add(
            "overlap",
            f"processor {int(procs[e])}: task {int(ids[l])} starts at {float(start[l])} "
            f"before task {int(ids[e])} ends at {float(end[e])}",
        )
    return report


def validate_simulation(
    result: SimulationResult, tasks: Optional[TaskSet] = None
) -> ValidationReport:
    """Validate a full simulation result: its trace plus its reported metrics."""
    report = validate_trace(result.trace, tasks)

    report.checks_run += 1
    recomputed = compute_metrics(result.trace)
    if not np.isclose(recomputed.makespan, result.makespan, rtol=1e-9, atol=1e-9):
        report.add(
            "makespan-mismatch",
            f"reported makespan {result.makespan} differs from trace-derived "
            f"{recomputed.makespan}",
        )
    if not np.isclose(recomputed.efficiency, result.efficiency, rtol=1e-9, atol=1e-9):
        report.add(
            "efficiency-mismatch",
            f"reported efficiency {result.efficiency} differs from trace-derived "
            f"{recomputed.efficiency}",
        )

    report.checks_run += 1
    if result.metrics.tasks_completed != len(result.trace):
        report.add(
            "count-mismatch",
            f"metrics report {result.metrics.tasks_completed} completions but the trace has "
            f"{len(result.trace)} records",
        )
    if tasks is not None and result.n_tasks != len(tasks):
        report.add(
            "task-count-mismatch",
            f"simulation claims {result.n_tasks} tasks but {len(tasks)} were submitted",
        )
    return report
