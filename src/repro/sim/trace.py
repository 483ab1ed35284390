"""Execution traces: per-task dispatch/execution records and Gantt extraction.

The trace is stored *columnar*: one growable numpy array per field (see
:class:`~repro.util.buffers.RecordBuffer`) rather than one Python object per
task.  The simulator appends whole record columns at once through
:meth:`ExecutionTrace.extend_records`; :class:`TaskRecord` objects are
materialised lazily only when a caller actually asks for them, and the
aggregate queries (busy/comm seconds, per-processor counts) are vectorised
over the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..util.buffers import RecordBuffer
from ..util.errors import SimulationError

__all__ = ["TaskRecord", "ExecutionTrace"]


@dataclass(frozen=True)
class TaskRecord:
    """Everything the simulator recorded about one task's life cycle.

    Times are absolute simulation seconds.  ``dispatch_time`` is when the
    worker popped the task from its master-side queue; communication occupies
    ``[dispatch_time, exec_start)`` and execution ``[exec_start, exec_end)``.
    """

    task_id: int
    proc_id: int
    size_mflops: float
    arrival_time: float
    assigned_time: float
    dispatch_time: float
    exec_start: float
    exec_end: float

    def __post_init__(self) -> None:
        if not (
            self.arrival_time <= self.assigned_time + 1e-9
            and self.assigned_time <= self.dispatch_time + 1e-9
            and self.dispatch_time <= self.exec_start + 1e-9
            and self.exec_start <= self.exec_end + 1e-9
        ):
            raise SimulationError(
                f"task {self.task_id}: inconsistent record times "
                f"(arrival={self.arrival_time}, assigned={self.assigned_time}, "
                f"dispatch={self.dispatch_time}, start={self.exec_start}, end={self.exec_end})"
            )

    @property
    def comm_time(self) -> float:
        """Seconds spent transferring the task to its worker."""
        return self.exec_start - self.dispatch_time

    @property
    def exec_time(self) -> float:
        """Seconds spent executing the task."""
        return self.exec_end - self.exec_start

    @property
    def queue_wait(self) -> float:
        """Seconds between assignment to a processor queue and dispatch."""
        return self.dispatch_time - self.assigned_time

    @property
    def response_time(self) -> float:
        """Seconds between arrival at the scheduler and completion."""
        return self.exec_end - self.arrival_time


#: Column layout of the trace buffer (argument order of ``extend_records``).
_FIELDS = (
    ("task_id", np.int64),
    ("proc_id", np.int64),
    ("size_mflops", np.float64),
    ("arrival_time", np.float64),
    ("assigned_time", np.float64),
    ("dispatch_time", np.float64),
    ("exec_start", np.float64),
    ("exec_end", np.float64),
)


class ExecutionTrace:
    """An ordered, columnar collection of task records with query helpers."""

    def __init__(self, n_processors: int):
        if n_processors <= 0:
            raise SimulationError(f"n_processors must be positive, got {n_processors}")
        self.n_processors = int(n_processors)
        self._buffer = RecordBuffer(_FIELDS)

    def add(self, record: TaskRecord) -> None:
        """Append one validated task record (records need not arrive in time order)."""
        if not (0 <= record.proc_id < self.n_processors):
            raise SimulationError(
                f"record references processor {record.proc_id} outside [0, {self.n_processors})"
            )
        self._buffer.append(
            record.task_id,
            record.proc_id,
            record.size_mflops,
            record.arrival_time,
            record.assigned_time,
            record.dispatch_time,
            record.exec_start,
            record.exec_end,
        )

    def extend_records(
        self,
        task_ids,
        proc_ids,
        sizes,
        arrivals,
        assigned,
        dispatches,
        starts,
        ends,
    ) -> None:
        """Bulk-append equal-length record columns (how the simulator records)."""
        self._buffer.extend(
            task_id=np.asarray(task_ids, dtype=np.int64),
            proc_id=np.asarray(proc_ids, dtype=np.int64),
            size_mflops=np.asarray(sizes, dtype=np.float64),
            arrival_time=np.asarray(arrivals, dtype=np.float64),
            assigned_time=np.asarray(assigned, dtype=np.float64),
            dispatch_time=np.asarray(dispatches, dtype=np.float64),
            exec_start=np.asarray(starts, dtype=np.float64),
            exec_end=np.asarray(ends, dtype=np.float64),
        )

    # -- container protocol ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self):
        return iter(self.records)

    def _record_at(self, index: int) -> TaskRecord:
        (task_id, proc_id, size, arrival, assigned, dispatch, start, end) = (
            self._buffer.row(index)
        )
        record = TaskRecord.__new__(TaskRecord)
        # The columns were either validated on the way in (add) or produced
        # by the simulator with consistent times (extend_records), so rebuild the
        # frozen dataclass without re-running __post_init__.
        object.__setattr__(record, "task_id", task_id)
        object.__setattr__(record, "proc_id", proc_id)
        object.__setattr__(record, "size_mflops", size)
        object.__setattr__(record, "arrival_time", arrival)
        object.__setattr__(record, "assigned_time", assigned)
        object.__setattr__(record, "dispatch_time", dispatch)
        object.__setattr__(record, "exec_start", start)
        object.__setattr__(record, "exec_end", end)
        return record

    @property
    def records(self) -> List[TaskRecord]:
        """All records in insertion order (materialised from the columns)."""
        return [self._record_at(i) for i in range(len(self._buffer))]

    def column(self, name: str) -> np.ndarray:
        """Read-only numpy view of one column in insertion order.

        Columns: ``task_id``, ``proc_id``, ``size_mflops``, ``arrival_time``,
        ``assigned_time``, ``dispatch_time``, ``exec_start``, ``exec_end``.
        """
        return self._buffer.column(name)

    def task_ids(self) -> np.ndarray:
        """Completed task ids in completion (insertion) order, no object churn."""
        return self._buffer.column("task_id")

    # -- queries ----------------------------------------------------------------------
    def records_for(self, proc_id: int) -> List[TaskRecord]:
        """Records of tasks executed on *proc_id*, ordered by execution start."""
        indices = np.flatnonzero(self._buffer.column("proc_id") == proc_id)
        starts = self._buffer.column("exec_start")[indices]
        return [self._record_at(int(i)) for i in indices[np.argsort(starts, kind="stable")]]

    def record_of(self, task_id: int) -> TaskRecord:
        """The record of a specific task (raises if the task never completed)."""
        matches = np.flatnonzero(self._buffer.column("task_id") == task_id)
        if matches.size == 0:
            raise SimulationError(f"no record for task {task_id}")
        return self._record_at(int(matches[0]))

    def completion_time(self) -> float:
        """Time the last task finished (0.0 for an empty trace)."""
        ends = self._buffer.column("exec_end")
        return float(ends.max()) if ends.size else 0.0

    def first_dispatch_time(self) -> float:
        """Time the first task was dispatched (0.0 for an empty trace)."""
        dispatches = self._buffer.column("dispatch_time")
        return float(dispatches.min()) if dispatches.size else 0.0

    def _per_processor_sum(self, values: np.ndarray) -> np.ndarray:
        totals = np.zeros(self.n_processors, dtype=float)
        # np.add.at applies the additions in record order, matching the
        # accumulation order (and hence the float rounding) of the historical
        # per-record Python loop.
        np.add.at(totals, self._buffer.column("proc_id"), values)
        return totals

    def busy_seconds(self) -> np.ndarray:
        """Execution seconds accumulated per processor."""
        return self._per_processor_sum(
            self._buffer.column("exec_end") - self._buffer.column("exec_start")
        )

    def comm_seconds(self) -> np.ndarray:
        """Communication seconds accumulated per processor."""
        return self._per_processor_sum(
            self._buffer.column("exec_start") - self._buffer.column("dispatch_time")
        )

    def mflops_per_processor(self) -> np.ndarray:
        """MFLOPs completed per processor."""
        return self._per_processor_sum(self._buffer.column("size_mflops"))

    def tasks_per_processor(self) -> np.ndarray:
        """Number of tasks completed per processor."""
        counts = np.bincount(
            self._buffer.column("proc_id"), minlength=self.n_processors
        ).astype(int)
        return counts

    def gantt(self) -> List[List[Tuple[float, float, int]]]:
        """Per-processor list of ``(exec_start, exec_end, task_id)`` intervals."""
        chart: List[List[Tuple[float, float, int]]] = [[] for _ in range(self.n_processors)]
        starts = self._buffer.column("exec_start")
        ends = self._buffer.column("exec_end")
        procs = self._buffer.column("proc_id")
        ids = self._buffer.column("task_id")
        for i in np.argsort(starts, kind="stable"):
            chart[int(procs[i])].append((float(starts[i]), float(ends[i]), int(ids[i])))
        return chart
