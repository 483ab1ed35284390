"""Min-min (MM) batch-mode heuristic scheduler.

MM takes a batch of tasks on a FCFS basis, sorts them by size in *ascending*
order, and repeatedly assigns the smallest remaining task to the processor
that would finish it first (Sect. 4.1).  Scheduling the small tasks first
keeps many processors busy early, at the risk of leaving a large task to
dominate the tail of the schedule.  Complexity Θ(max(M, n log n)) per batch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..workloads.task import Task
from . import kernels
from .base import BatchScheduler, ScheduleAssignment, SchedulingContext

__all__ = ["MinMinScheduler"]


class MinMinScheduler(BatchScheduler):
    """Smallest-task-first batch heuristic using earliest-finish placement.

    The batch is placed through :func:`~repro.schedulers.kernels.greedy_finish_batch`:
    tasks are ordered by ``(size, task_id)`` — equal-size tasks always in
    FCFS (ascending id) order, in *both* sort directions — and each is
    placed on the lowest-indexed processor minimising its finish time.
    """

    name = "MM"
    #: Sort direction; the max-min scheduler flips this flag.
    descending = False

    def __init__(self, batch_size: Optional[int] = 200):
        super().__init__(batch_size)

    def schedule(self, tasks: Sequence[Task], ctx: SchedulingContext) -> ScheduleAssignment:
        queues: List[List[int]] = [[] for _ in range(ctx.n_processors)]
        if tasks:
            sizes = np.array([task.size_mflops for task in tasks], dtype=float)
            task_ids = np.array([task.task_id for task in tasks], dtype=np.int64)
            order, procs = kernels.greedy_finish_batch(
                sizes, task_ids, ctx.pending_loads.copy(), ctx.rates, self.descending
            )
            ids = task_ids.tolist()
            for index, proc in zip(order.tolist(), procs.tolist()):
                queues[proc].append(ids[index])
        return ScheduleAssignment(queues)
