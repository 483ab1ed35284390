"""Earliest-first (EF) immediate-mode scheduler.

For each arriving task, EF estimates when every processor would finish that
task — existing pending work plus the new task, divided by the processor's
execution rate — and picks the earliest finisher (Sect. 4.1).  Unlike LL it
accounts for both the task's size and processor heterogeneity, but like all
the heuristic baselines it only reacts to communication costs after they
have been incurred.  Worst case complexity Θ(M) per task.
"""

from __future__ import annotations

import numpy as np

from ..workloads.task import Task
from . import kernels
from .base import ImmediateScheduler, SchedulingContext

__all__ = ["EarliestFirstScheduler"]


class EarliestFirstScheduler(ImmediateScheduler):
    """Assign each task to the processor that would finish it the earliest.

    Ties (identical finish times) go to the lowest-indexed processor, in
    both the per-task path below and the batched wave kernel.
    """

    name = "EF"

    def select_processor(self, task: Task, ctx: SchedulingContext) -> int:
        finish_times = (ctx.pending_loads + task.size_mflops) / ctx.rates
        return int(np.argmin(finish_times))

    def select_processors_wave(self, sizes: np.ndarray, ctx: SchedulingContext):
        return kernels.earliest_finish_wave(sizes, ctx.pending_loads, ctx.rates, ctx.online)
