"""Lightest-loaded (LL) immediate-mode scheduler.

Assigns each arriving task to the processor with the smallest *pending load*
measured in MFLOPs (Sect. 4.1).  It ignores the size of the task being
placed and the speed of the processors, so it can systematically overload
slow machines in a heterogeneous system — which is exactly the weakness the
paper's comparison exposes.  Worst case complexity Θ(M) per task.
"""

from __future__ import annotations

import numpy as np

from ..workloads.task import Task
from . import kernels
from .base import ImmediateScheduler, SchedulingContext

__all__ = ["LightestLoadedScheduler"]


class LightestLoadedScheduler(ImmediateScheduler):
    """Assign each task to the processor with the least outstanding MFLOPs.

    Ties (identical pending loads) go to the lowest-indexed processor, in
    both the per-task path below and the batched wave kernel.
    """

    name = "LL"

    def select_processor(self, task: Task, ctx: SchedulingContext) -> int:
        return int(np.argmin(ctx.pending_loads))

    def select_processors_wave(self, sizes: np.ndarray, ctx: SchedulingContext):
        return kernels.lightest_loaded_wave(sizes, ctx.pending_loads, ctx.rates, ctx.online)
