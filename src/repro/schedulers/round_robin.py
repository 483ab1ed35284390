"""Round-robin (RR) immediate-mode scheduler.

The most basic baseline of the paper (Sect. 4.1): tasks are dealt to the
processors in rotation, using no information about either task sizes or
processor loads.  Worst case complexity Θ(1) per task.
"""

from __future__ import annotations

from ..workloads.task import Task
from . import kernels
from .base import ImmediateScheduler, SchedulingContext

__all__ = ["RoundRobinScheduler"]


class RoundRobinScheduler(ImmediateScheduler):
    """Assign task *k* to processor ``k mod M``, regardless of loads or sizes."""

    name = "RR"

    def __init__(self, start_processor: int = 0):
        self._start = int(start_processor)
        self._next = int(start_processor)

    def select_processor(self, task: Task, ctx: SchedulingContext) -> int:
        proc = self._next % ctx.n_processors
        self._next = (self._next + 1) % ctx.n_processors
        return proc

    def select_processors_wave(self, sizes, ctx: SchedulingContext):
        procs, self._next = kernels.round_robin_wave(len(sizes), ctx.n_processors, self._next)
        diverted = kernels.place_picks(procs, sizes, ctx.pending_loads, ctx.rates, ctx.online)
        return procs, diverted

    def reset(self) -> None:
        """Restart the rotation from the configured starting processor."""
        self._next = self._start
