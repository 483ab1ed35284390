"""Additional heuristic schedulers from the heterogeneous-computing literature.

The paper compares against six schedulers; the dynamic-mapping study it cites
(Maheswaran, Ali, Siegel, Hensgen & Freund, JPDC 1999 — reference [11] of the
paper) defines several further heuristics that are natural extensions for a
scheduling library built on the same abstractions:

* **MET** (minimum execution time) — immediate mode: send each task to the
  processor that executes it fastest, ignoring existing load.  Fast but prone
  to overloading the single fastest machine.
* **OLB** (opportunistic load balancing) — immediate mode: send each task to
  the processor expected to become free soonest, ignoring the task's size.
* **Sufferage** — batch mode: repeatedly map the task that would "suffer" the
  most if denied its best processor (largest difference between its best and
  second-best completion times).

These are *not* part of the paper's figures (nor of the scheduler shoot-out
example, which runs the paper's seven); they are exposed through
``EXTENDED_SCHEDULER_NAMES`` for users who want a broader comparison and are
exercised by the extension, policy-kernel and wave-parity tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..workloads.task import Task
from .base import (
    BatchScheduler,
    ImmediateScheduler,
    ScheduleAssignment,
    SchedulingContext,
)

__all__ = [
    "MinimumExecutionTimeScheduler",
    "OpportunisticLoadBalancingScheduler",
    "SufferageScheduler",
    "EXTENDED_SCHEDULER_NAMES",
]

#: Labels of the additional schedulers provided by this module.
EXTENDED_SCHEDULER_NAMES: List[str] = ["MET", "OLB", "SU"]


class MinimumExecutionTimeScheduler(ImmediateScheduler):
    """MET: assign each task to the processor that would execute it fastest.

    Ignores the load already queued on each processor, so on a heterogeneous
    system it piles everything onto the fastest machine — the classic failure
    mode the load-aware heuristics fix.  Θ(M) per task.
    """

    name = "MET"

    def select_processor(self, task: Task, ctx: SchedulingContext) -> int:
        execution_times = task.size_mflops / ctx.rates
        return int(np.argmin(execution_times))

    def select_processors_wave(self, sizes: np.ndarray, ctx: SchedulingContext):
        return ctx.kernels.minimum_execution_wave(
            sizes, ctx.pending_loads, ctx.rates, ctx.online
        )


class OpportunisticLoadBalancingScheduler(ImmediateScheduler):
    """OLB: assign each task to the processor expected to become free soonest.

    Considers only the existing backlog (in time units), not the new task's
    size, so it balances machine *availability* rather than completion times.
    Θ(M) per task.
    """

    name = "OLB"

    def select_processor(self, task: Task, ctx: SchedulingContext) -> int:
        ready_times = ctx.pending_loads / ctx.rates
        return int(np.argmin(ready_times))

    def select_processors_wave(self, sizes: np.ndarray, ctx: SchedulingContext):
        return ctx.kernels.opportunistic_wave(
            sizes, ctx.pending_loads, ctx.rates, ctx.online
        )


class SufferageScheduler(BatchScheduler):
    """Sufferage: prioritise the task that loses the most if not mapped now.

    For every unmapped task the *sufferage* is the difference between its
    second-best and best completion times over all processors.  Each round the
    task with the largest sufferage is mapped to its best processor, the loads
    are updated, and the process repeats until the batch is empty.
    Θ(n² · M) per batch through the policy-kernel backend.

    A task's best processor is the *lowest-indexed* minimiser of its
    completion vector and ties between equal sufferages go to the earliest
    (FCFS) task.  The historical implementation picked the "best" processor
    from an unstable ``np.argsort``, whose order between exactly equal
    completion times is unspecified — the kernels use ``argmin`` plus a
    masked second-best minimum instead, making the tie-break deterministic.
    """

    name = "SU"

    def __init__(self, batch_size: Optional[int] = 200):
        super().__init__(batch_size)

    def schedule(self, tasks: Sequence[Task], ctx: SchedulingContext) -> ScheduleAssignment:
        queues: List[List[int]] = [[] for _ in range(ctx.n_processors)]
        if tasks:
            sizes = np.array([task.size_mflops for task in tasks], dtype=float)
            ids = [task.task_id for task in tasks]
            order, procs = ctx.kernels.sufferage_batch(
                sizes, ctx.pending_loads.copy(), ctx.rates
            )
            for index, proc in zip(order.tolist(), procs.tolist()):
                queues[proc].append(ids[index])
        return ScheduleAssignment(queues)
