"""Batching hook for work that independent jobs can share.

Some library calls are cheaper done for several independent jobs at once
than one at a time: the GA evolves equal-shaped problems as one stacked
population (:func:`repro.ga.engine.GeneticAlgorithm.evolve`).  Such a call
goes through :func:`batched`.  On an ordinary thread it runs the item alone,
as a batch of one.  On a job thread of a lockstep map
(:class:`repro.parallel.SerialExecutor`) the job instead waits; once every
job of the map waits or has finished, the map calls each batch function once
with all the items waiting on it and hands every job its own result.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = ["BatchFn", "Waiter", "batched", "install_waiter"]

I = TypeVar("I")
R = TypeVar("R")

#: ``batch_fn(items) -> results``, one result per item and in item order.
BatchFn = Callable[[Sequence[I]], List[R]]
#: ``waiter(batch_fn, item) -> result``: suspends the job until its batch ran.
Waiter = Callable[[BatchFn, I], R]

_local = threading.local()


def install_waiter(waiter: Optional[Waiter]) -> None:
    """Make *waiter* take this thread's :func:`batched` calls (``None`` removes it)."""
    _local.waiter = waiter


def batched(batch_fn: BatchFn, item: I) -> R:
    """``batch_fn([item])[0]``, possibly computed in one call with other jobs' items."""
    waiter = getattr(_local, "waiter", None)
    if waiter is None:
        return batch_fn([item])[0]
    return waiter(batch_fn, item)
