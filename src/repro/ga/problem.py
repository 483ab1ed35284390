"""The batch-scheduling problem instance handed to the genetic algorithm.

A :class:`BatchProblem` fixes everything the GA needs to evaluate a schedule
for one batch: the tasks in the batch (sizes in MFLOPs), the processors'
estimated rates (Mflop/s), the load already queued on each processor, and the
estimated per-task communication cost of each processor's link.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ..util.errors import ConfigurationError
from ..workloads.task import Task

__all__ = ["BatchProblem"]


@dataclass(frozen=True)
class BatchProblem:
    """Immutable description of one batch-mapping problem.

    The fields are private read-only copies of the arrays passed in, so the
    derived quantities below can be computed once per problem and cached.

    Attributes
    ----------
    task_ids:
        Identifiers of the ``H`` tasks in the batch (used only to translate
        the internal index-based encoding back to task ids).
    sizes:
        Task resource requirements ``t_i`` in MFLOPs, shape ``(H,)``.
    rates:
        Estimated processor rates ``P_j`` in Mflop/s, shape ``(M,)``.
    pending_loads:
        Previously assigned but unprocessed load ``L_j`` in MFLOPs, shape ``(M,)``.
    comm_costs:
        Estimated per-task communication cost ``Γ_c(·, j)`` in seconds for each
        processor's link, shape ``(M,)``.  The paper indexes the estimate by
        (task, processor); because the scheduler's estimate is a per-link
        smoothed mean it does not actually vary per task, so a per-processor
        vector is the faithful representation.
    """

    task_ids: np.ndarray
    sizes: np.ndarray
    rates: np.ndarray
    pending_loads: np.ndarray
    comm_costs: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (
            ("task_ids", int),
            ("sizes", float),
            ("rates", float),
            ("pending_loads", float),
            ("comm_costs", float),
        ):
            # Copy before freezing: the caller's array (say, the master's
            # pending loads) must stay writeable.
            array = np.array(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

        if self.task_ids.ndim != 1 or self.sizes.shape != self.task_ids.shape:
            raise ConfigurationError("task_ids and sizes must be 1-D arrays of equal length")
        if len(np.unique(self.task_ids)) != len(self.task_ids):
            raise ConfigurationError("task ids in a batch must be unique")
        if self.rates.ndim != 1 or self.rates.size == 0:
            raise ConfigurationError("rates must be a non-empty 1-D array")
        if (
            self.pending_loads.shape != self.rates.shape
            or self.comm_costs.shape != self.rates.shape
        ):
            raise ConfigurationError("pending_loads and comm_costs must match rates in shape")
        if self.n_tasks == 0:
            raise ConfigurationError("a batch problem requires at least one task")
        if np.any(self.sizes <= 0):
            raise ConfigurationError("all task sizes must be strictly positive")
        if np.any(self.rates <= 0):
            raise ConfigurationError("all processor rates must be strictly positive")
        if np.any(self.pending_loads < 0) or np.any(self.comm_costs < 0):
            raise ConfigurationError("pending loads and comm costs must be non-negative")

    def __reduce__(self):
        # Unpickle through __init__, so the copy is frozen again and rebuilds
        # its caches on demand.
        return (
            type(self),
            (self.task_ids, self.sizes, self.rates, self.pending_loads, self.comm_costs),
        )

    # -- factory --------------------------------------------------------------------
    @classmethod
    def from_tasks(
        cls,
        tasks: Sequence[Task],
        rates: Sequence[float],
        pending_loads: Optional[Sequence[float]] = None,
        comm_costs: Optional[Sequence[float]] = None,
    ) -> "BatchProblem":
        """Build a problem from task objects plus per-processor vectors."""
        rates_arr = np.asarray(rates, dtype=float)
        m = rates_arr.shape[0]
        return cls(
            task_ids=np.array([t.task_id for t in tasks], dtype=int),
            sizes=np.array([t.size_mflops for t in tasks], dtype=float),
            rates=rates_arr,
            pending_loads=(
                np.zeros(m) if pending_loads is None else np.asarray(pending_loads, dtype=float)
            ),
            comm_costs=(
                np.zeros(m) if comm_costs is None else np.asarray(comm_costs, dtype=float)
            ),
        )

    # -- dimensions -----------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        """Number of tasks ``H`` in the batch."""
        return int(self.sizes.shape[0])

    @property
    def n_processors(self) -> int:
        """Number of processors ``M``."""
        return int(self.rates.shape[0])

    # -- derived quantities (cached: the problem is immutable) ---------------------
    def pending_times(self) -> np.ndarray:
        """``δ_j = L_j / P_j``: seconds of already-queued work per processor (read-only)."""
        return self._pending_times

    @cached_property
    def _pending_times(self) -> np.ndarray:
        pending = self.pending_loads / self.rates
        pending.setflags(write=False)
        return pending

    def optimal_time(self) -> float:
        """The paper's theoretical optimum ``ψ``.

        ``ψ = (Σ_i t_i / Σ_j P_j) + Σ_j δ_j`` — the makespan of a perfectly
        divisible, communication-free schedule on top of the existing load.
        """
        return self._optimal_time

    @cached_property
    def _optimal_time(self) -> float:
        return float(self.sizes.sum() / self.rates.sum() + self.pending_times().sum())

    @cached_property
    def task_costs(self) -> np.ndarray:
        """Read-only ``(H, M)`` table of ``t_i / P_j + Γ_c(·, j)``.

        Entry ``[i, j]`` is the seconds task ``i`` adds to processor ``j``'s
        completion time.
        """
        costs = self.sizes[:, None] / self.rates[None, :] + self.comm_costs[None, :]
        costs.setflags(write=False)
        return costs

    def assigned_task_costs(self, assignments: np.ndarray) -> np.ndarray:
        """``task_costs[i, assignments[..., i]]`` for every task ``i``, in one flat gather.

        *assignments* must hold valid processor indices (not checked here).
        """
        return self.task_costs.ravel()[assignments + self._task_cost_offsets]

    @cached_property
    def _task_cost_offsets(self) -> np.ndarray:
        # Row offsets i·M into the flattened task_costs table.
        return np.arange(self.n_tasks) * self.n_processors

    def lower_bound_makespan(self) -> float:
        """A simple makespan lower bound: max of ψ-style balance and the largest task."""
        largest_task_time = float(np.max(self.sizes) / np.max(self.rates))
        return max(self.optimal_time(), largest_task_time)

    def execution_times(self) -> np.ndarray:
        """Matrix of execution times ``t_i / P_j`` with shape ``(H, M)``."""
        return self.sizes[:, None] / self.rates[None, :]

    def without_communication(self) -> "BatchProblem":
        """A copy of the problem with all communication estimates zeroed.

        Used by the ZO baseline, which does not predict communication costs.
        """
        return BatchProblem(
            task_ids=self.task_ids,
            sizes=self.sizes,
            rates=self.rates,
            pending_loads=self.pending_loads,
            comm_costs=np.zeros_like(self.comm_costs),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchProblem(H={self.n_tasks}, M={self.n_processors}, "
            f"psi={self.optimal_time():.4g}s)"
        )
