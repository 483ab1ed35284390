"""The batch-scheduling problem instance handed to the genetic algorithm.

A :class:`BatchProblem` fixes everything the GA needs to evaluate a schedule
for one batch: the tasks in the batch (sizes in MFLOPs), the processors'
estimated rates (Mflop/s), the load already queued on each processor, and the
estimated per-task communication cost of each processor's link.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..util.errors import ConfigurationError
from ..workloads.task import Task

__all__ = ["BatchProblem", "ProblemGroup"]


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


class ProblemGroup:
    """``K`` batch problems of one shape, laid out for a stacked population.

    The GA evolves a group as one ``(K·P, L)`` population matrix: rows
    ``k·P … k·P + P − 1`` belong to ``problems[k]``.  The per-row tables
    below give each row its own problem's cost table, pending times, ψ,
    task sizes and processor rates, so a kernel gathers per row where a solo
    kernel read one problem.  A solo run is a group of one, which reads its
    problem's own tables: every row shares them, so there are no per-row
    offsets to add.

    The group answers the problem protocol of
    :func:`repro.ga.fitness.evaluate_assignments` (``n_tasks``,
    ``n_processors``, :meth:`assigned_task_costs`, :meth:`pending_times`,
    :meth:`optimal_time`), with the pending times and ψ as per-row arrays.
    """

    def __init__(self, problems: Sequence[BatchProblem], rows: int) -> None:
        self.problems: Tuple[BatchProblem, ...] = tuple(problems)
        if not self.problems:
            raise ConfigurationError("a problem group needs at least one problem")
        self.n_tasks = self.problems[0].n_tasks
        self.n_processors = self.problems[0].n_processors
        if any(
            p.n_tasks != self.n_tasks or p.n_processors != self.n_processors
            for p in self.problems
        ):
            raise ConfigurationError("problems in a group must share one (H, M) shape")
        self.rows = int(rows)
        k, h, m = len(self.problems), self.n_tasks, self.n_processors
        if k == 1:
            problem = self.problems[0]
            self._costs = problem.task_costs.ravel()
            self._cost_offsets = problem._task_cost_offsets
            self._pending = problem.pending_times()
            self.psi: Union[float, np.ndarray] = problem.optimal_time()
            self.sizes, self.rates = problem.sizes, problem.rates
            self.size_offsets = self.rate_offsets = None
            return
        #: Flat ``(K·H·M,)`` cost tables and each row's ``(H,)`` gather offsets into them.
        self._costs = np.concatenate([p.task_costs.ravel() for p in self.problems])
        self._cost_offsets = self._per_row(
            np.arange(0, k * h * m, h * m)[:, None] + np.arange(0, h * m, m)
        )
        self._pending = self._per_row(np.stack([p.pending_times() for p in self.problems]))
        #: ψ of each row's problem: a ``(K·P, 1)`` column (a scalar in a group of one).
        self.psi = self._per_row(np.array([[p.optimal_time()] for p in self.problems]))

    def _per_row(self, values: np.ndarray) -> np.ndarray:
        """Repeat each problem's entry of *values* for its ``P`` rows."""
        return values.repeat(self.rows, axis=0)

    # The re-balancing heuristic's tables, built on first use.  A group of
    # one holds its problem's sizes and rates instead, with offsets ``None``.
    @cached_property
    def sizes(self) -> np.ndarray:
        """Flat ``(K·H,)`` task sizes; row ``r`` reads ``sizes[size_offsets[r] + i]``."""
        return np.concatenate([p.sizes for p in self.problems])

    @cached_property
    def size_offsets(self) -> Optional[np.ndarray]:
        """Each row's offset into :attr:`sizes`."""
        return self._per_row(np.arange(0, len(self.problems) * self.n_tasks, self.n_tasks))

    @cached_property
    def rates(self) -> np.ndarray:
        """Flat ``(K·M,)`` processor rates; row ``r`` reads ``rates[rate_offsets[r] + j]``."""
        return np.concatenate([p.rates for p in self.problems])

    @cached_property
    def rate_offsets(self) -> Optional[np.ndarray]:
        """Each row's offset into :attr:`rates`."""
        m = self.n_processors
        return self._per_row(np.arange(0, len(self.problems) * m, m))

    def assigned_task_costs(self, assignments: np.ndarray) -> np.ndarray:
        """Each row's :meth:`BatchProblem.assigned_task_costs`, in one flat gather."""
        return self._costs[assignments + self._cost_offsets]

    def pending_times(self) -> np.ndarray:
        """Each row's problem's pending times: ``(K·P, M)``, or ``(M,)`` in a group of one."""
        return self._pending

    def optimal_time(self) -> Union[float, np.ndarray]:
        """Each row's problem's ψ (see :attr:`psi`)."""
        return self.psi
