"""The master (scheduler host) side of the simulated distributed system.

The master owns:

* the FCFS queue of *unscheduled* tasks that have arrived but not yet been
  mapped to a processor;
* one *future-task queue per processor* holding assigned-but-not-dispatched
  tasks (the paper deliberately keeps these at the scheduler rather than on
  the workers, so that a vanished worker never strands work);
* the Γ-smoothed observations of per-link communication cost and
  per-processor effective rate that form the scheduling context shared by
  every policy.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set

import numpy as np

from ..schedulers.base import (
    ImmediateScheduler,
    ScheduleAssignment,
    Scheduler,
    SchedulerMode,
    SchedulingContext,
)
from ..schedulers.kernels import diversion_target
from ..util.errors import SimulationError
from ..util.rng import RNGLike, ensure_rng
from ..util.smoothing import NU, SmoothedMap
from ..workloads.task import Task

__all__ = ["Master"]

#: Context rate substituted for offline processors: small enough that every
#: cost-aware policy avoids them, strictly positive so the context validates.
OFFLINE_RATE = 1e-9
#: Context pending load substituted for offline processors: large enough that
#: load-aware policies avoid them, finite so GA fitness arithmetic stays sane.
OFFLINE_LOAD = 1e18


class Master:
    """Central scheduling node: holds task queues and invokes the policy."""

    def __init__(
        self,
        scheduler: Scheduler,
        n_processors: int,
        initial_rates: np.ndarray,
        *,
        rng: RNGLike = None,
    ):
        if n_processors <= 0:
            raise SimulationError(f"n_processors must be positive, got {n_processors}")
        initial_rates = np.asarray(initial_rates, dtype=float)
        if initial_rates.shape != (n_processors,):
            raise SimulationError("initial_rates must have one entry per processor")
        if np.any(initial_rates <= 0):
            raise SimulationError("initial processor rates must be positive")

        self.scheduler = scheduler
        self.n_processors = int(n_processors)
        self._initial_rates = initial_rates.copy()
        self._rng = ensure_rng(rng)

        self.unscheduled: Deque[Task] = deque()
        self.proc_queues: List[Deque[Task]] = [deque() for _ in range(n_processors)]
        self.pending_loads = np.zeros(n_processors, dtype=float)

        self._comm_estimates = SmoothedMap(nu=NU, default=0.0)
        self._rate_estimates = SmoothedMap(nu=NU)
        # Dense mirrors of the two smoothed maps, refreshed on every update:
        # contexts are built once per scheduling invocation (per *task* for
        # immediate-mode policies), and copying a float64 array is far
        # cheaper than a per-processor Python loop over smoother objects.
        self._rates_vec = initial_rates.copy()
        self._comm_vec = np.zeros(n_processors, dtype=float)

        #: Book-keeping: total scheduler invocations and per-invocation batch sizes.
        self.invocations = 0
        self.batch_sizes: List[int] = []
        self._assigned_time: Dict[int, float] = {}

        #: Processors currently out of the cluster (failed, or not yet joined).
        self._offline: Set[int] = set()
        #: Tasks pulled back from failed workers and re-queued for scheduling.
        self.tasks_rescheduled = 0
        #: Tasks electively pulled back (undispatched) on membership changes
        #: so the policy can re-map them over a recovered/joined worker.
        self.tasks_reclaimed = 0
        #: Tasks a policy assigned to an offline processor that the master
        #: diverted to the online queue with the shortest estimated drain
        #: time instead (see :func:`~repro.schedulers.kernels.diversion_target`).
        self.tasks_redirected = 0

    # -- arrivals -----------------------------------------------------------------------
    def task_arrived(self, task: Task) -> None:
        """A new task joins the unscheduled FCFS queue."""
        self.unscheduled.append(task)

    @property
    def n_unscheduled(self) -> int:
        """Number of tasks awaiting assignment."""
        return len(self.unscheduled)

    def has_unscheduled(self) -> bool:
        """Whether any task is awaiting assignment."""
        return bool(self.unscheduled)

    # -- cluster membership -----------------------------------------------------------
    def is_online(self, proc: int) -> bool:
        """Whether *proc* is currently part of the cluster."""
        self._check_proc(proc)
        return proc not in self._offline

    def online_processors(self) -> List[int]:
        """Ids of the processors currently online, ascending."""
        return [p for p in range(self.n_processors) if p not in self._offline]

    @property
    def n_queued_total(self) -> int:
        """Tasks sitting in per-processor queues (assigned, not yet dispatched)."""
        return sum(len(q) for q in self.proc_queues)

    def _drain_queue(self, proc: int) -> List[Task]:
        """Empty *proc*'s master-side queue, releasing its pending load.

        The load is released task by task in queue order with the same
        clamped subtraction as :meth:`observe_completion`, accumulated in a
        local float and stored once.
        """
        queue = self.proc_queues[proc]
        drained = list(queue)
        queue.clear()
        load = float(self.pending_loads[proc])
        for task in drained:
            load = max(0.0, load - task.size_mflops)
        self.pending_loads[proc] = load
        return drained

    def _requeue_front(self, tasks: List[Task]) -> None:
        """Push tasks back onto the front of the unscheduled FCFS queue,
        preserving their relative order (older tasks keep their priority)."""
        for task in reversed(tasks):
            self.unscheduled.appendleft(task)

    def mark_offline(self, proc: int, inflight: Optional[Task] = None) -> int:
        """Take *proc* out of the cluster and pull back all its work.

        The processor's master-side queue (plus the optional in-flight task
        the worker was executing) is drained back onto the *front* of the
        unscheduled FCFS queue in its original relative order, so no task is
        lost and older tasks keep their priority.  Returns how many tasks
        were re-queued.
        """
        self._check_proc(proc)
        self._offline.add(proc)
        pulled: List[Task] = []
        if inflight is not None:
            self.pending_loads[proc] = max(
                0.0, self.pending_loads[proc] - inflight.size_mflops
            )
            pulled.append(inflight)
        pulled.extend(self._drain_queue(proc))
        self._requeue_front(pulled)
        self.tasks_rescheduled += len(pulled)
        return len(pulled)

    def mark_online(self, proc: int) -> None:
        """Return *proc* to the cluster (after recovery or first join)."""
        self._check_proc(proc)
        self._offline.discard(proc)

    def reclaim_undispatched(self) -> int:
        """Pull every assigned-but-undispatched task back for re-scheduling.

        Called on cluster-membership changes (a worker recovering or
        joining): the queues live at the master precisely so work can be
        re-mapped when the system changes, and re-invoking the policy lets it
        spread the backlog over the new member.  In-flight tasks are
        untouched.  Counted in ``tasks_reclaimed`` (elective re-mapping), not
        ``tasks_rescheduled`` (failure re-queues).  Returns how many tasks
        were pulled back.
        """
        pulled: List[Task] = []
        for proc in range(self.n_processors):
            pulled.extend(self._drain_queue(proc))
        self._requeue_front(pulled)
        self.tasks_reclaimed += len(pulled)
        return len(pulled)

    # -- context --------------------------------------------------------------------------
    def estimated_rates(self) -> np.ndarray:
        """Per-processor rate estimates: observed history, else the initial rating."""
        return self._rates_vec.copy()

    def estimated_comm_costs(self) -> np.ndarray:
        """Per-link communication estimates from observed dispatches (0 before any)."""
        return self._comm_vec.copy()

    def build_context(self, time: float) -> SchedulingContext:
        """The snapshot handed to the scheduling policy (identical for all policies).

        Offline processors keep their slot in the arrays (policies such as PN
        size their encodings to a fixed processor count) but are made
        maximally unattractive: a vanishingly small rate and an enormous
        pending load.  ``ctx.online`` masks them out (``None`` while every
        processor is online).  Any task a policy assigns to one anyway is
        diverted — per task by :meth:`run_scheduler_once`, inside the wave
        kernel on the batched path — to the same
        :func:`~repro.schedulers.kernels.diversion_target`.
        """
        rates = self.estimated_rates()
        loads = self.pending_loads.copy()
        comm_costs = self.estimated_comm_costs()
        online = None
        if self._offline:
            offline = sorted(self._offline)
            rates[offline] = OFFLINE_RATE
            loads[offline] = OFFLINE_LOAD
            online = np.ones(self.n_processors, dtype=bool)
            online[offline] = False
        # The master's arrays already satisfy every context invariant (float64,
        # matching shapes, positive rates, non-negative loads/costs), so skip
        # the validating constructor on this per-invocation path.
        return SchedulingContext.trusted(time, rates, loads, comm_costs, self._rng, online)

    # -- scheduling ------------------------------------------------------------------------
    def run_scheduler_once(self, time: float) -> Optional[ScheduleAssignment]:
        """Run one scheduling invocation over (a batch of) the unscheduled queue.

        Returns the assignment produced, or ``None`` when there was nothing to
        schedule, the policy asked for an empty batch, or every worker is
        offline (the queue is left intact until one comes back).
        """
        if not self.unscheduled or len(self._offline) == self.n_processors:
            return None
        ctx = self.build_context(time)
        online = ctx.online
        batch_size = self.scheduler.preferred_batch_size(ctx, len(self.unscheduled))
        if batch_size <= 0:
            return None
        batch = [self.unscheduled.popleft() for _ in range(min(batch_size, len(self.unscheduled)))]
        assignment = self.scheduler.schedule(batch, ctx)

        by_id = {t.task_id: t for t in batch}
        assigned_ids = set(assignment.task_ids())
        missing = set(by_id) - assigned_ids
        if missing:
            raise SimulationError(
                f"scheduler {self.scheduler.name} left tasks unassigned: {sorted(missing)}"
            )
        unknown = assigned_ids - set(by_id)
        if unknown:
            raise SimulationError(
                f"scheduler {self.scheduler.name} assigned unknown tasks: {sorted(unknown)}"
            )

        # The master refuses to enqueue work for a vanished worker: tasks a
        # policy maps to an offline processor are diverted, in queue order, to
        # the online queue with the shortest estimated drain time.
        for proc, queue in enumerate(assignment.iter_queues()):
            for task_id in queue:
                task = by_id[task_id]
                target = proc
                if online is not None and not online[proc]:
                    target = diversion_target(self.pending_loads, self._rates_vec, online)
                    self.tasks_redirected += 1
                self.proc_queues[target].append(task)
                self.pending_loads[target] += task.size_mflops
                self._assigned_time[task_id] = time

        self.invocations += 1
        self.batch_sizes.append(len(batch))
        return assignment

    def _schedule_wave(self, time: float) -> Optional[int]:
        """Place the whole unscheduled queue through one kernel invocation.

        The batched immediate-mode wave: instead of one ``schedule()`` call,
        context build and assignment object per task, the policy's wave
        kernel places every queued task in FCFS order against one dense
        loads vector (see the wave contract in
        :mod:`repro.schedulers.kernels`).  Within one scheduling event the
        rates and comm estimates are frozen — feedback observations only
        run between events — so the wave is bit-identical to N single-task
        invocations; the bookkeeping mirrors them exactly (N invocations of
        batch size 1, per-task assignment times, diverted picks counted in
        ``tasks_redirected``).  Offline processors are masked through
        ``ctx.online`` and the kernel diverts picks that land on one, as
        :meth:`run_scheduler_once` does per task; a wave that still places
        a task offline is rejected.

        Returns ``None`` when the policy declines (no wave kernel), letting
        the caller fall back to the per-task path.
        """
        ctx = self.build_context(time)
        online = ctx.online
        tasks = list(self.unscheduled)
        sizes = np.array([task.size_mflops for task in tasks], dtype=float)
        wave = self.scheduler.select_processors_wave(sizes, ctx)
        if wave is None:
            return None
        procs, diverted = wave
        if procs.shape != (len(tasks),) or (
            len(tasks) and (procs.min() < 0 or procs.max() >= self.n_processors)
        ):
            raise SimulationError(
                f"scheduler {self.scheduler.name}: wave kernel returned an "
                f"invalid processor selection"
            )
        if online is not None and not online[procs].all():
            raise SimulationError(
                f"scheduler {self.scheduler.name}: wave kernel placed a task on "
                f"an offline processor"
            )
        self.unscheduled.clear()
        proc_queues = self.proc_queues
        pending_loads = self.pending_loads
        assigned_time = self._assigned_time
        for task, proc in zip(tasks, procs.tolist()):
            proc_queues[proc].append(task)
            pending_loads[proc] += task.size_mflops
            assigned_time[task.task_id] = time
        self.invocations += len(tasks)
        self.batch_sizes.extend([1] * len(tasks))
        self.tasks_redirected += int(diverted)
        return len(tasks)

    def schedule_all_available(self, time: float) -> int:
        """Invoke the policy repeatedly until the unscheduled queue is drained
        or the policy declines to take more work.

        Immediate-mode policies consume everything in one pass — batched
        into a single wave-kernel invocation when the policy provides a wave
        kernel, whether or not some workers are offline (bit-identical to the
        per-task path, diversions included), one :meth:`run_scheduler_once`
        per task when it declines; batch-mode policies are re-invoked while
        there are still unscheduled tasks *and* at least one processor queue
        is empty, which mirrors the paper's goal of never letting a
        processor sit idle while work exists.  With every worker offline
        nothing is assigned and the queue waits for one to come back.

        Returns the number of tasks assigned by this call.
        """
        assigned = 0
        immediate = self.scheduler.mode is SchedulerMode.IMMEDIATE
        online = self.online_processors()
        if not online:
            return 0
        if immediate and self.unscheduled and isinstance(self.scheduler, ImmediateScheduler):
            waved = self._schedule_wave(time)
            if waved is not None:
                return waved
        while self.unscheduled:
            if not immediate:
                empty_queue_exists = any(len(self.proc_queues[p]) == 0 for p in online)
                if assigned > 0 and not empty_queue_exists:
                    break
            result = self.run_scheduler_once(time)
            if result is None:
                break
            assigned += result.n_tasks
        return assigned

    # -- queue/dispatch bookkeeping -------------------------------------------------------
    def pop_task_for(self, proc: int) -> Optional[Task]:
        """Pop the head of *proc*'s future-task queue (``None`` when empty)."""
        self._check_proc(proc)
        if not self.proc_queues[proc]:
            return None
        return self.proc_queues[proc].popleft()

    def queue_length(self, proc: int) -> int:
        """Number of tasks waiting in *proc*'s master-side queue."""
        self._check_proc(proc)
        return len(self.proc_queues[proc])

    def assigned_time_of(self, task_id: int) -> float:
        """Simulation time a task was assigned to a processor queue."""
        try:
            return self._assigned_time[task_id]
        except KeyError:
            raise SimulationError(f"task {task_id} was never assigned") from None

    def observe_dispatch(self, proc: int, comm_cost: float, time: float) -> None:
        """Record a measured dispatch cost (updates Γ estimates and notifies the policy)."""
        self._check_proc(proc)
        self._comm_vec[proc] = self._comm_estimates.update(proc, float(comm_cost))
        self.scheduler.observe_communication(proc, comm_cost, time)

    def observe_completion(
        self, proc: int, task: Task, processing_time: float, time: float
    ) -> None:
        """Record a task completion (updates load, rate estimates, notifies the policy)."""
        self._check_proc(proc)
        self.pending_loads[proc] = max(0.0, self.pending_loads[proc] - task.size_mflops)
        if processing_time > 0:
            self._rates_vec[proc] = self._rate_estimates.update(
                proc, task.size_mflops / processing_time
            )
        self.scheduler.observe_completion(proc, task, processing_time, time)

    def _check_proc(self, proc: int) -> None:
        if not (0 <= proc < self.n_processors):
            raise SimulationError(f"processor index {proc} out of range [0, {self.n_processors})")
