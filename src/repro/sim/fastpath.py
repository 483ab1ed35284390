"""Batched static replay: the simulation fast path.

:func:`run_static_replay` produces *bit-identical* results to running the
same :class:`~repro.sim.simulation.DistributedSystemSimulation` through the
event loop (:func:`~repro.sim.engine.run_events`), for simulations without
cluster dynamics (no failures/recoveries/joins/load spikes — the whole
figure suite and every steady-state scenario).  Each ``INVOKE_SCHEDULER``
follow-up routes through :meth:`Master.schedule_all_available`, which
places a whole arrival wave of an immediate-mode policy with one kernel
invocation instead of one ``schedule()`` call, context build and assignment
object per task (see :mod:`repro.schedulers.kernels`).  Beyond that, the
replay exploits the static structure three times:

1. **Merge loop instead of a general event heap.**  In a static run only
   three event sources exist: task arrivals (known up front, pre-sorted),
   at-most-one outstanding completion per worker (a tiny heap), and
   same-time follow-ups (scheduler invocations and worker fetches, a FIFO —
   the engine always schedules them at the current time, so they order by
   sequence number alone).  The replay merges these three sources by the
   engine's exact ``(time, seq)`` discipline, reproducing the event order —
   including tie-breaks — without allocating one object per event or
   dispatching through a handler table.

2. **Bulk communication-cost draws.**  ``Generator.normal(mean, std)`` is
   exactly ``mean + std * standard_normal()`` on the same bit stream, so the
   replay pre-draws standard normals in growing blocks and turns each
   per-dispatch cost into two float operations, preserving both the values
   and the one-draw-per-dispatch stream consumption of the event path.

3. **Terminal drain.**  Once every task has arrived and been assigned (no
   unscheduled work remains and no follow-up is pending), no scheduler
   invocation can ever run again: the remainder of the simulation is each
   worker draining a fixed queue, and the master's and policy's feedback
   observations can no longer influence any result.  The replay stops
   paying for them and for the follow-up events, and drains the queues one
   completion at a time through the tiny completion heap, accumulating each
   worker's ``comm + exec`` durations in the engine's exact operation order
   so every intermediate float rounds identically.  The draws stay in global
   dispatch order (each cost is one draw from the *shared* network stream),
   and zero-cost or zero-variance links give the same bits as any other.

RNG contract: the replay consumes the network stream draw-for-draw in the
event loop's dispatch order, through the sampler both loops share
(:func:`_sample_comm`, a replica of :meth:`CommLink.sample_cost`).  Zero-mean
links never draw (``sample_cost`` short circuits) and zero-variance links
draw a value that is exactly the mean.  The only divergence from
``sample_cost`` is the *final stream position*: block pre-drawing can leave
unused draws.  The stream is private to communication sampling, so no
result can observe the difference.
"""

from __future__ import annotations

import heapq
from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, List, Tuple

from ..util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulation import DistributedSystemSimulation

__all__ = ["budget_error", "is_static", "run_static_replay"]

#: FIFO entry codes for the same-time follow-up queue.
_INVOKE = 0
_FETCH = 1

#: Per-processor communication sampling plans (see :func:`_comm_plans`).
_NEVER_DRAWS = 0  # zero mean: cost 0.0, no stream consumption
_DRAWS_CONSTANT = 1  # zero variance: cost == mean exactly, one draw consumed
_DRAWS_NORMAL = 2  # constant condition: mean + std * z
_DRAWS_VARYING = 3  # time-varying condition: resolve the mean per dispatch


def budget_error(max_events: int) -> SimulationError:
    """The event-storm error both simulation loops raise identically."""
    return SimulationError(
        f"event budget of {max_events} exceeded; "
        "the simulation is likely stuck in an event loop"
    )


class _NormalBlocks:
    """Standard-normal draws from *rng*, pre-drawn in growing blocks.

    ``Generator.standard_normal(k)`` fills its output with exactly the same
    values k sequential scalar draws would produce, so handing them out one
    at a time preserves the event path's draw-for-draw stream semantics
    while amortising the per-call generator overhead.
    """

    __slots__ = ("_rng", "_block", "_pos", "_size")

    def __init__(self, rng) -> None:
        self._rng = rng
        self._block = ()
        self._pos = 0
        self._size = 128

    def next(self) -> float:
        pos = self._pos
        if pos >= len(self._block):
            self._block = self._rng.standard_normal(self._size)
            if self._size < 8192:
                self._size *= 2
            pos = 0
        self._pos = pos + 1
        return self._block[pos]


def is_static(sim: "DistributedSystemSimulation") -> bool:
    """Whether *sim* has no cluster dynamics and so admits the fast backend.

    A dynamics timeline that is present but empty (``bool(timeline)`` falsy
    and nothing initially offline) schedules no events and registers no
    observable behaviour, so it is treated as static — steady-state scenario
    cells take the fast path too.
    """
    dynamics = sim._dynamics
    if dynamics is None:
        return True
    try:
        empty = not dynamics
    except TypeError:  # pragma: no cover - defensive for exotic timelines
        return False
    return empty and not set(dynamics.initially_offline())


def _comm_plans(sim: "DistributedSystemSimulation"):
    """One ``(kind, mean, std, link)`` sampling plan per processor.

    Replicates :meth:`CommLink.sample_cost` exactly, including its stream
    consumption: a zero-mean link returns 0.0 *without* drawing, every other
    link consumes exactly one (standard-normal) draw per dispatch — even
    when ``relative_std`` is zero and the drawn value is provably the mean.
    """
    from ..cluster.variation import ConstantAvailability

    plans = []
    for proc in range(sim.cluster.n_processors):
        link = sim.cluster.network.link(proc)
        if isinstance(link.condition, ConstantAvailability):
            mean = float(link.effective_mean(0.0))
            std = float(link.relative_std * mean)
            if mean == 0.0:
                plans.append((_NEVER_DRAWS, 0.0, 0.0, link))
            elif std == 0.0:
                plans.append((_DRAWS_CONSTANT, mean, 0.0, link))
            else:
                plans.append((_DRAWS_NORMAL, mean, std, link))
        else:
            plans.append((_DRAWS_VARYING, 0.0, float(link.relative_std), link))
    return plans


def _sample_comm(plan, t: float, normals: _NormalBlocks) -> float:
    """One per-dispatch communication cost under *plan* at time *t*.

    The single replica of :meth:`CommLink.sample_cost`'s value/stream
    semantics shared by the live merge loop and the sequential drain — any
    change to draw accounting or clamping happens here, once.
    """
    kind, mean, std, link = plan
    if kind == _NEVER_DRAWS:
        return 0.0
    if kind == _DRAWS_CONSTANT:
        normals.next()  # value is exactly the mean; the draw still counts
        return mean
    if kind == _DRAWS_VARYING:
        mean = link.effective_mean(t)
        std = link.relative_std * mean
        if mean == 0.0:
            return 0.0
    cost = float(mean + std * normals.next())
    return cost if cost > 0.0 else 0.0


def _const_rates(sim: "DistributedSystemSimulation"):
    """Per-processor constant execution rate, or ``None`` when time-varying."""
    from ..cluster.variation import ConstantAvailability

    rates = []
    for worker in sim.workers:
        processor = worker.processor
        if isinstance(processor.availability, ConstantAvailability):
            rates.append(processor.current_rate(0.0))
        else:
            rates.append(None)
    return rates


def run_static_replay(sim: "DistributedSystemSimulation") -> Tuple[float, int]:
    """Run *sim* to completion on the fast path.

    Returns ``(end_time, events_processed)`` where both numbers equal what
    :func:`~repro.sim.engine.run_events` would report for the same
    simulation.  Every result-visible state — the trace, queue trajectory,
    worker bookkeeping, master queues/pending loads and all counters — is
    mutated exactly as the event loop's handlers would mutate it.  The one
    intentional exception: once the terminal drain starts, the master's
    smoothed rate/comm estimators and the policy's ``observe_*`` hooks are
    no longer fed (no scheduling decision can ever read them again), so
    their *post-run* internal state differs from the event loop's.
    """
    master = sim.master
    workers = sim.workers
    trace = sim.trace
    max_events = sim.config.max_events
    tasks = list(sim.tasks)
    n = len(tasks)

    # Arrivals are scheduled up front by the event path with sequence numbers
    # 0..n-1 in task order; sorting by arrival time with a stable sort yields
    # the identical (time, seq) pop order.
    times_by_task = [task.arrival_time for task in tasks]
    order = sorted(range(n), key=times_by_task.__getitem__)
    arr_time = [times_by_task[i] for i in order]
    for t in arr_time:
        if t < 0:
            raise SimulationError(f"event time must be >= 0, got {t}")

    seq = n  # next sequence number, continuing after the arrival block
    now = 0.0
    processed = 0
    ai = 0
    fifo = deque()  # (time, seq, code, proc) follow-ups at the current time
    comp: List[Tuple[float, int, int]] = []  # (time, seq, proc) completions
    inflight = {}  # proc -> (task, dispatch_time, comm_cost)
    pending_invoke = False
    plans = _comm_plans(sim)
    const_rates = _const_rates(sim)
    # Per-phase attribution mirrors the event backend's: policy invocations
    # are "scheduling", worker fetches "dispatch", completion processing
    # (incl. the terminal drain) "drain".  ``None`` when timing is off so
    # the hot loop pays no clock reads by default.
    phases = sim._phase_seconds if sim._phase_timing else None
    normals = _NormalBlocks(sim._network_rng)
    sample_queues = sim._sample_queues
    schedule_all = master.schedule_all_available
    pop_task_for = master.pop_task_for

    # Completion records accumulate in plain lists and flush into the trace
    # buffer in one vectorised extend per phase.
    col_task, col_proc, col_size, col_arrival = [], [], [], []
    col_assigned, col_dispatch, col_start, col_end = [], [], [], []

    def flush_records() -> None:
        if col_task:
            trace.extend_records(
                col_task, col_proc, col_size, col_arrival,
                col_assigned, col_dispatch, col_start, col_end,
            )

    def do_fetch(t: float, proc: int) -> None:
        nonlocal seq, pending_invoke
        worker = workers[proc]
        if worker.current_task is not None:
            return  # stale wake-up: the worker already fetched something
        task = pop_task_for(proc)
        if task is None:
            if master.unscheduled and not pending_invoke:
                pending_invoke = True
                fifo.append((t, seq, _INVOKE, -1))
                seq += 1
            return
        comm_cost = _sample_comm(plans[proc], t, normals)
        # Inlined WorkerState.start_task (validations that cannot fail on the
        # static path are elided; the arithmetic is identical).
        exec_start = t + comm_cost
        rate = const_rates[proc]
        if rate is None:
            rate = worker.processor.current_rate(exec_start)
        if rate <= 0:
            raise SimulationError(
                f"worker {proc} has non-positive rate at t={exec_start}"
            )
        completion_time = exec_start + task.size_mflops / rate
        worker.current_task = task
        worker.busy_until = completion_time
        worker.comm_seconds += comm_cost
        master.observe_dispatch(proc, comm_cost, t)
        heapq.heappush(comp, (completion_time, seq, proc))
        inflight[proc] = (task, t, comm_cost)
        seq += 1

    # -- phase 1: faithful merge loop while scheduling decisions can still occur --
    while True:
        if not fifo and ai == n and not master.unscheduled:
            break  # no invocation can ever run again: switch to the drain

        # Select the next event by the engine's (time, seq) order.
        src = -1
        best_t = best_s = 0.0
        if fifo:
            entry = fifo[0]
            best_t = entry[0]
            best_s = entry[1]
            src = 0
        if ai < n:
            t = arr_time[ai]
            if src < 0 or t < best_t or (t == best_t and order[ai] < best_s):
                best_t = t
                best_s = order[ai]
                src = 1
        if comp:
            head = comp[0]
            t = head[0]
            if src < 0 or t < best_t or (t == best_t and head[1] < best_s):
                best_t = t
                best_s = head[1]
                src = 2
        if src < 0:
            break  # nothing left to pop: work is stuck unscheduled
        if best_t > now:
            now = best_t

        if src == 1:  # TASK_ARRIVAL
            # All arrivals sharing this time pop back-to-back: their sequence
            # numbers (0..n-1) precede every runtime-scheduled event, so no
            # completion or follow-up at the same time can interleave.
            unscheduled = master.unscheduled
            unscheduled.append(tasks[order[ai]])
            ai += 1
            processed += 1
            while ai < n and arr_time[ai] == best_t:
                unscheduled.append(tasks[order[ai]])
                ai += 1
                processed += 1
            if not pending_invoke:
                pending_invoke = True
                fifo.append((best_t, seq, _INVOKE, -1))
                seq += 1
            if processed > max_events:
                flush_records()  # keep the error-path trace intact
                raise budget_error(max_events)
            continue
        if src == 2:  # TASK_COMPLETION
            branch_start = 0.0 if phases is None else perf_counter()
            _, _, proc = heapq.heappop(comp)
            worker = workers[proc]
            task, dispatch_time, comm_cost = inflight.pop(proc)
            worker.finish_task(best_t)
            exec_start = dispatch_time + comm_cost
            exec_seconds = best_t - exec_start
            worker.record_execution(exec_seconds)
            master.observe_completion(proc, task, exec_seconds, best_t)
            task_id = task.task_id
            col_task.append(task_id)
            col_proc.append(proc)
            col_size.append(task.size_mflops)
            col_arrival.append(task.arrival_time)
            col_assigned.append(master.assigned_time_of(task_id))
            col_dispatch.append(dispatch_time)
            col_start.append(exec_start)
            col_end.append(best_t)
            sim._completed += 1
            fifo.append((best_t, seq, _FETCH, proc))
            seq += 1
            if phases is not None:
                phases["drain"] += perf_counter() - branch_start
        else:  # follow-up FIFO: INVOKE_SCHEDULER or WORKER_FETCH
            branch_start = 0.0 if phases is None else perf_counter()
            _, _, code, proc = fifo.popleft()
            if code == _INVOKE:
                pending_invoke = False
                sample_queues(best_t)
                if schedule_all(best_t) > 0:
                    for worker in workers:
                        if (
                            worker.online
                            and worker.current_task is None
                            and master.proc_queues[worker.proc_id]
                        ):
                            fifo.append((best_t, seq, _FETCH, worker.proc_id))
                            seq += 1
                if phases is not None:
                    phases["scheduling"] += perf_counter() - branch_start
            else:
                do_fetch(best_t, proc)
                if phases is not None:
                    phases["dispatch"] += perf_counter() - branch_start

        processed += 1
        if processed > max_events:
            flush_records()  # keep the error-path trace intact
            raise budget_error(max_events)

    flush_records()
    if not comp:
        return now, processed

    # -- phase 2: terminal drain ------------------------------------------------------
    # Remaining work: each worker finishes its in-flight task and drains its
    # fixed master-side queue.  Feedback observations are dead from here on.
    remaining = sum(1 + len(master.proc_queues[p]) for p in inflight)
    drain_start = 0.0 if phases is None else perf_counter()
    now = _drain_sequential(
        sim, comp, inflight, plans, const_rates, normals, seq, processed, now,
        check_budget=processed + 2 * remaining > max_events,
    )
    if phases is not None:
        phases["drain"] += perf_counter() - drain_start
    return now, processed + 2 * remaining


def _drain_sequential(
    sim: "DistributedSystemSimulation",
    comp: List[Tuple[float, int, int]],
    inflight,
    plans,
    const_rates,
    normals: _NormalBlocks,
    seq: int,
    processed: int,
    now: float,
    *,
    check_budget: bool = False,
) -> float:
    """Drain the remaining fixed queues one completion at a time.

    Each communication cost is one draw from the shared network stream,
    taken in global dispatch order, so workers interleave exactly as the
    event loop would.  ``check_budget`` is only set when the caller could
    not prove up front that the event budget covers the whole drain.
    """
    master = sim.master
    workers = sim.workers
    trace = sim.trace
    max_events = sim.config.max_events
    queues = master.proc_queues
    assigned_time = master._assigned_time
    pending_loads = master.pending_loads
    heappush = heapq.heappush
    heappop = heapq.heappop
    n_procs = len(workers)
    inflight_task = [None] * n_procs
    inflight_dispatch = [0.0] * n_procs
    inflight_comm = [0.0] * n_procs
    for proc, (task, dispatch_time, comm_cost) in inflight.items():
        inflight_task[proc] = task
        inflight_dispatch[proc] = dispatch_time
        inflight_comm[proc] = comm_cost
    inflight.clear()

    # Record columns are batch-appended at the end: Python-list appends in
    # the loop, one vectorised extend into the trace buffer afterwards (and
    # on the budget error path, so the partial trace matches the event
    # backend's when the storm guard fires).
    col_task, col_proc, col_size, col_arrival = [], [], [], []
    col_assigned, col_dispatch, col_start, col_end = [], [], [], []
    completed = 0

    def flush() -> None:
        trace.extend_records(
            col_task, col_proc, col_size, col_arrival,
            col_assigned, col_dispatch, col_start, col_end,
        )
        sim._completed += completed

    while comp:
        t, _, proc = heappop(comp)
        if t > now:
            now = t
        worker = workers[proc]
        task = inflight_task[proc]
        exec_start = inflight_dispatch[proc] + inflight_comm[proc]
        worker.current_task = None
        worker.tasks_completed += 1
        worker.busy_seconds += t - exec_start
        pending_loads[proc] = max(0.0, pending_loads[proc] - task.size_mflops)
        task_id = task.task_id
        col_task.append(task_id)
        col_proc.append(proc)
        col_size.append(task.size_mflops)
        col_arrival.append(task.arrival_time)
        col_assigned.append(assigned_time[task_id])
        col_dispatch.append(inflight_dispatch[proc])
        col_start.append(exec_start)
        col_end.append(t)
        completed += 1
        if check_budget:
            processed += 1
            if processed > max_events:
                flush()
                raise budget_error(max_events)

        # The follow-up fetch: dispatch the next queued task, if any.
        seq += 1  # the fetch's own sequence number
        queue = queues[proc]
        if queue:
            nxt = queue.popleft()
            next_comm = _sample_comm(plans[proc], t, normals)
            next_start = t + next_comm
            rate = const_rates[proc]
            if rate is None:
                rate = worker.processor.current_rate(next_start)
            if rate <= 0:
                raise SimulationError(
                    f"worker {proc} has non-positive rate at t={next_start}"
                )
            completion = next_start + nxt.size_mflops / rate
            worker.current_task = nxt
            worker.busy_until = completion
            worker.comm_seconds += next_comm
            heappush(comp, (completion, seq, proc))
            inflight_task[proc] = nxt
            inflight_dispatch[proc] = t
            inflight_comm[proc] = next_comm
            seq += 1
        if check_budget:
            processed += 1
            if processed > max_events:
                flush()
                raise budget_error(max_events)

    flush()
    return now
