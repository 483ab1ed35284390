"""The event-driven simulation loop: one heap of plain tuples, handlers inline.

:func:`run_events` runs every simulation the static fast path does not
(:func:`~repro.sim.fastpath.is_static`): runs with worker failures,
recoveries, joins or load spikes, and any run whose ``uses_fast_path`` a
test patches to ``False`` to hold the fast path to these bits.

The heap holds ``(time, seq, code, payload)`` records.  ``seq`` is unique,
so tuple comparison never reaches the code or the payload, and simultaneous
events pop in the order they were scheduled:

* the arrivals take ``0..n-1`` in task order;
* the dynamics timeline's events take the next numbers, in timeline order;
* runtime events are numbered as they are scheduled.

Runtime events are scheduled at the current time (follow-ups) or after it
(a completion adds a non-negative communication cost and execution time),
so only the initial events can fall behind the simulation clock; those are
clamped to it, and one more than ``1e-12`` behind raises.

A failure cancels its worker's pending completion without touching the
heap: each worker holds the sequence number of its live completion, or -1,
and a popped completion whose number is not live is skipped uncounted.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import TYPE_CHECKING, Tuple

from ..util.errors import SimulationError
from .events import EventKind
from .fastpath import _comm_plans, _const_rates, _NormalBlocks, _sample_comm, budget_error

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulation import DistributedSystemSimulation

__all__ = ["run_events"]

#: Heap record codes, one per :class:`EventKind`.
_ARRIVAL = 0
_INVOKE = 1
_FETCH = 2
_COMPLETION = 3
_FAILURE = 4
_RECOVERY = 5
_JOIN = 6
_SPIKE = 7

#: The codes a dynamics timeline may schedule.
_DYNAMICS_CODES = {
    EventKind.WORKER_FAILURE: _FAILURE,
    EventKind.WORKER_RECOVERY: _RECOVERY,
    EventKind.WORKER_JOIN: _JOIN,
    EventKind.LOAD_SPIKE: _SPIKE,
}


def _initial_time(time: float, now: float) -> float:
    """Clamp an initial event's *time* to the clock, rejecting the past."""
    if time < now - 1e-12:
        raise SimulationError(
            f"cannot schedule an event at t={time} before the current time {now}"
        )
    time = max(time, now)
    if time < 0:
        raise SimulationError(f"event time must be >= 0, got {time}")
    return float(time)


def run_events(sim: "DistributedSystemSimulation") -> Tuple[float, int]:
    """Run *sim* to completion event by event.

    Returns ``(end_time, events_processed)``.  The clock persists on the
    simulation across calls, so running a finished simulation again fails
    loudly instead of replaying on stale state.  Completion records collect
    in column lists and reach the trace in one extend, also when the run
    raises.
    """
    master = sim.master
    workers = sim.workers
    max_events = sim.config.max_events
    now = sim._clock

    heap = [
        (_initial_time(task.arrival_time, now), seq, _ARRIVAL, task)
        for seq, task in enumerate(sim.tasks)
    ]
    if sim._dynamics is not None:
        next_task_id = max(task.task_id for task in sim.tasks) + 1
        for time, kind, data in sim._dynamics.sim_events(
            next_task_id=next_task_id, rng=sim._dynamics_rng
        ):
            code = _DYNAMICS_CODES.get(kind)
            if code is None:
                raise SimulationError(
                    f"a dynamics timeline cannot schedule {kind!r} events"
                )
            payload = data["tasks"] if code == _SPIKE else int(data["proc"])
            heap.append((_initial_time(time, now), len(heap), code, payload))
    heapq.heapify(heap)
    next_seq = len(heap)
    heappush = heapq.heappush
    heappop = heapq.heappop

    unscheduled = master.unscheduled
    proc_queues = master.proc_queues
    assigned_time = master._assigned_time
    schedule_all = master.schedule_all_available
    observe_dispatch = master.observe_dispatch
    observe_completion = master.observe_completion
    sample_queues = sim._sample_queues
    counts = sim._counts
    plans = _comm_plans(sim)
    rates = _const_rates(sim)
    normals = _NormalBlocks(sim._network_rng)
    # Per worker: the sequence number of its live completion (-1 when none)
    # and the dispatch time and communication cost of its in-flight task.
    live = [-1] * len(workers)
    dispatched = [0.0] * len(workers)
    comms = [0.0] * len(workers)
    pending_invoke = False
    processed = 0
    skipped = 0
    completed = 0
    # ``None`` when phase timing is off, so the loop reads no clocks.
    phases = sim._phase_seconds if sim._phase_timing else None
    col_task, col_proc, col_size, col_arrival = [], [], [], []
    col_assigned, col_dispatch, col_start, col_end = [], [], [], []

    try:
        while heap:
            t, seq, code, payload = heappop(heap)
            if code == _COMPLETION and live[payload] != seq:
                skipped += 1  # cancelled by a failure: never handled or counted
                continue
            if t < now - 1e-9:
                raise SimulationError(f"event at t={t} is earlier than current time {now}")
            if t > now:
                now = t

            if code == _FETCH:
                start = 0.0 if phases is None else perf_counter()
                worker = workers[payload]
                # A worker that failed or already fetched ignores the wake-up.
                if worker.online and worker.current_task is None:
                    queue = proc_queues[payload]
                    if queue:
                        task = queue.popleft()
                        comm = _sample_comm(plans[payload], t, normals)
                        exec_start = t + comm
                        rate = rates[payload]
                        if rate is None:
                            rate = worker.processor.current_rate(exec_start)
                        if rate <= 0:
                            raise SimulationError(
                                f"worker {payload} has non-positive rate at t={exec_start}"
                            )
                        completion = exec_start + task.size_mflops / rate
                        worker.current_task = task
                        worker.busy_until = completion
                        worker.comm_seconds += comm
                        observe_dispatch(payload, comm, t)
                        heappush(heap, (completion, next_seq, _COMPLETION, payload))
                        live[payload] = next_seq
                        dispatched[payload] = t
                        comms[payload] = comm
                        next_seq += 1
                    elif unscheduled and not pending_invoke:
                        # The queue ran dry: ask for more work.
                        pending_invoke = True
                        heappush(heap, (t, next_seq, _INVOKE, None))
                        next_seq += 1
                if phases is not None:
                    phases["dispatch"] += perf_counter() - start
            elif code == _COMPLETION:
                start = 0.0 if phases is None else perf_counter()
                worker = workers[payload]
                task = worker.finish_task(t)
                live[payload] = -1
                dispatch_time = dispatched[payload]
                exec_start = dispatch_time + comms[payload]
                exec_seconds = t - exec_start
                worker.record_execution(exec_seconds)
                observe_completion(payload, task, exec_seconds, t)
                task_id = task.task_id
                col_task.append(task_id)
                col_proc.append(payload)
                col_size.append(task.size_mflops)
                col_arrival.append(task.arrival_time)
                col_assigned.append(assigned_time[task_id])
                col_dispatch.append(dispatch_time)
                col_start.append(exec_start)
                col_end.append(t)
                completed += 1
                heappush(heap, (t, next_seq, _FETCH, payload))
                next_seq += 1
                if phases is not None:
                    phases["drain"] += perf_counter() - start
            elif code == _INVOKE:
                start = 0.0 if phases is None else perf_counter()
                pending_invoke = False
                sample_queues(t)
                if schedule_all(t) > 0:
                    # Wake every idle online worker whose queue now has work.
                    for proc, worker in enumerate(workers):
                        if worker.online and worker.current_task is None and proc_queues[proc]:
                            heappush(heap, (t, next_seq, _FETCH, proc))
                            next_seq += 1
                if phases is not None:
                    phases["scheduling"] += perf_counter() - start
            elif code == _ARRIVAL:
                unscheduled.append(payload)
                if not pending_invoke:
                    pending_invoke = True
                    heappush(heap, (t, next_seq, _INVOKE, None))
                    next_seq += 1
            else:
                wake = False
                if code == _SPIKE:
                    sim._injected += len(payload)
                    unscheduled.extend(payload)
                    sample_queues(t)
                    wake = bool(payload)
                elif code == _FAILURE:
                    worker = workers[payload]
                    if worker.online:
                        # Its in-flight task and queue go back to the front of
                        # the unscheduled queue; its pending completion is stale.
                        live[payload] = -1
                        requeued = master.mark_offline(payload, worker.fail(t))
                        counts["failures"] += 1
                        sample_queues(t)
                        wake = requeued > 0 and bool(master.online_processors())
                elif not workers[payload].online:  # recovery or first join
                    counts["recoveries" if code == _RECOVERY else "joins"] += 1
                    workers[payload].come_online(t)
                    master.mark_online(payload)
                    # Membership changed: pull back every undispatched task so
                    # the policy can spread the backlog over the new member.
                    master.reclaim_undispatched()
                    sample_queues(t)
                    wake = bool(unscheduled)
                if wake and not pending_invoke:
                    pending_invoke = True
                    heappush(heap, (t, next_seq, _INVOKE, None))
                    next_seq += 1

            processed += 1
            if processed > max_events:
                raise budget_error(max_events)
    finally:
        sim._clock = now
        sim._completed += completed
        sim._skipped_completions += skipped
        if col_task:
            sim.trace.extend_records(
                col_task, col_proc, col_size, col_arrival,
                col_assigned, col_dispatch, col_start, col_end,
            )
    return now, processed
