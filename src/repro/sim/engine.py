"""Minimal discrete-event engine: a time-ordered event queue and a run loop.

The hot path is array-backed: the heap holds plain ``(time, seq, push_index,
kind_code, event)`` tuples (tuple comparison never falls through to the event
object because ``push_index`` is unique), handlers live in a list indexed by
the dense :data:`~repro.sim.events.KIND_CODES` integer of each kind, and
cancellation is a tombstone set consulted lazily by :meth:`EventQueue.pop`
and :meth:`EventQueue.peek` — the heap is never re-ordered or rebuilt.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Set, Tuple

from ..util.errors import SimulationError
from .events import CODED_KINDS, KIND_CODES, Event, EventKind

__all__ = ["EventQueue", "DiscreteEventEngine", "budget_error"]

#: Number of distinct event kinds (sizes the engine's handler table).
_N_KINDS = len(CODED_KINDS)


def budget_error(max_events: int) -> SimulationError:
    """The event-storm error both simulation backends raise identically."""
    return SimulationError(
        f"event budget of {max_events} exceeded; "
        "the simulation is likely stuck in an event loop"
    )


class EventQueue:
    """A priority queue of :class:`Event` objects ordered by time then insertion.

    Internally an array-backed heap of ``(time, seq, push_index, kind_code,
    event)`` records; cancelled events are tombstoned by their ``seq`` and
    skipped lazily on :meth:`pop` *and* :meth:`peek` without re-heapifying.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, int, Event]] = []
        self._pushed = 0
        self._tombstones: Set[int] = set()
        #: Cancelled records discarded by lazy skipping (telemetry reads
        #: this once per run; the skip loop itself stays branch-free).
        self.tombstones_skipped = 0

    def push(self, event: Event) -> None:
        """Insert an event."""
        heapq.heappush(
            self._heap,
            (event.time, event.seq, self._pushed, KIND_CODES[event.kind], event),
        )
        self._pushed += 1

    def cancel(self, seq: int) -> None:
        """Tombstone the event with sequence number *seq*.

        The record stays in the heap but is skipped (and discarded) by the
        next :meth:`pop` or :meth:`peek` that reaches it.  Cancelling an
        unknown or already-popped sequence number has no effect on queue
        behaviour; such stale tombstones are pruned lazily by
        :meth:`__len__` so they cannot accumulate.
        """
        self._tombstones.add(seq)

    def _skip_tombstones(self) -> None:
        heap = self._heap
        tombstones = self._tombstones
        while heap and heap[0][1] in tombstones:
            tombstones.discard(heap[0][1])
            heapq.heappop(heap)
            self.tombstones_skipped += 1

    def pop(self) -> Event:
        """Remove and return the earliest live event (raises when empty)."""
        return self.pop_record()[4]

    def pop_record(self) -> Tuple[float, int, int, int, Event]:
        """Remove and return the earliest live heap record (raises when empty).

        The record is ``(time, seq, push_index, kind_code, event)``;
        ``kind_code`` lets the engine's run loop index its handler table
        without re-hashing the event's kind per event.
        """
        self._skip_tombstones()
        if not self._heap:
            raise SimulationError("cannot pop from an empty event queue")
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """Return the earliest live event without removing it (raises when empty).

        Tombstoned (cancelled) records are discarded on the way, exactly as
        :meth:`pop` does, so a cancelled head never masks the next live event.
        """
        self._skip_tombstones()
        if not self._heap:
            raise SimulationError("cannot peek into an empty event queue")
        return self._heap[0][4]

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events in the queue.

        Tombstoned records that are not at the heap head still occupy heap
        slots, so they are counted out explicitly.  The scan only happens
        while cancellations are actually outstanding, and it prunes
        tombstones for sequence numbers no longer in the heap (stale
        cancels of already-popped events), so repeated calls stay O(1)
        once the outstanding cancellations clear.
        """
        self._skip_tombstones()
        if not self._tombstones:
            return len(self._heap)
        self._tombstones &= {record[1] for record in self._heap}
        return len(self._heap) - len(self._tombstones)

    def __bool__(self) -> bool:
        self._skip_tombstones()
        return bool(self._heap)


class DiscreteEventEngine:
    """Run loop: pops events in time order and dispatches them to handlers.

    Handlers are registered per :class:`EventKind`; each handler receives the
    event and may push follow-up events through :meth:`schedule`.  The engine
    enforces that time never goes backwards and guards against runaway event
    storms with a configurable event budget.

    Each engine owns its own event sequence counter, so the ``(time, seq)``
    tie-break ordering of simultaneous events is deterministic per simulation
    and independent of any other simulation run in the same process.
    """

    def __init__(self, max_events: int = 10_000_000) -> None:
        if max_events <= 0:
            raise SimulationError(f"max_events must be positive, got {max_events}")
        self.queue = EventQueue()
        self.now = 0.0
        self.processed_events = 0
        self.max_events = int(max_events)
        self._handler_table: List[Optional[Callable[[Event], None]]] = [None] * _N_KINDS
        self._registration_order: List[EventKind] = []
        self._sequence = 0

    def register(self, kind: EventKind, handler: Callable[[Event], None]) -> None:
        """Register the handler invoked for every event of *kind*."""
        if self._handler_table[KIND_CODES[kind]] is None:
            self._registration_order.append(kind)
        self._handler_table[KIND_CODES[kind]] = handler

    def unregister_all(self) -> None:
        """Drop every handler (a later :meth:`register` starts afresh)."""
        self._handler_table = [None] * _N_KINDS
        self._registration_order = []

    def registered_kinds(self) -> List[EventKind]:
        """Event kinds that currently have a handler (in registration order)."""
        return list(self._registration_order)

    def schedule(self, time: float, kind: EventKind, **data) -> Event:
        """Create an event at *time* and insert it into the queue.

        Raises a :class:`SimulationError` immediately when *kind* has no
        registered handler: failing here, with the scheduling call still on
        the stack, is far easier to diagnose than the same failure surfacing
        later from :meth:`run` with no hint of who produced the event.
        """
        if self._handler_table[KIND_CODES[kind]] is None:
            registered = sorted(k.value for k in self.registered_kinds())
            raise SimulationError(
                f"cannot schedule event kind {kind.value!r}: no handler is registered "
                f"for it (registered kinds: {registered or 'none'}); call "
                f"engine.register({kind!s}, handler) before scheduling"
            )
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule an event at t={time} before the current time {self.now}"
            )
        seq = self._sequence
        self._sequence = seq + 1
        event = Event.make(max(time, self.now), kind, seq=seq, **data)
        self.queue.push(event)
        return event

    def cancel(self, event: Event) -> None:
        """Revoke a previously scheduled event: it is skipped when popped.

        Cancellation is by tombstone (the heap is not re-ordered); cancelled
        events do not count towards the processed-event budget.
        """
        self.queue.cancel(event.seq)

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue empties (or simulated *until* is reached).

        Returns the simulation time of the last processed event.
        """
        queue = self.queue
        table = self._handler_table
        while queue:
            if until is not None and queue.peek().time > until:
                break
            time, _, _, code, event = queue.pop_record()
            if time < self.now - 1e-9:
                raise SimulationError(
                    f"event at t={time} is earlier than current time {self.now}"
                )
            if time > self.now:
                self.now = time
            handler = table[code]
            if handler is None:
                registered = sorted(k.value for k in self.registered_kinds())
                raise SimulationError(
                    f"no handler registered for event kind {event.kind.value!r} "
                    f"(registered kinds: {registered or 'none'})"
                )
            handler(event)
            self.processed_events += 1
            if self.processed_events > self.max_events:
                raise budget_error(self.max_events)
        return self.now
