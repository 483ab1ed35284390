"""Hierarchical spans: the core of the :mod:`repro.telemetry` subsystem.

A *span* is one named, timed region of work.  Spans nest — opening a span
inside another records the parent/child edge — so a run produces a tree
(``campaign → cell → sim:run → phase:...``) that the CLI's ``telemetry``
subcommand can render, summarise and walk for the critical path.

Everything here observes the wall clock only.  Telemetry never touches an
RNG stream, never reorders work and never changes a result: enabled and
disabled runs are bit-identical (tested), which is the contract that lets
campaigns run with telemetry on in production without invalidating their
content-addressed caches.

The disabled path is a single module-global read.  When no session is
active, :func:`span` returns a shared no-op context manager and
:meth:`PhaseTimer.flush` returns immediately, so code instrumented with the
module-level helpers pays (almost) nothing unless someone asked to observe
it.

Sessions are process-local.  Cross-process runs (the process-pool and
work-stealing executors) create one session per worker-side job, snapshot
it, and ship the snapshot back with the result; the driver merges it under
its own open span with per-worker attribution — see
:mod:`repro.telemetry.remote`.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from .metrics import MetricsRegistry
from .resources import make_probe

__all__ = [
    "Span",
    "TelemetrySession",
    "PhaseTimer",
    "get_session",
    "enable",
    "disable",
    "telemetry_session",
    "span",
    "traced",
]

#: Safety valve: a session stops recording (and counts drops instead) past
#: this many spans, bounding driver memory over arbitrarily long campaigns.
MAX_SPANS = 200_000


@dataclass
class Span:
    """One named, timed region of work (a node of the session's span tree)."""

    name: str
    span_id: int
    parent_id: Optional[int]
    #: Seconds since the owning session started (session-relative, so spans
    #: merged from worker processes stay small and self-consistent).
    start: float
    duration: float
    #: Worker attribution (``"pid-1234"``) for spans merged from another
    #: process; empty for spans recorded in the driver.
    worker: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)
    #: Resource attribution (sessions with ``capture_resources=True`` only;
    #: zero otherwise, and zero for version-1 exports loaded back): CPU
    #: seconds, resident-set change in bytes, and GC collections across the
    #: span body.  See :mod:`repro.telemetry.resources`.
    cpu_time: float = 0.0
    rss_delta: int = 0
    gc_collections: int = 0

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (the JSONL export line, minus the ``kind`` tag)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "worker": self.worker,
            "attrs": dict(self.attrs),
            "cpu_time": self.cpu_time,
            "rss_delta": self.rss_delta,
            "gc_collections": self.gc_collections,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Span":
        """Inverse of :meth:`to_dict`.

        The resource columns default to zero, which is what makes version-1
        exports (recorded before resource attribution existed) loadable.
        """
        return cls(
            name=str(payload["name"]),
            span_id=int(payload["span_id"]),
            parent_id=(
                None if payload.get("parent_id") is None else int(payload["parent_id"])
            ),
            start=float(payload["start"]),
            duration=float(payload["duration"]),
            worker=str(payload.get("worker", "")),
            attrs=dict(payload.get("attrs", {})),
            cpu_time=float(payload.get("cpu_time", 0.0)),
            rss_delta=int(payload.get("rss_delta", 0)),
            gc_collections=int(payload.get("gc_collections", 0)),
        )


class TelemetrySession:
    """One run's worth of spans and metrics.

    Completed spans accumulate in :attr:`spans` (closed-child-first; sort by
    ``span_id`` for creation order) and counters/gauges/histograms in
    :attr:`metrics`.  The session tracks the stack of *open* spans so that
    new spans — including whole subtrees merged from worker snapshots —
    attach to the innermost open one.
    """

    def __init__(
        self, max_spans: int = MAX_SPANS, *, capture_resources: bool = False
    ) -> None:
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry()
        self.max_spans = int(max_spans)
        #: Spans discarded after :attr:`max_spans` was reached.
        self.dropped_spans = 0
        #: Whether context-managed spans also record CPU/RSS/GC deltas
        #: (see :mod:`repro.telemetry.resources`); off by default so the
        #: enabled-telemetry hot path stays probe-free unless asked.
        self.capture_resources = bool(capture_resources)
        self._probe = make_probe(self.capture_resources)
        self._stack: List[int] = []
        self._next_id = 0
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------------------
    @property
    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span (``None`` at the root)."""
        return self._stack[-1] if self._stack else None

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _append(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
        else:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        """Open a child span around the ``with`` body.

        With :attr:`capture_resources` on, the span also carries the CPU
        time, RSS delta and GC collections of its body (inclusive of
        children, like ``duration``).
        """
        span_id = self._next_id
        self._next_id += 1
        parent_id = self.current_span_id
        self._stack.append(span_id)
        probe = self._probe
        before = probe.sample() if probe is not None else None
        start = self._now()
        try:
            yield
        finally:
            self._stack.pop()
            cpu_time, rss_delta, collections = (
                probe.delta(before, probe.sample())
                if probe is not None
                else (0.0, 0, 0)
            )
            self._append(
                Span(
                    name=name,
                    span_id=span_id,
                    parent_id=parent_id,
                    start=start,
                    duration=self._now() - start,
                    attrs=attrs,
                    cpu_time=cpu_time,
                    rss_delta=rss_delta,
                    gc_collections=collections,
                )
            )

    def record_span(
        self,
        name: str,
        duration: float,
        *,
        parent_id: Optional[int] = -1,
        cpu_time: float = 0.0,
        rss_delta: int = 0,
        gc_collections: int = 0,
        **attrs: object,
    ) -> int:
        """Record an already-measured span (no body to wrap); returns its id.

        Used for attribution accumulated elsewhere — e.g. the simulator's
        per-phase seconds, measured by the hot loop itself and emitted as
        child spans once per run.  ``parent_id=-1`` (the default) attaches
        to the innermost open span.  Pre-measured resource deltas may ride
        along the same way.
        """
        span_id = self._next_id
        self._next_id += 1
        self._append(
            Span(
                name=name,
                span_id=span_id,
                parent_id=self.current_span_id if parent_id == -1 else parent_id,
                start=self._now(),
                duration=float(duration),
                attrs=attrs,
                cpu_time=float(cpu_time),
                rss_delta=int(rss_delta),
                gc_collections=int(gc_collections),
            )
        )
        return span_id

    # -- cross-process merge ------------------------------------------------------------
    def snapshot(self, worker: str = "") -> Dict[str, object]:
        """This session as plain picklable data (spans + metrics).

        The inverse is :meth:`merge_snapshot` on the *receiving* session.
        """
        return {
            "worker": worker,
            "dropped_spans": self.dropped_spans,
            "spans": [span.to_dict() for span in self.spans],
            "metrics": self.metrics.snapshot(),
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Graft a worker snapshot into this session's tree.

        Span ids are remapped past this session's counter, the snapshot's
        root spans become children of the innermost open span, every span
        without its own attribution inherits the snapshot's ``worker``, and
        metrics fold additively (see :meth:`MetricsRegistry.merge`).
        """
        spans = snapshot.get("spans", [])
        base = self._next_id
        self._next_id += len(spans)
        attach_to = self.current_span_id
        worker = str(snapshot.get("worker", ""))
        for payload in spans:
            span = Span.from_dict(payload)
            span.span_id += base
            span.parent_id = attach_to if span.parent_id is None else span.parent_id + base
            if not span.worker:
                span.worker = worker
            self._append(span)
        self.dropped_spans += int(snapshot.get("dropped_spans", 0))
        self.metrics.merge(snapshot.get("metrics", {}))


# -- module-level activation ------------------------------------------------------------
_ACTIVE: Optional[TelemetrySession] = None


class _NoopSpan:
    """Shared do-nothing context manager returned while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


def get_session() -> Optional[TelemetrySession]:
    """The process's active session, or ``None`` when telemetry is off."""
    return _ACTIVE


def enable(session: Optional[TelemetrySession] = None) -> TelemetrySession:
    """Activate *session* (a fresh one by default) and return it."""
    global _ACTIVE
    _ACTIVE = session if session is not None else TelemetrySession()
    return _ACTIVE


def disable() -> Optional[TelemetrySession]:
    """Deactivate and return the active session (``None`` if none was)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


@contextmanager
def telemetry_session(
    session: Optional[TelemetrySession] = None,
) -> Iterator[TelemetrySession]:
    """Activate a session for the ``with`` body, restoring the previous one.

    The restore (rather than a plain :func:`disable`) is what makes nested
    activations — a worker wrapper running on the driver's serial-fallback
    path, or a test inside an instrumented harness — well-behaved.
    """
    global _ACTIVE
    previous = _ACTIVE
    active = enable(session)
    try:
        yield active
    finally:
        _ACTIVE = previous


def span(name: str, **attrs: object):
    """Open a span on the active session; a shared no-op when telemetry is off.

    This is the instrumentation entry point for code that must stay cheap
    when unobserved: the disabled cost is one global read plus returning a
    shared singleton.
    """
    session = _ACTIVE
    if session is None:
        return _NOOP_SPAN
    return session.span(name, **attrs)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator form of :func:`span` (span name defaults to the function's)."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


class _PhaseMeasure:
    """The context manager of :meth:`PhaseTimer.measure` (a class: the GA
    engine opens several per generation, and this is cheaper than a
    generator-based one)."""

    __slots__ = ("_timer", "_name", "_start")

    def __init__(self, timer: "PhaseTimer", name: str) -> None:
        self._timer = timer
        self._name = name

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        self._timer.record(self._name, time.perf_counter() - self._start)


class PhaseTimer:
    """Accumulate named phase durations, then flush them as one span subtree.

    The successor of the deleted ``util.timing.TimingRecorder``: same
    accumulation API (``measure`` / ``record`` / ``total`` / ``count`` /
    ``grand_total``) but each consumer owns a private instance and emits its
    totals into the active session exactly once, at :meth:`flush`.  That
    per-run ownership is what makes phase attribution safe under the async
    work-stealing executor — concurrent cells each flush their own subtree
    instead of interleaving samples into one shared flat dict.
    """

    __slots__ = ("totals", "counts")

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def record(self, name: str, seconds: float) -> None:
        """Add one measured interval under *name*."""
        self.totals[name] = self.totals.get(name, 0.0) + float(seconds)
        self.counts[name] = self.counts.get(name, 0) + 1

    def measure(self, name: str) -> "_PhaseMeasure":
        """Context manager recording the wall time of its body under *name*."""
        return _PhaseMeasure(self, name)

    def total(self, name: str) -> float:
        """Total seconds recorded under *name* (0.0 if never recorded)."""
        return self.totals.get(name, 0.0)

    def count(self, name: str) -> int:
        """Number of intervals recorded under *name*."""
        return self.counts.get(name, 0)

    def grand_total(self) -> float:
        """Total seconds across all phases."""
        return float(sum(self.totals.values()))

    def flush(
        self,
        name: str,
        session: Optional[TelemetrySession] = None,
        **attrs: object,
    ) -> Optional[int]:
        """Emit one *name* span with a child span per phase; no-op when off.

        Returns the parent span's id, or ``None`` when no session is active.
        """
        session = session if session is not None else _ACTIVE
        if session is None:
            return None
        parent = session.record_span(name, self.grand_total(), **attrs)
        for phase, seconds in self.totals.items():
            session.record_span(
                f"phase:{phase}", seconds, parent_id=parent, count=self.counts[phase]
            )
        return parent
