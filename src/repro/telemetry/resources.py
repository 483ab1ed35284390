"""Per-span resource attribution: CPU time, RSS and GC deltas.

Spans answer *where did the wall clock go*; this module answers *what did
that region cost the process*.  When a session is created with
``capture_resources=True`` every context-managed span additionally records:

* ``cpu_time`` — the :func:`time.process_time` delta across the span body
  (user + system CPU seconds of this process, all threads);
* ``rss_delta`` — the resident-set-size change in bytes (read from
  ``/proc/self/statm`` where available);
* ``gc_collections`` — cyclic garbage collections that ran during the span.

Capture is opt-in per session and follows the same free-when-off contract
as the rest of the subsystem: with no session (or an uninstrumented one)
instrumented code still pays only the single module-global read.  When
on, the probe samples only at the boundaries of context-managed spans — a
simulation opens one (``sim:run``) however many events it processes, which
``tests/test_telemetry.py::TestSpanCounts`` pins.  Like spans themselves,
the probe reads clocks and kernel counters only — never an RNG stream — so
resource capture is RNG-inert
(``TestResourceAttribution::test_resource_capture_is_rng_inert``).

Platform notes: ``process_time`` and the GC counter exist everywhere;
current RSS needs ``/proc/self/statm`` (Linux).  Elsewhere the probe falls
back to ``resource.getrusage`` peak RSS (deltas then only register while
the peak grows) or, failing that, reports zero — columns degrade to zero
rather than breaking the run or the export format.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Optional, Tuple

__all__ = [
    "ResourceProbe",
    "ResourceSample",
    "make_probe",
    "rss_bytes",
    "gc_collections",
]

#: One probe reading: (cpu seconds, resident bytes, collections so far).
ResourceSample = Tuple[float, int, int]

_STATM_PATH = "/proc/self/statm"

try:  # one sysconf call at import; statm reports pages
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # pragma: no cover - exotic platform
    _PAGE_SIZE = 4096

_HAVE_STATM = os.path.exists(_STATM_PATH)


def rss_bytes() -> int:
    """Current resident set size in bytes (0 when unmeasurable).

    Prefers the instantaneous ``/proc/self/statm`` reading; falls back to
    the high-water mark from ``getrusage`` (kilobytes on Linux, bytes on
    macOS — normalised to bytes) so non-Linux platforms still see monotone
    growth instead of a hard failure.
    """
    if _HAVE_STATM:
        try:
            with open(_STATM_PATH, "rb") as handle:
                return int(handle.read().split()[1]) * _PAGE_SIZE
        except (OSError, ValueError, IndexError):  # pragma: no cover - proc race
            return 0
    try:  # pragma: no cover - exercised only off-Linux
        import resource as _resource
        import sys

        peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        return int(peak) if sys.platform == "darwin" else int(peak) * 1024
    except Exception:  # pragma: no cover
        return 0


def gc_collections() -> int:
    """Total cyclic collections run by this process so far (all generations)."""
    return sum(stat["collections"] for stat in gc.get_stats())


class ResourceProbe:
    """Samples (cpu, rss, gc) for span deltas; one instance per session.

    The probe is stateless between samples — each :meth:`sample` is an
    independent reading — so concurrent open spans each diff their own
    before/after pair without coordination.
    """

    __slots__ = ()

    def sample(self) -> ResourceSample:
        """One reading of (cpu seconds, resident bytes, collections)."""
        return (time.process_time(), rss_bytes(), gc_collections())

    @staticmethod
    def delta(before: ResourceSample, after: ResourceSample) -> ResourceSample:
        """The per-span attribution between two samples.

        CPU and GC deltas are clamped at zero (both counters are monotone;
        a negative reading means clock weirdness, not negative work).  RSS
        deltas stay signed — a span that frees memory is worth seeing.
        """
        return (
            max(0.0, after[0] - before[0]),
            after[1] - before[1],
            max(0, after[2] - before[2]),
        )


def make_probe(capture: bool) -> Optional[ResourceProbe]:
    """A probe when *capture* is requested, else ``None`` (the free path)."""
    return ResourceProbe() if capture else None
