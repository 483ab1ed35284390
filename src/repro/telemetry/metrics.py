"""Counters, gauges and numpy-binned histograms for telemetry sessions.

The metrics registry complements spans: spans answer *where did the time
go*, metrics answer *how much work happened* (events popped, tombstones
skipped, kernel batch sizes, queue depths).  Instruments are
get-or-create by name, snapshot to plain JSON-able dicts, and merge
additively across process boundaries — counters and histogram bins sum,
gauges are last-writer-wins.

Histograms are deliberately cheap: fixed bin edges held as a sorted numpy
array, observations binned with ``searchsorted`` and accumulated with
``bincount``, so recording a whole batch-size or queue-depth column is one
vectorised call, not a Python loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_EDGES"]

#: Default histogram bin edges: a coarse geometric ladder that covers batch
#: sizes, queue depths and per-wave counts at every experiment scale.
DEFAULT_EDGES = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                 1000.0, 2500.0, 5000.0, 10000.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add *amount* (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins, also across merges)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: Union[int, float]) -> None:
        """Record the gauge's current value."""
        self.value = float(value)


class Histogram:
    """Fixed-bin histogram over numpy edges.

    ``edges`` are the sorted upper-open bin boundaries; bin ``i`` counts
    observations in ``(edges[i-1], edges[i]]`` with an extra overflow bin
    past the last edge, so ``counts`` has ``len(edges) + 1`` entries.
    """

    __slots__ = ("name", "edges", "counts", "total", "sum")

    def __init__(self, name: str, edges: Optional[Iterable[float]] = None) -> None:
        self.name = name
        self.edges = np.asarray(
            sorted(edges) if edges is not None else DEFAULT_EDGES, dtype=float
        )
        if self.edges.size == 0:
            raise ValueError(f"histogram {name!r} needs at least one bin edge")
        self.counts = np.zeros(self.edges.size + 1, dtype=np.int64)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation."""
        self.counts[int(np.searchsorted(self.edges, value, side="left"))] += 1
        self.total += 1
        self.sum += float(value)

    def observe_many(self, values: Iterable[Union[int, float]]) -> None:
        """Record a whole batch of observations in one vectorised pass."""
        array = np.asarray(values, dtype=float).ravel()
        if array.size == 0:
            return
        indices = np.searchsorted(self.edges, array, side="left")
        self.counts += np.bincount(indices, minlength=self.counts.size).astype(np.int64)
        self.total += int(array.size)
        self.sum += float(array.sum())

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.total if self.total else 0.0


class MetricsRegistry:
    """Named instruments, get-or-create, snapshot/merge-able."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called *name* (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name* (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, edges: Optional[Iterable[float]] = None
    ) -> Histogram:
        """The histogram called *name* (created on first use with *edges*)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, edges)
        return instrument

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- snapshot / merge ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """Plain JSON-able form of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "edges": h.edges.tolist(),
                    "counts": h.counts.tolist(),
                    "total": h.total,
                    "sum": h.sum,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Dict[str, Dict]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this registry.

        Counters and histogram bins add; gauges take the incoming value.  A
        histogram whose recorded edges differ from the local instrument's
        folds its total/sum only (bins from different ladders cannot be
        summed meaningfully) — that only happens if two code paths name one
        histogram with different edges, which is a bug worth surfacing in
        the mismatched totals rather than an excuse to fail the run.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            edges = np.asarray(payload["edges"], dtype=float)
            local = self.histogram(name, edges)
            if local.edges.size == edges.size and np.array_equal(local.edges, edges):
                local.counts += np.asarray(payload["counts"], dtype=np.int64)
            local.total += int(payload["total"])
            local.sum += float(payload["sum"])

    def summary_rows(self) -> List[Dict[str, object]]:
        """Flat rows for rendering (name, kind, value/mean/total)."""
        rows: List[Dict[str, object]] = []
        for name, counter in sorted(self._counters.items()):
            rows.append({"name": name, "kind": "counter", "value": counter.value})
        for name, gauge in sorted(self._gauges.items()):
            rows.append({"name": name, "kind": "gauge", "value": gauge.value})
        for name, histogram in sorted(self._histograms.items()):
            rows.append(
                {
                    "name": name,
                    "kind": "histogram",
                    "value": histogram.total,
                    "mean": histogram.mean,
                }
            )
        return rows
