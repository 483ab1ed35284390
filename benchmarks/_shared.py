"""Helpers shared by the benchmark modules.

:class:`FigureCache` — the figure benchmark modules time one expensive
experiment once and run several cheap shape assertions against the cached
result.
"""

from __future__ import annotations

from typing import Callable, Dict

__all__ = ["FigureCache"]


class FigureCache:
    """Per-module cache of one figure result keyed by an arbitrary label."""

    def __init__(self) -> None:
        self._results: Dict[str, object] = {}

    def run_once(self, key: str, compute: Callable[[], object], benchmark=None):
        """Compute (and optionally benchmark) the result for *key* exactly once."""
        if key not in self._results:
            if benchmark is not None:
                self._results[key] = benchmark.pedantic(compute, rounds=1, iterations=1)
            else:
                self._results[key] = compute()
        return self._results[key]

    def get(self, key: str, compute: Callable[[], object]):
        """Return the cached result, computing it without timing if needed."""
        return self.run_once(key, compute, benchmark=None)
