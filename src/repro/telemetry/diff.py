"""Run-to-run telemetry diffing: which *phase* regressed, not just which number.

``repro telemetry diff A.jsonl B.jsonl`` aligns two exported span trees
structurally and reports, per aligned node, the elapsed/count/resource
deltas from run A (the baseline) to run B (the candidate).  Alignment is by
**name-path**: every span maps to the ``/``-joined chain of span names from
its root (``campaign:ci/cell:scenario:x/sim:run/phase:drain``), and all
spans sharing a path aggregate into one node.  That makes the alignment

* *order-tolerant* — two runs that computed the same cells in different
  order (or on different workers: ``pid-<n>`` attribution is deliberately
  not part of the path) align node-for-node;
* *shape-tolerant* — a path present in only one run still shows up, with
  zero count on the other side (a warm campaign's missing ``sim:run``
  subtree is a *finding*: the delta is attributed to cache hits).

Significance is a relative threshold on elapsed time (default 5 %) with an
absolute epsilon floor so microsecond jitter in tiny spans never flags.
The *deepest regressed path* walks the tree from the worst top-level
regression downward, following significant regressions while they explain
the parent's slowdown — the output a CI gate wants when a throughput number
moved ("drain +38 %, schedule flat").

The machine-readable record (:func:`diff_record`, ``--output``) is a plain
JSON document holding the same per-path deltas, verdict and counter deltas
as the rendered table, for a CI artifact or a script to read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..util.errors import ConfigurationError
from .spans import Span

__all__ = [
    "DIFF_FORMAT_VERSION",
    "DEFAULT_THRESHOLD",
    "DEFAULT_MIN_SECONDS",
    "PathNode",
    "PathDelta",
    "RunDiff",
    "aggregate_by_path",
    "diff_runs",
    "diff_record",
    "render_diff",
]

DIFF_FORMAT_VERSION = 1

#: Default relative elapsed-time change flagged as significant.
DEFAULT_THRESHOLD = 0.05
#: Absolute elapsed floor (seconds): below this, a node never flags — the
#: relative threshold alone would make microsecond jitter scream.
DEFAULT_MIN_SECONDS = 1e-3


@dataclass
class PathNode:
    """All spans of one run sharing one name-path, folded together."""

    path: str
    name: str
    depth: int
    count: int = 0
    elapsed: float = 0.0
    cpu_time: float = 0.0
    rss_delta: int = 0
    gc_collections: int = 0
    workers: List[str] = field(default_factory=list)


def aggregate_by_path(spans: Sequence[Span]) -> Dict[str, PathNode]:
    """Fold *spans* into per-name-path nodes.

    Parents resolve by span id; spans whose parent was dropped (session cap)
    or never existed aggregate as roots, matching the tolerance of
    :func:`~repro.telemetry.introspect.span_children`.  Worker attribution
    is collected per node but never keyed on, which is what makes worker
    subtrees order- and placement-tolerant.
    """
    by_id = {span.span_id: span for span in spans}
    paths: Dict[int, str] = {}

    def path_of(span: Span) -> str:
        cached = paths.get(span.span_id)
        if cached is not None:
            return cached
        # Walk to the root iteratively; a cycle (malformed input) breaks at
        # the first revisited id and treats that span as a root.
        chain: List[Span] = []
        seen = set()
        node: Optional[Span] = span
        while node is not None and node.span_id not in seen:
            seen.add(node.span_id)
            chain.append(node)
            node = (
                by_id.get(node.parent_id) if node.parent_id is not None else None
            )
        path = ""
        for link in reversed(chain):
            known = paths.get(link.span_id)
            if known is not None:
                path = known
                continue
            path = f"{path}/{link.name}" if path else link.name
            paths[link.span_id] = path
        return paths[span.span_id]

    nodes: Dict[str, PathNode] = {}
    for span in spans:
        path = path_of(span)
        node = nodes.get(path)
        if node is None:
            node = nodes[path] = PathNode(
                path=path, name=span.name, depth=path.count("/")
            )
        node.count += 1
        node.elapsed += span.duration
        node.cpu_time += span.cpu_time
        node.rss_delta += span.rss_delta
        node.gc_collections += span.gc_collections
        if span.worker and span.worker not in node.workers:
            node.workers.append(span.worker)
    return nodes


@dataclass
class PathDelta:
    """One aligned node's A→B change."""

    path: str
    name: str
    depth: int
    count_a: int
    count_b: int
    elapsed_a: float
    elapsed_b: float
    delta_seconds: float
    #: Relative change of elapsed time; ``inf`` for paths new in B.
    delta_ratio: float
    cpu_a: float
    cpu_b: float
    rss_a: int
    rss_b: int
    significant: bool
    #: "regressed" | "improved" | "flat" | "added" | "removed"
    direction: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "name": self.name,
            "depth": self.depth,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "elapsed_a": self.elapsed_a,
            "elapsed_b": self.elapsed_b,
            "delta_seconds": self.delta_seconds,
            "delta_ratio": (
                None if self.delta_ratio == float("inf") else self.delta_ratio
            ),
            "cpu_a": self.cpu_a,
            "cpu_b": self.cpu_b,
            "rss_a": self.rss_a,
            "rss_b": self.rss_b,
            "significant": self.significant,
            "direction": self.direction,
        }


@dataclass
class RunDiff:
    """The full structural diff of two telemetry runs."""

    run_a: Dict[str, object]
    run_b: Dict[str, object]
    threshold: float
    min_seconds: float
    deltas: List[PathDelta]
    #: Counter deltas (B minus A), only counters present in either run.
    counter_deltas: Dict[str, float]
    deepest_regression: Optional[PathDelta]

    @property
    def regressions(self) -> List[PathDelta]:
        """Significant slowdowns, worst absolute delta first."""
        rows = [d for d in self.deltas if d.significant and d.direction == "regressed"]
        rows.sort(key=lambda d: d.delta_seconds, reverse=True)
        return rows

    @property
    def improvements(self) -> List[PathDelta]:
        """Significant speedups, largest absolute delta first."""
        rows = [d for d in self.deltas if d.significant and d.direction == "improved"]
        rows.sort(key=lambda d: d.delta_seconds)
        return rows

    def node(self, path: str) -> Optional[PathDelta]:
        """The delta row for *path* (``None`` when neither run has it)."""
        for delta in self.deltas:
            if delta.path == path:
                return delta
        return None

    @property
    def total_a(self) -> float:
        return sum(d.elapsed_a for d in self.deltas if d.depth == 0)

    @property
    def total_b(self) -> float:
        return sum(d.elapsed_b for d in self.deltas if d.depth == 0)


def _classify(
    elapsed_a: float, elapsed_b: float, threshold: float, min_seconds: float
) -> Tuple[float, bool, str]:
    """(relative delta, significant?, direction) for one aligned node."""
    delta = elapsed_b - elapsed_a
    if elapsed_a <= 0.0:
        ratio = float("inf") if elapsed_b > 0.0 else 0.0
    else:
        ratio = delta / elapsed_a
    big_enough = abs(delta) >= min_seconds and abs(ratio) >= threshold
    if elapsed_a <= 0.0 and elapsed_b > 0.0:
        return ratio, elapsed_b >= min_seconds, "added"
    if elapsed_b <= 0.0 and elapsed_a > 0.0:
        return ratio, elapsed_a >= min_seconds, "removed"
    if not big_enough:
        return ratio, False, "flat"
    return ratio, True, ("regressed" if delta > 0 else "improved")


def _deepest_regression(
    deltas: Sequence[PathDelta], threshold: float
) -> Optional[PathDelta]:
    """Follow the regression down the tree to the most specific culprit.

    Starting from the worst significant top-level regression, descend into
    the child whose slowdown explains at least half of the parent's, while
    such a child exists.  The stopping node is the deepest span path the
    regression can be pinned on — "the drain, not the whole campaign".
    """
    significant = [
        d for d in deltas if d.significant and d.direction in ("regressed", "added")
    ]
    if not significant:
        return None
    by_parent: Dict[str, List[PathDelta]] = {}
    for delta in significant:
        parent = delta.path.rsplit("/", 1)[0] if "/" in delta.path else ""
        by_parent.setdefault(parent, []).append(delta)
    roots = sorted(significant, key=lambda d: (d.depth, -d.delta_seconds))
    current = roots[0]
    while True:
        children = by_parent.get(current.path, [])
        candidates = [
            c for c in children if c.delta_seconds >= 0.5 * current.delta_seconds
        ]
        if not candidates:
            return current
        current = max(candidates, key=lambda c: c.delta_seconds)


def diff_runs(
    run_a: Dict[str, object],
    run_b: Dict[str, object],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> RunDiff:
    """Structurally align two loaded runs (see :func:`load_run_jsonl`).

    *run_a* is the baseline, *run_b* the candidate; positive deltas mean B
    is slower.  ``threshold`` is the relative elapsed change flagged as
    significant, ``min_seconds`` the absolute floor beneath which nothing
    flags.
    """
    if not (0.0 <= float(threshold)):
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    nodes_a = aggregate_by_path(run_a.get("spans", []))
    nodes_b = aggregate_by_path(run_b.get("spans", []))
    deltas: List[PathDelta] = []
    for path in sorted(set(nodes_a) | set(nodes_b)):
        a = nodes_a.get(path)
        b = nodes_b.get(path)
        elapsed_a = a.elapsed if a else 0.0
        elapsed_b = b.elapsed if b else 0.0
        ratio, significant, direction = _classify(
            elapsed_a, elapsed_b, threshold, min_seconds
        )
        template = a if a is not None else b
        deltas.append(
            PathDelta(
                path=path,
                name=template.name,
                depth=template.depth,
                count_a=a.count if a else 0,
                count_b=b.count if b else 0,
                elapsed_a=elapsed_a,
                elapsed_b=elapsed_b,
                delta_seconds=elapsed_b - elapsed_a,
                delta_ratio=ratio,
                cpu_a=a.cpu_time if a else 0.0,
                cpu_b=b.cpu_time if b else 0.0,
                rss_a=a.rss_delta if a else 0,
                rss_b=b.rss_delta if b else 0,
                significant=significant,
                direction=direction,
            )
        )

    counters_a = dict(run_a.get("metrics", {}).get("counters", {}))
    counters_b = dict(run_b.get("metrics", {}).get("counters", {}))
    counter_deltas = {
        name: float(counters_b.get(name, 0.0)) - float(counters_a.get(name, 0.0))
        for name in sorted(set(counters_a) | set(counters_b))
    }

    return RunDiff(
        run_a={"run_id": run_a.get("run_id", ""), "meta": run_a.get("meta", {})},
        run_b={"run_id": run_b.get("run_id", ""), "meta": run_b.get("meta", {})},
        threshold=float(threshold),
        min_seconds=float(min_seconds),
        deltas=deltas,
        counter_deltas=counter_deltas,
        deepest_regression=_deepest_regression(deltas, threshold),
    )


def diff_record(diff: RunDiff) -> Dict[str, object]:
    """The machine-readable JSON document for one diff.

    This is what ``repro telemetry diff --output`` writes.
    """
    return {
        "kind": "telemetry_diff",
        "format_version": DIFF_FORMAT_VERSION,
        "run_a": diff.run_a,
        "run_b": diff.run_b,
        "threshold": diff.threshold,
        "min_seconds": diff.min_seconds,
        "total_elapsed_a": diff.total_a,
        "total_elapsed_b": diff.total_b,
        "deepest_regression": (
            diff.deepest_regression.to_dict() if diff.deepest_regression else None
        ),
        "n_regressions": len(diff.regressions),
        "n_improvements": len(diff.improvements),
        "paths": [delta.to_dict() for delta in diff.deltas],
        "counter_deltas": diff.counter_deltas,
    }


def _fmt_ratio(delta: PathDelta) -> str:
    if delta.direction == "added":
        return "new"
    if delta.direction == "removed":
        return "gone"
    return f"{delta.delta_ratio:+.1%}"


def render_diff(diff: RunDiff, *, limit: int = 25) -> str:
    """Human-readable diff: header, per-path table, counters, the verdict."""
    lines = [
        f"baseline  {diff.run_a['run_id']}  {diff.run_a.get('meta', {})}",
        f"candidate {diff.run_b['run_id']}  {diff.run_b.get('meta', {})}",
        f"total root elapsed: {diff.total_a * 1000.0:.3f}ms -> "
        f"{diff.total_b * 1000.0:.3f}ms "
        f"(threshold {diff.threshold:.0%}, floor {diff.min_seconds * 1000.0:g}ms)",
        "",
        f"{'path':<56} {'count':>11} {'elapsed A':>12} {'elapsed B':>12} {'delta':>9}",
    ]
    # Significant rows always show; flat rows fill up to *limit* by weight.
    flagged = [d for d in diff.deltas if d.significant]
    flat = [d for d in diff.deltas if not d.significant]
    flat.sort(key=lambda d: max(d.elapsed_a, d.elapsed_b), reverse=True)
    shown = flagged + flat[: max(0, limit - len(flagged))]
    shown.sort(key=lambda d: d.path)
    for delta in shown:
        marker = "!" if delta.significant else " "
        counts = f"{delta.count_a}->{delta.count_b}"
        lines.append(
            f"{marker} {delta.path:<54} {counts:>11} "
            f"{delta.elapsed_a * 1000.0:>10.3f}ms {delta.elapsed_b * 1000.0:>10.3f}ms "
            f"{_fmt_ratio(delta):>9}"
        )
    hidden = len(diff.deltas) - len(shown)
    if hidden > 0:
        lines.append(f"  ... {hidden} flat path(s) not shown")
    moved = {n: d for n, d in diff.counter_deltas.items() if d}
    if moved:
        lines.append("")
        lines.append("counter deltas (B - A):")
        for name, delta in moved.items():
            lines.append(f"  {name}: {delta:+g}")
    lines.append("")
    if diff.deepest_regression is not None:
        deep = diff.deepest_regression
        lines.append(
            f"deepest regressed span: {deep.path} "
            f"({_fmt_ratio(deep)}, {deep.delta_seconds * 1000.0:+.3f}ms)"
        )
    elif diff.improvements:
        best = diff.improvements[0]
        lines.append(
            f"no regressions; largest improvement: {best.path} ({_fmt_ratio(best)})"
        )
    else:
        lines.append("no significant differences")
    return "\n".join(lines)
