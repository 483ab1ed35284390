"""Unified telemetry: hierarchical spans, metrics, and run introspection.

The subsystem's pieces:

* :mod:`~repro.telemetry.spans` — the span tree (context-manager +
  decorator API), session activation, and :class:`PhaseTimer` for
  accumulated phase attribution;
* :mod:`~repro.telemetry.metrics` — counters, gauges and numpy-binned
  histograms with additive cross-process merging;
* :mod:`~repro.telemetry.resources` — per-span CPU/RSS/GC attribution
  (opt-in per session, off by default);
* :mod:`~repro.telemetry.remote` — forwarding of worker-side spans/metrics
  through the process-pool executor back to the driver's tree;
* :mod:`~repro.telemetry.export` — JSONL export/import with
  content-addressed run ids (``repro telemetry`` reads these);
* :mod:`~repro.telemetry.introspect` — tree rendering, hot-phase summaries
  and the critical path;
* :mod:`~repro.telemetry.diff` — structural run-to-run diffing with
  phase-level regression attribution (``repro telemetry diff``);
* :mod:`~repro.telemetry.monitor` — live status files + worker heartbeats
  for in-flight runs (``repro campaigns watch``).

Two contracts hold everywhere (and are tested):

* **RNG-inert** — telemetry only ever reads the wall clock; enabled and
  disabled runs produce bit-identical results on both sim backends.
* **Free when off** — with no active session the instrumentation reduces
  to a module-global read; the disabled path is gated at ≤2% on the
  paper-scale fast-path benchmark (``BENCH_telemetry.json``).
"""

from .diff import (
    DIFF_FORMAT_VERSION,
    RunDiff,
    diff_record,
    diff_runs,
    load_diff_record,
    render_diff,
)
from .export import (
    SUPPORTED_FORMAT_VERSIONS,
    TELEMETRY_FORMAT_VERSION,
    content_run_id,
    load_run_jsonl,
    write_run_jsonl,
)
from .introspect import (
    TOP_SPAN_KEYS,
    critical_path,
    render_tree,
    span_children,
    summarize_spans,
    top_spans,
    validate_span_tree,
)
from .monitor import RunMonitor, load_status, render_status, watch
from .resources import ResourceProbe, gc_collections, rss_bytes
from .logconfig import LOG_LEVELS, JsonLogFormatter, configure_logging
from .metrics import DEFAULT_EDGES, Counter, Gauge, Histogram, MetricsRegistry
from .remote import Telemetered, WorkerTelemetry, unwrap, wrap_jobs_fn
from .spans import (
    MAX_SPANS,
    PhaseTimer,
    Span,
    TelemetrySession,
    disable,
    enable,
    get_session,
    span,
    start_spans_under_caller,
    telemetry_session,
    traced,
)

__all__ = [
    # spans
    "MAX_SPANS",
    "Span",
    "TelemetrySession",
    "PhaseTimer",
    "get_session",
    "enable",
    "disable",
    "telemetry_session",
    "span",
    "start_spans_under_caller",
    "traced",
    # metrics
    "DEFAULT_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # remote
    "Telemetered",
    "WorkerTelemetry",
    "wrap_jobs_fn",
    "unwrap",
    # export
    "TELEMETRY_FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
    "content_run_id",
    "write_run_jsonl",
    "load_run_jsonl",
    # introspect
    "span_children",
    "validate_span_tree",
    "render_tree",
    "summarize_spans",
    "top_spans",
    "TOP_SPAN_KEYS",
    "critical_path",
    # resources
    "ResourceProbe",
    "rss_bytes",
    "gc_collections",
    # diff
    "DIFF_FORMAT_VERSION",
    "RunDiff",
    "diff_runs",
    "diff_record",
    "load_diff_record",
    "render_diff",
    # monitor
    "RunMonitor",
    "load_status",
    "render_status",
    "watch",
    # logging
    "LOG_LEVELS",
    "configure_logging",
    "JsonLogFormatter",
]
