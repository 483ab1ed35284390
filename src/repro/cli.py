"""Command-line interface: reproduce the paper's figures from a terminal.

Usage examples::

    python -m repro.cli list
    python -m repro.cli figure5 --scale small --seed 42
    python -m repro.cli all --scale smoke --output results/
    python -m repro.cli compare --workload normal --comm-cost 20 --scale small
    python -m repro.cli fig6 --scale medium --jobs 4
    python -m repro.cli scenarios list
    python -m repro.cli scenarios run failure-storm --scale smoke --jobs 2
    python -m repro.cli campaigns run --store results/store --name nightly \\
        --figures fig5 fig6 --scenarios failure-storm --scale small --jobs 4
    python -m repro.cli campaigns status --store results/store nightly
    python -m repro.cli campaigns resume --store results/store nightly
    python -m repro.cli traces make bursty --tasks 100000 --output bursty.csv
    python -m repro.cli traces record --scenario failure-storm --output fs.csv
    python -m repro.cli compare --workload trace:bursty.csv --scale small

``--jobs N`` shards the independent repeats of an experiment (or the cells
of a scenario matrix / campaign) across ``N`` worker processes (see
:mod:`repro.parallel`); ``--jobs 1`` runs them serially in-process.  All
stochastic results are bit-identical to a serial run with the same seed
(only measured wall-clock values, e.g. fig4's seconds, vary with
contention).  Campaigns persist every completed cell to a content-addressed
store, so re-runs and resumes only compute the missing delta.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from .campaigns import (
    CampaignSpec,
    ResultStore,
    SweepSpec,
    load_manifest,
    run_campaign,
)
from .experiments.config import SCALES, get_scale
from .experiments.figures import FIGURES, list_figures, run_figure
from .experiments.reporting import (
    comparison_table,
    experiment_summary,
    figure_report,
    scenario_matrix_table,
)
from .experiments.runner import compare_schedulers
from .io.results import save_scenario_matrix_json
from .parallel import executor_from_jobs
from .scenarios import (
    ScenarioCell,
    cell_workload,
    get_scenario,
    make_all_scenarios,
    run_scenario_matrix,
    scenario_names,
)
from .schedulers.registry import ALL_SCHEDULER_NAMES
from .telemetry import (
    LOG_LEVELS,
    TOP_SPAN_KEYS,
    TelemetrySession,
    configure_logging,
    critical_path,
    diff_runs,
    load_run_jsonl,
    render_diff,
    render_tree,
    summarize_spans,
    telemetry_session,
    top_spans,
    write_run_jsonl,
)
from .telemetry.diff import DEFAULT_THRESHOLD, diff_record as make_diff_record
from .telemetry.monitor import watch as watch_status
from .util.errors import ExperimentInterrupted, ReproError
from .workloads.generator import generate_workload
from .workloads.suites import paper_workloads, workload_by_name
from .workloads.traces import (
    SYNTHETIC_TRACE_KINDS,
    load_trace,
    save_trace,
    trace_from_tasks,
    trace_sha256,
)

__all__ = ["build_parser", "main"]

logger = logging.getLogger("repro.cli")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-scheduler",
        description=(
            "Reproduce the experiments of Page & Naughton (2005): dynamic GA task "
            "scheduling for heterogeneous distributed computing."
        ),
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=LOG_LEVELS,
        help="logging verbosity for status output on stderr (default: info)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit status logs as one JSON object per line instead of text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible figures and available scales")

    for figure_id in list_figures():
        fig_parser = sub.add_parser(
            figure_id, help=f"reproduce the paper's {figure_id.replace('fig', 'figure ')}"
        )
        _add_common_options(fig_parser)

    all_parser = sub.add_parser("all", help="reproduce every figure and print a summary")
    _add_common_options(all_parser)
    all_parser.add_argument(
        "--output", default=None, help="directory to write one .txt report per figure"
    )

    cmp_parser = sub.add_parser(
        "compare", help="compare all schedulers on one workload / communication cost"
    )
    _add_common_options(cmp_parser)
    cmp_parser.add_argument(
        "--workload",
        default="normal",
        help=(
            "which of the paper's workload shapes to use "
            f"({', '.join(sorted(paper_workloads(1)))}), or trace:<path> to "
            "replay a recorded arrival trace (see `repro-scheduler traces`)"
        ),
    )
    cmp_parser.add_argument(
        "--comm-cost", type=float, default=20.0, help="mean per-link communication cost (s)"
    )
    cmp_parser.add_argument(
        "--tasks", type=int, default=None, help="override the number of tasks"
    )

    scen_parser = sub.add_parser(
        "scenarios", help="cluster-dynamics scenarios (fault injection, elasticity)"
    )
    scen_sub = scen_parser.add_subparsers(dest="scenario_command", required=True)
    scen_list = scen_sub.add_parser(
        "list", help="list the scenario library with descriptions and dynamics"
    )
    scen_list.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES.keys()),
        help="scale at which to size the listed scenarios (default: small)",
    )
    scen_run = scen_sub.add_parser(
        "run", help="run one or more scenarios as a (scenario x scheduler x repeat) matrix"
    )
    scen_run.add_argument(
        "names",
        nargs="+",
        metavar="SCENARIO",
        help=f"scenario names from the library: {', '.join(scenario_names())}",
    )
    _add_common_options(scen_run)
    scen_run.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="independent repeats per (scenario, scheduler) cell "
        "(default: the scale preset's repeat count)",
    )
    scen_run.add_argument(
        "--schedulers",
        nargs="+",
        default=None,
        metavar="NAME",
        choices=ALL_SCHEDULER_NAMES,
        help="scheduler subset to run (default: each scenario's own set)",
    )
    scen_run.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the aggregate matrix as JSON to this path",
    )
    scen_run.add_argument(
        "--status-file",
        default=None,
        metavar="PATH",
        help=(
            "maintain a live run-status file there while the matrix runs "
            "(watch it with `repro-scheduler campaigns watch --status-file PATH`)"
        ),
    )

    camp_parser = sub.add_parser(
        "campaigns",
        help="durable, resumable experiment campaigns over a content-addressed store",
    )
    camp_sub = camp_parser.add_subparsers(dest="campaign_command", required=True)
    camp_run = camp_sub.add_parser(
        "run", help="run a campaign (cells already in the store are skipped)"
    )
    _add_campaign_store_option(camp_run)
    camp_run.add_argument(
        "--name",
        default="default",
        help="campaign name (manifest id inside the store; default: 'default')",
    )
    camp_run.add_argument(
        "--figures",
        nargs="+",
        default=None,
        metavar="FIG",
        choices=list(FIGURES),
        help="figure ids to include (e.g. fig5 fig6)",
    )
    camp_run.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="SCENARIO",
        help=f"scenario names to include: {', '.join(scenario_names())}",
    )
    camp_run.add_argument(
        "--schedulers",
        nargs="+",
        default=None,
        metavar="NAME",
        choices=ALL_SCHEDULER_NAMES,
        help="scheduler subset for the scenario matrix (default: each scenario's set)",
    )
    camp_run.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="scenario-matrix repeats per (scenario, scheduler) cell",
    )
    camp_run.add_argument(
        "--sweep",
        nargs="+",
        default=None,
        metavar=("PARAMETER", "VALUE"),
        help="GA parameter sweep: a GAConfig field name followed by its values "
        "(e.g. --sweep n_rebalances 0 1 5)",
    )
    camp_run.add_argument(
        "--sweep-repeats",
        type=int,
        default=None,
        metavar="N",
        help="GA runs per swept value (default: the scale preset's repeat "
        "count; independent of the scenario-matrix --repeats)",
    )
    _add_common_options(camp_run)
    _add_campaign_run_options(camp_run)
    camp_status = camp_sub.add_parser(
        "status", help="show a campaign manifest (cells, timings, aggregates)"
    )
    _add_campaign_store_option(camp_status)
    camp_status.add_argument(
        "name", nargs="?", default=None, help="campaign name (default: list campaigns)"
    )
    camp_resume = camp_sub.add_parser(
        "resume", help="resume an interrupted campaign from its manifest"
    )
    _add_campaign_store_option(camp_resume)
    camp_resume.add_argument("name", help="campaign name to resume")
    camp_resume.add_argument(
        "--jobs", type=int, default=None, metavar="N", help="worker processes"
    )
    _add_campaign_run_options(camp_resume)
    camp_watch = camp_sub.add_parser(
        "watch",
        help="live view of an in-flight (or interrupted) campaign's status file",
    )
    camp_watch.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result-store directory of the campaign",
    )
    camp_watch.add_argument(
        "name", nargs="?", default=None, help="campaign name to watch"
    )
    camp_watch.add_argument(
        "--status-file",
        default=None,
        metavar="PATH",
        help="watch an explicit status file instead of --store/NAME "
        "(e.g. one written by `scenarios run --status-file`)",
    )
    camp_watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval (default: 2s)",
    )
    camp_watch.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (scripting / CI)",
    )

    trace_parser = sub.add_parser(
        "traces", help="replayable arrival traces: record, synthesize, inspect"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_record = trace_sub.add_parser(
        "record",
        help="dump the arrival stream a simulation would consume to a trace file",
    )
    source = trace_record.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--scenario",
        metavar="NAME",
        help=f"record a scenario cell's workload: {', '.join(scenario_names())}",
    )
    source.add_argument(
        "--workload",
        metavar="NAME",
        help=(
            "record a paper workload shape "
            f"({', '.join(sorted(paper_workloads(1)))})"
        ),
    )
    trace_record.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES.keys()),
        help="scale preset sizing the recorded workload (default: small)",
    )
    trace_record.add_argument(
        "--seed",
        type=int,
        default=42,
        help=(
            "seed entropy; a scenario recording replays bit-identically "
            "through any cell run with the same entropy"
        ),
    )
    trace_record.add_argument(
        "--tasks", type=int, default=None, help="override the task count (--workload only)"
    )
    trace_record.add_argument(
        "--output", required=True, metavar="PATH", help="trace file (.csv or .json)"
    )
    trace_make = trace_sub.add_parser(
        "make", help="synthesize a diurnal or bursty piecewise-rate arrival trace"
    )
    trace_make.add_argument(
        "kind", choices=sorted(SYNTHETIC_TRACE_KINDS), help="arrival profile"
    )
    trace_make.add_argument(
        "--tasks", type=int, default=10000, help="number of tasks (default: 10000)"
    )
    trace_make.add_argument("--seed", type=int, default=42, help="master random seed")
    trace_make.add_argument(
        "--output", required=True, metavar="PATH", help="trace file (.csv or .json)"
    )
    trace_info = trace_sub.add_parser(
        "info", help="summarise a trace file (tasks, span, content hash)"
    )
    trace_info.add_argument("path", help="trace file to inspect")

    tel_parser = sub.add_parser(
        "telemetry",
        help="inspect exported telemetry runs (span JSONL written via --telemetry)",
    )
    tel_sub = tel_parser.add_subparsers(dest="telemetry_command", required=True)
    tel_summarize = tel_sub.add_parser(
        "summarize", help="hot phases, critical path and metrics of one run"
    )
    tel_summarize.add_argument("path", help="telemetry run file (.jsonl)")
    tel_tree = tel_sub.add_parser("tree", help="render the run's span tree")
    tel_tree.add_argument("path", help="telemetry run file (.jsonl)")
    tel_tree.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="D",
        help="truncate the tree below depth D (roots are depth 0)",
    )
    tel_top = tel_sub.add_parser("top", help="individually costliest spans of one run")
    tel_top.add_argument("path", help="telemetry run file (.jsonl)")
    tel_top.add_argument(
        "--limit", type=int, default=10, metavar="N", help="rows to show (default: 10)"
    )
    tel_top.add_argument(
        "--by",
        default="elapsed",
        choices=sorted(TOP_SPAN_KEYS),
        help=(
            "ranking key: wall-clock 'elapsed' (default), process 'cpu' "
            "seconds or absolute 'rss' change (the resource keys need a run "
            "recorded with --telemetry-resources)"
        ),
    )
    tel_diff = tel_sub.add_parser(
        "diff",
        help="structurally diff two runs and attribute the delta to span paths",
    )
    tel_diff.add_argument("path_a", help="baseline telemetry run (.jsonl)")
    tel_diff.add_argument("path_b", help="candidate telemetry run (.jsonl)")
    tel_diff.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        metavar="FRACTION",
        # argparse %-formats help strings, so the percent sign is doubled.
        help=(
            "relative elapsed change flagged as significant "
            f"(default: {DEFAULT_THRESHOLD:g} = {DEFAULT_THRESHOLD:.0%}%)"
        ),
    )
    tel_diff.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the machine-readable diff record (json) there",
    )
    tel_diff.add_argument(
        "--limit",
        type=int,
        default=25,
        metavar="N",
        help="max flat paths to show in the table (default: 25)",
    )
    return parser


def _add_campaign_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="result-store directory (created if missing)",
    )


def _add_campaign_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="K",
        help="compute only the first K pending cells (simulated interruption; "
        "the run exits with code 3 and can be resumed)",
    )
    _add_telemetry_option(parser)


def _add_telemetry_option(parser: argparse.ArgumentParser) -> None:
    # Guard against double registration: `campaigns run` composes
    # _add_common_options with _add_campaign_run_options.
    if any(action.dest == "telemetry" for action in parser._actions):
        return
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help=(
            "record a span/metrics telemetry run of this command and export "
            "it as JSONL to PATH (inspect with `repro-scheduler telemetry`); "
            "results are bit-identical with or without this flag"
        ),
    )
    parser.add_argument(
        "--telemetry-resources",
        action="store_true",
        help=(
            "also capture per-span CPU time, RSS delta and GC collections "
            "(implies span overhead; see `telemetry top --by cpu|rss`)"
        ),
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES.keys()),
        help="experiment scale preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master random seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes to shard independent repeats across "
            "(default: the scale preset's jobs setting, i.e. serial; "
            "0 = one per CPU core); stochastic aggregates are identical "
            "for any value, only measured wall-clock values vary"
        ),
    )
    _add_telemetry_option(parser)


@contextmanager
def _telemetry_export(args: argparse.Namespace) -> Iterator[None]:
    """Run the wrapped command under a telemetry session when requested.

    The session is exported to ``--telemetry PATH`` even when the command is
    interrupted or fails — a partial span tree is exactly what one wants when
    debugging why a run died.
    """
    path = getattr(args, "telemetry", None)
    if not path:
        yield
        return
    # Create (and thereby validate) the export target's directory *before*
    # the run: an unwritable --telemetry path must fail in milliseconds, not
    # after an hour of computed cells at export time.
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    session = TelemetrySession(
        capture_resources=bool(getattr(args, "telemetry_resources", False))
    )
    try:
        with telemetry_session(session):
            yield
    finally:
        meta = {
            "command": args.command,
            "seed": getattr(args, "seed", None),
            "scale": getattr(args, "scale", None),
        }
        run_id = write_run_jsonl(path, session, meta=meta)
        logger.info(
            "telemetry run %s: %d spans (%d dropped) -> %s",
            run_id,
            len(session.spans),
            session.dropped_spans,
            path,
        )


def _warn_dropped(run) -> None:
    """Loud, unmissable stderr warning when the session cap dropped spans.

    Summaries computed from a truncated tree under-count whatever phase was
    hot when the cap hit — the one thing the reader is probably looking for.
    """
    if run["dropped_spans"]:
        print(
            f"warning: {run['dropped_spans']} spans were dropped at the "
            "session cap — totals and shares below UNDER-COUNT the phases "
            "that were active when the cap was reached",
            file=sys.stderr,
        )


def _cmd_telemetry_diff(args: argparse.Namespace) -> int:
    diff = diff_runs(
        load_run_jsonl(args.path_a),
        load_run_jsonl(args.path_b),
        threshold=args.threshold,
    )
    print(render_diff(diff, limit=args.limit))
    if args.output:
        import json as _json

        directory = os.path.dirname(os.path.abspath(args.output))
        os.makedirs(directory, exist_ok=True)
        with open(args.output, "w", encoding="utf8") as handle:
            _json.dump(make_diff_record(diff), handle, indent=2, sort_keys=True)
            handle.write("\n")
        logger.info("telemetry diff record -> %s", args.output)
    return 0


def _cmd_campaigns_watch(args: argparse.Namespace) -> int:
    if args.status_file:
        status_path = args.status_file
    else:
        if not args.store or not args.name:
            raise ReproError(
                "campaigns watch needs either --status-file PATH or "
                "--store DIR and a campaign NAME"
            )
        status_path = ResultStore(args.store).status_path(args.name)
    status = watch_status(status_path, interval=args.interval, once=args.once)
    return 0 if status.get("state") != "interrupted" else 3


def _cmd_telemetry(args: argparse.Namespace) -> int:
    if args.telemetry_command == "diff":
        return _cmd_telemetry_diff(args)
    run = load_run_jsonl(args.path)
    spans = run["spans"]
    if args.telemetry_command == "tree":
        _warn_dropped(run)
        print(f"run {run['run_id']}: {len(spans)} spans")
        print(render_tree(spans, max_depth=args.max_depth))
        return 0
    if args.telemetry_command == "top":
        _warn_dropped(run)
        print(f"run {run['run_id']}: top {min(args.limit, len(spans))} spans by {args.by}")
        for span_obj in top_spans(spans, limit=args.limit, by=args.by):
            worker = f" [{span_obj.worker}]" if span_obj.worker else ""
            extra = ""
            if args.by == "cpu":
                extra = f"  cpu {span_obj.cpu_time * 1000.0:.3f}ms"
            elif args.by == "rss":
                extra = f"  rss {span_obj.rss_delta / 1024.0:+.0f}KiB"
            print(
                f"  {span_obj.duration * 1000.0:10.3f}ms{extra}  "
                f"{span_obj.name}{worker}"
            )
        return 0
    _warn_dropped(run)
    dropped = f", {run['dropped_spans']} dropped" if run["dropped_spans"] else ""
    print(f"run {run['run_id']}: {len(spans)} spans{dropped} (meta: {run['meta']})")
    has_resources = any(s.cpu_time or s.rss_delta or s.gc_collections for s in spans)
    print("\nhot phases (by total time):")
    for row in summarize_spans(spans)[:15]:
        resources = ""
        if has_resources:
            resources = (
                f"  cpu {row['total_cpu_seconds'] * 1000.0:9.3f}ms"
                f"  rss {row['total_rss_delta'] / 1024.0:+9.0f}KiB"
                f"  gc {row['total_gc_collections']:4d}"
            )
        print(
            f"  {row['name']:40s} x{row['count']:<6d} "
            f"total {row['total_seconds'] * 1000.0:10.3f}ms  "
            f"mean {row['mean_seconds'] * 1000.0:9.3f}ms  "
            f"{row['share'] * 100.0:5.1f}%"
            + resources
        )
    path = critical_path(spans)
    if path:
        print("\ncritical path (heaviest root-to-leaf chain):")
        for depth, span_obj in enumerate(path):
            print(f"  {'  ' * depth}{span_obj.name}  {span_obj.duration * 1000.0:.3f}ms")
    metrics = run["metrics"]
    counters = metrics.get("counters", {})
    if counters:
        print("\ncounters:")
        for name, value in sorted(counters.items()):
            print(f"  {name}: {value}")
    histograms = metrics.get("histograms", {})
    if histograms:
        print("\nhistograms:")
        for name, hist in sorted(histograms.items()):
            total = hist.get("total", 0)
            mean = (hist.get("sum", 0.0) / total) if total else 0.0
            print(f"  {name}: n={total} mean={mean:.2f}")
    return 0


def _normalize_jobs(jobs: Optional[int]) -> Optional[int]:
    """The CLI's ``--jobs`` convention: ``0`` means one worker per CPU core."""
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _scale_from_args(args: argparse.Namespace):
    """The selected scale preset, with ``--jobs`` applied."""
    scale = get_scale(args.scale)
    jobs = _normalize_jobs(getattr(args, "jobs", None))
    if jobs is not None:
        scale = scale.scaled(jobs=jobs)
    return scale


def _cmd_list() -> int:
    print("Reproducible figures:")
    for figure_id, fn in FIGURES.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {figure_id:6s} {doc}")
    print("\nScales:")
    for name, scale in SCALES.items():
        print(
            f"  {name:6s} tasks={scale.n_tasks}/{scale.n_tasks_large} "
            f"procs={scale.n_processors} batch={scale.batch_size} "
            f"generations={scale.max_generations} repeats={scale.repeats} "
            f"jobs={scale.jobs}"
        )
    return 0


def _cmd_figure(figure_id: str, args: argparse.Namespace) -> int:
    scale = _scale_from_args(args)
    executor = executor_from_jobs(scale.jobs)
    try:
        result = run_figure(figure_id, scale=scale, seed=args.seed, executor=executor)
    finally:
        executor.close()
    print(figure_report(result))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    scale = _scale_from_args(args)
    # One executor (and hence one worker pool) shared by all nine figures.
    executor = executor_from_jobs(scale.jobs)
    results = []
    try:
        for figure_id in list_figures():
            logger.info("running %s at scale %s", figure_id, scale.name)
            result = run_figure(figure_id, scale=scale, seed=args.seed, executor=executor)
            results.append(result)
            report = figure_report(result)
            print(report)
            if args.output:
                os.makedirs(args.output, exist_ok=True)
                path = os.path.join(args.output, f"{figure_id}.txt")
                with open(path, "w", encoding="utf8") as handle:
                    handle.write(report)
    finally:
        executor.close()
    print(experiment_summary(results))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scale = _scale_from_args(args)
    n_tasks = args.tasks or scale.n_tasks
    spec = workload_by_name(args.workload, n_tasks)
    executor = executor_from_jobs(scale.jobs)
    try:
        comparison = compare_schedulers(
            spec,
            scale,
            mean_comm_cost=args.comm_cost,
            seed=args.seed,
            condition={"workload": args.workload, "mean_comm_cost": args.comm_cost},
            executor=executor,
        )
    finally:
        executor.close()
    print(comparison_table(comparison))
    return 0


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    print(f"Scenario library (sized at scale {scale.name!r}):")
    for name, spec in make_all_scenarios(scale).items():
        cluster = spec.cluster
        print(f"\n  {name}")
        print(f"    {spec.description}")
        print(
            f"    cluster: {cluster.kind}, {cluster.n_processors} workers"
            + (f" (+{cluster.reserve_processors} reserve)" if cluster.reserve_processors else "")
            + f"; tasks: {spec.n_tasks_expected}; dynamics: {len(spec.dynamics)} actions"
        )
        for line in spec.timeline().describe():
            print(f"      - {line}")
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    scale = _scale_from_args(args)
    executor = executor_from_jobs(scale.jobs)
    try:
        result = run_scenario_matrix(
            args.names,
            scale=scale,
            schedulers=args.schedulers,
            repeats=args.repeats,
            seed=args.seed,
            executor=executor,
            status_path=getattr(args, "status_file", None),
        )
    finally:
        executor.close()
    print(scenario_matrix_table(result))
    # Write the artifact even (especially) for a failing run: the per-cell
    # aggregates are what one needs to debug a conservation violation.
    if args.output:
        path = save_scenario_matrix_json(result, args.output)
        logger.info("wrote %s", path)
    if not result.conservation_ok():
        print("error: task conservation violated in at least one cell", file=sys.stderr)
        return 1
    return 0


def _parse_sweep_value(raw: str):
    """Parse one swept value: int when integral, else float, else string."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _campaign_spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    sweeps = ()
    if args.sweep:
        if len(args.sweep) < 2:
            raise ReproError(
                "--sweep needs a GAConfig field name followed by at least one value"
            )
        sweeps = (
            SweepSpec(
                parameter=args.sweep[0],
                values=tuple(_parse_sweep_value(v) for v in args.sweep[1:]),
                repeats=args.sweep_repeats,
            ),
        )
    return CampaignSpec(
        name=args.name,
        scale=args.scale,
        seed=args.seed,
        figures=tuple(args.figures or ()),
        scenarios=tuple(args.scenarios or ()),
        schedulers=tuple(args.schedulers) if args.schedulers else None,
        repeats=args.repeats,
        sweeps=sweeps,
    )


def _print_campaign_result(result) -> None:
    status = "interrupted" if result.interrupted else "complete"
    print(
        f"campaign {result.name!r}: {status} — "
        f"{result.computed} computed, {result.cached} cached, "
        f"{result.total_cells} total cells (executor={result.executor})"
    )
    if result.interrupted:
        print(
            f"  reason: {result.interrupt_reason}; resume with "
            f"`repro-scheduler campaigns resume --store <store> {result.name}`"
        )
    print(f"  manifest: {result.manifest_path}")


def _run_campaign_from_spec(spec: CampaignSpec, store: ResultStore, args) -> int:
    jobs = _normalize_jobs(getattr(args, "jobs", None))
    result = run_campaign(
        spec,
        store,
        jobs=jobs,
        max_cells=getattr(args, "max_cells", None),
    )
    _print_campaign_result(result)
    return 3 if result.interrupted else 0


def _cmd_campaigns_run(args: argparse.Namespace) -> int:
    # Build the spec first: one it rejects (say, a sweep over a name that is
    # not a GAConfig field) never creates the store.
    spec = _campaign_spec_from_args(args)
    return _run_campaign_from_spec(spec, ResultStore(args.store), args)


def _cmd_campaigns_resume(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    manifest = load_manifest(store, args.name)
    spec = CampaignSpec.from_dict(manifest["spec"])
    return _run_campaign_from_spec(spec, store, args)


def _manifest_state(manifest) -> str:
    if manifest["interrupted"]:
        return "interrupted"
    return "complete" if manifest.get("aggregates") else "partial"


def _cmd_campaigns_status(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if args.name is None:
        names = store.manifest_names()
        print(f"store {store.root}: {len(store)} records ({store.stats() or 'empty'})")
        if names:
            print("campaigns:")
            for name in names:
                manifest = load_manifest(store, name)
                state = _manifest_state(manifest)
                print(
                    f"  {name}: {state}, {manifest['completed_cells']}"
                    f"/{manifest['total_cells']} cells"
                )
        else:
            print("campaigns: none")
        return 0
    manifest = load_manifest(store, args.name)
    state = _manifest_state(manifest)
    print(
        f"campaign {args.name!r}: {state} — "
        f"{manifest['completed_cells']}/{manifest['total_cells']} cells "
        f"({manifest['computed_cells']} computed, {manifest['cached_cells']} cached; "
        f"executor={manifest['executor']})"
    )
    for entry in manifest["cells"]:
        elapsed = entry.get("elapsed_seconds")
        timing = f"  {elapsed:.3f}s" if isinstance(elapsed, (int, float)) else ""
        print(f"  [{entry['status']:8s}] {entry['cell_id']}{timing}")
    if manifest.get("aggregates"):
        sections = ", ".join(sorted(manifest["aggregates"]))
        print(f"aggregates: {sections} (see {store.manifest_path(args.name)})")
    return 0


def _cmd_traces_record(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    if args.scenario:
        spec = get_scenario(args.scenario, scale)
        cell = ScenarioCell(
            spec=spec,
            scheduler="LL",  # the workload stream is scheduler-independent
            repeat=0,
            seed_entropy=args.seed,
            batch_size=scale.batch_size,
            max_generations=scale.max_generations,
        )
        tasks = cell_workload(cell)
        source = f"scenario {args.scenario!r} (seed entropy {args.seed})"
    else:
        import numpy as np

        n_tasks = args.tasks or scale.n_tasks
        workload = workload_by_name(args.workload, n_tasks)
        tasks = generate_workload(workload, np.random.default_rng(args.seed))
        source = f"workload {args.workload!r} (seed {args.seed})"
    trace = trace_from_tasks(tasks)
    path = save_trace(trace, args.output)
    print(f"recorded {trace.n_tasks} tasks from {source} -> {path}")
    print(f"  sha256: {trace_sha256(path)}")
    print(f"  replay with: --workload trace:{path}")
    return 0


def _cmd_traces_make(args: argparse.Namespace) -> int:
    maker = SYNTHETIC_TRACE_KINDS[args.kind]
    trace = maker(args.tasks, seed=args.seed)
    path = save_trace(trace, args.output)
    span = float(trace.arrival_time[-1]) if trace.n_tasks else 0.0
    print(
        f"synthesized {args.kind} trace: {trace.n_tasks} tasks over "
        f"{span:.1f}s -> {path}"
    )
    print(f"  sha256: {trace_sha256(path)}")
    return 0


def _cmd_traces_info(args: argparse.Namespace) -> int:
    trace = load_trace(args.path)
    span = float(trace.arrival_time[-1]) if trace.n_tasks else 0.0
    described = trace.describe()
    print(f"trace {args.path}")
    print(f"  tasks: {trace.n_tasks}")
    print(f"  arrival span: {span:.3f}s")
    print(f"  mean size: {described['mean_mflops']:.1f} MFLOPs")
    print(f"  comm costs: {'yes' if trace.comm_cost is not None else 'no'}")
    print(f"  sha256: {trace_sha256(args.path)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, json_output=args.log_json)
    try:
        with _telemetry_export(args):
            if args.command == "list":
                return _cmd_list()
            if args.command == "all":
                return _cmd_all(args)
            if args.command == "compare":
                return _cmd_compare(args)
            if args.command == "scenarios":
                if args.scenario_command == "list":
                    return _cmd_scenarios_list(args)
                return _cmd_scenarios_run(args)
            if args.command == "campaigns":
                if args.campaign_command == "status":
                    return _cmd_campaigns_status(args)
                if args.campaign_command == "resume":
                    return _cmd_campaigns_resume(args)
                if args.campaign_command == "watch":
                    return _cmd_campaigns_watch(args)
                return _cmd_campaigns_run(args)
            if args.command == "traces":
                if args.trace_command == "record":
                    return _cmd_traces_record(args)
                if args.trace_command == "make":
                    return _cmd_traces_make(args)
                return _cmd_traces_info(args)
            if args.command == "telemetry":
                return _cmd_telemetry(args)
            return _cmd_figure(args.command, args)
    except ExperimentInterrupted as exc:
        # Ctrl-C mid-map, or a worker process died: the executor already
        # terminated its workers.  130 is the conventional SIGINT exit code,
        # distinct from 2 (configuration errors) and 3 (resumable campaign
        # interruption); a crashed worker exits 1 like any other failure.
        cause = exc.__cause__
        print(f"interrupted: {exc}" + (f" ({cause})" if cause else ""), file=sys.stderr)
        return 130 if cause is None else 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
