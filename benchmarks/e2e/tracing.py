"""Outside-in tracing for the end-to-end benchmark.

A traced pass times every layer of :mod:`repro` from outside: :meth:`Tracer.install`
wraps the layers' public functions and methods, the pass runs, and
:meth:`Tracer.uninstall` puts the originals back.  Nothing under ``src/`` is
instrumented for the benchmark, and the program's own telemetry stays off: spans
are recorded into a private :class:`repro.telemetry.TelemetrySession` that is
never ``enable()``d, and exported with :func:`repro.telemetry.write_run_jsonl`
so ``repro telemetry tree|top|diff`` can read the run.

Spans go down to ``sim:run`` and ``ga:evolve``.  Calls made more often than
that (the heuristic policies, up to ~560k calls a pass) are *hot calls*: a
counter plus one latency sample each, with their time recorded on the
innermost open span as its ``hot_s`` attribute.  GA operators are read from
the ``PhaseTimer`` each ``GAResult`` carries instead of being wrapped.

Every simulated schedule is checked with ``validate_simulation``.  The check
runs inside an ``e2e:validate`` span that :func:`cut_out` removes afterwards,
closing the gap as if the clock had stopped, so no layer is charged for it.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from bisect import bisect_right
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.schedule_check import validate_simulation
from repro.campaigns.store import ResultStore
from repro.cluster.topology import (
    heterogeneous_cluster,
    homogeneous_cluster,
    varying_availability_cluster,
)
from repro.core.pn_scheduler import PNScheduler
from repro.experiments.runner import compare_schedulers
from repro.ga.engine import GeneticAlgorithm
from repro.scenarios.runner import run_scenario_cell
from repro.schedulers.base import ImmediateScheduler
from repro.schedulers.earliest_first import EarliestFirstScheduler
from repro.schedulers.lightest_loaded import LightestLoadedScheduler
from repro.schedulers.min_min import MinMinScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.schedulers.zomaya import ZomayaScheduler
from repro.sim.simulation import DistributedSystemSimulation
from repro.telemetry import Span, TelemetrySession
from repro.workloads.generator import generate_workload

__all__ = ["NULL_TRACER", "Tracer", "cut_out", "median", "self_times", "tail"]

#: Candidate tail percentiles, highest first, in per-mille (p99.9 … p90).
TAIL_PERMILLE = (999, 990, 980, 950, 900)
#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Name of the span that wraps the benchmark's own schedule validation.
VALIDATE_SPAN = "e2e:validate"

#: The GA engine's ``PhaseTimer`` phases (see ``GeneticAlgorithm.evolve``).
GA_PHASES = (
    "initialisation",
    "decode",
    "fitness",
    "rebalance",
    "selection",
    "crossover",
    "mutation",
)


def median(samples: Sequence[float]) -> float:
    """Median of *samples* (0.0 when empty)."""
    return float(np.median(np.asarray(samples, dtype=float))) if len(samples) else 0.0


def tail(samples: Sequence[float]) -> Tuple[float, Optional[str], int]:
    """The highest of p99.9, p99, p98, p95 and p90 with >= 10 samples beyond it.

    Returns ``(value, label, n)``.  With fewer than 100 samples no candidate
    qualifies and the result is ``(0.0, None, n)``.
    """
    n = len(samples)
    for permille in TAIL_PERMILLE:
        if (1000 - permille) * n >= TAIL_MIN_BEYOND * 1000:
            value = np.percentile(np.asarray(samples, dtype=float), permille / 10.0)
            return float(value), f"p{permille / 10.0:g}", n
    return 0.0, None, n


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    count once.  A span's ``hot_s`` attribute, the time of hot calls made
    directly in its body, is covered too.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    result = {}
    for span in spans:
        lo, hi = span.start, span.start + span.duration
        clipped = sorted(
            (max(child.start, lo), min(child.start + child.duration, hi))
            for child in children.get(span.span_id, ())
        )
        covered = 0.0
        reach = lo
        for c_lo, c_hi in clipped:
            c_lo = max(c_lo, reach)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        hot = float(span.attrs.get("hot_s", 0.0))
        result[span.span_id] = max(0.0, span.duration - covered - hot)
    return result


def cut_out(spans: Sequence[Span], name: str) -> List[Span]:
    """Drop the spans called *name* and close the gaps they leave.

    Every other span is re-timed as if the clock had stopped while a dropped
    span ran.  Dropped spans must be leaves that never overlap each other.
    """
    cuts = sorted((s.start, s.start + s.duration) for s in spans if s.name == name)
    starts = [lo for lo, _ in cuts]
    removed_before = [0.0]
    for lo, hi in cuts:
        removed_before.append(removed_before[-1] + hi - lo)

    def shift(t: float) -> float:
        k = bisect_right(starts, t)
        if k == 0:
            return t
        lo, hi = cuts[k - 1]
        return t - removed_before[k - 1] - (min(t, hi) - lo)

    kept = []
    for span in spans:
        if span.name == name:
            continue
        start = shift(span.start)
        end = shift(span.start + span.duration)
        kept.append(dataclasses.replace(span, start=start, duration=end - start))
    return kept


class _NullTracer:
    """Stand-in for :class:`Tracer` in untraced passes: spans cost nothing."""

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def span(self, name: str, **attrs: object):
        return nullcontext({})


NULL_TRACER = _NullTracer()


class _HotStats:
    __slots__ = ("calls", "seconds", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.samples = array("d")


def _noop() -> None:
    return None


class Tracer:
    """Records one traced pass: spans, hot-call latencies and schedule checks."""

    def __init__(self) -> None:
        self.session = TelemetrySession(max_spans=sys.maxsize)
        self.hot: Dict[str, _HotStats] = {}
        #: Simulations whose schedule failed ``validate_simulation``.
        self.invalid = 0
        #: Issue codes of the failed checks, with counts.
        self.invalid_codes: Dict[str, int] = {}
        self._hot_stack = [0.0]
        self._active: set = set()
        self._patches: List[Tuple[object, str, object, bool]] = []
        self.hot_call_cost = 0.0
        self.span_cost = 0.0

    # -- recording ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Dict[str, object]]:
        """Record a span around the body; the yielded dict adds attributes."""
        extra: Dict[str, object] = {}
        hot = 0.0
        try:
            with self.session.span(name, **attrs):
                self._hot_stack.append(0.0)
                try:
                    yield extra
                finally:
                    hot = self._hot_stack.pop()
        finally:
            closed = self.session.spans[-1]
            closed.attrs.update(extra)
            if hot:
                closed.attrs["hot_s"] = hot

    def _guarded(self, key: str, fn: Callable, body: Callable) -> Callable:
        """*body* wraps *fn*, except in calls nested inside another *key* call."""
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key in active:
                return fn(*args, **kwargs)
            active.add(key)
            try:
                return body(*args, **kwargs)
            finally:
                active.discard(key)

        return wrapper

    def _hot(self, key: str, fn: Callable) -> Callable:
        stats = self.hot.setdefault(key, _HotStats())
        stack = self._hot_stack
        perf = time.perf_counter

        def body(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stats.calls += 1
                stats.seconds += elapsed
                stats.samples.append(elapsed)
                stack[-1] += elapsed

        return self._guarded(key, fn, body)

    def _spanned(self, name: str, fn: Callable, attrs: Callable = None) -> Callable:
        def body(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)

        return self._guarded(name.split(":")[0], fn, body)

    def _sim_run(self, run: Callable) -> Callable:
        def body(sim):
            backend = "fast" if sim.uses_fast_path() else "event"
            with self.span(
                "sim:run",
                scheduler=sim.scheduler.name,
                backend=backend,
                n_tasks=len(sim.tasks),
            ) as extra:
                result = run(sim)
                extra["events"] = int(result.events_processed)
                extra["tasks_injected"] = int(result.tasks_injected)
            # The validator does not know load-spike tasks yet, so runs that
            # injected some are checked without the submitted task set.
            tasks = None if result.tasks_injected else sim.tasks
            with self.span(VALIDATE_SPAN):
                report = validate_simulation(result, tasks)
            if not report.ok:
                self.invalid += 1
                for issue in report.issues:
                    codes = self.invalid_codes
                    codes[issue.code] = codes.get(issue.code, 0) + 1
            return result

        return self._guarded("sim", run, body)

    def _evolve(self, evolve: Callable) -> Callable:
        def body(engine, problem, *args, **kwargs):
            with self.span("ga:evolve", n_tasks=int(problem.n_tasks)) as extra:
                result = evolve(engine, problem, *args, **kwargs)
                extra["generations"] = int(result.generations)
                for phase, seconds in result.timings.totals.items():
                    extra[f"{phase}_s"] = float(seconds)
                    extra[f"{phase}_calls"] = int(result.timings.counts[phase])
            return result

        return self._guarded("ga", evolve, body)

    # -- patching -------------------------------------------------------------------
    def _patch_attr(self, owner: object, name: str, replacement: object) -> None:
        own = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), own))
        setattr(owner, name, replacement)

    def _patch_method(self, cls: type, name: str, wrap: Callable[[Callable], Callable]) -> None:
        self._patch_attr(cls, name, wrap(vars(cls)[name]))

    def _patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace *fn* in every ``repro`` module that holds a reference to it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch_attr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the layers' entry points (undo with :meth:`uninstall`)."""
        self._calibrate()

        def batch_attrs(scheduler, tasks, ctx) -> Dict[str, object]:
            return {"batch": len(tasks)}

        self._patch_method(DistributedSystemSimulation, "run", self._sim_run)
        self._patch_method(GeneticAlgorithm, "evolve", self._evolve)
        self._patch_method(
            PNScheduler, "schedule", lambda fn: self._spanned("core:pn", fn, batch_attrs)
        )
        self._patch_method(
            ZomayaScheduler,
            "schedule",
            lambda fn: self._spanned("schedulers:zo", fn, batch_attrs),
        )
        for cls in (
            ImmediateScheduler,
            EarliestFirstScheduler,
            LightestLoadedScheduler,
            RoundRobinScheduler,
            MinMinScheduler,
        ):
            for name in ("schedule", "select_processors_wave"):
                if name in vars(cls):
                    self._patch_method(cls, name, lambda fn: self._hot("schedulers", fn))
        self._patch_method(ResultStore, "put", lambda fn: self._spanned("campaigns:store_put", fn))
        self._patch_function(
            generate_workload, self._spanned("workloads:generate", generate_workload)
        )
        for build in (heterogeneous_cluster, homogeneous_cluster, varying_availability_cluster):
            self._patch_function(build, self._spanned("cluster:build", build))
        self._patch_function(
            compare_schedulers, self._spanned("experiments:compare", compare_schedulers)
        )
        self._patch_function(
            run_scenario_cell,
            self._spanned(
                "scenarios:cell",
                run_scenario_cell,
                lambda cell: {
                    "scenario": cell.spec.name,
                    "scheduler": cell.scheduler,
                    "repeat": cell.repeat,
                },
            ),
        )

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, name, original, own = self._patches.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _calibrate(self, calls: int = 20_000, spans: int = 2_000) -> None:
        """Measure what one hot call and one span add, for ``trace.overhead_frac``."""
        scratch = Tracer()
        wrapped = scratch._hot("calibration", _noop)
        perf = time.perf_counter
        start = perf()
        for _ in range(calls):
            _noop()
        bare = perf() - start
        start = perf()
        for _ in range(calls):
            wrapped()
        self.hot_call_cost = max(0.0, perf() - start - bare) / calls
        start = perf()
        with scratch.span("calibration"):
            for _ in range(spans):
                with scratch.span("calibration"):
                    pass
        self.span_cost = (perf() - start) / spans

    # -- results --------------------------------------------------------------------
    def metrics(self, facts: Dict[str, float]) -> Tuple[Dict[str, float], Dict[str, Dict]]:
        """Per-layer metrics of the finished pass, plus each tail's percentile and n.

        Cuts the validation spans out of the session first, so the export and
        the metrics see the same timeline.  *facts* are the workload's own
        numbers that no span carries (campaign cells, store bytes, worker busy
        and CPU time).
        """
        self.session.spans[:] = cut_out(self.session.spans, VALIDATE_SPAN)
        spans = self.session.spans
        selfs = self_times(spans)
        by_name: Dict[str, List[Span]] = {}
        by_layer: Dict[str, float] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
            layer = span.name.split(":")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + selfs[span.span_id]
        roots = [span for span in spans if span.parent_id is None]
        wall = sum(span.duration for span in roots)
        values: Dict[str, float] = {}
        tails: Dict[str, Dict] = {}

        def durations(name: str) -> List[float]:
            return [span.duration for span in by_name.get(name, ())]

        def attr_sum(name: str, key: str) -> float:
            return float(sum(span.attrs.get(key, 0) for span in by_name.get(name, ())))

        def put_tail(name: str, samples: Sequence[float], scale: float) -> None:
            value, label, n = tail(samples)
            values[name] = value * scale
            tails[name] = {"quantile": label, "n": n}

        for k in range(3, 12):
            values[f"experiments.fig{k}_s"] = sum(durations(f"experiments:fig{k}"))
        values["experiments.self_s"] = by_layer.get("experiments", 0.0)

        pn = durations("core:pn")
        values["core.pn_calls"] = len(pn)
        values["core.pn_s"] = sum(pn)
        values["core.pn_p50_ms"] = median(pn) * 1e3
        put_tail("core.pn_tail_ms", pn, 1e3)
        small = sum(1 for span in by_name.get("core:pn", ()) if span.attrs["batch"] <= 10)
        values["core.pn_batch_le10_frac"] = small / len(pn) if pn else 0.0
        values["core.self_s"] = by_layer.get("core", 0.0)

        evolve = durations("ga:evolve")
        generations = attr_sum("ga:evolve", "generations")
        values["ga.evolve_calls"] = len(evolve)
        values["ga.evolve_s"] = sum(evolve)
        values["ga.generations"] = generations
        values["ga.gen_us"] = sum(evolve) / generations * 1e6 if generations else 0.0
        for suffix, is_small in (("small", True), ("large", False)):
            chosen = [
                span
                for span in by_name.get("ga:evolve", ())
                if (span.attrs["n_tasks"] <= 10) == is_small
            ]
            gens = sum(span.attrs["generations"] for span in chosen)
            seconds = sum(span.duration for span in chosen)
            values[f"ga.gen_us_{suffix}"] = seconds / gens * 1e6 if gens else 0.0
        phase_s = {phase: attr_sum("ga:evolve", f"{phase}_s") for phase in GA_PHASES}
        values["ga.loop_self_s"] = max(0.0, sum(evolve) - sum(phase_s.values()))
        for phase in ("decode", "fitness", "rebalance"):
            values[f"ga.{phase}_s"] = phase_s[phase]
            values[f"ga.{phase}_calls"] = attr_sum("ga:evolve", f"{phase}_calls")
        values["ga.crossover_s"] = phase_s["crossover"]
        values["ga.mutate_s"] = phase_s["mutation"]
        values["ga.selection_s"] = phase_s["selection"]

        sims = durations("sim:run")
        events = attr_sum("sim:run", "events")
        values["sim.runs"] = len(sims)
        fast = sum(1 for span in by_name.get("sim:run", ()) if span.attrs["backend"] == "fast")
        values["sim.fast_runs"] = fast
        values["sim.event_runs"] = len(sims) - fast
        values["sim.tasks"] = attr_sum("sim:run", "n_tasks") + attr_sum("sim:run", "tasks_injected")
        values["sim.events"] = events
        values["sim.s"] = sum(sims)
        values["sim.self_s"] = by_layer.get("sim", 0.0)
        values["sim.events_per_s"] = events / sum(sims) if sims else 0.0
        values["sim.run_p50_ms"] = median(sims) * 1e3
        put_tail("sim.run_tail_ms", sims, 1e3)
        values["sim.invalid"] = self.invalid

        policy = self.hot.get("schedulers", _HotStats())
        zo = durations("schedulers:zo")
        values["schedulers.calls"] = policy.calls
        values["schedulers.s"] = policy.seconds
        values["schedulers.call_p50_us"] = median(policy.samples) * 1e6
        put_tail("schedulers.call_tail_us", policy.samples, 1e6)
        values["schedulers.zo_calls"] = len(zo)
        values["schedulers.zo_s"] = sum(zo)
        values["schedulers.self_s"] = policy.seconds + by_layer.get("schedulers", 0.0)

        values["workloads.generate_calls"] = len(durations("workloads:generate"))
        values["workloads.generate_s"] = sum(durations("workloads:generate"))
        values["cluster.build_calls"] = len(durations("cluster:build"))
        values["cluster.build_s"] = sum(durations("cluster:build"))

        cells = durations("scenarios:cell")
        values["scenarios.cells"] = len(cells)
        values["scenarios.cell_s"] = sum(cells)
        values["scenarios.cell_p50_ms"] = median(cells) * 1e3
        put_tail("scenarios.cell_tail_ms", cells, 1e3)
        values["scenarios.self_s"] = by_layer.get("scenarios", 0.0)

        values["campaigns.cells_computed"] = facts.get("campaigns.cells_computed", 0)
        values["campaigns.store_puts"] = len(durations("campaigns:store_put"))
        values["campaigns.store_put_s"] = sum(durations("campaigns:store_put"))
        values["campaigns.store_bytes"] = facts.get("campaigns.store_bytes", 0)
        values["campaigns.self_s"] = by_layer.get("campaigns", 0.0)

        workers = facts.get("parallel.workers", 0)
        busy = facts.get("parallel.busy_s", 0.0)
        values["parallel.workers"] = workers
        values["parallel.busy_s"] = busy
        values["parallel.utilisation"] = busy / (workers * wall) if workers and wall else 0.0
        values["parallel.cpu_s"] = facts.get("parallel.cpu_s", 0.0)

        hot_calls = sum(stats.calls for stats in self.hot.values())
        overhead = hot_calls * self.hot_call_cost + len(spans) * self.span_cost
        values["trace.overhead_frac"] = overhead / (wall - overhead) if wall > overhead else 0.0
        values["trace.spans"] = len(spans)
        unattributed = sum(selfs[span.span_id] for span in roots)
        values["trace.attributed_frac"] = 1.0 - unattributed / wall if wall else 0.0
        return values, tails
