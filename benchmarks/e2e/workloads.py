"""The four end-to-end workloads: set-up, the timed pass, output checks, digests.

Each workload is a fixed amount of work sized by one entry of :data:`SIZES`.
A *pass* runs that work once; a measured run is exactly one pass in a fresh
interpreter, so every commit is timed on the same amount of work from the
same cold start.  The pass is checked: an *operation* (a figure, a
comparison shape, a scenario cell or a campaign cell) fails when it raises,
when a scenario cell breaks task conservation, or when its digest differs
from the golden one.

The driver (``run.py``) starts a fresh interpreter through ``child.py`` for
every measured run and every set-up probe; :func:`child_main` is that
interpreter's entry point.  The driver and the tests hand it the size table
in the job file, so a reduced table never needs a command-line flag.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.experiments.runner as experiments_runner
from repro.campaigns import CampaignSpec, ResultStore, run_campaign
from repro.experiments.config import get_scale
from repro.experiments.figures import list_figures, run_figure
from repro.io.results import figure_to_dict
from repro.parallel import ParallelExecutor
from repro.scenarios.runner import resolve_scenario_specs, run_scenario_matrix
from repro.scenarios.registry import scenario_names
from repro.schedulers.registry import ALL_SCHEDULER_NAMES
from repro.telemetry import write_run_jsonl
from repro.workloads.suites import paper_workloads

from tracing import NULL_TRACER, Tracer

#: The five heuristics: every scheduler of the paper except the two GA ones.
HEURISTICS = ("EF", "LL", "RR", "MM", "MX")

#: Library scenarios that carry a dynamics timeline (failures, joins, spikes).
DYNAMIC_SCENARIOS = (
    "flash-crowd",
    "failure-storm",
    "rolling-restart",
    "elastic-scale-out",
    "heavy-tail-mix",
)

#: Size of each workload.  Tests pass a reduced table of the same shape.
SIZES: Dict[str, Dict] = {
    "figures_small": {"scale": "small", "figures": list_figures()},
    "heuristics_paper": {
        "scale": "paper",
        "n_tasks": 10_000,
        "repeats": 10,
        "comm_cost": 20.0,
        "shapes": list(paper_workloads(1)),
    },
    "dynamics_paper": {"scale": "paper", "repeats": 4, "scenarios": list(DYNAMIC_SCENARIOS)},
    "campaign_small": {
        "scale": "small",
        "repeats": 1,
        "jobs": 2,
        "scenarios": scenario_names(),
    },
}


def digest(payload: object) -> str:
    """sha256 of the canonical JSON form of *payload*."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf8")).hexdigest()


def attempt(fn: Callable[[], object]) -> Tuple[object, Optional[str]]:
    """``(fn(), None)``, or ``(None, error)`` with the traceback on stderr."""
    try:
        return fn(), None
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


def _op(name: str, error: Optional[str], payload: object = None) -> Dict:
    return {
        "name": name,
        "error": error,
        "digest": None if error else digest(payload),
    }


# -- workloads -------------------------------------------------------------------------
class Workload:
    """``__init__(sizes, seed, workdir)`` sets up; ``run`` one pass, ``check`` it, ``close``.

    ``check`` runs outside the timed pass and returns the pass's operations
    and any facts the traced metrics need that no span carries.
    """

    def run(self, tracer) -> object:
        raise NotImplementedError

    def check(self, results) -> Tuple[List[Dict], Dict]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up started."""


class FiguresSmall(Workload):
    """Figs. 3-11 through ``run_figure``, the same work as ``repro all``."""

    def __init__(self, sizes: Dict, seed: int, workdir: Path) -> None:
        self.scale = get_scale(sizes["scale"])
        self.figures = list(sizes["figures"])
        self.seed = seed

    def run(self, tracer) -> Dict:
        results = {}
        for figure_id in self.figures:
            with tracer.span(f"experiments:{figure_id}"):
                results[figure_id] = attempt(
                    lambda: run_figure(figure_id, scale=self.scale, seed=self.seed)
                )
        return results

    def check(self, results: Dict) -> Tuple[List[Dict], Dict]:
        ops = []
        for figure_id, (figure, error) in results.items():
            payload = None
            if figure is not None:
                payload = figure_to_dict(figure)
                payload["metadata"].pop("executor", None)
                for summary in payload["comparison_summaries"]:
                    summary.pop("executor", None)
                if figure_id == "fig4":
                    payload.pop("series")  # measured GA seconds
            ops.append(_op(figure_id, error, payload))
        return ops, {}


class HeuristicsPaper(Workload):
    """``compare_schedulers`` of the five heuristics at paper size."""

    def __init__(self, sizes: Dict, seed: int, workdir: Path) -> None:
        self.scale = get_scale(sizes["scale"]).scaled(repeats=sizes["repeats"])
        shapes = paper_workloads(sizes["n_tasks"])
        self.shapes = [(name, shapes[name]) for name in sizes["shapes"]]
        self.comm_cost = float(sizes["comm_cost"])
        self.seed = seed

    def run(self, tracer) -> Dict:
        results = {}
        for k, (name, spec) in enumerate(self.shapes):
            results[name] = attempt(
                lambda: experiments_runner.compare_schedulers(
                    spec,
                    self.scale,
                    mean_comm_cost=self.comm_cost,
                    scheduler_names=HEURISTICS,
                    seed=np.random.SeedSequence([self.seed, k]),
                    condition={"workload": name, "mean_comm_cost": self.comm_cost},
                )
            )
        return results

    def check(self, results: Dict) -> Tuple[List[Dict], Dict]:
        ops = []
        for name, (comparison, error) in results.items():
            payload = None
            if comparison is not None:
                payload = {
                    "condition": comparison.condition,
                    "repeats": comparison.repeats,
                    "schedulers": {
                        scheduler: {
                            "makespan": asdict(cmp.makespan),
                            "efficiency": asdict(cmp.efficiency),
                            "mean_response_time": asdict(cmp.mean_response_time),
                            "invocations": asdict(cmp.invocations),
                        }
                        for scheduler, cmp in comparison.schedulers.items()
                    },
                }
            ops.append(_op(name, error, payload))
        return ops, {}


class DynamicsPaper(Workload):
    """``run_scenario_matrix`` over the dynamic scenarios at paper scale."""

    def __init__(self, sizes: Dict, seed: int, workdir: Path) -> None:
        self.scale = get_scale(sizes["scale"])
        self.specs = resolve_scenario_specs(sizes["scenarios"], self.scale)
        self.repeats = int(sizes["repeats"])
        self.seed = seed

    def run(self, tracer):
        with tracer.span("scenarios:matrix"):
            return attempt(
                lambda: run_scenario_matrix(
                    self.specs,
                    scale=self.scale,
                    schedulers=HEURISTICS,
                    repeats=self.repeats,
                    seed=self.seed,
                )
            )

    def check(self, results) -> Tuple[List[Dict], Dict]:
        matrix, error = results
        if matrix is None:
            return [
                _op(f"{spec.name}/{scheduler}/r{repeat}", error)
                for spec in self.specs
                for scheduler in HEURISTICS
                for repeat in range(self.repeats)
            ], {}
        # The digest covers the matrix signature, one entry per (scenario,
        # scheduler) group; a group's digest stands for each of its cells.
        signature = matrix.signature()
        ops = []
        for outcome in matrix.outcomes:
            name = f"{outcome.scenario}/{outcome.scheduler}/r{outcome.repeat}"
            broken = None if outcome.conservation_ok else "task conservation violated"
            op = _op(name, broken, signature[outcome.scenario][outcome.scheduler])
            op["group"] = f"{outcome.scenario}/{outcome.scheduler}"
            ops.append(op)
        return ops, {}


class CampaignSmall(Workload):
    """One cold ``run_campaign`` over the scenario library on a process pool."""

    def __init__(self, sizes: Dict, seed: int, workdir: Path) -> None:
        self.spec = CampaignSpec(
            name="e2e",
            scale=sizes["scale"],
            seed=seed,
            scenarios=tuple(sizes["scenarios"]),
            schedulers=tuple(ALL_SCHEDULER_NAMES),
            repeats=int(sizes["repeats"]),
        )
        self.workdir = workdir
        # Starting the pool is set-up: the timed pass reuses its workers.
        self.executor = ParallelExecutor(int(sizes["jobs"]))
        self.executor.map(abs, list(range(self.executor.jobs)))

    def run(self, tracer):
        store = ResultStore(self.workdir / "store")
        with tracer.span("campaigns:run"):
            return store, attempt(lambda: run_campaign(self.spec, store, executor=self.executor))

    def check(self, results) -> Tuple[List[Dict], Dict]:
        store, (campaign, error) = results
        store_bytes = sum(
            path.stat().st_size for path in Path(store.root).rglob("*") if path.is_file()
        )
        shutil.rmtree(store.root, ignore_errors=True)
        if campaign is None or campaign.aggregates is None:
            error = error or "campaign finished without aggregates"
            names = [f"{s}/{h}" for s in self.spec.scenarios for h in self.spec.schedulers]
            return [_op(name, error) for name in names], {}
        signature = campaign.aggregates["scenarios"]
        ops = []
        for cell in campaign.cells:
            scenario, scheduler, _ = cell["cell_id"].split(":", 1)[1].split("/")
            entry = signature[scenario][scheduler]
            broken = None
            if cell["status"] != "computed":
                broken = f"cell {cell['status']}, not computed"
            elif entry["conservation_ok"] != 1.0:
                broken = "task conservation violated"
            ops.append(_op(f"{scenario}/{scheduler}", broken, entry))
        facts = {
            "campaigns.cells_computed": campaign.computed,
            "campaigns.store_bytes": store_bytes,
            "parallel.workers": self.executor.jobs,
            "parallel.busy_s": sum(cell["elapsed_seconds"] for cell in campaign.cells),
        }
        return ops, facts

    def close(self) -> None:
        self.executor.close()


WORKLOADS = {
    "figures_small": FiguresSmall,
    "heuristics_paper": HeuristicsPaper,
    "dynamics_paper": DynamicsPaper,
    "campaign_small": CampaignSmall,
}


# -- measurement -----------------------------------------------------------------------
def _judge(ops: List[Dict], golden: Optional[Dict[str, str]]) -> Tuple[int, int]:
    """Mark golden mismatches on *ops*; return (failed, mismatched) operation counts."""
    failed = mismatched = 0
    for op in ops:
        key = op.get("group", op["name"])
        if not op["error"] and golden is not None and golden.get(key) != op["digest"]:
            op["error"] = f"digest {op['digest']} differs from golden {golden.get(key)}"
            mismatched += 1
        failed += bool(op["error"])
    return failed, mismatched


def golden_digests(ops: List[Dict]) -> Dict[str, str]:
    """The per-operation digests a golden file records (one per group)."""
    return {op.get("group", op["name"]): op["digest"] for op in ops if op["digest"]}


def measure(workload: "Workload", job: Dict, tracer=NULL_TRACER) -> Dict:
    """Run and check the one timed pass of *workload*; return the raw result."""
    tracer.install()
    try:
        gc.collect()
        start = time.perf_counter()
        with tracer.span(f"e2e:{job['workload']}"):
            results = workload.run(tracer)
        wall_s = time.perf_counter() - start
        ops, facts = workload.check(results)
        failed, mismatched = _judge(ops, job["golden"])
    finally:
        tracer.uninstall()
    return {
        "wall_s": wall_s,
        "attempted": len(ops),
        "failed": failed,
        "golden_mismatches": mismatched,
        "ops": ops,
        "digest": digest(golden_digests(ops)),
        "facts": facts,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def child_main(argv: List[str], start: float) -> int:
    """Entry point of a fresh interpreter: ``setup|run JOB.json RESULT.json``.

    *start* is the interpreter's first clock reading; set-up time (imports,
    input and spec construction, pool start-up) is counted from it.
    """
    mode, job_path, result_path = argv
    job = json.loads(Path(job_path).read_text(encoding="utf8"))
    import_s = time.perf_counter() - start
    workload = WORKLOADS[job["workload"]](job["sizes"], int(job["seed"]), Path(job["workdir"]))
    setup_s = time.perf_counter() - start
    result: Dict = {"setup_s": setup_s, "import_s": import_s}
    tracer = Tracer() if job["trace"] else None
    try:
        if mode == "run":
            result.update(measure(workload, job, tracer or NULL_TRACER))
    finally:
        workload.close()
    if mode == "run" and tracer is not None:
        facts = dict(result["facts"])
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        if facts.get("parallel.workers"):
            facts["parallel.cpu_s"] = children.ru_utime + children.ru_stime
        layers, tails = tracer.metrics(facts)
        layers["setup.import_s"] = import_s
        for name, value in layers.items():
            tracer.session.metrics.gauge(name).set(value)
        meta = {"benchmark": "e2e", "workload": job["workload"], "seed": job["seed"]}
        write_run_jsonl(job["trace_path"], tracer.session, meta=meta)
        result.update(layers=layers, tails=tails, invalid_codes=tracer.invalid_codes)
    result["peak_rss_mb"] = peak_rss_mb()
    tmp = f"{result_path}.tmp"
    with open(tmp, "w", encoding="utf8") as handle:
        json.dump(result, handle)
    os.replace(tmp, result_path)
    return 0
