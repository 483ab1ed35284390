#!/usr/bin/env python3
"""Benchmark: event loop vs batched static replay, in sims/second.

Times the same seeded static simulation on both simulation loops (the fast
path, :mod:`repro.sim.fastpath`'s batched static replay, is what every
static run takes; the event loop, :func:`repro.sim.engine.run_events`, is
forced by patching ``uses_fast_path`` on the simulation instance, the seam
the parity tests use) and reports simulations/second per loop, the
fast/event speedup, and the event loop's events/second.  Before any timing
it asserts the two loops are *bit-identical* on makespan, efficiency,
response times and the full execution trace — the replay is only a win
because it changes nothing.

Each scale times three cells of the paper's evaluation:

* ``protocol`` — the paper's dynamic batch dispatch protocol: MM with the
  scale's fixed batch size, so scheduling waves interleave with execution
  and the replay's live merge phase is exercised;
* ``replay`` — one scheduling wave over the whole workload (batch size =
  task count): the pure static-replay shape the fast backend batches
  end-to-end;
* ``immediate`` — the EF immediate-mode baseline (one policy invocation per
  task), the scheduling-bound worst case for backend speedups.

Two preset sizes are built in: ``smoke`` (CI-sized) and ``paper`` (the
publication's 10,000-task, 50-processor makespan experiments).

Writes a schema-v2 BENCH record (the default target is the committed one)::

    PYTHONPATH=src python benchmarks/sim_core_speed.py \
        --scale all --output benchmarks/BENCH_sim_core.json

Regression gating happens centrally via ``repro scorecard check``: every
cell's speedup row carries a hard floor of 1.0 (the fast backend must never
lose to the event loop).  The speedups are ratios against the event loop,
so they move whenever either loop does; the fast path's own throughput is
measured end to end by the ``heuristics_paper`` workload of
``benchmarks/e2e`` (300 fast-path simulations).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from _shared import bench_row, write_bench_record
from repro.cluster.topology import heterogeneous_cluster
from repro.schedulers.registry import make_scheduler
from repro.sim.simulation import DistributedSystemSimulation
from repro.workloads.generator import generate_workload
from repro.workloads.suites import workload_by_name

DEFAULT_RECORD = os.path.join(os.path.dirname(__file__), "BENCH_sim_core.json")


@dataclass(frozen=True)
class SimScale:
    """One benchmark problem size."""

    name: str
    n_tasks: int
    n_processors: int
    batch_size: int
    mean_comm_cost: float


SCALES: Dict[str, SimScale] = {
    "smoke": SimScale(
        name="smoke", n_tasks=600, n_processors=10, batch_size=120, mean_comm_cost=5.0
    ),
    "paper": SimScale(
        name="paper", n_tasks=10000, n_processors=50, batch_size=200, mean_comm_cost=20.0
    ),
}

#: The three timed cells: (cell name, scheduler, batch size resolver).
CELLS = (
    ("protocol", "MM", lambda scale: scale.batch_size),
    ("replay", "MM", lambda scale: scale.n_tasks),
    ("immediate", "EF", lambda scale: scale.batch_size),
)


def build_inputs(scale: SimScale, seed: int):
    """The workload and cluster shared by every cell of one scale."""
    tasks = generate_workload(
        workload_by_name("normal", scale.n_tasks), np.random.default_rng(seed)
    )
    cluster = heterogeneous_cluster(
        scale.n_processors,
        mean_comm_cost=scale.mean_comm_cost,
        rng=np.random.default_rng(seed + 1),
    )
    return tasks, cluster


def run_once(scale: SimScale, scheduler_name: str, batch_size: int, backend: str, seed: int):
    tasks, cluster = build_inputs(scale, seed)
    scheduler = make_scheduler(
        scheduler_name,
        n_processors=scale.n_processors,
        batch_size=batch_size,
        max_generations=10,
        rng=seed + 2,
    )
    start = time.perf_counter()
    sim = DistributedSystemSimulation(scheduler, cluster, tasks, rng=seed + 3)
    if backend == "event":
        sim.uses_fast_path = lambda: False
    result = sim.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


def result_digest(result) -> str:
    """Digest of every trace-visible number (for the backend-parity check)."""
    h = hashlib.sha256()
    trace = result.trace
    for name in (
        "task_id",
        "proc_id",
        "size_mflops",
        "arrival_time",
        "assigned_time",
        "dispatch_time",
        "exec_start",
        "exec_end",
    ):
        h.update(trace.column(name).tobytes())
    h.update(repr((result.makespan, result.efficiency)).encode())
    h.update(repr(result.metrics.mean_response_time).encode())
    h.update(repr(result.scheduler_invocations).encode())
    h.update(repr(result.events_processed).encode())
    return h.hexdigest()


def assert_backend_parity(scale: SimScale, seed: int) -> None:
    """Fail loudly if the two backends ever diverge on this scale's cells."""
    for cell, scheduler_name, batch_of in CELLS:
        event_result, _ = run_once(scale, scheduler_name, batch_of(scale), "event", seed)
        fast_result, _ = run_once(scale, scheduler_name, batch_of(scale), "fast", seed)
        if result_digest(event_result) != result_digest(fast_result):
            raise SystemExit(
                f"backend parity violated on scale={scale.name} cell={cell}: "
                "event and fast simulation results differ"
            )


def measure_cell(scale: SimScale, scheduler_name: str, batch_size: int, seed: int, repeats: int):
    """Best-of-*repeats* sims/sec per backend plus the event loop's events/sec.

    The two backends' runs alternate, and each goes first in every other
    round, so a drift in machine speed during the measurement favours
    neither side of the speedup.
    """
    best = {"event": float("inf"), "fast": float("inf")}
    events = 0
    for round_ in range(repeats):
        for backend in ("event", "fast") if round_ % 2 == 0 else ("fast", "event"):
            result, elapsed = run_once(scale, scheduler_name, batch_size, backend, seed)
            best[backend] = min(best[backend], elapsed)
            events = result.events_processed
    return {
        "scheduler": scheduler_name,
        "batch_size": batch_size,
        "events_processed": events,
        "events_per_second_event_driven": round(events / best["event"], 1),
        "sims_per_second": {
            "event": round(1.0 / best["event"], 3),
            "fast": round(1.0 / best["fast"], 3),
        },
        "speedup": round(best["event"] / best["fast"], 3),
    }


def measure_scale(scale: SimScale, seed: int, repeats: int) -> Dict[str, object]:
    assert_backend_parity(scale, seed)
    cells = {
        cell: measure_cell(scale, scheduler_name, batch_of(scale), seed, repeats)
        for cell, scheduler_name, batch_of in CELLS
    }
    return {
        "n_tasks": scale.n_tasks,
        "n_processors": scale.n_processors,
        "batch_size": scale.batch_size,
        "mean_comm_cost": scale.mean_comm_cost,
        "backend_parity": "bit-identical",
        "cells": cells,
    }


def run_record(args: argparse.Namespace) -> int:
    names = sorted(SCALES) if args.scale == "all" else [args.scale]
    detail = {name: measure_scale(SCALES[name], args.seed, args.repeats) for name in names}
    rows: List[Dict[str, object]] = []
    for name in names:
        for cell, data in detail[name]["cells"].items():
            rows.append(
                bench_row(f"{cell}_speedup", data["speedup"], "x", scale=name, floor=1.0)
            )
        rows.append(
            bench_row(
                "events_per_second_event_driven",
                detail[name]["cells"]["protocol"]["events_per_second_event_driven"],
                "events/s",
                scale=name,
            )
        )
    write_bench_record(
        "sim_core_speed",
        rows,
        output=args.output,
        config={"seed": args.seed, "repeats": args.repeats},
        detail=detail,
    )
    return 0


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        default="all",
        choices=[*sorted(SCALES), "all"],
        help="benchmark size to run (default: all)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master random seed")
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats; the best is kept"
    )
    parser.add_argument("--output", default=None, help="write the BENCH json here")
    return parser.parse_args()


def main() -> int:
    return run_record(parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
