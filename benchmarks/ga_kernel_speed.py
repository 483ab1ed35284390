#!/usr/bin/env python3
"""Benchmark: loop vs vectorized GA operator kernels, in generations/second.

Runs the same seeded `GeneticAlgorithm.evolve` once per kernel backend on a
representative batch problem and reports how many GA generations each backend
sustains per second.  Three preset sizes are built in:

* ``inflight`` — the shape of the GA runs inside the figure simulations
  (population 20, 10 tasks, 10 processors, 40 generations): every in-sim
  batch of the ``small`` figure suite has this shape;
* ``smoke`` — a CI-sized problem (population 20, 80 tasks, 5 processors);
* ``paper`` — the paper-scale hot path (population 50, 200 tasks,
  20 processors).

Writes a schema-v2 BENCH record (the default target is the committed one)::

    PYTHONPATH=src python benchmarks/ga_kernel_speed.py \
        --scale all --output benchmarks/BENCH_ga_kernels.json

Regression gating happens centrally: CI re-measures, then runs
``repro scorecard check`` against the committed scorecard history.  The
``vectorized_speedup`` rows carry a hard floor of 1.0 (vectorized must never
lose to the loop backend) and a 25 % trajectory tolerance; the absolute
generation rates are dashboard-only.
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from _shared import bench_row, write_bench_record
from repro.ga import BACKEND_NAMES, BatchProblem, GAConfig, GeneticAlgorithm

DEFAULT_RECORD = os.path.join(os.path.dirname(__file__), "BENCH_ga_kernels.json")
#: Allowed fractional speedup regression below the recorded trajectory.
SPEEDUP_TOLERANCE = 0.25


@dataclass(frozen=True)
class KernelScale:
    """One benchmark problem size."""

    name: str
    population_size: int
    n_tasks: int
    n_processors: int
    generations: int


SCALES: Dict[str, KernelScale] = {
    "inflight": KernelScale(
        name="inflight", population_size=20, n_tasks=10, n_processors=10, generations=40
    ),
    "smoke": KernelScale(
        name="smoke", population_size=20, n_tasks=80, n_processors=5, generations=60
    ),
    "paper": KernelScale(
        name="paper", population_size=50, n_tasks=200, n_processors=20, generations=60
    ),
}


def build_problem(scale: KernelScale, seed: int) -> BatchProblem:
    """A heterogeneous batch problem matching the paper's workload shapes."""
    rng = np.random.default_rng(seed)
    return BatchProblem(
        task_ids=np.arange(scale.n_tasks),
        sizes=rng.normal(500.0, 150.0, scale.n_tasks).clip(min=10.0),
        rates=rng.uniform(10.0, 500.0, scale.n_processors),
        pending_loads=rng.uniform(0.0, 500.0, scale.n_processors),
        comm_costs=rng.uniform(0.0, 2.0, scale.n_processors),
    )


def generations_per_second(
    scale: KernelScale, backend: str, seed: int, repeats: int
) -> float:
    """Best-of-*repeats* generation throughput of one backend."""
    problem = build_problem(scale, seed)
    config = GAConfig(
        population_size=scale.population_size,
        max_generations=scale.generations,
        n_rebalances=1,
        backend=backend,
    )
    best = 0.0
    for repeat in range(repeats):
        engine = GeneticAlgorithm(config, rng=seed + repeat)
        start = time.perf_counter()
        result = engine.evolve(problem)
        elapsed = time.perf_counter() - start
        best = max(best, result.generations / elapsed)
    return best


def measure_scale(scale: KernelScale, seed: int, repeats: int) -> Dict[str, object]:
    """Loop and vectorized throughput (plus their ratio) for one scale."""
    rates = {
        backend: generations_per_second(scale, backend, seed, repeats)
        for backend in BACKEND_NAMES
    }
    return {
        "population_size": scale.population_size,
        "n_tasks": scale.n_tasks,
        "n_processors": scale.n_processors,
        "generations": scale.generations,
        "generations_per_second": {k: round(v, 2) for k, v in rates.items()},
        "speedup": round(rates["vectorized"] / rates["loop"], 3),
    }


def run_record(args: argparse.Namespace) -> int:
    names = sorted(SCALES) if args.scale == "all" else [args.scale]
    detail = {name: measure_scale(SCALES[name], args.seed, args.repeats) for name in names}
    rows: List[Dict[str, object]] = []
    for name in names:
        measured = detail[name]
        rows.append(
            bench_row(
                "vectorized_speedup",
                measured["speedup"],
                "x",
                scale=name,
                tolerance=SPEEDUP_TOLERANCE,
                floor=1.0,
            )
        )
        for backend, rate in measured["generations_per_second"].items():
            rows.append(bench_row(f"generations_per_second/{backend}", rate, "gen/s", scale=name))
    write_bench_record(
        "ga_kernel_speed",
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
        "--repeats", type=int, default=3, help="timing repeats; the best is kept"
    )
    parser.add_argument("--output", default=None, help="write the BENCH json here")
    return parser.parse_args()


def main() -> int:
    return run_record(parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
