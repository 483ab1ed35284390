"""End-to-end benchmark of the reproduction: one command, four workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload figures_small --seed 0
    python3 benchmarks/e2e/run.py --seed 0 --trace --output DIR   # every workload, traced
    python3 benchmarks/e2e/run.py --seed 3 --record-golden        # write golden digests

Every workload runs in its own fresh interpreter with one BLAS thread, and a
run times exactly one pass of it.  An untraced run reports the end-to-end
metrics of ``BENCHMARK.json`` (``wall_s``, ``setup_s``, ``peak_rss_mb``,
``ok_frac``); a ``--trace`` run reports its
per-layer metrics and exports the span tree for ``repro telemetry``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
WORK = HERE / ".work"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("figures_small", "heuristics_paper", "dynamics_paper", "campaign_small")
#: Fresh interpreters whose set-up times make up one ``setup_s`` sample.
SETUP_RUNS = 7
#: Machine-speed probes taken before and after each measured run (each).
CALIB_RUNS = 2
#: A run that has not finished by then is killed (with its worker processes).
CHILD_TIMEOUT_S = 170.0
SETUP_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """A run could not produce a result."""


def load_benchmark() -> Dict:
    """The metric declarations of ``BENCHMARK.json`` at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))


def load_golden() -> Dict:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf8"))["workloads"]


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python plus NumPy reference loop.

    Recorded as ``machine.calib_s`` around every run, so sets measured while
    the machine ran slower show up as such.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    rng = np.random.default_rng(0)
    data = rng.random(100_000)
    for _ in range(15):
        np.sort(data)
    # Many tiny array operations: call overhead, like the GA kernels.
    small = rng.random((20, 10))
    for _ in range(10_000):
        small.argmin(axis=1)
        small.sum(axis=0)
    return time.perf_counter() - start


def child_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def run_child(mode: str, job: Dict, workdir: Path, timeout: float) -> Dict:
    """Run ``child.py`` in a fresh interpreter (own process group); return its result."""
    job_path = workdir / "job.json"
    result_path = workdir / f"{mode}-result.json"
    job_path.write_text(json.dumps(job), encoding="utf8")
    result_path.unlink(missing_ok=True)
    process = subprocess.Popen(
        [sys.executable, str(CHILD), mode, str(job_path), str(result_path)],
        cwd=ROOT,
        env=child_env(workdir),
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise BenchmarkError(f"{job['workload']}: {mode} did not finish in {timeout:.0f}s")
    finally:
        # Worker processes left behind by a crashed child share its group.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0 or not result_path.exists():
        raise BenchmarkError(f"{job['workload']}: {mode} exited with code {code}")
    return json.loads(result_path.read_text(encoding="utf8"))


def measure(
    workload: str,
    seed: int,
    trace: bool,
    *,
    sizes: Optional[Dict] = None,
    setup_runs: int = SETUP_RUNS,
    trace_path: Optional[Path] = None,
) -> Dict:
    """Measure one run of *workload*; return its record (see README.md).

    *sizes* replaces the workload's entry of ``workloads.SIZES``; golden
    digests are checked only when it is not given.
    """
    from workloads import SIZES  # imports repro: only after main() found it

    golden = None
    if sizes is None:
        sizes = SIZES[workload]
        golden = load_golden().get(workload, {}).get(str(seed))
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    export = trace_path or workdir / "trace.jsonl"  # discarded unless trace_path is given
    job = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "sizes": sizes,
        "workdir": str(workdir),
        "golden": golden,
        "trace_path": str(export) if trace else None,
    }
    try:
        setup = []
        if not trace:
            for _ in range(setup_runs):
                setup.append(run_child("setup", job, workdir, SETUP_TIMEOUT_S)["setup_s"])
        calib = [calibrate() for _ in range(CALIB_RUNS)]
        child = run_child("run", job, workdir, CHILD_TIMEOUT_S)
        calib += [calibrate() for _ in range(CALIB_RUNS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = dict(child["layers"])
        values["machine.calib_s"] = statistics.median(calib)
    else:
        values = {
            "wall_s": child["wall_s"],
            "peak_rss_mb": child["peak_rss_mb"],
            # Passed over attempted operations: 1 on a correct run, never 0.
            "ok_frac": (child["attempted"] - child["failed"]) / child["attempted"],
        }
        if setup:
            values["setup_s"] = statistics.median(setup)
    invalid = int(child.get("layers", {}).get("sim.invalid", 0))
    golden_status = "none"
    if golden is not None:
        golden_status = "mismatch" if child["golden_mismatches"] else "match"
    return {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "sizes": sizes,
        "values": values,
        "tails": child.get("tails", {}),
        "wall_s": child["wall_s"],
        "setup_samples": setup,
        "calib_samples": calib,
        "import_s": child["import_s"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "correct": child["failed"] == 0 and invalid == 0,
        "digest": child["digest"],
        "golden": golden_status,
        "ops": child["ops"],
        "invalid_codes": child.get("invalid_codes", {}),
        "trace_path": _shown(trace_path) if trace and trace_path else None,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
    }


def _shown(path: Path) -> str:
    """*path* relative to the repository root when it lies inside it."""
    path = Path(path).resolve()
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(path)


def declared_metrics(record: Dict, benchmark: Dict) -> Dict[str, Dict]:
    """The record's values of every metric ``BENCHMARK.json`` declares for its mode."""
    section = benchmark["per_layer" if record["trace"] else "end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in record["values"]]
    if missing:
        raise BenchmarkError(f"{record['workload']}: no value for declared metrics {missing}")
    return {m["name"]: {"value": record["values"][m["name"]], "unit": m["unit"]} for m in section}


def report(record: Dict, metrics: Dict[str, Dict]) -> None:
    """Print one run's metrics, one per line, with units and tail percentiles."""
    ok = record["attempted"] - record["failed"]
    golden = record["golden"]
    if golden == "none":
        golden = f"no golden for seed {record['seed']}, not checked"
    print(
        f"{record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
        f"pass {record['wall_s']:.3f} s, {ok}/{record['attempted']} operations ok, "
        f"digest {record['digest'][:16]} ({golden})"
    )
    for op in record["ops"]:
        if op["error"]:
            print(f"  FAILED {op['name']}: {op['error']}")
    for name, metric in metrics.items():
        tail = record["tails"].get(name)
        note = f"  ({tail['quantile']}, n={tail['n']})" if tail else ""
        print(f"  {name:32s} {metric['value']:>16.6f} {metric['unit']}{note}")
    print(f"  {'(machine.calib_s samples)':32s} {record['calib_samples']}")


def write_record(record: Dict, output: Path) -> Path:
    output.mkdir(parents=True, exist_ok=True)
    path = output / f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf8")
    return path


def record_golden(workloads: List[str], seed: int) -> int:
    from workloads import SIZES, golden_digests

    payload = {"format_version": 1, "workloads": load_golden()}
    for workload in workloads:
        record = measure(workload, seed, False, sizes=SIZES[workload], setup_runs=0)
        if record["failed"]:
            failed = record["failed"]
            print(f"{workload}: {failed} operations failed; not recorded", file=sys.stderr)
            return 1
        payload["workloads"].setdefault(workload, {})[str(seed)] = golden_digests(record["ops"])
        print(f"{workload} seed={seed}: recorded {record['attempted']} operations")
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload input seed")
    parser.add_argument(
        "--seconds",
        type=float,
        help="nominal run length (run_seconds of BENCHMARK.json); accepted but unused, "
        "since a run always times exactly one pass",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="traced run: per-layer metrics plus a span export",
    )
    parser.add_argument("--output", type=Path, default=RESULTS, help="record directory")
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="run untraced and write the per-operation digests of this seed to golden.json",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    args = build_parser().parse_args(argv)
    for name in THREAD_VARS:
        os.environ[name] = "1"  # before the calibration loop imports NumPy
    sys.path.insert(1, str(ROOT / "src"))
    names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    try:
        if args.record_golden:
            return record_golden(names, args.seed)
        combined: Dict[str, Dict] = {}
        attempted = failed = 0
        correct = True
        for name in names:
            trace_path = None
            if args.trace:
                trace_path = args.output / f"{name}-seed{args.seed}.trace.jsonl"
            record = measure(name, args.seed, bool(args.trace), trace_path=trace_path)
            metrics = declared_metrics(record, benchmark)
            report(record, metrics)
            print(f"  record: {_shown(write_record(record, args.output))}")
            if trace_path is not None:
                print(f"  trace:  {_shown(trace_path)}")
            attempted += record["attempted"]
            failed += record["failed"]
            correct = correct and record["correct"]
            prefix = "" if len(names) == 1 else f"{name}."
            combined.update({prefix + key: value for key, value in metrics.items()})
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
