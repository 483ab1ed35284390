"""Parallel experiment execution with deterministic seed streams.

The experiment harness (``repro.experiments``) repeats every data point many
times; this package shards those independent repeats — and sweep points and
figure conditions — across worker processes while keeping the aggregates
bit-identical to a serial run with the same master seed.  See
:mod:`repro.parallel.executor` for the executor abstraction and
:mod:`repro.parallel.jobs` for the picklable job specs.
"""

from .executor import (
    LOCKSTEP_WIDTH,
    ExperimentExecutor,
    ParallelExecutor,
    SerialExecutor,
    executor_from_jobs,
    resolve_executor,
)
from .jobs import (
    ComparisonRepeatJob,
    ComparisonRepeatOutcome,
    GARunJob,
    GARunOutcome,
    run_comparison_repeat,
    run_ga_job,
)

__all__ = [
    "LOCKSTEP_WIDTH",
    "ExperimentExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "executor_from_jobs",
    "resolve_executor",
    "ComparisonRepeatJob",
    "ComparisonRepeatOutcome",
    "run_comparison_repeat",
    "GARunJob",
    "GARunOutcome",
    "run_ga_job",
]
