"""Analysis utilities: Gantt rendering, schedule validation, aggregate statistics."""

from .comparison import AggregateSummary, WinLossMatrix, aggregate_comparisons
from .convergence import (
    ConvergenceStats,
    analyse_history,
    analyse_result,
    compare_convergence,
)
from .gantt import render_gantt, utilisation_sparkline
from .schedule_check import (
    ValidationIssue,
    ValidationReport,
    validate_simulation,
    validate_trace,
)

__all__ = [
    "render_gantt",
    "utilisation_sparkline",
    "ValidationIssue",
    "ValidationReport",
    "validate_trace",
    "validate_simulation",
    "WinLossMatrix",
    "AggregateSummary",
    "aggregate_comparisons",
    "ConvergenceStats",
    "analyse_history",
    "analyse_result",
    "compare_convergence",
]
