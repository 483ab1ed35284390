"""Discrete-event simulation of the master/worker dispatch protocol.

Each run takes one of two loops, picked by its input: the static replay of
:mod:`repro.sim.fastpath` for runs without cluster dynamics, and the event
loop of :mod:`repro.sim.engine` for every other run.  Both produce the same
bits on a static run; the tests hold the fast path to the event loop.
"""

from .engine import run_events
from .events import EventKind
from .fastpath import run_static_replay
from .master import Master
from .metrics import DynamicsStats, ProcessorStats, SimulationMetrics, compute_metrics
from .simulation import (
    DistributedSystemSimulation,
    DynamicsTimelineLike,
    SimulationConfig,
    SimulationResult,
    simulate_schedule,
)
from .trace import ExecutionTrace, TaskRecord
from .worker import WorkerState

__all__ = [
    "EventKind",
    "Master",
    "WorkerState",
    "TaskRecord",
    "ExecutionTrace",
    "ProcessorStats",
    "DynamicsStats",
    "SimulationMetrics",
    "compute_metrics",
    "DynamicsTimelineLike",
    "SimulationConfig",
    "SimulationResult",
    "DistributedSystemSimulation",
    "simulate_schedule",
    "run_static_replay",
    "run_events",
]
