"""Event kinds of the discrete-event simulation."""

from __future__ import annotations

import enum

__all__ = ["EventKind"]


class EventKind(enum.Enum):
    """The kinds of events driving the master/worker simulation.

    The first four form the paper's steady-state dispatch protocol; the last
    four are the cluster-dynamics (fault/elasticity) events injected by
    :mod:`repro.scenarios.dynamics`.
    """

    #: A task has arrived at the master and joined the unscheduled queue.
    TASK_ARRIVAL = "task_arrival"
    #: The master should run its scheduling policy over the unscheduled queue.
    INVOKE_SCHEDULER = "invoke_scheduler"
    #: An idle worker asks the master for the next task in its queue.
    WORKER_FETCH = "worker_fetch"
    #: A worker finished processing a task.
    TASK_COMPLETION = "task_completion"
    #: A worker vanishes: its in-flight task and master-side queue are
    #: re-queued for scheduling on the surviving workers.
    WORKER_FAILURE = "worker_failure"
    #: A previously failed worker comes back and asks for work again.
    WORKER_RECOVERY = "worker_recovery"
    #: A pre-provisioned worker joins the cluster for the first time.
    WORKER_JOIN = "worker_join"
    #: A burst of extra tasks arrives on top of the base workload.
    LOAD_SPIKE = "load_spike"
