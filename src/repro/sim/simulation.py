"""The end-to-end simulation of a scheduler driving a heterogeneous system.

:func:`simulate_schedule` wires together the master (scheduling policy plus
task queues), one worker per processor, the network model, and the event
loop (:func:`~repro.sim.engine.run_events`, or the static replay of
:mod:`repro.sim.fastpath` for runs without dynamics), and returns the
paper's metrics (makespan and efficiency) together with the full execution
trace.

The dispatch protocol follows Sect. 3 of the paper:

1. arriving tasks join the master's unscheduled FCFS queue;
2. the scheduling policy is invoked to map (batches of) unscheduled tasks
   onto per-processor queues held at the master;
3. an idle worker requests its next task; delivering it costs the link's
   (randomly varying) communication time, after which the worker executes the
   task at its current effective rate and reports completion;
4. when a worker's master-side queue runs dry and unscheduled tasks remain,
   the policy is invoked again — this is what makes batch scheduling
   *dynamic* and lets the PN scheduler exploit the communication-cost and
   rate observations accumulated so far.

Cluster dynamics (worker failure/recovery/join, load spikes) are injected by
an optional *dynamics timeline* (see :mod:`repro.scenarios.dynamics`).  The
simulation only requires the timeline to expose ``initially_offline()`` and
``sim_events(next_task_id, rng)``; the event loop's handlers enforce the
conservation invariant that every arrived task completes exactly once:

* a failing worker's in-flight task and master-side queue are re-queued at
  the front of the unscheduled queue and the policy is re-invoked;
* the pending completion event of the lost in-flight task is cancelled;
* offline workers are never handed tasks, and assignments a policy maps to
  them are diverted by the master to the online queue with the shortest
  estimated drain time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple


from ..cluster.cluster import Cluster
from ..schedulers.base import Scheduler
from ..telemetry import get_session
from ..util.errors import SimulationError
from ..util.rng import RNGLike, spawn_rngs
from ..workloads.task import TaskSet
from ..util.buffers import RecordBuffer
from .engine import run_events
from .events import EventKind
from .fastpath import is_static, run_static_replay
from .master import Master
from .metrics import DynamicsStats, SimulationMetrics, compute_metrics
from .trace import ExecutionTrace
from .worker import WorkerState

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "DynamicsTimelineLike",
    "DistributedSystemSimulation",
    "simulate_schedule",
]


class DynamicsTimelineLike(Protocol):
    """What the simulator needs from a cluster-dynamics timeline.

    Implemented by :class:`repro.scenarios.dynamics.DynamicsTimeline`; kept as
    a protocol here so the sim layer stays import-free of the scenario layer.
    """

    def initially_offline(self) -> Iterable[int]:
        """Processor ids that start outside the cluster (join later)."""
        ...

    def sim_events(
        self, *, next_task_id: int, rng: RNGLike = None
    ) -> Sequence[Tuple[float, EventKind, Dict[str, Any]]]:
        """The ``(time, kind, event data)`` triples to inject at run start."""
        ...


@dataclass
class SimulationConfig:
    """Knobs of the simulated environment (not of any particular scheduler).

    Every run completes every task; the master smooths its observations with
    the paper's ν = 0.5 (:data:`repro.util.smoothing.NU`).
    """

    #: Hard cap on processed events (guards against event storms).
    max_events: int = 10_000_000
    #: Attribute wall-clock cost to simulation phases (``scheduling`` —
    #: policy invocations, ``dispatch`` — worker fetches and communication
    #: sampling, ``drain`` — completion processing, including the fast
    #: path's terminal drain).  Off by default: the per-event clock reads
    #: cost real time on the hot path.  Purely observational — results are
    #: bit-identical either way; see :attr:`SimulationResult.phase_seconds`.
    phase_timing: bool = False


@dataclass
class SimulationResult:
    """Everything produced by one simulated schedule."""

    scheduler_name: str
    metrics: SimulationMetrics
    trace: ExecutionTrace
    scheduler_invocations: int
    batch_sizes: List[int]
    n_tasks: int
    n_processors: int
    #: Extra tasks injected by LOAD_SPIKE dynamics (0 for static runs);
    #: ``n_tasks`` counts the base workload only.
    tasks_injected: int = 0
    #: Events the simulation processed end-to-end (throughput benchmarks use this).
    events_processed: int = 0
    #: Wall-clock seconds per simulation phase (``scheduling`` / ``dispatch``
    #: / ``drain``), populated only when
    #: :attr:`SimulationConfig.phase_timing` is on.  Machine-dependent:
    #: excluded from any determinism comparison.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Total execution time of the schedule (seconds)."""
        return self.metrics.makespan

    @property
    def efficiency(self) -> float:
        """Fraction of processor-time spent executing rather than communicating or idling."""
        return self.metrics.efficiency


class DistributedSystemSimulation:
    """One simulation run: a scheduler, a cluster, and a set of tasks."""

    def __init__(
        self,
        scheduler: Scheduler,
        cluster: Cluster,
        tasks: TaskSet,
        *,
        config: Optional[SimulationConfig] = None,
        dynamics: Optional[DynamicsTimelineLike] = None,
        rng: RNGLike = None,
    ):
        if len(tasks) == 0:
            raise SimulationError("cannot simulate an empty task set")
        self.scheduler = scheduler
        self.cluster = cluster
        self.tasks = tasks
        self.config = config or SimulationConfig()
        if self.config.max_events <= 0:
            raise SimulationError(
                f"max_events must be positive, got {self.config.max_events}"
            )
        # The third child stream feeds the dynamics timeline (e.g. load-spike
        # task sizes).  SeedSequence children are prefix-stable, so streams 0
        # and 1 are identical to the historical two-stream spawn and static
        # simulations stay bit-identical to earlier releases.
        master_rng, network_rng, dynamics_rng = spawn_rngs(rng, 3)
        self._network_rng = network_rng
        self._dynamics_rng = dynamics_rng
        self._dynamics = dynamics

        self.master = Master(
            scheduler,
            cluster.n_processors,
            initial_rates=cluster.current_rates(0.0),
            rng=master_rng,
        )
        self.workers = [WorkerState(processor=proc) for proc in cluster.processors]
        self.trace = ExecutionTrace(cluster.n_processors)
        self._completed = 0
        #: Simulated time of the last processed event; it persists across
        #: :meth:`run` calls, so a second run fails loudly.
        self._clock = 0.0
        #: Completions cancelled by a failure and skipped by the event loop.
        self._skipped_completions = 0
        self._queue_samples = RecordBuffer(
            (("time", float), ("unscheduled", int), ("queued", int))
        )
        self._counts = {"failures": 0, "recoveries": 0, "joins": 0}
        self._injected = 0
        self._phase_seconds = {"scheduling": 0.0, "dispatch": 0.0, "drain": 0.0}
        # Phase attribution turns on when asked for explicitly *or* when a
        # telemetry session is active at construction time (the per-run
        # phase spans would otherwise be empty).  Purely observational
        # either way: results stay bit-identical.
        self._phase_timing = self.config.phase_timing or get_session() is not None

        if dynamics is not None:
            for proc in dynamics.initially_offline():
                proc = int(proc)
                if not (0 <= proc < cluster.n_processors):
                    raise SimulationError(
                        f"dynamics timeline references processor {proc} outside "
                        f"[0, {cluster.n_processors})"
                    )
                # Not-yet-joined workers are offline from the start but accrue
                # no downtime (they were never part of the cluster).
                self.workers[proc].online = False
                self.master.mark_offline(proc)

    def _sample_queues(self, time: float) -> None:
        self._queue_samples.append(time, self.master.n_unscheduled, self.master.n_queued_total)

    # -- run -------------------------------------------------------------------------------
    def uses_fast_path(self) -> bool:
        """Whether :meth:`run` will take the static-replay fast path.

        Decided by the input alone (:func:`~repro.sim.fastpath.is_static`):
        runs with cluster dynamics go through the event loop
        (:func:`~repro.sim.engine.run_events`).  Tests patch this method to
        ``False`` to hold the fast path to the event loop's bits.
        """
        return is_static(self)

    def run(self) -> SimulationResult:
        """Execute the simulation to completion and return metrics plus trace.

        With an active telemetry session the run is wrapped in a
        ``sim:run`` span with one ``phase:*`` child per accumulated phase,
        and the run's volume counters/histograms (events processed,
        cancelled completions skipped as ``sim.tombstones_skipped``, kernel
        batch sizes, queue depths) land in the session's metrics registry.
        All of it reads clocks and counters only — never an RNG stream — so
        the result is bit-identical to an unobserved run.
        """
        session = get_session()
        if session is None:
            return self._run_impl()
        with session.span(
            "sim:run",
            scheduler=self.scheduler.name,
            backend="fast" if self.uses_fast_path() else "event",
            n_tasks=len(self.tasks),
            n_processors=self.cluster.n_processors,
        ):
            result = self._run_impl()
            for phase, seconds in self._phase_seconds.items():
                session.record_span(f"phase:{phase}", seconds)
            metrics = session.metrics
            metrics.counter("sim.runs").inc()
            metrics.counter("sim.events_processed").inc(result.events_processed)
            metrics.counter("sim.tombstones_skipped").inc(self._skipped_completions)
            metrics.counter("sim.scheduler_invocations").inc(
                result.scheduler_invocations
            )
            if result.batch_sizes:
                metrics.histogram("sim.batch_sizes").observe_many(result.batch_sizes)
            if len(self._queue_samples):
                metrics.histogram("sim.queue_depth").observe_many(
                    self._queue_samples.column("queued")
                )
        return result

    def _run_impl(self) -> SimulationResult:
        self.scheduler.reset()
        if self.uses_fast_path():
            end_time, events_processed = run_static_replay(self)
        else:
            end_time, events_processed = run_events(self)
        return self._finalise(end_time, events_processed)

    def _finalise(self, end_time: float, events_processed: int) -> SimulationResult:
        """Turn the post-run mutable state into a :class:`SimulationResult`.

        Shared by both loops: the event loop and the static replay leave the
        same result-visible state behind and finish through this one path.
        """
        expected = len(self.tasks) + self._injected
        if self._completed != expected:
            raise SimulationError(
                f"simulation finished with {self._completed}/{expected} tasks completed"
            )
        for worker in self.workers:
            worker.finalise_downtime(end_time)
        dynamics_stats = DynamicsStats(
            tasks_rescheduled=self.master.tasks_rescheduled,
            tasks_reclaimed=self.master.tasks_reclaimed,
            tasks_redirected=self.master.tasks_redirected,
            worker_failures=self._counts["failures"],
            worker_recoveries=self._counts["recoveries"],
            worker_joins=self._counts["joins"],
            tasks_injected=self._injected,
            worker_downtime_seconds=float(
                sum(worker.downtime_seconds for worker in self.workers)
            ),
            queue_length_trajectory=tuple(
                (float(t), int(unscheduled), int(queued))
                for t, unscheduled, queued in zip(
                    self._queue_samples.column("time"),
                    self._queue_samples.column("unscheduled"),
                    self._queue_samples.column("queued"),
                )
            ),
        )
        metrics = compute_metrics(self.trace, dynamics=dynamics_stats)
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            metrics=metrics,
            trace=self.trace,
            scheduler_invocations=self.master.invocations,
            batch_sizes=list(self.master.batch_sizes),
            n_tasks=len(self.tasks),
            n_processors=self.cluster.n_processors,
            tasks_injected=self._injected,
            events_processed=events_processed,
            phase_seconds=(dict(self._phase_seconds) if self._phase_timing else {}),
        )


def simulate_schedule(
    scheduler: Scheduler,
    cluster: Cluster,
    tasks: TaskSet,
    *,
    config: Optional[SimulationConfig] = None,
    dynamics: Optional[DynamicsTimelineLike] = None,
    rng: RNGLike = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`DistributedSystemSimulation` and run it."""
    simulation = DistributedSystemSimulation(
        scheduler, cluster, tasks, config=config, dynamics=dynamics, rng=rng
    )
    return simulation.run()
