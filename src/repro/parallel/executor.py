"""Experiment executors: serial and process-parallel job mapping.

The experiment harness repeats every measurement 20–50 times at paper scale,
and each repeat is statistically independent (its randomness comes from a
dedicated :class:`numpy.random.SeedSequence` child stream).  That makes the
repeat loop embarrassingly parallel, so the harness routes it through an
:class:`ExperimentExecutor`:

* :class:`SerialExecutor` runs jobs in-process, in *lockstep* — the
  default;
* :class:`ParallelExecutor` shards jobs across a
  :class:`concurrent.futures.ProcessPoolExecutor`.

The jobs count alone picks between them (:func:`executor_from_jobs`).  Both
apply the *same* worker function to the *same* job specs and return results
in submission order, so aggregates computed from a parallel run are
bit-identical to the serial run with the same master seed.  Job specs and
worker functions must be picklable for the parallel path (module-level
functions plus plain dataclasses of numpy arrays and scalars); if a job
cannot be pickled the parallel executor transparently degrades to in-process
execution rather than failing the experiment.

Lockstep (serial ``map``)
-------------------------
A serial ``map`` runs its jobs as cooperative threads, one running at a
time.  A job yields only inside a :func:`repro.util.lockstep.batched` call
(the GA's ``evolve``) or when it finishes.  At most :data:`LOCKSTEP_WIDTH`
jobs are in flight; once every one of them waits, the map runs each batch
function once over all the items waiting on it — equal-shaped GA problems
evolve as one stacked population — and resumes the jobs in job order.  Jobs
that never call ``batched`` run one after another, exactly as before.  The
results are those of running every job alone: each GA problem keeps its own
generator and draw order.

Streaming (``imap``)
--------------------
:meth:`ExperimentExecutor.imap` yields results one by one, still in job
order, while later jobs may execute concurrently.  Consumers that checkpoint
after every result (the campaign runner persists each completed cell to its
result store) use it so an interrupted run loses at most the bounded set of
in-flight jobs.  A serial ``imap`` stays lazy and runs one job at a time
(no lockstep).  A process-pool worker runs one job at a time; a job may
itself be a lockstep ``map`` over a group of jobs, which is how the
campaign runner stacks a worker's GA runs.  A
``KeyboardInterrupt`` during a parallel ``map``/``imap``
terminates the worker processes instead of hanging on the pool join, and a
worker process that dies mid-job (OOM killer, segfault) breaks the pool;
either way the executor raises
:class:`~repro.util.errors.ExperimentInterrupted` carrying the results
completed so far.  Nothing is retried: a job that kills its worker
deterministically would kill the retry too.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar

from ..telemetry import start_spans_under_caller
from ..telemetry import unwrap as _telemetry_unwrap
from ..telemetry import wrap_jobs_fn as _telemetry_wrap
from ..telemetry.monitor import wrap_jobs_fn as _monitor_wrap
from ..util.errors import ConfigurationError, ExperimentInterrupted
from ..util.lockstep import BatchFn, install_waiter

__all__ = [
    "LOCKSTEP_WIDTH",
    "ExperimentExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "executor_from_jobs",
    "resolve_executor",
]

J = TypeVar("J")
R = TypeVar("R")

#: Most jobs a serial ``map`` keeps in flight.  Every suspended job holds its
#: simulation state, and the GA gain per problem flattens as more runs stack:
#: on the e2e ``figures_small`` workload (2-vCPU host), width 4 cost +0.7%
#: peak RSS where width 8 cost +4.1%, against a 5% bound.
LOCKSTEP_WIDTH = 4

#: Seconds the caller waits on a job before it looks for a pending
#: ``KeyboardInterrupt`` (``_thread.interrupt_main`` wakes no blocked lock).
_POLL_SECONDS = 0.1

class ExperimentExecutor(ABC):
    """Maps a worker function over a list of independent job specs.

    Implementations must preserve job order in the returned results and must
    not reorder, drop or duplicate jobs: the experiment harness relies on
    ``results[i]`` being ``fn(jobs[i])`` so that aggregate statistics do not
    depend on which executor ran them.
    """

    #: Number of worker processes the executor uses (1 for serial).
    jobs: int = 1

    @abstractmethod
    def map(self, fn: Callable[[J], R], jobs: Sequence[J]) -> List[R]:
        """Apply *fn* to every job and return the results in job order."""

    def imap(self, fn: Callable[[J], R], jobs: Sequence[J]) -> Iterator[R]:
        """Yield ``fn(job)`` results one by one, in job order.

        The default implementation materialises :meth:`map`; parallel
        executors override it to stream each result as soon as it (and all
        earlier results) are available, so callers can checkpoint
        incrementally while later jobs are still running.
        """
        return iter(self.map(fn, jobs))

    def describe(self) -> str:
        """Short identifier recorded in experiment results.

        Callers record this *after* mapping, so implementations may reflect
        what actually happened (e.g. a serial fallback).
        """
        return "serial"

    def close(self) -> None:
        """Release any worker resources (no-op for in-process executors)."""

    def __enter__(self) -> "ExperimentExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(jobs={self.jobs})"


class _Cancelled(BaseException):
    """Unwinds a job thread whose map has been abandoned."""


class _JobThread(threading.Thread):
    """One job of a lockstep map; it runs only while it holds its turn."""

    def __init__(self, lockstep: "_Lockstep", fn: Callable[[J], R], job: J) -> None:
        super().__init__(name="repro-lockstep-job", daemon=True)
        self._lockstep = lockstep
        self._fn = fn
        self._job = job
        self.turn = threading.Semaphore(0)
        #: ``(batch_fn, item)`` while the job waits in ``batched``.
        self.request: Optional[Tuple[BatchFn, Any]] = None
        #: ``(failed, value)`` handed back by the lockstep.
        self.reply: Optional[Tuple[bool, Any]] = None
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        install_waiter(self._wait)
        try:
            if self._lockstep.cpus is not None:
                os.sched_setaffinity(0, self._lockstep.cpus)
            self.turn.acquire()
            if not self._lockstep.cancelled:
                self.result = self._fn(self._job)
        except _Cancelled:
            pass
        except BaseException as exc:
            self.error = exc
        finally:
            self.done = True
            self._lockstep.yielded.release()

    def _wait(self, batch_fn: BatchFn, item: Any) -> Any:
        lockstep = self._lockstep
        if lockstep.cancelled:
            raise _Cancelled
        self.request = (batch_fn, item)
        lockstep.yielded.release()
        self.turn.acquire()
        if lockstep.cancelled:
            raise _Cancelled
        failed, value = self.reply
        self.request = self.reply = None
        if failed:
            raise value
        return value


def _one_cpu() -> Optional[Set[int]]:
    """The CPU a lockstep map keeps its threads on: the one its caller is on.

    Keeping the caller's CPU leaves concurrent processes on the CPUs the
    kernel spread them over.  ``None`` (do not pin) in a multiprocessing
    child such as a pool worker, whose siblings run maps at the same time,
    and where the current CPU cannot be read (outside Linux).
    """
    if multiprocessing.parent_process() is not None:
        return None
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            # Field 39, "processor"; fields 1–2 are the pid and "(comm)".
            return {int(stat.read().rsplit(b")", 1)[1].split()[36])}
    except (OSError, IndexError, ValueError):
        return None


class _Lockstep:
    """Runs one serial ``map`` as cooperative job threads (module docstring)."""

    def __init__(self, fn: Callable[[J], R], jobs: Sequence[J], width: int) -> None:
        self.fn = fn
        self.jobs = jobs
        self.width = width
        #: Released by the running job when it waits or finishes.
        self.yielded = threading.Semaphore(0)
        self.cancelled = False
        #: The one CPU the map's threads run on (``None``: not pinned).
        self.cpus: Optional[Set[int]] = None
        #: Job threads started and not yet collected.
        self.live: List[_JobThread] = []

    def run(self) -> List[R]:
        # Only one thread of the map runs at a time, so they all share one
        # CPU: a hand-off then wakes a thread on the CPU just given up, with
        # warm caches, instead of waking another (possibly idle) CPU.
        cpus = _one_cpu()
        if cpus is None:
            return self._run()
        try:
            caller_cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, cpus)
        except (AttributeError, OSError):  # no thread affinity here
            return self._run()
        self.cpus = cpus
        try:
            return self._run()
        finally:
            os.sched_setaffinity(0, caller_cpus)

    def _run(self) -> List[R]:
        results: List[Any] = [None] * len(self.jobs)
        waiting: List[Tuple[int, _JobThread]] = []
        next_job = 0
        try:
            while next_job < len(self.jobs) or waiting:
                # Start jobs one at a time until the width is in flight.
                while next_job < len(self.jobs) and len(waiting) < self.width:
                    thread = _JobThread(self, self.fn, self.jobs[next_job])
                    start_spans_under_caller(thread)
                    self.live.append(thread)
                    thread.start()
                    self._step(thread)
                    if thread.done:
                        results[next_job] = self._collect(thread)
                    else:
                        waiting.append((next_job, thread))
                    next_job += 1
                # Every job in flight waits: run their batches, then resume them.
                self._run_batches([thread for _, thread in waiting])
                resumed = []
                for index, thread in waiting:
                    self._step(thread)
                    if thread.done:
                        results[index] = self._collect(thread)
                    else:
                        resumed.append((index, thread))
                waiting = resumed
        except BaseException:
            # A job raised, or the caller was interrupted: release every other
            # job so that its thread unwinds and exits.
            self.cancelled = True
            for thread in self.live:
                thread.turn.release()
            for thread in self.live:
                if thread.is_alive():
                    thread.join()
            raise
        return results

    def _step(self, thread: _JobThread) -> None:
        """Let *thread* run until it waits or finishes."""
        thread.turn.release()
        while not self.yielded.acquire(timeout=_POLL_SECONDS):
            pass

    def _collect(self, thread: _JobThread) -> Any:
        """Join a finished job's thread; return its result or raise its error."""
        thread.join()
        self.live.remove(thread)
        if thread.error is not None:
            raise thread.error
        return thread.result

    @staticmethod
    def _run_batches(threads: Sequence[_JobThread]) -> None:
        groups: Dict[BatchFn, List[_JobThread]] = {}
        for thread in threads:
            groups.setdefault(thread.request[0], []).append(thread)
        for batch_fn, members in groups.items():
            try:
                values = batch_fn([thread.request[1] for thread in members])
                replies = [(False, value) for value in values]
            except Exception as exc:
                replies = [(True, exc)] * len(members)
            for thread, reply in zip(members, replies):
                thread.reply = reply


class SerialExecutor(ExperimentExecutor):
    """Run every job in the current process: ``map`` in lockstep, ``imap`` in order.

    ``map`` keeps up to :data:`LOCKSTEP_WIDTH` jobs in flight as cooperative
    threads so that their GA runs can evolve as stacked populations (see the
    module docstring).  A job that raises stops the map: the other jobs are
    abandoned and ``map`` re-raises the error.  Where the platform supports
    thread affinity, the map runs the caller and its job threads on the CPU
    the caller is on and restores the caller's CPU set on return; threads and
    processes that a job starts inherit that one CPU.  A map in a
    multiprocessing child (a pool worker) does not pin its threads.
    """

    jobs = 1

    def map(self, fn: Callable[[J], R], jobs: Sequence[J]) -> List[R]:
        return _Lockstep(fn, list(jobs), LOCKSTEP_WIDTH).run()

    def imap(self, fn: Callable[[J], R], jobs: Sequence[J]) -> Iterator[R]:
        # Lazy by design: a serial campaign persists each cell before the
        # next one starts, so Ctrl-C loses at most the cell in progress.
        return (fn(job) for job in jobs)

    def describe(self) -> str:
        return "serial"


class ParallelExecutor(ExperimentExecutor):
    """Shard jobs across worker processes.

    The underlying :class:`~concurrent.futures.ProcessPoolExecutor` is
    created lazily on the first parallel ``map`` and reused for subsequent
    calls, so multi-point experiments (one ``map`` per sweep point / figure
    condition) pay the worker spawn and import cost once.  Call
    :meth:`close` — or use the executor as a context manager — to shut the
    pool down eagerly; otherwise it is reclaimed at interpreter exit.

    A ``KeyboardInterrupt`` while jobs are in flight terminates the worker
    processes (rather than hanging on the pool join waiting for running jobs)
    and raises :class:`~repro.util.errors.ExperimentInterrupted` with the
    results that completed before the interrupt.  A worker that dies
    mid-job breaks the pool the same way: the executor drops it (the next
    ``map`` recreates it) and raises ``ExperimentInterrupted`` with the
    :class:`~concurrent.futures.process.BrokenProcessPool` as its cause.

    Each job is one future: a worker pulls one job at a time.

    Parameters
    ----------
    jobs:
        Number of worker processes; ``None`` uses the machine's CPU count.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if int(jobs) < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._degraded = False

    def describe(self) -> str:
        # Recorded in experiment results after mapping: be honest when an
        # unpicklable job forced the work back in-process.
        if self._degraded:
            return f"process[{self.jobs}]:serial-fallback"
        return f"process[{self.jobs}]"

    def close(self) -> None:
        """Shut down the worker pool (a later ``map`` recreates it)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _terminate_workers(self) -> None:
        """Kill the pool's worker processes without waiting on running jobs.

        ``ProcessPoolExecutor.shutdown`` joins the workers, which blocks for
        as long as the longest in-flight job keeps running — at paper scale
        that can be minutes after the user pressed Ctrl-C.  Terminating the
        processes first makes the subsequent shutdown immediate.
        """
        pool = self._pool
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def _fallback_serial(self, fn, jobs) -> bool:
        if self.jobs <= 1 or len(jobs) <= 1:
            return True
        # Probe the function and the first job only: the harness's job lists
        # are homogeneous, so serialising all of them here would just double
        # the pickling work of the common (picklable) case.
        try:
            pickle.dumps(fn)
            pickle.dumps(jobs[0])
        except Exception:
            self._degraded = True
            warnings.warn(
                "job spec or worker function is not picklable; "
                "running serially in-process instead",
                RuntimeWarning,
                stacklevel=3,
            )
            return True
        return False

    def map(self, fn: Callable[[J], R], jobs: Sequence[J]) -> List[R]:
        return list(self.imap(fn, jobs))

    def imap(self, fn: Callable[[J], R], jobs: Sequence[J]) -> Iterator[R]:
        jobs = list(jobs)
        if self._fallback_serial(fn, jobs):
            # In-process execution: spans nest into the driver's session
            # naturally, no forwarding envelope needed.
            return (fn(job) for job in jobs)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        # With a telemetry session active in the driver, jobs run inside a
        # worker-side session and come back as (result, snapshot) envelopes;
        # unwrapping merges each worker's spans/metrics into the driver's
        # tree in job order.  Without a session this is fn, untouched.
        # The heartbeat wrap (outermost, so its timestamps include the
        # telemetry envelope) reports per-job worker progress when a run
        # monitor is active; it too is the identity otherwise.
        worker_fn = _monitor_wrap(_telemetry_wrap(fn))
        futures = [self._pool.submit(worker_fn, job) for job in jobs]

        def _stream() -> Iterator[R]:
            try:
                for future in futures:
                    yield _telemetry_unwrap(future.result())
            except (KeyboardInterrupt, BrokenProcessPool) as exc:
                # Ctrl-C, or a worker died and broke the pool: every job still
                # pending is lost, but the finished ones are paid for.
                partial = {
                    index: _telemetry_unwrap(future.result())
                    for index, future in enumerate(futures)
                    if future.done() and not future.cancelled() and future.exception() is None
                }
                self._terminate_workers()
                cause = None if isinstance(exc, KeyboardInterrupt) else exc
                raise ExperimentInterrupted(partial, len(jobs)) from cause
            except BaseException:
                # The consumer abandoned the stream (GeneratorExit) or a job
                # raised: every job was already submitted, so cancel the ones
                # that have not started or they would all still be computed —
                # and waited for — at pool shutdown.
                for future in futures:
                    future.cancel()
                raise

        return _stream()


def executor_from_jobs(jobs: Optional[int]) -> ExperimentExecutor:
    """Build the executor matching a ``jobs`` count (``None``/``1`` = serial)."""
    if jobs is not None and int(jobs) < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if jobs is None or int(jobs) == 1:
        return SerialExecutor()
    return ParallelExecutor(int(jobs))


def resolve_executor(
    executor: Optional[ExperimentExecutor], jobs: Optional[int]
) -> ExperimentExecutor:
    """An explicitly supplied executor wins; otherwise build one from *jobs*."""
    if executor is not None:
        return executor
    return executor_from_jobs(jobs)
