"""Array kernels for the heuristic scheduling policies and their backends.

The heuristic baselines spend their decisions on dense per-processor state —
``(pending_loads, rates, comm estimates)`` — yet the original implementation
re-derived every decision through per-task Python machinery: one
``select_processor`` call, one context copy and one assignment object per
task.  This module expresses the decision rules of EF/LL/RR/MET/OLB (and the
MinMin/MaxMin/Sufferage batch loops) as kernels over those dense vectors,
behind the same bit-identity-gated backend abstraction as
:mod:`repro.ga.kernels`:

* :class:`LoopPolicyBackend` (``"loop"``) — the reference implementation:
  every kernel replays the original per-task arithmetic with fresh
  temporaries, and the simulation master keeps its historical
  one-invocation-per-task path;
* :class:`VectorizedPolicyBackend` (``"vectorized"``, the default) — the
  same arithmetic with pre-extracted size arrays and preallocated output
  buffers, plus fully batched kernels where the decision rule admits them
  (round-robin, MET).  The master additionally schedules whole arrival
  *waves* through one kernel call (see ``Master._schedule_wave``).

Both backends are bit-identical for every policy: the kernels keep the exact
float expressions of the scalar code (``(loads + size) / rates`` — never an
algebraic reformulation, which could flip an ``argmin`` in a near-tie) and
NumPy ufuncs with ``out=`` buffers produce the same bits as the equivalent
fresh-temporary expressions.

Tie-break contract
------------------
Every kernel resolves ties by **lowest index**, made explicit per policy:

* **EF / LL / OLB / MET** — ``argmin`` over the per-processor score returns
  the lowest-indexed processor among exact float ties (NumPy's documented
  ``argmin`` semantics; the loop backend inherits it from the same call).
* **RR** — deterministic rotation; no ties arise.
* **MinMin / MaxMin** — tasks are placed in ``(size, task_id)`` order
  ascending for MinMin and ``(-size, task_id)`` order for MaxMin: equal-size
  tasks are always placed in FCFS (ascending task id) order, in *both* sort
  directions.  (Historically MaxMin sorted with ``reverse=True`` over the
  ``(size, task_id)`` tuple, which silently reversed the id tie-break for
  equal sizes; the kernels fix this.)  Each placement then follows the
  EF-style ``argmin`` rule above.
* **Sufferage** — within one round, a task's best processor is the
  lowest-indexed minimiser of its completion vector (``argmin``, not an
  unstable ``argsort``, whose quicksort order between equal keys is
  unspecified); among tasks with equal sufferage the earliest-considered
  (lowest remaining position, i.e. FCFS) task wins.

Wave contract
-------------
The ``*_wave`` kernels place a whole arrival wave *sequentially in effect*:
placements are committed one task at a time in FCFS order and each placement
adds the task's size to the dense ``loads`` vector (mutated in place) before
the next decision — exactly what N per-task invocations against a working
context would compute.  ``time``, ``rates`` and comm estimates are frozen
for the duration of a wave: within one ``INVOKE_SCHEDULER`` event they can
only change through ``observe_dispatch`` / ``observe_completion``, which
never run between two placements of the same wave.  ``pending_loads`` is
therefore the *only* field a wave must evolve, and the only one it does.

Offline workers are part of the contract.  ``online`` is the context's bool
mask of the processors in the cluster (``None`` when all are).  A pick that
lands on an offline processor is *diverted* to :func:`diversion_target` —
the online processor with the shortest estimated drain time
``loads / max(rates, 1e-12)``, lowest index on ties — and the task's size
is added to the diverted target's load, never to the offline entry.  That
is the master's own rule for a per-task invocation whose pick is offline,
so a wave stays bit-identical to N per-task invocations while workers are
down, diverted count included.  EF, LL and OLB check each pick inside their
placement loop; RR and MET keep their batched, load-independent picks and
commit them through :meth:`PolicyKernelBackend.place_picks`, which places
one task at a time only when some pick lands offline.  The EF, LL, OLB and
MET wave kernels return ``(procs, diverted)``: the processor each task
joined and how many picks were diverted; an RR wave is
:meth:`~PolicyKernelBackend.round_robin_wave` followed by ``place_picks``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from ..util.errors import ConfigurationError

__all__ = [
    "POLICY_BACKEND_NAMES",
    "diversion_target",
    "PolicyKernelBackend",
    "LoopPolicyBackend",
    "VectorizedPolicyBackend",
    "policy_backend_from_name",
    "default_policy_backend",
]

#: Valid backend names, in documentation order.
POLICY_BACKEND_NAMES: Tuple[str, ...] = ("loop", "vectorized")

#: Rate floor of the diversion score, so a vanishing rate estimate never
#: divides by zero.
DIVERSION_RATE_FLOOR = 1e-12


def diversion_target(loads: np.ndarray, rates: np.ndarray, online: np.ndarray) -> int:
    """The online processor with the shortest estimated drain time.

    ``argmin(where(online, loads / maximum(rates, 1e-12), inf))``: the
    lowest index wins among exact ties, as in
    ``min(online_ids, key=lambda p: (loads[p] / rate_p, p))``.  Offline
    entries are masked out, so their placeholder loads and rates never
    matter.  The one diversion rule of the master and the wave kernels.
    """
    scores = loads / np.maximum(rates, DIVERSION_RATE_FLOOR)
    return int(np.where(online, scores, np.inf).argmin())


def _place_sequentially(
    picks: np.ndarray,
    sizes: np.ndarray,
    loads: np.ndarray,
    rates: np.ndarray,
    online: Optional[np.ndarray],
) -> int:
    """Commit *picks* one task at a time in FCFS order, diverting offline ones.

    Each task's size is added to its pick's load, or to the
    :func:`diversion_target` of the loads so far when the pick is offline;
    diverted entries of *picks* are overwritten with their targets.  Returns
    the number of diverted picks.
    """
    diverted = 0
    for k, size in enumerate(sizes.tolist()):
        proc = picks[k]
        if online is not None and not online[proc]:
            proc = diversion_target(loads, rates, online)
            picks[k] = proc
            diverted += 1
        loads[proc] += size
    return diverted


class PolicyKernelBackend(ABC):
    """One interchangeable implementation of the policy decision kernels.

    Wave kernels (``*_wave``) take the task sizes of one arrival wave, the
    dense worker state and the ``online`` mask, mutate ``loads`` in place
    and return ``(procs, diverted)`` per the wave contract above: the
    processor each task joined (int64, aligned with the input order) and
    the number of picks diverted off offline processors.  Batch kernels
    return ``(order, procs)``: the placement order as indices into the
    input arrays, and the processor chosen for each placement, so callers
    can rebuild per-processor queues in the exact placement order.
    """

    #: Backend identifier (one of :data:`POLICY_BACKEND_NAMES`).
    name: str = "base"
    #: Whether the simulation master should batch immediate-mode arrival
    #: waves through one ``*_wave`` call (the loop backend keeps the
    #: historical per-task invocation path, which doubles as the benchmark
    #: baseline).
    batches_immediate_waves: bool = False

    # -- immediate-mode waves ------------------------------------------------------
    @abstractmethod
    def earliest_finish_wave(
        self,
        sizes: np.ndarray,
        loads: np.ndarray,
        rates: np.ndarray,
        online: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """EF: per task, ``argmin((loads + size) / rates)``; loads evolve."""

    @abstractmethod
    def lightest_loaded_wave(
        self,
        sizes: np.ndarray,
        loads: np.ndarray,
        rates: np.ndarray,
        online: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """LL: per task, ``argmin(loads)``; loads evolve.

        *rates* only scores diversions.
        """

    @abstractmethod
    def opportunistic_wave(
        self,
        sizes: np.ndarray,
        loads: np.ndarray,
        rates: np.ndarray,
        online: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """OLB: per task, ``argmin(loads / rates)``; loads evolve."""

    @abstractmethod
    def minimum_execution_wave(
        self,
        sizes: np.ndarray,
        loads: np.ndarray,
        rates: np.ndarray,
        online: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """MET: per task, ``argmin(size / rates)`` (load-independent picks)."""

    @abstractmethod
    def round_robin_wave(
        self, n_tasks: int, n_processors: int, start: int
    ) -> Tuple[np.ndarray, int]:
        """RR picks: task *k* of the wave picks ``(start + k) % n_processors``.

        Returns ``(picks, next_start)`` where ``next_start`` is the rotation
        state after the wave (what *start* would be after ``n_tasks``
        single-task selections), canonicalised into ``[0, n_processors)`` —
        the scalar path selects through ``start % n_processors``, so an
        out-of-range *start* is indistinguishable from its residue.  The
        picks read no state; commit them with :meth:`place_picks`.
        """

    @abstractmethod
    def place_picks(
        self,
        picks: np.ndarray,
        sizes: np.ndarray,
        loads: np.ndarray,
        rates: np.ndarray,
        online: Optional[np.ndarray] = None,
    ) -> int:
        """Commit load-independent picks (RR, MET) per the wave contract.

        Adds each task's size to its pick's load in FCFS order, diverting
        picks that land offline (their entries of *picks* are overwritten
        with the targets).  Returns the number of diverted picks.
        """

    # -- batch-mode kernels --------------------------------------------------------
    @abstractmethod
    def greedy_finish_batch(
        self,
        sizes: np.ndarray,
        task_ids: np.ndarray,
        loads: np.ndarray,
        rates: np.ndarray,
        descending: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """MinMin/MaxMin: sort by size (FCFS id tie-break), place greedily.

        Tasks are ordered by ``(size, task_id)`` ascending (MinMin) or
        ``(-size, task_id)`` (MaxMin) and each is placed on the processor
        minimising ``(loads + size) / rates``; ``loads`` evolves per
        placement.  Returns ``(order, procs)``.
        """

    @abstractmethod
    def sufferage_batch(
        self, sizes: np.ndarray, loads: np.ndarray, rates: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sufferage: each round map the task with the largest sufferage.

        A task's sufferage is the gap between its second-best and best
        completion times; its best processor is the lowest-indexed
        minimiser.  Returns ``(order, procs)``; ``loads`` evolves per
        placement.
        """


class LoopPolicyBackend(PolicyKernelBackend):
    """Reference backend: the original per-task arithmetic, kernel-shaped.

    Every decision uses fresh temporaries and the exact expressions of the
    scalar schedulers, so this backend *defines* the semantics the
    vectorized backend is gated against.
    """

    name = "loop"
    batches_immediate_waves = False

    @staticmethod
    def _wave(score, sizes, loads, rates, online):
        """Place tasks one at a time on ``argmin(score(size, loads, rates))``."""
        procs = np.empty(sizes.shape[0], dtype=np.int64)
        diverted = 0
        for k in range(sizes.shape[0]):
            proc = int(np.argmin(score(sizes[k], loads, rates)))
            if online is not None and not online[proc]:
                proc = diversion_target(loads, rates, online)
                diverted += 1
            procs[k] = proc
            loads[proc] += sizes[k]
        return procs, diverted

    def earliest_finish_wave(self, sizes, loads, rates, online=None):
        return self._wave(
            lambda size, loads, rates: (loads + size) / rates, sizes, loads, rates, online
        )

    def lightest_loaded_wave(self, sizes, loads, rates, online=None):
        return self._wave(lambda size, loads, rates: loads, sizes, loads, rates, online)

    def opportunistic_wave(self, sizes, loads, rates, online=None):
        return self._wave(lambda size, loads, rates: loads / rates, sizes, loads, rates, online)

    def minimum_execution_wave(self, sizes, loads, rates, online=None):
        return self._wave(lambda size, loads, rates: size / rates, sizes, loads, rates, online)

    def round_robin_wave(self, n_tasks, n_processors, start):
        procs = np.empty(n_tasks, dtype=np.int64)
        nxt = int(start) % n_processors
        for k in range(n_tasks):
            procs[k] = nxt
            nxt = (nxt + 1) % n_processors
        return procs, nxt

    def place_picks(self, picks, sizes, loads, rates, online=None):
        return _place_sequentially(picks, sizes, loads, rates, online)

    def greedy_finish_batch(self, sizes, task_ids, loads, rates, descending):
        n = sizes.shape[0]
        if descending:
            order = sorted(range(n), key=lambda i: (-sizes[i], task_ids[i]))
        else:
            order = sorted(range(n), key=lambda i: (sizes[i], task_ids[i]))
        procs = np.empty(n, dtype=np.int64)
        for k, i in enumerate(order):
            finish_times = (loads + sizes[i]) / rates
            proc = int(np.argmin(finish_times))
            procs[k] = proc
            loads[proc] += sizes[i]
        return np.asarray(order, dtype=np.int64), procs

    def sufferage_batch(self, sizes, loads, rates):
        n = sizes.shape[0]
        remaining = list(range(n))
        order = np.empty(n, dtype=np.int64)
        procs = np.empty(n, dtype=np.int64)
        for k in range(n):
            best_pos = -1
            best_sufferage = -np.inf
            best_proc = 0
            for pos, i in enumerate(remaining):
                completion = (loads + sizes[i]) / rates
                first = int(np.argmin(completion))
                if completion.size > 1:
                    best_completion = completion[first]
                    completion[first] = np.inf
                    sufferage = float(completion.min() - best_completion)
                else:
                    sufferage = 0.0
                if sufferage > best_sufferage:
                    best_sufferage = sufferage
                    best_pos = pos
                    best_proc = first
            chosen = remaining.pop(best_pos)
            order[k] = chosen
            procs[k] = best_proc
            loads[best_proc] += sizes[chosen]
        return order, procs


class VectorizedPolicyBackend(PolicyKernelBackend):
    """Dense-array backend: buffer-reusing waves and batched kernels.

    The sequential-in-effect waves (EF/LL/OLB) cannot batch their *argmin*
    across tasks — each decision depends on the previous placement — so the
    win comes from stripping the per-task Python machinery: sizes arrive as
    one pre-extracted array and the score vector is computed into a
    preallocated buffer (``np.add``/``np.divide`` with ``out=`` are
    bit-identical to the fresh-temporary expressions).  RR and MET decisions
    are load-independent and batch completely; their loads are committed in
    one ``np.add.at`` unless a pick lands offline.
    """

    name = "vectorized"
    batches_immediate_waves = True

    def earliest_finish_wave(self, sizes, loads, rates, online=None):
        n = sizes.shape[0]
        procs = np.empty(n, dtype=np.int64)
        buf = np.empty_like(loads)
        diverted = 0
        for k, size in enumerate(sizes.tolist()):
            np.add(loads, size, out=buf)
            np.divide(buf, rates, out=buf)
            proc = buf.argmin()
            if online is not None and not online[proc]:
                proc = diversion_target(loads, rates, online)
                diverted += 1
            procs[k] = proc
            loads[proc] += size
        return procs, diverted

    def lightest_loaded_wave(self, sizes, loads, rates, online=None):
        n = sizes.shape[0]
        procs = np.empty(n, dtype=np.int64)
        diverted = 0
        for k, size in enumerate(sizes.tolist()):
            proc = loads.argmin()
            if online is not None and not online[proc]:
                proc = diversion_target(loads, rates, online)
                diverted += 1
            procs[k] = proc
            loads[proc] += size
        return procs, diverted

    def opportunistic_wave(self, sizes, loads, rates, online=None):
        n = sizes.shape[0]
        procs = np.empty(n, dtype=np.int64)
        buf = np.empty_like(loads)
        diverted = 0
        for k, size in enumerate(sizes.tolist()):
            np.divide(loads, rates, out=buf)
            proc = buf.argmin()
            if online is not None and not online[proc]:
                proc = diversion_target(loads, rates, online)
                diverted += 1
            procs[k] = proc
            loads[proc] += size
        return procs, diverted

    def minimum_execution_wave(self, sizes, loads, rates, online=None):
        # MET ignores loads entirely, so the whole wave batches into one
        # (n_tasks, n_processors) division + row-wise argmin.
        picks = (sizes[:, None] / rates[None, :]).argmin(axis=1).astype(np.int64)
        return picks, self.place_picks(picks, sizes, loads, rates, online)

    def round_robin_wave(self, n_tasks, n_processors, start):
        procs = (int(start) + np.arange(n_tasks, dtype=np.int64)) % n_processors
        return procs, (int(start) + n_tasks) % n_processors

    def place_picks(self, picks, sizes, loads, rates, online=None):
        if online is None or online[picks].all():
            # np.add.at applies repeated-index additions in index order — the
            # same accumulation sequence as per-task scalar adds.
            np.add.at(loads, picks, sizes)
            return 0
        return _place_sequentially(picks, sizes, loads, rates, online)

    def greedy_finish_batch(self, sizes, task_ids, loads, rates, descending):
        # lexsort's last key is primary and the sort is stable, so
        # (task_ids, ±sizes) reproduces sorted(key=(±size, task_id)) exactly;
        # float negation is exact, so -sizes never perturbs a tie.
        if descending:
            order = np.lexsort((task_ids, -sizes))
        else:
            order = np.lexsort((task_ids, sizes))
        n = sizes.shape[0]
        procs = np.empty(n, dtype=np.int64)
        buf = np.empty_like(loads)
        for k, i in enumerate(order.tolist()):
            size = sizes[i]
            np.add(loads, size, out=buf)
            np.divide(buf, rates, out=buf)
            proc = buf.argmin()
            procs[k] = proc
            loads[proc] += size
        return order.astype(np.int64, copy=False), procs

    def sufferage_batch(self, sizes, loads, rates):
        n = sizes.shape[0]
        n_processors = rates.shape[0]
        order = np.empty(n, dtype=np.int64)
        procs = np.empty(n, dtype=np.int64)
        alive = np.arange(n, dtype=np.int64)
        for k in range(n):
            # One (remaining, M) completion matrix per round: row i is the
            # same ``(loads + size) / rates`` vector the loop backend forms.
            completion = (loads + sizes[alive, None]) / rates
            first = completion.argmin(axis=1)
            rows = np.arange(alive.shape[0])
            best_completion = completion[rows, first]
            if n_processors > 1:
                completion[rows, first] = np.inf
                sufferage = completion.min(axis=1) - best_completion
            else:
                sufferage = np.zeros(alive.shape[0])
            # argmax keeps the first maximiser: FCFS among equal sufferages,
            # matching the loop backend's strict-improvement comparison.
            pos = int(sufferage.argmax())
            chosen = int(alive[pos])
            proc = int(first[pos])
            order[k] = chosen
            procs[k] = proc
            loads[proc] += sizes[chosen]
            alive = np.delete(alive, pos)
        return order, procs


_BACKENDS = {
    "loop": LoopPolicyBackend,
    "vectorized": VectorizedPolicyBackend,
}

_DEFAULT_BACKEND = VectorizedPolicyBackend()


def policy_backend_from_name(name: str) -> PolicyKernelBackend:
    """Instantiate a policy-kernel backend by name."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy backend {name!r}; "
            f"expected one of {list(POLICY_BACKEND_NAMES)}"
        ) from None
    return cls()


def default_policy_backend() -> PolicyKernelBackend:
    """The process-wide default backend (vectorized; backends are stateless)."""
    return _DEFAULT_BACKEND
