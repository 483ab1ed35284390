"""Array kernels of the heuristic scheduling policies.

The heuristic baselines spend their decisions on dense per-processor state —
``(pending_loads, rates, comm estimates)`` — yet deriving every decision
through the per-task machinery costs one ``select_processor`` call, one
context copy and one assignment object per task.  This module expresses the
decision rules of EF, LL and RR (and the MinMin/MaxMin batch loop) as plain
functions over those dense vectors.  The policies call them through the
module (``kernels.earliest_finish_wave``), and the simulation master places
a whole arrival *wave* of an immediate-mode policy with one call (see
``Master._schedule_wave``).

The kernels keep the exact float expressions of the scalar policy code
(``(loads + size) / rates`` — never an algebraic reformulation, which could
flip an ``argmin`` in a near-tie), and NumPy ufuncs with ``out=`` buffers
produce the same bits as the equivalent fresh-temporary expressions.  The
test suite holds each kernel, and whole simulations, bit for bit to a
per-task loop reference and to the master's per-task path.

Tie-break contract
------------------
Every kernel resolves ties by **lowest index**, made explicit per policy:

* **EF / LL** — ``argmin`` over the per-processor score returns the
  lowest-indexed processor among exact float ties (NumPy's documented
  ``argmin`` semantics; the scalar path inherits it from the same call).
* **RR** — deterministic rotation; no ties arise.
* **MinMin / MaxMin** — tasks are placed in ``(size, task_id)`` order
  ascending for MinMin and ``(-size, task_id)`` order for MaxMin: equal-size
  tasks are always placed in FCFS (ascending task id) order, in *both* sort
  directions.  (Historically MaxMin sorted with ``reverse=True`` over the
  ``(size, task_id)`` tuple, which silently reversed the id tie-break for
  equal sizes; the kernels fix this.)  Each placement then follows the
  EF-style ``argmin`` rule above.

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
down, diverted count included.  EF and LL check each pick inside their
placement loop and return ``(procs, diverted)``: the processor each task
joined (int64, aligned with the input order) and how many picks were
diverted.  RR's picks read no state, so an RR wave is
:func:`round_robin_wave` followed by :func:`place_picks`, which places one
task at a time only when some pick lands offline.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "diversion_target",
    "earliest_finish_wave",
    "lightest_loaded_wave",
    "round_robin_wave",
    "place_picks",
    "greedy_finish_batch",
]

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


def earliest_finish_wave(
    sizes: np.ndarray,
    loads: np.ndarray,
    rates: np.ndarray,
    online: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """EF: per task, ``argmin((loads + size) / rates)``; loads evolve.

    The *argmin* cannot batch across tasks — each decision depends on the
    previous placement — so the wave strips the per-task machinery instead:
    sizes arrive as one array and the score vector is computed into one
    preallocated buffer.
    """
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


def lightest_loaded_wave(
    sizes: np.ndarray,
    loads: np.ndarray,
    rates: np.ndarray,
    online: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """LL: per task, ``argmin(loads)``; loads evolve.

    *rates* only scores diversions.
    """
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


def round_robin_wave(n_tasks: int, n_processors: int, start: int) -> Tuple[np.ndarray, int]:
    """RR picks: task *k* of the wave picks ``(start + k) % n_processors``.

    Returns ``(picks, next_start)`` where ``next_start`` is the rotation
    state after the wave (what *start* would be after ``n_tasks``
    single-task selections), canonicalised into ``[0, n_processors)`` —
    the scalar path selects through ``start % n_processors``, so an
    out-of-range *start* is indistinguishable from its residue.  The
    picks read no state; commit them with :func:`place_picks`.
    """
    procs = (int(start) + np.arange(n_tasks, dtype=np.int64)) % n_processors
    return procs, (int(start) + n_tasks) % n_processors


def place_picks(
    picks: np.ndarray,
    sizes: np.ndarray,
    loads: np.ndarray,
    rates: np.ndarray,
    online: Optional[np.ndarray] = None,
) -> int:
    """Commit load-independent picks (RR) per the wave contract.

    Adds each task's size to its pick's load in FCFS order, diverting
    picks that land offline (their entries of *picks* are overwritten
    with the targets).  Returns the number of diverted picks.
    """
    if online is None or online[picks].all():
        # np.add.at applies repeated-index additions in index order — the
        # same accumulation sequence as per-task scalar adds.
        np.add.at(loads, picks, sizes)
        return 0
    diverted = 0
    for k, size in enumerate(sizes.tolist()):
        proc = picks[k]
        if not online[proc]:
            proc = diversion_target(loads, rates, online)
            picks[k] = proc
            diverted += 1
        loads[proc] += size
    return diverted


def greedy_finish_batch(
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
    placement.  Returns ``(order, procs)``: the placement order as indices
    into the input arrays, and the processor chosen for each placement, so
    callers can rebuild per-processor queues in the exact placement order.
    """
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
