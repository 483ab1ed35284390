"""Loop references of the vectorized scheduling kernels, for the parity tests.

Each reference replays the original per-task (policy) or per-individual (GA)
arithmetic with fresh temporaries, so it *defines* the semantics that
:mod:`repro.schedulers.kernels` and :mod:`repro.ga.kernels` are held to,
bit for bit.  No experiment runs on them.

* The policy references are plain functions named like the kernels they
  check.  :func:`references` swaps them in for the module's names and sends
  an immediate-mode scheduler down the master's per-task path, so a whole
  simulation runs on the references.
* :class:`LoopBackend` is the GA's per-individual
  :class:`~repro.ga.kernels.KernelBackend`.  Patching it in as
  ``repro.ga.engine._KERNELS`` evolves whole runs on it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np
import pytest

from repro.ga.crossover import CrossoverOperator
from repro.ga.encoding import chromosome_from_queues, decode_assignment
from repro.ga.kernels import KernelBackend
from repro.ga.mutation import apply_position_swaps, rebalance_many
from repro.ga.problem import ProblemGroup
from repro.schedulers import kernels
from repro.schedulers.base import ImmediateScheduler, Scheduler
from repro.schedulers.kernels import diversion_target

# ---------------------------------------------------------------------------
# Policy kernels
# ---------------------------------------------------------------------------

#: The kernel names of :mod:`repro.schedulers.kernels` that have a reference here.
POLICY_KERNELS = (
    "earliest_finish_wave",
    "lightest_loaded_wave",
    "round_robin_wave",
    "place_picks",
    "greedy_finish_batch",
)


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


def earliest_finish_wave(sizes, loads, rates, online=None):
    return _wave(lambda size, loads, rates: (loads + size) / rates, sizes, loads, rates, online)


def lightest_loaded_wave(sizes, loads, rates, online=None):
    return _wave(lambda size, loads, rates: loads, sizes, loads, rates, online)


def round_robin_wave(n_tasks, n_processors, start):
    procs = np.empty(n_tasks, dtype=np.int64)
    nxt = int(start) % n_processors
    for k in range(n_tasks):
        procs[k] = nxt
        nxt = (nxt + 1) % n_processors
    return procs, nxt


def place_picks(picks, sizes, loads, rates, online=None):
    diverted = 0
    for k in range(sizes.shape[0]):
        proc = picks[k]
        if online is not None and not online[proc]:
            proc = diversion_target(loads, rates, online)
            picks[k] = proc
            diverted += 1
        loads[proc] += sizes[k]
    return diverted


def greedy_finish_batch(sizes, task_ids, loads, rates, descending):
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


@contextmanager
def references(scheduler: Scheduler) -> Iterator[None]:
    """Run *scheduler* on the references inside the block.

    The policy kernels of :mod:`repro.schedulers.kernels` are swapped for the
    functions above, and an immediate-mode *scheduler*'s class declines every
    wave, so the master places its tasks one ``schedule()`` call at a time.
    """
    with pytest.MonkeyPatch.context() as patch:
        for name in POLICY_KERNELS:
            patch.setattr(kernels, name, globals()[name])
        if isinstance(scheduler, ImmediateScheduler):
            patch.setattr(type(scheduler), "select_processors_wave", lambda *args: None)
        yield


# ---------------------------------------------------------------------------
# GA kernels
# ---------------------------------------------------------------------------


class LoopBackend(KernelBackend):
    """Reference backend: per-individual Python loops over the original operators."""

    def decode(self, population: np.ndarray, group: ProblemGroup) -> np.ndarray:
        return np.vstack(
            [
                decode_assignment(chromosome, group.n_tasks, group.n_processors)
                for chromosome in population
            ]
        )

    def rebalance(
        self,
        population: np.ndarray,
        assignments: np.ndarray,
        completions: np.ndarray,
        group: ProblemGroup,
        n_rebalances: int,
        rngs: Sequence[np.random.Generator],
        max_probes: int,
    ) -> bool:
        accepted = False
        for idx in range(population.shape[0]):
            problem = group.problems[idx // group.rows]
            outcome = rebalance_many(
                assignments[idx],
                completions[idx],
                problem,
                n_rebalances,
                rng=rngs[idx // group.rows],
                max_probes=max_probes,
            )
            if not outcome.improved:
                continue
            accepted = True
            # Mirror accepted swaps back into the chromosome so crossover
            # keeps operating on consistent genomes.
            changed = np.nonzero(outcome.assignment != assignments[idx])[0]
            if changed.size == 2:
                self._swap_genes(population[idx], int(changed[0]), int(changed[1]))
            else:  # several sequential swaps: rebuild via queues
                queues = [[] for _ in range(problem.n_processors)]
                for task_index, proc in enumerate(outcome.assignment):
                    queues[int(proc)].append(int(task_index))
                population[idx] = chromosome_from_queues(queues, problem.n_tasks)
            assignments[idx] = outcome.assignment
            completions[idx] = outcome.completions
        return accepted

    @staticmethod
    def _swap_genes(chromosome: np.ndarray, task_a: int, task_b: int) -> None:
        pos_a = int(np.nonzero(chromosome == task_a)[0][0])
        pos_b = int(np.nonzero(chromosome == task_b)[0][0])
        chromosome[pos_a], chromosome[pos_b] = chromosome[pos_b], chromosome[pos_a]

    def _apply_crossover(
        self,
        parents: np.ndarray,
        first_rows: np.ndarray,
        operator: CrossoverOperator,
        rngs: Sequence[np.random.Generator],
        per_problem: int,
    ) -> None:
        self._cross_pairs_sequentially(parents, first_rows, operator, rngs, per_problem)

    def _apply_swaps(
        self,
        population: np.ndarray,
        rows: np.ndarray,
        i_pos: np.ndarray,
        j_pos: np.ndarray,
    ) -> None:
        for local, row in enumerate(rows):
            apply_position_swaps(population[row], i_pos[local], j_pos[local])
