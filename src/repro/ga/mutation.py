"""Mutation operators: random swaps and the re-balancing heuristic.

The paper employs two kinds of mutation (Sect. 3.3 and 3.5):

* **random swap** — exchange two randomly chosen genes of a randomly chosen
  individual; because delimiters are genes too this can move tasks between
  queues as well as reorder them within a queue;
* **re-balancing heuristic** — pick the most heavily loaded processor,
  randomly probe tasks on other processors, and swap a probed task with a
  larger task on the heavy processor when that improves the schedule
  (accepted only if the resulting individual is fitter, with at most five
  probes per re-balance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, ensure_rng
from ..util.validation import require_at_least, require_positive_int
from .problem import BatchProblem

__all__ = [
    "swap_mutation",
    "apply_position_swaps",
    "RebalanceOutcome",
    "rebalance_assignment",
    "rebalance_many",
]


def swap_mutation(chromosome: np.ndarray, rng: RNGLike = None, n_swaps: int = 1) -> np.ndarray:
    """Return a copy of *chromosome* with *n_swaps* random gene exchanges.

    Swapping two task genes in different queues moves both tasks; swapping a
    task gene with a delimiter shifts the queue boundary.  Either way the
    result remains a valid permutation, so no repair step is needed.
    """
    n_swaps = require_at_least(n_swaps, 0, "n_swaps")
    chrom = np.asarray(chromosome, dtype=int).copy()
    if chrom.size < 2 or n_swaps == 0:
        return chrom
    gen = ensure_rng(rng)
    for _ in range(n_swaps):
        i, j = gen.choice(chrom.size, size=2, replace=False)
        chrom[i], chrom[j] = chrom[j], chrom[i]
    return chrom


def apply_position_swaps(
    chromosome: np.ndarray, i_positions: np.ndarray, j_positions: np.ndarray
) -> None:
    """Exchange the genes at each ``(i, j)`` position pair in order, in place.

    This is the deterministic half of swap mutation: the position pairs are
    drawn separately (see :func:`repro.ga.kernels.draw_swap_positions`) so the
    vectorized kernels and their per-individual loop reference can share one
    stream of draws and produce bit-identical children.
    """
    for i, j in zip(i_positions, j_positions):
        chromosome[i], chromosome[j] = chromosome[j], chromosome[i]


@dataclass(frozen=True)
class RebalanceOutcome:
    """Result of applying the re-balancing heuristic to one assignment."""

    assignment: np.ndarray
    completions: np.ndarray
    improved: bool
    swapped: Optional[Tuple[int, int]] = None  # (task moved off heavy proc, task moved on)

    @property
    def makespan(self) -> float:
        """Makespan of the (possibly rebalanced) assignment."""
        return float(self.completions.max())


def _error(completions: np.ndarray, psi: float) -> float:
    deviation = completions - psi
    return float(np.sqrt(np.sum(deviation**2)))


def rebalance_assignment(
    assignment: np.ndarray,
    completions: np.ndarray,
    problem: BatchProblem,
    rng: RNGLike = None,
    max_probes: int = 5,
) -> RebalanceOutcome:
    """Apply one re-balance attempt to an assignment vector.

    Parameters
    ----------
    assignment:
        Task-index → processor vector of the individual (not modified).
    completions:
        The individual's current per-processor completion times (consistent
        with *assignment*); supplying them avoids a full re-evaluation.
    problem:
        The batch problem (sizes, rates, comm estimates, ψ).
    max_probes:
        Maximum number of random probes for a smaller task on other
        processors (the paper allows at most five).

    Returns
    -------
    RebalanceOutcome
        The accepted assignment (the original if no improving swap was found)
        together with its completion-time vector.

    Notes
    -----
    The swap exchanges a task from the most heavily loaded processor with a
    *smaller* task from another processor, and is kept only if the schedule's
    relative error improves — exactly the accept test of the paper (the
    "fitter" schedule is the one with the smaller error, hence larger
    ``F = 1/E``).
    """
    max_probes = require_positive_int(max_probes, "max_probes")
    assignment = np.asarray(assignment, dtype=int)
    completions = np.asarray(completions, dtype=float)
    if assignment.shape[0] != problem.n_tasks:
        raise ConfigurationError("assignment length must equal the number of tasks in the batch")
    if completions.shape[0] != problem.n_processors:
        raise ConfigurationError("completions length must equal the number of processors")
    gen = ensure_rng(rng)

    heavy_proc = int(np.argmax(completions))
    heavy_tasks = np.nonzero(assignment == heavy_proc)[0]
    other_tasks = np.nonzero(assignment != heavy_proc)[0]
    if heavy_tasks.size == 0 or other_tasks.size == 0:
        return RebalanceOutcome(assignment.copy(), completions.copy(), improved=False)

    psi = problem.optimal_time()
    current_error = _error(completions, psi)

    # One randomly selected task from another processor...
    candidate = int(other_tasks[gen.integers(0, other_tasks.size)])
    candidate_proc = int(assignment[candidate])
    candidate_size = float(problem.sizes[candidate])

    # ...probed against up to `max_probes` random tasks on the heavy processor.
    probes = gen.choice(heavy_tasks, size=min(max_probes, heavy_tasks.size), replace=False)
    for probe in probes:
        probe = int(probe)
        probe_size = float(problem.sizes[probe])
        if candidate_size >= probe_size:
            continue  # only swap in a strictly smaller task
        updated = completions.copy()
        updated[heavy_proc] += (candidate_size - probe_size) / problem.rates[heavy_proc]
        updated[candidate_proc] += (probe_size - candidate_size) / problem.rates[candidate_proc]
        if _error(updated, psi) < current_error:
            new_assignment = assignment.copy()
            new_assignment[probe] = candidate_proc
            new_assignment[candidate] = heavy_proc
            return RebalanceOutcome(
                assignment=new_assignment,
                completions=updated,
                improved=True,
                swapped=(probe, candidate),
            )
    return RebalanceOutcome(assignment.copy(), completions.copy(), improved=False)


def rebalance_many(
    assignment: np.ndarray,
    completions: np.ndarray,
    problem: BatchProblem,
    n_rebalances: int,
    rng: RNGLike = None,
    max_probes: int = 5,
) -> RebalanceOutcome:
    """Apply the re-balancing heuristic *n_rebalances* times in sequence.

    Each accepted swap updates the working assignment, so later re-balances
    see the improved schedule (this is how "50 rebalances per individual per
    generation" is realised in the paper's Fig. 3 study).
    """
    n_rebalances = require_at_least(n_rebalances, 0, "n_rebalances")
    gen = ensure_rng(rng)
    current = RebalanceOutcome(
        np.asarray(assignment, dtype=int).copy(),
        np.asarray(completions, dtype=float).copy(),
        improved=False,
    )
    any_improved = False
    for _ in range(n_rebalances):
        outcome = rebalance_assignment(
            current.assignment, current.completions, problem, gen, max_probes=max_probes
        )
        any_improved = any_improved or outcome.improved
        current = outcome
    return RebalanceOutcome(
        assignment=current.assignment,
        completions=current.completions,
        improved=any_improved,
        swapped=current.swapped,
    )
