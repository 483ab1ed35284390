"""Fitness evaluation (Sect. 3.2 of the paper).

The paper scores a candidate schedule by its *relative error* against the
theoretical optimum ψ:

    ψ     = Σ_i t_i / Σ_j P_j + Σ_j δ_j
    E_i   = sqrt( Σ_j | ψ − C_{j,i} |² )
    F_i   = 1 / E_i

where ``C_{j,i}`` is processor ``j``'s estimated completion time under
individual ``i``:

    C_{j,i} = δ_j + Σ_{y assigned to j} ( t_y / P_j + Γ_c(y, j) )

A perfectly balanced schedule makes every processor finish at ψ, giving zero
error and maximal fitness.  The makespan of an individual is
``max_j C_{j,i}``; it is what the experiments report, while the fitness
drives selection.

Evaluation is vectorised over the whole population: the population is
represented as an integer matrix of task→processor assignments, each task's
contribution is gathered from the problem's cached ``(H, M)`` cost table
(:meth:`BatchProblem.assigned_task_costs`), and the per-processor
completion times are accumulated with one ``bincount`` per call, which is
what makes the scaled-down paper experiments tractable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..util.errors import ConfigurationError
from .problem import BatchProblem

__all__ = [
    "FitnessResult",
    "completion_times",
    "evaluate_assignments",
    "evaluate_single",
    "makespan_of_assignment",
    "swap_completion_delta",
]

#: Error floor: a schedule whose error is below this is treated as perfect,
#: keeping the fitness ``1 / E`` finite.
ERROR_FLOOR = 1e-9


@dataclass(frozen=True)
class FitnessResult:
    """Vectorised evaluation of a population of assignments.

    Attributes
    ----------
    completions:
        Estimated completion time per processor, shape ``(P, M)``.
    errors:
        Relative error ``E_i`` per individual, shape ``(P,)``.
    fitness:
        ``F_i = 1 / max(E_i, floor)`` per individual, shape ``(P,)``.
    makespans:
        ``max_j C_{j,i}`` per individual, shape ``(P,)``.
    psi:
        The theoretical optimum used as the error reference.
    """

    completions: np.ndarray
    errors: np.ndarray
    fitness: np.ndarray
    makespans: np.ndarray
    psi: float

    @property
    def best_index(self) -> int:
        """Index of the individual with the lowest makespan (paper Sect. 3.4)."""
        return int(self.makespans.argmin())

    @property
    def best_makespan(self) -> float:
        """Lowest makespan in the population."""
        return float(self.makespans[self.best_index])

    @property
    def fittest_index(self) -> int:
        """Index of the individual with the highest fitness (lowest error)."""
        return int(np.argmax(self.fitness))


def completion_times(assignments: np.ndarray, problem: BatchProblem) -> np.ndarray:
    """Per-processor completion times for each individual.

    Parameters
    ----------
    assignments:
        Integer matrix of shape ``(P, H)``; entry ``[p, i]`` is the processor
        that individual ``p`` assigns task ``i`` to.
    problem:
        The batch problem supplying sizes, rates, pending loads and per-link
        communication estimates.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(P, M)`` of estimated completion times in seconds.
    """
    assignments = np.asarray(assignments, dtype=int)
    if assignments.ndim != 2:
        assignments = np.atleast_2d(assignments)
    pop, h = assignments.shape
    if h != problem.n_tasks:
        raise ConfigurationError(
            f"assignments have {h} tasks but the problem has {problem.n_tasks}"
        )
    m = problem.n_processors
    if assignments.size and (assignments.min() < 0 or assignments.max() >= m):
        raise ConfigurationError("assignment matrix references an invalid processor index")

    # Per-gene contribution to its assigned processor (execution plus
    # communication), gathered from the problem's cached cost table and summed
    # per (individual, processor) in ascending task order.
    contrib = problem.assigned_task_costs(assignments)
    flat_index = assignments + np.arange(0, pop * m, m)[:, None]
    sums = np.bincount(flat_index.ravel(), weights=contrib.ravel(), minlength=pop * m)
    return problem.pending_times() + sums.reshape(pop, m)


def evaluate_assignments(assignments: np.ndarray, problem: BatchProblem) -> FitnessResult:
    """Evaluate a population of assignment vectors against *problem*."""
    completions = completion_times(assignments, problem)
    psi = problem.optimal_time()
    deviations = completions - psi
    errors = np.sqrt((deviations**2).sum(axis=1))
    fitness = 1.0 / np.maximum(errors, ERROR_FLOOR)
    makespans = completions.max(axis=1)
    return FitnessResult(
        completions=completions,
        errors=errors,
        fitness=fitness,
        makespans=makespans,
        psi=psi,
    )


def evaluate_single(assignment: np.ndarray, problem: BatchProblem) -> Tuple[float, float, float]:
    """Evaluate one assignment vector; returns ``(error, fitness, makespan)``."""
    result = evaluate_assignments(np.atleast_2d(assignment), problem)
    return float(result.errors[0]), float(result.fitness[0]), float(result.makespans[0])


def makespan_of_assignment(assignment: np.ndarray, problem: BatchProblem) -> float:
    """Makespan (seconds) of a single assignment vector."""
    return float(completion_times(assignment, problem).max())


def swap_completion_delta(
    completions: np.ndarray,
    problem: BatchProblem,
    proc_a: int,
    proc_b: int,
    size_a: float,
    size_b: float,
) -> np.ndarray:
    """Completion times after swapping a task of *size_a* on *proc_a* with one of *size_b* on *proc_b*.

    Because the per-task communication estimate depends only on the processor,
    swapping two tasks between processors leaves the communication terms
    unchanged; only the execution-time terms move.  This makes the
    re-balancing heuristic's accept/reject test O(1) instead of a full
    re-evaluation.

    Parameters
    ----------
    completions:
        Completion-time vector of one individual, shape ``(M,)`` (not modified).
    proc_a, proc_b:
        The two processors exchanging tasks.
    size_a, size_b:
        Sizes (MFLOPs) of the task currently on *proc_a* and *proc_b*
        respectively.
    """
    if proc_a == proc_b:
        return completions.copy()
    updated = completions.copy()
    updated[proc_a] += (size_b - size_a) / problem.rates[proc_a]
    updated[proc_b] += (size_a - size_b) / problem.rates[proc_b]
    return updated
