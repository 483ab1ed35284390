"""Initial-population construction (Sect. 3.3 of the paper).

The initial population is seeded with a *list scheduling heuristic*: for each
individual, a percentage of the batch's tasks are assigned to random
processors and the remaining tasks are assigned to the processor that would
finish them earliest, given the load accumulated so far.  This produces a
"well balanced randomised initial population" — diverse enough for the GA to
explore, but already close to sensible schedules.
"""

from __future__ import annotations

import numpy as np

from ..util.rng import RNGLike, ensure_rng
from ..util.validation import require_positive_int, require_probability
from .encoding import delimiter_symbols
from .problem import BatchProblem

__all__ = [
    "list_scheduled_assignment",
    "seeded_individual",
    "seeded_population",
    "random_population",
]


def _list_schedule(
    problem: BatchProblem, visit: np.ndarray, random_procs: np.ndarray
) -> np.ndarray:
    """Run the list-scheduling heuristic for a batch of individuals in lockstep.

    Row ``r`` visits the tasks in the order ``visit[r]``; its first
    ``random_procs.shape[1]`` tasks go to the drawn processors, each later one
    to the processor with the earliest projected finish time.  Every
    individual's finish-time sums accumulate in its own visiting order, so a
    row is bit-identical to scheduling that individual alone.
    """
    pop, n_tasks = visit.shape
    n_random = random_procs.shape[1]
    rows = np.arange(pop)
    exec_times = problem.execution_times()
    comm = problem.comm_costs
    assignments = np.empty((pop, n_tasks), dtype=int)
    # Working estimate of each processor's finish time (seconds), per row.
    finish = np.tile(problem.pending_times(), (pop, 1))
    for position, tasks in enumerate(visit.T):
        if position < n_random:
            procs = random_procs[:, position]
        else:
            procs = (finish + exec_times[tasks] + comm).argmin(axis=1)
        assignments[rows, tasks] = procs
        finish[rows, procs] += exec_times[tasks, procs] + comm[procs]
    return assignments


def list_scheduled_assignment(
    problem: BatchProblem,
    random_fraction: float,
    rng: RNGLike = None,
) -> np.ndarray:
    """One assignment vector from the paper's list-scheduling seeding heuristic.

    Tasks are visited in random order; the first ``random_fraction`` of them
    go to uniformly random processors and the rest go to the processor with
    the earliest estimated finish time (pending load plus load accumulated by
    this individual, plus the link's communication estimate).
    """
    require_probability(random_fraction, "random_fraction")
    gen = ensure_rng(rng)
    visit = gen.permutation(problem.n_tasks)
    n_random = int(round(random_fraction * problem.n_tasks))
    random_procs = gen.integers(0, problem.n_processors, size=n_random)
    return _list_schedule(problem, visit[None, :], random_procs[None, :])[0]


def _chromosomes(assignments: np.ndarray, dispatch: np.ndarray, n_processors: int) -> np.ndarray:
    """Encode each row's queues, ordered by ``dispatch``, as a chromosome row.

    Queue ``j`` holds the tasks assigned to ``j`` in dispatch order and is
    followed by delimiter ``-(j+1)``, as in
    :func:`repro.ga.encoding.chromosome_from_queues`.
    """
    pop, n_tasks = assignments.shape
    rows = np.arange(pop)[:, None]
    procs = assignments[rows, dispatch]
    order = procs.argsort(axis=1, kind="stable")
    procs = procs[rows, order]
    # The k-th task in queue order sits after k tasks and `proc` delimiters.
    chromosomes = np.empty((pop, n_tasks + n_processors - 1), dtype=int)
    chromosomes[rows, np.arange(n_tasks) + procs] = dispatch[rows, order]
    if n_processors > 1:
        counts = np.bincount(
            (procs + rows * n_processors).ravel(), minlength=pop * n_processors
        ).reshape(pop, n_processors)
        delimiter_pos = counts.cumsum(axis=1)[:, :-1] + np.arange(n_processors - 1)
        chromosomes[rows, delimiter_pos] = -np.arange(1, n_processors)
    return chromosomes


def seeded_individual(
    problem: BatchProblem,
    random_fraction: float,
    rng: RNGLike = None,
) -> np.ndarray:
    """One chromosome built from the list-scheduling heuristic.

    Queue order follows a second random permutation (the dispatch order), so
    two individuals with the same assignment still differ as chromosomes.
    """
    return seeded_population(problem, 1, random_fraction, rng)[0]


def seeded_population(
    problem: BatchProblem,
    population_size: int,
    random_fraction: float = 0.5,
    rng: RNGLike = None,
) -> np.ndarray:
    """A population matrix (``population_size`` × chromosome length) of seeded individuals.

    Each individual draws, in turn, its visiting order, its random
    processors and its dispatch order; the heuristic then runs for all of
    them at once.
    """
    population_size = require_positive_int(population_size, "population_size")
    require_probability(random_fraction, "random_fraction")
    gen = ensure_rng(rng)
    n_tasks, n_processors = problem.n_tasks, problem.n_processors
    n_random = int(round(random_fraction * n_tasks))
    # Shuffling a row of 0..H-1 in place draws exactly as gen.permutation(H).
    visit = np.tile(np.arange(n_tasks), (population_size, 1))
    dispatch = visit.copy()
    random_procs = np.empty((population_size, n_random), dtype=int)
    for row in range(population_size):
        gen.shuffle(visit[row])
        random_procs[row] = gen.integers(0, n_processors, size=n_random)
        gen.shuffle(dispatch[row])
    assignments = _list_schedule(problem, visit, random_procs)
    return _chromosomes(assignments, dispatch, n_processors)


def random_population(
    problem: BatchProblem,
    population_size: int,
    rng: RNGLike = None,
) -> np.ndarray:
    """A population of uniformly random chromosomes (used by the ZO baseline)."""
    population_size = require_positive_int(population_size, "population_size")
    gen = ensure_rng(rng)
    symbols = np.concatenate(
        [np.arange(problem.n_tasks), delimiter_symbols(problem.n_processors)]
    )
    population = np.tile(symbols, (population_size, 1))
    # Row by row, the same shuffles as random_chromosome.
    for row in population:
        gen.shuffle(row)
    return population
