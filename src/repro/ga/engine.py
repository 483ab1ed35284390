"""The genetic-algorithm engine (Fig. 1 and Sect. 3.3–3.5 of the paper).

One :class:`GeneticAlgorithm` run maps a single batch of tasks onto processor
queues.  Each generation performs, in order:

1. fitness evaluation of the current population (relative error vs ψ);
2. the re-balancing heuristic on every individual (``n_rebalances`` times,
   accepted only when the schedule's error improves);
3. bookkeeping of the best individual (lowest makespan) and the generation
   limit, the one stopping test;
4. construction of the next generation by roulette-wheel selection, cycle
   crossover and random swap mutation, with elitism re-inserting the best
   individual found so far.

A generation whose re-balancing accepts no swap leaves the population as it
was evaluated, so it is not evaluated again (a one-task batch never swaps).

The population-level work of each generation — decoding, re-balancing,
crossover and mutation — runs on the whole-population NumPy kernels of
:class:`~repro.ga.kernels.VectorizedBackend`, held by the test suite to a
per-individual loop reference that follows the same RNG draw-order
contract (see :mod:`repro.ga.kernels`).

Stacked runs
------------
There is one generation loop, and it evolves a *group* of problems that
share a :class:`GAConfig` and a shape (H tasks, M processors) as one stacked
``(K·P, L)`` population; a solo run is a group of one.  ``evolve`` hands its
problem to :func:`repro.util.lockstep.batched`: on a job thread of a
lockstep map (:class:`repro.parallel.SerialExecutor`) the call waits until
every job of the map waits, and the waiting runs of equal config and shape
then evolve together.  Each problem keeps its own generator and makes
exactly its solo draws, so every result is bit-identical to the solo run.
"""

from __future__ import annotations

import enum
import time as _time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..telemetry import PhaseTimer
from ..util.errors import ConfigurationError
from ..util.lockstep import batched
from ..util.rng import RNGLike, ensure_rng
from ..util.validation import require_at_least, require_positive_int, require_probability
from .crossover import CrossoverOperator, crossover_from_name
from .encoding import decode_assignment, decode_queues
from .fitness import evaluate_assignments
from .kernels import VectorizedBackend
from .population import random_population, seeded_population
from .problem import BatchProblem, ProblemGroup
from .selection import SelectionOperator, selection_from_name

__all__ = ["GAConfig", "GAResult", "GAStopReason", "GeneticAlgorithm"]


class GAStopReason(enum.Enum):
    """Why the GA stopped evolving."""

    MAX_GENERATIONS = "max_generations"


#: The kernels every run evolves on.  Tests patch in the per-individual loop
#: reference (another :class:`~repro.ga.kernels.KernelBackend`) to hold whole
#: runs to it.
_KERNELS = VectorizedBackend()


@dataclass
class GAConfig:
    """Tunable parameters of the GA.

    Defaults follow the paper: a micro-GA population of 20 individuals, at
    most 1000 generations, cycle crossover, roulette-wheel selection, a single
    re-balance per individual per generation with at most five probes, and a
    list-scheduling seeded initial population.
    """

    population_size: int = 20
    max_generations: int = 1000
    crossover_rate: float = 0.8
    mutation_rate: float = 0.4
    swaps_per_mutation: int = 1
    n_rebalances: int = 1
    rebalance_probes: int = 5
    random_init_fraction: float = 0.5
    seeded_initialisation: bool = True
    elitism: int = 1
    selection: Union[str, SelectionOperator] = "roulette"
    crossover: Union[str, CrossoverOperator] = "cycle"

    def __post_init__(self) -> None:
        require_positive_int(self.population_size, "population_size")
        if self.population_size < 2:
            raise ConfigurationError("population_size must be at least 2")
        require_positive_int(self.max_generations, "max_generations")
        require_probability(self.crossover_rate, "crossover_rate")
        require_probability(self.mutation_rate, "mutation_rate")
        require_at_least(self.swaps_per_mutation, 1, "swaps_per_mutation")
        require_at_least(self.n_rebalances, 0, "n_rebalances")
        require_positive_int(self.rebalance_probes, "rebalance_probes")
        require_probability(self.random_init_fraction, "random_init_fraction")
        require_at_least(self.elitism, 0, "elitism")
        if self.elitism >= self.population_size:
            raise ConfigurationError("elitism must be smaller than the population size")
        # An unknown operator name fails here, not when a run first builds it.
        self.selection_operator()
        self.crossover_operator()

    def selection_operator(self) -> SelectionOperator:
        """The configured selection operator instance."""
        if isinstance(self.selection, SelectionOperator):
            return self.selection
        return selection_from_name(self.selection)

    def crossover_operator(self) -> CrossoverOperator:
        """The configured crossover operator instance."""
        if isinstance(self.crossover, CrossoverOperator):
            return self.crossover
        return crossover_from_name(self.crossover)


@dataclass
class GAResult:
    """Outcome of one GA run over a batch.

    ``best_queues`` translates the internal task indices back into the task
    ids of the batch, ready to be appended to the master's per-processor
    queues.

    ``stacked`` is the number of problems that evolved together in one
    stacked population (1 for a run alone).  A stacked run's
    ``wall_time_seconds`` and ``timings`` seconds are its ``1/stacked``
    share of the group's; the phase counts are its own.
    """

    best_assignment: np.ndarray
    best_queues: List[List[int]]
    best_makespan: float
    best_error: float
    best_fitness: float
    initial_best_makespan: float
    psi: float
    generations: int
    stop_reason: GAStopReason
    makespan_history: List[float]
    mean_fitness_history: List[float]
    wall_time_seconds: float
    timings: PhaseTimer = field(default_factory=PhaseTimer, repr=False)
    stacked: int = 1

    @property
    def reduction_fraction(self) -> float:
        """Fractional makespan reduction relative to the initial population's best.

        A value of 0.25 means the final makespan is 75 % of the initial best —
        the quantity plotted in the paper's Fig. 3.
        """
        if self.initial_best_makespan <= 0:
            return 0.0
        return 1.0 - self.best_makespan / self.initial_best_makespan

    def reduction_history(self) -> np.ndarray:
        """Per-generation fractional reduction relative to the initial best."""
        history = np.asarray(self.makespan_history, dtype=float)
        if self.initial_best_makespan <= 0 or history.size == 0:
            return np.zeros_like(history)
        return 1.0 - history / self.initial_best_makespan


class GeneticAlgorithm:
    """GA engine mapping one batch of tasks onto processor queues."""

    def __init__(self, config: Optional[GAConfig] = None, rng: RNGLike = None):
        self.config = config or GAConfig()
        self._rng = ensure_rng(rng)
        self._selection = self.config.selection_operator()
        self._crossover = self.config.crossover_operator()

    # -- main loop --------------------------------------------------------------------
    def evolve(self, problem: BatchProblem) -> GAResult:
        """Run the GA on *problem* and return the best schedule found."""
        result = batched(_evolve_batch, _Run(self, problem))
        # One span subtree per GA run when telemetry is on (no-op otherwise),
        # flushed from the caller's thread so it nests under the caller's span:
        # the per-phase attribution the figure-4 analysis reads from
        # ``GAResult.timings`` becomes visible to `repro telemetry` too.
        result.timings.flush(
            "ga:evolve",
            generations=result.generations,
            n_tasks=problem.n_tasks,
            stop_reason=result.stop_reason.value,
            stacked=result.stacked,
        )
        return result


class _Run(NamedTuple):
    """One ``evolve`` call: the engine (config, generator, operators) and its problem."""

    engine: GeneticAlgorithm
    problem: BatchProblem

    def stacks_with(self, other: "_Run") -> bool:
        """Whether the two runs may share one stacked population."""
        return (
            self.problem.n_tasks == other.problem.n_tasks
            and self.problem.n_processors == other.problem.n_processors
            and self.engine.config == other.engine.config
        )

    def initial_population(self) -> np.ndarray:
        cfg = self.engine.config
        if cfg.seeded_initialisation:
            return seeded_population(
                self.problem,
                cfg.population_size,
                random_fraction=cfg.random_init_fraction,
                rng=self.engine._rng,
            )
        return random_population(self.problem, cfg.population_size, rng=self.engine._rng)


def _evolve_batch(runs: Sequence[_Run]) -> List[GAResult]:
    """Evolve *runs*, each group of equal config and shape as one stacked population."""
    groups: List[List[int]] = []
    for index, run in enumerate(runs):
        for members in groups:
            if runs[members[0]].stacks_with(run):
                members.append(index)
                break
        else:
            groups.append([index])
    results: List[Optional[GAResult]] = [None] * len(runs)
    for members in groups:
        for index, result in zip(members, _evolve_group([runs[i] for i in members])):
            results[index] = result
    return results


def _evolve_group(runs: Sequence[_Run]) -> List[GAResult]:
    """The generation loop: evolve *runs* as one stacked population.

    Rows ``k·P … k·P + P − 1`` of the population are run ``k``'s; every
    per-problem quantity (best individual, histories) is a length-``K``
    array, and ``rngs[k]`` makes run ``k``'s solo draws in solo order.
    """
    lead = runs[0].engine
    cfg = lead.config
    backend, selection, crossover = _KERNELS, lead._selection, lead._crossover
    n_runs, pop = len(runs), cfg.population_size
    group = ProblemGroup([run.problem for run in runs], pop)
    rngs = [run.engine._rng for run in runs]
    row_starts = np.arange(0, n_runs * pop, pop)
    timings = PhaseTimer()
    start = _time.perf_counter()

    with timings.measure("initialisation"):
        population = np.concatenate([run.initial_population() for run in runs])

    best_chromosomes = np.empty_like(population[:n_runs])
    best_makespan = np.full(n_runs, np.inf)
    best_error = np.full(n_runs, np.inf)
    best_fitness = np.zeros(n_runs)
    initial_best: Optional[np.ndarray] = None
    # Per generation and run: the best makespan so far and the fitness sum.
    makespan_history = np.empty((cfg.max_generations, n_runs))
    fitness_sums = np.empty((cfg.max_generations, n_runs))
    generation = 0

    def keep_best(result) -> None:
        by_run = result.makespans.reshape(n_runs, pop)
        # Strictly better only, so ties keep the earlier individual.
        better = (np.minimum.reduce(by_run, axis=1) < best_makespan).nonzero()[0]
        if better.size:
            rows = row_starts[better] + by_run[better].argmin(axis=1)
            best_makespan[better] = result.makespans[rows]
            best_error[better] = result.errors[rows]
            best_fitness[better] = result.fitness[rows]
            best_chromosomes[better] = population[rows]

    while generation < cfg.max_generations:
        generation += 1

        with timings.measure("decode"):
            assignments = backend.decode(population, group)
        with timings.measure("fitness"):
            result = evaluate_assignments(assignments, group)

        # The reference point for "reduction in makespan" (Fig. 3) is the best
        # individual of the initial population before any re-balancing.
        if initial_best is None:
            initial_best = result.makespans.reshape(n_runs, pop).min(axis=1)

        # Track the best individual seen before re-balancing too, so the
        # returned schedule is never worse than any individual evaluated.
        keep_best(result)

        # Re-balancing heuristic (Sect. 3.5): applied to every individual.
        # With no swap accepted the population, and so its evaluation, is
        # unchanged.
        if cfg.n_rebalances > 0:
            with timings.measure("rebalance"):
                accepted = backend.rebalance(
                    population,
                    assignments,
                    result.completions.copy(),
                    group,
                    cfg.n_rebalances,
                    rngs,
                    cfg.rebalance_probes,
                )
            if accepted:
                with timings.measure("fitness"):
                    result = evaluate_assignments(assignments, group)
                # Track the best individual by makespan (Sect. 3.4).
                keep_best(result)

        makespan_history[generation - 1] = best_makespan
        fitness_rows = result.fitness.reshape(n_runs, pop)
        np.add.reduce(fitness_rows, axis=1, out=fitness_sums[generation - 1])

        if generation >= cfg.max_generations:
            break

        # -- next generation --------------------------------------------------------
        with timings.measure("selection"):
            parents = population[selection.select_rows(fitness_rows, rngs)]

        with timings.measure("crossover"):
            children = backend.crossover(parents, crossover, cfg.crossover_rate, rngs)

        with timings.measure("mutation"):
            children = backend.mutate(children, cfg.mutation_rate, cfg.swaps_per_mutation, rngs)

        # Elitism: re-insert the best chromosome(s) found so far, into the
        # first rows of each problem's population.
        for slot in range(cfg.elitism):
            children[slot::pop] = best_chromosomes
        population = children

    assert initial_best is not None
    wall_share = (_time.perf_counter() - start) / n_runs
    makespans_by_run = makespan_history[:generation].T.tolist()
    # sum / n is the arithmetic of ndarray.mean, without its overhead.
    mean_fitness_by_run = (fitness_sums[:generation] / pop).T.tolist()
    results = []
    for k, run in enumerate(runs):
        problem = run.problem
        chromosome = best_chromosomes[k]
        queues_by_index = decode_queues(chromosome, problem.n_processors)
        results.append(
            GAResult(
                best_assignment=decode_assignment(
                    chromosome, problem.n_tasks, problem.n_processors
                ),
                best_queues=[
                    [int(problem.task_ids[task_index]) for task_index in queue]
                    for queue in queues_by_index
                ],
                best_makespan=float(best_makespan[k]),
                best_error=float(best_error[k]),
                best_fitness=float(best_fitness[k]),
                initial_best_makespan=float(initial_best[k]),
                psi=problem.optimal_time(),
                generations=generation,
                stop_reason=GAStopReason.MAX_GENERATIONS,
                makespan_history=makespans_by_run[k],
                mean_fitness_history=mean_fitness_by_run[k],
                wall_time_seconds=wall_share,
                timings=_share(timings, n_runs),
                stacked=n_runs,
            )
        )
    return results


def _share(timings: PhaseTimer, n_runs: int) -> PhaseTimer:
    """One run's share of a group's phase timer: ``1/n_runs`` of each phase's seconds."""
    share = PhaseTimer()
    share.totals = {phase: seconds / n_runs for phase, seconds in timings.totals.items()}
    share.counts = dict(timings.counts)
    return share
