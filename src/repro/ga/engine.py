"""The genetic-algorithm engine (Fig. 1 and Sect. 3.3–3.5 of the paper).

One :class:`GeneticAlgorithm` run maps a single batch of tasks onto processor
queues.  Each generation performs, in order:

1. fitness evaluation of the current population (relative error vs ψ);
2. the re-balancing heuristic on every individual (``n_rebalances`` times,
   accepted only when the schedule's error improves);
3. bookkeeping of the best individual (lowest makespan) and the stopping
   tests (target makespan reached, external stop signal such as "a processor
   is about to become idle", generation limit, wall-clock limit);
4. construction of the next generation by roulette-wheel selection, cycle
   crossover and random swap mutation, with elitism re-inserting the best
   individual found so far.

The population-level work of each generation — decoding, re-balancing,
crossover and mutation — is delegated to a pluggable kernel backend
(:mod:`repro.ga.kernels`): ``"vectorized"`` (the default) batches every
operator over the whole population matrix with NumPy, ``"loop"`` is the
per-individual reference implementation.  Both follow the same RNG
draw-order contract, so for a fixed seed they evolve bit-identical
populations wherever the operators are deterministic given their draws
(cycle crossover, swap mutation); the re-balancing heuristic's draws are
value-dependent and match in distribution instead.
"""

from __future__ import annotations

import enum
import time as _time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from ..telemetry import PhaseTimer
from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, ensure_rng
from ..util.validation import (
    require_at_least,
    require_non_negative,
    require_positive_int,
    require_probability,
)
from .crossover import CrossoverOperator, crossover_from_name
from .encoding import decode_assignment, decode_queues
from .fitness import evaluate_assignments
from .kernels import BACKEND_NAMES, KernelBackend, backend_from_name
from .population import random_population, seeded_population
from .problem import BatchProblem
from .selection import SelectionOperator, selection_from_name

__all__ = ["GAConfig", "GAResult", "GAStopReason", "GeneticAlgorithm"]


class GAStopReason(enum.Enum):
    """Why the GA stopped evolving."""

    MAX_GENERATIONS = "max_generations"
    TARGET_MAKESPAN = "target_makespan"
    EXTERNAL_STOP = "external_stop"
    TIME_LIMIT = "time_limit"


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
    target_makespan: Optional[float] = None
    time_limit_seconds: Optional[float] = None
    selection: Union[str, SelectionOperator] = "roulette"
    crossover: Union[str, CrossoverOperator] = "cycle"
    #: Kernel backend driving the per-generation population transforms:
    #: ``"vectorized"`` (whole-population NumPy kernels, the default) or
    #: ``"loop"`` (the per-individual reference implementation).  See
    #: :mod:`repro.ga.kernels` for the RNG draw-order contract relating them.
    backend: str = "vectorized"

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
        if self.target_makespan is not None:
            require_non_negative(self.target_makespan, "target_makespan")
        if self.time_limit_seconds is not None:
            require_non_negative(self.time_limit_seconds, "time_limit_seconds")
        if not isinstance(self.backend, str) or self.backend.strip().lower() not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown GA backend {self.backend!r}; expected one of {sorted(BACKEND_NAMES)}"
            )

    def kernel_backend(self) -> KernelBackend:
        """The configured kernel backend instance."""
        return backend_from_name(self.backend)

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
        self._backend = self.config.kernel_backend()

    @property
    def backend(self) -> KernelBackend:
        """The kernel backend driving this engine's population transforms."""
        return self._backend

    # -- population helpers ---------------------------------------------------------
    def _initial_population(self, problem: BatchProblem) -> np.ndarray:
        if self.config.seeded_initialisation:
            return seeded_population(
                problem,
                self.config.population_size,
                random_fraction=self.config.random_init_fraction,
                rng=self._rng,
            )
        return random_population(problem, self.config.population_size, rng=self._rng)

    # -- main loop --------------------------------------------------------------------
    def evolve(
        self,
        problem: BatchProblem,
        stop_callback: Optional[Callable[[int, float], bool]] = None,
    ) -> GAResult:
        """Run the GA on *problem* and return the best schedule found.

        Parameters
        ----------
        problem:
            The batch problem to map.
        stop_callback:
            Optional predicate ``f(generation, elapsed_seconds) -> bool``; when
            it returns True the GA stops and returns the best schedule found so
            far.  The simulator uses this to emulate the paper's "stop when a
            processor becomes idle" condition.
        """
        cfg = self.config
        timings = PhaseTimer()
        start = _time.perf_counter()

        with timings.measure("initialisation"):
            population = self._initial_population(problem)

        best_chromosome: Optional[np.ndarray] = None
        best_makespan = np.inf
        best_error = np.inf
        best_fitness = 0.0
        initial_best: Optional[float] = None
        makespan_history: List[float] = []
        mean_fitness_history: List[float] = []
        stop_reason = GAStopReason.MAX_GENERATIONS
        generation = 0

        while generation < cfg.max_generations:
            generation += 1

            with timings.measure("decode"):
                assignments = self._backend.decode(population, problem)
            with timings.measure("fitness"):
                result = evaluate_assignments(assignments, problem)

            # The reference point for "reduction in makespan" (Fig. 3) is the best
            # individual of the initial population before any re-balancing.
            if initial_best is None:
                initial_best = float(result.makespans[result.best_index])

            # Track the best individual seen before re-balancing too, so the
            # returned schedule is never worse than any individual evaluated.
            pre_best = result.best_index
            if result.makespans[pre_best] < best_makespan:
                best_makespan = float(result.makespans[pre_best])
                best_error = float(result.errors[pre_best])
                best_fitness = float(result.fitness[pre_best])
                best_chromosome = population[pre_best].copy()

            # Re-balancing heuristic (Sect. 3.5): applied to every individual.
            if cfg.n_rebalances > 0:
                with timings.measure("rebalance"):
                    self._backend.rebalance(
                        population,
                        assignments,
                        result.completions.copy(),
                        problem,
                        cfg.n_rebalances,
                        self._rng,
                        cfg.rebalance_probes,
                    )
                with timings.measure("fitness"):
                    result = evaluate_assignments(assignments, problem)

            # Track the best individual by makespan (Sect. 3.4).
            gen_best = result.best_index
            if result.makespans[gen_best] < best_makespan:
                best_makespan = float(result.makespans[gen_best])
                best_error = float(result.errors[gen_best])
                best_fitness = float(result.fitness[gen_best])
                best_chromosome = population[gen_best].copy()
            makespan_history.append(best_makespan)
            # sum / n is the arithmetic of ndarray.mean, without its overhead.
            mean_fitness_history.append(float(result.fitness.sum()) / cfg.population_size)

            elapsed = _time.perf_counter() - start

            # -- stopping conditions (Sect. 3.4) --------------------------------------
            if cfg.target_makespan is not None and best_makespan <= cfg.target_makespan:
                stop_reason = GAStopReason.TARGET_MAKESPAN
                break
            if stop_callback is not None and stop_callback(generation, elapsed):
                stop_reason = GAStopReason.EXTERNAL_STOP
                break
            if cfg.time_limit_seconds is not None and elapsed >= cfg.time_limit_seconds:
                stop_reason = GAStopReason.TIME_LIMIT
                break
            if generation >= cfg.max_generations:
                stop_reason = GAStopReason.MAX_GENERATIONS
                break

            # -- next generation --------------------------------------------------------
            with timings.measure("selection"):
                parent_indices = self._selection.select(
                    result.fitness, cfg.population_size, rng=self._rng
                )
                parents = population[parent_indices]

            with timings.measure("crossover"):
                children = self._backend.crossover(
                    parents, self._crossover, cfg.crossover_rate, self._rng
                )

            with timings.measure("mutation"):
                children = self._backend.mutate(
                    children, cfg.mutation_rate, cfg.swaps_per_mutation, self._rng
                )

            # Elitism: re-insert the best chromosome(s) found so far.
            if cfg.elitism > 0 and best_chromosome is not None:
                for slot in range(cfg.elitism):
                    children[slot] = best_chromosome

            population = children

        assert best_chromosome is not None and initial_best is not None
        # One span subtree per GA run when telemetry is on (no-op otherwise):
        # the per-phase attribution the figure-4 analysis reads from
        # ``GAResult.timings`` becomes visible to `repro telemetry` too.
        timings.flush(
            "ga:evolve",
            generations=generation,
            n_tasks=problem.n_tasks,
            stop_reason=stop_reason.value,
        )
        best_assignment = decode_assignment(
            best_chromosome, problem.n_tasks, problem.n_processors
        )
        queues_by_index = decode_queues(best_chromosome, problem.n_processors)
        best_queues = [
            [int(problem.task_ids[task_index]) for task_index in queue]
            for queue in queues_by_index
        ]
        return GAResult(
            best_assignment=best_assignment,
            best_queues=best_queues,
            best_makespan=best_makespan,
            best_error=best_error,
            best_fitness=best_fitness,
            initial_best_makespan=initial_best,
            psi=problem.optimal_time(),
            generations=generation,
            stop_reason=stop_reason,
            makespan_history=makespan_history,
            mean_fitness_history=mean_fitness_history,
            wall_time_seconds=_time.perf_counter() - start,
            timings=timings,
        )
