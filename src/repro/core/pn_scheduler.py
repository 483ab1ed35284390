"""PN: the paper's dynamic GA scheduler for heterogeneous distributed systems.

The :class:`PNScheduler` assembles every ingredient described in Sect. 3 of
the paper:

* batches of queued tasks are mapped onto per-processor queues by a genetic
  algorithm (micro-GA population of 20, roulette-wheel selection, cycle
  crossover, random swap mutation) whose fitness is the relative error
  against the theoretical optimum ψ;
* the GA's initial population is seeded with the list-scheduling heuristic;
* a re-balancing heuristic is applied to every individual in every
  generation (a single re-balance by default, as chosen in Sect. 3.5);
* per-link communication costs are *predicted* from Γ-smoothed historical
  observations and included in the fitness function;
* the batch size adapts dynamically to the estimated time until the first
  processor becomes idle (``H = floor(sqrt(Γ_s + 1))``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..ga.engine import GAConfig, GAResult, GeneticAlgorithm
from ..ga.problem import BatchProblem
from ..schedulers.base import BatchScheduler, ScheduleAssignment, SchedulingContext
from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, ensure_rng
from ..util.smoothing import NU, SmoothedMap
from ..workloads.task import Task
from .batching import DynamicBatchSizer, FixedBatchSizer
from .comm_estimator import CommCostEstimator

__all__ = ["PNScheduler", "default_pn_ga_config"]


def default_pn_ga_config(max_generations: int = 1000) -> GAConfig:
    """GA parameters used by the PN scheduler (paper defaults).

    Population of 20 (micro-GA), at most 1000 generations, one re-balance per
    individual per generation with at most five probes, list-scheduling
    seeded initial population.
    """
    return GAConfig(
        population_size=20,
        max_generations=max_generations,
        crossover_rate=0.8,
        mutation_rate=0.4,
        n_rebalances=1,
        rebalance_probes=5,
        seeded_initialisation=True,
        random_init_fraction=0.5,
        elitism=1,
        selection="roulette",
        crossover="cycle",
    )


class PNScheduler(BatchScheduler):
    """The paper's dynamic GA scheduler (labelled **PN** in its figures).

    Parameters
    ----------
    n_processors:
        Number of processors in the system; needed up front so that the
        communication estimator and rate smoother can be sized before the
        first scheduling call.
    ga_config:
        GA parameters; defaults to :func:`default_pn_ga_config`.
    batch_sizer:
        Batch-size policy.  Defaults to the paper's dynamic rule
        (:class:`~repro.core.batching.DynamicBatchSizer`); pass a
        :class:`~repro.core.batching.FixedBatchSizer` to reproduce the fixed
        batch-size experiments.
    rng:
        Randomness source for the GA.

    The communication-cost and processor-rate estimators smooth with the
    paper's Γ function (Sect. 3.6) at ν = :data:`~repro.util.smoothing.NU`,
    as the master's do.
    """

    name = "PN"

    def __init__(
        self,
        n_processors: int,
        *,
        ga_config: Optional[GAConfig] = None,
        batch_sizer: Optional[Union[DynamicBatchSizer, FixedBatchSizer]] = None,
        rng: RNGLike = None,
    ):
        super().__init__(batch_size=None)
        if n_processors <= 0:
            raise ConfigurationError(f"n_processors must be positive, got {n_processors}")
        self.n_processors = int(n_processors)
        self.ga_config = ga_config or default_pn_ga_config()
        self.batch_sizer = batch_sizer or DynamicBatchSizer(
            min_batch=10, max_batch=500, initial_batch=200
        )
        self.comm_estimator = CommCostEstimator(self.n_processors, nu=NU)
        self._rate_estimates = SmoothedMap(nu=NU)
        self._rng = ensure_rng(rng)
        #: GA result of the most recent batch (``None`` before the first batch).
        self.last_result: Optional[GAResult] = None
        #: Batches scheduled so far, and the GA generations they took.
        self.batches = 0
        self._generations = 0

    # -- batch sizing -------------------------------------------------------------------
    def preferred_batch_size(self, ctx: SchedulingContext, n_queued: int) -> int:
        """The paper's dynamic batch size, capped by the number of queued tasks."""
        if n_queued <= 0:
            return 0
        # Estimate the time until the first processor becomes idle from the
        # context and fold it into the Γ estimate driving the batch size.
        self.batch_sizer.observe_queue_state(ctx.pending_loads, self._effective_rates(ctx))
        return max(1, self.batch_sizer.next_batch_size(n_queued))

    # -- estimates ----------------------------------------------------------------------
    def _effective_rates(self, ctx: SchedulingContext) -> np.ndarray:
        """Processor rates used by the GA: smoothed observations, else the context's."""
        rates = np.array(
            [
                self._rate_estimates.get(p, default=float(ctx.rates[p]))
                for p in range(self.n_processors)
            ],
            dtype=float,
        )
        return np.maximum(rates, 1e-9)

    def _effective_comm_costs(self, ctx: SchedulingContext) -> np.ndarray:
        """Per-link communication estimates: observed history, else the context's."""
        estimates = self.comm_estimator.estimates()
        counts = self.comm_estimator.observation_counts()
        # Fall back to the context's estimate for links never observed.
        return np.where(counts > 0, estimates, ctx.comm_costs)

    # -- scheduling ----------------------------------------------------------------------
    def schedule(self, tasks: Sequence[Task], ctx: SchedulingContext) -> ScheduleAssignment:
        if ctx.n_processors != self.n_processors:
            raise ConfigurationError(
                f"context has {ctx.n_processors} processors but the scheduler was "
                f"configured for {self.n_processors}"
            )
        if not tasks:
            return ScheduleAssignment.empty(self.n_processors)

        problem = BatchProblem.from_tasks(
            tasks,
            rates=self._effective_rates(ctx),
            pending_loads=ctx.pending_loads,
            comm_costs=self._effective_comm_costs(ctx),
        )
        engine = GeneticAlgorithm(self.ga_config, rng=self._rng)
        result = engine.evolve(problem)
        self.last_result = result
        self.batches += 1
        self._generations += result.generations
        return ScheduleAssignment(result.best_queues)

    # -- feedback hooks -------------------------------------------------------------------
    def observe_communication(self, proc: int, cost: float, time: float) -> None:
        """Fold an observed dispatch cost into the per-link Γ estimate."""
        self.comm_estimator.observe(proc, cost)

    def observe_completion(
        self, proc: int, task: Task, processing_time: float, time: float
    ) -> None:
        """Fold an observed effective execution rate into the per-processor Γ estimate."""
        if processing_time > 0:
            observed_rate = task.size_mflops / processing_time
            self._rate_estimates.update(proc, observed_rate)

    def reset(self) -> None:
        """Forget learned estimates and scheduling history."""
        self.comm_estimator.reset()
        self._rate_estimates.reset()
        self.batch_sizer.reset()
        self.last_result = None
        self.batches = 0
        self._generations = 0

    # -- introspection ----------------------------------------------------------------------
    def total_generations(self) -> int:
        """Total GA generations run across all batches scheduled so far."""
        return self._generations
