"""Differential test: GA runs evolved as one stacked population equal their solo runs.

A serial ``map`` lets the GA runs of its jobs evolve together: runs of equal
config and shape become one ``(K·P, L)`` population, each problem drawing
from its own generator in its solo order.  Every stacked run must therefore
reproduce its solo run exactly — best schedule, queues, both histories, stop
reason — and leave its generator in the same state.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ga import BatchProblem, GAConfig, GeneticAlgorithm
from repro.parallel import LOCKSTEP_WIDTH, SerialExecutor

#: (H tasks, M processors): one task, one processor, the paper's 50 processors.
SHAPES = [(1, 3), (2, 2), (7, 1), (10, 10), (4, 50), (1, 1)]


def _problem(seed, n_tasks, n_procs):
    rng = np.random.default_rng(seed)
    return BatchProblem(
        task_ids=np.arange(n_tasks) + 100,
        sizes=rng.uniform(1.0, 1000.0, n_tasks),
        rates=rng.uniform(10.0, 500.0, n_procs),
        pending_loads=rng.uniform(0.0, 500.0, n_procs),
        comm_costs=rng.uniform(0.0, 2.0, n_procs),
    )


def _evolve(job):
    config, (n_tasks, n_procs), seed = job
    rng = np.random.default_rng(seed)
    result = GeneticAlgorithm(config, rng=rng).evolve(_problem(seed, n_tasks, n_procs))
    return result, rng.bit_generator.state


@st.composite
def configs(draw):
    population = draw(st.sampled_from([2, 3, 7, 20]))
    return GAConfig(
        population_size=population,
        max_generations=draw(st.integers(min_value=1, max_value=5)),
        n_rebalances=draw(st.sampled_from([0, 1, 50])),
        elitism=draw(st.sampled_from([e for e in (0, 1, 2) if e < population])),
        selection=draw(st.sampled_from(["roulette", "tournament", "rank"])),
        crossover=draw(st.sampled_from(["cycle", "pmx", "order"])),
        seeded_initialisation=draw(st.booleans()),
    )


@st.composite
def groups(draw):
    """Jobs drawn from one or two (config, shape) kinds, so some runs stack
    and, when the kinds differ, the group mixes shapes and configs."""
    kinds = draw(st.lists(st.tuples(configs(), st.sampled_from(SHAPES)), min_size=1, max_size=2))
    picks = draw(st.lists(st.integers(0, len(kinds) - 1), min_size=2, max_size=6))
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=len(picks), max_size=len(picks)))
    return [(*kinds[k], seed) for k, seed in zip(picks, seeds)]


@given(jobs=groups())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_stacked_runs_equal_solo_runs(jobs):
    stacked = SerialExecutor().map(_evolve, jobs)
    for job, (result, state) in zip(jobs, stacked):
        solo, solo_state = _evolve(job)
        assert solo.stacked == 1
        assert np.array_equal(result.best_assignment, solo.best_assignment)
        assert result.best_queues == solo.best_queues
        assert result.makespan_history == solo.makespan_history
        assert result.mean_fitness_history == solo.mean_fitness_history
        assert result.stop_reason == solo.stop_reason
        assert result.best_makespan == solo.best_makespan
        assert result.initial_best_makespan == solo.initial_best_makespan
        assert state == solo_state
    # The first wave of jobs (the executor's width) all wait at once, so
    # runs of one kind among them stack.
    first = jobs[0][:2]
    peers = sum(1 for job in jobs[:LOCKSTEP_WIDTH] if job[:2] == first)
    assert stacked[0][0].stacked == peers


def test_runs_that_can_stop_early_evolve_alone():
    base = GAConfig(population_size=6, max_generations=3)
    configs_ = [
        GAConfig(population_size=6, max_generations=3, time_limit_seconds=60.0),
        GAConfig(population_size=6, max_generations=3, target_makespan=0.0),
        GAConfig(population_size=6, max_generations=3, backend="loop"),
    ]
    for config in configs_:
        jobs = [(config, (5, 3), seed) for seed in range(3)]
        assert [r.stacked for r, _ in SerialExecutor().map(_evolve, jobs)] == [1, 1, 1]
    jobs = [(base, (5, 3), seed) for seed in range(3)]
    assert [r.stacked for r, _ in SerialExecutor().map(_evolve, jobs)] == [3, 3, 3]
