"""Tests for population seeding and the GA engine."""

import numpy as np
import pytest

from repro.ga import (
    BatchProblem,
    GAConfig,
    GAResult,
    GAStopReason,
    GeneticAlgorithm,
    evaluate_assignments,
    decode_assignment,
    list_scheduled_assignment,
    random_population,
    seeded_individual,
    seeded_population,
    validate_chromosome,
)
from repro.util.errors import ConfigurationError


class TestListScheduledAssignment:
    def test_fully_greedy_is_well_balanced(self, small_problem):
        assignment = list_scheduled_assignment(small_problem, random_fraction=0.0, rng=0)
        result = evaluate_assignments(assignment, small_problem)
        random_assignment = np.random.default_rng(0).integers(
            0, small_problem.n_processors, small_problem.n_tasks
        )
        random_result = evaluate_assignments(random_assignment, small_problem)
        assert result.makespans[0] <= random_result.makespans[0]

    def test_every_task_assigned(self, small_problem):
        assignment = list_scheduled_assignment(small_problem, 0.5, rng=1)
        assert assignment.shape == (small_problem.n_tasks,)
        assert assignment.min() >= 0 and assignment.max() < small_problem.n_processors

    def test_fully_random_uses_all_processors_eventually(self, small_problem):
        seen = set()
        for seed in range(10):
            seen.update(list_scheduled_assignment(small_problem, 1.0, rng=seed).tolist())
        assert seen == set(range(small_problem.n_processors))

    def test_invalid_fraction_rejected(self, small_problem):
        with pytest.raises(ConfigurationError):
            list_scheduled_assignment(small_problem, 1.5, rng=0)


class TestPopulations:
    def test_seeded_individual_is_valid(self, small_problem):
        chrom = seeded_individual(small_problem, 0.5, rng=0)
        validate_chromosome(chrom, small_problem.n_tasks, small_problem.n_processors)

    def test_seeded_population_shape(self, small_problem):
        pop = seeded_population(small_problem, 10, rng=0)
        assert pop.shape == (10, small_problem.n_tasks + small_problem.n_processors - 1)
        for chrom in pop:
            validate_chromosome(chrom, small_problem.n_tasks, small_problem.n_processors)

    def test_seeded_population_diverse(self, small_problem):
        pop = seeded_population(small_problem, 10, rng=0)
        assert len({tuple(c) for c in pop}) > 1

    def test_seeded_better_than_random_on_average(self, small_problem):
        seeded = seeded_population(small_problem, 12, random_fraction=0.3, rng=0)
        random_pop = random_population(small_problem, 12, rng=0)

        def mean_makespan(pop):
            assignments = np.vstack(
                [
                    decode_assignment(c, small_problem.n_tasks, small_problem.n_processors)
                    for c in pop
                ]
            )
            return evaluate_assignments(assignments, small_problem).makespans.mean()

        assert mean_makespan(seeded) < mean_makespan(random_pop)

    def test_random_population_valid(self, small_problem):
        pop = random_population(small_problem, 6, rng=0)
        for chrom in pop:
            validate_chromosome(chrom, small_problem.n_tasks, small_problem.n_processors)

    def test_population_size_validation(self, small_problem):
        with pytest.raises(ConfigurationError):
            seeded_population(small_problem, 0, rng=0)


class TestGAConfig:
    def test_defaults_follow_paper(self):
        cfg = GAConfig()
        assert cfg.population_size == 20
        assert cfg.max_generations == 1000
        assert cfg.n_rebalances == 1
        assert cfg.rebalance_probes == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(population_size=1),
            dict(crossover_rate=1.5),
            dict(mutation_rate=-0.1),
            dict(n_rebalances=-1),
            dict(elitism=20, population_size=20),
            dict(max_generations=0),
            dict(target_makespan=-1.0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GAConfig(**kwargs)

    def test_operator_construction(self):
        cfg = GAConfig(selection="tournament", crossover="pmx")
        assert cfg.selection_operator().name == "tournament"
        assert cfg.crossover_operator().name == "pmx"


def quick_config(**overrides):
    defaults = dict(population_size=10, max_generations=15, n_rebalances=1)
    defaults.update(overrides)
    return GAConfig(**defaults)


class TestGeneticAlgorithm:
    def test_returns_valid_schedule(self, small_problem):
        result = GeneticAlgorithm(quick_config(), rng=0).evolve(small_problem)
        assert isinstance(result, GAResult)
        assert result.best_assignment.shape == (small_problem.n_tasks,)
        # every task id appears exactly once across the queues
        all_ids = sorted(tid for queue in result.best_queues for tid in queue)
        assert all_ids == sorted(small_problem.task_ids.tolist())

    def test_best_makespan_matches_assignment(self, small_problem):
        result = GeneticAlgorithm(quick_config(), rng=0).evolve(small_problem)
        recomputed = evaluate_assignments(result.best_assignment, small_problem)
        assert result.best_makespan == pytest.approx(recomputed.makespans[0])

    def test_history_is_monotone_non_increasing(self, small_problem):
        result = GeneticAlgorithm(quick_config(max_generations=25), rng=0).evolve(small_problem)
        history = np.asarray(result.makespan_history)
        assert np.all(np.diff(history) <= 1e-9)

    def test_deterministic_given_seed(self, small_problem):
        a = GeneticAlgorithm(quick_config(), rng=42).evolve(small_problem)
        b = GeneticAlgorithm(quick_config(), rng=42).evolve(small_problem)
        assert a.best_makespan == pytest.approx(b.best_makespan)
        assert np.array_equal(a.best_assignment, b.best_assignment)

    def test_stops_at_max_generations(self, small_problem):
        result = GeneticAlgorithm(quick_config(max_generations=7), rng=0).evolve(small_problem)
        assert result.generations == 7
        assert result.stop_reason is GAStopReason.MAX_GENERATIONS

    def test_target_makespan_stops_early(self, small_problem):
        result = GeneticAlgorithm(
            quick_config(target_makespan=1e9, max_generations=50), rng=0
        ).evolve(small_problem)
        assert result.generations == 1
        assert result.stop_reason is GAStopReason.TARGET_MAKESPAN

    def test_external_stop_callback(self, small_problem):
        result = GeneticAlgorithm(quick_config(max_generations=100), rng=0).evolve(
            small_problem, stop_callback=lambda gen, elapsed: gen >= 3
        )
        assert result.generations == 3
        assert result.stop_reason is GAStopReason.EXTERNAL_STOP

    def test_time_limit_stops(self, small_problem):
        result = GeneticAlgorithm(
            quick_config(max_generations=10_000, time_limit_seconds=0.05), rng=0
        ).evolve(small_problem)
        assert result.stop_reason is GAStopReason.TIME_LIMIT
        assert result.wall_time_seconds >= 0.05

    def test_ga_improves_over_random_initialisation(self, small_problem):
        config = quick_config(
            max_generations=40, seeded_initialisation=True, random_init_fraction=1.0
        )
        result = GeneticAlgorithm(config, rng=1).evolve(small_problem)
        assert result.best_makespan <= result.initial_best_makespan
        assert 0.0 <= result.reduction_fraction <= 1.0

    def test_rebalancing_helps_or_matches_pure_ga(self, small_problem):
        pure = GeneticAlgorithm(
            quick_config(n_rebalances=0, max_generations=30, random_init_fraction=1.0), rng=3
        ).evolve(small_problem)
        rebalanced = GeneticAlgorithm(
            quick_config(n_rebalances=1, max_generations=30, random_init_fraction=1.0), rng=3
        ).evolve(small_problem)
        assert rebalanced.best_makespan <= pure.best_makespan * 1.05

    def test_zero_elitism_allowed(self, small_problem):
        result = GeneticAlgorithm(quick_config(elitism=0), rng=0).evolve(small_problem)
        assert result.best_makespan > 0

    def test_reduction_history_shape(self, small_problem):
        result = GeneticAlgorithm(quick_config(max_generations=12), rng=0).evolve(small_problem)
        history = result.reduction_history()
        assert history.shape == (12,)
        assert np.all(history >= -1e-9)

    def test_timings_recorded(self, small_problem):
        result = GeneticAlgorithm(quick_config(), rng=0).evolve(small_problem)
        assert result.timings.total("fitness") > 0
        assert result.timings.total("selection") > 0

    def test_each_phase_timed_under_its_own_name(self, small_problem):
        """The post-rebalance evaluation counts as fitness, not rebalance."""
        plain = GeneticAlgorithm(
            quick_config(max_generations=6, n_rebalances=0), rng=0
        ).evolve(small_problem)
        assert plain.timings.total("rebalance") == 0.0
        assert plain.timings.count("rebalance") == 0
        assert plain.timings.count("fitness") == plain.generations

        rebalanced = GeneticAlgorithm(
            quick_config(max_generations=6, n_rebalances=2), rng=0
        ).evolve(small_problem)
        assert rebalanced.timings.count("rebalance") == rebalanced.generations
        assert rebalanced.timings.count("fitness") == 2 * rebalanced.generations

    def test_single_processor_problem(self):
        problem = BatchProblem(
            task_ids=np.arange(5),
            sizes=np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
            rates=np.array([10.0]),
            pending_loads=np.zeros(1),
            comm_costs=np.zeros(1),
        )
        result = GeneticAlgorithm(quick_config(max_generations=5), rng=0).evolve(problem)
        assert result.best_makespan == pytest.approx(15.0)

    def test_single_task_problem(self, small_cluster):
        problem = BatchProblem(
            task_ids=np.array([0]),
            sizes=np.array([100.0]),
            rates=small_cluster.current_rates(0.0),
            pending_loads=np.zeros(4),
            comm_costs=np.zeros(4),
        )
        result = GeneticAlgorithm(quick_config(max_generations=5), rng=0).evolve(problem)
        assert result.best_makespan > 0
        assert sum(len(q) for q in result.best_queues) == 1
