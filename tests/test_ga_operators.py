"""Tests for selection, crossover and mutation operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import (
    BatchProblem,
    CycleCrossover,
    OrderCrossover,
    PartiallyMappedCrossover,
    RankSelection,
    RouletteWheelSelection,
    TournamentSelection,
    completion_times,
    crossover_from_name,
    evaluate_assignments,
    find_cycles,
    random_chromosome,
    rebalance_assignment,
    rebalance_many,
    roulette_probabilities,
    selection_from_name,
    swap_mutation,
    validate_chromosome,
)
from repro.util.errors import ConfigurationError, EncodingError


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

class TestRouletteProbabilities:
    def test_proportional_to_fitness(self):
        probs = roulette_probabilities(np.array([1.0, 3.0]))
        assert probs == pytest.approx([0.25, 0.75])
        assert probs.sum() == pytest.approx(1.0)

    def test_all_zero_falls_back_to_uniform(self):
        probs = roulette_probabilities(np.zeros(4))
        assert probs == pytest.approx([0.25] * 4)

    def test_non_finite_entries_ignored(self):
        probs = roulette_probabilities(np.array([np.inf, 1.0]))
        assert probs == pytest.approx([0.0, 1.0])

    @pytest.mark.parametrize(
        "fitness, expected",
        [
            ([1e308] * 5, [0.2] * 5),
            ([1e308, 1e308, 1.0, 1.0], [0.5, 0.5, 5e-309, 5e-309]),
            # Non-finite and non-positive slots are dropped before the sum.
            ([np.inf, 1e308, 1e308], [0.0, 0.5, 0.5]),
            ([1e308, 0.0, -1.0, 1e308], [0.5, 0.0, 0.0, 0.5]),
        ],
    )
    def test_overflowing_total_stays_proportional(self, fitness, expected):
        # Finite slots whose sum overflows to inf: the wheel must still be
        # proportional to fitness, alone and stacked over a finite row.
        with np.errstate(over="ignore"):
            probs = roulette_probabilities(np.array(fitness))
            stacked = roulette_probabilities(np.array([fitness, [1.0] * len(fitness)]))
        assert probs.tolist() == expected
        assert stacked[0].tolist() == expected
        assert stacked[1].tolist() == [1.0 / len(fitness)] * len(fitness)
        with np.errstate(over="ignore"):
            picks = RouletteWheelSelection().select(np.array(fitness), 400, rng=0)
        # Every spin used to land on index 0; now each heavy slot takes ~1/k.
        heavy = np.array(fitness) == 1e308
        counts = np.bincount(picks, minlength=len(fitness))
        assert (counts[heavy] > 400 / heavy.sum() / 2).all()

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            roulette_probabilities(np.array([]))


class TestSelectionOperators:
    def test_roulette_prefers_fitter_individuals(self):
        fitness = np.array([0.01, 0.01, 10.0, 0.01])
        selected = RouletteWheelSelection().select(fitness, 2000, rng=0)
        counts = np.bincount(selected, minlength=4)
        assert counts[2] > 0.8 * 2000

    def test_roulette_returns_requested_count(self):
        out = RouletteWheelSelection().select(np.ones(5), 13, rng=0)
        assert out.shape == (13,)
        assert np.all((out >= 0) & (out < 5))

    def test_roulette_deterministic_with_seed(self):
        fitness = np.array([1.0, 2.0, 3.0])
        a = RouletteWheelSelection().select(fitness, 10, rng=9)
        b = RouletteWheelSelection().select(fitness, 10, rng=9)
        assert np.array_equal(a, b)

    def test_tournament_prefers_fitter(self):
        fitness = np.array([0.1, 5.0, 0.2])
        selected = TournamentSelection(tournament_size=3).select(fitness, 600, rng=0)
        counts = np.bincount(selected, minlength=3)
        # contenders are drawn with replacement, so the best does not win every
        # tournament, but it must dominate clearly
        assert counts[1] > counts[0] and counts[1] > counts[2]
        assert counts[1] > 0.55 * 600

    def test_tournament_size_validation(self):
        with pytest.raises(ConfigurationError):
            TournamentSelection(tournament_size=0)

    def test_rank_selection_insensitive_to_scale(self):
        small = RankSelection().select(np.array([1.0, 2.0, 3.0]), 3000, rng=0)
        large = RankSelection().select(np.array([10.0, 20.0, 30.0]), 3000, rng=0)
        assert np.allclose(
            np.bincount(small, minlength=3) / 3000,
            np.bincount(large, minlength=3) / 3000,
            atol=0.05,
        )

    @pytest.mark.parametrize("name", ["roulette", "tournament", "rank"])
    @pytest.mark.parametrize("n_problems", [1, 3])
    def test_select_rows_selects_each_row_like_select(self, name, n_problems):
        """Stacked rows draw what ``select`` draws per row, as stacked row
        indices, degenerate rows (all zero, non-finite) included."""
        fitness = np.array(
            [[0.5, 1.5, 3.0, 0.25], [0.0, 0.0, 0.0, 0.0], [np.inf, np.nan, -1.0, 2.0]]
        )[:n_problems]
        operator = selection_from_name(name)
        got = operator.select_rows(
            fitness, [np.random.default_rng(seed) for seed in range(n_problems)]
        )
        expected = [
            operator.select(row, 4, rng=np.random.default_rng(seed)) + 4 * seed
            for seed, row in enumerate(fitness)
        ]
        assert np.array_equal(got, np.concatenate(expected))

    def test_factory(self):
        assert isinstance(selection_from_name("roulette"), RouletteWheelSelection)
        assert isinstance(selection_from_name("tournament"), TournamentSelection)
        assert isinstance(selection_from_name("rank"), RankSelection)
        with pytest.raises(ConfigurationError):
            selection_from_name("lottery")


# ---------------------------------------------------------------------------
# Crossover
# ---------------------------------------------------------------------------

def _random_parents(n_tasks, n_procs, seed):
    a = random_chromosome(n_tasks, n_procs, rng=seed)
    b = random_chromosome(n_tasks, n_procs, rng=seed + 1000)
    return a, b


class TestFindCycles:
    def test_identical_parents_give_singleton_cycles(self):
        a = np.array([3, 1, 2])
        cycles = find_cycles(a, a.copy())
        assert sorted(len(c) for c in cycles) == [1, 1, 1]

    def test_cycles_partition_positions(self):
        a, b = _random_parents(10, 3, 0)
        cycles = find_cycles(a, b)
        positions = sorted(p for c in cycles for p in c)
        assert positions == list(range(len(a)))

    def test_mismatched_parents_rejected(self):
        with pytest.raises(EncodingError):
            find_cycles(np.array([0, 1]), np.array([0, 2]))


class TestCycleCrossover:
    def test_children_are_valid_permutations(self):
        a, b = _random_parents(12, 4, 1)
        c1, c2 = CycleCrossover().cross(a, b, rng=0)
        validate_chromosome(c1, 12, 4)
        validate_chromosome(c2, 12, 4)

    def test_every_gene_comes_from_a_parent_at_same_position(self):
        a, b = _random_parents(15, 3, 2)
        c1, c2 = CycleCrossover().cross(a, b, rng=0)
        for i in range(len(a)):
            assert c1[i] in (a[i], b[i])
            assert c2[i] in (a[i], b[i])

    def test_identical_parents_reproduce_themselves(self):
        a = random_chromosome(10, 3, rng=3)
        c1, c2 = CycleCrossover().cross(a, a.copy(), rng=0)
        assert np.array_equal(c1, a) and np.array_equal(c2, a)

    def test_children_complementary(self):
        a, b = _random_parents(10, 2, 4)
        c1, c2 = CycleCrossover().cross(a, b, rng=0)
        # positions taken from parent A in child1 are taken from parent B in child2
        for i in range(len(a)):
            if c1[i] == a[i]:
                assert c2[i] == b[i]


class TestOtherCrossovers:
    @pytest.mark.parametrize("operator", [PartiallyMappedCrossover(), OrderCrossover()])
    def test_children_valid(self, operator):
        a, b = _random_parents(14, 4, 5)
        c1, c2 = operator.cross(a, b, rng=0)
        validate_chromosome(c1, 14, 4)
        validate_chromosome(c2, 14, 4)

    @pytest.mark.parametrize("operator", [PartiallyMappedCrossover(), OrderCrossover()])
    def test_tiny_parents_handled(self, operator):
        a = np.array([0])
        b = np.array([0])
        c1, c2 = operator.cross(a, b, rng=0)
        assert np.array_equal(c1, a) and np.array_equal(c2, b)

    def test_factory(self):
        assert isinstance(crossover_from_name("cycle"), CycleCrossover)
        assert isinstance(crossover_from_name("pmx"), PartiallyMappedCrossover)
        assert isinstance(crossover_from_name("order"), OrderCrossover)
        with pytest.raises(ConfigurationError):
            crossover_from_name("uniform")

    @given(
        n_tasks=st.integers(min_value=2, max_value=25),
        n_procs=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_operators_preserve_symbol_set(self, n_tasks, n_procs, seed):
        """Property: crossover children are always permutations of the parents' symbols."""
        a, b = _random_parents(n_tasks, n_procs, seed)
        for operator in (CycleCrossover(), PartiallyMappedCrossover(), OrderCrossover()):
            c1, c2 = operator.cross(a, b, rng=seed)
            assert np.array_equal(np.sort(c1), np.sort(a))
            assert np.array_equal(np.sort(c2), np.sort(a))

    @given(
        n_tasks=st.integers(min_value=2, max_value=30),
        n_procs=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=80, deadline=None)
    def test_cycle_crossover_children_always_valid_chromosomes(self, n_tasks, n_procs, seed):
        """Property: CX children are valid chromosomes whose every gene sits at a
        position where one of the parents had it (the defining CX invariant)."""
        a, b = _random_parents(n_tasks, n_procs, seed)
        c1, c2 = CycleCrossover().cross(a, b, rng=seed)
        validate_chromosome(c1, n_tasks, n_procs)
        validate_chromosome(c2, n_tasks, n_procs)
        for i in range(len(a)):
            assert c1[i] in (a[i], b[i])
            assert c2[i] in (a[i], b[i])
            # complementarity: whatever child 1 took from one parent at this
            # position, child 2 took from the other
            assert {int(c1[i]), int(c2[i])} == {int(a[i]), int(b[i])}


# ---------------------------------------------------------------------------
# Mutation properties
# ---------------------------------------------------------------------------

class TestMutationProperties:
    @given(
        n_tasks=st.integers(min_value=1, max_value=30),
        n_procs=st.integers(min_value=1, max_value=8),
        n_swaps=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=80, deadline=None)
    def test_swap_mutation_preserves_gene_multiset(self, n_tasks, n_procs, n_swaps, seed):
        """Property: any number of random swaps preserves the multiset of genes,
        so the mutant is still a valid chromosome needing no repair."""
        chrom = random_chromosome(n_tasks, n_procs, rng=seed)
        mutated = swap_mutation(chrom, rng=seed + 1, n_swaps=n_swaps)
        assert np.array_equal(np.sort(mutated), np.sort(chrom))
        validate_chromosome(mutated, n_tasks, n_procs)

    @given(
        n_tasks=st.integers(min_value=2, max_value=40),
        n_procs=st.integers(min_value=2, max_value=8),
        n_rebalances=st.integers(min_value=0, max_value=25),
        seed=st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_rebalance_many_never_increases_error(self, n_tasks, n_procs, n_rebalances, seed):
        """Property: the re-balancing heuristic only accepts error-reducing swaps,
        so chaining any number of re-balances never worsens the schedule."""
        rng = np.random.default_rng(seed)
        problem = BatchProblem(
            task_ids=np.arange(n_tasks),
            sizes=rng.uniform(1.0, 1000.0, n_tasks),
            rates=rng.uniform(10.0, 500.0, n_procs),
            pending_loads=rng.uniform(0.0, 500.0, n_procs),
            comm_costs=rng.uniform(0.0, 2.0, n_procs),
        )
        assignment = rng.integers(0, n_procs, size=n_tasks)
        completions = completion_times(assignment, problem)[0]
        outcome = rebalance_many(
            assignment, completions, problem, n_rebalances=n_rebalances, rng=seed + 7
        )
        before = evaluate_assignments(assignment, problem).errors[0]
        after = evaluate_assignments(outcome.assignment, problem).errors[0]
        assert after <= before + 1e-9
        # the swap only exchanges processors between two tasks, so per-processor
        # task counts are preserved and the cached completions stay consistent
        assert np.array_equal(
            np.bincount(outcome.assignment, minlength=n_procs),
            np.bincount(assignment, minlength=n_procs),
        )
        assert np.allclose(
            outcome.completions, completion_times(outcome.assignment, problem)[0]
        )


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------

class TestSwapMutation:
    def test_result_is_permutation_of_input(self):
        chrom = random_chromosome(10, 3, rng=0)
        mutated = swap_mutation(chrom, rng=1)
        assert np.array_equal(np.sort(mutated), np.sort(chrom))

    def test_exactly_two_positions_change_for_single_swap(self):
        chrom = random_chromosome(10, 3, rng=0)
        mutated = swap_mutation(chrom, rng=1, n_swaps=1)
        assert int(np.sum(mutated != chrom)) == 2

    def test_original_not_modified(self):
        chrom = random_chromosome(10, 3, rng=0)
        original = chrom.copy()
        swap_mutation(chrom, rng=1)
        assert np.array_equal(chrom, original)

    def test_zero_swaps_is_identity(self):
        chrom = random_chromosome(5, 2, rng=0)
        assert np.array_equal(swap_mutation(chrom, rng=0, n_swaps=0), chrom)

    def test_single_gene_chromosome(self):
        assert np.array_equal(swap_mutation(np.array([0]), rng=0), np.array([0]))


def _rebalance_problem():
    return BatchProblem(
        task_ids=np.arange(6),
        sizes=np.array([500.0, 400.0, 300.0, 10.0, 20.0, 30.0]),
        rates=np.array([10.0, 10.0]),
        pending_loads=np.zeros(2),
        comm_costs=np.zeros(2),
    )


class TestRebalance:
    def test_improves_unbalanced_schedule(self):
        problem = _rebalance_problem()
        # all large tasks on processor 0, all tiny tasks on processor 1
        assignment = np.array([0, 0, 0, 1, 1, 1])
        completions = completion_times(assignment, problem)[0]
        outcome = rebalance_assignment(assignment, completions, problem, rng=0)
        if outcome.improved:
            before = evaluate_assignments(assignment, problem).errors[0]
            after = evaluate_assignments(outcome.assignment, problem).errors[0]
            assert after < before

    def test_many_rebalances_never_worse(self):
        problem = _rebalance_problem()
        assignment = np.array([0, 0, 0, 1, 1, 1])
        completions = completion_times(assignment, problem)[0]
        outcome = rebalance_many(assignment, completions, problem, n_rebalances=20, rng=0)
        before = evaluate_assignments(assignment, problem).errors[0]
        after = evaluate_assignments(outcome.assignment, problem).errors[0]
        assert after <= before + 1e-9

    def test_completions_consistent_after_rebalance(self):
        problem = _rebalance_problem()
        assignment = np.array([0, 0, 0, 1, 1, 1])
        completions = completion_times(assignment, problem)[0]
        outcome = rebalance_many(assignment, completions, problem, n_rebalances=10, rng=3)
        recomputed = completion_times(outcome.assignment, problem)[0]
        assert np.allclose(outcome.completions, recomputed)

    def test_balanced_schedule_unchanged(self):
        problem = BatchProblem(
            task_ids=np.arange(4),
            sizes=np.array([100.0, 100.0, 100.0, 100.0]),
            rates=np.array([10.0, 10.0]),
            pending_loads=np.zeros(2),
            comm_costs=np.zeros(2),
        )
        assignment = np.array([0, 0, 1, 1])
        completions = completion_times(assignment, problem)[0]
        outcome = rebalance_assignment(assignment, completions, problem, rng=0)
        assert not outcome.improved
        assert np.array_equal(outcome.assignment, assignment)

    def test_single_processor_is_noop(self):
        problem = BatchProblem(
            task_ids=np.arange(3),
            sizes=np.array([1.0, 2.0, 3.0]),
            rates=np.array([1.0]),
            pending_loads=np.zeros(1),
            comm_costs=np.zeros(1),
        )
        assignment = np.zeros(3, dtype=int)
        completions = completion_times(assignment, problem)[0]
        outcome = rebalance_assignment(assignment, completions, problem, rng=0)
        assert not outcome.improved

    def test_original_arrays_not_modified(self):
        problem = _rebalance_problem()
        assignment = np.array([0, 0, 0, 1, 1, 1])
        completions = completion_times(assignment, problem)[0]
        assignment_copy = assignment.copy()
        completions_copy = completions.copy()
        rebalance_many(assignment, completions, problem, n_rebalances=5, rng=0)
        assert np.array_equal(assignment, assignment_copy)
        assert np.allclose(completions, completions_copy)

    def test_swap_moves_smaller_task_onto_heavy_processor(self):
        problem = _rebalance_problem()
        assignment = np.array([0, 0, 0, 1, 1, 1])
        completions = completion_times(assignment, problem)[0]
        outcome = rebalance_assignment(assignment, completions, problem, rng=0, max_probes=6)
        if outcome.improved:
            moved_off, moved_on = outcome.swapped
            assert problem.sizes[moved_on] < problem.sizes[moved_off]
