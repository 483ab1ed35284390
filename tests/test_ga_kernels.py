"""Tests for the population-batched GA operator kernels (`repro.ga.kernels`).

Four layers of guarantees are covered:

* **bit-identical backend parity** — for a fixed seed, the loop and
  vectorized backends produce identical results wherever the operators are
  deterministic given their draws (cycle crossover, swap mutation, selection,
  decoding), including whole `evolve` runs with re-balancing disabled;
* **invariant preservation** (hypothesis) — the vectorized kernels keep
  every chromosome a permutation of its symbol set, keep assignment/
  chromosome matrices consistent, and never increase the schedule error when
  re-balancing — the same invariants `test_property_invariants.py` pins for
  the per-individual operators;
* **statistical equivalence** — the vectorized re-balancing heuristic, whose
  random draws are value-dependent and therefore not stream-identical to the
  loop implementation, matches it in aggregate effect;
* **kernel bit identity** (hypothesis) — each whole-population kernel equals
  a short per-row reference written out below (the sequential cycle walk,
  per-row completion sums, the slot-by-slot rebalance on the vectorized
  draw layout, one-task-at-a-time list-scheduling seeding), down to the
  last bit and the RNG state afterwards.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ga import (
    BatchProblem,
    GAConfig,
    completion_times,
    GeneticAlgorithm,
    ProblemGroup,
    VectorizedBackend,
    cycle_crossover_batch,
    decode_assignment,
    decode_population,
    draw_swap_positions,
    evaluate_assignments,
    rebalance_group,
    roulette_probabilities,
    roulette_select,
    swap_positions_batch,
    validate_chromosome,
)
from repro.ga import engine as engine_module
from repro.ga.crossover import CycleCrossover, OrderCrossover, PartiallyMappedCrossover
from repro.ga.kernels import cycle_labels
from repro.ga.mutation import apply_position_swaps
from repro.ga.encoding import chromosome_from_queues
from repro.ga.population import random_population, seeded_population
from repro.ga.selection import RouletteWheelSelection, SelectionOperator, roulette_rows
from repro.parallel import SerialExecutor
from repro.util.errors import ConfigurationError

from reference_kernels import LoopBackend, fitness_log

#: The reference kernels and the ones every run evolves on, built directly.
BACKENDS = {"loop": LoopBackend, "vectorized": VectorizedBackend}


def evolve_on(backend, config, problem, seed, monkeypatch):
    """One whole GA run with the engine's kernels patched to *backend*."""
    monkeypatch.setattr(engine_module, "_KERNELS", BACKENDS[backend]())
    return GeneticAlgorithm(config, rng=seed).evolve(problem)


def random_problem(rng, n_tasks, n_procs):
    return BatchProblem(
        task_ids=np.arange(n_tasks),
        sizes=rng.uniform(1.0, 1000.0, n_tasks),
        rates=rng.uniform(10.0, 500.0, n_procs),
        pending_loads=rng.uniform(0.0, 500.0, n_procs),
        comm_costs=rng.uniform(0.0, 2.0, n_procs),
    )


def tie_heavy_problem(rng, n_tasks, n_procs):
    """Sizes from three values and rates from two, no pending load or comm
    cost: strict size tests, error comparisons and earliest-finish picks all
    meet exact ties."""
    return BatchProblem(
        task_ids=np.arange(n_tasks),
        sizes=100.0 * rng.integers(1, 4, n_tasks),
        rates=100.0 * rng.integers(1, 3, n_procs),
        pending_loads=np.zeros(n_procs),
        comm_costs=np.zeros(n_procs),
    )


def random_parent_pair(rng, n_tasks, n_procs):
    symbols = np.concatenate(
        [np.arange(n_tasks, dtype=int), -np.arange(1, n_procs, dtype=int)]
    )
    return rng.permutation(symbols), rng.permutation(symbols)


class TestBatchedDecode:
    @given(
        n_tasks=st.integers(min_value=1, max_value=40),
        n_procs=st.integers(min_value=1, max_value=10),
        pop=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_row_decode(self, n_tasks, n_procs, pop, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, n_tasks, n_procs)
        population = random_population(problem, pop, rng=rng)
        batched = decode_population(population, n_tasks, n_procs)
        per_row = np.vstack(
            [decode_assignment(chrom, n_tasks, n_procs) for chrom in population]
        )
        assert np.array_equal(batched, per_row)

    def test_rejects_wrong_length(self):
        with pytest.raises(Exception):
            decode_population(np.array([[0, 1, 2]]), n_tasks=3, n_processors=3)


class TestBatchedCycleCrossover:
    @given(
        n_tasks=st.integers(min_value=1, max_value=30),
        n_procs=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_reference_operator(self, n_tasks, n_procs, seed):
        rng = np.random.default_rng(seed)
        a, b = random_parent_pair(rng, n_tasks, n_procs)
        expected_a, expected_b = CycleCrossover().cross(a, b)
        got_a, got_b = cycle_crossover_batch(a[None, :], b[None, :])
        assert np.array_equal(got_a[0], expected_a)
        assert np.array_equal(got_b[0], expected_b)

    @given(
        n_tasks=st.integers(min_value=2, max_value=25),
        n_procs=st.integers(min_value=2, max_value=6),
        batch=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_children_preserve_permutation_and_positions(
        self, n_tasks, n_procs, batch, seed
    ):
        rng = np.random.default_rng(seed)
        pairs = [random_parent_pair(rng, n_tasks, n_procs) for _ in range(batch)]
        a = np.vstack([p[0] for p in pairs])
        b = np.vstack([p[1] for p in pairs])
        child_a, child_b = cycle_crossover_batch(a, b)
        for k in range(batch):
            validate_chromosome(child_a[k], n_tasks, n_procs)
            validate_chromosome(child_b[k], n_tasks, n_procs)
            # CX positional invariant: every child gene comes from one of the
            # two parents at the same position, and the children are
            # complementary.
            from_a = child_a[k] == a[k]
            from_b = child_a[k] == b[k]
            assert np.all(from_a | from_b)
            assert np.all(np.where(from_a, child_b[k] == b[k], child_b[k] == a[k]))

    def test_cycle_labels_match_reference_discovery_order(self):
        from repro.ga.crossover import find_cycles

        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = random_parent_pair(rng, 12, 4)
            labels = cycle_labels(a[None, :], b[None, :])[0]
            for rank, cycle in enumerate(find_cycles(a, b)):
                assert np.all(labels[np.asarray(cycle)] == rank)


class TestBatchedSwapMutation:
    @given(
        length=st.integers(min_value=2, max_value=40),
        n_rows=st.integers(min_value=1, max_value=10),
        n_swaps=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_batched_application_equals_sequential(self, length, n_rows, n_swaps, seed):
        rng = np.random.default_rng(seed)
        population = np.vstack([rng.permutation(length) for _ in range(n_rows)])
        i_pos, j_pos = draw_swap_positions(
            np.random.default_rng(seed + 1), n_rows, n_swaps, length
        )
        batched = population.copy()
        swap_positions_batch(batched, np.arange(n_rows), i_pos, j_pos)
        sequential = population.copy()
        for row in range(n_rows):
            apply_position_swaps(sequential[row], i_pos[row], j_pos[row])
        assert np.array_equal(batched, sequential)
        # multiset preserved row-wise
        assert np.array_equal(np.sort(batched, axis=1), np.sort(population, axis=1))

    def test_draw_swap_positions_are_distinct_pairs(self):
        rng = np.random.default_rng(0)
        i_pos, j_pos = draw_swap_positions(rng, 500, 3, 7)
        assert np.all(i_pos != j_pos)
        assert i_pos.min() >= 0 and i_pos.max() < 7
        assert j_pos.min() >= 0 and j_pos.max() < 7

    @pytest.mark.parametrize("pending_half", [False, True])
    @pytest.mark.parametrize("length", [2, 3, 10, 59, 1049, 2**31 - 5, 2**32 - 7])
    def test_draws_match_two_sized_integers_calls(self, length, pending_half):
        # Contract stage 5 as first written: a block of first positions, then
        # a block of partners.  The one-call draw must read the stream draw
        # for draw and leave the generator where the two calls leave it, also
        # when a 32-bit half of an earlier draw is still buffered.
        for seed in range(30):
            for n_rows, n_swaps in [(1, 1), (2, 1), (5, 1), (13, 1), (3, 2)]:
                got_rng = np.random.default_rng(seed)
                ref_rng = np.random.default_rng(seed)
                if pending_half:
                    got_rng.integers(0, 7)
                    ref_rng.integers(0, 7)
                i_pos, j_pos = draw_swap_positions(got_rng, n_rows, n_swaps, length)
                ref_i = ref_rng.integers(0, length, size=(n_rows, n_swaps))
                ref_j = ref_rng.integers(0, length - 1, size=(n_rows, n_swaps))
                assert np.array_equal(i_pos, ref_i)
                assert np.array_equal(j_pos, ref_j + (ref_j >= ref_i))
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_too_short_chromosome_rejected(self):
        with pytest.raises(ConfigurationError):
            draw_swap_positions(np.random.default_rng(0), 1, 1, 1)


class TestRouletteDrawContract:
    def test_matches_numpy_choice_stream(self):
        """The explicit cdf-searchsorted wheel spins exactly like the
        ``Generator.choice`` call the operator historically made."""
        fitness = np.array([0.5, 1.5, 3.0, 0.25, 2.0])
        probabilities = fitness / fitness.sum()
        expected = np.random.default_rng(17).choice(
            fitness.size, size=64, replace=True, p=probabilities
        )
        got = roulette_select(fitness, 64, rng=17)
        assert np.array_equal(got, expected)

    @given(
        n=st.sampled_from([2, 3, 7, 8, 9, 16, 17, 20, 33, 200]),
        k=st.sampled_from([1, 2, 5]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_stacked_wheel_equals_per_row_roulette_select(self, n, k, data):
        # One wheel per row of a (K, P) matrix: the row sums must equal the
        # 1-D sums across NumPy's pairwise-summation block sizes, and
        # degenerate rows (zero total, inf, NaN, an overflowing sum) must
        # spin like roulette_select's.
        fitness_row = st.one_of(
            st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n),
            st.lists(st.floats(), min_size=n, max_size=n),
            st.just([0.0] * n),
            st.just([1e308] * n),
        )
        fitness = np.array([data.draw(fitness_row) for _ in range(k)], dtype=float).reshape(k, n)
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=k, max_size=k))
        expected_rngs = [np.random.default_rng(seed) for seed in seeds]
        rngs = [np.random.default_rng(seed) for seed in seeds]
        with np.errstate(all="ignore"):
            expected = [
                roulette_select(fitness[i], n, rng=expected_rngs[i]) + i * n for i in range(k)
            ]
            got = RouletteWheelSelection().select_rows(fitness, rngs)
            assert np.array_equal(got, np.concatenate(expected))
            assert [r.bit_generator.state for r in rngs] == [
                r.bit_generator.state for r in expected_rngs
            ]
            # Spins at each slot edge of the wheel roulette_select builds, and
            # one ulp either side: a wheel off by one bit picks differently.
            wheels = [roulette_probabilities(fitness[i]).cumsum() for i in range(k)]
            for wheel in wheels:
                wheel /= wheel[-1]
            edges = np.nan_to_num(np.array(wheels), nan=0.5)
            spins = np.hstack([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
            expected = [wheel.searchsorted(row, side="right") for wheel, row in zip(wheels, spins)]
            assert np.array_equal(roulette_rows(fitness, spins), expected)


class TestVectorizedRebalance:
    @given(
        n_tasks=st.integers(min_value=2, max_value=30),
        n_procs=st.integers(min_value=1, max_value=8),
        pop=st.integers(min_value=1, max_value=8),
        n_rebalances=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_never_increases_error_and_stays_consistent(
        self, n_tasks, n_procs, pop, n_rebalances, seed
    ):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, n_tasks, n_procs)
        population = random_population(problem, pop, rng=rng)
        assignments = decode_population(population, n_tasks, n_procs)
        before = evaluate_assignments(assignments, problem)
        completions = before.completions.copy()
        rebalance_group(
            population, assignments, completions, ProblemGroup([problem], pop), n_rebalances, [rng]
        )
        after = evaluate_assignments(assignments, problem)
        # error is monotone non-increasing for every individual
        assert np.all(after.errors <= before.errors + 1e-9)
        # the tracked completion times match a full re-evaluation
        assert np.allclose(after.completions, completions, rtol=1e-9, atol=1e-9)
        # chromosomes remain valid permutations consistent with assignments
        for row in range(pop):
            validate_chromosome(population[row], n_tasks, n_procs)
        assert np.array_equal(
            decode_population(population, n_tasks, n_procs), assignments
        )

    def test_statistically_matches_loop_heuristic(self):
        """Aggregate improvement of the vectorized heuristic matches the loop
        implementation: same heuristic, different (but identically
        distributed) draws."""
        master = np.random.default_rng(123)
        gains = {"loop": [], "vectorized": []}
        for trial in range(40):
            seed = int(master.integers(0, 2**31 - 1))
            rng = np.random.default_rng(seed)
            problem = random_problem(rng, 24, 6)
            population = random_population(problem, 10, rng=rng)
            for name in gains:
                backend = BACKENDS[name]()
                pop_copy = population.copy()
                assignments = decode_population(pop_copy, 24, 6)
                before = evaluate_assignments(assignments, problem)
                backend.rebalance(
                    pop_copy,
                    assignments,
                    before.completions.copy(),
                    ProblemGroup([problem], 10),
                    2,
                    [np.random.default_rng(seed + 1)],
                    5,
                )
                after = evaluate_assignments(assignments, problem)
                gains[name].append(float(np.mean(before.errors - after.errors)))
        loop_mean = np.mean(gains["loop"])
        vec_mean = np.mean(gains["vectorized"])
        assert loop_mean > 0 and vec_mean > 0
        # Both run the same accept-if-better heuristic; their mean error
        # reductions agree within a loose statistical tolerance.
        assert vec_mean == pytest.approx(loop_mean, rel=0.35)


class TestBackendParity:
    @pytest.mark.parametrize("crossover", ["cycle", "pmx", "order"])
    def test_evolve_bit_identical_without_rebalancing(self, crossover, monkeypatch):
        rng = np.random.default_rng(2)
        problem = random_problem(rng, 24, 5)
        config = GAConfig(
            population_size=12, max_generations=18, n_rebalances=0, crossover=crossover
        )
        results, evaluated = {}, {}
        for backend in BACKENDS:
            with fitness_log() as log:
                results[backend] = evolve_on(backend, config, problem, 7, monkeypatch)
            evaluated[backend] = log(problem)
        loop, vectorized = results["loop"], results["vectorized"]
        assert np.array_equal(loop.best_assignment, vectorized.best_assignment)
        assert loop.best_makespan == vectorized.best_makespan
        assert loop.makespan_history == vectorized.makespan_history
        assert loop.best_queues == vectorized.best_queues
        # Every generation's population, not only the best of each.
        assert len(evaluated["loop"]) == 18
        assert evaluated["loop"] == evaluated["vectorized"]

    def test_crossover_stage_bit_identical(self):
        rng = np.random.default_rng(4)
        problem = random_problem(rng, 20, 4)
        parents = random_population(problem, 10, rng=rng)
        results = []
        for backend in BACKENDS:
            work = parents.copy()
            out = BACKENDS[backend]().crossover(
                work, CycleCrossover(), 0.8, [np.random.default_rng(99)]
            )
            results.append(out.copy())
        assert np.array_equal(results[0], results[1])

    @pytest.mark.parametrize("operator", [PartiallyMappedCrossover, OrderCrossover])
    def test_drawing_operators_fall_back_identically(self, operator):
        rng = np.random.default_rng(4)
        problem = random_problem(rng, 15, 4)
        parents = random_population(problem, 8, rng=rng)
        results = []
        for backend in BACKENDS:
            work = parents.copy()
            out = BACKENDS[backend]().crossover(
                work, operator(), 0.9, [np.random.default_rng(5)]
            )
            results.append(out.copy())
        assert np.array_equal(results[0], results[1])

    def test_mutation_stage_bit_identical(self):
        rng = np.random.default_rng(6)
        problem = random_problem(rng, 30, 6)
        population = random_population(problem, 14, rng=rng)
        results = []
        for backend in BACKENDS:
            work = population.copy()
            out = BACKENDS[backend]().mutate(work, 0.7, 2, [np.random.default_rng(21)])
            results.append(out.copy())
        assert np.array_equal(results[0], results[1])

    def test_custom_deterministic_operator_uses_its_own_cross(self):
        """The batch cycle-crossover kernel substitutes only for the genuine
        CycleCrossover; a custom operator (even one flagged deterministic)
        must be applied through its own ``cross`` by every backend."""

        class SwapHalvesCrossover(CycleCrossover):
            deterministic_given_draws = True

            def cross(self, parent_a, parent_b, rng=None):
                return parent_b.copy(), parent_a.copy()

        rng = np.random.default_rng(10)
        problem = random_problem(rng, 12, 3)
        parents = random_population(problem, 6, rng=rng)
        results = []
        for backend in BACKENDS:
            work = parents.copy()
            out = BACKENDS[backend]().crossover(
                work, SwapHalvesCrossover(), 1.0, [np.random.default_rng(33)]
            )
            results.append(out.copy())
        assert np.array_equal(results[0], results[1])
        # rate=1.0 crosses every pair, so each pair must be exchanged
        for pair in range(3):
            assert np.array_equal(results[1][2 * pair], parents[2 * pair + 1])
            assert np.array_equal(results[1][2 * pair + 1], parents[2 * pair])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_evolve_with_rebalancing_satisfies_ga_invariants(self, backend, monkeypatch):
        rng = np.random.default_rng(8)
        problem = random_problem(rng, 25, 5)
        config = GAConfig(population_size=10, max_generations=15, n_rebalances=2)
        result = evolve_on(backend, config, problem, 11, monkeypatch)
        history = np.asarray(result.makespan_history)
        assert np.all(np.diff(history) <= 1e-9)
        assert result.best_makespan <= result.initial_best_makespan + 1e-9
        recomputed = evaluate_assignments(result.best_assignment, problem)
        assert result.best_makespan == pytest.approx(recomputed.makespans[0])


# ---------------------------------------------------------------------------
# Per-row references for the bit-identity properties
# ---------------------------------------------------------------------------

def reference_cycle_labels(a, b):
    """Walk each row's cycles from ascending start positions, numbering them."""
    labels = np.full(a.shape, -1, dtype=int)
    for row in range(a.shape[0]):
        position_in_a = {int(symbol): pos for pos, symbol in enumerate(a[row])}
        rank = 0
        for start in range(a.shape[1]):
            if labels[row, start] >= 0:
                continue
            pos = start
            while labels[row, pos] < 0:
                labels[row, pos] = rank
                pos = position_in_a[int(b[row, pos])]
            rank += 1
    return labels


def reference_completions(assignments, problem):
    """Per-row completion times, summed task by task in ascending index order."""
    out = np.empty((assignments.shape[0], problem.n_processors))
    for row, assignment in enumerate(assignments):
        sums = np.zeros(problem.n_processors)
        for task, proc in enumerate(assignment):
            sums[proc] += problem.sizes[task] / problem.rates[proc] + problem.comm_costs[proc]
        out[row] = problem.pending_loads / problem.rates + sums
    return out


def reference_rebalance(population, assignments, completions, problem, n_rebalances, rng, max_probes):
    """The vectorized rebalance, one row and one probe slot at a time.

    Same draws (one ``rng.random(pop)`` for the candidates, then one
    ``rng.random((pop, n_tasks))`` probe-key block per round), same accept
    test, same in-place updates of all three matrices; returns whether any
    row accepted a swap.
    """
    pop, n_tasks = assignments.shape
    sizes, rates = problem.sizes, problem.rates
    psi = problem.optimal_time()
    errors = [np.sqrt(np.sum((completions[row] - psi) ** 2)) for row in range(pop)]
    accepted = False
    for _ in range(n_rebalances):
        candidate_uniform = rng.random(pop)
        probe_keys = rng.random((pop, n_tasks))
        for row in range(pop):
            heavy = int(np.argmax(completions[row]))
            heavy_tasks = np.nonzero(assignments[row] == heavy)[0]
            other_tasks = np.nonzero(assignments[row] != heavy)[0]
            if heavy_tasks.size == 0 or other_tasks.size == 0:
                continue
            k = min(int(candidate_uniform[row] * other_tasks.size), other_tasks.size - 1)
            candidate = int(other_tasks[k])
            candidate_proc = int(assignments[row, candidate])
            probes = heavy_tasks[np.argsort(probe_keys[row, heavy_tasks])]
            for probe in probes[:max_probes]:
                probe = int(probe)
                if not sizes[candidate] < sizes[probe]:
                    continue
                delta = sizes[candidate] - sizes[probe]
                updated = completions[row].copy()
                updated[heavy] += delta / rates[heavy]
                updated[candidate_proc] -= delta / rates[candidate_proc]
                new_error = np.sqrt(np.sum((updated - psi) ** 2))
                if not new_error < errors[row]:
                    continue
                assignments[row, probe] = candidate_proc
                assignments[row, candidate] = heavy
                completions[row] = updated
                errors[row] = new_error
                chromosome = population[row]
                probe_pos = int(np.argmax(chromosome == probe))
                cand_pos = int(np.argmax(chromosome == candidate))
                chromosome[probe_pos], chromosome[cand_pos] = candidate, probe
                accepted = True
                break
    return accepted


def reference_seeded_population(problem, pop, random_fraction, rng):
    """List-scheduling seeding, one individual and one task at a time."""
    h, m = problem.n_tasks, problem.n_processors
    rows = []
    for _ in range(pop):
        order = rng.permutation(h)
        n_random = int(round(random_fraction * h))
        assignment = np.empty(h, dtype=int)
        finish = problem.pending_times().copy()
        for position, task in enumerate(order):
            size = problem.sizes[task]
            if position < n_random:
                proc = int(rng.integers(0, m))
            else:
                proc = int(np.argmin(finish + size / problem.rates + problem.comm_costs))
            assignment[task] = proc
            finish[proc] += size / problem.rates[proc] + problem.comm_costs[proc]
        queues = [[] for _ in range(m)]
        for task in rng.permutation(h):
            queues[assignment[task]].append(int(task))
        rows.append(chromosome_from_queues(queues, h))
    return np.vstack(rows)


shapes = dict(
    n_tasks=st.integers(min_value=1, max_value=30),
    n_procs=st.integers(min_value=1, max_value=10),
    pop=st.integers(min_value=1, max_value=12),
    tie_heavy=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)


def build_case(n_tasks, n_procs, pop, tie_heavy, seed):
    rng = np.random.default_rng(seed)
    make = tie_heavy_problem if tie_heavy else random_problem
    problem = make(rng, n_tasks, n_procs)
    return problem, random_population(problem, pop, rng=rng)


class TestKernelBitIdentity:
    @given(**shapes)
    @settings(max_examples=60, deadline=None)
    def test_cycle_labels_and_children_equal_sequential_walk(
        self, n_tasks, n_procs, pop, tie_heavy, seed
    ):
        _, population = build_case(n_tasks, n_procs, 2 * pop, tie_heavy, seed)
        a, b = population[0::2], population[1::2]
        assert np.array_equal(cycle_labels(a, b), reference_cycle_labels(a, b))
        child_a, child_b = cycle_crossover_batch(a, b)
        for row in range(pop):
            expected_a, expected_b = CycleCrossover().cross(a[row], b[row])
            assert np.array_equal(child_a[row], expected_a)
            assert np.array_equal(child_b[row], expected_b)

    @given(**shapes)
    @settings(max_examples=60, deadline=None)
    def test_completions_and_fitness_equal_per_row_sums(
        self, n_tasks, n_procs, pop, tie_heavy, seed
    ):
        problem, population = build_case(n_tasks, n_procs, pop, tie_heavy, seed)
        assignments = decode_population(population, n_tasks, n_procs)
        expected = reference_completions(assignments, problem)
        assert np.array_equal(completion_times(assignments, problem), expected)
        result = evaluate_assignments(assignments, problem)
        assert np.array_equal(result.completions, expected)
        psi = problem.optimal_time()
        errors = np.array([np.sqrt(np.sum((row - psi) ** 2)) for row in expected])
        assert np.array_equal(result.errors, errors)
        assert np.array_equal(result.makespans, expected.max(axis=1))

    @given(
        **shapes,
        n_rebalances=st.integers(min_value=1, max_value=6),
        max_probes=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_rebalance_equals_slot_by_slot_reference(
        self, n_tasks, n_procs, pop, tie_heavy, seed, n_rebalances, max_probes
    ):
        problem, population = build_case(n_tasks, n_procs, pop, tie_heavy, seed)
        assignments = decode_population(population, n_tasks, n_procs)
        completions = evaluate_assignments(assignments, problem).completions
        got = [population.copy(), assignments.copy(), completions.copy()]
        expected = [population.copy(), assignments.copy(), completions.copy()]
        got_rng = np.random.default_rng(seed + 1)
        expected_rng = np.random.default_rng(seed + 1)
        start = [population.copy(), assignments.copy(), completions.copy()]
        accepted = rebalance_group(
            *got, ProblemGroup([problem], pop), n_rebalances, [got_rng], max_probes=max_probes
        )
        assert accepted == reference_rebalance(
            *expected, problem, n_rebalances, expected_rng, max_probes
        )
        for got_matrix, expected_matrix in zip(got, expected):
            assert np.array_equal(got_matrix, expected_matrix)
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state
        if not accepted:
            assert all(np.array_equal(a, b) for a, b in zip(got, start))

    @given(**shapes, random_fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_seeded_population_equals_one_at_a_time_seeding(
        self, n_tasks, n_procs, pop, tie_heavy, seed, random_fraction
    ):
        problem, _ = build_case(n_tasks, n_procs, pop, tie_heavy, seed)
        got_rng = np.random.default_rng(seed + 1)
        expected_rng = np.random.default_rng(seed + 1)
        got = seeded_population(problem, pop, random_fraction, got_rng)
        expected = reference_seeded_population(problem, pop, random_fraction, expected_rng)
        assert np.array_equal(got, expected)
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state


# ---------------------------------------------------------------------------
# The stacked roulette wheel, the engine's skipped re-evaluation, and
# settled one-task runs
# ---------------------------------------------------------------------------


class _PerRowRoulette(SelectionOperator):
    """Roulette selection through the base ``select_rows``: one
    ``roulette_select`` wheel per problem, not one build for the stack.  It
    draws as roulette does, but is not :class:`RouletteWheelSelection`, so a
    one-task run on it never settles: it evolves every generation."""

    name = "roulette"

    def select(self, fitness, n, rng=None):
        return roulette_select(fitness, n, rng=rng)


class _AlwaysAccepts(VectorizedBackend):
    """Kernels whose rebalance reports an accepted swap every time."""

    def rebalance(self, *args):
        super().rebalance(*args)
        return True


def result_fields(result):
    """Every outcome field of a GAResult: the golden-hashed ones and the bests."""
    return (
        result.best_assignment.tolist(),
        result.best_queues,
        result.makespan_history,
        result.generations,
        result.best_makespan,
        result.best_error,
        result.best_fitness,
        result.initial_best_makespan,
        result.psi,
    )


def _evolve_seeded(config, problem, seed):
    rng = np.random.default_rng(seed)
    result = GeneticAlgorithm(config, rng=rng).evolve(problem)
    return result_fields(result), rng.bit_generator.state


def _settled(result):
    """Whether the run stopped evolving after its first evaluation."""
    return result.timings.counts["decode"] == 1 < result.generations


class TestStackedRoulette:
    @pytest.mark.parametrize("n_rebalances", [0, 1, 5])
    @pytest.mark.parametrize("n_tasks", [1, 2, 10])
    @pytest.mark.parametrize("pop", [2, 7, 20])
    def test_stacked_runs_equal_per_row_solo_runs(self, pop, n_tasks, n_rebalances):
        config = dict(population_size=pop, max_generations=9, n_rebalances=n_rebalances)

        def problem():
            # A new object each time, so the fitness log tells the runs apart.
            return random_problem(np.random.default_rng(n_tasks), n_tasks, 4)

        def evolve(seed):
            rng = np.random.default_rng(seed)
            run_problem = problem()
            result = GeneticAlgorithm(GAConfig(**config), rng=rng).evolve(run_problem)
            return result, rng.bit_generator.state, run_problem

        with fitness_log() as log:
            stacked = SerialExecutor().map(evolve, [11, 12, 13])
            assert [result.stacked for result, _, _ in stacked] == [3, 3, 3]
            for seed, (result, state, run_problem) in zip([11, 12, 13], stacked):
                solo_problem = problem()
                solo = _evolve_seeded(
                    GAConfig(selection=_PerRowRoulette(), **config), solo_problem, seed
                )
                assert (result_fields(result), state) == solo
                # The one-task group settles after evaluating its first
                # population and its M placements; the per-row solo run
                # evolves on.
                assert _settled(result) == (n_tasks == 1)
                evaluated, solo_evaluated = log(run_problem), log(solo_problem)
                if n_tasks == 1:
                    assert len(evaluated) == 2 and len(evaluated[1]) == 4
                    assert evaluated[0] == solo_evaluated[0]
                else:
                    assert evaluated == solo_evaluated

    def test_one_task_run_evaluates_each_generation_once(self, monkeypatch):
        # One task can never be swapped, so no generation re-evaluates after
        # its rebalance; the result is the one of re-evaluating every time.
        # Per-row roulette keeps the run from settling.
        problem = random_problem(np.random.default_rng(3), 1, 5)
        config = GAConfig(max_generations=25, n_rebalances=1, selection=_PerRowRoulette())
        result = GeneticAlgorithm(config, rng=4).evolve(problem)
        assert result.timings.counts["fitness"] == 25
        assert result.timings.counts["rebalance"] == 25
        monkeypatch.setattr(engine_module, "_KERNELS", _AlwaysAccepts())
        reference = GeneticAlgorithm(config, rng=4).evolve(problem)
        assert reference.timings.counts["fitness"] == 50
        assert result_fields(result) == result_fields(reference)


one_task_configs = st.fixed_dictionaries(
    dict(
        population_size=st.integers(min_value=2, max_value=30),
        max_generations=st.integers(min_value=1, max_value=40),
        n_rebalances=st.integers(min_value=0, max_value=5),
        swaps_per_mutation=st.integers(min_value=1, max_value=3),
        crossover_rate=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        mutation_rate=st.sampled_from([0.0, 0.4, 1.0]),
        seeded_initialisation=st.booleans(),
    )
)


class TestSettledOneTaskRuns:
    """A one-task group settles after its first evaluation when every run's
    best is already the least makespan of its task's M placements: it stops
    evolving and makes only the draws of its remaining generations."""

    @given(
        config=one_task_configs,
        n_procs=st.integers(min_value=1, max_value=12),
        n_runs=st.integers(min_value=1, max_value=4),
        tie_heavy=st.booleans(),
        backend=st.sampled_from(sorted(BACKENDS)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_settled_runs_equal_full_evolution(
        self, config, n_procs, n_runs, tie_heavy, backend, seed
    ):
        # Tie-heavy problems have no pending load or comm cost and two rates,
        # so many placements tie for the least makespan.
        make = tie_heavy_problem if tie_heavy else random_problem
        problems = [make(np.random.default_rng(seed + k), 1, n_procs) for k in range(n_runs)]
        seeds = [seed + 100 + k for k in range(n_runs)]

        def evolve(k):
            rng = np.random.default_rng(seeds[k])
            result = GeneticAlgorithm(GAConfig(**config), rng=rng).evolve(problems[k])
            return result, rng.bit_generator.state

        full_config = GAConfig(selection=_PerRowRoulette(), **config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "_KERNELS", BACKENDS[backend]())
            runs = SerialExecutor().map(evolve, range(n_runs))
            full = [_evolve_seeded(full_config, problems[k], seeds[k]) for k in range(n_runs)]
        for (result, state), expected in zip(runs, full):
            assert result.stacked == n_runs
            assert (result_fields(result), state) == expected

    def test_settled_run_records_one_decode_and_one_fitness(self):
        problem = random_problem(np.random.default_rng(3), 1, 5)
        result = GeneticAlgorithm(GAConfig(max_generations=25), rng=4).evolve(problem)
        assert result.timings.counts == {"initialisation": 1, "decode": 1, "fitness": 1}
        assert result.generations == 25
        assert result.makespan_history == [result.best_makespan] * 25

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_a_run_off_its_optimum_keeps_its_group_evolving(self, backend, monkeypatch):
        # With random initialisation a one-task chromosome puts its task
        # where its delimiters fall, whatever the rates, so the first run's
        # initial individuals are drawn before its problem is chosen: its one
        # fast processor is one that neither of them uses.  Its partners'
        # processors are all alike, so every placement is optimal for them.
        monkeypatch.setattr(engine_module, "_KERNELS", BACKENDS[backend]())
        n_procs, seeds = 12, [5, 6, 7]
        config = GAConfig(population_size=2, max_generations=12, seeded_initialisation=False)
        any_problem = random_problem(np.random.default_rng(0), 1, n_procs)
        initial = random_population(any_problem, 2, rng=seeds[0])
        unused = set(range(n_procs)) - set(decode_population(initial, 1, n_procs)[:, 0].tolist())
        rates = np.full(n_procs, 10.0)
        rates[min(unused)] = 1000.0

        def problem(rates):
            return BatchProblem(
                task_ids=np.array([0]),
                sizes=np.array([500.0]),
                rates=rates,
                pending_loads=np.zeros(n_procs),
                comm_costs=np.zeros(n_procs),
            )

        even = np.full(n_procs, 10.0)
        problems = [problem(rates), problem(even), problem(even)]

        def evolve(k):
            rng = np.random.default_rng(seeds[k])
            result = GeneticAlgorithm(config, rng=rng).evolve(problems[k])
            return result, rng.bit_generator.state

        stacked = SerialExecutor().map(evolve, range(3))
        solos = [evolve(k) for k in range(3)]
        assert stacked[0][0].initial_best_makespan == 50.0  # off the optimum, 0.5
        assert [result.stacked for result, _ in stacked] == [3, 3, 3]
        assert not any(_settled(result) for result, _ in stacked)
        assert [_settled(solo) for solo, _ in solos] == [False, True, True]
        for (result, state), (solo, solo_state) in zip(stacked, solos):
            assert (result_fields(result), state) == (result_fields(solo), solo_state)
