"""Population-batched GA operator kernels.

The GA engine spends its generations in four operator stages — selection,
crossover, mutation, re-balancing — plus chromosome decoding.  The original
implementation applied each operator one individual (or one parent pair) at a
time in Python; this module batches every stage over the whole
``(population_size, chromosome_length)`` matrix with NumPy, the same move
that made fitness evaluation tractable (one ``bincount`` per population in
:mod:`repro.ga.fitness`).

Every GA run evolves on :class:`VectorizedBackend`: whole-population array
kernels, with cycle crossover via flat-index pointer doubling, batched swap
application, and a rebalance that scores every probe slot of a round at once
from the completion times it already holds.  It implements
:class:`KernelBackend`, which makes the random draws of crossover and
mutation itself.  The test suite holds the kernels to a per-individual loop
reference, another :class:`KernelBackend` that applies the original operator
functions one individual (or one parent pair) at a time, so both read the
identical streams by construction.

A population of 20 chromosomes of ~20 genes is tiny, so these kernels cost
what their NumPy calls cost, not what their arithmetic costs: they are
written to make few calls per generation, and they take a *stacked*
population so that several problems share those calls.  The engine evolves
a :class:`~repro.ga.problem.ProblemGroup` of ``K`` problems of one shape as
one ``(K·P, L)`` matrix: rows ``k·P … k·P + P − 1`` belong to problem ``k``,
which draws from its own generator ``rngs[k]``.  A solo run is a group of one.

RNG draw-order contract
-----------------------
The kernels and the per-individual reference consume the engine's random
stream in the same documented order, so that wherever an operator is
*deterministic given its draws* the two produce bit-identical populations
for a fixed seed.  In a stacked group every problem makes exactly these
draws from its own generator, as if it ran alone, so a stacked run is
bit-identical to its solo run.  Per generation, after fitness evaluation,
the draws are:

1. **selection** — one batched call of the selection operator
   (roulette consumes exactly ``population_size`` uniforms per problem,
   spun on the wheels :func:`repro.ga.selection.roulette_rows` builds for
   the whole group; tournament consumes one ``(n, k)`` integer block).
2. **crossover gates** — one ``rng.random(n_pairs)`` block
   (``n_pairs = population_size // 2``); pair ``i`` crosses iff
   ``gates[i] < crossover_rate``.  NumPy guarantees a size-``n`` block equals
   ``n`` sequential scalar draws, so a per-pair loop may draw per pair.
3. **crossover operator draws** — none for cycle crossover (it is
   deterministic given the parents); operators that do draw (PMX, OX) are
   applied pair by pair in ascending pair order by every backend.
4. **mutation gates** — one ``rng.random(population_size)`` block;
   individual ``i`` mutates iff ``gates[i] < mutation_rate``.
5. **swap positions** — two integer blocks via :func:`draw_swap_positions`:
   first the ``n_mutated · n_swaps`` first positions, each below ``L``, then
   as many partner positions, each below ``L - 1`` and shifted past its
   first index, both ordered by (individual ascending, swap ascending).  One
   ``rng.integers(0, [L] * n + [L - 1] * n)`` call draws both blocks; it
   reads the stream exactly as ``rng.integers(0, L, size=n)`` followed by
   ``rng.integers(0, L - 1, size=n)``.

Stages 2–5 are therefore bit-identical to the reference.  The re-balancing
heuristic and selection make *value-dependent* random draws (which tasks to
probe depends on the current schedule), so the vectorized rebalance uses its
own fixed-shape draw layout (one uniform per individual for the candidate,
one ``(pop, n_tasks)`` uniform block for the probe order per round) and is
equivalent to the reference's :func:`~repro.ga.mutation.rebalance_many`
*in distribution*, not bit for bit; the test suite verifies it
statistically and by its invariants (error never increases, permutation
preserved), and bit for bit against a row-by-row, slot-by-slot reference of
its own draw layout.

A block of uniforms equals the same number of sequential draws, so a stage
may read consecutive blocks in one call: each rebalance round reads its
candidate uniforms and probe keys in one ``rng.random`` call per problem.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence, Tuple

import numpy as np

from ..util.errors import ConfigurationError, EncodingError
from ..util.rng import random_rows
from .crossover import CrossoverOperator, CycleCrossover
from .problem import ProblemGroup

__all__ = [
    "KernelBackend",
    "VectorizedBackend",
    "cycle_crossover_batch",
    "cycle_labels",
    "decode_population",
    "draw_swap_positions",
    "swap_positions_batch",
    "rebalance_group",
]

# ---------------------------------------------------------------------------
# Shared draw helpers (the draw-order contract)
# ---------------------------------------------------------------------------

def draw_swap_positions(
    rng: np.random.Generator, n_rows: int, n_swaps: int, length: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw the swap-mutation position pairs for *n_rows* mutated individuals.

    Returns two ``(n_rows, n_swaps)`` integer arrays ``(i, j)`` with
    ``i != j`` elementwise, uniform over ordered distinct position pairs.
    The draws are consumed as two blocks (all first positions, then all
    partner positions) so every backend reads the identical stream; a block
    of ``rng.integers`` is bit-identical to the same number of sequential
    scalar draws.  Both blocks come from one ``integers`` call with one
    upper bound per draw, which makes the same draws, in the same order, as
    the two sized calls and leaves the generator in the same state.
    """
    if length < 2:
        raise ConfigurationError("chromosomes must have at least 2 genes to swap")
    size = n_rows * n_swaps
    draws = rng.integers(0, [length] * size + [length - 1] * size)
    i = draws[:size].reshape(n_rows, n_swaps)
    j = draws[size:].reshape(n_rows, n_swaps)
    j = j + (j >= i)
    return i, j


def _int_rows(matrix: np.ndarray) -> np.ndarray:
    """*matrix* as a 2-D integer array (a 1-D input becomes one row)."""
    matrix = np.asarray(matrix, dtype=int)
    return matrix if matrix.ndim == 2 else np.atleast_2d(matrix)


# ---------------------------------------------------------------------------
# Batched decoding
# ---------------------------------------------------------------------------

def decode_population(
    population: np.ndarray, n_tasks: int, n_processors: int
) -> np.ndarray:
    """Decode a ``(P, L)`` chromosome matrix into ``(P, H)`` assignment vectors.

    Equivalent to calling :func:`repro.ga.encoding.decode_assignment` on each
    row, but in three vectorised passes: a delimiter mask, a running delimiter
    count (the processor index of every gene) and one scatter of the task
    genes.  Rows must be valid chromosomes (permutations of the task indices
    plus the distinct negative delimiters).
    """
    population = _int_rows(population)
    pop, length = population.shape
    if length != n_tasks + n_processors - 1:
        raise EncodingError(
            f"chromosome rows must have length {n_tasks + n_processors - 1}, got {length}"
        )
    delimiter = population < 0
    # Inclusive delimiter count: for a task gene it is the number of
    # delimiters before it, i.e. its processor index.
    proc_of_gene = delimiter.cumsum(axis=1)
    # M - 1 delimiters in every row means H task genes in every row, none of
    # them assigned beyond the last processor.
    if length and (proc_of_gene[:, -1] != n_processors - 1).any():
        raise EncodingError("every row must contain exactly H task genes and M - 1 delimiters")
    task_mask = ~delimiter
    task_genes = population[task_mask]
    if task_genes.size and task_genes.max() >= n_tasks:
        raise EncodingError("chromosome references a task index outside the batch")
    # Task genes come out row by row, H per row: the flat target is row·H + gene.
    flat = task_genes.reshape(pop, n_tasks) + np.arange(0, pop * n_tasks, n_tasks)[:, None]
    assignments = np.full(pop * n_tasks, -1, dtype=int)
    assignments[flat.ravel()] = proc_of_gene[task_mask]
    assignments = assignments.reshape(pop, n_tasks)
    if (assignments < 0).any():
        raise EncodingError("chromosome rows do not cover every task index")
    return assignments


# ---------------------------------------------------------------------------
# Batched cycle crossover
# ---------------------------------------------------------------------------

def cycle_labels(parents_a: np.ndarray, parents_b: np.ndarray) -> np.ndarray:
    """Per-position cycle ranks for a batch of parent pairs.

    For each pair ``(a, b)`` the positions decompose into the cycles of the
    permutation ``i -> position in a of b[i]`` (exactly the walk of
    :func:`repro.ga.crossover.find_cycles`).  Cycles are numbered ``0, 1, …``
    in order of their smallest position — the discovery order of the
    reference implementation, which scans start positions in ascending
    order — and the returned ``(K, L)`` matrix holds each position's cycle
    number.

    The cycle structure is found without any per-pair Python work: the
    permutation is composed with itself (pointer doubling) ``ceil(log2(L - 1))``
    times while tracking the minimum position reached, which labels every
    position with its cycle's minimum in ``O(K·L·log L)``.  Pointers are
    flat indices into the ``K·L`` positions (``row·L + position``), so each
    step is two plain gathers; a row's flat indices keep its position order,
    so the minimum is the same as per row.
    """
    a = _int_rows(parents_a)
    b = _int_rows(parents_b)
    if a.shape != b.shape:
        raise EncodingError("parent batches must have identical shapes")
    k, length = a.shape
    if a.size == 0:
        return np.zeros((k, length), dtype=int)
    # Shift symbols to 0..R-1: task indices are >= 0, delimiters -1..-(M-1).
    offset = -min(int(a.min()), 0)
    symbol_range = offset + int(a.max()) + 1
    symbol_base = np.arange(offset, offset + k * symbol_range, symbol_range)[:, None]
    positions = np.arange(k * length)
    flat_position_of_symbol = np.empty(k * symbol_range, dtype=int)
    flat_position_of_symbol[(a + symbol_base).ravel()] = positions
    # Flat position in a of the symbol at each flat position of b.
    pointer = flat_position_of_symbol[(b + symbol_base).ravel()]

    # After j steps each minimum spans 2**j + 1 consecutive cycle positions,
    # enough for the longest possible cycle (L) once 2**j >= L - 1.
    cycle_min = np.minimum(positions, pointer)
    for _ in range(max(length - 2, 0).bit_length()):
        cycle_min = np.minimum(cycle_min, cycle_min[pointer])
        pointer = pointer[pointer]

    # A position is its cycle's representative iff it equals the cycle minimum;
    # ranking the representatives in position order numbers the cycles exactly
    # as the sequential scan discovers them.
    is_representative = (cycle_min == positions).reshape(k, length)
    discovery_rank = is_representative.cumsum(axis=1) - 1
    return discovery_rank.ravel()[cycle_min].reshape(k, length)


def cycle_crossover_batch(
    parents_a: np.ndarray, parents_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Cycle crossover applied to a whole batch of parent pairs at once.

    Bit-identical to :meth:`repro.ga.crossover.CycleCrossover.cross` applied
    row by row: odd-numbered cycles swap parental material.  Rows must be
    permutations of a common symbol set (not re-validated here — the engine
    maintains this invariant).
    """
    a = _int_rows(parents_a)
    b = _int_rows(parents_b)
    swap = cycle_labels(a, b) & 1
    child_a = np.where(swap, b, a)
    child_b = np.where(swap, a, b)
    return child_a, child_b


# ---------------------------------------------------------------------------
# Batched swap mutation
# ---------------------------------------------------------------------------

def swap_positions_batch(
    population: np.ndarray, rows: np.ndarray, i_pos: np.ndarray, j_pos: np.ndarray
) -> None:
    """Apply per-row position swaps to *population* in place.

    ``rows`` selects the mutated rows; ``i_pos``/``j_pos`` are the
    ``(len(rows), n_swaps)`` position pairs from :func:`draw_swap_positions`.
    Swaps within a row are applied in ascending swap order (they may touch
    the same positions), vectorised across rows per swap slot.
    """
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        return
    for swap in range(i_pos.shape[1]):
        i = i_pos[:, swap]
        j = j_pos[:, swap]
        held = population[rows, i]
        population[rows, i] = population[rows, j]
        population[rows, j] = held


# ---------------------------------------------------------------------------
# Batched re-balancing heuristic
# ---------------------------------------------------------------------------

def rebalance_group(
    population: np.ndarray,
    assignments: np.ndarray,
    completions: np.ndarray,
    group: ProblemGroup,
    n_rebalances: int,
    rngs: Sequence[np.random.Generator],
    max_probes: int = 5,
) -> bool:
    """Apply the paper's re-balancing heuristic to every individual at once.

    Mirrors :func:`repro.ga.mutation.rebalance_assignment` across the whole
    stacked population: per round, each individual picks one random task
    off its most heavily loaded processor's peers ("candidate"), probes up
    to *max_probes* random distinct tasks on the heavy processor in random
    order, and accepts the first strictly-smaller probe whose swap lowers
    the schedule's relative error.  Accepted swaps are mirrored into the
    chromosome matrix (*population*), the assignment matrix and the
    completion-time matrix, all updated in place.  Each row reads its own
    problem's sizes, rates and ψ from *group*.

    Returns whether any row accepted a swap; when none did, all three
    matrices are unchanged.

    Draw layout per round (fixed shape, value-independent): each problem
    draws, from its own generator, one uniform per individual for the
    candidate pick, then one ``(P, n_tasks)`` uniform block whose per-row
    ranking of the heavy processor's tasks is the probe order, both read in
    one ``rng.random`` call.  This matches the loop implementation in
    distribution (uniform candidate, uniform without-replacement probe
    order) but not draw for draw, since the loop's draw count depends on
    each schedule.

    Within a round a row's state changes only when it accepts a swap, and
    acceptance ends its probing, so every probe slot is scored at once
    against the round's starting completion times (the cheap-estimate split
    of :func:`repro.ga.fitness.swap_completion_delta`: a swap moves only the
    two processors' execution terms).  Each row then takes its first viable
    improving slot.  This equals scoring the slots one after another.
    """
    pop, n_tasks = assignments.shape
    n_procs = completions.shape[1]
    per_problem = pop // len(rngs)
    # A group of one reads its problem's tables without per-row offsets.
    sizes, size_offsets = group.sizes, group.size_offsets
    rates, rate_offsets = group.rates, group.rate_offsets
    stacked = size_offsets is not None
    psi = group.psi
    slots = min(max_probes, n_tasks)
    row_ids = np.arange(pop)
    row_starts = row_ids * n_tasks
    slot_ids = np.arange(slots)
    # Sort keys of the tasks off the heavy processor: above every probe key
    # in [0, 1), in task order.
    other_keys = np.arange(2.0, n_tasks + 2.0)
    # Flat index of each (row, slot) trial row's first element in the
    # (pop·slots, M) trial matrix, and the ψ of each trial row.
    trial_starts = np.arange(0, pop * slots * n_procs, n_procs).reshape(pop, slots)
    trial_psi = np.repeat(psi, slots, axis=0) if stacked else psi

    errors = np.sqrt(((completions - psi) ** 2).sum(axis=1))
    accepted = False
    for _ in range(n_rebalances):
        heavy = completions.argmax(axis=1)
        heavy_mask = assignments == heavy[:, None]
        heavy_counts = heavy_mask.sum(axis=1)
        other_counts = n_tasks - heavy_counts
        # A row can swap only with tasks both on and off its heavy processor;
        # its probe slots past this limit are not viable.
        probe_limit = np.where(other_counts > 0, heavy_counts, 0)

        # Each problem reads the round's candidate uniforms and probe keys in
        # one call: the same values, in the same order, as two calls.
        draws = random_rows(rngs, (per_problem * (n_tasks + 1),)).reshape(len(rngs), -1)
        if not probe_limit.any():
            continue
        candidate_uniform = draws[:, :per_problem].ravel()
        probe_keys = draws[:, per_problem:].reshape(pop, n_tasks)

        # One sort ranks each row's heavy-processor tasks by their random keys
        # (the probe order) followed by its other tasks in index order.
        order = np.where(heavy_mask, probe_keys, other_keys).argsort(axis=1)
        probes = order[:, :slots]
        probe_size = sizes[probes + size_offsets[:, None] if stacked else probes]
        # Candidate: the k-th task (uniform k) not on the heavy processor.
        # (Rows without such a task get an arbitrary one; no slot is viable.)
        k = np.minimum((candidate_uniform * other_counts).astype(int), other_counts - 1)
        candidate = order.ravel()[row_starts + heavy_counts + k]
        candidate_proc = assignments[row_ids, candidate]
        candidate_size = sizes[candidate + size_offsets if stacked else candidate]
        viable = (candidate_size[:, None] < probe_size) & (slot_ids < probe_limit[:, None])

        # Completion times after each slot's swap, one trial row per slot.
        delta = candidate_size[:, None] - probe_size
        trials = completions.repeat(slots, axis=0)
        flat_trials = trials.reshape(-1)
        heavy_rate = rates[heavy + rate_offsets if stacked else heavy]
        candidate_rate = rates[candidate_proc + rate_offsets if stacked else candidate_proc]
        flat_trials[trial_starts + heavy[:, None]] += delta / heavy_rate[:, None]
        flat_trials[trial_starts + candidate_proc[:, None]] -= delta / candidate_rate[:, None]
        new_errors = np.sqrt(((trials - trial_psi) ** 2).sum(axis=1)).reshape(pop, slots)

        improving = viable & (new_errors < errors[:, None])
        first = improving.argmax(axis=1)
        hits = improving[row_ids, first].nonzero()[0]
        if hits.size == 0:
            continue
        accepted = True
        hit_slots = first[hits]
        probe_tasks = probes[hits, hit_slots]
        candidate_tasks = candidate[hits]
        assignments[hits, probe_tasks] = candidate_proc[hits]
        assignments[hits, candidate_tasks] = heavy[hits]
        completions[hits] = trials[hits * slots + hit_slots]
        errors[hits] = new_errors[hits, hit_slots]
        # Mirror each accepted task swap into the chromosome row: the two
        # task genes exchange positions, exactly like the loop reference.
        chromosomes = population[hits]
        probe_pos = (chromosomes == probe_tasks[:, None]).argmax(axis=1)
        cand_pos = (chromosomes == candidate_tasks[:, None]).argmax(axis=1)
        population[hits, probe_pos] = candidate_tasks
        population[hits, cand_pos] = probe_tasks
    return accepted


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class KernelBackend(ABC):
    """One implementation of the GA's per-generation population transforms.

    The engine owns the evaluation loop, elitism and the stopping logic; a
    backend supplies decoding, re-balancing, crossover and mutation over the
    stacked population matrix of a :class:`~repro.ga.problem.ProblemGroup`
    (``rngs[k]`` is problem ``k``'s generator).  The random *draws* of
    crossover and mutation — the gate blocks and swap-position blocks of the
    module-level draw-order contract — are made here in the base class, so
    every backend reads the identical streams by construction; subclasses
    only implement how the drawn operations are *applied* to the matrix.
    """

    @abstractmethod
    def decode(self, population: np.ndarray, group: ProblemGroup) -> np.ndarray:
        """Decode the ``(K·P, L)`` chromosome matrix into ``(K·P, H)`` assignments."""

    @abstractmethod
    def rebalance(
        self,
        population: np.ndarray,
        assignments: np.ndarray,
        completions: np.ndarray,
        group: ProblemGroup,
        n_rebalances: int,
        rngs: Sequence[np.random.Generator],
        max_probes: int,
    ) -> bool:
        """Re-balance every individual, updating all three matrices in place.

        Returns whether any individual accepted a swap.
        """

    def crossover(
        self,
        parents: np.ndarray,
        operator: CrossoverOperator,
        rate: float,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Cross consecutive parent pairs of each problem in place, gated per pair by *rate*."""
        per_problem = parents.shape[0] // len(rngs)
        n_pairs = per_problem // 2
        if n_pairs == 0:
            return parents
        # Contract stage 2: one block per problem.  Pair g (over all
        # problems) starts at row 2g, shifted by one row per earlier problem
        # when an odd population leaves each problem's last row unpaired.
        crossing = (random_rows(rngs, (n_pairs,)) < rate).nonzero()[0]
        if crossing.size:
            first_rows = 2 * crossing
            if per_problem % 2:
                first_rows += crossing // n_pairs
            self._apply_crossover(parents, first_rows, operator, rngs, per_problem)
        return parents

    def mutate(
        self,
        population: np.ndarray,
        rate: float,
        n_swaps: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Swap-mutate individuals in place, gated per individual by *rate*."""
        rows_total, length = population.shape
        per_problem = rows_total // len(rngs)
        # Contract stage 4: one block per problem.
        rows = (random_rows(rngs, (per_problem,)) < rate).nonzero()[0]
        if rows.size == 0 or length < 2 or n_swaps == 0:
            return population
        # Contract stage 5, per problem in problem order (rows ascend).
        if len(rngs) == 1:
            i_pos, j_pos = draw_swap_positions(rngs[0], rows.size, n_swaps, length)
        else:
            counts = np.bincount(rows // per_problem, minlength=len(rngs)).tolist()
            draws = [
                draw_swap_positions(rng, count, n_swaps, length)
                for rng, count in zip(rngs, counts)
                if count
            ]
            i_pos = np.concatenate([i for i, _ in draws])
            j_pos = np.concatenate([j for _, j in draws])
        self._apply_swaps(population, rows, i_pos, j_pos)
        return population

    @abstractmethod
    def _apply_crossover(
        self,
        parents: np.ndarray,
        first_rows: np.ndarray,
        operator: CrossoverOperator,
        rngs: Sequence[np.random.Generator],
        per_problem: int,
    ) -> None:
        """Cross the gated pairs (rows ``first_rows`` and ``first_rows + 1``) in place."""

    @abstractmethod
    def _apply_swaps(
        self,
        population: np.ndarray,
        rows: np.ndarray,
        i_pos: np.ndarray,
        j_pos: np.ndarray,
    ) -> None:
        """Apply the drawn swap-position pairs to the mutated rows in place."""

    @staticmethod
    def _cross_pairs_sequentially(
        parents: np.ndarray,
        first_rows: np.ndarray,
        operator: CrossoverOperator,
        rngs: Sequence[np.random.Generator],
        per_problem: int,
    ) -> None:
        """Contract stage 3: apply the operator pair by pair in ascending order,
        each pair drawing from its problem's generator."""
        for first in first_rows.tolist():
            child_a, child_b = operator.cross(
                parents[first], parents[first + 1], rng=rngs[first // per_problem]
            )
            parents[first] = child_a
            parents[first + 1] = child_b

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class VectorizedBackend(KernelBackend):
    """Array-native backend: every stage operates on the whole population matrix."""

    def decode(self, population: np.ndarray, group: ProblemGroup) -> np.ndarray:
        return decode_population(population, group.n_tasks, group.n_processors)

    def rebalance(
        self,
        population: np.ndarray,
        assignments: np.ndarray,
        completions: np.ndarray,
        group: ProblemGroup,
        n_rebalances: int,
        rngs: Sequence[np.random.Generator],
        max_probes: int,
    ) -> bool:
        return rebalance_group(
            population, assignments, completions, group, n_rebalances, rngs, max_probes
        )

    def _apply_crossover(
        self,
        parents: np.ndarray,
        first_rows: np.ndarray,
        operator: CrossoverOperator,
        rngs: Sequence[np.random.Generator],
        per_problem: int,
    ) -> None:
        # The batch kernel computes cycle crossover specifically, so it only
        # substitutes for the genuine CycleCrossover operator (subclasses may
        # override cross() and must not be silently re-routed).  Every other
        # operator — including ones that draw per pair, like PMX and OX —
        # follows contract stage 3, identical to the loop reference.
        if type(operator) is CycleCrossover:
            second_rows = first_rows + 1
            children_a, children_b = cycle_crossover_batch(
                parents[first_rows], parents[second_rows]
            )
            parents[first_rows] = children_a
            parents[second_rows] = children_b
            return
        self._cross_pairs_sequentially(parents, first_rows, operator, rngs, per_problem)

    def _apply_swaps(
        self,
        population: np.ndarray,
        rows: np.ndarray,
        i_pos: np.ndarray,
        j_pos: np.ndarray,
    ) -> None:
        swap_positions_batch(population, rows, i_pos, j_pos)
