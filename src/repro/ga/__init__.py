"""Genetic-algorithm machinery: encoding, fitness, operators and the engine."""

from .crossover import (
    CrossoverOperator,
    CycleCrossover,
    OrderCrossover,
    PartiallyMappedCrossover,
    crossover_from_name,
    find_cycles,
)
from .encoding import (
    assignment_to_queues,
    chromosome_from_queues,
    chromosome_length,
    decode_assignment,
    decode_queues,
    delimiter_symbols,
    is_delimiter,
    random_chromosome,
    validate_chromosome,
)
from .engine import GAConfig, GAResult, GeneticAlgorithm
from .kernels import (
    KernelBackend,
    VectorizedBackend,
    cycle_crossover_batch,
    decode_population,
    draw_swap_positions,
    rebalance_group,
    swap_positions_batch,
)
from .fitness import (
    FitnessResult,
    completion_times,
    evaluate_assignments,
    evaluate_single,
    makespan_of_assignment,
    swap_completion_delta,
)
from .mutation import (
    RebalanceOutcome,
    apply_position_swaps,
    rebalance_assignment,
    rebalance_many,
    swap_mutation,
)
from .population import (
    list_scheduled_assignment,
    random_population,
    seeded_individual,
    seeded_population,
)
from .problem import BatchProblem, ProblemGroup
from .selection import (
    RankSelection,
    RouletteWheelSelection,
    SelectionOperator,
    TournamentSelection,
    roulette_probabilities,
    roulette_select,
    selection_from_name,
)

__all__ = [
    "BatchProblem",
    "ProblemGroup",
    # encoding
    "chromosome_length",
    "delimiter_symbols",
    "is_delimiter",
    "random_chromosome",
    "chromosome_from_queues",
    "decode_queues",
    "decode_assignment",
    "assignment_to_queues",
    "validate_chromosome",
    # fitness
    "FitnessResult",
    "completion_times",
    "evaluate_assignments",
    "evaluate_single",
    "makespan_of_assignment",
    "swap_completion_delta",
    # selection
    "SelectionOperator",
    "RouletteWheelSelection",
    "TournamentSelection",
    "RankSelection",
    "selection_from_name",
    "roulette_probabilities",
    "roulette_select",
    # crossover
    "CrossoverOperator",
    "CycleCrossover",
    "PartiallyMappedCrossover",
    "OrderCrossover",
    "crossover_from_name",
    "find_cycles",
    # mutation
    "swap_mutation",
    "apply_position_swaps",
    "RebalanceOutcome",
    "rebalance_assignment",
    "rebalance_many",
    # kernels
    "KernelBackend",
    "VectorizedBackend",
    "cycle_crossover_batch",
    "decode_population",
    "draw_swap_positions",
    "swap_positions_batch",
    "rebalance_group",
    # population
    "list_scheduled_assignment",
    "seeded_individual",
    "seeded_population",
    "random_population",
    # engine
    "GAConfig",
    "GAResult",
    "GeneticAlgorithm",
]
