"""Selection operators.

The paper uses the classic fitness-proportionate ("weighted roulette wheel")
selection (Sect. 3.3): each individual ``i`` occupies a slot of size
``ς_i = F_i / Σ_j F_j`` on the wheel and the next generation is drawn from
those slots with replacement.  Tournament and rank selection are provided as
ablation alternatives.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, ensure_rng
from ..util.validation import require_positive_int

__all__ = [
    "SelectionOperator",
    "RouletteWheelSelection",
    "TournamentSelection",
    "RankSelection",
    "selection_from_name",
    "roulette_probabilities",
    "roulette_select",
]


def roulette_probabilities(fitness: np.ndarray) -> np.ndarray:
    """Slot sizes ``ς_i = F_i / Σ F_j`` of the roulette wheel.

    Degenerate inputs (all-zero or non-finite fitness) fall back to a uniform
    wheel so selection never fails outright.
    """
    fitness = np.asarray(fitness, dtype=float)
    if fitness.ndim != 1 or fitness.size == 0:
        raise ConfigurationError("fitness must be a non-empty 1-D array")
    safe = np.where(np.isfinite(fitness) & (fitness > 0), fitness, 0.0)
    total = safe.sum()
    if total <= 0:
        return np.full(fitness.size, 1.0 / fitness.size)
    return safe / total


def roulette_select(fitness: np.ndarray, n: int, rng: RNGLike = None) -> np.ndarray:
    """Draw *n* roulette-wheel parent indices with a fixed draw contract.

    Consumes exactly ``n`` uniforms in one ``rng.random(n)`` block and maps
    them through the wheel's normalised cumulative distribution — the same
    spins ``numpy``'s ``Generator.choice`` performs internally, but spelled
    out so the GA's RNG draw-order contract (see :mod:`repro.ga.kernels`)
    does not depend on ``numpy`` internals.  Both kernel backends select
    parents through this function, so selection is bit-identical between
    them for a fixed seed.
    """
    n = require_positive_int(n, "number of selections")
    gen = ensure_rng(rng)
    probabilities = roulette_probabilities(np.asarray(fitness, dtype=float))
    wheel = probabilities.cumsum()
    wheel /= wheel[-1]
    return wheel.searchsorted(gen.random(n), side="right").astype(np.int64)


class SelectionOperator(ABC):
    """Base class of selection operators: map fitness values to parent indices."""

    name: str = "selection"

    @abstractmethod
    def select(self, fitness: np.ndarray, n: int, rng: RNGLike = None) -> np.ndarray:
        """Return *n* selected individual indices (with replacement)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RouletteWheelSelection(SelectionOperator):
    """Fitness-proportionate selection (the paper's operator)."""

    name = "roulette"

    def select(self, fitness: np.ndarray, n: int, rng: RNGLike = None) -> np.ndarray:
        return roulette_select(fitness, n, rng=rng)


class TournamentSelection(SelectionOperator):
    """k-way tournament selection (ablation alternative)."""

    name = "tournament"

    def __init__(self, tournament_size: int = 2):
        self.tournament_size = require_positive_int(tournament_size, "tournament_size")

    def select(self, fitness: np.ndarray, n: int, rng: RNGLike = None) -> np.ndarray:
        n = require_positive_int(n, "number of selections")
        fitness = np.asarray(fitness, dtype=float)
        if fitness.size == 0:
            raise ConfigurationError("fitness must be non-empty")
        gen = ensure_rng(rng)
        k = min(self.tournament_size, fitness.size)
        contenders = gen.integers(0, fitness.size, size=(n, k))
        winners = contenders[np.arange(n), np.argmax(fitness[contenders], axis=1)]
        return winners


class RankSelection(SelectionOperator):
    """Linear rank-based selection (ablation alternative).

    Individuals are ranked by fitness; selection probability is linear in
    rank, which removes sensitivity to the absolute fitness scale.
    """

    name = "rank"

    def select(self, fitness: np.ndarray, n: int, rng: RNGLike = None) -> np.ndarray:
        n = require_positive_int(n, "number of selections")
        fitness = np.asarray(fitness, dtype=float)
        if fitness.size == 0:
            raise ConfigurationError("fitness must be non-empty")
        gen = ensure_rng(rng)
        order = np.argsort(np.argsort(fitness))  # rank 0 = worst
        weights = (order + 1).astype(float)
        probabilities = weights / weights.sum()
        return gen.choice(fitness.size, size=n, replace=True, p=probabilities)


def selection_from_name(name: str, **kwargs) -> SelectionOperator:
    """Construct a selection operator by name (``roulette``, ``tournament``, ``rank``)."""
    registry = {
        "roulette": RouletteWheelSelection,
        "tournament": TournamentSelection,
        "rank": RankSelection,
    }
    key = name.strip().lower()
    if key not in registry:
        raise ConfigurationError(
            f"unknown selection operator {name!r}; expected one of {sorted(registry)}"
        )
    return registry[key](**kwargs)
