"""Selection operators.

The paper uses the classic fitness-proportionate ("weighted roulette wheel")
selection (Sect. 3.3): each individual ``i`` occupies a slot of size
``ς_i = F_i / Σ_j F_j`` on the wheel and the next generation is drawn from
those slots with replacement.  Tournament and rank selection are provided as
ablation alternatives.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, ensure_rng, random_rows
from ..util.validation import require_positive_int

__all__ = [
    "SelectionOperator",
    "RouletteWheelSelection",
    "TournamentSelection",
    "RankSelection",
    "selection_from_name",
    "roulette_probabilities",
    "roulette_rows",
    "roulette_select",
]


def roulette_probabilities(fitness: np.ndarray) -> np.ndarray:
    """Slot sizes ``ς_i = F_i / Σ F_j`` of the roulette wheel, one wheel per
    row of a 2-D *fitness*.

    Degenerate inputs (all-zero or non-finite fitness) fall back to a uniform
    wheel so selection never fails outright.  A row of finite slots whose sum
    overflows is divided by its largest slot first, so its wheel stays
    proportional to fitness.  Each row is summed along its contiguous axis,
    pairwise like a 1-D sum, so a row's slots are the same alone or stacked
    with other rows.
    """
    fitness = np.asarray(fitness, dtype=float)
    if fitness.ndim not in (1, 2) or fitness.size == 0:
        raise ConfigurationError("fitness must be a non-empty 1-D or 2-D array")
    safe = np.where(np.isfinite(fitness) & (fitness > 0), fitness, 0.0)
    total = safe.sum(axis=-1, keepdims=True)
    overflow = total == np.inf
    if np.count_nonzero(overflow):
        # Dividing by 1.0 is exact, so rows with a finite total keep their bits.
        safe = safe / np.where(overflow, safe.max(axis=-1, keepdims=True), 1.0)
        total = safe.sum(axis=-1, keepdims=True)
    if np.count_nonzero(total) < total.size:
        empty = total == 0
        safe = np.where(empty, 1.0, safe)
        total = np.where(empty, fitness.shape[-1], total)
    return safe / total


def _wheel(fitness: np.ndarray) -> np.ndarray:
    """The normalised cumulative distribution of each wheel, spun by ``searchsorted``."""
    wheel = roulette_probabilities(fitness).cumsum(axis=-1)
    wheel /= wheel[..., -1:]
    return wheel


def roulette_select(fitness: np.ndarray, n: int, rng: RNGLike = None) -> np.ndarray:
    """Draw *n* roulette-wheel parent indices with a fixed draw contract.

    Consumes exactly ``n`` uniforms in one ``rng.random(n)`` block and maps
    them through the wheel's normalised cumulative distribution — the same
    spins ``numpy``'s ``Generator.choice`` performs internally, but spelled
    out so the GA's RNG draw-order contract (see :mod:`repro.ga.kernels`)
    does not depend on ``numpy`` internals.  Every kernel backend selects
    parents through this wheel, so selection is bit-identical between them
    for a fixed seed.
    """
    n = require_positive_int(n, "number of selections")
    gen = ensure_rng(rng)
    fitness = np.asarray(fitness, dtype=float)
    if fitness.ndim != 1:
        raise ConfigurationError("fitness must be a non-empty 1-D array")
    return _wheel(fitness).searchsorted(gen.random(n), side="right").astype(np.int64)


def roulette_rows(fitness: np.ndarray, spins: np.ndarray) -> np.ndarray:
    """Spin the roulette wheel of each row of the ``(K, P)`` *fitness* matrix.

    Row ``k`` of *spins* holds the uniforms spun on row ``k``'s wheel; the
    result holds each row's picked indices, in *spins*' shape, each equal to
    :func:`roulette_select`'s pick for that row and uniform.
    """
    picks = np.empty(spins.shape, dtype=np.int64)
    for k, row in enumerate(_wheel(fitness)):
        picks[k] = row.searchsorted(spins[k], side="right")
    return picks


class SelectionOperator(ABC):
    """Base class of selection operators: map fitness values to parent indices."""

    name: str = "selection"

    @abstractmethod
    def select(self, fitness: np.ndarray, n: int, rng: RNGLike = None) -> np.ndarray:
        """Return *n* selected individual indices (with replacement)."""

    def select_rows(self, fitness: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Select a full generation for each of ``K`` stacked problems.

        Row ``k`` of the ``(K, P)`` *fitness* matrix is problem ``k``'s
        population, rows ``k·P … k·P + P − 1`` of the stacked population.
        The result holds ``K·P`` indices of stacked rows: problem ``k``'s
        ``P`` parents, drawn from ``rngs[k]`` exactly as
        ``select(fitness[k], P, rngs[k])``.
        """
        n = fitness.shape[1]
        if len(rngs) == 1:
            return self.select(fitness[0], n, rng=rngs[0])
        parents = [self.select(row, n, rng=rng) for row, rng in zip(fitness, rngs)]
        return np.concatenate([rows + k * n for k, rows in enumerate(parents)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RouletteWheelSelection(SelectionOperator):
    """Fitness-proportionate selection (the paper's operator)."""

    name = "roulette"

    def select(self, fitness: np.ndarray, n: int, rng: RNGLike = None) -> np.ndarray:
        return roulette_select(fitness, n, rng=rng)

    def select_rows(self, fitness: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        if len(rngs) == 1:
            return roulette_select(fitness[0], fitness.shape[1], rngs[0])
        # One wheel build serves every stacked problem (cheaper than one per
        # problem from K = 2 on); each spins its own P uniforms, as
        # ``select`` would draw them.
        n_rows, n = fitness.shape
        picks = roulette_rows(fitness, random_rows(rngs, (n,)).reshape(n_rows, n))
        picks += np.arange(0, n_rows * n, n)[:, None]
        return picks.ravel()


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
    key = str(name).strip().lower()
    if key not in registry:
        raise ConfigurationError(
            f"unknown selection operator {name!r}; expected one of {sorted(registry)}"
        )
    return registry[key](**kwargs)
