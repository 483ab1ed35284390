"""Permutation crossover operators.

The paper uses the **cycle crossover** of Oliver, Smith & Holland (Sect. 3.3),
which preserves the absolute position of symbols: each position of a child
takes its symbol from one of the two parents, and the set of positions taken
from each parent is a union of "cycles" so the child remains a permutation.
PMX and order crossover (OX) are provided as ablation alternatives.

All operators act on chromosomes in the library's encoding: permutations of
the batch task indices plus the distinct negative delimiter symbols (see
:mod:`repro.ga.encoding`).  Because every symbol is distinct, the classic
permutation operators apply unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple

import numpy as np

from ..util.errors import ConfigurationError, EncodingError
from ..util.rng import RNGLike, ensure_rng

__all__ = [
    "CrossoverOperator",
    "CycleCrossover",
    "PartiallyMappedCrossover",
    "OrderCrossover",
    "crossover_from_name",
    "find_cycles",
]


def _check_parents(parent_a: np.ndarray, parent_b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(parent_a, dtype=int)
    b = np.asarray(parent_b, dtype=int)
    if a.shape != b.shape or a.ndim != 1:
        raise EncodingError("parents must be 1-D arrays of equal length")
    if not np.array_equal(np.sort(a), np.sort(b)):
        raise EncodingError("parents must be permutations of the same symbol set")
    if len(np.unique(a)) != a.size:
        raise EncodingError("parents must not contain repeated symbols")
    return a, b


def find_cycles(parent_a: np.ndarray, parent_b: np.ndarray) -> List[List[int]]:
    """Return the index cycles of the pair (used by cycle crossover).

    Starting from an unvisited position ``i``, the cycle is built by repeatedly
    jumping to the position in ``parent_a`` holding the symbol found at the
    current position of ``parent_b``, until the walk returns to ``i``.
    """
    a, b = _check_parents(parent_a, parent_b)
    position_of: Dict[int, int] = {int(symbol): idx for idx, symbol in enumerate(a)}
    visited = np.zeros(a.size, dtype=bool)
    cycles: List[List[int]] = []
    for start in range(a.size):
        if visited[start]:
            continue
        cycle = []
        current = start
        while not visited[current]:
            visited[current] = True
            cycle.append(current)
            current = position_of[int(b[current])]
        cycles.append(cycle)
    return cycles


class CrossoverOperator(ABC):
    """Base class: combine two parent chromosomes into two children."""

    name: str = "crossover"
    #: True when :meth:`cross` makes no random draws of its own (its output is
    #: fully determined by the parents), which makes the operator bit-identical
    #: across the kernel backends for a fixed seed.  Operators that draw (PMX,
    #: OX) are applied pair by pair in ascending pair order by every backend —
    #: the RNG draw-order contract of :mod:`repro.ga.kernels`.
    deterministic_given_draws: bool = False

    @abstractmethod
    def cross(
        self, parent_a: np.ndarray, parent_b: np.ndarray, rng: RNGLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return two child chromosomes."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class CycleCrossover(CrossoverOperator):
    """Cycle crossover (CX) — the paper's operator.

    Cycles are assigned alternately to the two children: child 1 copies the
    even-numbered cycles from parent A and the odd-numbered cycles from
    parent B (child 2 the reverse), so every position keeps a symbol that one
    of its parents had at that same position.
    """

    name = "cycle"
    deterministic_given_draws = True

    def cross(
        self, parent_a: np.ndarray, parent_b: np.ndarray, rng: RNGLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        a, b = _check_parents(parent_a, parent_b)
        child_a = a.copy()
        child_b = b.copy()
        for k, cycle in enumerate(find_cycles(a, b)):
            if k % 2 == 1:  # odd cycles swap parental material
                idx = np.asarray(cycle, dtype=int)
                child_a[idx] = b[idx]
                child_b[idx] = a[idx]
        return child_a, child_b


class PartiallyMappedCrossover(CrossoverOperator):
    """PMX — ablation alternative preserving a contiguous segment of one parent."""

    name = "pmx"

    def _pmx_child(
        self, donor: np.ndarray, other: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        child = np.full(donor.size, None, dtype=object)
        child[lo:hi] = donor[lo:hi]
        placed = set(int(x) for x in donor[lo:hi])
        mapping = {int(donor[i]): int(other[i]) for i in range(lo, hi)}
        for i in list(range(0, lo)) + list(range(hi, donor.size)):
            candidate = int(other[i])
            guard = 0
            while candidate in placed:
                candidate = mapping[candidate]
                guard += 1
                if guard > donor.size:
                    raise EncodingError("PMX mapping failed to resolve (corrupt parents)")
            child[i] = candidate
            placed.add(candidate)
        return child.astype(int)

    def cross(
        self, parent_a: np.ndarray, parent_b: np.ndarray, rng: RNGLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        a, b = _check_parents(parent_a, parent_b)
        gen = ensure_rng(rng)
        if a.size < 2:
            return a.copy(), b.copy()
        lo, hi = sorted(gen.choice(a.size + 1, size=2, replace=False).tolist())
        if lo == hi:
            return a.copy(), b.copy()
        return self._pmx_child(a, b, lo, hi), self._pmx_child(b, a, lo, hi)


class OrderCrossover(CrossoverOperator):
    """Order crossover (OX1) — ablation alternative preserving relative order."""

    name = "order"

    def _ox_child(self, donor: np.ndarray, other: np.ndarray, lo: int, hi: int) -> np.ndarray:
        child = np.full(donor.size, 0, dtype=int)
        child[lo:hi] = donor[lo:hi]
        used = set(int(x) for x in donor[lo:hi])
        fill = [int(x) for x in np.concatenate([other[hi:], other[:hi]]) if int(x) not in used]
        positions = list(range(hi, donor.size)) + list(range(0, lo))
        for pos, value in zip(positions, fill):
            child[pos] = value
        return child

    def cross(
        self, parent_a: np.ndarray, parent_b: np.ndarray, rng: RNGLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        a, b = _check_parents(parent_a, parent_b)
        gen = ensure_rng(rng)
        if a.size < 2:
            return a.copy(), b.copy()
        lo, hi = sorted(gen.choice(a.size + 1, size=2, replace=False).tolist())
        if lo == hi:
            return a.copy(), b.copy()
        return self._ox_child(a, b, lo, hi), self._ox_child(b, a, lo, hi)


def crossover_from_name(name: str, **kwargs) -> CrossoverOperator:
    """Construct a crossover operator by name (``cycle``, ``pmx``, ``order``)."""
    registry = {
        "cycle": CycleCrossover,
        "cx": CycleCrossover,
        "pmx": PartiallyMappedCrossover,
        "order": OrderCrossover,
        "ox": OrderCrossover,
    }
    key = str(name).strip().lower()
    if key not in registry:
        raise ConfigurationError(
            f"unknown crossover operator {name!r}; expected one of {sorted(set(registry))}"
        )
    return registry[key](**kwargs)
