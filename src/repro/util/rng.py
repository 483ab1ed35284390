"""Seeded random-number helpers.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` (fresh entropy).  The helpers in
this module normalise those inputs and derive statistically independent child
streams, so that experiments remain reproducible even when the number of
random draws made by one component changes.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

__all__ = [
    "RNGLike",
    "ensure_rng",
    "spawn_rngs",
    "derive_rng",
    "random_seed",
    "random_rows",
]

#: Accepted forms of randomness sources throughout the library.
RNGLike = Union[None, int, np.integer, np.random.Generator, np.random.SeedSequence]


def ensure_rng(rng: RNGLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *rng*.

    Parameters
    ----------
    rng:
        ``None`` for fresh OS entropy, an integer seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator (returned
        unchanged).

    Raises
    ------
    TypeError
        If *rng* is not one of the accepted types.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(
        f"expected None, int, SeedSequence or numpy Generator, got {type(rng)!r}"
    )


def spawn_rngs(rng: RNGLike, n: int) -> list[np.random.Generator]:
    """Derive *n* statistically independent generators from *rng*.

    The parent generator (if one is passed) is consumed for a single draw to
    obtain a seed, so repeated calls with the same parent produce different
    children while remaining reproducible for a seeded parent.
    """
    if n < 0:
        raise ValueError(f"number of child generators must be >= 0, got {n}")
    parent = ensure_rng(rng)
    seed = int(parent.integers(0, 2**63 - 1))
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def derive_rng(rng: RNGLike, *keys: Union[int, str]) -> np.random.Generator:
    """Derive a child generator identified by *keys* without consuming *rng*.

    This is useful when a deterministic sub-stream is needed for a named
    component (for example the availability model of processor 7), such that
    adding new components does not shift the random draws of existing ones.

    Integer keys are used directly; string keys are hashed with a stable
    (non-salted) scheme.
    """
    material: list[int] = []
    for key in keys:
        if isinstance(key, (int, np.integer)):
            material.append(int(key) & 0xFFFFFFFF)
        elif isinstance(key, str):
            acc = 2166136261
            for ch in key.encode("utf8"):
                acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
            material.append(acc)
        else:
            raise TypeError(f"keys must be int or str, got {type(key)!r}")
    if isinstance(rng, np.random.Generator):
        base = int(rng.bit_generator.seed_seq.entropy or 0)  # type: ignore[union-attr]
    elif isinstance(rng, (int, np.integer)):
        base = int(rng)
    elif rng is None:
        base = 0
    elif isinstance(rng, np.random.SeedSequence):
        base = int(rng.entropy or 0)
    else:
        raise TypeError(f"unsupported rng source {type(rng)!r}")
    seq = np.random.SeedSequence([base & 0xFFFFFFFFFFFF, *material])
    return np.random.default_rng(seq)


def random_seed(rng: RNGLike = None) -> int:
    """Draw a fresh integer seed (suitable for child components) from *rng*."""
    return int(ensure_rng(rng).integers(0, 2**31 - 1))


def random_rows(rngs: Sequence[np.random.Generator], shape: Tuple[int, ...]) -> np.ndarray:
    """``rngs[k].random(shape)`` for every generator, concatenated along axis 0.

    Each generator makes exactly the one draw it would make alone, so
    stacking independent problems' draws leaves every stream bit-identical.
    """
    if len(rngs) == 1:
        return rngs[0].random(shape)
    rows = shape[0]
    out = np.empty((len(rngs) * rows,) + tuple(shape[1:]))
    for k, rng in enumerate(rngs):
        rng.random(out=out[k * rows : (k + 1) * rows])
    return out
