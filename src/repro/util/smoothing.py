"""Exponential smoothing (the paper's Γ function, Sect. 3.6).

The paper defines, for a sequence ``a_1, a_2, ...`` a representative value

    Γ_0 = a_1
    Γ_i = Γ_{i-1} + ν (a_i − Γ_{i-1})

with smoothing factor ``ν ∈ [0, 1]``: ``ν = 0`` freezes the representative
value at the first observation, ``ν = 1`` makes it follow the most recent
observation exactly.  The scheduler uses Γ to track per-link communication
costs, per-processor availability and the time-until-idle estimate used to
choose the next batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Optional

from .errors import ConfigurationError

__all__ = ["NU", "ExponentialSmoother", "SmoothedMap", "smooth_sequence"]

#: The smoothing factor ν of the scheduler's Γ estimates of communication
#: costs and processor rates (the master's and PN's own).
NU = 0.5


@dataclass
class ExponentialSmoother:
    """Track the smoothed representative value of a scalar sequence.

    Parameters
    ----------
    nu:
        Smoothing factor ``ν ∈ [0, 1]``; the weight given to the most recent
        observation.
    initial:
        Optional starting value.  When omitted the first observation becomes
        the initial representative value, matching the paper's ``Γ_0 = a_1``.

    Examples
    --------
    >>> s = ExponentialSmoother(nu=0.5)
    >>> s.update(10.0)
    10.0
    >>> s.update(20.0)
    15.0
    >>> s.value
    15.0
    """

    nu: float = 0.5
    initial: Optional[float] = None
    _value: Optional[float] = field(default=None, init=False, repr=False)
    _count: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.nu <= 1.0):
            raise ConfigurationError(f"smoothing factor nu must be in [0, 1], got {self.nu}")
        if self.initial is not None:
            self._value = float(self.initial)

    @property
    def value(self) -> Optional[float]:
        """Current representative value, or ``None`` before any observation."""
        return self._value

    @property
    def count(self) -> int:
        """Number of observations folded into the representative value."""
        return self._count

    @property
    def is_initialised(self) -> bool:
        """Whether at least one observation (or an initial value) is present."""
        return self._value is not None

    def update(self, observation: float) -> float:
        """Fold *observation* into the representative value and return it."""
        obs = float(observation)
        if self._value is None:
            self._value = obs
        else:
            self._value = self._value + self.nu * (obs - self._value)
        self._count += 1
        return self._value

    def peek(self, default: float = 0.0) -> float:
        """Return the representative value, or *default* if uninitialised."""
        return self._value if self._value is not None else default

    def reset(self, initial: Optional[float] = None) -> None:
        """Discard all history, optionally seeding a new initial value."""
        self._value = None if initial is None else float(initial)
        self._count = 0


class SmoothedMap:
    """A dictionary of independently smoothed values, keyed by hashable ids.

    Used for per-processor and per-link estimates where each key follows its
    own Γ sequence but shares a common smoothing factor.
    """

    def __init__(self, nu: float = 0.5, default: float = 0.0) -> None:
        if not (0.0 <= nu <= 1.0):
            raise ConfigurationError(f"smoothing factor nu must be in [0, 1], got {nu}")
        self.nu = nu
        self.default = float(default)
        self._smoothers: Dict[Hashable, ExponentialSmoother] = {}

    def update(self, key: Hashable, observation: float) -> float:
        """Fold *observation* into the smoother for *key*."""
        smoother = self._smoothers.get(key)
        if smoother is None:
            smoother = ExponentialSmoother(nu=self.nu)
            self._smoothers[key] = smoother
        return smoother.update(observation)

    def get(self, key: Hashable, default: Optional[float] = None) -> float:
        """Representative value for *key* (falls back to the map default)."""
        smoother = self._smoothers.get(key)
        if smoother is None or smoother.value is None:
            return self.default if default is None else default
        return smoother.value

    def known_keys(self) -> list:
        """Keys that have received at least one observation."""
        return [k for k, s in self._smoothers.items() if s.is_initialised]

    def observation_count(self, key: Hashable) -> int:
        """Number of observations folded in for *key*."""
        smoother = self._smoothers.get(key)
        return 0 if smoother is None else smoother.count

    def reset(self) -> None:
        """Forget every key."""
        self._smoothers.clear()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._smoothers

    def __len__(self) -> int:
        return len(self._smoothers)


def smooth_sequence(values: Iterable[float], nu: float) -> list[float]:
    """Return the full Γ sequence for *values* with smoothing factor ``ν``.

    Convenience wrapper used by tests and by offline analysis of resource
    traces; equivalent to repeatedly calling
    :meth:`ExponentialSmoother.update`.
    """
    smoother = ExponentialSmoother(nu=nu)
    return [smoother.update(v) for v in values]
