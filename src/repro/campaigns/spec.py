"""Declarative campaign specifications.

A :class:`CampaignSpec` names everything one durable experimental campaign
covers — a set of the paper's figures, a scenario matrix, GA parameter
sweeps — plus the scale and master seed, all as plain JSON data.  Campaign *cells* (one figure, one scenario-matrix cell, one GA run)
are expanded from the spec deterministically, so the same spec always
produces the same cell list with the same content-addressed cache keys: a
re-run (or a resume after an interruption) recomputes only the cells whose
results are not yet in the store.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

from ..experiments.config import ExperimentScale, SCALES, get_scale
from ..experiments.figures import FIGURES
from ..experiments.sweep import require_ga_field, sweep_configs
from ..scenarios.registry import scenario_names
from ..schedulers.registry import ALL_SCHEDULER_NAMES
from ..util.errors import ConfigurationError

logger = logging.getLogger("repro.campaigns")

__all__ = ["SweepSpec", "CampaignSpec"]

#: Manifest keys of backend selections that no longer exist.  Every run now
#: takes the one production path its input selects, so an old manifest that
#: names a backend loads without it (with a warning) and recomputes.
RETIRED_KEYS = ("ga_backend", "sim_backend", "policy_backend")

#: Scalar types admissible as swept values (must survive a JSON round trip).
_SCALAR_TYPES = (bool, int, float, str)


@dataclass(frozen=True)
class SweepSpec:
    """One GA parameter sweep inside a campaign.

    ``values`` are the swept :class:`~repro.ga.engine.GAConfig` field values
    (JSON scalars); ``repeats`` overrides the scale's repeat count for this
    sweep only.
    """

    parameter: str
    values: Tuple[object, ...]
    repeats: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.parameter or not str(self.parameter).strip():
            raise ConfigurationError("sweep parameter must be non-empty")
        require_ga_field(self.parameter)
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ConfigurationError(
                f"sweep of {self.parameter!r} needs at least one value"
            )
        for value in self.values:
            if not isinstance(value, _SCALAR_TYPES):
                raise ConfigurationError(
                    f"sweep value {value!r} is not a JSON scalar"
                )
        if len(set(self.values)) != len(self.values):
            raise ConfigurationError(
                f"duplicate values in sweep of {self.parameter!r}: {list(self.values)}"
            )
        if self.repeats is not None and int(self.repeats) <= 0:
            raise ConfigurationError(f"repeats must be positive, got {self.repeats}")


@dataclass(frozen=True)
class CampaignSpec:
    """Everything one campaign runs, as plain JSON-serialisable data.

    Attributes
    ----------
    name:
        Campaign identifier; the manifest persists under this name inside
        the result store.
    scale:
        Name of the :class:`~repro.experiments.config.ExperimentScale`
        preset sizing every unit (``smoke`` … ``paper``).
    seed:
        Master seed.  Figure units receive it directly (matching ``repro
        fig5 --seed N``); scenario cells draw their per-cell entropy from it
        in matrix order (matching ``repro scenarios run --seed N``); sweeps
        derive their problems and GA seeds from it.
    figures:
        Figure ids to reproduce (``"fig3"`` … ``"fig11"``).
    scenarios:
        Scenario library names forming one (scenario × scheduler × repeat)
        matrix.
    schedulers:
        Optional scheduler subset for the scenario matrix (default: each
        scenario's own set).
    repeats:
        Optional repeat override for the scenario matrix.
    sweeps:
        GA parameter sweeps.
    """

    name: str
    scale: str = "small"
    seed: int = 42
    figures: Tuple[str, ...] = ()
    scenarios: Tuple[str, ...] = ()
    schedulers: Optional[Tuple[str, ...]] = None
    repeats: Optional[int] = None
    sweeps: Tuple[SweepSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ConfigurationError("campaign name must be non-empty")
        if self.scale not in SCALES:
            raise ConfigurationError(
                f"unknown scale {self.scale!r}; expected one of {sorted(SCALES)}"
            )
        object.__setattr__(self, "figures", tuple(self.figures))
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "sweeps", tuple(self.sweeps))
        if self.schedulers is not None:
            object.__setattr__(self, "schedulers", tuple(self.schedulers))
        if not (self.figures or self.scenarios or self.sweeps):
            raise ConfigurationError(
                f"campaign {self.name!r} is empty: give it figures, scenarios "
                "and/or sweeps"
            )
        unknown_figures = [f for f in self.figures if f not in FIGURES]
        if unknown_figures:
            raise ConfigurationError(
                f"unknown figures {unknown_figures}; expected among {list(FIGURES)}"
            )
        if len(set(self.figures)) != len(self.figures):
            raise ConfigurationError(f"duplicate figures: {list(self.figures)}")
        known_scenarios = set(scenario_names())
        unknown_scenarios = [s for s in self.scenarios if s not in known_scenarios]
        if unknown_scenarios:
            raise ConfigurationError(
                f"unknown scenarios {unknown_scenarios}; "
                f"expected among {scenario_names()}"
            )
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ConfigurationError(f"duplicate scenarios: {list(self.scenarios)}")
        if self.schedulers is not None:
            bad = [s for s in self.schedulers if s.upper() not in ALL_SCHEDULER_NAMES]
            if bad:
                raise ConfigurationError(f"unknown schedulers: {bad}")
        if self.repeats is not None and int(self.repeats) <= 0:
            raise ConfigurationError(f"repeats must be positive, got {self.repeats}")
        parameters = [sweep.parameter for sweep in self.sweeps]
        if len(set(parameters)) != len(parameters):
            raise ConfigurationError(f"duplicate sweep parameters: {parameters}")
        # Every swept value must make a valid GA configuration at this scale,
        # so a spec that would fail mid-run is refused before any work.
        for sweep in self.sweeps:
            sweep_configs(sweep.parameter, sweep.values, scale=self.experiment_scale())

    def experiment_scale(self) -> ExperimentScale:
        """The scale preset the campaign runs at."""
        return get_scale(self.scale)

    def to_dict(self) -> Dict:
        """JSON-ready form, persisted in the campaign manifest."""
        payload = asdict(self)
        payload["figures"] = list(self.figures)
        payload["scenarios"] = list(self.scenarios)
        payload["schedulers"] = (
            list(self.schedulers) if self.schedulers is not None else None
        )
        payload["sweeps"] = [
            {
                "parameter": sweep.parameter,
                "values": list(sweep.values),
                "repeats": sweep.repeats,
            }
            for sweep in self.sweeps
        ]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output (manifest resume).

        Keys of retired backend selections (:data:`RETIRED_KEYS`) are dropped
        with one warning each, so manifests written before their removal
        still resume (on the default path, under new cache keys).
        """
        for key in RETIRED_KEYS:
            if payload.get(key) is not None:
                logger.warning(
                    "campaign %r: ignoring retired option %s=%r; every run takes the "
                    "default path now",
                    payload.get("name"),
                    key,
                    payload[key],
                )
        sweeps = tuple(
            SweepSpec(
                parameter=entry["parameter"],
                values=tuple(entry["values"]),
                repeats=entry.get("repeats"),
            )
            for entry in payload.get("sweeps", ())
        )
        schedulers = payload.get("schedulers")
        return cls(
            name=payload["name"],
            scale=payload.get("scale", "small"),
            seed=int(payload.get("seed", 42)),
            figures=tuple(payload.get("figures", ())),
            scenarios=tuple(payload.get("scenarios", ())),
            schedulers=tuple(schedulers) if schedulers is not None else None,
            repeats=payload.get("repeats"),
            sweeps=sweeps,
        )
