"""Golden digests pinning the figure suite, the scenario matrix, a campaign and the GA.

``tests/goldens.json`` holds sha256 digests of four outputs at seed 0,
scale ``smoke``:

* every figure's :func:`~repro.io.results.figure_to_dict` data, as ``repro
  all`` produces it, minus the ``executor`` labels and fig4's measured
  ``series`` (wall-clock seconds);
* the :meth:`~repro.scenarios.runner.ScenarioMatrixResult.signature` of the
  whole scenario library;
* the aggregates of one campaign (fig5 plus three scenarios);
* one :class:`~repro.ga.engine.GAResult` per case of :data:`GA_CASES`, a
  grid of seeded batch problems and engine configurations (its best
  assignment and queues, makespan history and generation count).

The matrix and campaign digests are asserted twice: as-is, and with
:meth:`DistributedSystemSimulation.uses_fast_path` forced to ``False``, so
the static fast path and the event engine are both held to the same bits.

Regenerate the file only when a change is *meant* to alter results::

    PYTHONPATH=src python tests/test_goldens.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

import numpy as np

from repro.campaigns import CampaignSpec, ResultStore, run_campaign
from repro.experiments.config import get_scale
from repro.experiments.figures import list_figures, run_figure
from repro.ga import BatchProblem, GAConfig, GeneticAlgorithm
from repro.io.results import figure_to_dict
from repro.scenarios.registry import scenario_names
from repro.scenarios.runner import run_scenario_matrix
from repro.sim.simulation import DistributedSystemSimulation

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
SEED = 0
SCALE = "smoke"
CAMPAIGN_FIGURES = ("fig5",)
CAMPAIGN_SCENARIOS = ("steady-state", "failure-storm", "trace-bursty")

#: GA engine cases: ``(seed, n_tasks, n_processors, tie_heavy_sizes, GAConfig
#: kwargs)``; the seed draws the problem and seeds the GA.  They span H in
#: {1, 2, 10, 200} and M in {1, 2, 10, 50}, every ``n_rebalances`` in
#: {0, 1, 5, 50}, probe budgets above H, every crossover and selection
#: operator, seeded and random initialisation, and task sizes drawn from
#: three values so the rebalance's strict size test meets ties.
GA_CASES = {
    "h1_m1": (0, 1, 1, False, dict(max_generations=8)),
    "h1_m10": (1, 1, 10, False, dict(max_generations=8, n_rebalances=5)),
    "h2_m2_tournament": (2, 2, 2, True, dict(max_generations=10, selection="tournament")),
    "h2_m50_rank_pmx": (
        3, 2, 50, False, dict(max_generations=10, selection="rank", crossover="pmx")
    ),
    "h10_m1": (4, 10, 1, True, dict(max_generations=10, n_rebalances=5)),
    "h10_m2_ties_order": (
        5, 10, 2, True, dict(max_generations=20, n_rebalances=5, crossover="order")
    ),
    "h10_m10_inflight": (6, 10, 10, False, dict(max_generations=40)),
    "h10_m10_ties_reb50": (
        7, 10, 10, True, dict(max_generations=30, n_rebalances=50, rebalance_probes=12)
    ),
    "h10_m10_random_init": (
        8, 10, 10, False,
        dict(max_generations=20, seeded_initialisation=False, selection="tournament"),
    ),
    "h10_m50_reb0": (
        10, 10, 50, False, dict(max_generations=15, n_rebalances=0, crossover="order")
    ),
    "h200_m2_reb0_rank": (
        12, 200, 2, False, dict(max_generations=10, n_rebalances=0, selection="rank")
    ),
    "h200_m10_ties_probes": (
        13, 200, 10, True, dict(max_generations=20, n_rebalances=5, rebalance_probes=250)
    ),
    "h200_m50_reb50": (14, 200, 50, True, dict(max_generations=10, n_rebalances=50)),
    "h200_m50_random_pmx": (
        15, 200, 50, False,
        dict(max_generations=10, seeded_initialisation=False, crossover="pmx"),
    ),
}


def digest(payload: object) -> str:
    """sha256 of the canonical JSON form of *payload*."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf8")).hexdigest()


def figure_digests() -> dict:
    scale = get_scale(SCALE)
    digests = {}
    for figure_id in list_figures():
        payload = figure_to_dict(run_figure(figure_id, scale=scale, seed=SEED))
        payload["metadata"].pop("executor", None)
        for summary in payload["comparison_summaries"]:
            summary.pop("executor", None)
        if figure_id == "fig4":
            payload.pop("series")  # measured GA seconds
        digests[figure_id] = digest(payload)
    return digests


def matrix_digest() -> str:
    matrix = run_scenario_matrix(scenario_names(), scale=get_scale(SCALE), seed=SEED)
    return digest(matrix.signature())


def campaign_digest(store_root: str) -> str:
    spec = CampaignSpec(
        name="golden",
        scale=SCALE,
        seed=SEED,
        figures=CAMPAIGN_FIGURES,
        scenarios=CAMPAIGN_SCENARIOS,
    )
    result = run_campaign(spec, ResultStore(store_root), jobs=1)
    assert result.complete
    return digest(result.aggregates)


def ga_case_problem(name: str) -> BatchProblem:
    seed, n_tasks, n_processors, tie_heavy, _ = GA_CASES[name]
    rng = np.random.default_rng(seed)
    if tie_heavy:
        sizes = 100.0 * rng.integers(1, 4, n_tasks)
    else:
        sizes = rng.uniform(1.0, 1000.0, n_tasks)
    return BatchProblem(
        task_ids=np.arange(n_tasks) + 1000,
        sizes=sizes,
        rates=rng.uniform(10.0, 500.0, n_processors),
        pending_loads=rng.uniform(0.0, 500.0, n_processors),
        comm_costs=rng.uniform(0.0, 2.0, n_processors),
    )


def ga_engine_digests() -> dict:
    digests = {}
    for name, (seed, _, _, _, overrides) in GA_CASES.items():
        result = GeneticAlgorithm(GAConfig(**overrides), rng=seed).evolve(ga_case_problem(name))
        digests[name] = digest(
            {
                "best_assignment": result.best_assignment.tolist(),
                "best_queues": result.best_queues,
                "makespan_history": result.makespan_history,
                "generations": result.generations,
            }
        )
    return digests


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf8"))


@pytest.fixture(params=["default", "event"])
def engine(request, monkeypatch):
    """Run as-is, or with every simulation forced onto the event engine."""
    if request.param == "event":
        monkeypatch.setattr(DistributedSystemSimulation, "uses_fast_path", lambda self: False)
    return request.param


def test_figure_digests_match_golden(goldens):
    assert figure_digests() == goldens["figures"]


def test_scenario_matrix_digest_matches_golden(goldens, engine):
    assert matrix_digest() == goldens["scenario_matrix"]


def test_campaign_aggregate_digest_matches_golden(goldens, engine, tmp_path):
    assert campaign_digest(str(tmp_path / "store")) == goldens["campaign"]


def test_ga_engine_digests_match_golden(goldens):
    assert ga_engine_digests() == goldens["ga_engine"]


def write_goldens() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        goldens = {
            "seed": SEED,
            "scale": SCALE,
            "figures": figure_digests(),
            "scenario_matrix": matrix_digest(),
            "campaign": campaign_digest(str(Path(tmp) / "store")),
            "ga_engine": ga_engine_digests(),
        }
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_goldens.py --write")
    write_goldens()
