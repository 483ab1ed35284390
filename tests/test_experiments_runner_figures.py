"""Tests for the comparison runner, figure experiments and reporting.

All experiments here run at (a shrunken version of) the ``smoke`` scale so the
whole module stays fast; the paper-shape assertions (who wins) are exercised
by the benchmark suite at the larger ``small`` scale.
"""

import numpy as np
import pytest

from repro.experiments import (
    comparison_table,
    compare_schedulers,
    experiment_summary,
    figure3,
    figure4,
    figure6,
    figure_report,
    get_scale,
    list_figures,
    make_benchmark_problem,
    run_figure,
    sweep_ga_parameter,
)
from repro.campaigns import CampaignSpec, SweepSpec
from repro.schedulers import ALL_SCHEDULER_NAMES
from repro.experiments.sweep import build_sweep_jobs
from repro.util.errors import ConfigurationError
from repro.workloads import normal_paper_workload


@pytest.fixture(scope="module")
def tiny_scale():
    """An even smaller scale than 'smoke' for unit-testing the harness."""
    return get_scale("smoke").scaled(
        n_tasks=30,
        n_tasks_large=30,
        n_processors=4,
        batch_size=10,
        max_generations=6,
        repeats=1,
        convergence_generations=8,
        comm_cost_means=(5.0, 20.0),
    )


@pytest.fixture(scope="module")
def tiny_comparison(tiny_scale):
    return compare_schedulers(
        normal_paper_workload(tiny_scale.n_tasks),
        tiny_scale,
        mean_comm_cost=5.0,
        seed=0,
    )


class TestCompareSchedulers:
    def test_all_schedulers_present(self, tiny_comparison):
        assert set(tiny_comparison.schedulers) == set(ALL_SCHEDULER_NAMES)

    def test_summaries_are_positive(self, tiny_comparison):
        for cmp in tiny_comparison.schedulers.values():
            assert cmp.makespan.mean > 0
            assert 0 < cmp.efficiency.mean <= 1.0

    def test_best_and_ranks_consistent(self, tiny_comparison):
        best = tiny_comparison.best_by_makespan()
        assert tiny_comparison.rank_of(best, "makespan") == 1
        best_eff = tiny_comparison.best_by_efficiency()
        assert tiny_comparison.rank_of(best_eff, "efficiency") == 1

    def test_makespans_and_efficiencies_dicts(self, tiny_comparison):
        assert set(tiny_comparison.makespans()) == set(ALL_SCHEDULER_NAMES)
        assert set(tiny_comparison.efficiencies()) == set(ALL_SCHEDULER_NAMES)

    def test_unknown_metric_rejected(self, tiny_comparison):
        with pytest.raises(ConfigurationError):
            tiny_comparison.rank_of("PN", "latency")

    def test_subset_of_schedulers(self, tiny_scale):
        result = compare_schedulers(
            normal_paper_workload(tiny_scale.n_tasks),
            tiny_scale,
            mean_comm_cost=5.0,
            scheduler_names=["EF", "RR"],
            seed=1,
        )
        assert set(result.schedulers) == {"EF", "RR"}

    def test_unknown_scheduler_rejected(self, tiny_scale):
        with pytest.raises(ConfigurationError):
            compare_schedulers(
                normal_paper_workload(10),
                tiny_scale,
                mean_comm_cost=5.0,
                scheduler_names=["XX"],
            )

    def test_deterministic_given_seed(self, tiny_scale):
        kwargs = dict(mean_comm_cost=5.0, scheduler_names=["EF", "RR"], seed=123)
        a = compare_schedulers(normal_paper_workload(20), tiny_scale, **kwargs)
        b = compare_schedulers(normal_paper_workload(20), tiny_scale, **kwargs)
        assert a.makespans() == b.makespans()

    def test_reporting_table_contains_all_schedulers(self, tiny_comparison):
        table = comparison_table(tiny_comparison)
        for name in ALL_SCHEDULER_NAMES:
            assert name in table


class TestFigureRegistry:
    def test_all_nine_figures_registered(self):
        assert list_figures() == [f"fig{i}" for i in range(3, 12)]

    def test_run_figure_accepts_aliases(self, tiny_scale):
        result = run_figure("figure4", scale=tiny_scale, seed=0)
        assert result.figure_id == "fig4"

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigurationError):
            run_figure("fig99")


class TestConvergenceFigures:
    def test_figure3_structure(self, tiny_scale):
        result = figure3(scale=tiny_scale, seed=0, rebalance_levels=(0, 1))
        assert result.kind == "series"
        assert set(result.series) == {"pure GA", "1 rebalance"}
        assert len(result.x_values) == tiny_scale.convergence_generations
        for series in result.series.values():
            assert len(series) == tiny_scale.convergence_generations
            assert all(np.isfinite(series))

    def test_figure3_reductions_non_negative_and_monotone(self, tiny_scale):
        result = figure3(scale=tiny_scale, seed=0, rebalance_levels=(1,))
        series = np.asarray(result.series["1 rebalance"])
        assert np.all(series >= -1e-9)
        assert np.all(np.diff(series) >= -1e-9)

    def test_figure4_structure(self, tiny_scale):
        result = figure4(scale=tiny_scale, seed=0, rebalance_levels=(0, 2))
        assert result.kind == "series"
        assert result.x_values == [0.0, 2.0]
        assert all(t > 0 for t in result.series["seconds"])

    def test_figure_report_renders(self, tiny_scale):
        result = figure4(scale=tiny_scale, seed=0, rebalance_levels=(0, 1))
        text = figure_report(result)
        assert "fig4" in text and "Paper expectation" in text


class TestComparisonFigures:
    def test_figure6_bars(self, tiny_scale):
        result = figure6(scale=tiny_scale, seed=0)
        assert result.kind == "bars"
        bars = result.bar_values()
        assert set(bars) == set(ALL_SCHEDULER_NAMES)
        assert all(v > 0 for v in bars.values())
        assert result.comparisons, "bar figures keep the underlying comparison"

    def test_bar_values_rejected_for_series(self, tiny_scale):
        result = figure4(scale=tiny_scale, seed=0, rebalance_levels=(0,))
        with pytest.raises(ConfigurationError):
            result.bar_values()

    def test_experiment_summary_lists_figures(self, tiny_scale):
        results = [
            figure4(scale=tiny_scale, seed=0, rebalance_levels=(0,)),
            figure6(scale=tiny_scale, seed=0),
        ]
        summary = experiment_summary(results)
        assert "fig4" in summary and "fig6" in summary


#: Names that are not GAConfig fields: a method, the three retired options
#: and a made-up name.
NOT_GA_FIELDS = [
    "selection_operator",
    "backend",
    "time_limit_seconds",
    "target_makespan",
    "warp_factor",
]

class TestSweep:
    def test_benchmark_problem_dimensions(self, tiny_scale):
        problem = make_benchmark_problem(tiny_scale, seed=0)
        assert problem.n_tasks == tiny_scale.batch_size
        assert problem.n_processors == tiny_scale.n_processors

    def test_sweep_ga_parameter(self, tiny_scale):
        result = sweep_ga_parameter(
            "n_rebalances", [0, 1], scale=tiny_scale, seed=0, repeats=1
        )
        assert result.parameter == "n_rebalances"
        assert result.values() == [0, 1]
        assert set(result.makespans()) == {0, 1}
        assert result.best_value() in (0, 1)

    def test_sweep_unknown_parameter_rejected(self, tiny_scale):
        with pytest.raises(ConfigurationError):
            sweep_ga_parameter("warp_factor", [1], scale=tiny_scale, repeats=1)

    @pytest.mark.parametrize(
        "parameter, value", [("population_size", 1), ("mutation_rate", 1.5), ("crossover", "x")]
    )
    def test_build_sweep_jobs_refuses_an_invalid_value(self, tiny_scale, parameter, value):
        with pytest.raises(ConfigurationError):
            build_sweep_jobs(parameter, [value], scale=tiny_scale, repeats=1)
        # The sweep names a GAConfig field; the campaign refuses its value.
        sweep = SweepSpec(parameter, (value,))
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="x", scale="smoke", sweeps=(sweep,))

    @pytest.mark.parametrize("parameter", NOT_GA_FIELDS)
    def test_build_sweep_jobs_takes_only_ga_config_fields(self, tiny_scale, parameter):
        # A method such as selection_operator is an attribute of GAConfig
        # but not a field, so it must not reach GAConfig(**...).
        with pytest.raises(
            ConfigurationError, match=f"GAConfig has no field named '{parameter}'"
        ):
            build_sweep_jobs(parameter, [1, 2], scale=tiny_scale, repeats=1)
