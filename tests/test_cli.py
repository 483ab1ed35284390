"""Tests for the command-line interface."""

import functools
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cli import build_parser, main
from repro.experiments.config import SCALES
from repro.parallel import ExperimentExecutor
from repro.util.errors import ExperimentInterrupted


class _CrashAfterFirst(ExperimentExecutor):
    """In-process executor that runs job 0, then fails like a broken pool."""

    def map(self, fn, jobs):
        return list(self.imap(fn, jobs))

    def imap(self, fn, jobs):
        yield fn(jobs[0])
        raise ExperimentInterrupted({}, len(jobs)) from BrokenProcessPool("worker died")


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_figure_commands_exist(self):
        parser = build_parser()
        for figure_id in [f"fig{i}" for i in range(3, 12)]:
            args = parser.parse_args([figure_id, "--scale", "smoke", "--seed", "1"])
            assert args.command == figure_id
            assert args.scale == "smoke"
            assert args.seed == 1

    def test_compare_command_options(self):
        args = build_parser().parse_args(
            ["compare", "--workload", "poisson_small", "--comm-cost", "3.5", "--tasks", "40"]
        )
        assert args.workload == "poisson_small"
        assert args.comm_cost == 3.5
        assert args.tasks == 40

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--scale", "enormous"])

    def test_invalid_sim_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--sim-backend", "warp"])

    def test_retired_backend_options_rejected(self, capsys):
        # The backend and executor options are retired: argparse rejects each
        # one, even with a value it once accepted.
        for argv in [
            ["fig5", "--scale", "smoke", "--sim-backend", "event"],
            ["compare", "--scale", "smoke", "--sim-backend", "fast"],
            ["compare", "--scale", "smoke", "--ga-backend", "loop"],
            ["compare", "--scale", "smoke", "--policy-backend", "loop"],
            ["fig5", "--scale", "smoke", "--executor", "async"],
            ["campaigns", "resume", "--store", "S", "ci", "--executor", "process"],
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            flag, value = argv[-2:]
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_jobs_option_parses(self, tmp_path):
        parser = build_parser()
        for argv in [
            ["fig5", "--jobs", "2"],
            ["compare", "--jobs", "2"],
            ["campaigns", "run", "--store", str(tmp_path), "--jobs", "2"],
            ["campaigns", "resume", "--store", str(tmp_path), "ci", "--jobs", "2"],
        ]:
            assert parser.parse_args(argv).jobs == 2, argv

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        for scale in SCALES:
            assert scale in out

    def test_compare_smoke(self, capsys):
        code = main(
            [
                "compare",
                "--scale",
                "smoke",
                "--seed",
                "1",
                "--workload",
                "uniform_narrow",
                "--comm-cost",
                "2.0",
                "--tasks",
                "25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PN" in out and "makespan_mean" in out

    def test_compare_runs_with_jobs(self, capsys):
        argv = ["compare", "--scale", "smoke", "--seed", "1", "--tasks", "20"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "executor=serial" in serial and "executor=process[2]" in parallel
        # --jobs changes only the executor label, never the numbers.
        assert parallel.replace("process[2]", "serial") == serial

    def test_compare_backends_print_identical_tables(self, capsys, monkeypatch):
        from repro.sim.simulation import DistributedSystemSimulation

        outputs = {}
        for backend in ("fast", "event"):
            if backend == "event":
                monkeypatch.setattr(
                    DistributedSystemSimulation, "uses_fast_path", lambda self: False
                )
            code = main(
                [
                    "compare",
                    "--scale",
                    "smoke",
                    "--seed",
                    "1",
                    "--workload",
                    "uniform_narrow",
                    "--comm-cost",
                    "2.0",
                    "--tasks",
                    "20",
                ]
            )
            assert code == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["event"] == outputs["fast"]

    def test_figure4_smoke(self, capsys):
        assert main(["fig4", "--scale", "smoke", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "rebalances_per_generation" in out


class TestScenariosCLI:
    def test_scenarios_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_scenarios_run_parses_options(self):
        args = build_parser().parse_args(
            [
                "scenarios",
                "run",
                "failure-storm",
                "elastic-scale-out",
                "--scale",
                "smoke",
                "--seed",
                "3",
                "--jobs",
                "2",
                "--repeats",
                "4",
                "--schedulers",
                "EF",
                "LL",
            ]
        )
        assert args.command == "scenarios"
        assert args.scenario_command == "run"
        assert args.names == ["failure-storm", "elastic-scale-out"]
        assert args.repeats == 4
        assert args.schedulers == ["EF", "LL"]

    def test_scenarios_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenarios", "run", "failure-storm", "--schedulers", "nope"]
            )

    def test_scenarios_list_smoke(self, capsys):
        assert main(["scenarios", "list", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "failure-storm" in out
        assert "elastic-scale-out" in out
        assert "load spike" in out

    def test_scenarios_run_smoke_with_output(self, capsys, tmp_path):
        output = tmp_path / "matrix.json"
        code = main(
            [
                "scenarios",
                "run",
                "failure-storm",
                "--scale",
                "smoke",
                "--seed",
                "7",
                "--repeats",
                "1",
                "--schedulers",
                "EF",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failure-storm" in out and "conserved" in out
        assert output.exists()

    def test_scenarios_run_unknown_scenario_fails_cleanly(self, capsys):
        code = main(["scenarios", "run", "no-such-thing", "--scale", "smoke"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestCampaignsCLI:
    def _run_args(self, store, extra=()):
        return [
            "campaigns",
            "run",
            "--store",
            str(store),
            "--name",
            "cli-test",
            "--scenarios",
            "failure-storm",
            "--schedulers",
            "EF",
            "--repeats",
            "2",
            "--scale",
            "smoke",
            "--seed",
            "7",
            *extra,
        ]

    def test_campaigns_requires_subcommand_and_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaigns"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaigns", "run"])

    def test_campaigns_run_parses_options(self, tmp_path):
        args = build_parser().parse_args(
            self._run_args(
                tmp_path / "store",
                [
                    "--max-cells",
                    "3",
                    "--sweep",
                    "n_rebalances",
                    "0",
                    "1",
                    "--sweep-repeats",
                    "4",
                ],
            )
        )
        assert args.command == "campaigns"
        assert args.campaign_command == "run"
        assert args.max_cells == 3
        assert args.sweep == ["n_rebalances", "0", "1"]
        assert args.sweep_repeats == 4

    def test_interrupted_map_exits_130(self, capsys, monkeypatch):
        from repro import cli
        from repro.util.errors import ExperimentInterrupted

        def fake_run_figure(*args, **kwargs):
            raise ExperimentInterrupted({0: "partial"}, 5)

        monkeypatch.setattr(cli, "run_figure", fake_run_figure)
        code = main(["fig6", "--scale", "smoke", "--seed", "1"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "1/5" in err

    def test_crashed_worker_map_exits_1(self, capsys, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro import cli
        from repro.util.errors import ExperimentInterrupted

        def fake_run_figure(*args, **kwargs):
            raise ExperimentInterrupted({0: "partial"}, 5) from BrokenProcessPool("died")

        monkeypatch.setattr(cli, "run_figure", fake_run_figure)
        code = main(["fig6", "--scale", "smoke", "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "1/5" in err and "(died)" in err

    def test_empty_campaign_fails_cleanly(self, capsys, tmp_path):
        code = main(
            ["campaigns", "run", "--store", str(tmp_path / "s"), "--name", "empty"]
        )
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_run_interrupt_resume_and_warm_rerun(self, capsys, tmp_path):
        store = tmp_path / "store"
        # Interrupt deterministically after 1 computed cell: exit code 3.
        assert main(self._run_args(store, ["--max-cells", "1"])) == 3
        out = capsys.readouterr().out
        assert "interrupted" in out and "1 computed" in out
        # Status shows the partial state.
        assert main(["campaigns", "status", "--store", str(store), "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "1/2 cells" in out and "pending" in out
        # Resume completes the rest.
        assert main(["campaigns", "resume", "--store", str(store), "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "1 cached" in out
        # Warm rerun computes nothing.
        assert main(self._run_args(store)) == 0
        out = capsys.readouterr().out
        assert "0 computed" in out and "2 cached" in out

    def test_worker_crash_exits_3_with_resume_hint(self, capsys, tmp_path, monkeypatch):
        from repro import cli
        from repro.campaigns import run_campaign

        monkeypatch.setattr(
            cli, "run_campaign", functools.partial(run_campaign, executor=_CrashAfterFirst())
        )
        store = tmp_path / "store"
        assert main(self._run_args(store, ["--jobs", "2"])) == 3
        out = capsys.readouterr().out
        assert "interrupted" in out and "1 computed" in out
        assert "reason: worker-crash; resume with" in out
        assert "campaigns resume --store <store> cli-test" in out
        monkeypatch.undo()
        assert main(["campaigns", "resume", "--store", str(store), "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "1 computed, 1 cached" in out

    def test_status_lists_campaigns(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(self._run_args(store)) == 0
        capsys.readouterr()
        assert main(["campaigns", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "cli-test: complete" in out
        assert "scenario_cell" in out

    def test_resume_unknown_campaign_fails_cleanly(self, capsys, tmp_path):
        code = main(["campaigns", "resume", "--store", str(tmp_path / "s"), "nope"])
        assert code == 2
        assert "no campaign" in capsys.readouterr().err
