"""Smoke tests for the command-line interface."""

import os

import pytest

from repro.cli import CACHE_DIR_HELP, build_parser, main

_REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_each_command(self):
        parser = build_parser()
        assert parser.parse_args(["table1"]).command == "table1"
        assert parser.parse_args(["table2"]).command == "table2"
        assert parser.parse_args(["nonadaptive"]).command == "nonadaptive"
        assert parser.parse_args(["adaptive"]).command == "adaptive"
        assert parser.parse_args(["gap"]).command == "gap"
        assert parser.parse_args(["simulate"]).command == "simulate"
        assert parser.parse_args(["sweep"]).command == "sweep"

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "4", "--replications", "50", "--seed", "3",
             "--cache-dir", "/tmp/x", "--adversaries", "poisson-owner"])
        assert args.jobs == 4 and args.replications == 50
        assert args.seed == 3 and args.cache_dir == "/tmp/x"
        assert args.adversaries == ["poisson-owner"]
        assert args.backend == "event"  # reference backend is the default

    def test_backend_flags(self):
        parser = build_parser()
        assert parser.parse_args(["sweep", "--backend", "batch"]).backend == "batch"
        assert parser.parse_args(["simulate", "--backend", "batch"]).backend == "batch"
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--backend", "warp"])

    def test_run_resume_report_flags(self):
        parser = build_parser()
        args = parser.parse_args(["run", "specs/laptop.toml", "--jobs", "2",
                                  "--replications", "5", "--runs-dir", "/tmp/r",
                                  "--run-id", "rid", "--max-points", "3",
                                  "--resume"])
        assert args.command == "run" and args.spec == "specs/laptop.toml"
        assert args.jobs == 2 and args.replications == 5
        assert args.runs_dir == "/tmp/r" and args.run_id == "rid"
        assert args.max_points == 3 and args.resume is True
        args = parser.parse_args(["resume", "rid"])
        assert args.command == "resume" and args.run_id == "rid"
        args = parser.parse_args(["report", "rid", "--output", "-"])
        assert args.command == "report" and args.output == "-"

    def test_cache_dir_default_is_disabled_everywhere(self):
        """The help text, the README and the code must agree on the default.

        The default on-disk cache location regressed once (help text and
        README described different defaults); this pins all three sources
        to the single CACHE_DIR_HELP constant and the actual None default.
        """
        parser = build_parser()
        for command in (["sweep"], ["gap"], ["run", "spec.toml"],
                        ["resume", "rid"]):
            assert parser.parse_args(command).cache_dir is None, command
        assert "default: disabled" in CACHE_DIR_HELP
        readme = open(os.path.join(_REPO_ROOT, "README.md")).read()
        assert "default: disabled — DP tables are cached in memory" in readme

    def test_cache_dir_help_text_matches_constant(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        help_text = capsys.readouterr().out
        # argparse re-wraps the text; compare whitespace-normalised.
        assert " ".join(CACHE_DIR_HELP.split()) in " ".join(help_text.split())

    def test_simulate_accepts_only_registry_names(self):
        parser = build_parser()
        assert parser.parse_args(["simulate"]).scheduler == "equalizing-adaptive"
        assert parser.parse_args(
            ["simulate", "--scheduler", "geometric"]).scheduler == "geometric"
        for name in ("equalizing", "nope"):
            with pytest.raises(SystemExit):
                parser.parse_args(["simulate", "--scheduler", name])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "-U", "50", "-c", "1", "-p", "1"]) == 0
        out = capsys.readouterr().out
        assert "no interrupt" in out

    def test_table2(self, capsys):
        assert main(["table2", "--lifespans", "100", "400"]) == 0
        out = capsys.readouterr().out
        assert "opt_num_periods" in out

    def test_nonadaptive(self, capsys):
        assert main(["nonadaptive", "--lifespans", "200", "--interrupts", "1", "2"]) == 0
        assert "measured_work" in capsys.readouterr().out

    def test_adaptive(self, capsys):
        assert main(["adaptive", "--lifespans", "200", "--interrupts", "1"]) == 0
        assert "theorem51_bound" in capsys.readouterr().out

    def test_gap(self, capsys):
        assert main(["gap", "-U", "300", "-c", "1", "-p", "2"]) == 0
        out = capsys.readouterr().out
        assert "dp-optimal" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--scenario", "laptop",
                     "--scheduler", "equalizing-adaptive"]) == 0
        assert "laptop-0" in capsys.readouterr().out

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        assert main(["--csv", str(path), "table2", "--lifespans", "100"]) == 0
        assert path.exists()
        assert "lifespan" in path.read_text()

    def test_simulate_new_scenarios(self, capsys):
        assert main(["simulate", "--scenario", "office", "--seed", "5"]) == 0
        assert "office-0" in capsys.readouterr().out
        assert main(["simulate", "--scenario", "flaky"]) == 0
        assert "flaky-0" in capsys.readouterr().out
        assert main(["simulate", "--scenario", "cluster"]) == 0
        assert "node-0" in capsys.readouterr().out

    def test_simulate_batch_backend_prints_same_rows(self, capsys):
        assert main(["simulate", "--scenario", "laptop", "--backend", "event"]) == 0
        event_out = capsys.readouterr().out
        assert main(["simulate", "--scenario", "laptop", "--backend", "batch"]) == 0
        batch_out = capsys.readouterr().out
        assert event_out == batch_out  # bit-identical reports, same table

    def test_sweep_batch_backend(self, capsys):
        assert main(["sweep", "--lifespans", "150", "--interrupts", "1",
                     "--schedulers", "equalizing-adaptive",
                     "--adversaries", "poisson-owner",
                     "--replications", "5", "--seed", "1",
                     "--backend", "batch"]) == 0
        assert "work_mean" in capsys.readouterr().out

    def test_sweep_analytic(self, capsys):
        assert main(["sweep", "--lifespans", "100", "--interrupts", "1",
                     "--schedulers", "equalizing-adaptive"]) == 0
        out = capsys.readouterr().out
        assert "guaranteed_work" in out

    def test_sweep_montecarlo_with_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "dp")
        assert main(["sweep", "--lifespans", "100", "--interrupts", "1",
                     "--schedulers", "equalizing-adaptive",
                     "--adversaries", "poisson-owner",
                     "--replications", "5", "--seed", "1", "--jobs", "2",
                     "--optimal", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "work_mean" in out and "optimal_work" in out
        assert any(name.endswith(".npz") for name in os.listdir(cache_dir))

    def test_gap_with_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "dp")
        assert main(["gap", "-U", "200", "-p", "1",
                     "--cache-dir", cache_dir]) == 0
        assert "dp-optimal" in capsys.readouterr().out
        assert any(name.endswith(".npz") for name in os.listdir(cache_dir))

    def test_gap_covers_every_registered_scheduler(self, capsys):
        from repro.registry import SCHEDULERS

        assert main(["gap", "-U", "200", "-c", "1", "-p", "1"]) == 0
        out = capsys.readouterr().out
        for name in SCHEDULERS.names():
            assert name in out

    def test_simulate_rejects_nonadaptive_scheduler_with_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--scenario", "laptop",
                  "--scheduler", "rosenberg-nonadaptive"])
        assert "NOW simulator" in str(excinfo.value)
        assert "equalizing-adaptive" in str(excinfo.value)

    @pytest.mark.parametrize("alias, name", [
        ("equalizing", "equalizing-adaptive"),
        ("rosenberg", "rosenberg-adaptive"),
        ("fixed", "fixed-period"),
        ("single", "single-period"),
    ])
    def test_simulate_rejects_pre_registry_alias(self, capsys, alias, name):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--scenario", "laptop", "--scheduler", alias])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and name in err

    def test_simulate_new_families(self, capsys):
        assert main(["simulate", "--scenario", "diurnal"]) == 0
        assert "diurnal-0" in capsys.readouterr().out
        assert main(["simulate", "--scenario", "fleet", "--backend", "batch"]) == 0
        assert "fleet-laptop-0" in capsys.readouterr().out


class TestRunCommands:
    """End-to-end `run` / `resume` / `report` through main()."""

    SPEC = """\
[experiment]
name = "cli-spec"
kind = "scenario"
seed = 0
replications = 4
backend = "batch"

[scenario]
family = "laptop"
schedulers = ["equalizing-adaptive", "fixed-period"]
"""

    def _write_spec(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(self.SPEC)
        return str(path)

    def test_run_then_report(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        runs = str(tmp_path / "runs")
        assert main(["run", spec, "--runs-dir", runs, "--run-id", "r1"]) == 0
        out = capsys.readouterr().out
        assert "work_mean" in out
        assert main(["report", "r1", "--runs-dir", runs]) == 0
        report = capsys.readouterr().out
        assert "# Run report: cli-spec" in report
        assert os.path.exists(os.path.join(runs, "r1", "report.md"))

    def test_run_replications_override(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        runs = str(tmp_path / "runs")
        assert main(["run", spec, "--runs-dir", runs, "--run-id", "r2",
                     "--replications", "2"]) == 0
        capsys.readouterr()
        assert main(["report", "r2", "--runs-dir", runs, "--output", "-"]) == 0
        assert "**replications**: 2" in capsys.readouterr().out

    def test_run_max_points_then_resume(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        runs = str(tmp_path / "runs")
        assert main(["run", spec, "--runs-dir", runs, "--run-id", "r3",
                     "--max-points", "1"]) == 0
        capsys.readouterr()
        assert main(["resume", "r3", "--runs-dir", runs]) == 0
        out = capsys.readouterr()
        assert "complete (2/2 points)" in out.err

    def test_run_rejects_malformed_spec_with_message(self, tmp_path, capsys):
        from repro.specs import SpecError

        bad = tmp_path / "bad.toml"
        bad.write_text("[experiment]\nname = \"x\"\nkind = \"warp\"\n")
        with pytest.raises(SpecError) as excinfo:
            main(["run", str(bad)])
        assert "warp" in str(excinfo.value)
        assert "bad.toml" in str(excinfo.value)

    def test_csv_works_with_run_rows(self, tmp_path):
        spec = self._write_spec(tmp_path)
        runs = str(tmp_path / "runs")
        csv_path = tmp_path / "rows.csv"
        assert main(["--csv", str(csv_path), "run", spec, "--runs-dir", runs,
                     "--run-id", "r4", "--replications", "2"]) == 0
        assert "work_mean" in csv_path.read_text()


class TestReportCacheCLI:
    """`repro report` digest caching and profiling through main()."""

    SPEC = TestRunCommands.SPEC

    def _complete_run(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(self.SPEC)
        runs = str(tmp_path / "runs")
        assert main(["run", str(path), "--runs-dir", runs,
                     "--run-id", "rc"]) == 0
        return runs

    def test_second_report_hits_force_matches(self, tmp_path, capsys):
        runs = self._complete_run(tmp_path)
        capsys.readouterr()
        assert main(["report", "rc", "--runs-dir", runs]) == 0
        assert "report-cache: miss" in capsys.readouterr().err
        assert main(["report", "rc", "--runs-dir", runs]) == 0
        captured = capsys.readouterr()
        assert "report-cache: hit" in captured.err
        assert "# Run report: cli-spec" in captured.out
        cached = open(os.path.join(runs, "rc", "report.md")).read()
        assert main(["report", "rc", "--runs-dir", runs, "--force"]) == 0
        assert "report-cache: miss" in capsys.readouterr().err
        assert open(os.path.join(runs, "rc", "report.md")).read() == cached

    def test_print_only_mode_never_touches_the_cache(self, tmp_path, capsys):
        runs = self._complete_run(tmp_path)
        capsys.readouterr()
        assert main(["report", "rc", "--runs-dir", runs, "--output", "-"]) == 0
        captured = capsys.readouterr()
        assert "report-cache" not in captured.err
        assert not os.path.exists(os.path.join(runs, "rc", "report.md"))

    def test_report_profile_prints_render_stage(self, tmp_path, capsys):
        runs = self._complete_run(tmp_path)
        capsys.readouterr()
        assert main(["report", "rc", "--runs-dir", runs, "--profile"]) == 0
        assert "report_render" in capsys.readouterr().err
