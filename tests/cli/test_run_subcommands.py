"""``python -m repro.run``: the consolidated subcommand tree.

One front door, six subcommands — each with its own ``--help``.  A bare
config path is not a subcommand.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import run as run_module

REPO_SRC = Path(repro.__file__).resolve().parents[1]


def run_cli(*args, timeout=300, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.run", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=timeout, cwd=cwd,
    )


@pytest.fixture
def sweep_config(tmp_path):
    from repro.orchestrate import SweepConfig

    sweep = SweepConfig(
        name="help-test", optimizers=["random"], envs=["opamp-p2s-v0"],
        seeds=[0, 1], budget=4, store=str(tmp_path / "store"),
    )
    path = tmp_path / "sweep.json"
    sweep.save(path)
    return path


class TestHelp:
    def test_top_level_help_lists_every_command(self):
        for args in ([], ["--help"], ["-h"], ["help"]):
            completed = run_cli(*args)
            assert completed.returncode == 0, completed.stderr
            for command in ("sweep", "deploy", "serve", "surrogate", "analyze",
                            "yield"):
                assert command in completed.stdout

    @pytest.mark.parametrize(
        "command,marker",
        [
            ("sweep", "--workers"),
            ("deploy", "--batch-size"),
            ("serve", "--max-batch-delay-ms"),
            ("surrogate", "train"),
            ("analyze", "--strict"),
            ("yield", "--samples"),
        ],
    )
    def test_each_subcommand_has_its_own_help(self, command, marker):
        completed = run_cli(command, "--help")
        assert completed.returncode == 0, completed.stderr
        assert f"repro.run {command}" in completed.stdout
        assert marker in completed.stdout

    def test_unknown_command_is_exit_2_and_lists_commands(self):
        completed = run_cli("frobnicate")
        assert completed.returncode == 2
        assert "unknown command 'frobnicate'" in completed.stderr
        assert "sweep, deploy, serve, surrogate" in completed.stderr


class TestDispatch:
    def test_sweep_subcommand_expands_without_warning(self, sweep_config, capsys,
                                                      recwarn):
        status = run_module.main(["sweep", str(sweep_config), "--expand"])
        captured = capsys.readouterr()
        assert status == 0
        assert "2 units" in captured.out
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]

    def test_positional_config_is_an_unknown_command(self, sweep_config, capsys):
        status = run_module.main([str(sweep_config), "--expand"])
        captured = capsys.readouterr()
        assert status == 2
        assert f"unknown command {str(sweep_config)!r}" in captured.err
        assert "2 units" not in captured.out

    def test_sweep_subcommand_runs_the_grid(self, sweep_config, tmp_path):
        completed = run_cli("sweep", sweep_config, "--quiet")
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "2 units: 2 executed, 0 skipped" in completed.stdout
        assert "DeprecationWarning" not in completed.stderr

    def test_missing_config_under_sweep_is_exit_2(self, tmp_path):
        completed = run_cli("sweep", tmp_path / "nope.json")
        assert completed.returncode == 2
        assert "could not load sweep" in completed.stderr

    def test_bad_sweep_flag_validation(self, sweep_config, capsys):
        assert run_module.main(["sweep", str(sweep_config), "--workers", "0"]) == 2
        capsys.readouterr()

    def test_run_config_document_still_routes(self, tmp_path):
        """A single RunConfig JSON (not a grid) through the sweep subcommand."""
        config = repro.RunConfig(
            env={"id": "opamp-p2s-v0", "params": {"seed": 0, "max_steps": 6}},
            optimizer="random", budget=4, seed=1,
        )
        document = tmp_path / "run.json"
        document.write_text(config.to_json())
        completed = run_cli("sweep", document, "--store", tmp_path / "store", "--quiet")
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "1 units: 1 executed" in completed.stdout


class TestAnalyze:
    """``analyze``: the invariant lint subcommand, end to end."""

    FLAGGED = "def check(x):\n    return x == 0.5\n"
    CLEAN = "def check(x):\n    return abs(x - 0.5) < 1e-9\n"

    def test_finding_exits_1_with_rendered_report(self, tmp_path):
        target = tmp_path / "flagged.py"
        target.write_text(self.FLAGGED)
        completed = run_cli("analyze", target)
        assert completed.returncode == 1
        assert "REP-FLT01" in completed.stdout
        assert "hint:" in completed.stdout
        assert "1 finding(s)" in completed.stdout

    def test_clean_tree_exits_0(self, tmp_path):
        (tmp_path / "clean.py").write_text(self.CLEAN)
        completed = run_cli("analyze", tmp_path)
        assert completed.returncode == 0, completed.stderr
        assert "0 finding(s)" in completed.stdout

    def test_json_format_and_output_artifact(self, tmp_path):
        (tmp_path / "flagged.py").write_text(self.FLAGGED)
        report_path = tmp_path / "report.json"
        completed = run_cli(
            "analyze", tmp_path, "--format", "json", "--output", report_path
        )
        assert completed.returncode == 1
        document = json.loads(completed.stdout)
        assert document["summary"]["new"] == 1
        assert document["summary"]["by_rule"] == {"REP-FLT01": 1}
        assert json.loads(report_path.read_text()) == document

    def test_write_baseline_then_baselined_run_exits_0(self, tmp_path):
        (tmp_path / "flagged.py").write_text(self.FLAGGED)
        baseline = tmp_path / "baseline.json"
        wrote = run_cli("analyze", tmp_path, "--baseline", baseline, "--write-baseline")
        assert wrote.returncode == 0, wrote.stderr
        assert baseline.is_file()
        completed = run_cli("analyze", tmp_path, "--baseline", baseline)
        assert completed.returncode == 0, completed.stderr
        assert "1 baselined" in completed.stdout
        # A second instance of the grandfathered pattern still fails.
        (tmp_path / "flagged_again.py").write_text(self.FLAGGED)
        completed = run_cli("analyze", tmp_path, "--baseline", baseline)
        assert completed.returncode == 1

    def test_strict_ignores_the_baseline(self, tmp_path):
        (tmp_path / "flagged.py").write_text(self.FLAGGED)
        baseline = tmp_path / "baseline.json"
        run_cli("analyze", tmp_path, "--baseline", baseline, "--write-baseline")
        completed = run_cli("analyze", tmp_path, "--baseline", baseline, "--strict")
        assert completed.returncode == 1
        assert "strict" in completed.stdout

    def test_stale_baseline_entry_is_reported(self, tmp_path):
        flagged = tmp_path / "flagged.py"
        flagged.write_text(self.FLAGGED)
        baseline = tmp_path / "baseline.json"
        run_cli("analyze", tmp_path, "--baseline", baseline, "--write-baseline")
        flagged.write_text(self.CLEAN)  # pay down the debt
        completed = run_cli("analyze", tmp_path, "--baseline", baseline)
        assert completed.returncode == 0  # stale entries inform, never fail
        assert "stale baseline entry" in completed.stdout

    def test_syntax_error_exits_2(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        completed = run_cli("analyze", tmp_path)
        assert completed.returncode == 2
        assert "syntax error" in completed.stderr

    def test_missing_path_exits_2(self, tmp_path):
        completed = run_cli("analyze", tmp_path / "nope.txt")
        assert completed.returncode == 2
        assert "error:" in completed.stderr

    def test_rules_catalog_lists_every_rule(self):
        from repro.analysis import ALL_RULES

        completed = run_cli("analyze", "--rules")
        assert completed.returncode == 0
        for rule in ALL_RULES:
            assert rule.rule_id in completed.stdout

    def test_shipped_tree_passes_with_checked_in_baseline(self):
        repo_root = REPO_SRC.parent
        completed = run_cli("analyze", "src", cwd=repo_root)
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "baseline-aware" in completed.stdout


class TestYield:
    """``yield``: the Monte-Carlo PVT yield report, end to end."""

    def test_small_report_prints_table_and_writes_json(self, tmp_path):
        output = tmp_path / "yield.json"
        completed = run_cli(
            "yield", "--circuits", "current_mirror_ota", "--samples", "8",
            "--shards", "2", "--output", output,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "current_mirror_ota" in completed.stdout
        assert "yield" in completed.stdout
        document = json.loads(output.read_text())
        assert document["samples_per_circuit"] == 8
        assert document["circuits"][0]["circuit"] == "current_mirror_ota"
        assert 0 <= document["circuits"][0]["passed"] <= 8

    def test_unknown_circuit_is_exit_2(self):
        completed = run_cli("yield", "--circuits", "ring_oscillator", "--samples", "2")
        assert completed.returncode == 2
        assert "unknown circuit" in completed.stderr

    def test_bad_counts_are_exit_2(self, capsys):
        assert run_module.main(["yield", "--samples", "0"]) == 2
        capsys.readouterr()

    def test_targets_document_overrides_defaults(self, tmp_path):
        # Impossible targets force yield to zero; trivial ones force it to
        # one.  Both prove the override reaches the shard payloads.
        for gain, expected in ((1e9, 0.0), (1e-9, 1.0)):
            targets = tmp_path / f"targets_{expected}.json"
            targets.write_text(json.dumps({
                "current_mirror_ota": {
                    "gain": gain, "bandwidth": 1.0, "slew_rate": 1.0, "power": 1.0,
                }
            }))
            completed = run_cli(
                "yield", "--circuits", "current_mirror_ota", "--samples", "4",
                "--targets", targets, "--output", tmp_path / "out.json",
            )
            assert completed.returncode == 0, completed.stderr[-2000:]
            row = json.loads((tmp_path / "out.json").read_text())["circuits"][0]
            gain_passed = row["per_spec_passed"]["gain"]
            assert gain_passed == (0 if expected == 0.0 else 4)


def test_help_text_stays_in_sync_with_command_table():
    for command in run_module.COMMANDS:
        assert command in run_module._TOP_HELP
