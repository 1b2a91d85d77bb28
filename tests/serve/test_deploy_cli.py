"""``python -m repro.run deploy`` end-to-end, as a user would invoke it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

REPO_SRC = Path(repro.__file__).resolve().parents[1]


@pytest.fixture
def checkpoint_and_specs(tmp_path):
    env = repro.make_env("opamp-p2s-v0", seed=0)
    policy = repro.make_policy("gcn_fc", env, np.random.default_rng(0))
    checkpoint = repro.save_checkpoint(
        tmp_path / "ckpt.npz", policy, policy_id="gcn_fc", env_id="opamp-p2s-v0"
    )
    targets = env.benchmark.spec_space.sample_batch(np.random.default_rng(1), 4)
    specs = tmp_path / "requests.json"
    specs.write_text(json.dumps({
        "schema_version": 1,
        "requests": [{"target_specs": dict(t)} for t in targets],
    }))
    return checkpoint, specs


def run_cli(*args, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.run", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestDeployCli:
    def test_deploy_writes_results_json(self, checkpoint_and_specs, tmp_path):
        checkpoint, specs = checkpoint_and_specs
        output = tmp_path / "out.json"
        completed = run_cli(
            "deploy", checkpoint, specs, "--batch-size", "2",
            "--max-steps", "6", "--output", output,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "served 4 episodes" in completed.stdout
        document = json.loads(output.read_text())
        assert document["batch_size"] == 2
        assert len(document["results"]) == 4
        for result in document["results"]:
            assert result["env_id"] == "opamp-p2s-v0"
            assert 1 <= result["steps"] <= 6
            assert result["final_parameters"]

    def test_deploy_batch_sizes_agree(self, checkpoint_and_specs, tmp_path):
        checkpoint, specs = checkpoint_and_specs
        outputs = []
        for batch_size in (1, 3):
            output = tmp_path / f"out{batch_size}.json"
            completed = run_cli(
                "deploy", checkpoint, specs, "--batch-size", batch_size,
                "--max-steps", "6", "--output", output, "--quiet",
            )
            assert completed.returncode == 0, completed.stderr[-2000:]
            document = json.loads(output.read_text())
            outputs.append(
                [(r["steps"], r["success"], r["final_parameters"])
                 for r in document["results"]]
            )
        assert outputs[0] == outputs[1]

    def test_missing_checkpoint_is_exit_2(self, checkpoint_and_specs):
        _, specs = checkpoint_and_specs
        completed = run_cli("deploy", "no-such.npz", specs)
        assert completed.returncode == 2
        assert "error" in completed.stderr

    def test_bad_specs_is_exit_2(self, checkpoint_and_specs, tmp_path):
        checkpoint, _ = checkpoint_and_specs
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        completed = run_cli("deploy", checkpoint, bad)
        assert completed.returncode == 2
        assert "error" in completed.stderr

    def test_unknown_env_override_is_exit_2(self, checkpoint_and_specs):
        checkpoint, specs = checkpoint_and_specs
        completed = run_cli("deploy", checkpoint, specs, "--env", "definitely-not-an-env")
        assert completed.returncode == 2

    def test_in_process_main_deploy(self, checkpoint_and_specs, tmp_path, capsys):
        """main_deploy drives the same path in-process (also: coverage)."""
        from repro.serve.cli import main_deploy

        checkpoint, specs = checkpoint_and_specs
        output = tmp_path / "inproc.json"
        status = main_deploy([
            str(checkpoint), str(specs), "--batch-size", "2",
            "--max-steps", "5", "--output", str(output),
        ])
        captured = capsys.readouterr()
        assert status == 0
        assert "served 4 episodes" in captured.out
        assert json.loads(output.read_text())["results"]

    def test_in_process_bad_inputs(self, checkpoint_and_specs, tmp_path, capsys):
        from repro.serve.cli import main_deploy

        checkpoint, specs = checkpoint_and_specs
        assert main_deploy(["missing.npz", str(specs)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "requests": []}))
        assert main_deploy([str(checkpoint), str(bad)]) == 2
        assert main_deploy([str(checkpoint), str(specs), "--batch-size", "0"]) == 2
        assert main_deploy([str(checkpoint), str(specs), "--max-steps", "0"]) == 2
        assert main_deploy([str(checkpoint), str(specs), "--env", "nope-v0"]) == 2
        capsys.readouterr()

    def test_legacy_specs_document_is_rejected(self, checkpoint_and_specs, tmp_path,
                                               capsys):
        """The pre-gateway {"targets": [...]} shape is bad input (exit 2)."""
        from repro.serve.cli import main_deploy

        checkpoint, _ = checkpoint_and_specs
        legacy = tmp_path / "specs.json"
        legacy.write_text(json.dumps({"targets": [
            {"gain": 350.0, "bandwidth": 1.8e7, "phase_margin": 55.0, "power": 4e-3},
        ]}))
        status = main_deploy([str(checkpoint), str(legacy), "--max-steps", "4",
                              "--quiet"])
        captured = capsys.readouterr()
        assert status == 2
        assert '"requests": [' in captured.err
