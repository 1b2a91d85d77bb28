"""Check that the benchmark is steady: run it on several seeds, print each spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workload serve-opamp ...] [--first-seed 100]

For every workload and end-to-end metric this prints the median of the
runs and the quartile spread, (Q3 - Q1) / median, next to the metric's
bound from ``BENCHMARK.json``; the exit code is 1 if a spread other than
``setup_s``'s reaches a third of its bound or a run fails.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import median, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
                steady = False
                continue
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            probes = json.loads(lines[-2])["report"]["provenance"]["host_probe_ms"]
            steady = steady and result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                  + " host_probe_ms=" + "/".join(f"{probe:.1f}" for probe in probes),
                  flush=True)
        for name, series in values.items():
            if len(series) < 2:
                continue
            spread = quartile_spread(series)
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            print(f"  {workload} {name}: median {median(series):.6g} spread {spread:.4f} "
                  f"(bound {bounds[name]}){'' if ok else '  <-- not steady'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
