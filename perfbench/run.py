"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-opamp --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``; ``--seconds`` sets how long one
run measures.  With ``--trace 0`` the last line of standard output is the
end-to-end result; with ``--trace 1`` the run measures the workload
untraced and then again with spans around the program's layers, each pass
for half of ``--seconds``, and the last line carries the per-layer metrics
(including tracing overhead).  The line before it is a report: provenance,
the workload-specific figures and, for a traced run, the per-span table.  A failed correctness check prints
``"correct": false`` and exits 1; a tree without the program exits 2.
"""

from __future__ import annotations

import os

# One BLAS thread: the process runs at most two threads of its own (the
# gateway worker and the load generator), whatever numpy links against.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKLOADS = ("train-opamp", "serve-opamp", "search-yield-mna")
#: Set-ups before and after the measurement; ``setup_s`` is their median.
#: Spreading them over the run keeps one slow stretch of the host from
#: moving the median.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("design_steps", "count"),
)


def tree_digest() -> str:
    """SHA-256 over the measured source tree (paths and bytes of src/ and perfbench/)."""
    digest = hashlib.sha256()
    for base in (SOURCE, ROOT / "perfbench"):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
                digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs right now.

    Reported next to the metrics (not as one) so a change in them can be
    told apart from the shared host slowing down.
    """
    samples = []
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        samples.append((time.perf_counter() - began) * 1000.0)
    return sorted(samples)[2]


def import_program() -> bool:
    """Import ``repro`` from this checkout's ``src/``, and nothing else."""
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {SOURCE}: {exc}", file=sys.stderr)
        return False
    if SOURCE not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not {SOURCE}", file=sys.stderr)
        return False
    return True


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy as np

    from perfbench import search_yield, serve_opamp, train_opamp
    from perfbench.layers import HOOKS, PER_LAYER, TARGETS, layer_metrics
    from perfbench.metrics import median
    from perfbench.tracing import Tracer
    from perfbench.workload import UnitClock

    module = {
        "train-opamp": train_opamp,
        "serve-opamp": serve_opamp,
        "search-yield-mna": search_yield,
    }[workload]
    problems = []
    probes = [host_probe_ms()]
    # A traced run measures twice (untraced, then traced) in the same time.
    pass_seconds = seconds / 2 if trace else seconds
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        workdir = Path(scratch)
        setups = UnitClock()

        def timed_setup():
            gc.collect()  # garbage left by the previous step is not set-up work
            with setups.unit():
                state = module.setup(seed, pass_seconds, workdir)
            return state

        for _ in range(SETUPS_BEFORE - 1):
            module.close(timed_setup())
        state = timed_setup()
        try:
            untraced = module.measure(state, Tracer())
            problems += module.check(state, untraced)
        finally:
            module.close(state)
        for _ in range(SETUPS_AFTER):
            module.close(timed_setup())
        shown = untraced
        if trace:
            state = module.setup(seed, pass_seconds, workdir)
            tracer = Tracer()
            try:
                with tracer.install(TARGETS, HOOKS):
                    tracer.active = True
                    try:
                        shown = module.measure(state, tracer)
                    finally:
                        tracer.active = False
                problems += module.check(state, shown)
            finally:
                module.close(state)

    probes.append(host_probe_ms())
    end_to_end = dict(untraced.end_to_end, setup_s=median(setups.scaled))
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": {
            "tree_sha256": tree_digest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "host_probe_ms": probes,
        },
        "setup_s_samples": setups.raw,
        "end_to_end": end_to_end,
        "fail_frac": shown.outcomes.fail_frac,
        "details": shown.details,
        "problems": problems,
    }
    if trace:
        totals = tracer.totals()
        metrics = layer_metrics(totals, tracer.counts, untraced, shown)
        units = dict(PER_LAYER)
        report["traced_end_to_end"] = shown.end_to_end
        report["tracing_overhead"] = {
            name: shown.end_to_end[name] - untraced.end_to_end[name] for name in shown.end_to_end
        }
        report["spans"] = {
            name: {"calls": entry.calls, "total_s": entry.total_s, "self_s": entry.self_s}
            for name, entry in sorted(totals.items())
        }
    else:
        metrics = end_to_end
        units = dict(END_TO_END)
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        print(f"non-finite metrics {bad}: {json.dumps(report, default=str)}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": shown.outcomes.attempted,
        "failed": shown.outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _terminated(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the scratch directory is removed


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not import_program():
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - report the failure, print no result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
