"""Corner-lane batched PVT sweeps: K corners in one shot vs K clone calls.

``repro.corners`` claims that a five-corner sweep through the batched
kernel path (one kernel, per-lane technology constants) beats looping a
per-corner simulator clone (identical physics per ``tests/corners``'s
bitwise parity suite).  This bench measures sweeps-per-second of the same
:class:`~repro.corners.CornerSimulator` with ``batched=True`` versus
``batched=False`` over a fixed stream of sampled sizings.

On the MNA methods each path is its own benchmark entry, so the baseline
gate in ``compare_bench.py`` (``--threshold``) tracks each path's own
sweeps/s; the sequential entry also records the batched/sequential ratio
(``corner_batched_speedup``) for the trend, ungated — both paths run the
one stacked MNA engine, the batched one with all corners in one stack.  The
analytic methods are recorded under separate ``*_analytic`` keys with a
sanity floor only: their per-corner cost is a few closed-form scalar
expressions, so the batched path's array tiling buys nothing and costs a
little (measured ~0.8-1.0x) — the corner lanes exist for the solver-bound
methods, and the recorded ratio keeps that trade-off visible.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuits import BENCHMARK_BUILDERS
from repro.corners import CornerSimulator, default_corner_set
from repro.simulation.opamp_sim import OpAmpSimulator
from repro.simulation.ota_sim import CmOtaSimulator

#: Sampled sizings per timed measurement; each sweep is five corners.
NUM_SIZINGS = 40

CASES = {
    "two_stage_opamp-mna": ("two_stage_opamp", lambda: OpAmpSimulator(method="mna")),
    "current_mirror_ota-mna": (
        "current_mirror_ota", lambda: CmOtaSimulator(method="mna")
    ),
    "two_stage_opamp-analytic": ("two_stage_opamp", lambda: OpAmpSimulator()),
    "current_mirror_ota-analytic": ("current_mirror_ota", lambda: CmOtaSimulator()),
}


def _corner_sweep(case: str, batched: bool) -> tuple:
    """A warmed corner simulator of ``case`` and its stream of sampled sizings."""
    circuit, factory = CASES[case]
    benchmark_def = BENCHMARK_BUILDERS[circuit]()
    rng = np.random.default_rng(0)
    netlists = []
    for _ in range(NUM_SIZINGS):
        netlist = benchmark_def.fresh_netlist()
        benchmark_def.design_space.apply_to_netlist(
            netlist, benchmark_def.design_space.sample(rng)
        )
        netlists.append(netlist)
    simulator = CornerSimulator(
        factory(), corner_set=default_corner_set(),
        spec_space=benchmark_def.spec_space, batched=batched,
    )
    assert simulator.batched is batched
    simulator.simulate(netlists[0])  # kernel build / warm-up off the clock
    return simulator, netlists


def _sweeps_per_s(simulator: CornerSimulator, netlists: list) -> float:
    start = time.perf_counter()
    for netlist in netlists:
        simulator.simulate(netlist)
    return len(netlists) / (time.perf_counter() - start)


def _sweep_throughput(case: str) -> tuple:
    """Sweeps/s of the same corner simulator, batched vs sequential."""
    return tuple(_sweeps_per_s(*_corner_sweep(case, batched)) for batched in (True, False))


#: Batched-path sweeps/s per MNA case, read by the sequential entry.
_BATCHED_MNA_SWEEPS_PER_S: dict = {}


@pytest.mark.parametrize(
    "case,path",
    [
        (case, path)
        for case in ("two_stage_opamp-mna", "current_mirror_ota-mna")
        for path in ("batched", "sequential")
    ],
)
def test_corner_sweep_mna_throughput(benchmark, case, path):
    """Five-corner MNA sweeps/s, one entry per execution path."""
    batched = path == "batched"
    sweeps_per_s = benchmark.pedantic(
        _sweeps_per_s, setup=lambda: (_corner_sweep(case, batched), {}), rounds=1
    )
    benchmark.extra_info.update(
        {
            "case": case,
            "num_corners": len(default_corner_set()),
            f"corner_{path}_sweeps_per_s": round(sweeps_per_s, 1),
        }
    )
    if batched:
        _BATCHED_MNA_SWEEPS_PER_S[case] = sweeps_per_s
    elif case in _BATCHED_MNA_SWEEPS_PER_S:
        benchmark.extra_info["corner_batched_speedup"] = round(
            _BATCHED_MNA_SWEEPS_PER_S[case] / sweeps_per_s, 2
        )


@pytest.mark.parametrize(
    "case", ["two_stage_opamp-analytic", "current_mirror_ota-analytic"]
)
def test_corner_sweep_batched_speedup_analytic(benchmark, case):
    """Analytic methods: dispatch-bound, so only a sanity floor."""
    batched, sequential = benchmark.pedantic(
        lambda: _sweep_throughput(case), rounds=1, iterations=1
    )
    speedup = batched / sequential
    benchmark.extra_info.update(
        {
            "case": case,
            "num_corners": len(default_corner_set()),
            "corner_batched_sweeps_per_s_analytic": round(batched, 1),
            "corner_sequential_sweeps_per_s_analytic": round(sequential, 1),
            "corner_batched_speedup": round(speedup, 2),
        }
    )
    # Batched analytic sweeps measure ~0.8-1.0x (tiling overhead vs five
    # near-free closed-form evaluations); the floor only rules out a
    # pathologically pessimized batched path.
    assert speedup >= 0.4, (
        f"batched corner sweep of {case} pathologically slow: {speedup:.2f}x"
    )
