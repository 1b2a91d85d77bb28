"""search-yield-mna: size with a genetic search, then verify by Monte-Carlo yield.

For each seeded spec group a genetic search at a fixed simulation budget
runs on ``opamp-mna-v0`` (one MNA solve per simulation), and its best
sizing is then swept over Monte-Carlo process/temperature points riding
the batched corner lanes.  The search runs to its full budget instead of
stopping at the first sizing that meets the specs, so every group does the
same work.  Groups run until ``--seconds`` are used.  Neither MNA use runs
in the other two workloads.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.baselines.base import OptimizationResult
from repro.corners import CornerSet, CornerSimulator
from repro.experiments.yield_report import monte_carlo_corner_set
from repro.simulation.base import SimulationResult
from repro.simulation.opamp_sim import OpAmpSimulator

from perfbench.metrics import Outcomes, median
from perfbench.workload import Measurement, UnitClock, int_seed

ENV_ID = "opamp-mna-v0"
#: Simulations per spec group: the initial population of 20 and 4 generations.
SEARCH_BUDGET = 100
YIELD_SAMPLES = 512
PARITY_LANES = 8
#: The fewest groups a run times, however slow the host.
MIN_GROUPS = 4
#: Groups drawn per second of the run: more than any host runs (a group took
#: 0.75 s or more on the 2-vCPU x86 VM that defined the benchmark).
GROUPS_PER_SECOND = 2


def group_count(seconds: float) -> int:
    return max(MIN_GROUPS, math.ceil(seconds * GROUPS_PER_SECOND))


@dataclass
class Group:
    target: Dict[str, float]
    seed: int
    ok: bool = False
    result: Optional[OptimizationResult] = None
    parameters: Optional[np.ndarray] = None
    lanes: List[SimulationResult] = field(default_factory=list)
    yield_frac: float = 0.0


@dataclass
class State:
    env: object
    optimizer: object
    verifier: CornerSimulator
    groups: List[Group]
    check_rng: np.random.Generator
    seconds: float


def setup(seed: int, seconds: float, workdir: Path) -> State:
    target_stream, search_stream, corner_stream, check_stream = np.random.SeedSequence(
        seed
    ).spawn(4)
    env = repro.make_env(ENV_ID)
    optimizer = repro.make_optimizer("genetic", stop_when_met=False)
    spec_space = env.benchmark.spec_space
    rng = np.random.default_rng(target_stream)
    seeds = search_stream.spawn(group_count(seconds))
    groups = [Group(spec_space.sample(rng), int_seed(stream)) for stream in seeds]
    verifier = CornerSimulator(
        OpAmpSimulator(method="mna"),
        corner_set=monte_carlo_corner_set(YIELD_SAMPLES, int_seed(corner_stream)),
        spec_space=spec_space,
    )
    # The first sweep builds the lane kernel; later sweeps reuse it.
    verifier.corner_results(env.benchmark.fresh_netlist())
    return State(env, optimizer, verifier, groups, np.random.default_rng(check_stream), seconds)


def close(state: State) -> None:
    pass


def _lane_passes(result, spec_space, target: Dict[str, float]) -> bool:
    return bool(result.valid) and all(
        spec.is_met(result.specs[spec.name], target[spec.name]) for spec in spec_space
    )


def _run_group(state: State, group: Group, tracer, sweep_s: List[float]) -> None:
    """Search one spec group, then sweep its best sizing; a failure marks it not ok."""
    benchmark = state.env.benchmark
    try:
        with tracer.span("baselines.search"):
            group.result = state.optimizer.optimize(
                state.env, budget=SEARCH_BUDGET, seed=group.seed, target_specs=group.target
            )
        netlist = benchmark.fresh_netlist()
        group.parameters = benchmark.design_space.apply_to_netlist(
            netlist, group.result.best_parameters
        )
        swept = time.perf_counter()
        with tracer.span("corners.corner_results"):
            group.lanes = state.verifier.corner_results(netlist)
        sweep_s.append(time.perf_counter() - swept)
        group.yield_frac = float(np.mean(
            [_lane_passes(lane, benchmark.spec_space, group.target) for lane in group.lanes]
        ))
        group.ok = True
    except Exception:  # noqa: BLE001 - a failed group is counted, the run goes on
        group.ok = False


def measure(state: State, tracer) -> Measurement:
    outcomes = Outcomes()
    sweep_s: List[float] = []
    sweep_scaled: List[float] = []

    start = time.perf_counter()
    deadline = start + state.seconds
    clock = UnitClock()
    for index, group in enumerate(state.groups):
        if index >= MIN_GROUPS and time.perf_counter() >= deadline:
            del state.groups[index:]  # drawn but not run
            break
        with clock.unit():
            _run_group(state, group, tracer, sweep_s)
        if group.ok:
            sweep_scaled.append(sweep_s[-1] * clock.factor)
        outcomes.record(group.ok)
    wall = time.perf_counter() - start

    done = [group for group in state.groups if group.ok]
    lanes = YIELD_SAMPLES * len(done)
    return Measurement(
        end_to_end={
            "throughput_per_s": YIELD_SAMPLES / median(sweep_scaled),
            "latency_ms": median(clock.scaled) * 1000.0,
            "design_steps": float(np.mean([group.result.num_simulations for group in done])),
        },
        wall_s=wall,
        cost_per_op_s=wall / len(state.groups),
        outcomes=outcomes,
        layers={
            "corners.lanes": lanes,
            "baselines.success_rate": float(np.mean([g.result.success for g in done])),
        },
        details={
            "search.groups": len(state.groups),
            "search.s_per_target": median(clock.raw),
            "search.group_ms": [value * 1000.0 for value in clock.raw],
            "yield.sweep_ms": [value * 1000.0 for value in sweep_s],
            "search.group_scaled_ms": [value * 1000.0 for value in clock.scaled],
            "yield.sweep_scaled_ms": [value * 1000.0 for value in sweep_scaled],
            "search.success_rate": float(np.mean([g.result.success for g in done])),
            "search.groups_per_s": len(done) / wall,
            "yield.lanes_per_s": YIELD_SAMPLES / median(sweep_s),
            "yield.mean_yield": float(np.mean([g.yield_frac for g in done])),
        },
    )


def _lane_outcome(result) -> Tuple[bool, tuple]:
    return bool(result.valid), tuple(sorted(result.specs.items()))


def check(state: State, measurement: Measurement) -> List[str]:
    problems = []
    benchmark = state.env.benchmark
    simulator = OpAmpSimulator(method="mna")
    for group in state.groups:
        if not group.ok:
            continue
        netlist = benchmark.fresh_netlist()
        benchmark.design_space.apply_to_netlist(netlist, group.parameters)
        specs = simulator.simulate(netlist).specs
        if repr(sorted(specs.items())) != repr(sorted(group.result.best_specs.items())):
            problems.append("re-simulating a best sizing did not reproduce its best_specs")
            break
    done = [group for group in state.groups if group.ok]
    if not done:
        return problems + ["no spec group completed"]
    group = done[int(state.check_rng.integers(len(done)))]
    picks = sorted(
        int(index)
        for index in state.check_rng.choice(YIELD_SAMPLES, size=PARITY_LANES, replace=False)
    )
    corners = state.verifier.corner_set.corners
    sequential = CornerSimulator(
        OpAmpSimulator(method="mna"),
        corner_set=CornerSet(corners=tuple(corners[index] for index in picks)),
        spec_space=benchmark.spec_space,
        batched=False,
    )
    netlist = benchmark.fresh_netlist()
    benchmark.design_space.apply_to_netlist(netlist, group.parameters)
    reference = sequential.corner_results(netlist)
    for index, expected in zip(picks, reference):
        if repr(_lane_outcome(group.lanes[index])) != repr(_lane_outcome(expected)):
            problems.append(f"yield lane {index} differs from the sequential corner loop")
            break
    return problems
