"""What every workload hands back to ``run.py``."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

import numpy as np

from perfbench.metrics import Outcomes


@dataclass
class Measurement:
    """One timed section of a workload.

    ``end_to_end`` holds the values of the benchmark's end-to-end metrics;
    ``wall_s`` is the timed section's wall time; ``cost_per_op_s`` is the
    wall (or busy) time per unit of work, which tracing overhead is computed
    from; ``layers`` carries per-layer figures the workload measures itself
    (cache and gateway counters, load-generator lateness); ``details`` are
    workload-specific figures printed in the report line only.
    """

    end_to_end: Dict[str, float]
    wall_s: float
    cost_per_op_s: float
    outcomes: Outcomes
    layers: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)


def int_seed(sequence: np.random.SeedSequence) -> int:
    """A plain integer seed drawn from one spawned stream."""
    return int(sequence.generate_state(1)[0])


#: The reference loop: interpreted arithmetic and small numpy calls, the two
#: kinds of work the program's hot paths do.  It runs ``REFERENCE_REPEATS``
#: times per probe and the median run counts, so a run that is preempted once
#: does not skew the probe.
REFERENCE_PYTHON_STEPS = 10_000
REFERENCE_NUMPY_STEPS = 500
REFERENCE_REPEATS = 5
#: A probe on a quiet 2-vCPU x86 VM (the host that defined the benchmark);
#: per-unit times are scaled to that host speed.
REFERENCE_S = 0.0030


def reference_s() -> float:
    """Time of the fixed reference loop: how fast the host runs this process now."""
    runs = []
    vector = np.ones(16)
    for _ in range(REFERENCE_REPEATS):
        began = time.perf_counter()
        total = 0
        for value in range(REFERENCE_PYTHON_STEPS):
            total += value * value
        for _ in range(REFERENCE_NUMPY_STEPS):
            vector = np.tanh(vector * 0.5 + 0.25) @ np.eye(16)
        runs.append(time.perf_counter() - began)
    return sorted(runs)[REFERENCE_REPEATS // 2]


class UnitClock:
    """Times units of work, each between two runs of the reference loop.

    ``raw`` holds each unit's wall time and ``scaled`` the same time at the
    reference host speed: multiplied by the unit's entry in ``factors``,
    ``REFERENCE_S`` over the mean of the loop times just before and just
    after the unit.  ``factor`` is the latest unit's, for times taken inside it.
    """

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.scaled: List[float] = []
        self.factors: List[float] = []
        self.factor = 1.0
        self._before = reference_s()

    @contextmanager
    def unit(self) -> Iterator[None]:
        began = time.perf_counter()
        yield
        elapsed = time.perf_counter() - began
        after = reference_s()
        self.factor = 2.0 * REFERENCE_S / (self._before + after)
        self.factors.append(self.factor)
        self._before = after
        self.raw.append(elapsed)
        self.scaled.append(elapsed * self.factor)
