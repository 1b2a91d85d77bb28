"""Metric arithmetic shared by the workloads: pure functions, no ``repro`` import.

Everything here is tested on synthetic inputs in ``test_metrics.py``:

* percentiles by the nearest-rank rule, reported only when at least
  ``MIN_BEYOND`` samples lie beyond them;
* the open-loop rate ladder: when a rate step meets the latency limit and
  when its backlog counts as growing, and the highest passing rate;
* span self time (a span minus the part of it its child spans cover);
* failed-operation accounting.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``count``."""
    if count < 1:
        return 0
    rank = max(1, math.ceil(q / 100.0 * count))
    return count - rank


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile; raises without ``min_beyond`` samples beyond.

    The value returned is always one of the samples.  A failed operation
    enters as ``math.inf``, so it counts as missing any latency limit.
    """
    ordered = sorted(values)
    if samples_beyond(len(ordered), q) < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has fewer than {min_beyond} samples beyond it"
        )
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median (midpoint of the two middle values if their count is even)."""
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles(n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else math.inf


# ----------------------------------------------------------------------
# Open-loop rate ladder
# ----------------------------------------------------------------------
def backlog_at(due: Sequence[float], done: Sequence[float], t: float) -> int:
    """Requests due by ``t`` and not yet answered at ``t``."""
    return sum(1 for d, c in zip(due, done) if d <= t < c)


@dataclass
class RateStep:
    """One rate of the ladder: arrival schedule and answer times of its requests.

    ``due``/``done`` cover every request of the step (times in seconds on
    one clock); ``measured`` marks the requests whose latency counts toward
    the percentiles (requests answered by the response cache do not);
    ``ok`` is False for a request that failed or was refused.
    """

    rate: float
    due: List[float]
    done: List[float]
    measured: List[bool]
    ok: List[bool]
    late: List[float] = field(default_factory=list)

    def latencies_ms(self) -> List[float]:
        """Latency from due time of every measured request; failures are inf."""
        return [
            (c - d) * 1000.0 if good else math.inf
            for d, c, counted, good in zip(self.due, self.done, self.measured, self.ok)
            if counted
        ]

    def backlog_mid_end(self) -> Tuple[int, int]:
        """Backlog at the middle arrival and at the last arrival."""
        order = sorted(self.due)
        middle = order[(len(order) - 1) // 2]
        return backlog_at(self.due, self.done, middle), backlog_at(self.due, self.done, order[-1])


def backlog_grows(step: RateStep, slack: int) -> bool:
    """The backlog grew by more than ``slack`` from the middle to the end of the step."""
    mid, end = step.backlog_mid_end()
    return end - mid > slack


def step_passes(step: RateStep, limit_ms: float, slack: int, q: float = 90.0) -> bool:
    """A step meets the limit: p``q`` within ``limit_ms`` and no growing backlog."""
    if not all(step.ok):
        return False
    return percentile(step.latencies_ms(), q) <= limit_ms and not backlog_grows(step, slack)


def max_passing_rate(passed: Sequence[Tuple[float, bool]]) -> float:
    """Highest rate before the first failing one in ladder order (0.0 if the first fails)."""
    best = 0.0
    for rate, ok in passed:
        if not ok:
            break
        best = rate
    return best


def batch_intervals(start: float, done: Sequence[float], batch_size: int) -> List[float]:
    """Intervals between full-batch completions of requests all due at ``start``.

    Answered in batches of ``batch_size``, every ``batch_size``-th answer
    closes a batch; the first interval runs from ``start``.
    """
    ends = sorted(done)[batch_size - 1 :: batch_size]
    if not ends:
        raise ValueError(f"fewer than {batch_size} answers")
    return [ends[0] - start] + [b - a for a, b in zip(ends, ends[1:])]


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One traced call: name, start and end (seconds) and its parent's index."""

    name: str
    start: float
    end: float
    parent: Optional[int] = None


def _covered(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, [])
            if end > span.start and start < span.end
        ]
        result.append((span.end - span.start) - _covered(clipped))
    return result


@dataclass
class LayerTotals:
    """Per-name aggregate of spans."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def aggregate(spans: Sequence[Span]) -> Dict[str, LayerTotals]:
    """Calls, total time and self time per span name."""
    table: Dict[str, LayerTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = table.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.total_s += span.end - span.start
        entry.self_s += own
    return table


# ----------------------------------------------------------------------
# Failed operations
# ----------------------------------------------------------------------
@dataclass
class Outcomes:
    """Operations attempted and failed; a failure raised or returned a non-ok result."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
