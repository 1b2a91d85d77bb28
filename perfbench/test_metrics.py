"""The benchmark's metric arithmetic on synthetic inputs.

Run from the root of the repository: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math

import pytest

from perfbench.metrics import (
    Outcomes,
    RateStep,
    Span,
    aggregate,
    batch_intervals,
    backlog_at,
    backlog_grows,
    max_passing_rate,
    percentile,
    quartile_spread,
    samples_beyond,
    self_times,
    step_passes,
)
from perfbench.tracing import Tracer


# -- percentiles --------------------------------------------------------
def test_p90_of_100_samples_has_ten_beyond_and_is_a_sample():
    values = list(range(1, 101))
    assert samples_beyond(100, 90.0) == 10
    assert percentile(values, 90.0) == 90


def test_p90_with_fewer_than_ten_beyond_is_refused():
    with pytest.raises(ValueError, match="fewer than 10"):
        percentile(list(range(99)), 90.0)


def test_median_and_p99_support():
    assert percentile(list(range(1, 21)), 50.0) == 10
    assert samples_beyond(1000, 99.0) == 10
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99.0)


def test_failures_enter_as_inf_and_miss_any_limit():
    values = [1.0] * 89 + [math.inf] * 11
    assert percentile(values, 90.0) == math.inf


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(
        (10.75 - 9.25) / 10.0
    )


# -- rate ladder --------------------------------------------------------
def _step(latency_s, gap_s=0.01, count=120, rate=100.0, ok=None):
    due = [index * gap_s for index in range(count)]
    done = [d + latency_s(index) for index, d in enumerate(due)]
    return RateStep(rate=rate, due=due, done=done, measured=[True] * count,
                    ok=ok if ok is not None else [True] * count)


def test_backlog_counts_due_and_unanswered():
    assert backlog_at([0.0, 1.0, 2.0], [5.0, 1.5, 2.5], 1.2) == 2
    assert backlog_at([0.0, 1.0, 2.0], [5.0, 1.5, 2.5], 0.0) == 1


def test_steady_step_passes():
    step = _step(lambda index: 0.05)
    assert not backlog_grows(step, slack=16)
    assert step_passes(step, limit_ms=200.0, slack=16)


def test_growing_backlog_misses_even_under_the_latency_limit():
    # Each request waits 1.5 ms longer than the last: latency stays below
    # 200 ms, but the queue grows steadily through the step.
    step = _step(lambda index: 0.0015 * index, gap_s=0.001)
    assert percentile(step.latencies_ms(), 90.0) < 200.0
    assert backlog_grows(step, slack=16)
    assert not step_passes(step, limit_ms=200.0, slack=16)


def test_slow_tail_misses_the_limit():
    step = _step(lambda index: 0.3 if index % 5 == 0 else 0.05)
    assert not backlog_grows(step, slack=16)
    assert not step_passes(step, limit_ms=200.0, slack=16)


def test_a_failed_request_fails_the_step():
    ok = [True] * 120
    ok[7] = False
    assert not step_passes(_step(lambda index: 0.01, ok=ok), limit_ms=200.0, slack=16)


def test_unmeasured_requests_do_not_count_toward_latency():
    step = _step(lambda index: 1.0 if index % 4 == 0 else 0.01, count=160)
    step.measured = [index % 4 != 0 for index in range(160)]
    assert len(step.latencies_ms()) == 120
    assert max(step.latencies_ms()) == pytest.approx(10.0)


def test_max_rate_is_the_last_pass_before_the_first_miss():
    assert max_passing_rate([(20, True), (40, True), (60, False), (80, True)]) == 40
    assert max_passing_rate([(20, True), (40, True)]) == 40
    assert max_passing_rate([(20, False)]) == 0.0


def test_batch_intervals_close_every_full_batch():
    # Four batches of two: 1 s, 1 s, 5 s (a stalled batch), 1 s.
    done = [1.0, 2.0, 1.0, 2.0, 7.0, 8.0, 7.0, 8.0]
    assert batch_intervals(0.0, done, 2) == pytest.approx([1.0, 1.0, 5.0, 1.0])
    with pytest.raises(ValueError):
        batch_intervals(0.0, [1.0], 2)


# -- self time ----------------------------------------------------------
def test_self_time_subtracts_children():
    spans = [
        Span("update", 0.0, 10.0),
        Span("forward", 1.0, 3.0, parent=0),
        Span("backward", 4.0, 8.0, parent=0),
        Span("kernel", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_overlapping_children_count_once_and_are_clipped_to_the_parent():
    spans = [
        Span("serve", 0.0, 10.0),
        Span("a", 2.0, 6.0, parent=0),
        Span("b", 4.0, 8.0, parent=0),
        Span("late", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_aggregate_sums_per_name():
    spans = [
        Span("step", 0.0, 2.0),
        Span("sim", 0.5, 1.0, parent=0),
        Span("step", 3.0, 4.0),
        Span("sim", 3.0, 3.5, parent=2),
    ]
    table = aggregate(spans)
    assert table["step"].calls == 2
    assert table["step"].total_s == pytest.approx(3.0)
    assert table["step"].self_s == pytest.approx(2.0)
    assert table["sim"].self_s == pytest.approx(1.0)


def test_tracer_wraps_only_while_installed():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    with tracer.install([(Layer, "outer", "outer"), (Layer, "inner", "inner")]):
        layer = Layer()
        assert layer.outer() == 2  # inactive: no spans
        tracer.active = True
        assert layer.outer() == 2
        tracer.active = False
    assert Layer.__dict__["outer"] is original
    assert [span.name for span in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1].parent == 0
    totals = tracer.totals()
    assert totals["outer"].self_s <= totals["outer"].total_s


# -- failed operations --------------------------------------------------
def test_fail_frac_counts_failures_over_attempts():
    outcomes = Outcomes()
    assert outcomes.fail_frac == 0.0
    for ok in (True, False, True, True):
        outcomes.record(ok)
    assert (outcomes.attempted, outcomes.failed) == (4, 1)
    assert outcomes.fail_frac == 0.25
