"""Tests of the benchmark's own arithmetic and span bookkeeping.

    python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import (  # noqa: E402
    RequestOutcome,
    percentile,
    quartile_spread,
    samples_needed,
    slo_ok_frac,
    tail,
    tail_percentile,
)
from hostspeed import CALLS, EVERY_S, NOMINAL_S, HostSpeed  # noqa: E402
from spans import ROOT, Span, Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# -- percentiles and the tail rule -------------------------------------------
def test_percentile_interpolates_like_numpy():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile(xs, 50) == pytest.approx(2.5)
    assert percentile(xs, 90) == pytest.approx(3.7)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize(
    "n, wanted, expected",
    [
        (100, 90.0, 90.0),  # exactly ten beyond p90
        (99, 90.0, 80.0),  # one short: the next rung down
        (1000, 99.0, 99.0),
        (999, 99.0, 95.0),
        (10_000, 99.0, 99.0),  # never above what was asked for
        (40, 75.0, 75.0),
        (20, 90.0, 50.0),
        (15, 90.0, 50.0),  # too small for any tail: the median
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, wanted, expected):
    assert tail_percentile(n, wanted) == expected


@pytest.mark.parametrize("p, n", [(75.0, 40), (90.0, 100), (99.0, 1000)])
def test_samples_needed_is_the_smallest_supporting_sample(p, n):
    assert samples_needed(p) == n
    assert tail_percentile(n, p) == p
    assert tail_percentile(n - 1, p) < p


def test_samples_needed_for_the_median():
    assert samples_needed(50.0) == 20
    with pytest.raises(ValueError):
        samples_needed(100.0)


def test_tail_reports_value_and_percentile_used():
    values = [float(i) for i in range(1, 101)]
    value, p = tail(values, 99.0)
    assert p == 90.0
    assert value == pytest.approx(percentile(values, 90.0))


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([10.0] * 10) == 0.0
    # statistics.quantiles (exclusive): q1=1.75, median=3.5, q3=5.25
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == pytest.approx(3.5 / 3.5)


# -- SLO accounting ----------------------------------------------------------
def test_slo_counts_refusals_and_expiries_as_misses():
    ok = RequestOutcome(True, 0.05, [0.01, 0.02])
    refused = RequestOutcome(False)
    expired = RequestOutcome(False)
    assert slo_ok_frac([ok, refused, expired, ok], 0.25, 0.1) == pytest.approx(0.5)


def test_slo_needs_both_limits():
    late_first = RequestOutcome(True, 0.30, [0.01])
    slow_gap = RequestOutcome(True, 0.05, [0.01, 0.2])
    on_the_limit = RequestOutcome(True, 0.25, [0.1])
    assert slo_ok_frac([late_first, slow_gap, on_the_limit], 0.25, 0.1) == pytest.approx(1 / 3)


def test_slo_finished_without_a_token_misses():
    assert slo_ok_frac([RequestOutcome(True, None, [])], 0.25, 0.1) == 0.0


def test_slo_of_nothing_sent_is_an_error():
    with pytest.raises(ValueError):
        slo_ok_frac([], 0.25, 0.1)


# -- spans and self time -----------------------------------------------------
def test_self_time_subtracts_nested_children():
    # root [0,10] > a [1,4] > leaf [2,3];  root > b [5,6]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = tracer.open("root")
    a = tracer.open("a")
    leaf = tracer.open("leaf")
    tracer.close(leaf)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    assert [s.parent for s in tracer.spans] == [ROOT, root, a, root]
    assert self_times(tracer.spans) == [6, 2, 1, 1]


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    parent = Span("p", 0.0, ROOT, None, "run")
    parent.end = 10.0
    spans = [parent]
    for start, end in [(1.0, 5.0), (4.0, 8.0), (9.0, 12.0)]:
        child = Span("c", start, 0, None, "run")
        child.end = end
        spans.append(child)
    # covered: [1, 8] and [9, 10] -> 8 of 10
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_close_out_of_order_is_an_error():
    tracer = Tracer(clock=FakeClock([0, 1, 2]))
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


class Widget:
    def work(self, request_id):
        return self.helper() + 1

    def helper(self):
        return 1

    @classmethod
    def make(cls):
        return cls()

    def items(self, n):
        yield from range(n)


def test_wrap_records_nested_spans_with_request_ids_and_unwraps():
    originals = {k: Widget.__dict__[k] for k in ("work", "helper", "make", "items")}
    tracer = Tracer()
    tracer.wrap(Widget, "work", "w:work", rid_of=lambda a: a[1])
    tracer.wrap(Widget, "helper", "w:helper")
    tracer.wrap(Widget, "make", "w:make")
    tracer.wrap(Widget, "items", "w:items")
    try:
        widget = Widget.make()
        assert isinstance(widget, Widget)
        assert widget.work("r7") == 2
        assert list(widget.items(2)) == [0, 1]
    finally:
        tracer.unwrap_all()
    names = [s.name for s in tracer.spans]
    # one span per item drawn, plus the final draw that ends the generator
    assert names == ["w:make", "w:work", "w:helper", "w:items", "w:items", "w:items"]
    work, helper = tracer.spans[1], tracer.spans[2]
    assert helper.parent == 1 and helper.rid == "r7" and work.rid == "r7"
    assert all(Widget.__dict__[k] is v for k, v in originals.items())


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.wrap(Widget, "helper", "w:helper")
    tracer.enabled = False
    try:
        assert Widget().helper() == 1
    finally:
        tracer.unwrap_all()
    assert tracer.spans == []


# -- host-speed scale --------------------------------------------------------
def test_host_scale_is_nominal_over_the_median_reference_time():
    assert CALLS == 3
    # one tick: three timed steps of 2, 6 and 3 ms, then the tick's end
    clock = FakeClock([0.0, 0.002, 1.0, 1.006, 2.0, 2.003, 2.5, 2.5 + EVERY_S / 2, 2.5 + EVERY_S])
    calls = []
    speed = HostSpeed(step=lambda: calls.append(1), clock=clock)
    speed.tick()
    assert len(calls) == CALLS + 1  # one untimed warm-up step
    assert speed.took == pytest.approx([0.002, 0.006, 0.003])
    assert speed.scale() == pytest.approx(NOMINAL_S / 0.003)
    assert not speed.due()
    assert speed.due()


def test_host_scale_needs_a_timed_step():
    with pytest.raises(ValueError):
        HostSpeed(step=lambda: None).scale()
