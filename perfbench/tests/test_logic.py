"""Tests of the benchmark's own rules (no server, no sockets).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random

import pytest

from perfbench import layers, stats
from perfbench.loadgen import Sample, poisson_schedule


# -- the percentile rule ------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (499, 95.0), (500, 98.0), (999, 98.0), (1000, 99.0), (50000, 99.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10


def test_blocked_summary_takes_medians_over_blocks():
    block = [float(i) for i in range(1, 201)]  # 200 samples: p95 supported
    stalled = [v + 1000.0 for v in block]
    summary = stats.blocked_summary(block * 3 + stalled, blocks=4, max_pct=98.0)
    assert summary["blocks"] == 4 and summary["n"] == 800
    assert summary["tail_pct"] == 95.0  # 200 per block supports p95, not p98
    # One stalled block out of four leaves the median over blocks as is.
    assert summary["p50_ms"] == pytest.approx(100.5)
    assert summary["tail_ms"] == pytest.approx(stats.quantile(block, 0.95))
    assert stats.blocked_summary(block * 10, blocks=1, max_pct=95.0)["tail_pct"] == 95.0
    whole = stats.blocked_summary([float(i) for i in range(1, 1001)], blocks=1)
    assert (whole["n"], whole["tail_pct"]) == (1000, 99.0)
    assert whole["p50_ms"] == pytest.approx(500.5)
    assert whole["tail_ms"] == pytest.approx(990.01)
    assert stats.blocked_summary([], blocks=4)["tail_ms"] is None


def test_quantile_interpolates_linearly():
    assert stats.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert stats.quantile([0.0, 10.0], 0.25) == 2.5
    with pytest.raises(ValueError):
        stats.quantile([], 0.5)


# -- the knee ------------------------------------------------------------------

def _rung(rate, tail, passed=None):
    return {"rate": rate, "tail_ms": tail,
            "passed": stats.rung_passes(tail, 0.0) if passed is None else passed}


def test_knee_interpolates_in_log_space():
    rungs = [_rung(150.0, 25.0), _rung(200.0, 100.0)]
    knee, censored = stats.knee_rate(rungs)
    # ln(50/25) / ln(100/25) = 1/2: halfway between the rungs.
    assert knee == pytest.approx(175.0)
    assert not censored


def test_knee_stays_near_the_passing_rung_when_the_tail_explodes():
    knee, _ = stats.knee_rate([_rung(150.0, 25.0), _rung(200.0, 25.0 * 2 ** 10)])
    assert knee == pytest.approx(150.0 + 50.0 / 10)


def test_knee_midway_when_the_failing_rung_failed_on_lag_growth():
    rungs = [_rung(150.0, 25.0), _rung(200.0, 40.0, passed=False)]
    assert stats.knee_rate(rungs) == (175.0, False)


def test_knee_censored_when_no_rung_fails():
    assert stats.knee_rate([_rung(150.0, 10.0), _rung(172.5, 20.0)]) == (172.5, True)


def test_knee_below_the_first_rung_scales_from_the_origin():
    knee, censored = stats.knee_rate([_rung(150.0, 100.0)])
    assert knee == pytest.approx(75.0) and not censored


def test_rung_fails_on_lag_growth_or_errors():
    assert stats.rung_passes(10.0, 0.0)
    assert not stats.rung_passes(60.0, 0.0)
    assert not stats.rung_passes(10.0, stats.LAG_GROWTH_LIMIT_MS + 1.0)
    assert not stats.rung_passes(10.0, 0.0, ok_share=0.99)
    assert not stats.rung_passes(None, 0.0)


def test_lag_growth_compares_last_and_first_thirds():
    assert stats.lag_growth_ms([0.0] * 30) == 0.0
    assert stats.lag_growth_ms([0.0] * 10 + [5.0] * 10 + [40.0] * 10) == 40.0


# -- schedules -------------------------------------------------------------------

def test_schedule_is_a_function_of_the_seed():
    a = poisson_schedule(random.Random(7), 150.0, 1500)
    b = poisson_schedule(random.Random(7), 150.0, 1500)
    c = poisson_schedule(random.Random(8), 150.0, 1500)
    assert a == b and a != c
    assert len(a) == 1500 and a == sorted(a) and a[0] > 0.0
    assert 9.0 < a[-1] < 11.0  # 1500 arrivals at 150/s take about 10 s


# -- span algebra and the sum check ----------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    span = (0.0, 10.0)
    children = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0), (-5.0, -1.0)]
    assert stats.covered(span, children) == pytest.approx(5.0)
    assert stats.self_time(span, children) == pytest.approx(5.0)


def _synthetic_request(rid, t):
    """One locate request: handler 10 ms, decode 1, admit 0.1, wait 8
    (queue 5 + kernel 2 + 1 ms hand-off), encode 0.5; the client saw 11 ms."""
    ms = 1e-3
    wait_end = t + 9.2 * ms
    dispatch_start = t + 1.2 * ms + 5.0 * ms
    events = [
        ["http", rid, t, t + 10.0 * ms],
        ["admit", rid, t + 0.05 * ms, t + 0.15 * ms, False],
        ["decode", rid, t + 0.2 * ms, t + 1.2 * ms],
        ["wait", rid, t + 1.2 * ms, wait_end],
        ["dispatch", "http", dispatch_start, dispatch_start + 2.0 * ms, [rid]],
        ["encode", rid, t + 9.3 * ms, t + 9.8 * ms],
    ]
    sample = Sample(index=0, due=t - 0.5 * ms, sent=t - 0.5 * ms, done=t + 10.5 * ms,
                    status=200, body=b"{}", request_id=rid, bytes_in=300)
    return events, sample


def test_sum_check_on_a_synthetic_span_set():
    events, sample = _synthetic_request("r1", 100.0)
    report = layers.analyse(events, None, [sample], untraced_p50_ms=10.0)
    phases = report["budget_p50_ms"]
    assert phases["transport"] == pytest.approx(1.0)
    assert phases["decode"] == pytest.approx(1.0)
    assert phases["admit"] == pytest.approx(0.1)
    assert phases["queue_wait"] == pytest.approx(5.0)
    assert phases["kernel"] == pytest.approx(2.0)
    assert phases["encode"] == pytest.approx(0.5)
    # Handler 10 ms minus children (0.1 + 1.0 + 8.0 + 0.5) = 0.4 ms.
    assert phases["edge_self"] == pytest.approx(0.4)
    # The 1 ms between dispatch end and the handler's wake-up is the
    # residual; it is within max(0.5 ms, 10% of 11 ms).
    m = report["metrics"]
    assert m["trace.residual_p50_ms"] == pytest.approx(1.0)
    assert m["trace.sum_check_share"] == 1.0
    assert m["trace.overhead_p50_ms"] == pytest.approx(1.0)
    assert m["batcher.queue_wait_p50_ms"] == pytest.approx(5.0)
    assert m["batcher.dispatches"] == 1 and m["wire.bytes_in"] == 300


def test_sum_check_flags_a_gap_the_spans_miss():
    events, sample = _synthetic_request("r1", 100.0)
    # The dispatcher's spans shrink: 3 ms of the wait go unexplained.
    events[4] = ["dispatch", "http", 100.0 + 6.2e-3, 100.0 + 6.2e-3 + 0.0, ["r1"]]
    report = layers.analyse(events, None, [sample], untraced_p50_ms=11.0)
    assert report["metrics"]["trace.residual_p50_ms"] == pytest.approx(3.0)
    assert report["metrics"]["trace.sum_check_share"] == 0.0


def test_phases_sum_to_client_latency_when_nothing_is_missed():
    phases = stats.request_phases(
        client_ms=12.0, handler=(0.0, 0.010),
        handler_children={"decode": [(0.001, 0.002)], "wait": [(0.002, 0.009)]},
        queue_wait_ms=5.0, kernel_ms=2.0,
    )
    assert stats.phase_residual_ms(12.0, phases) == pytest.approx(0.0)
    assert stats.within_tolerance(12.0, 0.0)
    assert not stats.within_tolerance(12.0, 1.3)
