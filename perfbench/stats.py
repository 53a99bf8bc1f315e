"""Pure statistics of the benchmark: percentiles, the knee, span algebra.

Nothing here touches a socket, a process or the package under test, so
every rule the benchmark reports by is unit-tested in isolation
(``perfbench/tests``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Tail percentiles the benchmark may report, highest first.  The tail
#: is capped at p99 so that every run of a workload with >= 1000
#: samples reports the same percentile whatever its sample count.
TAIL_PERCENTILES = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: Latency limit that defines the knee of the open-loop rate ladder.
LATENCY_LIMIT_MS = 50.0

#: A ladder rung also fails when the send lag grows by more than this
#: between its first and last thirds (a backlog that does not drain).
LAG_GROWTH_LIMIT_MS = 25.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def tail_percentile(n: int) -> Optional[float]:
    """Highest reportable percentile with at least ten samples beyond it.

    Returns None when even the median has fewer than ten samples above
    it (fewer than 20 samples): such a run reports no tail.
    """
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def blocked_summary(
    latencies_ms: Sequence[float], blocks: int, max_pct: float = TAIL_PERCENTILES[0]
) -> Dict[str, object]:
    """Median over consecutive blocks of each block's median and tail.

    A stall of the shared machine spoils the blocks it falls in, not the
    run: the median over blocks reports the run's typical block.  Each
    block's tail is at the highest percentile the block supports (see
    :func:`tail_percentile`), capped at ``max_pct`` so that a faster
    program, with more samples per block, reports the same percentile.
    """
    n = len(latencies_ms)
    blocks = max(1, min(blocks, n))
    if n == 0:
        return {"n": 0, "blocks": 0, "p50_ms": None, "tail_pct": None, "tail_ms": None}
    size = n / blocks
    parts = [latencies_ms[round(i * size):round((i + 1) * size)] for i in range(blocks)]
    pct = tail_percentile(min(len(p) for p in parts))
    pct = None if pct is None else min(pct, max_pct)
    return {
        "n": n,
        "blocks": blocks,
        "p50_ms": median([median(p) for p in parts]),
        "tail_pct": pct,
        "tail_ms": None if pct is None else median([quantile(p, pct / 100.0) for p in parts]),
    }


def lag_growth_ms(send_lags_ms: Sequence[float]) -> float:
    """Median send lag of the last third minus that of the first third.

    The lags must be in schedule order.  A positive value means the
    generator fell further behind as the rung went on: a backlog.
    """
    n = len(send_lags_ms)
    if n < 3:
        return 0.0
    third = n // 3
    return median(send_lags_ms[-third:]) - median(send_lags_ms[:third])


def rung_passes(
    tail_ms: Optional[float], growth_ms: float, ok_share: float = 1.0
) -> bool:
    """A rung passes when its tail meets the limit, lag does not grow and
    every request it sent was answered correctly."""
    return (
        tail_ms is not None
        and tail_ms <= LATENCY_LIMIT_MS
        and growth_ms <= LAG_GROWTH_LIMIT_MS
        and ok_share >= 1.0
    )


def knee_rate(rungs: Sequence[Dict[str, float]]) -> Tuple[float, bool]:
    """Interpolated highest rate that meets the latency limit.

    ``rungs`` are dicts with ``rate``, ``tail_ms`` and ``passed``, in
    ascending rate order, ending at the first failing rung (or at the
    last rung run).  Between the last passing rung ``(r0, t0)`` and the
    first failing one ``(r1, t1)`` the tail is interpolated in log
    space, so a failing rung whose tail exploded into a backlog still
    places the knee smoothly: ``r0 + (r1 - r0) * ln(L/t0) / ln(t1/t0)``.
    A failing rung whose tail is within the limit (it failed on lag
    growth or errors) places the knee midway.  With no failing rung the
    knee is the top rung and the result is flagged as censored.

    Returns ``(rate, censored)``.
    """
    if not rungs:
        raise ValueError("knee of an empty ladder")
    passed = [r for r in rungs if r["passed"]]
    failed = [r for r in rungs if not r["passed"]]
    if not failed:
        return float(rungs[-1]["rate"]), True
    first_fail = failed[0]
    below = [r for r in passed if r["rate"] < first_fail["rate"]]
    if below:
        r0, t0 = float(below[-1]["rate"]), float(below[-1]["tail_ms"])
    else:
        r0, t0 = 0.0, 0.0
    r1 = float(first_fail["rate"])
    t1 = first_fail.get("tail_ms")
    limit = LATENCY_LIMIT_MS
    if t1 is None or t1 <= limit:
        return r0 + 0.5 * (r1 - r0), False
    if t0 <= 0.0:
        # No passing rung: interpolate linearly from the origin.
        return r1 * limit / t1, False
    frac = math.log(limit / t0) / math.log(t1 / t0)
    return r0 + (r1 - r0) * min(1.0, max(0.0, frac)), False


def covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in children if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_time(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """A span's self time: its duration minus what its children cover."""
    return (interval[1] - interval[0]) - covered(interval, children)


#: Phases a data-plane request's client latency splits into, in order.
PHASES = ("transport", "edge_self", "decode", "admit", "queue_wait", "kernel", "encode")

#: The sum check's tolerance: phases must add up to the client latency
#: within max(abs, rel * latency) on at least ``SUM_CHECK_SHARE`` of
#: requests.
SUM_TOL_ABS_MS = 0.5
SUM_TOL_REL = 0.10
SUM_CHECK_SHARE = 0.90


def phase_residual_ms(client_ms: float, phases: Dict[str, float]) -> float:
    """Client latency minus the sum of its phases (ms)."""
    return client_ms - sum(phases[p] for p in PHASES)


def within_tolerance(client_ms: float, residual_ms: float) -> bool:
    return abs(residual_ms) <= max(SUM_TOL_ABS_MS, SUM_TOL_REL * client_ms)


def request_phases(
    client_ms: float,
    handler: Tuple[float, float],
    handler_children: Dict[str, List[Tuple[float, float]]],
    queue_wait_ms: float,
    kernel_ms: float,
) -> Dict[str, float]:
    """Split one request's client latency into :data:`PHASES` (ms).

    ``handler`` is the server-side handler interval (seconds);
    ``handler_children`` maps phase name -> intervals timed on the
    handler thread (``decode``, ``admit``, ``encode`` and ``wait``: the
    submit-to-answer wait on the batcher, or the direct kernel call on
    the bulk path).  ``queue_wait_ms`` and ``kernel_ms`` are timed on
    the dispatcher thread.  The edge's self time is the handler minus
    every handler-thread child; transport is the client latency minus
    the handler.  So the residual measures only how far the dispatcher
    thread's queue wait + kernel time fall short of (or exceed) the
    handler's wait on them: thread hand-off, wake-up and anything the
    spans miss.
    """
    handler_ms = 1000.0 * (handler[1] - handler[0])
    all_children = [iv for ivs in handler_children.values() for iv in ivs]
    phases = {
        "transport": client_ms - handler_ms,
        "edge_self": 1000.0 * self_time(handler, all_children),
        "queue_wait": queue_wait_ms,
        "kernel": kernel_ms,
    }
    for name in ("decode", "admit", "encode"):
        phases[name] = 1000.0 * sum(b - a for a, b in handler_children.get(name, ()))
    return phases
