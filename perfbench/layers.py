"""Join the traced server's spans to client requests; the layer budget.

Spans carry the ``X-Request-Id`` the generator sent, so each client
sample finds its handler span, the handler-thread child spans and the
dispatch that carried it.  The per-layer metrics below are what
``run.py --trace 1`` prints; the per-request phase medians
(``budget_p50_ms``) are the layer budget of the README.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from perfbench import stats

#: Every per-layer metric, with its unit (``BENCHMARK.json`` lists these).
PER_LAYER = {
    "loadgen.send_lag_p99_ms": "ms",
    "http.handler_p50_ms": "ms",
    "http.edge_self_p50_ms": "ms",
    "http.transport_p50_ms": "ms",
    "wire.decode_p50_ms": "ms",
    "wire.encode_p50_ms": "ms",
    "wire.bytes_in": "B",
    "wire.bytes_out": "B",
    "admission.admit_p50_ms": "ms",
    "admission.shed_count": "count",
    "batcher.queue_wait_p50_ms": "ms",
    "batcher.queue_wait_p99_ms": "ms",
    "batcher.batch_size": "count",
    "batcher.dispatches": "count",
    "service.locate_many_p50_ms": "ms",
    "service.obs_per_dispatch": "count",
    "fallback.geometric_ms": "ms",
    "fallback.probabilistic_ms": "ms",
    "fallback.nearest_ms": "ms",
    "fallback.geometric_answer_share": "share",
    "fallback.probabilistic_answer_share": "share",
    "registry.acquire_p50_ms": "ms",
    "registry.acquire_p99_ms": "ms",
    "registry.miss_share": "share",
    "registry.load_p50_ms": "ms",
    "registry.evictions": "count",
    "sessions.step_p50_ms": "ms",
    "sessions.step_p99_ms": "ms",
    "sessions.queue_wait_p50_ms": "ms",
    "sessions.created": "count",
    "tracking.update_p50_ms": "ms",
    "setup.load_ms": "ms",
    "setup.fit_ms": "ms",
    "trace.requests": "count",
    "trace.overhead_p50_ms": "ms",
    "trace.residual_p50_ms": "ms",
    "trace.sum_check_share": "share",
}


def _ms(a: float, b: float) -> float:
    return 1000.0 * (b - a)


def _p(values: Sequence[float], q: float) -> float:
    return stats.quantile(values, q) if values else 0.0


def analyse(
    events: List[list],
    registry_status: Optional[dict],
    samples: Sequence,
    untraced_p50_ms: float,
) -> Dict[str, object]:
    """Per-layer metrics and per-request phases from one traced run.

    ``samples`` are the generator's :class:`~perfbench.loadgen.Sample`
    objects of the measured window.
    """
    per_rid: Dict[str, Dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for ev in events:
        if ev[0] in ("http", "decode", "admit", "encode", "wait", "step") and ev[1] is not None:
            per_rid[ev[1]][ev[0]].append((ev[2], ev[3]))
    # Unkeyed spans (dispatches, tiers, loads...) count when they start
    # inside the measured window: warm-up and set-up stay out.  The
    # set-up spans (database load, fit) are those before the window.
    handlers = [per_rid[s.request_id]["http"][0] for s in samples
                if per_rid.get(s.request_id) and per_rid[s.request_id]["http"]]
    lo = min((a for a, _ in handlers), default=0.0)
    hi = max((b for _, b in handlers), default=0.0)
    by_kind: Dict[str, list] = defaultdict(list)
    for ev in events:
        if (ev[2] < lo) if ev[0] in ("db_load", "fit") else (lo <= ev[2] <= hi):
            by_kind[ev[0]].append(ev)
    # The dispatch that carried each request (locate and track batchers).
    queue_wait: Dict[str, float] = {}
    kernel: Dict[str, float] = {}
    wait_start = {rid: min(a for a, _ in d["wait"]) for rid, d in per_rid.items() if d["wait"]}
    sizes: List[int] = []
    track_waits: List[float] = []
    locate_waits: List[float] = []
    for _, name, t0, t1, rids in by_kind["dispatch"]:
        sizes.append(len(rids))
        for rid in rids:
            if rid is None or rid not in wait_start:
                continue
            queue_wait[rid] = _ms(wait_start[rid], t0)
            kernel[rid] = _ms(t0, t1)
            (track_waits if str(name).startswith("track") else locate_waits).append(queue_wait[rid])
    # The bulk path calls the service on the handler thread: no queue.
    for ev in by_kind["service"]:
        rid = ev[1]
        if rid is not None:
            queue_wait.setdefault(rid, 0.0)
            kernel.setdefault(rid, _ms(ev[2], ev[3]))

    phases_by_rid: Dict[str, Dict[str, float]] = {}
    handler_ms, edge_ms, transport_ms, decode_ms, encode_ms, admit_ms = [], [], [], [], [], []
    residuals, inside, bytes_out = [], 0, []
    step_ms: List[float] = []
    joined = 0
    for s in samples:
        d = per_rid.get(s.request_id)
        if d is None or not d["http"] or s.status < 200 or s.status >= 300:
            continue
        joined += 1
        handler = d["http"][0]
        client_ms = 1000.0 * (s.done - s.sent)  # the handler sees no send lag
        children = {k: d[k] for k in ("decode", "admit", "encode", "wait")}
        phases = stats.request_phases(
            client_ms, handler, children, queue_wait.get(s.request_id, 0.0),
            kernel.get(s.request_id, 0.0),
        )
        phases_by_rid[s.request_id] = phases
        residual = stats.phase_residual_ms(client_ms, phases)
        residuals.append(residual)
        inside += stats.within_tolerance(client_ms, residual)
        handler_ms.append(_ms(*handler))
        edge_ms.append(phases["edge_self"])
        transport_ms.append(phases["transport"])
        decode_ms.append(phases["decode"])
        encode_ms.append(phases["encode"])
        admit_ms.append(phases["admit"])
        bytes_out.append(len(s.body))
        if d["step"] and d["wait"]:
            step_ms.append(_ms(d["step"][0][0], d["wait"][0][1]))

    requests = max(joined, 1)
    tier_ms: Dict[str, float] = defaultdict(float)
    tier_in: Dict[str, int] = defaultdict(int)
    for _, name, t0, t1, n in by_kind["tier"]:
        tier_ms[name] += _ms(t0, t1)
        tier_in[name] += n
    answered: Dict[str, int] = defaultdict(int)
    service_ms, service_n = [], []
    for ev in by_kind["service"]:
        service_ms.append(_ms(ev[2], ev[3]))
        service_n.append(ev[4])
        for tier, count in ev[5].items():
            answered[tier] += count

    def share(tier: str) -> float:
        return answered[tier] / tier_in[tier] if tier_in[tier] else 0.0

    acquire_ms = [_ms(e[2], e[3]) for e in by_kind["acquire"]]
    status = registry_status or {}
    lookups = sum(status.get(k, 0) for k in ("hits", "misses", "coalesced"))
    loads = [_ms(e[2], e[3]) for e in by_kind["load"]]
    db_loads = [_ms(e[2], e[3]) for e in by_kind["db_load"]]
    fits = [_ms(e[2], e[3]) for e in by_kind["fit"]]
    created = sum(
        1 for s in samples
        if s.status == 200 and b'"created":true' in s.body
    )
    lags = [s.send_lag_ms for s in samples]
    traced_p50 = stats.median([1000.0 * (s.done - s.due) for s in samples]) if samples else 0.0

    metrics = {
        "loadgen.send_lag_p99_ms": _p(lags, 0.99),
        "http.handler_p50_ms": _p(handler_ms, 0.5),
        "http.edge_self_p50_ms": _p(edge_ms, 0.5),
        "http.transport_p50_ms": _p(transport_ms, 0.5),
        "wire.decode_p50_ms": _p(decode_ms, 0.5),
        "wire.encode_p50_ms": _p(encode_ms, 0.5),
        "wire.bytes_in": _p([s.bytes_in for s in samples], 0.5),
        "wire.bytes_out": _p(bytes_out, 0.5),
        "admission.admit_p50_ms": _p(admit_ms, 0.5),
        "admission.shed_count": sum(1 for e in by_kind["admit"] if e[4]),
        "batcher.queue_wait_p50_ms": _p(locate_waits, 0.5),
        "batcher.queue_wait_p99_ms": _p(locate_waits, 0.99),
        "batcher.batch_size": (sum(sizes) / len(sizes)) if sizes else 0.0,
        "batcher.dispatches": len(sizes),
        "service.locate_many_p50_ms": _p(service_ms, 0.5),
        "service.obs_per_dispatch": (sum(service_n) / len(service_n)) if service_n else 0.0,
        "fallback.geometric_ms": tier_ms["geometric"] / requests,
        "fallback.probabilistic_ms": tier_ms["probabilistic"] / requests,
        "fallback.nearest_ms": tier_ms["nearest"] / requests,
        "fallback.geometric_answer_share": share("geometric"),
        "fallback.probabilistic_answer_share": share("probabilistic"),
        "registry.acquire_p50_ms": _p(acquire_ms, 0.5),
        "registry.acquire_p99_ms": _p(acquire_ms, 0.99),
        "registry.miss_share": status.get("misses", 0) / lookups if lookups else 0.0,
        "registry.load_p50_ms": _p(loads, 0.5),
        "registry.evictions": status.get("evictions", 0),
        "sessions.step_p50_ms": _p(step_ms, 0.5),
        "sessions.step_p99_ms": _p(step_ms, 0.99),
        "sessions.queue_wait_p50_ms": _p(track_waits, 0.5),
        "sessions.created": created,
        "tracking.update_p50_ms": _p([_ms(e[2], e[3]) for e in by_kind["update"]], 0.5),
        "setup.load_ms": _p(db_loads, 0.5),
        "setup.fit_ms": _p(fits, 0.5),
        "trace.requests": joined,
        "trace.overhead_p50_ms": traced_p50 - untraced_p50_ms,
        "trace.residual_p50_ms": _p(residuals, 0.5),
        "trace.sum_check_share": inside / requests,
    }
    budget = {
        p: stats.median([ph[p] for ph in phases_by_rid.values()]) if phases_by_rid else 0.0
        for p in stats.PHASES
    }
    tiers = {name: tier_ms[name] / requests for name in sorted(tier_ms)}
    return {"metrics": metrics, "budget_p50_ms": budget, "tier_ms_per_request": tiers}
