"""The traced server: ``repro serve`` rebuilt from the public API, with spans.

Run as ``traced_serve.py --spans OUT.json [serve args]``.  It builds the
same server the command line builds (``LocalizationService`` or
``ModelRegistry`` plus ``LocalizationHTTPServer``, command-line defaults,
the always-on flight recorder) and times the calls into each layer:

==================  ========================================================
event               what is timed
==================  ========================================================
``http``            ``do_POST``: the whole handler, keyed by X-Request-Id
``decode``          body read + JSON parse, ``observation_from_json``
``admit``           ``AdmissionController.admit`` (and whether it shed)
``wait``            batcher ``submit`` to its future's ``result()`` return,
                    or the direct ``locate_many`` of the bulk path
``encode``          ``estimate_to_json`` / ``track_estimate_to_json`` /
                    ``canonical_json``
``dispatch``        one micro-batch dispatch, with the requests it carried
``service``         ``LocalizationService.locate_many``
``tier``            each fallback tier's ``locate_many``, with its answers
``acquire``         ``ModelRegistry.acquire``
``load``            a site model build inside the registry
``step``            ``TrackingSessions.step`` (session lookup + enqueue)
``update``          ``KalmanTracker.step_with_measurement``
``db_load``/``fit`` ``load_database`` / ``FallbackLocalizer.fit``
==================  ========================================================

Spans stay in memory; SIGTERM drains the server and writes them, with
the registry's counters, to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path

_tls = threading.local()
EVENTS: list = []  # appended from many threads; list.append is atomic


def _rid():
    return getattr(_tls, "rid", None)


def _timed(kind, fn):
    """Wrap ``fn`` so each call on a request thread records a span."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            EVENTS.append((kind, _rid(), t0, time.perf_counter()))

    return wrapper


def install():
    """Patch the layer boundaries of the serving stack (this process only).

    Returns the traced service and admission-controller classes, which
    the caller passes to the server it builds.
    """
    from repro.algorithms.fallback import FallbackLocalizer
    from repro.algorithms.tracking.kalman import KalmanTracker
    from repro.core import frozenpack
    from repro.serve import batcher as batcher_mod
    from repro.serve import http, registry, resilience, service, sessions

    handler = http._Handler
    plain_post = handler.do_POST

    def do_post(self):
        _tls.rid = self.headers.get("X-Request-Id")
        t0 = time.perf_counter()
        try:
            plain_post(self)
        finally:
            EVENTS.append(("http", _tls.rid, t0, time.perf_counter()))
            _tls.rid = None

    handler.do_POST = do_post
    handler._read_json = _timed("decode", handler._read_json)
    http.observation_from_json = _timed("decode", http.observation_from_json)
    for name in ("estimate_to_json", "track_estimate_to_json", "canonical_json"):
        setattr(http, name, _timed("encode", getattr(http, name)))

    class TracedBatcher(batcher_mod.MicroBatcher):
        def __init__(self, fn, *args, **kwargs):
            owners = {}
            self._owners = owners
            name = kwargs.get("name", "")

            def dispatch(payloads):
                t0 = time.perf_counter()
                rids = [owners.pop(id(p), None) for p in payloads]
                try:
                    return fn(payloads)
                finally:
                    EVENTS.append(("dispatch", name, t0, time.perf_counter(), rids))

            super().__init__(dispatch, *args, **kwargs)

        def submit(self, payload, deadline=None):
            rid = _rid()
            t0 = time.perf_counter()
            self._owners[id(payload)] = rid
            future = super().submit(payload, deadline=deadline)
            plain_result = future.result

            def result(timeout=None):
                try:
                    return plain_result(timeout)
                finally:
                    EVENTS.append(("wait", rid, t0, time.perf_counter()))

            future.result = result
            return future

    http.MicroBatcher = TracedBatcher
    registry.MicroBatcher = TracedBatcher
    sessions.MicroBatcher = TracedBatcher

    class TracedAdmission(resilience.AdmissionController):
        def admit(self, priority, queue_depth):
            t0 = time.perf_counter()
            shed = super().admit(priority, queue_depth)
            EVENTS.append(("admit", _rid(), t0, time.perf_counter(), shed is not None))
            return shed

    class TracedService(service.LocalizationService):
        def reload(self, database=None):
            card = super().reload(database)
            localizer = self.model().localizer
            for tier in getattr(localizer, "tiers", ()):
                if "locate_many" not in vars(tier):
                    tier.locate_many = _traced_tier(tier)
            return card

        def locate_many(self, observations):
            t0 = time.perf_counter()
            estimates = super().locate_many(observations)
            t1 = time.perf_counter()
            answered = {}
            for e in estimates:
                tier = e.details.get("tier") if e.valid else None
                answered[tier] = answered.get(tier, 0) + 1
            EVENTS.append(("service", _rid(), t0, t1, len(observations), answered))
            if _rid() is not None:  # called on the handler thread: bulk
                EVENTS.append(("wait", _rid(), t0, t1))
            return estimates

    def _traced_tier(tier):
        plain = tier.locate_many
        name = getattr(tier, "name", "") or type(tier).__name__

        def locate_many(observations):
            t0 = time.perf_counter()
            try:
                return plain(observations)
            finally:
                EVENTS.append(("tier", name, t0, time.perf_counter(), len(observations)))

        return locate_many

    class RegistryService(TracedService):
        def __init__(self, *args, **kwargs):
            t0 = time.perf_counter()
            super().__init__(*args, **kwargs)
            EVENTS.append(("load", _rid(), t0, time.perf_counter()))

    registry.LocalizationService = RegistryService
    registry.ModelRegistry.acquire = _timed("acquire", registry.ModelRegistry.acquire)
    sessions.TrackingSessions.step = _timed("step", sessions.TrackingSessions.step)
    KalmanTracker.step_with_measurement = _timed(
        "update", KalmanTracker.step_with_measurement
    )
    frozenpack.load_database = _timed("db_load", frozenpack.load_database)
    FallbackLocalizer.fit = _timed("fit", FallbackLocalizer.fit)
    return TracedService, TracedAdmission


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans at exit")
    parser.add_argument("database", nargs="?", default=None)
    parser.add_argument("--sites", default=None)
    parser.add_argument("--site-capacity", type=int, default=8)
    parser.add_argument("--plan", default=None)
    parser.add_argument("--port", type=int, default=8311)
    args = parser.parse_args(argv)

    from repro import obs
    from repro.core.floorplan import FloorPlan
    from repro.core.system import ap_positions_by_bssid, site_bounds

    TracedService, TracedAdmission = install()
    from repro.core.frozenpack import load_database
    from repro.serve import LocalizationHTTPServer, ModelRegistry

    service = registry = None
    if args.sites is not None:
        registry = ModelRegistry(
            args.sites, capacity=args.site_capacity,
            service_kwargs={"breakers": True, "chaos": None},
        )
    else:
        ap_positions = bounds = None
        if args.plan:
            plan = FloorPlan.load(args.plan)
            ap_positions = ap_positions_by_bssid(plan, load_database(args.database))
            bounds = site_bounds(plan)
        service = TracedService(
            args.database, algorithm="fallback", ap_positions=ap_positions,
            bounds=bounds, breakers=True, chaos=None,
        )
    # The command line's defaults, spelled out.
    server = LocalizationHTTPServer(
        service, registry=registry, port=args.port,
        admission=TracedAdmission(max_queue=256, p99_limit_ms=None),
        max_batch=64, max_wait_ms=5.0, max_queue=256, default_deadline_ms=None,
        drain_deadline_s=10.0, track_filter="kalman", session_capacity=10000,
        session_ttl_s=300.0,
    )
    obs.set_recorder(obs.FlightRecorder())
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    server.start()
    print(f"serving {server.url}  traced", flush=True)
    stop.wait()
    report = server.drain()
    status = registry.status() if registry is not None else None
    server.stop()
    doc = {"events": EVENTS, "registry": status, "drain": report}
    Path(args.spans).write_text(json.dumps(doc), encoding="utf-8")
    print(f"wrote {len(EVENTS)} spans -> {args.spans}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
