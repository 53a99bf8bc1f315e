"""The localization service's end-to-end benchmark: one command.

    python3 perfbench/run.py --workload locate-idle --seed 1 --seconds 20 --trace 0

Launches ``repro serve`` in its own process, drives it from this one
with at most ``nproc`` keep-alive connections, checks every answer and
prints, as its last stdout line, ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics (the line
before it is the full result document: fingerprint, sample counts,
ladder); ``--trace 1`` spends half the run on the untraced server and
half on the traced harness (``traced_serve.py``) and reports the
per-layer metrics.  Workloads, metrics and their reasons: README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
# The package under test and this benchmark, importable from the checkout.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, layers, loadgen, stats  # noqa: E402
from perfbench.server import Server, launch_timed, serve_command  # noqa: E402

WORKLOADS = ("locate-idle", "locate-open", "locate-bulk", "track-fleet")

#: Server launches per run; set-up time is their median.
SETUP_LAUNCHES = 5
WARMUP_S = 2.0
#: Connections of the open-loop workloads (never more than nproc).
OPEN_CONNECTIONS = 2
REFERENCE_RATE = 100.0  # locate-open: latency is reported at this rate
LADDER_FACTOR = 1.25
LADDER_START = 2  # the first rung is 100 * 1.25**2 = 156 req/s
LADDER_PASSES = 6
LADDER_RUNGS = 5  # per pass: up to 100 * 1.25**6 = 381 req/s
REFERENCE_SHARE = 0.35  # of --seconds spent at the reference rate
RUNG_SAMPLES_PER_S = 5  # a rung sends 5 * --seconds requests (100 at 20 s)
#: Latency is summarised per block of consecutive samples and the
#: median over blocks is reported.  Every block holds >= 200 samples, so
#: p95 keeps ten samples beyond it everywhere; higher percentiles moved
#: by 20-35% from run to run on a shared 2-core machine.
BLOCKS = {"locate-idle": 8, "locate-open": 5, "locate-bulk": 1, "track-fleet": 8}
TAIL_PCT = 95.0
FLEET_RATE = 60.0
FLEET_CAPACITY = 3

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "max_rate_rps": "req/s",
    "throughput_obs_s": "obs/s",
    "mean_error_ft": "ft",
    "valid_rate": "share",
    "ok_share": "share",
    "server_rss_mb": "MB",
}


# -- answer checking -----------------------------------------------------------

class Checked:
    """Samples with their verdicts and the errors of their valid answers."""

    def __init__(self) -> None:
        self.samples: list = []
        self.failures: Dict[str, int] = {}
        self.errors_ft: List[float] = []
        self.answers = 0
        self.valid = 0

    def add(self, sample, verdict: Optional[str], estimates=()) -> None:
        """``estimates``: (estimate doc, ground truth) pairs of the reply."""
        self.samples.append((sample, verdict is None))
        if verdict is not None:
            key = verdict.split(":")[0]
            self.failures[key] = self.failures.get(key, 0) + 1
            return
        for doc, truth in estimates:
            self.answers += 1
            err = inputs.error_ft(doc, truth)
            if err is not None:
                self.valid += 1
                self.errors_ft.append(err)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def ok(self) -> list:
        return [s for s, good in self.samples if good]


def _parse(sample) -> Tuple[Optional[str], object]:
    if sample.status == 0:
        return f"transport: {sample.error or sample.body!r}", None
    if not 200 <= sample.status < 300:
        return f"http_{sample.status}", None
    try:
        return None, json.loads(sample.body)
    except ValueError:
        return "bad_json", None


def check_locate(checked: Checked, sample, reference: bytes, truth) -> None:
    verdict, doc = _parse(sample)
    if verdict is None:
        verdict = inputs.check_estimate(doc)
    if verdict is None and sample.body != reference:
        verdict = "differs_from_in_process_answer"
    checked.add(sample, verdict, [(doc, truth)] if verdict is None else ())


def check_bulk(checked: Checked, sample, reference: bytes, truths) -> None:
    verdict, doc = _parse(sample)
    estimates = doc.get("estimates") if isinstance(doc, dict) else None
    if verdict is None and (not isinstance(estimates, list) or len(estimates) != len(truths)):
        verdict = "bad_batch_schema"
    if verdict is None:
        verdict = next((v for v in map(inputs.check_estimate, estimates) if v), None)
    if verdict is None and sample.body != reference:
        verdict = "differs_from_in_process_answer"
    checked.add(sample, verdict, list(zip(estimates, truths)) if verdict is None else ())


def check_fleet(checked: Checked, sample, req) -> None:
    verdict, doc = _parse(sample)
    if verdict is None:
        verdict = inputs.check_estimate(doc)
    if verdict is None and req.session is not None:
        session = doc.get("session")
        if not (isinstance(session, dict) and session.get("id") == req.session
                and isinstance(session.get("seq"), int) and session["seq"] >= 1):
            verdict = "bad_session_envelope"
    checked.add(sample, verdict, [(doc, req.truth)] if verdict is None else ())


# -- workloads ----------------------------------------------------------------

class Workload:
    """Inputs, server arguments and load shape of one named workload."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: Path):
        self.name, self.seed = name, seed
        self.scans_per_request = inputs.BULK_SIZE if name == "locate-bulk" else 1
        if name == "track-fleet":
            self.fleet = inputs.fleet_dir(workdir)
            rng = random.Random(seed)
            self.warm_times = loadgen.poisson_schedule(
                rng, FLEET_RATE / 2, int(FLEET_RATE / 2 * WARMUP_S))
            self.times = loadgen.poisson_schedule(rng, FLEET_RATE, round(FLEET_RATE * seconds))
            self.fleet_requests = inputs.fleet_requests(seed, self.warm_times + self.times)
            self.serve_args = ["--sites", str(self.fleet), "--site-capacity", str(FLEET_CAPACITY)]
        else:
            self.house = inputs.house_inputs(workdir, seed)
            self.serve_args = self.house.serve_args()

    # Each drive returns (checked samples of the measured window, extras).
    def drive(self, port: int, tag: str, seconds: float, ladder: bool) -> Tuple[Checked, dict]:
        checked = Checked()
        if self.name in ("locate-idle", "locate-bulk"):
            bulk = self.name == "locate-bulk"
            h = self.house
            bodies = h.bulk_bodies if bulk else h.bodies
            path = "/v1/locate/batch" if bulk else "/v1/locate"

            def request(i: int):
                return path, bodies[i % len(bodies)]

            loadgen.closed_loop(port, request, WARMUP_S, f"{tag}w")
            t0 = time.perf_counter()
            samples = loadgen.closed_loop(port, request, seconds, tag)
            wall = time.perf_counter() - t0
            for s in samples:
                k = s.index % len(bodies)
                if bulk:
                    check_bulk(checked, s, h.bulk_reference[k], _chunk(h.truth, k))
                else:
                    check_locate(checked, s, h.reference[k], h.truth[k])
            rate = len(samples) / wall
            return checked, {"wall_s": wall, "max_rate_rps": rate, "mode": "closed loop, 1 connection"}
        if self.name == "locate-open":
            return self._drive_open(port, tag, seconds, ladder, checked)
        return self._drive_fleet(port, tag, checked)

    def _open_phase(self, port, tag, rate, count, rng, checked, cut=None):
        h = self.house
        times = loadgen.poisson_schedule(rng, rate, count)
        # Scans are taken in a seeded order of the pool, wrapping round.
        picks = [self._order[(self._cursor + i) % len(self._order)] for i in range(count)]
        self._cursor += count
        reqs = [("/v1/locate", h.bodies[k]) for k in picks]
        samples = loadgen.open_loop(port, times, reqs, OPEN_CONNECTIONS, tag, stop_after=cut)
        if checked is not None:
            for s in samples:
                k = picks[s.index]
                check_locate(checked, s, h.reference[k], h.truth[k])
        return samples

    def _drive_open(self, port, tag, seconds, ladder, checked):
        """``REFERENCE_SHARE`` of the run at the reference rate, then the
        rate ladder.

        The ladder is climbed ``LADDER_PASSES`` times, each pass by
        ``LADDER_FACTOR`` from ``LADDER_START`` steps above the reference
        rate, in rungs of ``RUNG_SAMPLES_PER_S * seconds`` requests (so
        every rung's tail is at the same percentile), until a rung fails
        the knee rule; the knee is the median of the passes' knees.
        Without the ladder (the traced runs) the whole run is spent at
        the reference rate.
        """
        rng = random.Random(self.seed)
        self._order = rng.sample(range(len(self.house.bodies)), len(self.house.bodies))
        self._cursor = 0
        self._open_phase(port, f"{tag}w", REFERENCE_RATE / 2, int(REFERENCE_RATE / 2 * WARMUP_S),
                         rng, None)
        ref_count = round(REFERENCE_RATE * seconds * (REFERENCE_SHARE if ladder else 1.0))
        t0 = time.perf_counter()
        ref = self._open_phase(port, f"{tag}r", REFERENCE_RATE, ref_count, rng, checked)
        extras: dict = {"mode": f"open loop, Poisson, {OPEN_CONNECTIONS} connections",
                        "reference_rate": REFERENCE_RATE,
                        "latency_ids": {s.request_id for s in ref}}
        if not ladder:
            extras["wall_s"] = time.perf_counter() - t0
            return checked, extras
        rung_n = round(RUNG_SAMPLES_PER_S * seconds)
        passes = []
        for k in range(LADDER_PASSES):
            rungs = []
            rate = REFERENCE_RATE * LADDER_FACTOR ** (LADDER_START - 1)
            while not rungs or (rungs[-1]["passed"] and len(rungs) < LADDER_RUNGS):
                rate *= LADDER_FACTOR
                samples = self._open_phase(port, f"{tag}l{k}.{len(rungs)}", rate, rung_n, rng,
                                           checked, cut=rung_n / rate + 0.5)
                rungs.append(_rung(rate, samples, checked, rung_n, rung_n))
            base = _rung(REFERENCE_RATE, ref, checked, ref_count, rung_n)
            knee, censored = stats.knee_rate([base] + rungs)
            passes.append({"knee": knee, "censored": censored, "rungs": rungs})
        extras.update(wall_s=time.perf_counter() - t0,
                      max_rate_rps=stats.median([p["knee"] for p in passes]), ladder=passes)
        return checked, extras

    def _drive_fleet(self, port, tag, checked):
        reqs = self.fleet_requests
        warm = len(self.warm_times)
        loadgen.open_loop(port, self.warm_times,
                          [(r.path, r.body) for r in reqs[:warm]], OPEN_CONNECTIONS, f"{tag}w")
        samples = loadgen.open_loop(port, self.times,
                                    [(r.path, r.body) for r in reqs[warm:]], OPEN_CONNECTIONS, tag)
        for s in samples:
            check_fleet(checked, s, reqs[warm + s.index])
        # Served rate: answers over the span from the first due time to
        # the last answer; it falls below the offered rate only when the
        # server cannot keep up.
        wall = max(s.done for s in samples) - min(s.due for s in samples)
        return checked, {"wall_s": wall, "max_rate_rps": len(checked.ok()) / wall,
                         "mode": f"open loop, Poisson {FLEET_RATE:g} req/s, "
                                 f"{OPEN_CONNECTIONS} connections"}


def _chunk(truth, k):
    return truth[k * inputs.BULK_SIZE:(k + 1) * inputs.BULK_SIZE]


def _rung(rate: float, samples, checked: Checked, planned: int, rung_n: int) -> dict:
    """Verdict on one rung of ``planned`` requests (those a cut rung never
    sent count as failed); its tail is at the percentile a rung of
    ``rung_n`` requests supports (the reference phase is held to it too)."""
    ok_ids = {s.request_id for s in checked.ok()}
    good = [s for s in samples if s.request_id in ok_ids]
    pct = stats.tail_percentile(rung_n)
    lat = [s.latency_ms for s in good]
    tail = stats.quantile(lat, pct / 100.0) if lat and pct else None
    growth = stats.lag_growth_ms([s.send_lag_ms for s in samples])
    ok_share = len(good) / planned
    return {
        "rate": rate, "n": len(samples), "tail_pct": pct, "tail_ms": tail,
        "lag_growth_ms": growth, "ok_share": ok_share,
        "passed": stats.rung_passes(tail, growth, ok_share),
    }


# -- the two kinds of run -------------------------------------------------------

def end_to_end(w: Workload, workdir: Path, seconds: float) -> Tuple[dict, dict, Checked]:
    server, setups = launch_timed(serve_command(["--port", "0", *w.serve_args]), workdir,
                                  SETUP_LAUNCHES)
    try:
        checked, extras = w.drive(server.port, "e", seconds, ladder=True)
        rss = server.peak_rss_mb()
    finally:
        log = server.stop()
    ok = checked.ok()
    ids = extras.pop("latency_ids", None)
    timed = [s for s in ok if ids is None or s.request_id in ids]
    lat = stats.blocked_summary([s.latency_ms for s in timed], BLOCKS[w.name], TAIL_PCT)
    attempted = len(checked.samples)
    metrics = {
        "setup_s": stats.median(setups),
        "latency_p50_ms": lat["p50_ms"],
        "latency_p95_ms": lat["tail_ms"],
        "max_rate_rps": extras["max_rate_rps"],
        "throughput_obs_s": len(ok) * w.scans_per_request / extras["wall_s"],
        "mean_error_ft": (sum(checked.errors_ft) / len(checked.errors_ft)
                          if checked.errors_ft else None),
        "valid_rate": checked.valid / checked.answers if checked.answers else None,
        "ok_share": len(ok) / attempted if attempted else 0.0,
        "server_rss_mb": rss,
    }
    band_ok = True
    if w.name == "locate-idle":
        lo, hi = inputs.PAPER_BAND_FT
        err = metrics["mean_error_ft"]
        band_ok = err is not None and lo <= err <= hi
    details = {
        "setup_s_launches": setups,
        "latency_samples": lat["n"],
        "latency_blocks": lat["blocks"],
        "latency_tail_percentile": lat["tail_pct"],
        "failures": checked.failures,
        "paper_band_ft": list(inputs.PAPER_BAND_FT) if w.name == "locate-idle" else None,
        "paper_band_ok": band_ok,
        "drain": [line.strip() for line in log.splitlines() if line.startswith("drain")],
        **{k: v for k, v in extras.items()},
    }
    return metrics, details, checked


def traced(w: Workload, workdir: Path, seconds: float) -> Tuple[dict, dict, Checked]:
    half = seconds / 2.0
    server = Server(serve_command(["--port", "0", *w.serve_args]), workdir)
    try:
        plain, extras = w.drive(server.port, "u", half, ladder=False)
    finally:
        server.stop()
    ids = extras.get("latency_ids")
    plain_ok = [s for s in plain.ok() if ids is None or s.request_id in ids]
    untraced_p50 = stats.median([s.latency_ms for s in plain_ok]) if plain_ok else 0.0

    spans = workdir / "spans.json"
    server = Server(serve_command(["--port", "0", *w.serve_args], traced_spans=spans), workdir)
    try:
        checked, extras = w.drive(server.port, "t", half, ladder=False)
    finally:
        log = server.stop()
    if not spans.exists():
        raise RuntimeError("traced server wrote no spans:\n" + log)
    doc = json.loads(spans.read_text(encoding="utf-8"))
    ids = extras.get("latency_ids")
    measured = [s for s in checked.ok() if ids is None or s.request_id in ids]
    report = layers.analyse(doc["events"], doc["registry"], measured, untraced_p50)
    checked.samples.extend(plain.samples)
    for key, count in plain.failures.items():
        checked.failures[key] = checked.failures.get(key, 0) + count
    details = {
        "budget_p50_ms": report["budget_p50_ms"],
        "tier_ms_per_request": report["tier_ms_per_request"],
        "sum_check": {
            "tolerance": f"|residual| <= max({stats.SUM_TOL_ABS_MS} ms, "
                         f"{stats.SUM_TOL_REL:.0%} of latency) on >= "
                         f"{stats.SUM_CHECK_SHARE:.0%} of requests",
            "share_within": report["metrics"]["trace.sum_check_share"],
            "passed": report["metrics"]["trace.sum_check_share"] >= stats.SUM_CHECK_SHARE,
        },
        "untraced_p50_ms": untraced_p50,
        "failures": checked.failures,
    }
    return report["metrics"], details, checked


# -- fingerprint and entry point ----------------------------------------------------

def cpu_times() -> Tuple[int, int]:
    """(steal, total) CPU ticks of the machine so far (0, 0 without /proc)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return 0, 0
    ticks = [int(f) for f in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def fingerprint(args, seconds: float) -> dict:
    import hashlib

    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "connections": 1 if args.workload in ("locate-idle", "locate-bulk") else OPEN_CONNECTIONS,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="localization service benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        w = Workload(args.workload, args.seed, args.seconds, workdir)
        inputs_s = time.perf_counter() - t0
        run = traced if args.trace else end_to_end
        steal0, total0 = cpu_times()
        metrics, details, checked = run(w, workdir, args.seconds)
        steal1, total1 = cpu_times()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = layers.PER_LAYER if args.trace else END_TO_END
    correct = checked.failed == 0 and details.get("paper_band_ok", True)
    missing = [k for k in units if metrics.get(k) is None]
    if missing:
        correct = False
    document = {
        "fingerprint": fingerprint(args, args.seconds),
        # CPU time the hypervisor gave to other guests while this ran: a
        # run with a high share measured a slower machine.
        "cpu_steal_share": (steal1 - steal0) / (total1 - total0) if total1 > total0 else None,
        "inputs_s": inputs_s,
        "details": details,
        "metrics": metrics,
    }
    print(json.dumps(document, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(checked.samples),
        "failed": checked.failed,
        "metrics": {k: {"value": metrics[k] if metrics.get(k) is not None else -1.0,
                        "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
