"""Workload inputs and answer checks.

Every input is made before the server launches, from the run's seed:

* the **house** is the calibrated site that ``simulate-survey`` writes
  with its defaults (site seed 0, the paper's 90 s survey dwell); scans
  are 10 s :meth:`ExperimentHouse.observe` windows at the house's fixed
  test points, so the run seed changes the radio noise, never the site
  or the points;
* the **fleet** is ``repro sites gen-fleet --count 6 --freeze`` with its
  defaults (house, office and warehouse presets); its scans are taken
  from the same site presets at seeded points and walks, and the site
  popularity order is fixed, so the seed never changes which site is hot.

The reference answers come from an in-process
:class:`~repro.serve.LocalizationService` built exactly as ``repro
serve`` builds it, and every reply is checked against the wire schema.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Scans in the house pool; locate-bulk sends them 256 at a time.
POOL_SIZE = 2048
BULK_SIZE = 256
#: One scan is a 10 s window (ten sweeps) of the phone's scanner.
SCAN_WINDOW_S = 10.0

#: §5.2: the geometric method's mean deviation band (ft).
PAPER_BAND_FT = (10.0, 15.0)

FLEET_SITES = 6
FLEET_ZIPF_S = 1.0
FLEET_SESSIONS_PER_SITE = 16
WALK_SPEED_FT_S = 4.0


def observation_doc(observation) -> Dict[str, object]:
    """An Observation -> its wire document (NaN -> null)."""
    return {
        "samples": [
            [None if v != v else v for v in row]
            for row in observation.samples.tolist()
        ],
        "bssids": list(observation.bssids),
    }


def encode(doc: object) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


@dataclass
class HouseInputs:
    site_dir: Path
    truth: List[Tuple[float, float]]  # ground truth per pool scan
    bodies: List[bytes]  # POST /v1/locate body per pool scan
    bulk_bodies: List[bytes]  # POST /v1/locate/batch body per pool chunk
    reference: List[bytes]  # canonical answer per pool scan
    bulk_reference: List[bytes]  # canonical answer per pool chunk

    def serve_args(self) -> List[str]:
        return [str(self.site_dir / "training.tdb"), "--plan", str(self.site_dir / "plan.gif")]


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def house_inputs(workdir: Path, seed: int) -> HouseInputs:
    from repro.cli import simulate_main
    from repro.core.floorplan import FloorPlan
    from repro.core.frozenpack import load_database
    from repro.core.system import ap_positions_by_bssid, site_bounds
    from repro.experiments.house import ExperimentHouse, HouseConfig
    from repro.serve import LocalizationService, canonical_json, estimate_to_json

    site = workdir / "site"
    if _quiet(simulate_main, [str(site)]) != 0:
        raise RuntimeError("simulate-survey failed")
    # simulate-survey's default --seed 0 is the site seed of its house.
    # Like the paper's protocol, the test points are fixed (the house's
    # default draw) and the run seed draws the radio noise of each scan.
    house = ExperimentHouse(HouseConfig(site_seed=0, n_test_points=POOL_SIZE))
    points = house.test_points()
    scans = house.observe_all(points, rng=seed, dwell_s=SCAN_WINDOW_S)
    docs = [observation_doc(o) for o in scans]

    # The reference is built the way `repro serve --plan` builds its model.
    db_path, plan_path = site / "training.tdb", site / "plan.gif"
    plan = FloorPlan.load(str(plan_path))
    service = LocalizationService(
        str(db_path),
        ap_positions=ap_positions_by_bssid(plan, load_database(str(db_path))),
        bounds=site_bounds(plan),
    )
    chunks = [range(i, i + BULK_SIZE) for i in range(0, POOL_SIZE, BULK_SIZE)]
    reference: List[bytes] = []
    bulk_reference: List[bytes] = []
    for chunk in chunks:
        estimates = service.locate_many([scans[i] for i in chunk])
        answers = [estimate_to_json(e) for e in estimates]
        reference.extend(canonical_json(a) for a in answers)
        bulk_reference.append(canonical_json({"estimates": answers}))
    return HouseInputs(
        site_dir=site,
        truth=[(p.x, p.y) for p in points],
        bodies=[encode(d) for d in docs],
        bulk_bodies=[encode({"observations": [docs[i] for i in c]}) for c in chunks],
        reference=reference,
        bulk_reference=bulk_reference,
    )


@dataclass
class FleetRequest:
    path: str
    body: bytes
    truth: Tuple[float, float]
    session: Optional[str]  # None for a locate


def fleet_dir(workdir: Path) -> Path:
    from repro.cli import repro_main

    fleet = workdir / "fleet"
    args = ["sites", "gen-fleet", str(fleet), "--count", str(FLEET_SITES), "--freeze"]
    if _quiet(repro_main, args) != 0:
        raise RuntimeError("sites gen-fleet failed")
    return fleet


def _fleet_presets():
    """Site id -> the preset house ``gen-fleet`` built it from."""
    from repro.experiments.sites import office_floor, paper_house, warehouse

    presets = (("house", paper_house), ("office", office_floor), ("warehouse", warehouse))
    out = {}
    for i in range(FLEET_SITES):
        kind, factory = presets[i % len(presets)]
        out[f"{kind}-{i:02d}"] = factory(dwell_s=SCAN_WINDOW_S)
    return out


def fleet_requests(seed: int, times: Sequence[float]) -> List[FleetRequest]:
    """One request per schedule time: half locates, half session steps.

    Sites follow a Zipf(``FLEET_ZIPF_S``) skew in site-id order; each
    site has a pool of sessions stepped round-robin, each walking at
    ``WALK_SPEED_FT_S`` with a seeded heading, and each step's ``ts`` is
    taken from the schedule, so answers do not depend on the wall clock.
    """
    from repro.core.geometry import Point

    rng = random.Random(seed)
    houses = _fleet_presets()
    site_ids = sorted(houses)
    weights = [1.0 / (k + 1) ** FLEET_ZIPF_S for k in range(len(site_ids))]
    walks: Dict[Tuple[str, int], List[float]] = {}
    turn: Dict[str, int] = {s: 0 for s in site_ids}
    plans: List[Tuple[str, Optional[str], float, float, float]] = []
    for t in times:
        sid = rng.choices(site_ids, weights)[0]
        x0, y0, x1, y1 = houses[sid].bounds()
        if rng.random() < 0.5:
            plans.append((sid, None, rng.uniform(x0 + 3, x1 - 3), rng.uniform(y0 + 3, y1 - 3), t))
            continue
        k = turn[sid] % FLEET_SESSIONS_PER_SITE
        turn[sid] += 1
        state = walks.get((sid, k))
        if state is None:
            state = [rng.uniform(x0 + 3, x1 - 3), rng.uniform(y0 + 3, y1 - 3),
                     rng.uniform(0, 2 * math.pi), t]
            walks[(sid, k)] = state
        x, y, heading, last_t = state
        step = WALK_SPEED_FT_S * (t - last_t)
        nx, ny = x + step * math.cos(heading), y + step * math.sin(heading)
        if not (x0 + 3 <= nx <= x1 - 3 and y0 + 3 <= ny <= y1 - 3):
            heading = rng.uniform(0, 2 * math.pi)  # bounce: stay, turn
            nx, ny = x, y
        walks[(sid, k)] = [nx, ny, heading, t]
        plans.append((sid, f"s{k}", nx, ny, t))
    out: List[FleetRequest] = []
    for i, (sid, session, x, y, t) in enumerate(plans):
        scan = houses[sid].observe(Point(x, y), rng=seed * 1_000_003 + i)
        doc = observation_doc(scan)
        if session is None:
            path = f"/v1/sites/{sid}/locate"
        else:
            path = f"/v1/sites/{sid}/track/{session}"
            doc["ts"] = 1000.0 + t
        out.append(FleetRequest(path, encode(doc), (x, y), session))
    return out


# -- answer checks -----------------------------------------------------------

def _finite(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def check_estimate(doc: object) -> Optional[str]:
    """Wire-schema check of one estimate; None when it passes."""
    if not isinstance(doc, dict):
        return "estimate is not an object"
    for key in ("valid", "position", "location_name", "score"):
        if key not in doc:
            return f"estimate lacks {key!r}"
    if not isinstance(doc["valid"], bool):
        return "'valid' is not a boolean"
    pos = doc["position"]
    if pos is not None and not (
        isinstance(pos, dict) and _finite(pos.get("x")) and _finite(pos.get("y"))
    ):
        return "'position' is not a finite point"
    if doc["valid"] and (pos is None or not _finite(doc["score"])):
        return "valid answer without a finite score and position"
    return None


def error_ft(doc: dict, truth: Tuple[float, float]) -> Optional[float]:
    """Distance from ground truth of a valid answer (None if invalid)."""
    if not doc.get("valid"):
        return None
    pos = doc["position"]
    return math.hypot(pos["x"] - truth[0], pos["y"] - truth[1])
