"""Trip data model, the checked trajectory walk, destination-change screening,
filtering, and persistence.

``trajectory_distance_km`` is the one walk over a trajectory's segments: it
sums the distance and checks that the segments connect.  Datasets are JSONL:
one trip per line, canonical key order, segment ids referencing a separately
stored network file.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import (InputError, read_array, read_file_once, read_jsonl, read_number,
                     read_string, shown)
from .network import GpsPoint, LatLng, RoadNetwork, check_coordinates, check_gps, haversine_km
from .routing import RoutePlanStep, RoutingWeights, check_contiguous

LABELS = ("detour", "normal", "unlabeled")


@dataclass(frozen=True)
class TrajStep:
    """Entry onto one segment: (segment id, entry timestamp)."""

    segment: str
    t: float


@dataclass(frozen=True)
class AbstractTrajectory:
    """Ordered segment entries of one occupied trip.

    Steps record *entries*: the final step marks arrival on the destination
    segment.  Timestamps strictly increase, checked here.  Consecutive
    segments must connect in the network; that half needs the network and is
    checked by ``trajectory_distance_km``.
    """

    trip_id: str
    steps: tuple[TrajStep, ...]

    def __post_init__(self):
        if not self.steps:
            raise InputError(f"trajectory {self.trip_id!r} is empty")
        for i, step in enumerate(self.steps):
            if not math.isfinite(step.t):
                raise InputError(f"trajectory {self.trip_id!r}: step {i} timestamp {step.t} "
                                 "is not finite")
            if i and step.t <= self.steps[i - 1].t:
                raise InputError(
                    f"trajectory {self.trip_id!r}: timestamps not increasing at step {i}"
                )


@dataclass(frozen=True)
class TripRecord:
    """One recorded trip.

    ``plan`` is the route recommended at pickup, issued at the first step's
    timestamp from the first step's segment; every later plan is re-derived
    live by the online detector.  ``recorded_destination`` is the booked
    drop-off; ``actual_destination`` is where the trip really ended, the end
    geometry of the final segment.
    """

    trip_id: str
    driver_id: str
    atr: AbstractTrajectory
    plan: RoutePlanStep
    recorded_destination: LatLng
    actual_destination: LatLng
    label: str = "unlabeled"
    raw_gps: tuple[GpsPoint, ...] | None = None
    behavior: str | None = None

    def __post_init__(self):
        if self.label not in LABELS:
            raise InputError(f"trip {self.trip_id!r}: unknown label {shown(repr(self.label))}")
        where = f"trip {self.trip_id!r}"
        for name, dest in (("recorded", self.recorded_destination),
                           ("actual", self.actual_destination)):
            check_coordinates(dest.lat, dest.lng, f"{where}: {name} destination")
        check_gps(self.raw_gps or (), where)
        plan = self.plan
        if not all(map(math.isfinite, (plan.planned_at, plan.distance, plan.est_time))):
            raise InputError(f"{where}: the plan has a non-finite planned_at, "
                             "distance_km or est_time_min")
        first = self.atr.steps[0]
        if plan.planned_at != first.t:
            raise InputError(f"{where}: the plan is not issued at the first step")
        if plan.path and plan.path[0] != first.segment:
            raise InputError(f"{where}: the plan does not start on the first step's segment")


@dataclass(frozen=True)
class DriverRecord:
    driver_id: str
    trips: tuple[str, ...]


@dataclass(frozen=True)
class FilterRules:
    min_travel_time: float = 60.0  # seconds
    max_speed: float = 120.0  # km/h, mean over the trip
    epsilon_bar: float = 0.01

    def __post_init__(self):
        for value in (self.min_travel_time, self.max_speed):
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"filter thresholds must be finite and positive, got {value}")
        if not (0.0 < self.epsilon_bar <= 1.0):
            raise InputError("epsilon_bar must lie in (0, 1]")


def trajectory_distance_km(net: RoadNetwork, atr: AbstractTrajectory) -> float:
    """Distance covered by a trajectory, from network segment lengths.

    Steps record segment entries and the final step only marks arrival, so
    the total runs from entering the first segment to entering the last:
    the last segment's length is not part of the trip.  This is the one walk
    that checks a trajectory connects: it looks each segment up once and
    raises InputError at the first step whose segment does not start where
    the one before ends, or on an unknown segment id.
    """
    steps = atr.steps
    prev = net.segment(steps[0].segment)
    total = 0.0
    for i in range(1, len(steps)):
        seg = net.segment(steps[i].segment)
        if prev.to_node != seg.from_node:
            raise InputError(
                f"trajectory {atr.trip_id!r}: segments {prev.id!r} -> {seg.id!r} "
                f"are not connected (step {i})"
            )
        total += prev.length
        prev = seg
    return total


def trajectory_minutes(atr: AbstractTrajectory) -> float:
    """Elapsed minutes between the first and last segment entries."""
    return (atr.steps[-1].t - atr.steps[0].t) / 60.0


def destination_change_probability(trip: TripRecord, dist_km: float) -> float:
    """1 - (straight-line gap between actual and booked drop-off) / ``dist_km``.

    ``dist_km`` is the trip's ``trajectory_distance_km``, which ``filter_dataset``
    has already summed for its speed rule.  Near 1 when the trip ended where it
    was booked to; can go negative when the gap exceeds the distance
    travelled, which is returned as-is.
    """
    if dist_km <= 0.0:
        raise InputError(f"trip {trip.trip_id!r}: zero-length trajectory")
    gap = haversine_km(trip.actual_destination, trip.recorded_destination)
    return 1.0 - gap / dist_km


REJECT_MALFORMED = "malformed"
REJECT_TIME = "min_travel_time"
REJECT_SPEED = "max_speed"
REJECT_DESTINATION = "destination_change"


def filter_dataset(net, trips, rules: FilterRules = FilterRules()):
    """Screen trips; returns (kept, rejected) with one reason per rejection.

    A trip with fewer than two steps, or whose trajectory or pickup plan
    does not connect in ``net``, is malformed; an unknown segment id raises
    InputError.  The rules then apply in a fixed order (duration, then mean
    speed, then destination change), so each rejected trip carries exactly
    one primary reason.  Input order is preserved on both sides.
    """
    kept: list[TripRecord] = []
    rejected: list[tuple[TripRecord, str]] = []
    for trip in trips:
        reason = _rejection_reason(net, trip, rules)
        if reason is None:
            kept.append(trip)
        else:
            rejected.append((trip, reason))
    return kept, rejected


def _rejection_reason(net, trip, rules) -> str | None:
    for sid in (*(step.segment for step in trip.atr.steps), *trip.plan.path):
        net.segment(sid)  # an unknown id fails the whole file, not one trip
    if len(trip.atr.steps) < 2:
        return REJECT_MALFORMED
    try:
        dist = trajectory_distance_km(net, trip.atr)
        check_contiguous(net, trip.plan.path)
    except InputError:
        return REJECT_MALFORMED
    seconds = trip.atr.steps[-1].t - trip.atr.steps[0].t
    if seconds < rules.min_travel_time:
        return REJECT_TIME
    if dist / (seconds / 3600.0) > rules.max_speed:
        return REJECT_SPEED
    if destination_change_probability(trip, dist) < rules.epsilon_bar:
        return REJECT_DESTINATION
    return None


# ---------------------------------------------------------------------------
# persistence


def _plan_to_dict(plan: RoutePlanStep) -> dict:
    out = {
        "path": list(plan.path),
        "planned_at": plan.planned_at,
        "distance_km": plan.distance,
        "est_time_min": plan.est_time,
    }
    if plan.weights is not None:
        out["weights"] = {"w1": plan.weights.w1, "w2": plan.weights.w2}
    return out


def _plan_from_dict(d: dict) -> RoutePlanStep:
    path = tuple(read_string(s, "plan path segment") for s in read_array(d["path"], "plan path"))
    w = d.get("weights")  # absent from files written before plans recorded their weights
    return RoutePlanStep(
        path,
        read_number(d["planned_at"], "planned_at"),
        read_number(d["distance_km"], "distance_km"),
        read_number(d["est_time_min"], "est_time_min"),
        None if w is None else RoutingWeights(read_number(w["w1"], "w1"),
                                              read_number(w["w2"], "w2")),
    )


def trip_to_dict(trip: TripRecord) -> dict:
    out = {
        "trip_id": trip.trip_id,
        "driver_id": trip.driver_id,
        "label": trip.label,
        "recorded_destination": {"lat": trip.recorded_destination.lat,
                                 "lng": trip.recorded_destination.lng},
        "actual_destination": {"lat": trip.actual_destination.lat,
                               "lng": trip.actual_destination.lng},
        "atr": [{"segment": s.segment, "t": s.t} for s in trip.atr.steps],
        "plans": [_plan_to_dict(trip.plan)],
    }
    if trip.raw_gps is not None:
        out["raw_gps"] = [{"lat": p.lat, "lng": p.lng, "t": p.t} for p in trip.raw_gps]
    if trip.behavior is not None:
        out["behavior"] = trip.behavior
    return out


def _lat_lng(d: dict, what: str) -> LatLng:
    return LatLng(read_number(d["lat"], f"{what} lat"), read_number(d["lng"], f"{what} lng"))


def trip_from_dict(d: dict) -> TripRecord:
    trip_id = read_string(d["trip_id"], "trip_id")
    atr = AbstractTrajectory(
        trip_id,
        tuple(TrajStep(read_string(s["segment"], "atr segment"), read_number(s["t"], "atr t"))
              for s in read_array(d["atr"], "atr")),
    )
    # files written by older versions repeat the first step's timestamp
    if "start_time" in d and read_number(d["start_time"], "start_time") != atr.steps[0].t:
        raise InputError(f"trip {trip_id!r}: start_time {d['start_time']} is not the first "
                         f"step's timestamp {atr.steps[0].t}")
    plans = read_array(d["plans"], "plans")
    if not plans:
        raise InputError(f"trip {atr.trip_id!r}: 'plans' must be a non-empty list")
    raw = d.get("raw_gps")
    return TripRecord(
        trip_id=trip_id,
        driver_id=read_string(d["driver_id"], "driver_id"),
        atr=atr,
        plan=_plan_from_dict(plans[0]),
        recorded_destination=_lat_lng(d["recorded_destination"], "recorded_destination"),
        actual_destination=_lat_lng(d["actual_destination"], "actual_destination"),
        label=read_string(d["label"], "label"),
        raw_gps=None if raw is None else tuple([
            GpsPoint(read_number(p["lat"], "raw_gps lat"), read_number(p["lng"], "raw_gps lng"),
                     read_number(p["t"], "raw_gps t"))
            for p in read_array(raw, "raw_gps")
        ]),
        behavior=(None if d.get("behavior") is None
                  else read_string(d["behavior"], "behavior")),
    )


def save_trips(trips, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for trip in trips:
            fh.write(json.dumps(trip_to_dict(trip), sort_keys=True) + "\n")


def _parse_trips(data: bytes, path) -> tuple[TripRecord, ...]:
    # BytesIO splits lines as a binary file does, on b"\n" only
    return tuple(trip for _, trip in read_jsonl(io.BytesIO(data), f"trip file {path}",
                                                trip_from_dict))


def load_trips(path) -> list[TripRecord]:
    """The trips of a JSONL file, one per non-blank line.

    A missing path or a directory raises the OSError of opening it; a line
    that is not UTF-8, not JSON or not a valid trip raises DataFormatError.
    Identical bytes loaded again in one process are not parsed again
    (``errors.read_file_once``): the frozen trips are shared, in a new list.
    """
    return list(read_file_once(path, _parse_trips))
