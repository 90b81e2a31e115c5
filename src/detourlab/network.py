"""Directed road network with per-segment lengths and time-of-day speeds.

Unit conventions used throughout the package:

* timestamps are floats in seconds since the Unix epoch,
* durations are minutes,
* distances are kilometres,
* speed buckets and tariff intervals are addressed by minute-of-day.

``minute_of_day`` bridges epoch timestamps and the daily buckets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import MappingProxyType

from .errors import (InputError, parse_json_bytes, read_array, read_file_once, read_number,
                     read_string, shown)

EARTH_RADIUS_KM = 6371.0
DAY_MINUTES = 1440.0


@dataclass(frozen=True)
class Node:
    id: str
    lat: float
    lng: float


@dataclass(frozen=True)
class LatLng:
    """Bare coordinate pair, used for booked and actual trip destinations."""

    lat: float
    lng: float


@dataclass(frozen=True)
class GpsPoint:
    lat: float
    lng: float
    t: float  # seconds since epoch


@dataclass(frozen=True)
class Segment:
    """One directed road segment; (a->b) and (b->a) are distinct segments.

    ``speed_profile`` is a sorted tuple of ``(start_minute, speed_kmh)``
    buckets.  Each bucket runs until the next one starts and the last runs to
    minute 1440, so a profile whose first bucket starts at 0 covers the whole
    day with no gaps.
    """

    id: str
    from_node: str
    to_node: str
    length: float  # km
    speed_profile: tuple[tuple[float, float], ...]


def minute_of_day(t: float) -> float:
    """Minute-of-day in [0, 1440) for an epoch-seconds timestamp.

    The seconds into the day are taken first, which is exact, so the minute
    is off by at most half a unit in its last place.  Dividing the epoch
    seconds by 60 first would round away about 1e-7 s, enough to reorder
    arrivals one unit apart on a segment whose speed rises on the way.
    """
    return (t % (DAY_MINUTES * 60.0)) / 60.0


def check_coordinates(lat: float, lng: float, what: str = "point") -> None:
    if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lng <= 180.0):
        raise InputError(f"{what} has out-of-range coordinates ({lat}, {lng})")


def check_gps(points, where: str) -> None:
    """InputError unless every GPS fix is finite and later than the one before."""
    prev = -math.inf
    for i, p in enumerate(points):
        if not (math.isfinite(p.lat) and math.isfinite(p.lng) and prev < p.t < math.inf):
            raise InputError(f"{where}: GPS point {i} ({p.lat}, {p.lng}, t={p.t}) is not "
                             "finite or not later than the point before")
        prev = p.t


def haversine_km(p, q) -> float:
    """Great-circle distance in km between two objects carrying lat/lng.

    Earth is treated as a sphere of radius 6371.0 km; at city scale this is
    the distance metric for everything in the package (destination screening,
    GPS emission scoring, simulator geometry).
    """
    la1 = math.radians(p.lat)
    la2 = math.radians(q.lat)
    dla = la2 - la1
    dlo = math.radians(q.lng) - math.radians(p.lng)
    s = math.sin(dla / 2.0) ** 2 + math.cos(la1) * math.cos(la2) * math.sin(dlo / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def _validate_profile(seg: Segment) -> None:
    prof = seg.speed_profile
    if not prof:
        raise InputError(f"segment {seg.id!r}: empty speed profile")
    if prof[0][0] != 0.0:
        raise InputError(
            f"segment {seg.id!r}: speed profile does not cover the day "
            f"(first bucket starts at {prof[0][0]}, not 0)"
        )
    prev = -1.0
    for start, kmh in prof:
        if not (0.0 <= start < DAY_MINUTES):
            raise InputError(f"segment {seg.id!r}: bucket start {start} outside [0, 1440)")
        if start <= prev:
            raise InputError(f"segment {seg.id!r}: speed buckets must be sorted and non-overlapping")
        if not (math.isfinite(kmh) and kmh > 0.0):
            raise InputError(f"segment {seg.id!r}: speed {kmh} is not a finite positive number")
        prev = start


def segment_travel_time(seg: Segment, entry_minute: float) -> float:
    """Minutes to traverse ``seg`` when entered at ``entry_minute`` of the day.

    Travel times are FIFO (Ichoua, Gendreau & Potvin 2003): the vehicle
    drives at the speed of whichever bucket is in force at each moment, so
    when a bucket with another speed starts part way along, the rest of the
    segment is driven at the new speed.  The profile wraps at minute 1440
    into the next day's buckets.  A boundary where the speed does not change
    does not split the segment, so a flat profile gives exactly
    ``length / speed * 60``.  Entering later never means leaving earlier:
    ``t + 60 * segment_travel_time(seg, minute_of_day(t))`` is
    non-decreasing in ``t``, in floating point too.
    """
    prof = seg.speed_profile
    i = len(prof) - 1
    while i > 0 and prof[i][0] > entry_minute:
        i -= 1
    speed = prof[i][1]
    km = seg.length
    clock = entry_minute
    spent = 0.0  # minutes driven before ``clock``
    day = 0.0
    unchanged = 0  # boundaries passed since the speed last changed
    while unchanged < len(prof):
        i += 1
        if i == len(prof):
            i, day = 0, day + DAY_MINUTES
        start, kmh = prof[i]
        if kmh == speed:
            unchanged += 1
            continue
        boundary = start + day
        if clock + km / speed * 60.0 <= boundary:
            break
        km -= speed * (boundary - clock) / 60.0
        spent += boundary - clock
        clock, speed, unchanged = boundary, kmh, 0
    return spent + km / speed * 60.0


def full_traversals(seg: Segment) -> tuple[tuple[float, float, float], ...]:
    """Per speed bucket of ``seg``, in profile order: ``(start, full, change)``.

    ``full`` is ``length / kmh * 60.0``, the minutes of a traversal driven
    wholly at the bucket's speed.  ``change`` is the next minute after the
    bucket's start at which the segment's speed really changes: a later
    bucket's start, that start plus 1440 once the profile wraps, or inf when
    the profile has one speed.  For an entry minute ``m`` in the bucket with
    ``m + full <= change``, ``segment_travel_time(seg, m)`` is ``full``: it
    makes the same comparison and returns the same float.
    """
    prof = seg.speed_profile
    n = len(prof)
    out = []
    for i, (start, kmh) in enumerate(prof):
        change = math.inf
        for j in range(i + 1, i + n):
            later, speed = prof[j % n]
            if speed != kmh:
                change = later + DAY_MINUTES if j >= n else later
                break
        out.append((start, seg.length / kmh * 60.0, change))
    return tuple(out)


class RoadNetwork:
    """Immutable directed graph of nodes and segments.

    Instances never mutate after construction and are safe to share read-only
    across concurrent workers.  Malformed speed profiles and dangling segment
    endpoints are rejected here, at load time, not at query time.

    ``_derived`` holds the tables other modules compile from the network on
    first use (the planner's ``routing._NetworkTables``, the matcher's
    ``matching._SegmentGrid``), keyed by the table's type.  The network
    never changes, so they never go stale, and they live exactly as long as
    the network does.
    """

    def __init__(self, nodes, segments):
        node_map: dict[str, Node] = {}
        for n in nodes:
            check_coordinates(n.lat, n.lng, f"node {n.id!r}")
            if n.id in node_map:
                raise InputError(f"duplicate node id {n.id!r}")
            node_map[n.id] = n

        seg_map: dict[str, Segment] = {}
        out: dict[str, list[Segment]] = {nid: [] for nid in node_map}
        inc: dict[str, list[Segment]] = {nid: [] for nid in node_map}
        for s in segments:
            if s.id in seg_map:
                raise InputError(f"duplicate segment id {s.id!r}")
            if s.from_node not in node_map or s.to_node not in node_map:
                raise InputError(f"segment {s.id!r} references an unknown node")
            if not (math.isfinite(s.length) and s.length > 0.0):
                raise InputError(f"segment {s.id!r} must have finite positive length")
            _validate_profile(s)
            seg_map[s.id] = s
            out[s.from_node].append(s)
            inc[s.to_node].append(s)

        self._nodes = MappingProxyType(node_map)
        self._segments = MappingProxyType(seg_map)
        self._out = {nid: tuple(sorted(v, key=lambda s: s.id)) for nid, v in out.items()}
        self._in = {nid: tuple(sorted(v, key=lambda s: s.id)) for nid, v in inc.items()}
        self._derived: dict[type, object] = {}

    @property
    def nodes(self):
        return self._nodes

    @property
    def segments(self):
        return self._segments

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise InputError(f"unknown node id {shown(repr(node_id))}") from None

    def segment(self, segment_id: str) -> Segment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise InputError(f"unknown segment id {shown(repr(segment_id))}") from None

    def outgoing(self, node_id: str) -> tuple[Segment, ...]:
        """Outgoing segments of a node, sorted by segment id."""
        if node_id not in self._out:
            raise InputError(f"unknown node id {shown(repr(node_id))}")
        return self._out[node_id]

    def incoming(self, node_id: str) -> tuple[Segment, ...]:
        """Incoming segments of a node, sorted by segment id."""
        if node_id not in self._in:
            raise InputError(f"unknown node id {shown(repr(node_id))}")
        return self._in[node_id]

    def segment_end(self, segment_id: str) -> LatLng:
        """Geometry of the segment's end node."""
        seg = self.segment(segment_id)
        node = self.node(seg.to_node)
        return LatLng(node.lat, node.lng)


def network_to_dict(net: RoadNetwork) -> dict:
    """Canonical dict form: nodes then segments, each sorted by id."""
    return {
        "nodes": [
            {"id": n.id, "lat": n.lat, "lng": n.lng}
            for n in sorted(net.nodes.values(), key=lambda n: n.id)
        ],
        "segments": [
            {
                "id": s.id,
                "from": s.from_node,
                "to": s.to_node,
                "length_km": s.length,
                "speed_profile": [
                    {"start_min": start, "speed_kmh": kmh} for start, kmh in s.speed_profile
                ],
            }
            for s in sorted(net.segments.values(), key=lambda s: s.id)
        ],
    }


def network_from_dict(data: dict) -> RoadNetwork:
    """The network of ``network_to_dict``'s form.  A missing key or a wrong type
    raises what reading it raises; ``load_network`` reports it as a bad file."""
    nodes = [Node(read_string(n["id"], "node id"), read_number(n["lat"], "lat"),
                  read_number(n["lng"], "lng"))
             for n in read_array(data["nodes"], "nodes")]
    segments = [
        Segment(
            read_string(s["id"], "segment id"),
            read_string(s["from"], "segment from"),
            read_string(s["to"], "segment to"),
            read_number(s["length_km"], "length_km"),
            tuple((read_number(b["start_min"], "start_min"),
                   read_number(b["speed_kmh"], "speed_kmh"))
                  for b in read_array(s["speed_profile"], "speed_profile")),
        )
        for s in read_array(data["segments"], "segments")
    ]
    return RoadNetwork(nodes, segments)


def _json_scalar(value) -> str:
    """``value`` as ``json.dumps`` writes it."""
    if type(value) is float:
        return float.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _json_array(items: list[str], indent: str) -> str:
    """An array of items already written at ``indent`` plus two spaces."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _network_json(data: dict) -> str:
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"`` for ``data`` of
    ``network_to_dict``'s shape, written by a formatter for that one shape.

    ``json.dumps`` with an indent runs its pure-Python encoder; this writes
    the same text about three times faster on a 10x10 grid.  Keys are in sorted order, strings
    are ASCII-escaped as ``json.dumps`` escapes them, and finite floats are
    their ``repr``: the network rejects non-finite numbers when it is built.
    """
    v = _json_scalar
    nodes = [f'    {{\n      "id": {v(n["id"])},\n      "lat": {v(n["lat"])},\n'
             f'      "lng": {v(n["lng"])}\n    }}' for n in data["nodes"]]
    segments = []
    for s in data["segments"]:
        buckets = [f'        {{\n          "speed_kmh": {v(b["speed_kmh"])},\n'
                   f'          "start_min": {v(b["start_min"])}\n        }}'
                   for b in s["speed_profile"]]
        segments.append(
            f'    {{\n      "from": {v(s["from"])},\n      "id": {v(s["id"])},\n'
            f'      "length_km": {v(s["length_km"])},\n'
            f'      "speed_profile": {_json_array(buckets, "      ")},\n'
            f'      "to": {v(s["to"])}\n    }}')
    return (f'{{\n  "nodes": {_json_array(nodes, "  ")},\n'
            f'  "segments": {_json_array(segments, "  ")}\n}}\n')


def save_network(net: RoadNetwork, path) -> None:
    """Write ``net`` as ``json.dumps(network_to_dict(net), indent=2,
    sort_keys=True)`` and a newline, by ``_network_json``."""
    Path(path).write_text(_network_json(network_to_dict(net)), encoding="utf-8")


def _parse_network(data: bytes, path) -> RoadNetwork:
    return parse_json_bytes(data, path, "network", network_from_dict)


def load_network(path) -> RoadNetwork:
    """The network in the JSON file at ``path``.

    Identical bytes loaded again in one process give the same immutable
    network (``errors.read_file_once``), so the planner tables built on it
    carry over from one command to the next.
    """
    return read_file_once(path, _parse_network)
