"""HMM map matching: raw GPS trajectories to segment sequences.

The decoder is a standard Viterbi pass: per-point candidate segments score a
Gaussian emission in perpendicular point-to-segment distance, transitions an
exponential penalty in the gap between on-network route distance and
great-circle displacement.  The emission's sigma (25 m) and the transition's
beta (2 km) are fixed constants, as in Newson & Krumm (2009) and Lou et al.
(2009), who treat both as properties of the GPS data; only the candidate
radius (100 m by default) is configurable.

Candidates come from a uniform grid over segment bounding boxes (Newson &
Krumm 2009 bound candidates the same way), built once per network on first
use and held by the network.  Each entry holds its segment's coordinates
and length as plain floats, so ``candidates_for``, the one home of the
projection, reads no node.  Each cell lists the segments whose boxes come
within one cell of it, so a point whose search window is at most a cell
wide reads only the cell that holds it; a wider window reads every segment.
Either way only the segments whose boxes meet the window are projected.  The
window is the radius converted to degrees with the projection's own scale
factors, so any segment within the radius has its closest point inside it:
the candidates equal a scan over every segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from . import trips
from .errors import InputError, MatchError, NoRouteError, shown
from .network import EARTH_RADIUS_KM, RoadNetwork, Segment, check_gps, haversine_km
from .routing import RoutingWeights, check_contiguous, km_table, km_via, route_plan


EMISSION_SIGMA_M = 25.0  # metres of GPS noise
TRANSITION_BETA_KM = 2.0  # km scale of the route/great-circle gap


@dataclass(frozen=True)
class MatchConfig:
    candidate_radius: float = 100.0  # metres

    def __post_init__(self):
        if not (math.isfinite(self.candidate_radius) and self.candidate_radius > 0):
            raise InputError("candidate radius must be finite and positive")


def emission_logprob(distance_m: float) -> float:
    # Gaussian in perpendicular distance; the normalizing constant is shared
    # by every candidate and dropped.
    z = distance_m / EMISSION_SIGMA_M
    return -0.5 * z * z


# Grid cells are _CELL_DEG degrees square (about 220 m of latitude), so the
# default 100 m window fits inside one cell per axis below about 63 degrees of
# latitude; a network wider than _MAX_CELLS cells on an axis gets coarser
# cells, which bounds the cells one window can cover.  _WINDOW_MARGIN widens
# the window, and each segment's box in the grid, by a relative 1e-9 and an
# absolute 1e-9 degrees (0.1 mm), far above the rounding of the projection
# and of the window arithmetic.
_CELL_DEG = 0.002
_MAX_CELLS = 512
_WINDOW_MARGIN = 1e-9
# metres of the Earth's radius, and metres per degree of latitude
_RADIUS_M = EARTH_RADIUS_KM * 1000.0
_M_PER_DEG_LAT = _RADIUS_M * math.pi / 180.0


@dataclass(frozen=True)
class _SegmentGrid:
    """Segments bucketed by the grid cells near their bounding boxes.

    ``entries`` holds one entry per segment, in segment id order:
    ``(segment, length, a_lat, a_lng, b_lat, b_lng, lat_lo, lat_hi, lng_lo,
    lng_hi)``: the segment, its length in km, the coordinates of its entry
    node a and exit node b, and its own box.  Each cell holds, in the same
    order, the entries of the segments whose boxes, widened by one cell (and
    the window margin) on each side, overlap it.  Cell (i, j) covers
    latitudes from ``lat0 + i * cell`` and longitudes from
    ``lng0 + j * cell``; the grid spans the nodes' box and nothing wraps at
    the antimeridian.
    """

    entries: tuple[tuple, ...]
    cells: dict[tuple[int, int], tuple[tuple, ...]]
    lat0: float
    lat1: float
    lng0: float
    lng1: float
    cell: float


def _cell_range(lo: float, hi: float, origin: float, end: float, cell: float) -> range:
    """Cell indices on one axis that overlap ``[lo, hi]`` clamped to ``[origin, end]``."""
    return range(math.floor((max(lo, origin) - origin) / cell),
                 math.floor((min(hi, end) - origin) / cell) + 1)


def _segment_grid(net: RoadNetwork) -> _SegmentGrid:
    """The network's grid, built on first use and held by the network."""
    grid = net._derived.get(_SegmentGrid)
    if grid is not None:
        return grid
    lats = [n.lat for n in net.nodes.values()]
    lngs = [n.lng for n in net.nodes.values()]
    # a network without nodes gets an empty box that no window overlaps
    lat0, lat1 = min(lats, default=math.inf), max(lats, default=-math.inf)
    lng0, lng1 = min(lngs, default=math.inf), max(lngs, default=-math.inf)
    cell = max(_CELL_DEG, (lat1 - lat0) / _MAX_CELLS, (lng1 - lng0) / _MAX_CELLS)
    widen = cell * (1.0 + _WINDOW_MARGIN) + _WINDOW_MARGIN
    entries = []
    cells: dict[tuple[int, int], list[tuple]] = {}
    for seg in sorted(net.segments.values(), key=lambda s: s.id):
        a, b = net.node(seg.from_node), net.node(seg.to_node)
        lat_lo, lat_hi = min(a.lat, b.lat), max(a.lat, b.lat)
        lng_lo, lng_hi = min(a.lng, b.lng), max(a.lng, b.lng)
        entry = (seg, seg.length, a.lat, a.lng, b.lat, b.lng, lat_lo, lat_hi, lng_lo, lng_hi)
        entries.append(entry)
        lng_cells = _cell_range(lng_lo - widen, lng_hi + widen, lng0, lng1, cell)
        for i in _cell_range(lat_lo - widen, lat_hi + widen, lat0, lat1, cell):
            for j in lng_cells:
                cells.setdefault((i, j), []).append(entry)
    grid = _SegmentGrid(tuple(entries), {key: tuple(near) for key, near in cells.items()},
                        lat0, lat1, lng0, lng1, cell)
    net._derived[_SegmentGrid] = grid
    return grid


def candidates_for(net: RoadNetwork, point, radius_m: float) -> list[tuple[Segment, float, float]]:
    """``(segment, distance_m, along_km)`` for each segment within ``radius_m``.

    ``distance_m`` is the point's perpendicular distance to the segment and
    ``along_km`` the driving distance from the segment's entry node to the
    point's projection.  Sorted by segment id.

    The projection is a local equirectangular one centred on the point, fine
    at the sub-kilometre scales where candidates live: ``kx`` and ``ky`` are
    metres per degree of longitude and of latitude at the point's latitude.
    The point's projection onto the straight segment a -> b is clamped to it,
    its fraction ``u`` being 0 at a and 1 at b, and a segment whose ends
    coincide projects onto a.

    The point's window spans ``radius_m`` converted to degrees with the same
    scale factors, so a segment within ``radius_m`` has its closest point
    inside it, and its box meets the window.  Each grid cell lists every
    segment whose box comes within one cell of it, so when the window is at
    most one cell wide on each side the cell that holds the point (clamped
    to the grid's box) lists every such segment; a wider window reads every
    segment.  Only the listed segments whose boxes meet the window are
    projected, so the result is the same as projecting onto every segment.
    """
    grid = _segment_grid(net)
    plat, plng = point.lat, point.lng
    kx = _RADIUS_M * math.cos(math.radians(plat)) * math.pi / 180.0
    ky = _M_PER_DEG_LAT
    half_lat = radius_m / ky * (1.0 + _WINDOW_MARGIN) + _WINDOW_MARGIN
    half_lng = radius_m / abs(kx) * (1.0 + _WINDOW_MARGIN) + _WINDOW_MARGIN
    lat_lo, lat_hi = plat - half_lat, plat + half_lat
    lng_lo, lng_hi = plng - half_lng, plng + half_lng
    lat0, lat1, lng0, lng1, cell = grid.lat0, grid.lat1, grid.lng0, grid.lng1, grid.cell
    # written so that a NaN coordinate or radius, which no segment is within,
    # finds nothing
    if not (lat_lo <= lat1 and lat_hi >= lat0 and lng_lo <= lng1 and lng_hi >= lng0):
        return []
    if half_lat <= cell and half_lng <= cell:
        lat = min(max(plat, lat0), lat1)
        lng = min(max(plng, lng0), lng1)
        entries = grid.cells.get((math.floor((lat - lat0) / cell),
                                  math.floor((lng - lng0) / cell)), ())
    else:
        entries = grid.entries
    found = []
    for (seg, length, a_lat, a_lng, b_lat, b_lng,
         s_lat_lo, s_lat_hi, s_lng_lo, s_lng_hi) in entries:
        if s_lat_lo > lat_hi or s_lat_hi < lat_lo or s_lng_lo > lng_hi or s_lng_hi < lng_lo:
            continue
        ax = (a_lng - plng) * kx
        ay = (a_lat - plat) * ky
        dx = (b_lng - plng) * kx - ax
        dy = (b_lat - plat) * ky - ay
        norm2 = dx * dx + dy * dy
        if norm2 == 0.0:
            distance_m, u = math.hypot(ax, ay), 0.0
        else:
            u = -(ax * dx + ay * dy) / norm2
            # max(0.0, min(1.0, u)): NaN and above 1 give 1, -0.0 and below 0 give 0
            u = (u if u > 0.0 else 0.0) if u < 1.0 else 1.0
            distance_m = math.hypot(ax + u * dx, ay + u * dy)
        if distance_m <= radius_m:
            found.append((seg, distance_m, u * length))
    return found


_UNSEEN = object()


class RouteDistanceCache:
    """``routing.route_km`` memoized per ordered pair of candidate segments.

    ``cache`` holds every pair returned so far.  A miss reads the
    destination's km table, fetched once per destination segment.
    """

    def __init__(self, net: RoadNetwork):
        self.net = net
        self.cache: dict[tuple[str, str], float | None] = {}
        self._tables: dict[str, dict[str, float]] = {}

    def km(self, a: str, b: str) -> float | None:
        pair = (a, b)
        km = self.cache.get(pair, _UNSEEN)
        if km is _UNSEEN:
            table = self._tables.get(b)
            if table is None:
                table = self._tables[b] = km_table(self.net, b)
            km = self.cache[pair] = km_via(self.net.segment(a), b, table)
        return km


def viterbi_decode(net: RoadNetwork, tr, cfg: MatchConfig = MatchConfig()) -> list[str]:
    """Most likely candidate segment per GPS point.

    Score ties are broken toward the lower segment id, which makes the decode
    equal to exhaustive enumeration of candidate sequences under the ordering
    (score desc, reversed id sequence asc).

    The state carried from one point to the next is one list of live
    states, ``(score, candidate index, segment id, along_km)``, one per
    candidate with a finite score, sorted best score first (a stable sort, so
    ties keep index order).  Each candidate of the next point visits them in
    that order and stops at the first one whose own score is below the best
    total found so far.  No later predecessor can reach that total or tie
    it: a transition adds ``y = -|route - gc| / beta <= 0``, and rounding to
    nearest is monotone, so ``fl(s + y) <= s`` for every score ``s``.  A
    total equal to the best goes to the lower index, so the decoded states
    are those of scoring every predecessor in index order with a strict
    ``>``, and only the transitions that can win ask for a route distance.
    """
    if len(tr) < 2:
        raise InputError("map matching needs at least 2 GPS points")
    check_gps(tr, "map matching")
    cands: list[list[tuple[Segment, float, float]]] = []
    for i, p in enumerate(tr):
        found = candidates_for(net, p, cfg.candidate_radius)
        if not found:
            raise MatchError(f"GPS point {i} has no candidate segment within "
                             f"{cfg.candidate_radius} m", point_index=i)
        cands.append(found)

    km = RouteDistanceCache(net).km
    beta = TRANSITION_BETA_KM
    neg_inf = -math.inf
    live = [(s, j, seg.id, along) for j, (seg, distance_m, along) in enumerate(cands[0])
            if (s := emission_logprob(distance_m)) != neg_inf]
    back: list[list[int]] = []  # back[k][j]: predecessor index of candidate j of point k + 1

    for k in range(1, len(tr)):
        if len(live) > 1:
            live.sort(key=itemgetter(0), reverse=True)
        gc = haversine_km(tr[k - 1], tr[k])
        new_live = []
        pointers: list[int] = []
        for i, (seg, distance_m, along_b) in enumerate(cands[k]):
            sid = seg.id
            best = neg_inf
            best_j = -1
            for s, j, pid, along_a in live:
                if s < best:
                    break  # this and every later total is below best
                # The driving distance between the two projections: the
                # segment-to-segment route covers the predecessor in full and
                # stops on entering this segment, and the along-track
                # offsets move both ends to the projected GPS positions.
                if pid == sid:
                    route = along_b - along_a
                else:
                    route = km(pid, sid)
                    if route is None:
                        continue  # no route: the transition scores -inf and never wins
                    route = route - along_a + along_b
                # max(0.0, route), -0.0 and NaN included: backward motion
                # along a one-way segment has no forward driving distance, so
                # it pays the full great-circle gap, which is what tells a
                # segment from its reverse twin
                route = route if route > 0.0 else 0.0
                cand = s + -abs(route - gc) / beta
                if cand > best or (cand == best and j < best_j):  # lowest index wins ties
                    best = cand
                    best_j = j
            score = best + emission_logprob(distance_m)
            if score != neg_inf:
                new_live.append((score, i, sid, along_b))
            pointers.append(best_j)
        if not new_live:
            raise MatchError(f"no feasible transition into GPS point {k}", point_index=k)
        live = new_live
        back.append(pointers)

    # live is in index order (id order) and max keeps the first of equal scores
    states = [max(live, key=itemgetter(0))[1]]
    for pointers in reversed(back):
        states.append(pointers[states[-1]])
    states.reverse()
    return [cands[k][j][0].id for k, j in enumerate(states)]


def match_trajectory(
    net: RoadNetwork, tr, cfg: MatchConfig = MatchConfig(), trip_id: str = ""
) -> trips.AbstractTrajectory:
    """Match raw GPS points onto the network as an abstract trajectory.

    Consecutive duplicate decodes collapse to one entry keeping the first
    timestamp.  Where the decode jumps between non-adjacent segments, the
    distance-optimal connecting segments are stitched in with entry times
    interpolated along the route, so the output always satisfies the
    trajectory invariants.  A jump that no route closes raises MatchError
    with the index of the GPS point decoded onto the far segment.
    """
    steps: list[trips.TrajStep] = []
    for i, (sid, point) in enumerate(zip(viterbi_decode(net, tr, cfg), tr)):
        if steps:
            prev = steps[-1]
            if prev.segment == sid:
                continue  # a repeated decode keeps its first timestamp
            a = net.segment(prev.segment)
            if a.to_node != net.segment(sid).from_node:
                try:
                    plan = route_plan(net, prev.segment, sid, prev.t, RoutingWeights(1.0, 0.0))
                except NoRouteError:
                    raise MatchError(
                        f"matched segments {shown(repr(prev.segment))} -> "
                        f"{shown(repr(sid))} cannot be connected",
                        point_index=i,
                    ) from None
                covered = a.length  # plan.path[0] is prev.segment itself
                for mid in plan.path[1:]:
                    steps.append(trips.TrajStep(
                        mid, prev.t + (point.t - prev.t) * covered / plan.distance))
                    covered += net.segment(mid).length
        steps.append(trips.TrajStep(sid, point.t))

    atr = trips.AbstractTrajectory(trip_id, tuple(steps))
    check_contiguous(net, [step.segment for step in steps])
    return atr
