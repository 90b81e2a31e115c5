"""Dynamic route recommendation over a weighted distance/time objective.

A route plan answers "how should the trip continue from the segment being
entered right now?".  Trips are accounted from entering their first segment
to entering their last, so a plan's path starts with the origin segment and
stops just before the destination segment; the plan from a segment to itself
is empty.  This single convention makes the live per-step scores collapse to
the offline features on the final step with no special cases.

Travel times are FIFO (``network.segment_travel_time``): entering a segment
later never means leaving it earlier.  So a route that reaches a node with
no more km and no later than another continues at least as well, the
planner keeps one small Pareto set of (km, arrival) labels per node, and a
recommended route never passes through a node twice.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from weakref import WeakKeyDictionary

from .errors import InputError, NoRouteError
from .network import RoadNetwork, Segment, minute_of_day, segment_travel_time


@dataclass(frozen=True)
class RoutingWeights:
    """Linear weights of the route objective: cost = w1 * km + w2 * minutes."""

    w1: float = 0.5
    w2: float = 0.5

    def __post_init__(self):
        finite = math.isfinite(self.w1) and math.isfinite(self.w2)
        if not finite or self.w1 < 0.0 or self.w2 < 0.0 or self.w1 + self.w2 <= 0.0:
            raise InputError("routing weights must be finite and non-negative with a "
                             f"positive sum, got ({self.w1}, {self.w2})")


@dataclass(frozen=True)
class RoutePlanStep:
    """One route recommendation issued at ``planned_at``.

    ``distance`` and ``est_time`` always equal ``path_distance(path)`` and
    ``path_est_time(path, planned_at)`` for the carried path.  ``weights``
    are the objective weights ``route_plan`` searched with, so a replay can
    tell whether a stored plan is the planner's answer under its own
    weights; a plan made by hand, or read from a file written before plans
    recorded their weights, carries None.
    """

    path: tuple[str, ...]
    planned_at: float  # seconds since epoch
    distance: float  # km
    est_time: float  # minutes
    weights: RoutingWeights | None = None


def check_contiguous(net: RoadNetwork, path) -> None:
    """InputError unless each segment of ``path`` starts where the one before ends."""
    prev = None
    for i, sid in enumerate(path):
        seg = net.segment(sid)
        if prev is not None and prev.to_node != seg.from_node:
            raise InputError(f"path is not contiguous between positions {i - 1} and {i}")
        prev = seg


def path_km(net: RoadNetwork, path) -> float:
    """Total length in km of ``path``, summed forward; 0 for the empty path.

    Contiguity is not checked: this is for paths the planner produced.
    """
    total = 0.0
    for sid in path:
        total += net.segment(sid).length
    return total


def path_distance(net: RoadNetwork, path) -> float:
    """Total length in km of a contiguous segment path; 0 for the empty path."""
    check_contiguous(net, path)
    return path_km(net, path)


def entry_times(net: RoadNetwork, path, depart: float) -> list[float]:
    """Entry timestamps along ``path`` entered at ``depart``, plus the arrival.

    Entry times evolve forward: each segment is entered the moment the
    previous one finishes, and takes the FIFO time ``segment_travel_time``
    gives from that entry minute.
    """
    times = [depart]
    for sid in path:
        t = times[-1]
        times.append(t + 60.0 * segment_travel_time(net.segment(sid), minute_of_day(t)))
    return times


def path_est_time(net: RoadNetwork, path, depart: float) -> float:
    """Estimated minutes to traverse ``path`` departing at ``depart``."""
    check_contiguous(net, path)
    return (entry_times(net, path, depart)[-1] - depart) / 60.0


# Per-network cache of the static per-goal tables, keyed by (goal node, edge
# cost).  The network is immutable, so the tables never go stale.  Each
# network keeps at most _MAX_TABLES of them and evicts the least recently
# used, so memory stays bounded on large grids; a 10x10 grid needs at most
# 200 (100 goals, two kinds) and never evicts.
_HEURISTICS: WeakKeyDictionary = WeakKeyDictionary()
_MAX_TABLES = 512
_FIRST = itemgetter(0)


class _NetworkTables(OrderedDict):
    """One network's LRU of per-goal tables.

    ``reverse`` holds the network's compiled reverse graph per edge cost.
    It is O(segments), kept for the network's lifetime, and neither counts
    toward ``_MAX_TABLES`` nor is ever evicted.
    """

    def __init__(self):
        super().__init__()
        self.reverse = {}


def _segment_km(seg) -> float:
    return seg.length


def _fastest_minutes(seg) -> float:
    return min(seg.length / kmh * 60.0 for _, kmh in seg.speed_profile)


def _reverse_graph(net: RoadNetwork, edge_cost):
    """Node ids in sorted order, their index map, and per node index a tuple
    of ``(from_index, edge_cost(seg))`` over its incoming segments in
    ``net.incoming`` order.  Each segment's cost is evaluated once."""
    ids = sorted(net.nodes)
    index = {nid: i for i, nid in enumerate(ids)}
    incoming = tuple(tuple((index[seg.from_node], edge_cost(seg)) for seg in net.incoming(nid))
                     for nid in ids)
    return ids, index, incoming


def _lower_bounds(net: RoadNetwork, goal: str, edge_cost) -> dict[str, float]:
    """Static per-node lower bounds on what remains to ``goal``, by ``edge_cost``.

    With ``_segment_km`` the bound is the exact remaining km; with
    ``_fastest_minutes`` it is the remaining minutes at each segment's
    fastest bucket.  Both are admissible and consistent for the
    time-dependent search whatever the departure time.  Each table is built
    on first use, so a caller that reads only km never builds minutes.  The
    table maps every node that reaches ``goal`` to its bound.

    The build is a reverse Dijkstra over the network's compiled reverse
    graph.  Node indices follow sorted id order, so ``(cost, index)`` heap
    entries break ties exactly as ``(cost, node_id)`` would.
    """
    tables = _HEURISTICS.get(net)
    if tables is None:
        tables = _HEURISTICS[net] = _NetworkTables()
    key = (goal, edge_cost)
    if key in tables:
        tables.move_to_end(key)
        return tables[key]
    graph = tables.reverse.get(edge_cost)
    if graph is None:
        graph = tables.reverse[edge_cost] = _reverse_graph(net, edge_cost)
    ids, index, incoming = graph
    start = index.get(goal)
    if start is None:
        raise InputError(f"unknown node id {goal!r}")
    heappush, heappop = heapq.heappush, heapq.heappop
    dist = [math.inf] * len(ids)
    dist[start] = 0.0
    heap = [(0.0, start)]
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        for u, cost in incoming[v]:
            nd = d + cost
            if nd < dist[u]:
                dist[u] = nd
                heappush(heap, (nd, u))
    table = {nid: d for nid, d in zip(ids, dist) if d != math.inf}
    tables[key] = table
    if len(tables) > _MAX_TABLES:
        tables.popitem(last=False)
    return table


def km_table(net: RoadNetwork, dest: str) -> dict[str, float]:
    """Shortest km from each node that reaches segment ``dest`` to entering it.

    This is the static km table behind the planner's A* bound for that goal,
    built on first use and shared with ``route_plan``.
    """
    return _lower_bounds(net, net.segment(dest).from_node, _segment_km)


def km_via(origin: Segment, dest: str, table: dict[str, float]) -> float | None:
    """``route_km`` from the Segment ``origin`` with ``table = km_table(net, dest)``."""
    if origin.id == dest:
        return 0.0
    rest = table.get(origin.to_node)
    return None if rest is None else origin.length + rest


def route_km(net: RoadNetwork, origin: str, dest: str) -> float | None:
    """Shortest km from entering ``origin`` to entering ``dest``, or None if unreachable.

    Distance does not depend on the time of day, so this reads the static km
    table behind the planner's A* bound instead of searching.
    """
    return km_via(net.segment(origin), dest, km_table(net, dest))


def route_plan(
    net: RoadNetwork,
    origin: str,
    dest: str,
    depart: float,
    weights: RoutingWeights = RoutingWeights(),
) -> RoutePlanStep:
    """Best remaining route from ``origin`` (entered at ``depart``) to ``dest``.

    Minimizes ``w1 * distance + w2 * est_time`` with segment entry times
    evolving along the path.  Travel times are FIFO (``segment_travel_time``),
    so arriving at a node earlier and with fewer km never hurts what follows:
    each node keeps a Pareto set of (km, arrival) labels, and a label that
    another one there matches or beats on every weighted criterion is
    dropped.  A loop only adds km and time, so the result is loop-free by
    construction.  Static reverse shortest paths (km, and minutes at
    per-segment top speed) give a consistent A* bound that confines the
    search to the near-optimal corridor.  Equal-cost ties resolve toward the
    lexicographically smallest segment-id sequence.
    """
    if not math.isfinite(depart):
        raise InputError(f"departure time {depart!r} is not a finite number")
    o = net.segment(origin)
    d = net.segment(dest)
    if origin == dest:
        return RoutePlanStep((), depart, 0.0, 0.0, weights)

    goal = d.from_node
    h_km = _lower_bounds(net, goal, _segment_km)
    h_min = _lower_bounds(net, goal, _fastest_minutes)
    w1, w2 = weights.w1, weights.w2

    def priority(dist_km: float, t_abs: float, node: str) -> float:
        g = w1 * dist_km + w2 * ((t_abs - depart) / 60.0)
        return g + w1 * h_km[node] + w2 * h_min[node]

    t0 = depart + 60.0 * segment_travel_time(o, minute_of_day(depart))
    if o.to_node not in h_km:
        raise NoRouteError(f"no route from segment {origin!r} to segment {dest!r}")

    # Each node keeps a Pareto front of labels [a, b, path, alive]: a is the
    # km and b the arrival, each held at 0.0 when its weight is 0.  Raw
    # values are compared, never weighted sums, which rounding can tie.  The
    # front is sorted by a, so b strictly falls along it.  A new label is
    # dropped if a label there has no more a and no more b, and the smaller
    # path on a tie in both; the labels it beats leave the front and are
    # skipped when popped.
    start = [o.length if w1 else 0.0, t0 if w2 else 0.0, (origin,), True]
    fronts: dict[str, list[list]] = {o.to_node: [start]}
    heap = [(priority(o.length, t0, o.to_node), start[2], o.to_node, o.length, t0, start)]

    while heap:
        f, path, node, dist_km, t_abs, label = heapq.heappop(heap)
        if not label[3]:
            continue  # beaten after it was pushed
        if node == goal:
            return RoutePlanStep(path, depart, dist_km, (t_abs - depart) / 60.0, weights)
        for seg in net.outgoing(node):
            if seg.to_node not in h_km:
                continue  # cannot reach the goal through this segment
            nt = t_abs + 60.0 * segment_travel_time(seg, minute_of_day(t_abs))
            nd = dist_km + seg.length
            npath = path + (seg.id,)
            a, b = (nd if w1 else 0.0), (nt if w2 else 0.0)
            front = fronts.setdefault(seg.to_node, [])
            i = bisect_right(front, a, key=_FIRST)
            if i:
                pa, pb, ppath, _ = front[i - 1]  # the least b among a <= this a
                if pb < b or (pb == b and (pa < a or ppath <= npath)):
                    continue
            j = k = bisect_left(front, a, hi=i, key=_FIRST)
            while k < len(front) and front[k][1] >= b:
                front[k][3] = False
                k += 1
            new = [a, b, npath, True]
            front[j:k] = [new]
            heapq.heappush(heap, (priority(nd, nt, seg.to_node), npath, seg.to_node, nd, nt, new))

    raise NoRouteError(f"no route from segment {origin!r} to segment {dest!r}")
