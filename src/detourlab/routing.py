"""Dynamic route recommendation over a weighted distance/time objective.

A route plan answers "how should the trip continue from the segment being
entered right now?".  Trips are accounted from entering their first segment
to entering their last, so a plan's path starts with the origin segment and
stops just before the destination segment; the plan from a segment to itself
is empty.  This single convention makes the live per-step scores collapse to
the offline features on the final step with no special cases.

Travel times are FIFO (``network.segment_travel_time``): entering a segment
later never means leaving it earlier.  So a route that reaches a node with
no more km and no later than another continues at least as well, the label
search keeps one small Pareto set of (km, arrival) labels per node (one
label when no route that can still be optimal reaches a speed change), and
a recommended route never passes through a node twice.  A distance-only
query needs no search: it walks the km table.
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
from .network import (DAY_MINUTES, RoadNetwork, Segment, full_traversals, minute_of_day,
                      segment_travel_time)


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

    ``distance`` always equals ``path_distance(path)`` for the carried path,
    and ``est_time`` the minutes from ``planned_at`` to the last time that
    ``entry_times(path, planned_at)`` sums forward.  ``weights``
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


# Per-network cache of the static per-goal tables, keyed by (goal node, edge
# cost).  The network is immutable, so the tables never go stale.  Each
# network keeps at most _MAX_TABLES of them and evicts the least recently
# used, so memory stays bounded on large grids; a 10x10 grid needs at most
# 200 (100 goals, two kinds) and never evicts.
_HEURISTICS: WeakKeyDictionary = WeakKeyDictionary()
_MAX_TABLES = 512
_FIRST = itemgetter(0)
# How far the lower bound on a route that reaches the next speed change must
# clear the cost of a known route before labels compare by weighted cost
# alone; it is far above the rounding of either side.
_SCALAR_MARGIN = 1e-9


class _NetworkTables(OrderedDict):
    """One network's LRU of per-goal tables, and what is compiled once per network.

    ``reverse`` holds the compiled reverse graph per edge cost.  ``forward``
    holds per node id its outgoing segments, in ``net.outgoing`` order, as
    ``(to_node, length, id, segment, starts, fulls, changes)``: the columns
    of ``network.full_traversals``.  ``changes`` is the sorted minutes of the
    day at which some segment's speed changes, and ``pace`` the minutes-per-km
    bound per speed regime (``_regime``).  Each is at most O(segments), kept
    for the network's lifetime, and none counts toward ``_MAX_TABLES`` or is
    ever evicted.  ``forward`` and ``changes`` are built by the first
    time-weighted (w2 > 0) ``route_plan``, so a caller that reads only km
    tables or plans by distance alone never builds them.
    """

    def __init__(self):
        super().__init__()
        self.reverse = {}
        self.forward = None
        self.changes = None
        self.pace = {}


def _tables(net: RoadNetwork) -> _NetworkTables:
    tables = _HEURISTICS.get(net)
    if tables is None:
        tables = _HEURISTICS[net] = _NetworkTables()
    return tables


def _compile_forward(net: RoadNetwork, tables: _NetworkTables) -> None:
    """Fill ``tables.forward`` and ``tables.changes`` from ``net``."""
    forward = {}
    for nid in net.nodes:
        rows = []
        for seg in net.outgoing(nid):
            starts, fulls, changes = zip(*full_traversals(seg))
            rows.append((seg.to_node, seg.length, seg.id, seg, starts, fulls, changes))
        forward[nid] = tuple(rows)
    changes = set()
    for seg in net.segments.values():
        prof = seg.speed_profile
        changes.update(start for i, (start, kmh) in enumerate(prof) if kmh != prof[i - 1][1])
    tables.forward = forward
    tables.changes = tuple(sorted(changes))


def _regime(net: RoadNetwork, tables: _NetworkTables, minute: float) -> tuple[float, float]:
    """``(b, c)`` for a departure at ``minute`` of the day.

    ``b`` is the first minute after ``minute`` at which some segment's speed
    changes: past 1440 when that is tomorrow, inf when no speed ever
    changes.  ``c`` is the least minutes per km, ``60 / kmh``, over every
    segment at the speed it keeps from ``minute`` up to ``b``, rounded down
    by ``_SCALAR_MARGIN``; it is cached per regime.
    """
    changes = tables.changes
    k = bisect_right(changes, minute)
    if k < len(changes):
        b = changes[k]
    else:
        b = changes[0] + DAY_MINUTES if changes else math.inf
    key = k % len(changes) if changes else 0
    c = tables.pace.get(key)
    if c is None:
        c = tables.pace[key] = (1.0 - _SCALAR_MARGIN) * min(
            60.0 / seg.speed_profile[bisect_right(seg.speed_profile, minute, key=_FIRST) - 1][1]
            for seg in net.segments.values())
    return b, c


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
    on first use, so a caller that reads only km, a distance-only
    ``route_plan`` query or one under the one-label rule never builds
    minutes.  The table maps every node that reaches ``goal`` to its bound.

    The build is a reverse Dijkstra over the network's compiled reverse
    graph.  Node indices follow sorted id order, so ``(cost, index)`` heap
    entries break ties exactly as ``(cost, node_id)`` would.
    """
    tables = _tables(net)
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


def _km_path(net, h_km, o: Segment, goal: str) -> tuple[str, ...]:
    """The km-shortest plan path from ``o`` to ``goal``, which reaches it.

    A depth-first walk along segments tight against the km table
    (``seg.length + h_km[to] == h_km[node]``), smallest id first.  It never
    enters a node twice and backs up where a zero-length cycle leaves no
    tight exit, so it takes O(segments) steps and, as the table's own
    shortest-path tree is tight, reaches the goal.
    """
    node = o.to_node
    path, exits, seen = [o.id], [iter(net.outgoing(node))], {node}
    while node != goal:
        rest = h_km[node]
        for seg in exits[-1]:
            nxt = seg.to_node
            if nxt not in seen and seg.length + h_km.get(nxt, math.inf) == rest:
                seen.add(nxt)
                path.append(seg.id)
                exits.append(iter(net.outgoing(nxt)))
                node = nxt
                break
        else:
            exits.pop()
            node = net.segment(path.pop()).from_node
    return tuple(path)


def _km_and_arrival(net, path, depart: float) -> tuple[float, float]:
    """``path``'s km and its arrival when entered at ``depart``, summed
    forward in one pass and in the order ``path_km`` and ``entry_times`` add
    them, so each is the float those give."""
    km, t = 0.0, depart
    for sid in path:
        seg = net.segment(sid)
        km += seg.length
        t += 60.0 * segment_travel_time(seg, minute_of_day(t))
    return km, t


def _scalar_pace(net, tables, h_km, o: Segment, goal: str, depart: float,
                 w1: float, w2: float) -> float | None:
    """The regime's minutes-per-km bound ``c`` when labels may compare by
    weighted cost alone (see ``route_plan``), else None.

    U is the cost of the km-shortest route ``_km_path``, its km and arrival
    summed forward exactly as the search does (``_km_and_arrival``).
    """
    minute = minute_of_day(depart)
    b, c = _regime(net, tables, minute)
    km, arrival = _km_and_arrival(net, _km_path(net, h_km, o, goal), depart)
    upper = w1 * km + w2 * ((arrival - depart) / 60.0)
    lower = w1 * (o.length + h_km[o.to_node]) + w2 * (b - minute)
    return c if lower > upper * (1.0 + _SCALAR_MARGIN) else None


def route_plan(
    net: RoadNetwork,
    origin: str,
    dest: str,
    depart: float,
    weights: RoutingWeights = RoutingWeights(),
) -> RoutePlanStep:
    """Best remaining route from ``origin`` (entered at ``depart``) to ``dest``.

    Minimizes ``w1 * distance + w2 * est_time`` with segment entry times
    evolving along the path.  A distance-only query (w2 = 0) depends on
    neither w1 nor the time: its path is the km-table walk ``_km_path``, so
    its ties break by the walk's rule, and its km and minutes are summed
    forward along it.  Every other query is a label search.  Travel times
    are FIFO (``segment_travel_time``), so arriving at a node earlier and
    with fewer km never hurts what follows: each node keeps a Pareto set of
    (km, arrival) labels, and a label that another one there matches or
    beats on every weighted criterion is dropped.  A loop only adds km and
    time, so the result is loop-free by construction.  Equal-cost ties
    resolve toward the lexicographically smallest segment-id sequence.

    One label per node when no useful route can reach a speed change.  Let b
    be the first time after the departure at which some segment's speed
    changes, K0 the origin's length plus the least km from its exit node to
    the goal, and U the cost of one real route (``_scalar_pace``).  Every
    route has at least K0 km, so a route that reaches the goal at or after b
    costs at least L = w1 * K0 + w2 * (minutes from the departure to b).
    When L exceeds U by ``_SCALAR_MARGIN``, no route that reaches b is
    optimal, and labels at a node compare by weighted cost g alone, ties by
    path.  Proof: let X and Y be labels at node v with g(X) <= g(Y), and S a
    continuation from v to the goal.  If X arrives at or after b, g(Y) >=
    g(X) >= w1 * km(X) + w2 * (minutes to b), and Y+S adds at least the least
    km from v, so Y+S costs at least L and is not optimal.  If Y arrives at
    or after b, the same sum holds for Y.  Otherwise both arrive before b.
    Until b every segment keeps one speed, so S driven before b adds fixed
    km(S) and fixed minutes m(S).  Suppose Y+S is optimal: it ends before b
    and costs g(Y) + w1 * km(S) + w2 * m(S) <= U.  Drive S from X, which may
    arrive later with fewer km, at the speeds in force before b: that costs
    g(X) + w1 * km(S) + w2 * m(S) <= U < L, so the drive ends before b (one
    that reaches b costs at least L), the real X+S is that drive, and it is
    at least as good as Y+S.  So Y can go.

    The A* bound adds to g the static remaining km to the goal, weighted by
    w1, and a lower bound on the remaining minutes, weighted by w2.  Under
    the one-label rule that bound is the remaining km times the least
    minutes per km of any segment at the speeds in force before b: it holds
    on every route that can still be optimal, as those end before b, and no
    per-goal minutes table is built.  Otherwise it is a static table of the
    remaining minutes at each segment's fastest bucket.  Segment minutes
    come from an adjacency compiled once per network that holds each
    bucket's full-traversal minutes and the next minute the segment's speed
    changes; only a traversal that reaches that change calls
    ``segment_travel_time``, and both give the same float.
    """
    if not math.isfinite(depart):
        raise InputError(f"departure time {depart!r} is not a finite number")
    o = net.segment(origin)
    d = net.segment(dest)
    if origin == dest:
        return RoutePlanStep((), depart, 0.0, 0.0, weights)

    goal = d.from_node
    h_km = _lower_bounds(net, goal, _segment_km)
    if o.to_node not in h_km:
        raise NoRouteError(f"no route from segment {origin!r} to segment {dest!r}")
    w1, w2 = weights.w1, weights.w2
    if w2 == 0.0:
        path = _km_path(net, h_km, o, goal)
        km, arrival = _km_and_arrival(net, path, depart)
        return RoutePlanStep(path, depart, km, (arrival - depart) / 60.0, weights)
    tables = _tables(net)
    if tables.forward is None:
        _compile_forward(net, tables)
    forward = tables.forward
    t0 = depart + 60.0 * segment_travel_time(o, minute_of_day(depart))
    pace = _scalar_pace(net, tables, h_km, o, goal, depart, w1, w2)
    h_min = None if pace is not None else _lower_bounds(net, goal, _fastest_minutes)

    # A label is a list whose last item stays True until a better label at
    # its node replaces it; a replaced label is skipped when popped.  Under
    # the one-label rule, best[node] is [g, path, alive], and a new label is
    # dropped unless its (g, path) is smaller.  Otherwise each node keeps a
    # Pareto front of labels [a, b, path, alive]: a is the km, held at 0.0
    # when w1 is 0, and b the arrival.  Raw values are compared, never
    # weighted sums, which rounding can tie.  The front is sorted by a, so
    # b strictly falls along it.  A new label is dropped if a
    # label there has no more a and no more b, and the smaller path on a tie
    # in both; the labels it beats leave the front.
    g0 = w1 * o.length + w2 * ((t0 - depart) / 60.0)
    hk = h_km[o.to_node]
    if pace is None:
        start = [o.length if w1 else 0.0, t0, (origin,), True]
        f0 = g0 + w1 * hk + w2 * h_min[o.to_node]
        fronts: dict[str, list[list]] = {o.to_node: [start]}
    else:
        scale = w1 + w2 * pace
        start = [g0, (origin,), True]
        f0 = g0 + hk * scale
        best: dict[str, list] = {o.to_node: start}
    heap = [(f0, (origin,), o.to_node, o.length, t0, start)]

    while heap:
        f, path, node, dist_km, t_abs, label = heapq.heappop(heap)
        if not label[-1]:
            continue  # beaten after it was pushed
        if node == goal:
            return RoutePlanStep(path, depart, dist_km, (t_abs - depart) / 60.0, weights)
        minute = minute_of_day(t_abs)
        for to, km, sid, seg, starts, fulls, changes in forward[node]:
            hk = h_km.get(to)
            if hk is None:
                continue  # cannot reach the goal through this segment
            i = bisect_right(starts, minute) - 1
            mins = fulls[i]
            if minute + mins > changes[i]:
                mins = segment_travel_time(seg, minute)
            nt = t_abs + 60.0 * mins
            nd = dist_km + km
            g = w1 * nd + w2 * ((nt - depart) / 60.0)
            if pace is not None:
                old = best.get(to)
                if old is not None and old[0] < g:
                    continue
                npath = path + (sid,)
                if old is not None:
                    if old[0] == g and old[1] <= npath:
                        continue
                    old[2] = False
                new = best[to] = [g, npath, True]
                heapq.heappush(heap, (g + hk * scale, npath, to, nd, nt, new))
                continue
            npath = path + (sid,)
            a, b = (nd if w1 else 0.0), nt
            front = fronts.setdefault(to, [])
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
            heapq.heappush(heap, (g + w1 * hk + w2 * h_min[to], npath, to, nd, nt, new))

    raise NoRouteError(f"no route from segment {origin!r} to segment {dest!r}")
