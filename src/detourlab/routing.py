"""Dynamic route recommendation over a weighted distance/time objective.

A route plan answers "how should the trip continue from the segment being
entered right now?".  Trips are accounted from entering their first segment
to entering their last, so a plan's path starts with the origin segment and
stops just before the destination segment; the plan from a segment to itself
is empty.  This single convention makes the live per-step scores collapse to
the offline features on the final step with no special cases.

Travel times are FIFO (``network.segment_travel_time``): entering a segment
later never means leaving it earlier, and a speed change bounds how much
later.  So the label search keeps per node a small front of labels that no
other label there beats under one rule, from those slope bounds
(``route_plan``), and a recommended route never passes through a node
twice.  A distance-only query needs no search: it walks the km table.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter

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


# Each network keeps at most _MAX_TABLES per-goal km tables and evicts the
# least recently used, so memory stays bounded on large grids; a 10x10 grid
# needs at most 100 and never evicts.
_MAX_TABLES = 512
_FIRST = itemgetter(0)
# How far a label must clear a cone test with a positive slope term, and how
# far the horizon and the minutes-per-km bound are widened; it is far above
# the rounding of either side, so no tie is decided by the cone.
_SCALAR_MARGIN = 1e-9


class _NetworkTables(OrderedDict):
    """One network's LRU of per-goal km tables, keyed by goal node, and what
    is compiled once per network.

    The network holds it in ``RoadNetwork._derived``, where ``_tables``
    finds it, so it lives as long as the network and never goes stale.

    ``incoming`` is the reverse graph of the km tables (``_lower_bounds``).
    ``forward`` holds per node id its outgoing segments, in ``net.outgoing``
    order, as ``(to_node, length, id, segment, starts, fulls, changes)``:
    the columns of ``network.full_traversals``.  ``changes`` is the sorted
    minutes of the day at which some segment's speed changes, ``slopes`` per
    change ``(min(1, least ratio), max(1, greatest ratio))`` of a segment's
    speed before it to its speed after it, and ``pace`` the minutes-per-km
    bound per speed regime (``_pace``).  Each is O(segments), kept for the
    network's lifetime and never evicted.  The first time-weighted (w2 > 0)
    ``route_plan`` builds ``forward``, ``changes`` and ``slopes``.
    """

    def __init__(self):
        super().__init__()
        self.incoming = None
        self.forward = None
        self.changes = None
        self.slopes = None
        self.pace = {}


def _tables(net: RoadNetwork) -> _NetworkTables:
    tables = net._derived.get(_NetworkTables)
    if tables is None:
        tables = net._derived[_NetworkTables] = _NetworkTables()
    return tables


def _compile_forward(net: RoadNetwork, tables: _NetworkTables) -> None:
    """Fill ``tables.forward``, ``tables.changes`` and ``tables.slopes`` from ``net``."""
    forward = {}
    for nid in net.nodes:
        rows = []
        for seg in net.outgoing(nid):
            starts, fulls, changes = zip(*full_traversals(seg))
            rows.append((seg.to_node, seg.length, seg.id, seg, starts, fulls, changes))
        forward[nid] = tuple(rows)
    ratios = {}
    for seg in net.segments.values():
        prof = seg.speed_profile
        for i, (start, kmh) in enumerate(prof):
            if kmh != prof[i - 1][1]:
                ratio = prof[i - 1][1] / kmh
                lo, hi = ratios.get(start, (1.0, 1.0))
                ratios[start] = (min(lo, ratio), max(hi, ratio))
    tables.forward = forward
    tables.changes = tuple(sorted(ratios))
    tables.slopes = tuple(ratios[minute] for minute in tables.changes)


def _pace(net: RoadNetwork, tables: _NetworkTables, regime: int) -> float:
    """The least minutes per km, ``60 / kmh``, over every segment at the
    speed it keeps in ``regime``, rounded down by ``_SCALAR_MARGIN``; cached.

    Regime r runs from change r - 1 to change r of ``tables.changes``;
    regime 0 runs from the last change of one day to the first of the next.
    With no change there is one regime.
    """
    c = tables.pace.get(regime)
    if c is None:
        minute = tables.changes[regime - 1] if tables.changes else 0.0
        c = tables.pace[regime] = (1.0 - _SCALAR_MARGIN) * min(
            60.0 / seg.speed_profile[bisect_right(seg.speed_profile, minute, key=_FIRST) - 1][1]
            for seg in net.segments.values())
    return c


def _lower_bounds(net: RoadNetwork, goal: str) -> dict[str, float]:
    """The least km from every node that reaches ``goal`` to it.

    This is the static A* table of ``route_plan``, admissible and consistent
    whatever the departure time, built on first use.  The build is a reverse
    Dijkstra over a reverse graph compiled once per network: node ids in
    sorted order, and per node index a tuple of ``(from_index, length)``
    over its incoming segments in ``net.incoming`` order.  Node indices
    follow sorted id order, so ``(km, index)`` heap entries break ties
    exactly as ``(km, node_id)`` would.
    """
    tables = _tables(net)
    if goal in tables:
        tables.move_to_end(goal)
        return tables[goal]
    if tables.incoming is None:
        ids = sorted(net.nodes)
        index = {nid: i for i, nid in enumerate(ids)}
        tables.incoming = ids, index, tuple(
            tuple((index[seg.from_node], seg.length) for seg in net.incoming(nid))
            for nid in ids)
    ids, index, incoming = tables.incoming
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
    tables[goal] = table
    if len(tables) > _MAX_TABLES:
        tables.popitem(last=False)
    return table


def km_table(net: RoadNetwork, dest: str) -> dict[str, float]:
    """Shortest km from each node that reaches segment ``dest`` to entering it.

    This is the static km table behind the planner's A* bound for that goal,
    built on first use and shared with ``route_plan``.
    """
    return _lower_bounds(net, net.segment(dest).from_node)


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


def _horizon(net, tables, h_km, o: Segment, goal: str, k0: float, depart: float,
             w1: float, w2: float) -> tuple[float, float, float]:
    """``(rho, R, c)`` for a time-weighted query (see ``route_plan``).

    U is the cost of the km-shortest route ``_km_path``, its km and arrival
    summed forward exactly as the search does (``_km_and_arrival``), and K0
    is ``k0``, the query's ``km_via``: the origin's length plus the least km
    from its exit node to the goal.  The horizon runs H = (U * (1 +
    ``_SCALAR_MARGIN``) - w1 * K0) / w2 minutes from the departure.  ``rho``
    and ``R`` are the products of the ``slopes`` of the speed changes after
    the departure and within H: 0 and inf when H is a day or more and some
    speed changes.  ``c`` is the least ``_pace`` of the speed regimes the
    horizon meets.
    """
    minute = minute_of_day(depart)
    km, arrival = _km_and_arrival(net, _km_path(net, h_km, o, goal), depart)
    upper = w1 * km + w2 * ((arrival - depart) / 60.0)
    end = minute + (upper * (1.0 + _SCALAR_MARGIN) - w1 * k0) / w2
    changes, n = tables.changes, len(tables.changes)
    if not n:
        return 1.0, 1.0, _pace(net, tables, 0)
    if end - minute >= DAY_MINUTES:  # every regime: the fastest speed of the day
        return 0.0, math.inf, (1.0 - _SCALAR_MARGIN) * 60.0 / max(
            kmh for seg in net.segments.values() for _, kmh in seg.speed_profile)
    k = bisect_right(changes, minute)
    rho, big, c = 1.0, 1.0, _pace(net, tables, k % n)
    while changes[k % n] + DAY_MINUTES * (k // n) <= end:
        lo, hi = tables.slopes[k % n]
        rho, big = rho * lo, big * hi
        k += 1
        c = min(c, _pace(net, tables, k % n))
    return rho, big, c


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
    forward along it.  Every other query is an A* label search whose
    equal-cost ties resolve toward the lexicographically smallest
    segment-id sequence.

    Each node keeps a front of labels: cost g so far, km (0.0 when w1 is 0),
    arrival and path; m is the minutes from the departure to the arrival.
    A label X beats a label Y at the same node, and Y is dropped, when X
    has no more km and arrives no later (the smaller path wins a tie in
    both), or when g(X) + w2 * k * |m(X) - m(Y)| <= g(Y), with k = 1 - rho
    if X arrives no later and k = R - 1 if later.  A positive k must clear
    that test by the relative ``_SCALAR_MARGIN``; with k = 0 the smaller g
    wins, and the smaller path a tie.

    rho and R bound a slope.  Let K0 be the origin's length plus the least
    km from its exit node to the goal, and U the cost of one real route
    (``_horizon``).  Every route has at least K0 km, so one that costs at
    most U, as an optimal one does, ends within H = (U - w1 * K0) / w2
    minutes of the departure.  Travel times are FIFO
    (``segment_travel_time``): a vehicle that enters a segment dt later and
    crosses a change of its speed from v1 to v2 leaves it v1 / v2 * dt
    later.  So along a fixed continuation S from a node, the arrival at the
    goal A_S(t), as a function of the time t the node is left, has slope the
    product of v1 / v2 over the changes the drive crosses.  rho is the
    product over the speed changes within H of min(1, the least such ratio
    there), and R that of max(1, the greatest), so the slope lies between
    them while the drive ends within H.  With no change there, rho = R = 1
    and labels compare by g alone; an H of a day or more gives rho = 0 and
    R = inf, which leaves the first case: a (km, arrival) Pareto front.

    Why a dropped Y loses nothing.  Let Y+S be optimal, so it ends within H.
    If X arrives no later, every drive of S that leaves between t_X and t_Y
    ends by Y+S's end, so A_S(t_Y) - A_S(t_X) >= rho * (t_Y - t_X), and
    cost(X+S) - cost(Y+S) <= g(X) - g(Y) + w2 * (1 - rho) * (m(Y) - m(X))
    <= 0.  If X arrives later and X+S ends within H, the same holds with
    R - 1.  If X+S ends after H, let t* be when A_S reaches H's end; the
    test gives cost(Y+S) >= w1 * (km(Y) + km(S)) + w2 * (H - R * (t* - t_Y)
    / 60) > w1 * (km(X) + km(S)) + w2 * H >= U, so Y+S was not optimal.  A
    positive k passes only with the margin, so it decides no tie; the other
    tests give a tie to X's smaller path.  X+S may pass a node twice, but a
    loop only adds km and time, so the answer is loop-free.

    The A* bound adds to g the remaining km to the goal, from a static
    table, times w1 + w2 * c, c the least minutes per km of any segment in
    any speed regime within H: it holds on every route that can still be
    optimal.  Segment minutes come from an adjacency compiled once per
    network that holds each bucket's full-traversal minutes and the next
    minute the segment's speed changes; only a traversal that reaches that
    change calls ``segment_travel_time``, and both give the same float.
    """
    if not math.isfinite(depart):
        raise InputError(f"departure time {depart!r} is not a finite number")
    o = net.segment(origin)
    d = net.segment(dest)
    if origin == dest:
        return RoutePlanStep((), depart, 0.0, 0.0, weights)

    goal = d.from_node
    h_km = _lower_bounds(net, goal)
    k0 = km_via(o, dest, h_km)
    if k0 is None:
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
    rho, big, c = _horizon(net, tables, h_km, o, goal, k0, depart, w1, w2)
    # the cone's k per second of arrival, for an earlier and a later label
    early, late = w2 * (1.0 - rho) / 60.0, w2 * (big - 1.0) / 60.0
    clear = 1.0 + _SCALAR_MARGIN
    scale = w1 + w2 * c

    # A label is [g, km, arrival, path, alive]; alive stays True until a
    # label at its node beats it, and a beaten label is skipped when popped.
    # The proof needs only that the beating label's path exists, so a label
    # the new one beats goes even if a later one beats the new one.  Raw km
    # and arrivals are compared in the first case, never weighted sums.
    t0 = depart + 60.0 * segment_travel_time(o, minute_of_day(depart))
    g0 = w1 * o.length + w2 * ((t0 - depart) / 60.0)
    start = [g0, o.length if w1 else 0.0, t0, (origin,), True]
    fronts: dict[str, list[list]] = {o.to_node: [start]}
    heap = [(g0 + h_km[o.to_node] * scale, (origin,), o.to_node, o.length, t0, start)]

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
            a = nd if w1 else 0.0
            npath = path + (sid,)
            kept = []
            for x in fronts.get(to, ()):
                xg, xa, xt, xpath, alive = x
                if xt <= nt:
                    if xa <= a and (xa < a or xt < nt or xpath < npath):
                        break
                    k, back, dt = early, late if xt < nt else early, nt - xt
                else:
                    k, back, dt = late, early, xt - nt
                if (xg + k * dt) * clear < g if k else xg < g or xg == g and xpath < npath:
                    break
                # the same tests the other way round; x did not win the first
                # case, so it loses it whenever it arrives no earlier with no
                # fewer km
                if nt <= xt and a <= xa or ((g + back * dt) * clear < xg if back else
                                            g < xg or g == xg and npath < xpath):
                    x[4] = False
                elif alive:
                    kept.append(x)
            else:
                new = [g, a, nt, npath, True]
                kept.append(new)
                fronts[to] = kept
                heapq.heappush(heap, (g + hk * scale, npath, to, nd, nt, new))

    raise NoRouteError(f"no route from segment {origin!r} to segment {dest!r}")
