import heapq
import json
import math
import types
from dataclasses import replace

import numpy as np
import pytest

from detourlab import routing
from detourlab.errors import InputError, NoRouteError
from detourlab.network import (Node, RoadNetwork, Segment, load_network, minute_of_day,
                               network_from_dict, network_to_dict, segment_travel_time)
from detourlab.routing import (
    RoutingWeights,
    path_distance,
    route_km,
    route_plan,
)
from detourlab.simulate import SimConfig, generate_network

from conftest import flat, path_est_time

BASE_T = 1543622400.0


def enumerate_plans(net, origin, dest):
    """Every candidate plan: the origin segment followed by each simple node
    path to the destination segment's entry node."""
    if origin == dest:
        return [()]
    start = net.segment(origin).to_node
    goal = net.segment(dest).from_node
    plans = []

    def dfs(node, visited, segs):
        if node == goal:
            plans.append((origin,) + tuple(segs))
            return
        for seg in net.outgoing(node):
            if seg.to_node in visited:
                continue
            visited.add(seg.to_node)
            segs.append(seg.id)
            dfs(seg.to_node, visited, segs)
            segs.pop()
            visited.remove(seg.to_node)

    dfs(start, {start}, [])
    return plans


def brute_force_best(net, origin, dest, depart, weights):
    plans = enumerate_plans(net, origin, dest)
    if not plans:
        return None
    scored = [
        (weights.w1 * path_distance(net, p) + weights.w2 * path_est_time(net, p, depart), p)
        for p in plans
    ]
    return min(scored)


def random_graph(rng, n_nodes):
    nodes = [
        Node(f"n{i}", float(rng.uniform(-0.05, 0.05)), float(rng.uniform(-0.05, 0.05)))
        for i in range(n_nodes)
    ]
    segments = []
    for i in range(n_nodes):
        for j in range(n_nodes):
            if i == j or rng.uniform() > 0.35:
                continue
            k = 2 if rng.uniform() < 0.07 else 1  # occasional parallel segments
            for copy in range(k):
                starts = [0.0] + sorted(
                    float(rng.uniform(1.0, 1439.0)) for _ in range(int(rng.integers(0, 3)))
                )
                profile = tuple((s, float(rng.uniform(20.0, 80.0))) for s in starts)
                segments.append(
                    Segment(
                        f"s{i}_{j}" + ("b" if copy else ""),
                        f"n{i}",
                        f"n{j}",
                        float(rng.uniform(0.2, 2.0)),
                        profile,
                    )
                )
    return RoadNetwork(nodes, segments)


WEIGHT_CHOICES = (
    RoutingWeights(1.0, 0.0),
    RoutingWeights(0.0, 1.0),
    RoutingWeights(0.5, 0.5),
    RoutingWeights(0.2, 1.3),
)


def test_same_segment_plan_is_empty(small_grid):
    sid = next(iter(small_grid.segments))
    plan = route_plan(small_grid, sid, sid, BASE_T)
    assert plan.path == ()
    assert plan.distance == 0.0
    assert plan.est_time == 0.0


def test_two_route_fixture(two_route_net):
    shorter = route_plan(two_route_net, "in", "out", BASE_T, RoutingWeights(1.0, 0.0))
    assert shorter.path == ("in", "short")
    assert shorter.distance == pytest.approx(2.0)
    faster = route_plan(two_route_net, "in", "out", BASE_T, RoutingWeights(0.0, 1.0))
    assert faster.path == ("in", "long1", "long2")
    assert faster.est_time == pytest.approx(2.0)


def test_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(30):
        net = random_graph(rng, int(rng.integers(3, 9)))
        seg_ids = sorted(net.segments)
        if len(seg_ids) < 2:
            continue
        for _ in range(6):
            origin = seg_ids[int(rng.integers(len(seg_ids)))]
            dest = seg_ids[int(rng.integers(len(seg_ids)))]
            depart = BASE_T + float(rng.uniform(0.0, 2880.0)) * 60.0
            weights = WEIGHT_CHOICES[int(rng.integers(len(WEIGHT_CHOICES)))]
            expected = brute_force_best(net, origin, dest, depart, weights)
            if expected is None:
                with pytest.raises(NoRouteError):
                    route_plan(net, origin, dest, depart, weights)
                continue
            plan = route_plan(net, origin, dest, depart, weights)
            got = weights.w1 * plan.distance + weights.w2 * plan.est_time
            assert got == expected[0]
            assert plan.path == expected[1]
            checked += 1
    assert checked > 60


# w2 = 1e-13 puts the planner's horizon, (U - w1 * K0) / w2 minutes with U
# raised by a relative 1e-9, past a day on every route of at least 0.2 km
NEAR_CHANGE_WEIGHTS = WEIGHT_CHOICES + (
    RoutingWeights(1.0, 0.05), RoutingWeights(0.7, 2.0), RoutingWeights(1.0, 1e-13))


def speed_changes(net):
    """Minutes of the day at which some segment's speed changes."""
    return sorted({start for seg in net.segments.values()
                   for i, (start, kmh) in enumerate(seg.speed_profile)
                   if kmh != seg.speed_profile[i - 1][1]})


def test_matches_brute_force_just_before_speed_changes():
    # Departures packed into the 30 minutes before a speed change, half of
    # them within 2 minutes, where the planner's slope bounds matter most.
    rng = np.random.default_rng(2026)
    nets = [random_graph(rng, int(rng.integers(3, 8))) for _ in range(100)]
    nets += [generate_network(SimConfig(seed=seed, grid_dims=(4, 4))) for seed in range(4)]
    checked = unreachable = 0
    for net in nets:
        seg_ids = sorted(net.segments)
        changes = speed_changes(net)
        if len(seg_ids) < 2 or not changes:
            continue
        for q in range(16):
            origin, dest = (seg_ids[int(i)] for i in rng.integers(len(seg_ids), size=2))
            change = changes[int(rng.integers(len(changes)))]
            before = float(rng.uniform(0.0, 2.0 if q % 2 else 30.0))
            depart = BASE_T + (change - before) * 60.0 + 86400.0 * int(rng.integers(2))
            weights = NEAR_CHANGE_WEIGHTS[q % len(NEAR_CHANGE_WEIGHTS)]
            expected = brute_force_best(net, origin, dest, depart, weights)
            if expected is None:
                unreachable += 1
                with pytest.raises(NoRouteError):
                    route_plan(net, origin, dest, depart, weights)
                continue
            plan = route_plan(net, origin, dest, depart, weights)
            got = weights.w1 * plan.distance + weights.w2 * plan.est_time
            assert (got, plan.path) == expected, (origin, dest, depart, weights)
            checked += 1
    assert checked > 1000 and unreachable > 0


def test_route_km_equals_distance_only_plan(small_grid):
    # 21:50 sits just before a speed breakpoint; distance must not care
    shortest = RoutingWeights(1.0, 0.0)
    for depart in (BASE_T + 12 * 3600.0, BASE_T + (21 * 60 + 50) * 60.0):
        for origin in small_grid.segments:
            for dest in small_grid.segments:
                plan = route_plan(small_grid, origin, dest, depart, shortest)
                assert math.isclose(route_km(small_grid, origin, dest), plan.distance,
                                     rel_tol=1e-12), (origin, dest, depart)


def test_route_km_none_exactly_where_no_route():
    rng = np.random.default_rng(2025)
    unreachable = 0
    for _ in range(30):
        net = random_graph(rng, int(rng.integers(3, 9)))
        for origin in net.segments:
            for dest in net.segments:
                km = route_km(net, origin, dest)
                try:
                    plan = route_plan(net, origin, dest, BASE_T, RoutingWeights(1.0, 0.0))
                except NoRouteError:
                    assert km is None, (origin, dest)
                    unreachable += 1
                else:
                    assert math.isclose(km, plan.distance, rel_tol=1e-12), (origin, dest)
    assert unreachable > 0


def zero_length_cycle_net():
    # a>b and b>a add nothing to a km sum near 1, and a>g is 1 + 1e-17 km,
    # which rounds to 1: every one of them is tight against the km table.
    # Following the smallest tight id would bounce between a and b forever.
    return RoadNetwork(
        [Node("s", 0.0, 0.0), Node("a", 0.0, 0.01), Node("b", 0.0, 0.01),
         Node("g", 0.0, 0.02)],
        [Segment(sid, frm, to, km, flat(40.0)) for sid, frm, to, km in (
            ("o", "s", "a", 1.0), ("a>b", "a", "b", 1e-18), ("b>a", "b", "a", 1e-18),
            ("b>g", "b", "g", 1.0), ("a>g", "a", "g", 1.0 + 1e-17), ("d", "g", "s", 1.0))],
    )


def test_distance_only_plan_leaves_a_zero_length_cycle():
    net = zero_length_cycle_net()
    plan = route_plan(net, "o", "d", BASE_T, RoutingWeights(1.0, 0.0))
    assert plan.path == ("o", "a>b", "b>g")


@pytest.mark.parametrize("depart", [math.nan, math.inf, -math.inf])
def test_non_finite_departure_rejected(small_grid, depart):
    seg_ids = sorted(small_grid.segments)
    route_plan(small_grid, seg_ids[0], seg_ids[-1], BASE_T)  # the pair is routable
    with pytest.raises(InputError):
        route_plan(small_grid, seg_ids[0], seg_ids[-1], depart)


def test_plan_self_consistency(small_grid):
    rng = np.random.default_rng(5)
    seg_ids = sorted(small_grid.segments)
    for _ in range(25):
        origin = seg_ids[int(rng.integers(len(seg_ids)))]
        dest = seg_ids[int(rng.integers(len(seg_ids)))]
        depart = BASE_T + float(rng.uniform(0, 1440)) * 60.0
        plan = route_plan(small_grid, origin, dest, depart)
        assert plan.distance == path_distance(small_grid, plan.path)
        assert plan.est_time == path_est_time(small_grid, plan.path, depart)
        assert plan.planned_at == depart


def test_determinism(small_grid):
    seg_ids = sorted(small_grid.segments)
    a = route_plan(small_grid, seg_ids[0], seg_ids[-1], BASE_T)
    b = route_plan(small_grid, seg_ids[0], seg_ids[-1], BASE_T)
    assert a == b


def test_monotone_under_extension(small_grid):
    rng = np.random.default_rng(7)
    for _ in range(20):
        seg = small_grid.segments[sorted(small_grid.segments)[int(rng.integers(len(small_grid.segments)))]]
        path = [seg.id]
        for _ in range(6):
            options = small_grid.outgoing(small_grid.segment(path[-1]).to_node)
            nxt = options[int(rng.integers(len(options)))]
            longer = path + [nxt.id]
            assert path_distance(small_grid, longer) > path_distance(small_grid, path)
            assert path_est_time(small_grid, longer, BASE_T) > path_est_time(small_grid, path, BASE_T)
            path = longer


def test_empty_path_functionals(small_grid):
    assert path_distance(small_grid, ()) == 0.0
    assert path_est_time(small_grid, (), BASE_T) == 0.0


def test_single_segment_distance():
    net = RoadNetwork(
        [Node("a", 0.0, 0.0), Node("b", 0.0, 0.01)],
        [Segment("s", "a", "b", 1.5, flat(60.0))],
    )
    assert path_distance(net, ("s",)) == 1.5
    assert path_est_time(net, ("s",), BASE_T) == pytest.approx(1.5)


def test_three_segment_distance_sum():
    net = RoadNetwork(
        [Node(f"v{i}", 0.0, 0.001 * i) for i in range(4)],
        [Segment(f"e{i}", f"v{i}", f"v{i+1}", km, flat(60.0))
         for i, km in enumerate((0.7, 1.1, 0.45))],
    )
    assert path_distance(net, ("e0", "e1", "e2")) == pytest.approx(0.7 + 1.1 + 0.45)


def test_est_time_across_bucket_boundary():
    # enter the second segment after the 12:00 speed change: 1 km at 30 then 1 km at 120
    net = RoadNetwork(
        [Node("a", 0.0, 0.0), Node("b", 0.0, 0.01), Node("c", 0.0, 0.02)],
        [
            Segment("s1", "a", "b", 1.0, ((0.0, 30.0),)),
            Segment("s2", "b", "c", 1.0, ((0.0, 60.0), (720.0, 120.0))),
        ],
    )
    depart = BASE_T + 719.0 * 60.0  # 11:59, s2 entered at 12:01
    hand = 2.0 + 0.5
    assert path_est_time(net, ("s1", "s2"), depart) == pytest.approx(hand)


def test_earlier_arrival_wins_across_speed_bucket():
    # Formerly the non-FIFO trap: with speeds sampled at entry, the slower
    # approach to v entered the final road after the 12:00 switch and won.
    # Under FIFO speeds the early arrival rides the switch too, so it wins.
    boundary = 720.0
    depart = BASE_T + (boundary - 2.5) * 60.0
    net = RoadNetwork(
        [Node("o0", 0.0, 0.0), Node("o", 0.0, 0.01), Node("m", 0.01, 0.02),
         Node("v", 0.0, 0.03), Node("g", 0.0, 0.13), Node("x", 0.0, 0.14)],
        [
            Segment("in0", "o0", "o", 1.0, flat(60.0)),
            Segment("short", "o", "v", 1.0, flat(60.0)),
            Segment("long1", "o", "m", 1.0, flat(60.0)),
            Segment("long2", "m", "v", 1.0, flat(60.0)),
            Segment("last", "v", "g", 10.0, ((0.0, 10.0), (boundary, 60.0))),
            Segment("out", "g", "x", 1.0, flat(60.0)),
        ],
    )
    weights = RoutingWeights(0.0, 1.0)
    plan = route_plan(net, "in0", "out", depart, weights)
    assert plan.path == ("in0", "short", "last")
    # 2 min to v, 0.5 min at 10 km/h to 12:00, then the other 9.9167 km at 60
    assert plan.est_time == pytest.approx(2.0 + 0.5 + (10.0 - 0.5 / 6.0))
    expected = brute_force_best(net, "in0", "out", depart, weights)
    assert weights.w2 * plan.est_time == expected[0]


def test_loop_before_a_speed_rise_never_pays():
    # Circling a <-> c until the slow road speeds up at 12:00 beat driving
    # straight on when speeds were sampled at entry.  Under FIFO the vehicle
    # already on the slow road speeds up with the rest of traffic.
    net = RoadNetwork(
        [Node("o", 0.0, 0.0), Node("a", 0.0, 0.001), Node("c", 0.001, 0.001),
         Node("b", 0.0, 0.015), Node("x", 0.0, 0.016)],
        [
            Segment("in", "o", "a", 0.1, flat(60.0)),
            Segment("slow", "a", "b", 1.5, ((0.0, 6.0), (720.0, 600.0))),
            Segment("up", "a", "c", 0.1, flat(60.0)),
            Segment("down", "c", "a", 0.1, flat(60.0)),
            Segment("out", "b", "x", 0.1, flat(60.0)),
        ],
    )
    weights = RoutingWeights(0.5, 0.5)
    depart = BASE_T + (11 * 60 + 59.3) * 60.0  # 11:59:18
    plan = route_plan(net, "in", "out", depart, weights)
    assert plan.path == ("in", "slow")
    # 0.1 min on ``in``, 0.6 min at 6 km/h to 12:00, the last 1.44 km at 600
    assert plan.est_time == pytest.approx(0.844)
    expected = brute_force_best(net, "in", "out", depart, weights)
    assert (weights.w1 * plan.distance + weights.w2 * plan.est_time, plan.path) == expected


def segment_km(seg):
    return seg.length


def fastest_minutes(seg):
    """Minutes to traverse ``seg`` at its fastest speed bucket."""
    return min(seg.length / kmh * 60.0 for _, kmh in seg.speed_profile)


def state_search_plan(net, origin, dest, depart, weights, h_min=None):
    """A* label-setting over exact (node, entry-time) states.

    The planner's search before per-node dominance, kept as an oracle: it
    assumes nothing about FIFO, so it also finds a route that loops.  It
    reads the planner's km table, and its minutes bound is its own table of
    each segment's fastest bucket unless ``h_min`` is given.
    """
    if origin == dest:
        return (), 0.0, 0.0
    o = net.segment(origin)
    goal = net.segment(dest).from_node
    h_km = routing._lower_bounds(net, goal)
    if o.to_node not in h_km:
        return None
    if h_min is None:
        h_min = reference_lower_bounds(net, goal, fastest_minutes)
    w1, w2 = weights.w1, weights.w2

    def cost(dist_km, t_abs):
        return w1 * dist_km + w2 * ((t_abs - depart) / 60.0)

    t0 = depart + 60.0 * segment_travel_time(o, minute_of_day(depart))
    heap = [(cost(o.length, t0) + w1 * h_km[o.to_node] + w2 * h_min[o.to_node],
             (origin,), o.to_node, o.length, t0)]
    best = {(o.to_node, t0): (cost(o.length, t0), (origin,))}
    while heap:
        _, path, node, dist_km, t_abs = heapq.heappop(heap)
        if node == goal:
            return path, dist_km, (t_abs - depart) / 60.0
        if best[(node, t_abs)] != (cost(dist_km, t_abs), path):
            continue  # superseded by a better label for this exact state
        for seg in net.outgoing(node):
            if seg.to_node not in h_km:
                continue
            nt = t_abs + 60.0 * segment_travel_time(seg, minute_of_day(t_abs))
            nd = dist_km + seg.length
            label = (cost(nd, nt), path + (seg.id,))
            known = best.get((seg.to_node, nt))
            if known is not None and known <= label:
                continue
            best[(seg.to_node, nt)] = label
            f = label[0] + w1 * h_km[seg.to_node] + w2 * h_min[seg.to_node]
            heapq.heappush(heap, (f, label[1], seg.to_node, nd, nt))
    return None


def window_minutes(net, goal, depart, horizon):
    """Remaining minutes to ``goal`` at each segment's fastest speed in force
    at some time between ``depart`` and ``horizon`` minutes later.

    A bound for ``state_search_plan`` that holds on every route arriving
    within the horizon, so on every optimal route when the horizon is the
    cost of any route divided by w2.
    """
    first = minute_of_day(depart)

    def fastest_minutes(seg):
        prof = seg.speed_profile
        if horizon >= 1440.0:
            speeds = [kmh for _, kmh in prof]
        else:
            speeds = [[kmh for start, kmh in prof if start <= first][-1]]
            speeds += [kmh for start, kmh in prof
                       if first < start <= first + horizon
                       or first < start + 1440.0 <= first + horizon]
        return seg.length / max(speeds) * 60.0

    return reference_lower_bounds(net, goal, fastest_minutes)


def rule_outcomes(monkeypatch):
    """[without, with] counts of horizons that hold a speed change, updated
    as the planner takes them (``routing._horizon``)."""
    counts = [0, 0]
    real = routing._horizon

    def counted(*args):
        rho, big, pace = real(*args)
        counts[(rho, big) != (1.0, 1.0)] += 1
        return rho, big, pace

    monkeypatch.setattr(routing, "_horizon", counted)
    return counts


def own_breakpoints_net(tmp_path, seed):
    """An 8x8 grid whose every segment has its own speed breakpoints, written
    out and loaded back: the next speed change after a departure is one
    segment's."""
    rng = np.random.default_rng(seed)
    data = network_to_dict(generate_network(SimConfig(seed=seed, grid_dims=(8, 8))))
    for seg in data["segments"]:
        starts = sorted({round(float(m), 3) for m in rng.uniform(1.0, 1439.0, 3)})
        seg["speed_profile"] = [{"start_min": m, "speed_kmh": float(rng.uniform(8.0, 80.0))}
                                for m in [0.0] + starts]
    path = tmp_path / "own_breakpoints.json"
    path.write_text(json.dumps(data))
    return load_network(path)


# The state search keeps every distinct arrival time per node, so a query
# that crosses a speed change on a 20x20 grid can take it a minute; the
# 20x20 case stops before the first such query of its seed (the 60th).
@pytest.mark.parametrize("seed, dims, departures, queries", [
    (3, (8, 8), "before_changes", 200),
    (4, (8, 8), "before_changes", 200),
    (7, (10, 10), "whole_day", 150),
    (11, (20, 20), "whole_day", 40),
    (5, None, "before_own_changes", 200),
], ids=["3", "4", "grid10_whole_day", "grid20_whole_day", "own_breakpoints"])
def test_matches_state_search_across_speed_changes(monkeypatch, tmp_path, seed, dims,
                                                   departures, queries):
    if dims is None:
        net = own_breakpoints_net(tmp_path, seed)
    else:
        net = generate_network(SimConfig(seed=seed, grid_dims=dims))
    outcomes = rule_outcomes(monkeypatch)
    seg_ids = sorted(net.segments)
    rng = np.random.default_rng(seed)
    for _ in range(queries):
        origin, dest = (seg_ids[int(i)] for i in rng.integers(len(seg_ids), size=2))
        if departures == "before_changes":
            change = (360.0, 1320.0, 1440.0)[int(rng.integers(3))]  # 06:00, 22:00, midnight
            depart = BASE_T + (change - float(rng.uniform(0.0, 40.0))) * 60.0
        elif departures == "before_own_changes":
            # within 20 minutes before one segment's own breakpoint
            prof = net.segment(seg_ids[int(rng.integers(len(seg_ids)))]).speed_profile
            change = prof[int(rng.integers(1, len(prof)))][0]
            depart = BASE_T + (change - float(rng.uniform(0.0, 20.0))) * 60.0
        else:
            depart = BASE_T + float(rng.uniform(0.0, 1440.0)) * 60.0
        weights = WEIGHT_CHOICES[int(rng.integers(len(WEIGHT_CHOICES)))]
        plan = route_plan(net, origin, dest, depart, weights)
        h_min = None
        if departures != "before_changes" and weights.w2 > 0.0:
            cost = (weights.w1 * path_distance(net, plan.path)
                    + weights.w2 * path_est_time(net, plan.path, depart))
            h_min = window_minutes(net, net.segment(dest).from_node, depart,
                                   cost / weights.w2 * (1.0 + 1e-9))
        assert (plan.path, plan.distance, plan.est_time) == state_search_plan(
            net, origin, dest, depart, weights, h_min), (origin, dest, depart, weights)
    without, with_change = outcomes
    assert without > 0 and with_change > 0


@pytest.mark.parametrize("change, speeds, weights, kept, beaten", [
    (360.0, (60.0, 2.0), RoutingWeights(0.5, 0.5), "fast", "slow"),
    (607.3, (60.0, 2.0), RoutingWeights(0.5, 0.5), "fast", "slow"),
    (360.0, (2.0, 600.0), RoutingWeights(0.2, 1.0), "slow", "fast"),
    (607.3, (2.0, 600.0), RoutingWeights(0.2, 1.0), "slow", "fast"),
], ids=["06:00", "own_10:07", "rise_06:00", "rise_own_10:07"])
def test_one_label_rule_declines_where_it_would_change_the_answer(monkeypatch, tmp_path,
                                                                  change, speeds, weights,
                                                                  kept, beaten):
    # From o, "fast" reaches v with more km and sooner, "slow" with fewer km
    # and later; under ``weights`` the ``beaten`` one costs less there.  The
    # last road's speed changes at ``change``, after "fast" has left v.
    # Where it falls to 2 km/h, "fast" crosses before it and "slow" crawls
    # after it; where it rises to 600 km/h, "slow" catches up and wins on km.
    data = network_to_dict(RoadNetwork(
        [Node(n, 0.0, 0.01 * i) for i, n in enumerate(("s", "o", "v", "g", "x"))],
        [Segment("in", "s", "o", 0.1, flat(60.0)),
         Segment("fast", "o", "v", 4.0, flat(240.0)),
         Segment("slow", "o", "v", 1.0, flat(20.0)),
         Segment("last", "v", "g", 2.0, ((0.0, speeds[0]), (change, speeds[1]))),
         Segment("out", "g", "x", 1.0, flat(60.0))],
    ))
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    net = load_network(path)
    outcomes = rule_outcomes(monkeypatch)
    depart = BASE_T + (change - 5.0) * 60.0
    plan = route_plan(net, "in", "out", depart, weights)
    assert outcomes == [0, 1]
    assert plan.path == ("in", kept, "last")
    assert (plan.path, plan.distance, plan.est_time) == state_search_plan(
        net, "in", "out", depart, weights)

    def cost(path):
        return (weights.w1 * path_distance(net, path)
                + weights.w2 * path_est_time(net, path, depart))

    # comparing labels by cost alone (rho = R = 1) would keep ``beaten`` at v
    # and miss the answer; the slope R = 30 or rho = 1 / 300 keeps ``kept``
    assert cost(("in", beaten)) < cost(("in", kept))
    assert cost(("in", beaten, "last")) > cost(plan.path)


def test_km_walk_ends_on_a_zero_length_cycle(monkeypatch):
    # the network of test_distance_only_plan_leaves_a_zero_length_cycle, with
    # the default weights, so the horizon walks the km table there
    net = zero_length_cycle_net()
    outcomes = rule_outcomes(monkeypatch)
    plan = route_plan(net, "o", "d", BASE_T)
    assert sum(outcomes) == 1
    assert (plan.path, plan.distance, plan.est_time) == state_search_plan(
        net, "o", "d", BASE_T, RoutingWeights())


def test_km_walk_backs_up_where_a_zero_length_cycle_leaves_no_tight_exit(monkeypatch,
                                                                           tmp_path):
    # b is 1e-18 km from a and 1 km from g through a, so a>b and b>a are
    # tight; from b the walk finds only a, already entered, and b>x is not
    # tight.  It must back up to a and take a>g.
    data = network_to_dict(RoadNetwork(
        [Node(n, 0.0, 0.01 * i) for i, n in enumerate("sabxg")],
        [Segment(sid, frm, to, km, flat(40.0)) for sid, frm, to, km in (
            ("o", "s", "a", 1.0), ("a>b", "a", "b", 1e-18), ("b>a", "b", "a", 1e-18),
            ("a>g", "a", "g", 1.0), ("b>x", "b", "x", 5.0), ("x>g", "x", "g", 1.0),
            ("d", "g", "s", 1.0))],
    ))
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    net = load_network(path)
    outcomes = rule_outcomes(monkeypatch)
    plan = route_plan(net, "o", "d", BASE_T)
    assert outcomes == [1, 0]
    assert (plan.path, plan.distance, plan.est_time) == state_search_plan(
        net, "o", "d", BASE_T, RoutingWeights())
    plan = route_plan(net, "o", "d", BASE_T, RoutingWeights(1.0, 0.0))
    assert (plan.path, plan.distance, plan.est_time) == (("o", "a>g"), 2.0, 3.0)


def dropped_segments_net(net, seed, share):
    """``net`` without a random ``share`` of its segments."""
    rng = np.random.default_rng(seed)
    data = network_to_dict(net)
    data["segments"] = [s for s in data["segments"] if rng.uniform() >= share]
    return network_from_dict(data)


def test_distance_only_plans_equal_the_state_search_on_every_pair():
    grid = generate_network(SimConfig(seed=3, grid_dims=(6, 6)))
    nets = [grid, generate_network(SimConfig(seed=11, grid_dims=(5, 7))),
            dropped_segments_net(grid, 3, 0.3)]
    shortest, scaled = RoutingWeights(1.0, 0.0), RoutingWeights(0.3, 0.0)
    rng = np.random.default_rng(23)
    unreachable = 0
    for net in nets:
        for origin in net.segments:
            for dest in net.segments:
                depart = BASE_T + float(rng.uniform(0.0, 2880.0)) * 60.0
                h_km = routing._lower_bounds(net, net.segment(dest).from_node)
                want = state_search_plan(net, origin, dest, depart, shortest, h_min=h_km)
                if want is None:
                    unreachable += 1
                    for weights in (shortest, scaled):
                        with pytest.raises(NoRouteError):
                            route_plan(net, origin, dest, depart, weights)
                    continue
                plan = route_plan(net, origin, dest, depart, shortest)
                assert (plan.path, plan.distance, plan.est_time) == want, (origin, dest)
                # a distance-only plan does not depend on w1
                assert replace(route_plan(net, origin, dest, depart, scaled),
                               weights=shortest) == plan
    assert unreachable > 0


@pytest.mark.parametrize("dims", [(20, 20), (30, 30)])
def test_search_work_is_bounded(monkeypatch, dims):
    net = generate_network(SimConfig(seed=20240103, grid_dims=dims))
    bound = 8 * len(net.segments)
    pushes = 0

    def heappush(heap, item):
        nonlocal pushes
        pushes += 1
        if pushes > bound:
            raise AssertionError(f"more than {bound} heap pushes in one query")
        heapq.heappush(heap, item)

    monkeypatch.setattr(routing, "heapq",
                        types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
    seg_ids = sorted(net.segments)
    rng = np.random.default_rng(dims[0])
    for _ in range(40):
        origin, dest = (seg_ids[int(i)] for i in rng.integers(len(seg_ids), size=2))
        depart = BASE_T + float(rng.uniform(0.0, 1440.0)) * 60.0
        weights = WEIGHT_CHOICES[int(rng.integers(len(WEIGHT_CHOICES)))]
        pushes = 0
        plan = route_plan(net, origin, dest, depart, weights)
        assert len({net.segment(s).to_node for s in plan.path}) == len(plan.path)


def test_heuristic_tables_stay_under_the_cap(monkeypatch, small_grid):
    monkeypatch.setattr(routing, "_MAX_TABLES", 6)
    seg_ids = sorted(small_grid.segments)
    rng = np.random.default_rng(11)
    queries = [(seg_ids[int(a)], seg_ids[int(b)], BASE_T + float(m) * 60.0, w)
               for (a, b), m, w in zip(rng.integers(len(seg_ids), size=(40, 2)),
                                      rng.uniform(0.0, 1440.0, size=40),
                                      (WEIGHT_CHOICES * 10))]
    assert len({small_grid.segment(b).from_node for _, b, _, _ in queries}) > 6
    small_grid._derived.pop(routing._NetworkTables, None)
    cached, held = [], []
    for query in queries:
        cached.append(route_plan(small_grid, *query))
        held.append(len(routing._tables(small_grid)))
    assert max(held) == 6  # the cap was reached, and never passed
    for query, plan in zip(queries, cached):
        small_grid._derived.pop(routing._NetworkTables, None)
        assert route_plan(small_grid, *query) == plan


def reference_lower_bounds(net, goal, edge_cost):
    """The dict-based reverse Dijkstra over ``net.incoming`` that the compiled
    reverse graph replaced: the differential oracle for ``_lower_bounds``."""
    dist = {goal: 0.0}
    heap = [(0.0, goal)]
    while heap:
        d, node = routing.heapq.heappop(heap)
        if d > dist.get(node, float("inf")):
            continue
        for seg in net.incoming(node):
            nd = d + edge_cost(seg)
            if nd < dist.get(seg.from_node, float("inf")):
                dist[seg.from_node] = nd
                routing.heapq.heappush(heap, (nd, seg.from_node))
    return dist


def dead_end_net():
    """A dead-end node ``d``, a two-node component {x, y} that reaches
    nothing else, two parallel segments a -> b, and a tie: p and q are both
    1 from g in km and in minutes, so which one the build settles first
    decides how often r is pushed."""
    return RoadNetwork(
        [Node(n, 0.0, 0.001 * i) for i, n in enumerate("abcdxygpqr")],
        [
            Segment("ab", "a", "b", 1.0, flat(60.0)),
            Segment("ab2", "a", "b", 1.0, ((0.0, 30.0), (600.0, 90.0))),
            Segment("ba", "b", "a", 1.0, flat(40.0)),
            Segment("bc", "b", "c", 0.5, flat(60.0)),
            Segment("ca", "c", "a", 1.5, ((0.0, 20.0), (360.0, 50.0))),
            Segment("cd", "c", "d", 0.7, flat(60.0)),
            Segment("xy", "x", "y", 0.3, flat(60.0)),
            Segment("yx", "y", "x", 0.3, flat(60.0)),
            Segment("ya", "y", "a", 0.9, flat(60.0)),
            Segment("pg", "p", "g", 1.0, flat(60.0)),
            Segment("qg", "q", "g", 1.0, flat(60.0)),
            Segment("rp", "r", "p", 1.0, flat(60.0)),
            Segment("rq", "r", "q", 0.5, flat(60.0)),
            Segment("ga", "g", "a", 1.0, flat(60.0)),
        ],
    )


@pytest.mark.parametrize("net, connected", [
    (generate_network(SimConfig(seed=8, grid_dims=(8, 8))), True),
    (generate_network(SimConfig(seed=20, grid_dims=(20, 20))), True),
    (dead_end_net(), False),
], ids=["grid8", "grid20", "dead_end"])
def test_lower_bounds_equal_the_dict_build(monkeypatch, net, connected):
    counts = [0, 0]  # heap pushes, pops

    def heappush(heap, item):
        counts[0] += 1
        heapq.heappush(heap, item)

    def heappop(heap):
        counts[1] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(routing, "heapq",
                        types.SimpleNamespace(heappush=heappush, heappop=heappop))
    unreachable = 0
    for goal in sorted(net.nodes):
        counts[:] = [0, 0]
        want = reference_lower_bounds(net, goal, segment_km)
        want_work, counts[:] = list(counts), [0, 0]
        got = routing._lower_bounds(net, goal)
        assert got.keys() == want.keys(), goal
        assert all(got[node] == want[node] for node in want), goal
        assert counts == want_work, goal
        unreachable += len(net.nodes) - len(want)
    assert (unreachable == 0) == connected


def test_distance_only_query_builds_no_minutes_table():
    # a query with w2 = 0 walks the km table, so it builds neither the
    # adjacency nor the speed-change tables that the label search reads
    net = generate_network(SimConfig(seed=7, grid_dims=(10, 10)))
    ids = sorted(net.segments)
    rng = np.random.default_rng(21)
    minutes = rng.uniform(0.0, 2880.0, size=300)
    for (a, b), m in zip(rng.integers(len(ids), size=(300, 2)), minutes):
        plan = route_plan(net, ids[a], ids[b], BASE_T + m * 60.0, RoutingWeights(1.0, 0.0))
        assert plan.est_time == path_est_time(net, plan.path, plan.planned_at)
    tables = routing._tables(net)
    assert len(tables) > 50
    assert set(tables) <= set(net.nodes)
    assert (tables.forward, tables.changes, tables.slopes, tables.pace) == (None, None, None, {})


def test_static_edge_costs_are_computed_once_per_segment(monkeypatch):
    # every km table of a network is built over one reverse graph, which
    # reads each node's incoming segments once
    net = generate_network(SimConfig(seed=8, grid_dims=(8, 8)))
    want = {goal: reference_lower_bounds(net, goal, segment_km) for goal in net.nodes}
    calls = 0
    real = net.incoming

    def incoming(nid):
        nonlocal calls
        calls += 1
        return real(nid)

    monkeypatch.setattr(net, "incoming", incoming)
    for goal in net.nodes:
        assert routing._lower_bounds(net, goal) == want[goal]
    assert calls == len(net.nodes)


def test_non_contiguous_path_rejected(two_route_net):
    with pytest.raises(InputError):
        path_distance(two_route_net, ("in", "long2"))
    with pytest.raises(InputError):
        path_est_time(two_route_net, ("in", "long2"), BASE_T)


def test_unreachable_destination():
    net = RoadNetwork(
        [Node("a", 0.0, 0.0), Node("b", 0.0, 0.01), Node("c", 0.0, 0.02), Node("d", 0.0, 0.03)],
        [
            Segment("s1", "a", "b", 1.0, flat(50.0)),
            Segment("s2", "c", "d", 1.0, flat(50.0)),
        ],
    )
    with pytest.raises(NoRouteError):
        route_plan(net, "s1", "s2", BASE_T)


def test_unknown_segments_rejected(small_grid):
    with pytest.raises(InputError):
        route_plan(small_grid, "nope", "nope2", BASE_T)


def test_bad_weights_rejected():
    with pytest.raises(InputError):
        RoutingWeights(0.0, 0.0)
    with pytest.raises(InputError):
        RoutingWeights(-1.0, 2.0)


def test_long_ids_are_cut_in_the_no_route_and_unknown_node_messages():
    long = "s" * 5000
    cut = "'" + "s" * 79 + "..."
    net = RoadNetwork(
        [Node("a", 0.0, 0.0), Node("b", 0.0, 0.01), Node("c", 0.0, 0.02), Node("d", 0.0, 0.03)],
        [Segment(long + "1", "a", "b", 1.0, flat(50.0)),
         Segment(long + "2", "c", "d", 1.0, flat(50.0))])
    for weights in (RoutingWeights(1.0, 0.0), RoutingWeights()):
        with pytest.raises(NoRouteError) as err:
            route_plan(net, long + "1", long + "2", BASE_T, weights)
        assert str(err.value) == f"no route from segment {cut} to segment {cut}"
    with pytest.raises(InputError) as err:
        routing._lower_bounds(net, long)
    assert str(err.value) == f"unknown node id {cut}"
    with pytest.raises(NoRouteError) as err:  # short ids are written in full
        route_plan(RoadNetwork(net.nodes.values(), [Segment("s1", "a", "b", 1.0, flat(50.0)),
                                                    Segment("s2", "c", "d", 1.0, flat(50.0))]),
                   "s1", "s2", BASE_T)
    assert str(err.value) == "no route from segment 's1' to segment 's2'"


# ---------------------------------------------------------------------------
# path walks read the traversal rows


def walk_times(net, path, depart):
    """Entry times along ``path``, one ``segment_travel_time`` per segment."""
    times = [depart]
    for sid in path:
        t = times[-1]
        times.append(t + 60.0 * segment_travel_time(net.segment(sid), minute_of_day(t)))
    return times


def random_profile_chain(rng, n_segments):
    """A one-way chain whose segments have random lengths and random speed
    profiles: up to six buckets at whole minutes, a few speeds, so that some
    bucket boundaries keep the speed and some traversals run past midnight."""
    segments = []
    for i in range(n_segments):
        starts = sorted({0.0, *map(float, rng.integers(1, 1440, size=rng.integers(0, 6)))})
        speeds = rng.choice([8.0, 20.0, 20.0, 35.0, 60.0], size=len(starts))
        length = float(rng.choice([rng.uniform(0.05, 1.0), rng.uniform(1.0, 40.0)]))
        segments.append(Segment(f"s{i}", f"v{i}", f"v{i + 1}", length,
                                tuple(zip(starts, map(float, speeds)))))
    nodes = [Node(f"v{i}", 0.0, 0.01 * i) for i in range(n_segments + 1)]
    return RoadNetwork(nodes, segments)


def test_entry_times_equal_the_segment_walk_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(32)
    fallbacks = 0
    real = routing.segment_travel_time

    def counted(seg, minute):
        nonlocal fallbacks
        fallbacks += 1
        return real(seg, minute)

    monkeypatch.setattr(routing, "segment_travel_time", counted)
    walked = 0
    for _ in range(60):
        net = random_profile_chain(rng, 6)
        path = sorted(net.segments, key=lambda sid: int(sid[1:]))
        # departures at every speed change and bucket start of the first
        # segment, just before and after midnight, and at random minutes
        departs = [BASE_T + 60.0 * start + day
                   for start, _ in net.segment(path[0]).speed_profile for day in (0.0, 86400.0)]
        departs += [BASE_T - 1e-6, BASE_T - 0.5, BASE_T + 86400.0 - 1e-3, BASE_T + 1e-6]
        departs += list(BASE_T + rng.uniform(0.0, 2 * 86400.0, size=10))
        for depart in departs:
            for k in range(len(path)):
                want = walk_times(net, path[k:], depart)
                got = routing.entry_times(net, path[k:], depart)
                assert [t.hex() for t in got] == [t.hex() for t in want]
                km, arrival = routing._km_and_arrival(net, path[k:], depart)
                assert (km, arrival.hex()) == (routing.path_km(net, path[k:]), want[-1].hex())
                walked += len(path) - k
    # entry_times and _km_and_arrival each made ``walked`` traversals; the
    # rows answer most, and only those that reach a speed change call the walk
    assert 0 < fallbacks < walked


def test_entry_times_rejects_an_unknown_segment_as_the_lookup_does(small_grid):
    with pytest.raises(InputError) as err:
        routing.entry_times(small_grid, ["nope"], BASE_T)
    assert str(err.value) == "unknown segment id 'nope'"
    first = sorted(small_grid.segments)[0]
    with pytest.raises(InputError) as err:
        routing.entry_times(small_grid, [first, "s" * 5000], BASE_T)
    assert str(err.value) == "unknown segment id '" + "s" * 79 + "..."
