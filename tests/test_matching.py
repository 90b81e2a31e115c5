import gc
import itertools
import math
import time
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from detourlab import matching, routing
from detourlab.errors import InputError, MatchError
from detourlab.matching import (
    TRANSITION_BETA_KM,
    MatchConfig,
    RouteDistanceCache,
    candidates_for,
    emission_logprob,
    match_trajectory,
    viterbi_decode,
)
from detourlab.network import (EARTH_RADIUS_KM, GpsPoint, Node, RoadNetwork, Segment,
                               haversine_km)
from detourlab.routing import route_km, route_plan
from detourlab.simulate import SimConfig, generate_network, generate_trips
from detourlab.trips import trajectory_distance_km

from conftest import KM_PER_DEG, flat

BASE_T = 1543622400.0


def candidate_route_km(a, b, routes) -> float | None:
    """Driving distance between the projections of two ``candidates_for`` entries.

    The segment-to-segment route covers ``a`` in full and stops on entering
    ``b``; the along-track corrections move both endpoints to the projected
    GPS positions.  Backward motion along a one-way segment has no forward
    driving distance, so negatives clamp to zero (and then pay the full
    great-circle gap in the transition score), which is what disambiguates a
    segment from its reverse twin.
    """
    (seg_a, _, along_a), (seg_b, _, along_b) = a, b
    if seg_a.id == seg_b.id:
        return max(0.0, along_b - along_a)
    base = routes.km(seg_a.id, seg_b.id)
    return None if base is None else max(0.0, base - along_a + along_b)


def transition_logprob(route_km: float | None, gc_km: float) -> float:
    if route_km is None:
        return -math.inf
    return -abs(route_km - gc_km) / TRANSITION_BETA_KM


def reference_viterbi(net, tr, cfg, asked=None):
    """The decode one transition at a time through the two helpers above,
    with every route distance read from ``routing.route_km`` unmemoized.

    Every finite predecessor is scored against every candidate; the segment
    pairs whose route distance it reads are appended to ``asked`` if given.
    """
    cands = []
    for i, p in enumerate(tr):
        found = candidates_for(net, p, cfg.candidate_radius)
        if not found:
            raise MatchError(f"GPS point {i} has no candidate segment within "
                             f"{cfg.candidate_radius} m", point_index=i)
        cands.append(found)

    def km(a, b):
        if asked is not None:
            asked.append((a, b))
        return route_km(net, a, b)

    routes = SimpleNamespace(km=km)
    score = [emission_logprob(distance_m) for _, distance_m, _ in cands[0]]
    back = []
    for k in range(1, len(tr)):
        gc = haversine_km(tr[k - 1], tr[k])
        new_score = []
        pointers = []
        for c in cands[k]:
            emis = emission_logprob(c[1])
            best = -math.inf
            best_j = -1
            for j, prev in enumerate(cands[k - 1]):
                if score[j] == -math.inf:
                    continue
                route = candidate_route_km(prev, c, routes)
                cand = score[j] + transition_logprob(route, gc)
                if cand > best:
                    best = cand
                    best_j = j
            new_score.append(best + emis if best > -math.inf else -math.inf)
            pointers.append(best_j)
        if all(s == -math.inf for s in new_score):
            raise MatchError(f"no feasible transition into GPS point {k}", point_index=k)
        score = new_score
        back.append(pointers)

    last = score.index(max(score))
    states = [last]
    for pointers in reversed(back):
        states.append(pointers[states[-1]])
    states.reverse()
    return [cands[k][j][0].id for k, j in enumerate(states)]


def enumeration_best(net, tr, cfg):
    """Argmax over every candidate sequence, scored with the same log-probs.

    Ties resolve by the reversed id tuple, which is the sequence-level rule
    the per-step lowest-id tie-break of the Viterbi backtrack realizes.
    """
    cands = [candidates_for(net, p, cfg.candidate_radius) for p in tr]
    routes = RouteDistanceCache(net)

    best_key = None
    best_seq = None
    for combo in itertools.product(*cands):
        score = emission_logprob(combo[0][1])
        feasible = True
        for k in range(1, len(tr)):
            a, b = combo[k - 1], combo[k]
            route = candidate_route_km(a, b, routes)
            lp = transition_logprob(route, haversine_km(tr[k - 1], tr[k]))
            if lp == -math.inf:
                feasible = False
                break
            score = score + lp
            score = score + emission_logprob(b[1])
        if not feasible:
            continue
        key = (-score, tuple(seg.id for seg, _, _ in reversed(combo)))
        if best_key is None or key < best_key:
            best_key = key
            best_seq = [seg.id for seg, _, _ in combo]
    return best_seq


def offset_point(lat, lng, north_m, east_m, t):
    dlat = north_m / (KM_PER_DEG * 1000.0)
    dlng = east_m / (KM_PER_DEG * 1000.0 * math.cos(math.radians(lat)))
    return GpsPoint(lat + dlat, lng + dlng, t)


@pytest.fixture(scope="module")
def t_junction():
    """Horizontal road through c with a southbound branch at c."""
    deg = 0.6 / KM_PER_DEG  # 600 m arms
    nodes = [
        Node("l", 0.0, -deg), Node("c", 0.0, 0.0), Node("r", 0.0, deg), Node("d", -deg, 0.0),
    ]
    segments = []
    for a, b in (("l", "c"), ("c", "r"), ("c", "d")):
        na = next(n for n in nodes if n.id == a)
        nb = next(n for n in nodes if n.id == b)
        length = haversine_km(na, nb)
        segments.append(Segment(f"{a}>{b}", a, b, length, flat(40.0)))
        segments.append(Segment(f"{b}>{a}", b, a, length, flat(40.0)))
    return RoadNetwork(nodes, segments)


def test_points_on_one_segment_collapse(t_junction):
    lng0 = -0.5 / KM_PER_DEG
    points = [
        offset_point(0.0, lng0 + i * 0.1 / KM_PER_DEG, 3.0, 0.0, BASE_T + 10.0 * i)
        for i in range(4)
    ]
    atr = match_trajectory(t_junction, points, trip_id="tx")
    assert [s.segment for s in atr.steps] == ["l>c"]
    assert atr.steps[0].t == BASE_T


def test_candidates_carry_their_projection(t_junction):
    # 12 m north of the horizontal road, 150 m east of l
    point = offset_point(0.0, -0.45 / KM_PER_DEG, 12.0, 0.0, BASE_T)
    got = {seg.id: (dist_m, along_km)
           for seg, dist_m, along_km in candidates_for(t_junction, point, 100.0)}
    assert sorted(got) == ["c>l", "l>c"]
    assert got["l>c"][0] == got["c>l"][0] == pytest.approx(12.0, rel=1e-6)
    assert got["l>c"][1] == pytest.approx(0.15, rel=1e-6)
    assert got["c>l"][1] == pytest.approx(0.45, rel=1e-6)


def test_two_point_fixture_equals_enumeration(t_junction):
    # two candidates per point: the forward and reverse direction of one road
    cfg = MatchConfig()
    points = [
        offset_point(0.0, -0.3 / KM_PER_DEG, 12.0, 0.0, BASE_T),
        offset_point(-0.3 / KM_PER_DEG, 0.0, 0.0, 15.0, BASE_T + 30.0),
    ]
    assert all(
        len(candidates_for(t_junction, p, cfg.candidate_radius)) == 2 for p in points
    )
    decoded = viterbi_decode(t_junction, points, cfg)
    assert decoded == enumeration_best(t_junction, points, cfg)


def test_perturbed_point_still_matches_connected_path(t_junction):
    cfg = MatchConfig()
    # second point sits 20 m east of the southbound branch
    points = [
        offset_point(0.0, -0.3 / KM_PER_DEG, 2.0, 0.0, BASE_T),
        offset_point(-0.3 / KM_PER_DEG, 0.0, 0.0, 20.0, BASE_T + 60.0),
    ]
    decoded = viterbi_decode(t_junction, points, cfg)
    assert decoded == enumeration_best(t_junction, points, cfg)
    assert decoded == ["l>c", "c>d"]


def random_walk_points(net, rng, n_points):
    """Noisy fixes along a random connected walk, one per segment interior."""
    seg_ids = sorted(net.segments)
    seg = net.segment(seg_ids[int(rng.integers(len(seg_ids)))])
    points = []
    t = BASE_T
    for _ in range(n_points):
        a = net.node(seg.from_node)
        b = net.node(seg.to_node)
        frac = float(rng.uniform(0.25, 0.75))
        points.append(
            offset_point(
                a.lat + frac * (b.lat - a.lat),
                a.lng + frac * (b.lng - a.lng),
                float(rng.normal(0, 15)),
                float(rng.normal(0, 15)),
                t,
            )
        )
        t += float(rng.uniform(5.0, 30.0))
        options = net.outgoing(seg.to_node)
        seg = options[int(rng.integers(len(options)))]
    return points


def test_viterbi_equals_enumeration_random_fixtures(small_grid):
    rng = np.random.default_rng(77)
    cfg = MatchConfig(candidate_radius=80.0)
    agreements = 0
    for _ in range(30):
        points = random_walk_points(small_grid, rng, int(rng.integers(2, 7)))
        counts = [len(candidates_for(small_grid, p, cfg.candidate_radius)) for p in points]
        if not all(1 <= c <= 4 for c in counts):
            continue
        expected = enumeration_best(small_grid, points, cfg)
        if expected is None:
            with pytest.raises(MatchError):
                viterbi_decode(small_grid, points, cfg)
            continue
        assert viterbi_decode(small_grid, points, cfg) == expected
        agreements += 1
    assert agreements >= 15


def test_noise_free_round_trip():
    cfg_sim = SimConfig(seed=21, grid_dims=(5, 5), n_trips=12,
                        gps_period_s=5.0, gps_noise_m=0.0,
                        behavior_mix={"normal": 0.6, "detour": 0.4})
    net = generate_network(cfg_sim)
    trips, _ = generate_trips(net, cfg_sim)
    cfg = MatchConfig()
    exact = 0
    for trip in trips:
        atr = match_trajectory(net, trip.raw_gps, cfg, trip_id=trip.trip_id)
        trajectory_distance_km(net, atr)  # raises unless the segments connect
        got = [s.segment for s in atr.steps]
        truth = [s.segment for s in trip.atr.steps]
        if got == truth:
            exact += 1
            continue
        # A destination entered by U-turn shares its geometry with the last
        # driven segment, so the arrival marker itself is unobservable from
        # positions; the driven part must still be recovered exactly.
        last = net.segment(truth[-1])
        before = net.segment(truth[-2])
        assert last.from_node == before.to_node and last.to_node == before.from_node
        assert got == truth[:-1]
    assert exact >= 6


def test_matched_output_always_connected(sim_dataset):
    net, _, _ = sim_dataset
    cfg_sim = SimConfig(seed=31, grid_dims=(6, 6), n_trips=8,
                        gps_period_s=8.0, gps_noise_m=15.0)
    net2 = generate_network(cfg_sim)
    trips, _ = generate_trips(net2, cfg_sim)
    for trip in trips:
        atr = match_trajectory(net2, trip.raw_gps, trip_id=trip.trip_id)
        trajectory_distance_km(net2, atr)  # raises on any gap


def test_unmatched_point_error(t_junction):
    near = offset_point(0.0, 0.0, 1.0, 1.0, BASE_T)
    far = offset_point(0.02, 0.02, 0.0, 0.0, BASE_T + 10)
    with pytest.raises(MatchError) as err:
        match_trajectory(t_junction, [near, far])
    assert err.value.point_index == 1


def test_unconnectable_jump_names_its_gps_point(dead_ends, monkeypatch):
    # a decode that jumps onto a road no route reaches fails at the GPS point
    # that jumped, counted over every point, repeated decodes included
    points = [offset_point(0.0, 0.0, 0.0, 0.0, BASE_T + 10.0 * i) for i in range(4)]
    monkeypatch.setattr(matching, "viterbi_decode",
                        lambda net, tr, cfg: ["l>c", "l>c", "l>c", "x>y"])
    with pytest.raises(MatchError, match="'l>c' -> 'x>y' cannot be connected") as err:
        match_trajectory(dead_ends, points)
    assert err.value.point_index == 3


def test_empty_network_finds_nothing():
    net = RoadNetwork([], [])
    p = offset_point(0.0, 0.0, 0.0, 0.0, BASE_T)
    q = offset_point(0.0, 0.0, 1.0, 0.0, BASE_T + 10)
    assert candidates_for(net, p, 100.0) == []
    with pytest.raises(MatchError) as err:
        match_trajectory(net, [p, q])
    assert err.value.point_index == 0


def test_too_few_points(t_junction):
    with pytest.raises(InputError):
        match_trajectory(t_junction, [offset_point(0.0, 0.0, 0.0, 0.0, BASE_T)])


def test_non_increasing_timestamps(t_junction):
    p = offset_point(0.0, 0.0, 1.0, 0.0, BASE_T)
    q = offset_point(0.0, 0.0, 2.0, 0.0, BASE_T)
    with pytest.raises(InputError):
        match_trajectory(t_junction, [p, q])


def test_bad_config_rejected():
    with pytest.raises(InputError):
        MatchConfig(candidate_radius=0.0)


@pytest.mark.parametrize("field", ["candidate_radius"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_config_rejected(field, bad):
    with pytest.raises(InputError):
        MatchConfig(**{field: bad})


@pytest.mark.parametrize("field", ["lat", "lng", "t"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_gps_point_rejected(t_junction, field, bad):
    # the bad value sits on the second point, after a valid first one
    points = [offset_point(0.0, -0.3 / KM_PER_DEG, 2.0, 0.0, BASE_T),
              offset_point(0.0, -0.2 / KM_PER_DEG, 2.0, 0.0, BASE_T + 10.0)]
    points[1] = GpsPoint(**{**vars(points[1]), field: bad})
    with pytest.raises(InputError, match="point 1"):
        viterbi_decode(t_junction, points)


# ---------------------------------------------------------------------------
# the decode against the transition-at-a-time reference, and the km memo


def _decode_outcome(decode, net, points, cfg):
    try:
        return decode(net, points, cfg)
    except MatchError as exc:
        return ("MatchError", exc.point_index, str(exc))


def noisy_traces(seed, dims, noise_m, n_trips):
    cfg = SimConfig(seed=seed, grid_dims=dims, n_trips=n_trips, gps_period_s=10.0,
                    gps_noise_m=noise_m)
    net = generate_network(cfg)
    trips, _ = generate_trips(net, cfg)
    return net, [trip.raw_gps for trip in trips]


@pytest.mark.parametrize("seed,dims", [(7, (10, 10)), (20240103, (8, 8))])
@pytest.mark.parametrize("noise_m", [10.0, 30.0])
def test_decode_equals_reference_on_noisy_traces(seed, dims, noise_m):
    cfg = MatchConfig()
    net, traces = noisy_traces(seed, dims, noise_m, 55)
    assert len(traces) >= 50  # at least 200 traces over the four cases
    for points in traces:
        assert _decode_outcome(viterbi_decode, net, points, cfg) == \
            _decode_outcome(reference_viterbi, net, points, cfg)


@pytest.fixture
def km_requests(monkeypatch):
    """The (from, to) segment pairs passed to ``RouteDistanceCache.km``, in call order."""
    asked = []
    real_km = RouteDistanceCache.km

    def recording_km(self, a, b):
        asked.append((a, b))
        return real_km(self, a, b)

    monkeypatch.setattr(RouteDistanceCache, "km", recording_km)
    return asked


def test_decode_asks_for_fewer_distances_than_full_evaluation(km_requests):
    cfg = MatchConfig()
    net, traces = noisy_traces(7, (10, 10), 10.0, 20)
    asked = km_requests
    decoded_total = full_total = 0
    for points in traces:
        asked.clear()
        full = []
        decoded = viterbi_decode(net, points, cfg)
        assert decoded == reference_viterbi(net, points, cfg, asked=full)
        # the decoder reads a subset of the transitions full evaluation reads
        assert Counter(asked) <= Counter(full)
        decoded_total += len(asked)
        full_total += len(full)
        # windows short enough to enumerate every candidate sequence
        for start in range(0, len(points) - 4, 9):
            window = points[start:start + 5]
            assert viterbi_decode(net, window, cfg) == enumeration_best(net, window, cfg)
    assert decoded_total < full_total


def test_decode_breaks_exact_ties_toward_the_lower_index(monkeypatch, km_requests):
    # Three roads into v, then v -> x.  At the first point b has the best
    # score (0) though a (-0.5) comes first by index, and d (-2) is worst.
    # With a 1 km gap between the points, a -> c (1 km) costs nothing and
    # b -> c (2 km) costs 0.5: both totals are exactly -0.5.  The decoder
    # tries b first, then a, which ties and wins by its lower index; d's
    # score is below -0.5 already, so d -> c is never evaluated.
    nodes = [Node(n, 0.0, lng) for n, lng in
             (("u", -0.01), ("w", -0.02), ("z", -0.03), ("v", 0.0), ("x", 0.01))]
    segments = [Segment(sid, a, b, km, flat(40.0))
                for sid, a, b, km in (("a", "u", "v", 1.0), ("b", "w", "v", 2.0),
                                      ("c", "v", "x", 1.0), ("d", "z", "v", 1.0))]
    net = RoadNetwork(nodes, segments)
    seg = net.segment
    points = [GpsPoint(0.0, 0.0, BASE_T), GpsPoint(0.0, 0.0, BASE_T + 60.0)]
    found = {BASE_T: [(seg("a"), 25.0, 0.0), (seg("b"), 0.0, 0.0), (seg("d"), 50.0, 0.0)],
             BASE_T + 60.0: [(seg("c"), 0.0, 0.0)]}
    assert [emission_logprob(d) for _, d, _ in found[BASE_T]] == [-0.5, 0.0, -2.0]
    monkeypatch.setattr(matching, "candidates_for", lambda net, point, radius: found[point.t])
    monkeypatch.setattr(matching, "haversine_km", lambda p, q: 1.0)
    assert viterbi_decode(net, points, MatchConfig()) == ["a", "c"]
    assert km_requests == [("b", "c"), ("a", "c")]
    assert [route_km(net, a, "c") for a in ("a", "b", "d")] == [1.0, 2.0, 1.0]


@pytest.fixture(scope="module")
def dead_ends():
    """One-way road l -> c -> r, with c -> l2 a dead end drawn over l -> c,
    r2 -> c, which nothing enters, drawn over c -> r, and x -> y, a road of
    its own 2 km to the north."""
    deg = 0.6 / KM_PER_DEG
    north = 2.0 / KM_PER_DEG
    nodes = [Node("l", 0.0, -deg), Node("c", 0.0, 0.0), Node("r", 0.0, deg),
             Node("l2", 0.0, -deg), Node("r2", 0.0, deg),
             Node("x", north, -deg / 2), Node("y", north, deg / 2)]
    segments = [Segment(sid, a, b, 0.6, flat(40.0))
                for sid, a, b in (("l>c", "l", "c"), ("c>r", "c", "r"),
                                  ("c>l2", "c", "l2"), ("r2>c", "r2", "c"),
                                  ("x>y", "x", "y"))]
    return RoadNetwork(nodes, segments)


def test_decode_skips_transitions_with_no_route(dead_ends, km_requests):
    cfg = MatchConfig()
    asked = km_requests
    points = [offset_point(0.0, -0.3 / KM_PER_DEG, 5.0, 0.0, BASE_T),
              offset_point(0.0, 0.2 / KM_PER_DEG, 5.0, 0.0, BASE_T + 20.0),
              offset_point(0.0, 0.4 / KM_PER_DEG, 5.0, 0.0, BASE_T + 40.0)]
    assert [[c[0].id for c in candidates_for(dead_ends, p, cfg.candidate_radius)]
            for p in points] == [["c>l2", "l>c"], ["c>r", "r2>c"], ["c>r", "r2>c"]]
    # the dead end reaches nothing, and nothing reaches r2 -> c, so r2 -> c
    # scores -inf at the second point and is no predecessor of the third
    for a, b in (("c>l2", "c>r"), ("c>l2", "r2>c"), ("l>c", "r2>c"), ("c>r", "r2>c")):
        assert route_km(dead_ends, a, b) is None
    decoded = viterbi_decode(dead_ends, points, cfg)
    assert decoded == ["l>c", "c>r", "c>r"]
    # a distance is asked for where the segments differ, the predecessor's
    # score is finite and not below the best total found so far for the
    # candidate; predecessors go best score first, ties (the twin roads at
    # the first point) in index order
    assert asked == [("c>l2", "c>r"), ("l>c", "c>r"), ("c>l2", "r2>c"), ("l>c", "r2>c"),
                     ("c>r", "r2>c")]
    assert decoded == reference_viterbi(dead_ends, points, cfg)
    assert decoded == enumeration_best(dead_ends, points, cfg)

    # from the road onto x -> y every transition has no route
    points[1] = offset_point(2.0 / KM_PER_DEG, 0.0, 5.0, 0.0, BASE_T + 20.0)
    assert enumeration_best(dead_ends, points, cfg) is None
    for decode in (viterbi_decode, reference_viterbi):
        with pytest.raises(MatchError, match="no feasible transition") as err:
            decode(dead_ends, points, cfg)
        assert err.value.point_index == 1


def test_decode_clamps_backward_motion_along_one_segment(t_junction):
    # fixes moving west along the l - c road: on l>c each step goes backward
    # along the segment, which clamps to no distance and pays the gap
    cfg = MatchConfig()
    points = [offset_point(0.0, (-0.6 + east) / KM_PER_DEG, 3.0, 0.0, BASE_T + 15.0 * i)
              for i, east in enumerate((0.4, 0.3, 0.2))]
    cands = [{c[0].id: c for c in candidates_for(t_junction, p, cfg.candidate_radius)}
             for p in points]
    assert all(sorted(c) == ["c>l", "l>c"] for c in cands)
    assert cands[1]["l>c"][2] - cands[0]["l>c"][2] < 0.0
    decoded = viterbi_decode(t_junction, points, cfg)
    assert decoded == ["c>l", "c>l", "c>l"]
    assert decoded == reference_viterbi(t_junction, points, cfg)
    assert decoded == enumeration_best(t_junction, points, cfg)


def test_memo_equals_route_km_for_every_pair(index_grid, dead_ends):
    for net in (index_grid, dead_ends):
        routes = RouteDistanceCache(net)
        unreachable = 0
        for a in net.segments:
            for b in net.segments:
                want = route_km(net, a, b)
                assert routes.km(a, b) == want, (a, b)
                assert routes.cache[a, b] == want
                unreachable += want is None
        assert (unreachable > 0) == (net is dead_ends)


def test_decode_fetches_one_km_table_per_destination(monkeypatch, km_requests):
    net, traces = noisy_traces(7, (10, 10), 10.0, 5)
    fetched = []
    real_km_table = matching.km_table

    def counting_km_table(net, dest):
        fetched.append(dest)
        return real_km_table(net, dest)

    monkeypatch.setattr(matching, "km_table", counting_km_table)
    for points in traces:
        fetched.clear()
        km_requests.clear()
        viterbi_decode(net, points, MatchConfig())
        pairs = set(km_requests)
        assert len(fetched) == len(set(fetched)) == len({b for _, b in pairs})
        assert len(fetched) < len(pairs)


# ---------------------------------------------------------------------------
# the grid index behind candidates_for against a scan over every segment


def project(point, a, b):
    """(distance_m, along_fraction) of ``point`` against the straight segment
    from node ``a`` to node ``b``: the projection ``candidates_for`` makes,
    written out again here in the same float operations."""
    kx = EARTH_RADIUS_KM * 1000.0 * math.cos(math.radians(point.lat)) * math.pi / 180.0
    ky = EARTH_RADIUS_KM * 1000.0 * math.pi / 180.0
    ax = (a.lng - point.lng) * kx
    ay = (a.lat - point.lat) * ky
    bx = (b.lng - point.lng) * kx
    by = (b.lat - point.lat) * ky
    dx, dy = bx - ax, by - ay
    norm2 = dx * dx + dy * dy
    if norm2 == 0.0:
        return math.hypot(ax, ay), 0.0
    u = max(0.0, min(1.0, -(ax * dx + ay * dy) / norm2))
    return math.hypot(ax + u * dx, ay + u * dy), u


def linear_scan(net, point, radius_m):
    """Every segment within ``radius_m``, found by projecting onto all of them."""
    found = []
    for seg in net.segments.values():
        distance_m, u = project(point, net.node(seg.from_node), net.node(seg.to_node))
        if distance_m <= radius_m:
            found.append((seg, distance_m, u * seg.length))
    found.sort(key=lambda c: c[0].id)
    return found


def count_projections(monkeypatch):
    """A one-item list counting the projections ``candidates_for`` makes from
    now on: each one measures its distance with one ``math.hypot``, which
    the kernel looks up on ``matching.math``."""
    calls = [0]

    def hypot(*args):
        calls[0] += 1
        return math.hypot(*args)

    monkeypatch.setattr(matching, "math", SimpleNamespace(**{**vars(math), "hypot": hypot}))
    return calls


@pytest.fixture(scope="module")
def index_grid():
    return generate_network(SimConfig(seed=20240103, grid_dims=(8, 8)))


def _box(net):
    lats = [n.lat for n in net.nodes.values()]
    lngs = [n.lng for n in net.nodes.values()]
    return min(lats), max(lats), min(lngs), max(lngs)


def test_index_equals_linear_scan_on_random_points(index_grid):
    rng = np.random.default_rng(8)
    lat0, lat1, lng0, lng1 = _box(index_grid)
    pad = 0.01  # about 1 km beyond every side of the network's box
    for _ in range(400):
        point = GpsPoint(float(rng.uniform(lat0 - pad, lat1 + pad)),
                         float(rng.uniform(lng0 - pad, lng1 + pad)), BASE_T)
        # at 200 m the window is just over one cell wide in longitude
        for radius_m in (5.0, 25.0, 100.0, 200.0, 400.0, 2000.0):
            assert candidates_for(index_grid, point, radius_m) == \
                linear_scan(index_grid, point, radius_m)


def test_index_keeps_segments_exactly_at_the_radius(index_grid):
    # the radius equals a segment's computed distance, so that segment sits on
    # the `<=` boundary of the filter.  From a point due north, south, east or
    # west of a node, the closest point of a segment leaving the node the
    # other way is the node itself, which then lies on the window's edge.
    rng = np.random.default_rng(9)
    lat0, lat1, lng0, lng1 = _box(index_grid)
    segments = sorted(index_grid.segments.values(), key=lambda s: s.id)
    cases = []
    for node in index_grid.nodes.values():
        for north_m, east_m in ((30.0, 0.0), (-30.0, 0.0), (0.0, 30.0), (0.0, -30.0)):
            point = offset_point(node.lat, node.lng, north_m, east_m, BASE_T)
            cases.extend((point, seg) for seg in index_grid.outgoing(node.id))
    for _ in range(300):
        point = GpsPoint(float(rng.uniform(lat0, lat1)), float(rng.uniform(lng0, lng1)), BASE_T)
        cases.append((point, segments[int(rng.integers(len(segments)))]))
    for point, seg in cases:
        radius_m, _ = project(point, index_grid.node(seg.from_node),
                              index_grid.node(seg.to_node))
        got = candidates_for(index_grid, point, radius_m)
        assert got == linear_scan(index_grid, point, radius_m)
        assert seg in [c[0] for c in got]


def test_index_equals_linear_scan_on_cell_boundaries(index_grid):
    grid = matching._segment_grid(index_grid)
    lat0, lat1, lng0, lng1 = _box(index_grid)
    n_lat = int((lat1 - lat0) / grid.cell) + 1
    n_lng = int((lng1 - lng0) / grid.cell) + 1
    corners = [GpsPoint(lat0 + i * grid.cell, lng0 + j * grid.cell, BASE_T)
               for i in range(0, n_lat + 1, 3) for j in range(0, n_lng + 1, 3)]
    nodes = [GpsPoint(n.lat, n.lng, BASE_T) for n in index_grid.nodes.values()]
    for point in corners + nodes:
        for radius_m in (0.0, 1e-6, 25.0, 100.0, grid.cell * KM_PER_DEG * 1000.0):
            assert candidates_for(index_grid, point, radius_m) == \
                linear_scan(index_grid, point, radius_m)


def two_clusters(gap_deg):
    """Two 3x3 two-way grids at 40° latitude, ``gap_deg`` of longitude apart."""
    nodes = [Node(f"{k}_{i}_{j}", 40.0 + 0.004 * i, k * gap_deg + 0.005 * j)
             for k in range(2) for i in range(3) for j in range(3)]
    by_id = {n.id: n for n in nodes}
    segments = []
    for k in range(2):
        for i in range(3):
            for j in range(3):
                for di, dj in ((0, 1), (1, 0)):
                    if i + di < 3 and j + dj < 3:
                        a, b = by_id[f"{k}_{i}_{j}"], by_id[f"{k}_{i + di}_{j + dj}"]
                        length = haversine_km(a, b)
                        segments.append(Segment(f"{a.id}>{b.id}", a.id, b.id, length, flat(40.0)))
                        segments.append(Segment(f"{b.id}>{a.id}", b.id, a.id, length, flat(40.0)))
    return RoadNetwork(nodes, segments)


def test_index_equals_linear_scan_on_coarse_cells():
    # 2.1° of longitude is more than _MAX_CELLS default cells, so the grid's
    # cells widen to 1/512 of the network's width
    net = two_clusters(2.1)
    grid = matching._segment_grid(net)
    assert grid.cell == pytest.approx(2.11 / matching._MAX_CELLS)
    assert grid.cell > matching._CELL_DEG
    rng = np.random.default_rng(12)
    pad = 0.01
    for k in range(2):
        for _ in range(300):
            point = GpsPoint(float(rng.uniform(40.0 - pad, 40.008 + pad)),
                             float(rng.uniform(k * 2.1 - pad, k * 2.1 + 0.01 + pad)), BASE_T)
            # a 250 m window is wider than a default cell but within a coarse one
            for radius_m in (5.0, 25.0, 100.0, 250.0, 400.0, 2000.0):
                assert candidates_for(net, point, radius_m) == linear_scan(net, point, radius_m)


def test_index_is_built_on_first_use_only():
    net = generate_network(SimConfig(seed=5, grid_dims=(3, 3)))
    assert matching._SegmentGrid not in net._derived
    point = next(iter(net.nodes.values()))
    candidates_for(net, point, 100.0)
    grid = net._derived[matching._SegmentGrid]
    candidates_for(net, point, 100.0)
    assert net._derived[matching._SegmentGrid] is grid


def test_network_tables_go_with_the_network():
    # the planner's tables and the candidate grid are held by the network
    # alone, so nothing keeps a network alive once its last user drops it
    net = generate_network(SimConfig(seed=5, grid_dims=(3, 3)))
    ids = sorted(net.segments)
    route_plan(net, ids[0], ids[-1], BASE_T)
    point = next(iter(net.nodes.values()))
    assert candidates_for(net, point, 100.0)
    assert set(net._derived) == {routing._NetworkTables, matching._SegmentGrid}
    gone = weakref.ref(net)
    del net
    gc.collect()
    assert gone() is None


def test_index_projects_a_few_segments_per_point(index_grid, monkeypatch):
    rng = np.random.default_rng(10)
    lat0, lat1, lng0, lng1 = _box(index_grid)
    calls = count_projections(monkeypatch)
    n_points, found = 200, 0
    for _ in range(n_points):
        point = GpsPoint(float(rng.uniform(lat0, lat1)), float(rng.uniform(lng0, lng1)), BASE_T)
        found += len(candidates_for(index_grid, point, 100.0))
    assert found <= calls[0]  # each candidate was projected, so the count is real
    assert calls[0] / n_points < 0.1 * len(index_grid.segments)


def test_index_projects_only_segments_whose_box_meets_the_window(index_grid, monkeypatch):
    # the box test before each projection leaves few projections that find
    # nothing within the radius
    rng = np.random.default_rng(10)
    lat0, lat1, lng0, lng1 = _box(index_grid)
    calls = count_projections(monkeypatch)
    found = 0
    for _ in range(200):
        point = GpsPoint(float(rng.uniform(lat0, lat1)), float(rng.uniform(lng0, lng1)), BASE_T)
        found += len(candidates_for(index_grid, point, 100.0))
    assert found > 0
    assert found <= calls[0] <= 1.25 * found


def test_index_memory_does_not_grow_with_queries(index_grid):
    rng = np.random.default_rng(11)
    lat0, lat1, lng0, lng1 = _box(index_grid)
    pad = 0.01
    radii = (5.0, 25.0, 100.0, 400.0, 2000.0)
    grid = cells = None
    for k in range(1000):
        point = GpsPoint(float(rng.uniform(lat0 - pad, lat1 + pad)),
                         float(rng.uniform(lng0 - pad, lng1 + pad)), BASE_T)
        candidates_for(index_grid, point, radii[k % len(radii)])
        if grid is None:
            grid = index_grid._derived[matching._SegmentGrid]
            cells = dict(grid.cells)
    assert index_grid._derived[matching._SegmentGrid] is grid
    assert grid.cells == cells


def polar_ring(lat):
    """A one-way ring of short segments at ``lat``, about 55 m from a pole."""
    nodes = [Node(f"p{k}", lat, -165.0 + 30.0 * k) for k in range(12)]
    segments = []
    for k in range(12):
        a, b = nodes[k], nodes[(k + 1) % 12]
        segments.append(Segment(f"r{k:02d}", a.id, b.id, haversine_km(a, b), flat(20.0)))
    return RoadNetwork(nodes, segments)


@pytest.mark.parametrize("lat", [89.9999, -89.9999])
def test_index_near_the_poles_is_exact_and_bounded(index_grid, lat):
    # at this latitude a 100 m window spans hundreds of degrees of longitude,
    # so each lookup tests every segment's box, which stays small
    ring = polar_ring(math.copysign(89.9995, lat))
    found = 0
    start = time.perf_counter()
    for net in (ring, index_grid):
        for lng in (-179.0, -15.0, 0.0, 15.0, 179.0):
            point = GpsPoint(lat, lng, BASE_T)
            for radius_m in (5.0, 50.0, 100.0, 400.0):
                got = candidates_for(net, point, radius_m)
                assert got == linear_scan(net, point, radius_m)
                found += len(got)
    assert time.perf_counter() - start < 5.0
    assert found > 0
