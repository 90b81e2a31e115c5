import math

import pytest
from hypothesis import given, strategies as st

from detourlab.errors import InputError
from detourlab.network import (
    GpsPoint,
    Node,
    RoadNetwork,
    Segment,
    haversine_km,
    load_network,
    minute_of_day,
    save_network,
    segment_travel_time,
)
from detourlab.simulate import SimConfig, generate_network

from conftest import flat


def reference_haversine(lat1, lng1, lat2, lng2, radius=6371.0):
    # independent formulation: atan2 instead of asin
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lng2) - math.radians(lng1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return radius * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def test_haversine_identity():
    p = GpsPoint(39.9, 116.4, 0.0)
    assert haversine_km(p, p) == 0.0


def test_haversine_against_reference():
    p = GpsPoint(39.9000, 116.4000, 0.0)
    q = GpsPoint(39.9000, 116.4100, 0.0)
    expected = reference_haversine(39.9, 116.4, 39.9, 116.41)
    assert haversine_km(p, q) == pytest.approx(expected, abs=1e-6)


@given(
    st.floats(-90, 90), st.floats(-180, 180),
    st.floats(-90, 90), st.floats(-180, 180),
)
def test_haversine_symmetric_nonnegative(lat1, lng1, lat2, lng2):
    p = GpsPoint(lat1, lng1, 0.0)
    q = GpsPoint(lat2, lng2, 0.0)
    assert haversine_km(p, q) >= 0.0
    assert haversine_km(p, q) == haversine_km(q, p)


def test_travel_time_flat_profile():
    seg = Segment("s", "a", "b", 1.0, flat(60.0))
    for minute in (0.0, 100.0, 719.9, 1439.9):
        assert segment_travel_time(seg, minute) == 1.0


def test_travel_time_two_buckets():
    seg = Segment("s", "a", "b", 2.0, ((0.0, 30.0), (720.0, 60.0)))
    assert segment_travel_time(seg, 100.0) == pytest.approx(4.0)
    assert segment_travel_time(seg, 800.0) == pytest.approx(2.0)
    # piecewise-constant with the breakpoint exactly at the bucket boundary
    assert segment_travel_time(seg, 719.999) == pytest.approx(4.0)
    assert segment_travel_time(seg, 720.0) == pytest.approx(2.0)


def test_minute_of_day_wraps():
    assert minute_of_day(0.0) == 0.0
    assert minute_of_day(90 * 60.0) == 90.0
    assert minute_of_day(86400.0 + 60.0) == 1.0


def _nodes_ab():
    return [Node("a", 0.0, 0.0), Node("b", 0.0, 0.01)]


def test_profile_gap_rejected_at_load_time():
    seg = Segment("s", "a", "b", 1.0, ((10.0, 50.0),))
    with pytest.raises(InputError):
        RoadNetwork(_nodes_ab(), [seg])


def test_profile_unsorted_rejected():
    seg = Segment("s", "a", "b", 1.0, ((0.0, 50.0), (700.0, 40.0), (300.0, 30.0)))
    with pytest.raises(InputError):
        RoadNetwork(_nodes_ab(), [seg])


def test_nonpositive_speed_and_length_rejected():
    with pytest.raises(InputError):
        RoadNetwork(_nodes_ab(), [Segment("s", "a", "b", 1.0, ((0.0, 0.0),))])
    with pytest.raises(InputError):
        RoadNetwork(_nodes_ab(), [Segment("s", "a", "b", 0.0, flat(50.0))])


def test_non_finite_speed_and_length_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError):
            RoadNetwork(_nodes_ab(), [Segment("s", "a", "b", 1.0, ((0.0, bad),))])
        with pytest.raises(InputError):
            RoadNetwork(_nodes_ab(), [Segment("s", "a", "b", bad, flat(50.0))])


def test_dangling_endpoint_rejected():
    with pytest.raises(InputError):
        RoadNetwork(_nodes_ab(), [Segment("s", "a", "zzz", 1.0, flat(50.0))])


def test_duplicate_ids_rejected():
    with pytest.raises(InputError):
        RoadNetwork(_nodes_ab() + [Node("a", 1.0, 1.0)], [])
    segs = [Segment("s", "a", "b", 1.0, flat(50.0))] * 2
    with pytest.raises(InputError):
        RoadNetwork(_nodes_ab(), segs)


def test_bad_coordinates_rejected():
    with pytest.raises(InputError):
        RoadNetwork([Node("a", 91.0, 0.0)], [])


def test_save_load_idempotent(tmp_path, small_grid):
    p1 = tmp_path / "net1.json"
    p2 = tmp_path / "net2.json"
    save_network(small_grid, p1)
    reloaded = load_network(p1)
    save_network(reloaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert set(reloaded.segments) == set(small_grid.segments)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_network(tmp_path / "nope.json")


def test_load_malformed_network(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_network(bad)
    bad.write_text('{"nodes": [{"id": "a"}], "segments": []}')  # missing lat/lng
    with pytest.raises(InputError):
        load_network(bad)


def test_adjacency_matches_linear_scan():
    net = generate_network(SimConfig(seed=9, grid_dims=(7, 9)))
    assert len(net.segments) <= 1000
    for nid in net.nodes:
        scan = sorted(
            (s for s in net.segments.values() if s.from_node == nid), key=lambda s: s.id
        )
        assert list(net.outgoing(nid)) == scan


def test_unknown_lookups_raise(small_grid):
    with pytest.raises(InputError):
        small_grid.segment("missing")
    with pytest.raises(InputError):
        small_grid.node("missing")
    with pytest.raises(InputError):
        small_grid.outgoing("missing")
