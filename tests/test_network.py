import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from detourlab.cli import main
from detourlab.errors import InputError
from detourlab.network import (
    GpsPoint,
    Node,
    RoadNetwork,
    Segment,
    check_gps,
    full_traversals,
    haversine_km,
    load_network,
    minute_of_day,
    network_from_dict,
    network_to_dict,
    save_network,
    segment_travel_time,
)
from detourlab.routing import entry_times
from detourlab.simulate import SimConfig, generate_network

from conftest import flat, line_network, time_cap


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
    # FIFO: 0.0005 km at 30 km/h until 12:00, then the other 1.9995 km at 60
    assert segment_travel_time(seg, 719.999) == pytest.approx(0.001 + 1.9995)
    assert segment_travel_time(seg, 720.0) == pytest.approx(2.0)
    # half the segment at 30 km/h before 12:00, the other half at 60 after
    assert segment_travel_time(seg, 718.0) == pytest.approx(2.0 + 1.0)
    # from 23:59 the profile wraps into the next day's 30 km/h bucket
    assert segment_travel_time(seg, 1439.0) == pytest.approx(1.0 + 1.0 / 30.0 * 60.0)


def test_travel_time_crosses_several_buckets():
    # 1 km at 6 km/h from 11:59: 0.1 km by 12:00, 0.5 km at 60 by 12:00:30,
    # and the last 0.4 km at 6 again
    seg = Segment("s", "a", "b", 1.0, ((0.0, 6.0), (720.0, 60.0), (720.5, 6.0)))
    assert segment_travel_time(seg, 719.0) == pytest.approx(1.0 + 0.5 + 4.0)


def test_boundary_without_speed_change_does_not_split():
    seg = Segment("s", "a", "b", 1.3, ((0.0, 47.0), (360.0, 47.0), (1320.0, 47.0)))
    for minute in (0.0, 359.99, 1319.5, 1439.9):
        assert segment_travel_time(seg, minute) == 1.3 / 47.0 * 60.0


def fast_minutes(seg, minute):
    """What ``full_traversals`` says a traversal entered at ``minute`` takes,
    or None where it defers to ``segment_travel_time``."""
    start, full, change = [row for row in full_traversals(seg) if row[0] <= minute][-1]
    return full if minute + full <= change else None


def entry_minutes_around(seg):
    """Entry minutes on, just before and just after each bucket start, each
    minute of real speed change, and each latest entry that still finishes a
    bucket at its own speed; plus the day's first and last minutes."""
    marks = {0.0, math.nextafter(1440.0, 0.0)}
    for start, full, change in full_traversals(seg):
        marks.add(start)
        if change != math.inf:
            marks.update((change % 1440.0, (change - full) % 1440.0))
    around = {m2 for m in marks for m2 in (math.nextafter(m, -1.0), m, math.nextafter(m, 2e3))}
    return sorted(m for m in around if 0.0 <= m < 1440.0)


@pytest.mark.parametrize("profile, length, want", [
    (flat(40.0), 2.0, ((0.0, 3.0, math.inf),)),
    (((0.0, 30.0), (360.0, 30.0), (720.0, 60.0)), 1.5,
     ((0.0, 3.0, 720.0), (360.0, 3.0, 720.0), (720.0, 1.5, 1440.0))),
    (((0.0, 50.0), (360.0, 20.0), (1320.0, 50.0)), 1.0,
     ((0.0, 1.2, 360.0), (360.0, 3.0, 1320.0), (1320.0, 1.2, 1800.0))),
], ids=["one_bucket", "equal_speed_neighbours", "wraps_at_midnight"])
def test_full_traversals_of_hand_built_profiles(profile, length, want):
    seg = Segment("s", "a", "b", length, profile)
    got = full_traversals(seg)
    assert [(start, change) for start, _, change in got] == [(s, c) for s, _, c in want]
    assert [full for _, full, _ in got] == [length / kmh * 60.0 for _, kmh in profile]
    assert [full for _, full, _ in got] == pytest.approx([full for _, full, _ in want])
    fast = 0
    for minute in entry_minutes_around(seg):
        got_minutes = fast_minutes(seg, minute)
        if got_minutes is not None:
            assert got_minutes == segment_travel_time(seg, minute), minute
            fast += 1
    assert fast > 0


def test_full_traversals_equal_the_formula_on_every_generated_segment():
    net = generate_network(SimConfig(seed=7, grid_dims=(10, 10)))
    fast = slow = 0
    for seg in net.segments.values():
        for minute in entry_minutes_around(seg):
            got = fast_minutes(seg, minute)
            if got is None:
                slow += 1
            else:
                assert got == segment_travel_time(seg, minute), (seg.id, minute)
                fast += 1
    assert fast > 0 and slow > 0


_SPEEDS = st.floats(1.0, 200.0)


@st.composite
def _profiles(draw):
    starts = draw(st.lists(st.floats(1.0, 1439.0), max_size=3, unique=True))
    return tuple((s, draw(_SPEEDS)) for s in [0.0] + sorted(starts))


@given(
    profile=_profiles(),
    length=st.floats(0.01, 5.0),
    day=st.integers(0, 30000),
    data=st.data(),
)
def test_arrival_never_decreases_with_entry_time(profile, length, day, data):
    # FIFO in floating point: entering later, even one unit in the last
    # place later, never means arriving earlier
    net = RoadNetwork(_nodes_ab(), [Segment("s", "a", "b", length, profile)])
    minute = data.draw(st.sampled_from([s for s, _ in profile] + [1439.9])
                       | st.floats(0.0, 1439.999), label="entry minute")
    t = 1543622400.0 + day * 86400.0 + minute * 60.0
    arrivals = []
    for _ in range(data.draw(st.integers(2, 50), label="entries")):
        arrivals.append(entry_times(net, ("s",), t)[-1])
        if data.draw(st.booleans(), label="far step"):
            t += data.draw(st.floats(1e-6, 120.0), label="seconds later")
        else:
            t = math.nextafter(t, math.inf)
    assert arrivals == sorted(arrivals)


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


@pytest.mark.parametrize("lookup", ["segment", "node", "outgoing", "incoming"])
def test_unknown_id_messages_cut_a_long_id(small_grid, lookup):
    kind = "segment" if lookup == "segment" else "node"
    with pytest.raises(InputError) as err:
        getattr(small_grid, lookup)("s" * 5000)
    assert str(err.value) == f"unknown {kind} id '" + "s" * 79 + "..."
    with pytest.raises(InputError) as err:
        getattr(small_grid, lookup)("nowhere")
    assert str(err.value) == f"unknown {kind} id 'nowhere'"


def test_save_load_idempotent(tmp_path, small_grid):
    p1 = tmp_path / "net1.json"
    p2 = tmp_path / "net2.json"
    save_network(small_grid, p1)
    reloaded = load_network(p1)
    save_network(reloaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert set(reloaded.segments) == set(small_grid.segments)


def _hand_built_networks():
    odd = [Node("北京", 39.9, 116.4), Node("café", 1, 2), Node('q"\\\t\u2028', -0.0, 0.5),
           Node("alone", 0.0, 0.0)]
    segments = [
        Segment("北京>café", "北京", "café", 0.5, flat(40.0)),
        Segment("café>北京", "café", "北京", 2, ((0, 30), (360, 45.5))),
        Segment('café>q"', "café", 'q"\\\t\u2028', 1e-18, flat(1e20)),
    ]
    return {"hand_built": RoadNetwork(odd, segments),
            "no_segments": RoadNetwork(odd, []),
            "empty": RoadNetwork([], [])}


@pytest.mark.parametrize("name,dims,seeds", [
    ("grid3x4", (3, 4), (0, 1, 2, 7)), ("grid10x10", (10, 10), (0, 7, 11)),
    ("grid20x20", (20, 20), (3, 20240103)),
    ("hand_built", None, ()), ("no_segments", None, ()), ("empty", None, ()),
])
def test_saved_network_is_the_indented_sorted_json_form(tmp_path, name, dims, seeds):
    """``save_network`` writes its own formatter's text; it must be exactly
    what ``json.dumps`` writes with these settings."""
    if dims is None:
        nets = [_hand_built_networks()[name]]
    else:
        nets = [generate_network(SimConfig(seed=seed, grid_dims=dims)) for seed in seeds]
    for net in nets:
        path = tmp_path / "net.json"
        save_network(net, path)
        want = json.dumps(network_to_dict(net), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode("utf-8")


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


def test_identical_network_bytes_load_as_one_network(tmp_path, small_grid):
    # two paths, one set of bytes: the second load is the first load's network
    save_network(small_grid, tmp_path / "a.json")
    save_network(small_grid, tmp_path / "b.json")
    net = load_network(tmp_path / "a.json")
    assert load_network(tmp_path / "b.json") is net
    assert load_network(tmp_path / "a.json") is net


def test_a_rewritten_network_file_is_parsed_again(tmp_path):
    path = tmp_path / "net.json"
    save_network(line_network([1.0, 2.0]), path)
    first = load_network(path)
    save_network(line_network([1.0, 2.0, 3.0]), path)
    second = load_network(path)
    assert second is not first
    assert sorted(second.segments) == ["e0", "e1", "e2"]


def test_a_bad_network_file_fails_the_same_way_on_every_load(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [{"id": "a"}], "segments": []}')
    messages = []
    for _ in range(3):
        with pytest.raises(InputError) as err:
            load_network(bad)
        messages.append(str(err.value))
    assert messages == [f"bad network file {bad}: missing key 'lat'"] * 3
    save_network(line_network([1.0]), bad)  # a failed parse leaves nothing behind
    assert sorted(load_network(bad).segments) == ["e0"]


def test_four_other_files_evict_the_least_recently_used_parse(tmp_path):
    paths = []
    for k in range(5):
        paths.append(tmp_path / f"net{k}.json")
        save_network(line_network([1.0] * (k + 1)), paths[-1])
    first = load_network(paths[0])
    for path in paths[1:4]:
        load_network(path)
    assert load_network(paths[0]) is first  # four parses fit; this use makes it the newest
    load_network(paths[4])  # evicts the least recently used, paths[1]'s
    assert load_network(paths[0]) is first
    for path in paths[1:5]:  # four other files since the first one's last use
        load_network(path)
    assert load_network(paths[0]) is not first


@pytest.mark.parametrize("where,bad", [
    (("segments", 0, "length_km"), True), (("segments", 0, "speed_profile", 0, "speed_kmh"), "60"),
    (("nodes", 0, "lat"), "39.9"),
], ids=["length_true", "speed_string", "lat_string"])
def test_load_rejects_strings_and_booleans_as_numbers(small_grid, where, bad):
    data = network_to_dict(small_grid)
    *parents, key = where
    record = data
    for k in parents:
        record = record[k]
    record[key] = bad
    with pytest.raises(InputError):
        network_from_dict(data)


@pytest.mark.parametrize("where, bad", [
    (("nodes",), {}), (("segments",), {}), (("segments",), ""),
    (("segments", 0, "speed_profile"), {}),
], ids=["nodes_object", "segments_object", "segments_string", "speed_profile_object"])
def test_load_rejects_strings_and_objects_where_an_array_belongs(small_grid, where, bad):
    # iterated as they are, {"nodes": {}, "segments": {}} would load as an empty network
    data = network_to_dict(small_grid)
    *parents, key = where
    record = data
    for k in parents:
        record = record[k]
    record[key] = bad
    with pytest.raises(InputError, match=f"^{key} must be an array, got "):
        network_from_dict(data)


@pytest.mark.parametrize("profile, reason", [
    ([], "empty speed profile"),
    ([[0.0, 30.0], [1440.0, 20.0]], "bucket start 1440.0 outside [0, 1440)"),
    ([[0.0, 30.0], [-60.0, 20.0]], "bucket start -60.0 outside [0, 1440)"),
], ids=["empty", "start_at_1440", "negative_start"])
def test_network_file_with_a_bad_speed_profile_exits_3(small_grid, tmp_path, capsys,
                                                        profile, reason):
    data = network_to_dict(small_grid)
    seg = data["segments"][0]
    seg["speed_profile"] = [{"start_min": start, "speed_kmh": kmh} for start, kmh in profile]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    # gen-trips reads the file with load_network
    assert main(["gen-trips", "--network", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.strip().endswith(f"segment {seg['id']!r}: {reason}")


@pytest.mark.parametrize("length, profile, slowest", [
    (1e308, [[0.0, 30.0], [360.0, 20.0]], 20.0),
    (1.0, [[0.0, 1e-300], [360.0, 2e-300]], 1e-300),
], ids=["huge_length", "tiny_speeds"])
def test_a_segment_that_takes_over_a_week_to_traverse_exits_3(small_grid, tmp_path, capsys,
                                                              length, profile, slowest):
    # every speed change on such a segment is lost to rounding: a query
    # across one looped forever when the network loaded
    data = network_to_dict(small_grid)
    seg = data["segments"][0]
    seg["length_km"] = length
    seg["speed_profile"] = [{"start_min": start, "speed_kmh": kmh} for start, kmh in profile]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    reason = f"{length} km at {slowest} km/h takes more than 10080.0 minutes"  # a week
    with time_cap(10):
        with pytest.raises(InputError, match=f"segment {seg['id']!r}: {re.escape(reason)}"):
            load_network(path)
        assert main(["gen-trips", "--network", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.strip().endswith(f"segment {seg['id']!r}: {reason}")


def test_load_rejects_ids_that_are_not_strings(small_grid):
    # a node id and its segment endpoints all false would load as node 'False'
    data = network_to_dict(small_grid)
    node = data["nodes"][0]["id"]
    data["nodes"][0]["id"] = False
    for seg in data["segments"]:
        for end in ("from", "to"):
            if seg[end] == node:
                seg[end] = False
    with pytest.raises(InputError):
        network_from_dict(data)


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


_LONG = "s" * 5000
_CUT = "'" + "s" * 79 + "..."


@pytest.mark.parametrize("nodes, segments, want", [
    ([], [Segment(_LONG, "a", "b", 1.0, ())], f"segment {_CUT}: empty speed profile"),
    ([], [Segment(_LONG, "a", "b", 1.0, ((10.0, 50.0),))],
     f"segment {_CUT}: speed profile does not cover the day (first bucket starts at 10.0, not 0)"),
    ([], [Segment(_LONG, "a", "b", 1.0, ((0.0, 50.0), (1440.0, 40.0)))],
     f"segment {_CUT}: bucket start 1440.0 outside [0, 1440)"),
    ([], [Segment(_LONG, "a", "b", 1.0, ((0.0, 50.0), (0.0, 40.0)))],
     f"segment {_CUT}: speed buckets must be sorted and non-overlapping"),
    ([], [Segment(_LONG, "a", "b", 1.0, ((0.0, -5.0),))],
     f"segment {_CUT}: speed -5.0 is not a finite positive number"),
    ([], [Segment(_LONG, "a", "nowhere", 1.0, flat(50.0))],
     f"segment {_CUT} references an unknown node"),
    ([], [Segment(_LONG, "a", "b", -1.0, flat(50.0))],
     f"segment {_CUT} must have finite positive length"),
    ([], [Segment(_LONG, "a", "b", 1.0, flat(50.0))] * 2, f"duplicate segment id {_CUT}"),
    ([Node(_LONG, 0.0, 0.0)] * 2, [], f"duplicate node id {_CUT}"),
    ([Node(_LONG, 95.0, 0.0)], [], f"node {_CUT} has out-of-range coordinates (95.0, 0.0)"),
], ids=["empty_profile", "gap", "bucket_start", "unsorted", "speed", "unknown_node",
        "length", "duplicate_segment", "duplicate_node", "node_coordinates"])
def test_network_messages_cut_a_long_id(nodes, segments, want):
    with pytest.raises(InputError) as err:
        RoadNetwork(_nodes_ab() + nodes, segments)
    assert str(err.value) == want


@pytest.mark.parametrize("lat, lng", [(95.0, 0.5), (-90.5, 0.5), (0.5, 180.5), (0.5, -1e300)],
                         ids=["north", "south", "east", "far_west"])
def test_check_gps_rejects_out_of_range_coordinates(lat, lng):
    points = [GpsPoint(0.0, 0.0, 10.0), GpsPoint(lat, lng, 20.0)]
    with pytest.raises(InputError) as err:
        check_gps(points, "here")
    assert str(err.value).startswith(f"here: GPS point 1 ({lat}, {lng}, t=20.0) is out of range")
    check_gps([GpsPoint(90.0, -180.0, 10.0), GpsPoint(-90.0, 180.0, 20.0)], "here")
