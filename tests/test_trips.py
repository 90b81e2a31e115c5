import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from detourlab import trips as trips_module
from detourlab.classifier import LogitModel
from detourlab.errors import DataFormatError, InputError, read_number
from detourlab.network import GpsPoint, LatLng, Node, RoadNetwork, Segment
from detourlab.online import run_trip
from detourlab.routing import RoutePlanStep, RoutingWeights
from detourlab.simulate import SimConfig, generate_network, generate_trips
from detourlab.trips import (
    REJECT_DESTINATION,
    REJECT_MALFORMED,
    REJECT_SPEED,
    REJECT_TIME,
    AbstractTrajectory,
    FilterRules,
    TrajStep,
    destination_change_probability,
    filter_dataset,
    load_trips,
    save_trips,
    trajectory_distance_km,
    trajectory_minutes,
    trip_from_dict,
    trip_to_dict,
)

from conftest import KM_PER_DEG, flat, line_network, make_trip

T0 = 1543622400.0


def equator_point_at_km(km: float) -> LatLng:
    return LatLng(0.0, km / KM_PER_DEG)


def chain_trip(net, n_segments, duration_s, trip_id="t0", recorded=None, actual=None):
    """Trip across the first ``n_segments`` of a line network, arriving on the
    next segment; evenly spaced timestamps."""
    seg_times = [(f"e{i}", T0 + duration_s * i / n_segments) for i in range(n_segments)]
    seg_times.append((f"e{n_segments}", T0 + duration_s))
    dist = sum(net.segment(f"e{i}").length for i in range(n_segments))
    return make_trip(net, seg_times, [s for s, _ in seg_times[:-1]], dist,
                     duration_s / 60.0, trip_id=trip_id, recorded=recorded, actual=actual)


def test_trajectory_totals_cover_entry_to_entry():
    net = line_network([4.0, 6.0, 2.0])
    trip = chain_trip(net, 2, 600.0)
    assert trajectory_distance_km(net, trip.atr) == 10.0  # final entry not counted
    assert trajectory_minutes(trip.atr) == 10.0


@pytest.mark.parametrize("last, message", [
    ("e2", r"trajectory 't0': segments 'e0' -> 'e2' are not connected \(step 1\)"),
    ("nowhere", "unknown segment id 'nowhere'"),
], ids=["gap", "unknown_last_segment"])
def test_trajectory_distance_checks_every_step(last, message):
    net = line_network([4.0, 6.0, 2.0])
    atr = AbstractTrajectory("t0", (TrajStep("e0", T0), TrajStep(last, T0 + 60.0)))
    with pytest.raises(InputError, match=message):
        trajectory_distance_km(net, atr)


def test_epsilon_same_destination_is_one():
    net = line_network([4.0, 6.0, 2.0])
    trip = chain_trip(net, 2, 600.0)
    assert destination_change_probability(trip, trajectory_distance_km(net, trip.atr)) == 1.0


def test_epsilon_zero_when_gap_equals_distance():
    net = line_network([4.0, 6.0, 2.0])
    actual = equator_point_at_km(10.0)
    recorded = equator_point_at_km(20.0)  # 10 km straight-line gap = trip distance
    trip = chain_trip(net, 2, 600.0, recorded=recorded, actual=actual)
    km = trajectory_distance_km(net, trip.atr)
    assert destination_change_probability(trip, km) == pytest.approx(0.0, abs=1e-9)


def test_epsilon_hand_value():
    net = line_network([4.0, 6.0, 2.0])
    actual = equator_point_at_km(10.0)
    recorded = equator_point_at_km(10.05)  # 50 m gap on a 10 km trip
    trip = chain_trip(net, 2, 600.0, recorded=recorded, actual=actual)
    km = trajectory_distance_km(net, trip.atr)
    assert destination_change_probability(trip, km) == pytest.approx(0.995, abs=1e-9)


def test_epsilon_zero_length_trajectory_rejected():
    net = line_network([4.0, 6.0, 2.0])
    trip = make_trip(net, [("e0", T0)], ["e0"], 4.0, 4.0)
    with pytest.raises(InputError):
        destination_change_probability(trip, trajectory_distance_km(net, trip.atr))


@given(scale=st.floats(0.1, 40.0))
def test_epsilon_scale_consistency(scale):
    # scaling both the gap and the trip distance leaves epsilon unchanged
    base_net = line_network([4.0, 6.0, 2.0])
    scaled_net = line_network([4.0 * scale, 6.0 * scale, 2.0 * scale])
    gap = 2.0
    base = chain_trip(base_net, 2, 600.0, recorded=equator_point_at_km(10.0 + gap),
                      actual=equator_point_at_km(10.0))
    scaled = chain_trip(scaled_net, 2, 600.0,
                        recorded=equator_point_at_km((10.0 + gap) * scale),
                        actual=equator_point_at_km(10.0 * scale))
    base_km = trajectory_distance_km(base_net, base.atr)
    scaled_km = trajectory_distance_km(scaled_net, scaled.atr)
    assert destination_change_probability(base, base_km) == pytest.approx(
        destination_change_probability(scaled, scaled_km), abs=1e-7
    )


@pytest.fixture(scope="module")
def filter_fixture():
    """Six trips exercising each screening rule plus three clean ones."""
    net = line_network([1.0] * 12)
    too_short = chain_trip(net, 1, 50.0, trip_id="short")  # 50 s
    too_fast = chain_trip(net, 10, 10.0 / 130.0 * 3600.0, trip_id="fast")  # 130 km/h
    changed = chain_trip(net, 10, 900.0, trip_id="changed",
                         actual=equator_point_at_km(10.0),
                         recorded=equator_point_at_km(10.0 + 0.995 * 10.0))  # eps=0.005
    clean = [chain_trip(net, 10, 900.0, trip_id=f"ok{i}") for i in range(3)]
    return net, [too_short, too_fast, changed] + clean


def test_filter_reasons_and_partition(filter_fixture):
    net, trips = filter_fixture
    kept, rejected = filter_dataset(net, trips)
    assert [t.trip_id for t in kept] == ["ok0", "ok1", "ok2"]
    assert [(t.trip_id, reason) for t, reason in rejected] == [
        ("short", REJECT_TIME),
        ("fast", REJECT_SPEED),
        ("changed", REJECT_DESTINATION),
    ]


def test_filter_rule_order_is_fixed(filter_fixture):
    net, _ = filter_fixture
    # 50 s AND 130 km/h: the duration rule wins because it is checked first
    wild = chain_trip(net, 10, 50.0, trip_id="wild")
    _, rejected = filter_dataset(net, [wild])
    assert rejected[0][1] == REJECT_TIME


def test_filter_idempotent(filter_fixture):
    net, trips = filter_fixture
    kept, _ = filter_dataset(net, trips)
    kept2, rejected2 = filter_dataset(net, kept)
    assert kept2 == kept
    assert rejected2 == []


def test_filter_malformed_trip(filter_fixture):
    net, _ = filter_fixture
    one_step = make_trip(net, [("e0", T0)], ["e0"], 1.0, 1.0, trip_id="stub")
    _, rejected = filter_dataset(net, [one_step])
    assert rejected[0][1] == REJECT_MALFORMED


def test_filter_walks_each_trajectory_once(filter_fixture, monkeypatch):
    # the speed rule and the destination-change rule share one km sum
    net, trips = filter_fixture
    walked = []
    real_walk = trips_module.trajectory_distance_km

    def counting_walk(net, atr):
        walked.append(atr.trip_id)
        return real_walk(net, atr)

    monkeypatch.setattr(trips_module, "trajectory_distance_km", counting_walk)
    kept, _ = filter_dataset(net, trips)
    assert [t.trip_id for t in kept] == ["ok0", "ok1", "ok2"]  # past every rule
    assert walked == [t.trip_id for t in trips]


@pytest.mark.parametrize("part", ["atr", "plan"])
def test_filter_raises_on_an_unknown_segment(filter_fixture, part):
    net, _ = filter_fixture
    trip = chain_trip(net, 10, 900.0)
    if part == "atr":
        steps = trip.atr.steps[:-1] + (TrajStep("nowhere", trip.atr.steps[-1].t),)
        trip = dataclasses.replace(trip, atr=dataclasses.replace(trip.atr, steps=steps))
    else:
        trip = dataclasses.replace(
            trip, plan=dataclasses.replace(trip.plan, path=trip.plan.path + ("nowhere",)))
    with pytest.raises(InputError, match="unknown segment id 'nowhere'"):
        filter_dataset(net, [trip])


def test_filter_rules_validation():
    with pytest.raises(InputError):
        FilterRules(min_travel_time=0.0)
    with pytest.raises(InputError):
        FilterRules(epsilon_bar=0.0)
    with pytest.raises(InputError):
        FilterRules(epsilon_bar=1.5)


def test_trip_roundtrip_via_dict():
    net = line_network([1.0] * 3)
    trip = chain_trip(net, 2, 300.0)
    assert trip_from_dict(json.loads(json.dumps(trip_to_dict(trip)))) == trip


def test_save_load_simulated_trips(tmp_path):
    cfg = SimConfig(seed=13, grid_dims=(8, 8), n_trips=1000, gps_period_s=20.0)
    net = generate_network(cfg)
    sim_trips, _ = generate_trips(net, cfg)
    path = tmp_path / "trips.jsonl"
    save_trips(sim_trips, path)
    loaded = load_trips(path)
    assert len(loaded) == len(sim_trips)
    for got, want in zip(loaded, sim_trips):
        assert trip_to_dict(got) == trip_to_dict(want)


def test_plan_weights_roundtrip(sim_dataset, tmp_path):
    net, trips, _ = sim_dataset
    path = tmp_path / "trips.jsonl"
    save_trips(trips[:50], path)
    loaded = load_trips(path)
    assert loaded == trips[:50]
    assert all(t.plan.weights == RoutingWeights() for t in loaded)
    assert '"weights": {"w1": 0.5, "w2": 0.5}' in path.read_text()


def test_trip_line_without_plan_weights_loads_and_replays(sim_dataset, tmp_path):
    # trip files written before plans recorded their weights: the plan loads
    # with no weights, is never seeded, and every decision comes out the same
    net, trips, _ = sim_dataset
    lines = []
    for trip in trips[:40]:
        d = trip_to_dict(trip)
        del d["plans"][0]["weights"]
        lines.append(json.dumps(d, sort_keys=True) + "\n")
    path = tmp_path / "old.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    old = load_trips(path)
    model = LogitModel(-8.8620, 41.5258, 28.5575)
    for got, want in zip(old, trips):
        assert got.plan.weights is None
        assert got == dataclasses.replace(
            want, plan=dataclasses.replace(want.plan, weights=None))
        assert run_trip(net, model, got) == run_trip(net, model, want)


@pytest.mark.parametrize("weights", [
    {"w1": math.nan, "w2": 0.5}, {"w1": 0.5, "w2": -1.0}, {"w1": 0.5, "w2": math.inf},
    {"w1": 0.0, "w2": 0.0}, {"w1": "x", "w2": 0.5}, {"w1": 0.5}, [0.5, 0.5],
], ids=["nan", "negative", "inf", "zero_sum", "string", "missing_w2", "list"])
def test_load_rejects_bad_plan_weights(tmp_path, weights):
    net = line_network([1.0] * 3)
    d = trip_to_dict(chain_trip(net, 2, 300.0))
    d["plans"][0]["weights"] = weights
    path = tmp_path / "trips.jsonl"
    path.write_text(json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_trips(path)


def test_load_rejects_start_time_off_the_first_step(tmp_path):
    net = line_network([1.0] * 3)
    d = trip_to_dict(chain_trip(net, 2, 300.0))
    good = json.dumps(d)
    d["start_time"] = d["atr"][0]["t"] + 12 * 3600.0
    path = tmp_path / "trips.jsonl"
    path.write_text(good + "\n" + json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        load_trips(path)
    assert err.value.line == 2


def test_trip_line_without_start_time_loads(tmp_path):
    net = line_network([1.0] * 3)
    trip = chain_trip(net, 2, 300.0)
    d = trip_to_dict(trip)
    assert "start_time" not in d
    path = tmp_path / "trips.jsonl"
    path.write_text(json.dumps(d, sort_keys=True) + "\n", encoding="utf-8")
    assert load_trips(path) == [trip]


def test_trip_line_with_legacy_start_time_loads(sim_dataset, tmp_path):
    # trip files written by older versions repeat the first step's timestamp
    _, trips, _ = sim_dataset
    lines = []
    for trip in trips[:40]:
        d = trip_to_dict(trip)
        d["start_time"] = trip.atr.steps[0].t
        lines.append(json.dumps(d, sort_keys=True) + "\n")
    path = tmp_path / "old.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    assert load_trips(path) == trips[:40]


@pytest.mark.parametrize("bad", [
    lambda d: b"\xff",
    lambda d: b"[" * 100_000,
    lambda d: json.dumps({**d, "plans": [[]]}).encode(),
    lambda d: json.dumps({**d, "raw_gps": [{"lat": 0.0, "lng": 0.001, "t": T0 + 10},
                                           {"lat": 0.0, "lng": 0.002, "t": T0}]}).encode(),
], ids=["not_utf8", "nested_too_deep", "plan_not_an_object", "raw_gps_backwards"])
def test_load_names_the_line_of_any_bad_record(tmp_path, bad):
    net = line_network([1.0] * 3)
    d = trip_to_dict(chain_trip(net, 2, 300.0))
    path = tmp_path / "trips.jsonl"
    path.write_bytes(json.dumps(d).encode() + b"\n" + bad(d) + b"\n")
    with pytest.raises(DataFormatError) as err:
        load_trips(path)
    assert err.value.line == 2


def _set(d, where, value):
    *parents, key = where
    for k in parents:
        d = d[k]
    d[key] = value


@pytest.mark.parametrize("where, bad, what", [
    (("plans", 0, "path"), "e0", "plan path"), (("plans", 0, "path"), {"e0": 1}, "plan path"),
    (("raw_gps",), {}, "raw_gps"), (("raw_gps",), "", "raw_gps"), (("atr",), "e0", "atr"),
    (("plans",), {"0": {}}, "plans"),
], ids=["path_string", "path_object", "raw_gps_object", "raw_gps_string", "atr_string",
        "plans_object"])
def test_load_rejects_strings_and_objects_where_an_array_belongs(tmp_path, where, bad, what):
    # iterated as they are, these would load as a path ('e0',) or an empty GPS trace
    net = line_network([1.0] * 3)
    d = trip_to_dict(chain_trip(net, 2, 300.0))
    good = json.dumps(d)
    _set(d, where, bad)
    path = tmp_path / "trips.jsonl"
    path.write_text(good + "\n" + json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"line 2: {what} must be an array, got ") as err:
        load_trips(path)
    assert err.value.line == 2


@pytest.mark.parametrize("where, bad, shown", [
    (("raw_gps",), "x" * 5000, "raw_gps must be an array, got '" + "x" * 79 + "..."),
    (("atr", 1, "t"), 10**400, "atr t must be finite, got " + "1" + "0" * 79 + "..."),
    (("label",), "x" * 5000, "trip 't0': unknown label '" + "x" * 79 + "..."),
], ids=["long_string", "huge_integer", "long_label"])
def test_load_cuts_a_long_bad_value_in_the_message(tmp_path, where, bad, shown):
    net = line_network([1.0] * 3)
    d = trip_to_dict(chain_trip(net, 2, 300.0))
    good = json.dumps(d)
    _set(d, where, bad)
    path = tmp_path / "trips.jsonl"
    path.write_text(good + "\n" + json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        load_trips(path)
    assert str(err.value) == f"trip file {path}, line 2: {shown}"


@pytest.mark.parametrize("where, bad, reason", [
    (("label",), "maybe", ": unknown label 'maybe'"),
    (("atr",), [], " is empty"),
    (("plans",), [], ": 'plans' must be a non-empty list"),
], ids=["unknown_label", "empty_atr", "no_plans"])
def test_load_cuts_a_long_trip_id_in_the_message(tmp_path, where, bad, reason):
    net = line_network([1.0] * 3)
    d = trip_to_dict(chain_trip(net, 2, 300.0, trip_id="x" * 5000))
    _set(d, where, bad)
    path = tmp_path / "trips.jsonl"
    path.write_text(json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        load_trips(path)
    prefix = f"trip file {path}, line 1: "
    assert str(err.value).startswith(prefix)
    message = str(err.value)[len(prefix):]
    assert message.endswith("'" + "x" * 79 + "..." + reason) and len(message) < 200


@pytest.mark.parametrize("bad, message", [
    (lambda d: _set(d, ("atr",), []), "trajectory 't0' is empty"),
    (lambda d: _set(d, ("atr", 1, "t"), d["atr"][0]["t"]),
     "trajectory 't0': timestamps not increasing at step 1"),
    (lambda d: _set(d, ("label",), "maybe"), "trip 't0': unknown label 'maybe'"),
    (lambda d: _set(d, ("plans", 0, "planned_at"), d["atr"][0]["t"] + 1.0),
     "trip 't0': the plan is not issued at the first step"),
    (lambda d: _set(d, ("plans", 0, "path"), d["plans"][0]["path"][1:]),
     "trip 't0': the plan does not start on the first step's segment"),
], ids=["empty_atr", "atr_time_not_increasing", "unknown_label", "plan_issued_later",
        "plan_off_the_first_segment"])
def test_load_rejects_a_bad_trajectory_or_trip_naming_the_line(tmp_path, bad, message):
    net = line_network([1.0] * 3)
    d = trip_to_dict(chain_trip(net, 2, 300.0))
    good = json.dumps(d)
    bad(d)
    path = tmp_path / "trips.jsonl"
    path.write_text(good + "\n" + json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        load_trips(path)
    assert err.value.line == 2
    assert str(err.value) == f"trip file {path}, line 2: {message}"


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_trips(path) == []


def test_truncated_line_names_line_number(tmp_path):
    net = line_network([1.0] * 3)
    trip = chain_trip(net, 2, 300.0)
    line = json.dumps(trip_to_dict(trip), sort_keys=True)
    path = tmp_path / "trips.jsonl"
    path.write_text("\n".join([line] * 6 + [line[: len(line) // 2]]) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        load_trips(path)
    assert err.value.line == 7
    assert "line 7" in str(err.value)


@pytest.mark.parametrize("where", [
    ("atr", 1, "t"), ("start_time",), ("plans", 0, "planned_at"), ("plans", 0, "distance_km"),
    ("plans", 0, "est_time_min"), ("raw_gps", 1, "t"), ("raw_gps", 0, "lat"),
    ("raw_gps", 0, "lng"), ("recorded_destination", "lat"),
], ids=lambda where: "_".join(map(str, where)))
def test_load_rejects_non_finite_numbers(tmp_path, where):
    net = line_network([1.0] * 3)
    d = trip_to_dict(chain_trip(net, 2, 300.0))
    d["raw_gps"] = [{"lat": 0.0, "lng": 0.001, "t": T0}, {"lat": 0.0, "lng": 0.002, "t": T0 + 10}]
    good = json.dumps(d, sort_keys=True)
    *parents, key = where
    record = d
    for k in parents:
        record = record[k]
    for bad in (math.nan, math.inf):
        record[key] = bad
        path = tmp_path / "trips.jsonl"
        path.write_text(good + "\n" + json.dumps(d, sort_keys=True) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_trips(path)
        assert err.value.line == 2
@pytest.mark.parametrize("where,bad", [
    (("atr", 1, "t"), "1543622550.0"), (("actual_destination", "lng"), "0.002"),
    (("plans", 0, "distance_km"), True), (("plans", 0, "weights", "w1"), "0.5"),
    (("recorded_destination", "lat"), False), (("raw_gps", 0, "t"), "1543622400"),
    (("start_time",), 10 ** 400),  # an integer too large for a float
], ids=lambda v: "_".join(map(str, v)) if isinstance(v, tuple) else type(v).__name__)
def test_load_rejects_strings_and_booleans_as_numbers(tmp_path, where, bad):
    net = line_network([1.0] * 3)
    trip = chain_trip(net, 2, 300.0)
    d = trip_to_dict(dataclasses.replace(
        trip, plan=dataclasses.replace(trip.plan, weights=RoutingWeights())))
    d["raw_gps"] = [{"lat": 0.0, "lng": 0.001, "t": T0}, {"lat": 0.0, "lng": 0.002, "t": T0 + 10}]
    *parents, key = where
    record = d
    for k in parents:
        record = record[k]
    record[key] = bad
    path = tmp_path / "trips.jsonl"
    path.write_text(json.dumps(d, sort_keys=True) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_trips(path)


@pytest.mark.parametrize("value, expect", [
    (1.5, 1.5), (2, 2.0),
    (True, "must be a number"), ("60", "must be a number"), (None, "must be a number"),
    ([], "must be a number"),
    (10 ** 400, "must be finite"), (math.nan, "must be finite"), (math.inf, "must be finite"),
    (-math.inf, "must be finite"),
], ids=["float", "int", "true", "string", "null", "array", "huge_int", "nan", "inf",
        "minus_inf"])
def test_read_number_contract(value, expect):
    if isinstance(expect, float):
        number = read_number(value, "x")
        assert type(number) is float and number == expect
        if type(value) is float:
            assert number is value  # a parsed float comes back as it is
    else:
        with pytest.raises(InputError, match=f"^x {expect}, got "):
            read_number(value, "x")


@pytest.mark.parametrize("where,bad", [
    (("trip_id",), 7), (("driver_id",), False), (("behavior",), True),
    (("atr", 1, "segment"), 1), (("plans", 0, "path", 1), ["e1"]),
], ids=lambda v: "_".join(map(str, v)) if isinstance(v, tuple) else type(v).__name__)
def test_load_rejects_ids_and_labels_that_are_not_strings(tmp_path, where, bad):
    net = line_network([1.0] * 3)
    d = trip_to_dict(chain_trip(net, 2, 300.0))
    *parents, key = where
    record = d
    for k in parents:
        record = record[k]
    record[key] = bad
    path = tmp_path / "trips.jsonl"
    path.write_text(json.dumps(d, sort_keys=True) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_trips(path)


def test_only_the_first_stored_plan_is_read(tmp_path):
    net = line_network([1.0] * 3)
    trip = chain_trip(net, 2, 300.0)
    d = trip_to_dict(trip)
    # the re-plan from the second step, as a per-step plan list would hold it
    d["plans"].append({"path": ["e1"], "planned_at": T0 + 150.0, "distance_km": 1.0,
                       "est_time_min": 2.5})
    path = tmp_path / "trips.jsonl"
    path.write_text(json.dumps(d) + "\n", encoding="utf-8")
    assert load_trips(path) == [trip]
    for plans in ([], None):
        d["plans"] = plans
        path.write_text(json.dumps(d) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_trips(path)
    del d["plans"]
    path.write_text(json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_trips(path)


def test_identical_trip_bytes_are_parsed_once(tmp_path):
    net = line_network([1.0] * 4)
    trips = [chain_trip(net, 3, 300.0, trip_id=f"t{k}") for k in range(3)]
    save_trips(trips, tmp_path / "a.jsonl")
    save_trips(trips, tmp_path / "b.jsonl")
    first = load_trips(tmp_path / "a.jsonl")
    second = load_trips(tmp_path / "b.jsonl")
    assert first == second == trips
    assert second is not first and all(a is b for a, b in zip(first, second))


def test_a_rewritten_trip_file_is_parsed_again(tmp_path):
    net = line_network([1.0] * 4)
    path = tmp_path / "trips.jsonl"
    save_trips([chain_trip(net, 3, 300.0)], path)
    first = load_trips(path)
    save_trips([chain_trip(net, 3, 360.0)], path)
    second = load_trips(path)
    assert second != first
    assert second[0].atr.steps[-1].t == T0 + 360.0


def test_a_bad_trip_line_fails_the_same_way_on_every_load(tmp_path):
    net = line_network([1.0] * 3)
    line = json.dumps(trip_to_dict(chain_trip(net, 2, 300.0)), sort_keys=True)
    path = tmp_path / "trips.jsonl"
    path.write_text("\n".join([line, "", line, line[:-1]]) + "\n", encoding="utf-8")
    for _ in range(3):
        with pytest.raises(DataFormatError) as err:
            load_trips(path)
        assert err.value.line == 4
        assert str(err.value).startswith(f"trip file {path}, line 4: ")
    path.write_text(line + "\n", encoding="utf-8")  # a failed parse leaves nothing behind
    assert len(load_trips(path)) == 1


def test_a_bare_carriage_return_does_not_end_a_trip_line(tmp_path):
    # lines split only at a newline, as reading the file line by line splits them
    net = line_network([1.0] * 3)
    line = json.dumps(trip_to_dict(chain_trip(net, 2, 300.0)), sort_keys=True)
    path = tmp_path / "trips.jsonl"
    path.write_bytes(line.replace(", ", ",\r", 1).encode() + b"\r\n" + line.encode() + b"\n")
    assert len(load_trips(path)) == 2


def test_changing_a_loaded_trip_list_does_not_change_the_next_load(tmp_path):
    net = line_network([1.0] * 3)
    path = tmp_path / "trips.jsonl"
    save_trips([chain_trip(net, 2, 300.0, trip_id="t0"), chain_trip(net, 2, 300.0, trip_id="t1")],
               path)
    loaded = load_trips(path)
    want = list(loaded)
    loaded.pop()
    loaded.append(chain_trip(net, 2, 300.0, trip_id="other"))
    loaded.reverse()
    assert load_trips(path) == want


def test_load_missing_trips_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_trips(tmp_path / "nope.jsonl")


# ---------------------------------------------------------------------------
# the fixed-shape trip line


_ODD_TEXT = ['"', "\\", "\n", "é", " ", 'a"b\\c\nd', "\ud800\x00\x7f\t", "", "n0_1>n0_2"]
_ODD_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1543622400.123, 90.0, -180.0]


def _random_trip(rng) -> trips_module.TripRecord:
    """A trip of random shape and awkward values: ids with quotes, escapes,
    non-ASCII and U+2028, signed zeros, subnormals, the largest floats, and
    now and then an int or a numpy float where a float belongs."""
    def text():
        return "".join(rng.choice(_ODD_TEXT) for _ in range(rng.randrange(3)))

    def number(lo, hi):
        pick = rng.random()
        if pick < 0.4:
            x = rng.choice([f for f in _ODD_FLOATS if lo <= f <= hi])
        elif pick < 0.8:
            x = rng.uniform(max(lo, -1e12), min(hi, 1e12))
        else:
            x = float(rng.randrange(int(max(lo, -1e6)), int(min(hi, 1e6)) + 1))
        kind = rng.random()
        if kind < 0.1 and x.is_integer():
            return int(x)
        return np.float64(x) if kind < 0.2 else x

    def times(n):
        ts = sorted({number(-1e308, 1e308) for _ in range(n)})
        return [t for i, t in enumerate(ts) if i == 0 or ts[i - 1] < t]

    def point():
        return LatLng(number(-90.0, 90.0), number(-180.0, 180.0))

    steps = tuple(TrajStep(text(), t) for t in times(rng.randrange(1, 6)))
    path = (steps[0].segment, *(text() for _ in range(rng.randrange(4)))) if rng.random() < 0.8 \
        else ()
    planned_at = 0.0 if steps[0].t == 0.0 and rng.random() < 0.5 else steps[0].t
    weights = None if rng.random() < 0.3 else RoutingWeights(
        rng.choice([-0.0, 0.0, 5e-324, 0.5, 1e308]), rng.choice([5e-324, 0.5, 1.0, 1e308]))
    plan = RoutePlanStep(path, planned_at, number(0.0, 1e308), number(0.0, 1e308), weights)
    recorded = point()
    actual = rng.choice([recorded, LatLng(recorded.lat, recorded.lng), point(),
                         LatLng(-recorded.lat if isinstance(recorded.lat, float) else 0.0,
                                recorded.lng)])
    raw_gps = None if rng.random() < 0.3 else tuple(
        GpsPoint(p.lat, p.lng, t) for p, t in ((point(), t) for t in times(rng.randrange(4))))
    return trips_module.TripRecord(
        trip_id=text(), driver_id=text(), atr=AbstractTrajectory("t", steps), plan=plan,
        recorded_destination=recorded, actual_destination=actual,
        label=rng.choice(trips_module.LABELS), raw_gps=raw_gps,
        behavior=None if rng.random() < 0.4 else text())


def test_trip_json_is_json_dumps_of_the_dict_form():
    rng = random.Random(20261021)
    for _ in range(3000):
        trip = _random_trip(rng)
        assert trips_module.trip_json(trip) == json.dumps(trip_to_dict(trip), sort_keys=True)


def test_trip_json_keeps_signed_zeros_apart():
    # the plan is issued at 0.0, which equals the first step's -0.0, and the
    # actual destination equals the recorded one except in the zero's sign:
    # no text is shared between them
    net = line_network([1.0] * 3)
    trip = dataclasses.replace(chain_trip(net, 2, 300.0), recorded_destination=LatLng(-0.0, 0.0),
                               actual_destination=LatLng(0.0, -0.0))
    steps = ((TrajStep("e0", -0.0), *trip.atr.steps[1:]))
    trip = dataclasses.replace(trip, atr=AbstractTrajectory("t0", steps),
                               plan=dataclasses.replace(trip.plan, planned_at=0.0))
    line = trips_module.trip_json(trip)
    assert line == json.dumps(trip_to_dict(trip), sort_keys=True)
    assert '"t": -0.0}' in line and '"planned_at": 0.0' in line
    assert '"recorded_destination": {"lat": -0.0, "lng": 0.0}' in line
    assert '"actual_destination": {"lat": 0.0, "lng": -0.0}' in line


def test_save_trips_writes_one_json_dumps_line_per_trip(tmp_path):
    cfg = SimConfig(seed=3, grid_dims=(5, 5), n_trips=60, gps_period_s=15.0)
    net = generate_network(cfg)
    sim_trips, _ = generate_trips(net, cfg)
    path = tmp_path / "trips.jsonl"
    save_trips(sim_trips, path)
    assert path.read_text(encoding="utf-8") == "".join(
        json.dumps(trip_to_dict(t), sort_keys=True) + "\n" for t in sim_trips)


def test_unconnected_segments_message_cuts_long_ids():
    long = "e" * 5000
    nodes = [Node("a", 0.0, 0.0), Node("b", 0.0, 0.01), Node("c", 0.0, 0.02)]
    net = RoadNetwork(nodes, [Segment(long, "a", "b", 1.0, flat(60.0)),
                              Segment(long + "2", "a", "c", 1.0, flat(60.0))])
    atr = AbstractTrajectory("t0", (TrajStep(long, T0), TrajStep(long + "2", T0 + 60.0)))
    with pytest.raises(InputError) as err:
        trajectory_distance_km(net, atr)
    cut = "'" + "e" * 79 + "..."
    assert str(err.value) == f"trajectory 't0': segments {cut} -> {cut} are not connected (step 1)"
