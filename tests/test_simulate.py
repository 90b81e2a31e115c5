import dataclasses
import hashlib
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

from detourlab.classifier import offline_features
from detourlab.errors import InputError
from detourlab.network import network_to_dict, save_network
from detourlab.routing import RoutingWeights, path_distance, route_plan
from detourlab.simulate import (BASE_EPOCH, BEHAVIORS, SimConfig, _cdf, _demand_weights, _rng,
                                _Stream, generate_network, generate_trips)
from detourlab.trips import trajectory_distance_km, trajectory_minutes, trip_to_dict

from conftest import path_est_time


def test_network_deterministic():
    a = generate_network(SimConfig(seed=4, grid_dims=(4, 6)))
    b = generate_network(SimConfig(seed=4, grid_dims=(4, 6)))
    assert network_to_dict(a) == network_to_dict(b)
    c = generate_network(SimConfig(seed=5, grid_dims=(4, 6)))
    assert network_to_dict(a) != network_to_dict(c)


def _night_boosted(mix, boost):
    p = np.array(list(mix.values()))
    p = p / p.sum()
    p[list(mix).index("detour")] *= 1.0 + boost
    return p / p.sum()


_MIX = SimConfig().behavior_mix


@pytest.mark.parametrize("p", [
    _demand_weights(), np.array(list(_MIX.values())) / sum(_MIX.values()),
    _night_boosted(_MIX, 3.0), np.array([0.5, 0.0, 0.25, 0.25]),
], ids=["demand", "behavior_mix", "night_boosted", "zero_weight"])
def test_direct_draws_equal_choice(p):
    """The simulator's categorical draw is ``Generator.choice(len(p), p=p)``,
    computed from the stream's double by ``_cdf``: the same index, draw by draw."""
    cdf = _cdf(p)
    by_choice, direct = _rng(7, 2), _rng(7, 2)
    for _ in range(3000):
        assert bisect_right(cdf, direct.random()) == int(by_choice.choice(len(p), p=p))


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.25, 1.45), (8.0, 18.0), (25.0, 55.0),
                                   (40.0, 80.0)])
def test_direct_draws_equal_uniform(lo, hi):
    """``lo + (hi - lo) * rng.random()`` is ``Generator.uniform(lo, hi)``, bit for bit."""
    by_uniform, direct = _rng(7, 1), _rng(7, 1)
    for _ in range(3000):
        assert lo + (hi - lo) * direct.random() == by_uniform.uniform(lo, hi)


# 2**32 - 1 and up check how an integer is split into 32-bit words; with the
# stream, 2**64 + 3 and 2**70 + 1 give four words and 2**96 + 5 five, one more
# than the pool holds
_PORT_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**70 + 1, 2**96 + 5, 20240103]


@pytest.mark.parametrize("stream", [1, 2, 3])
@pytest.mark.parametrize("seed", _PORT_SEEDS)
def test_stream_port_equals_numpy(seed, stream):
    """``_Stream`` seeds PCG64 as numpy does and draws its doubles."""
    port = _Stream(seed, stream)
    state = np.random.PCG64(np.random.SeedSequence([seed, stream])).state["state"]
    assert (port.state, port.inc) == (state["state"], state["inc"])
    rng = _rng(seed, stream)
    assert [port.random() for _ in range(2000)] == [rng.random() for _ in range(2000)]


@pytest.mark.parametrize("seed, dims, digest", [
    (7, (10, 10), "0731d85f19b79bce3f6de38c42a33fa8f1e15e3f69698ee30c32ef4be00da85d"),
    (0, (8, 8), "a38368be2f024b8c054016ced972c895db75983f5178e8a8e2f26139877e3152"),
    (20240103, (40, 40), "505ee7a9a55e2af36edbb68d4222974e2aab8deca3125a4a130488a508dd0030"),
])
def test_network_file_digest_is_pinned(tmp_path, seed, dims, digest):
    # measured when the network was drawn from numpy's own Generator
    path = tmp_path / "net.json"
    save_network(generate_network(SimConfig(seed=seed, grid_dims=dims)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_generated_numbers_are_python_floats():
    net = generate_network(SimConfig(seed=2, grid_dims=(4, 5)))
    numbers = [x for n in net.nodes.values() for x in (n.lat, n.lng)]
    numbers += [x for s in net.segments.values()
                for x in (s.length, *(v for bucket in s.speed_profile for v in bucket))]
    assert {type(x) for x in numbers} == {float}


def test_grid_counts_3x3():
    net = generate_network(SimConfig(seed=0, grid_dims=(3, 3)))
    assert len(net.nodes) == 9
    assert len(net.segments) == 24  # 12 undirected grid edges, both directions


def test_segment_lengths_bounded():
    net = generate_network(SimConfig(seed=1, grid_dims=(6, 6)))
    for seg in net.segments.values():
        assert 0.2 <= seg.length <= 1.5


def test_degenerate_grid_rejected():
    with pytest.raises(InputError):
        generate_network(SimConfig(seed=0, grid_dims=(1, 5)))


def test_config_is_checked_when_built_and_frozen():
    with pytest.raises(InputError):
        SimConfig(grid_dims=(1, 5))
    with pytest.raises(InputError, match="seed"):
        SimConfig(seed=-1)
    cfg = SimConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_trips = 0


def test_driver_count_fits_the_int64_bound_drivers_are_drawn_below():
    assert SimConfig(n_drivers=2**63).n_drivers == 2**63
    with pytest.raises(InputError, match="n_drivers must be at most 2\\*\\*63"):
        SimConfig(n_drivers=2**63 + 1)


def test_config_messages_cut_a_long_seed_or_behavior():
    # 4,000 digits: str() of an int refuses more than 4,300 on Python 3.11+
    seed = -int("9" * 4000)
    with pytest.raises(InputError) as err:
        SimConfig(seed=seed)
    assert str(err.value) == "seed must be non-negative, got " + "-" + "9" * 79 + "..."
    long = "b" * 5000
    cut = "'" + "b" * 79 + "..."
    with pytest.raises(InputError) as err:
        SimConfig(behavior_mix={"normal": 1.0, long: -1.0})
    assert str(err.value) == f"behavior_mix[{cut}] must be finite and non-negative, got -1.0"
    with pytest.raises(InputError) as err:
        SimConfig(behavior_mix={"normal": 0.5, long: 0.5})
    assert str(err.value) == "unknown behaviors in mix: ['" + "b" * 78 + "..."
    with pytest.raises(InputError) as err:  # short values are written in full
        SimConfig(seed=-1, behavior_mix={"normal": 0.5, "teleport": 0.5})
    assert str(err.value) == "seed must be non-negative, got -1"
    with pytest.raises(InputError) as err:
        SimConfig(behavior_mix={"normal": 0.5, "teleport": 0.5})
    assert str(err.value) == "unknown behaviors in mix: ['teleport']"


def test_bad_mix_rejected():
    with pytest.raises(InputError):
        SimConfig(behavior_mix={"normal": 0.5})
    with pytest.raises(InputError):
        SimConfig(behavior_mix={"normal": 0.5, "teleport": 0.5})


def test_trips_deterministic():
    cfg = SimConfig(seed=8, grid_dims=(5, 5), n_trips=30)
    net = generate_network(cfg)
    t1, d1 = generate_trips(net, cfg)
    t2, d2 = generate_trips(net, cfg)
    assert [trip_to_dict(x) for x in t1] == [trip_to_dict(x) for x in t2]
    assert d1 == d2


def test_all_normal_trips_have_zero_features():
    cfg = SimConfig(seed=2, grid_dims=(5, 5), n_trips=40, gps_noise_m=0.0,
                    behavior_mix={"normal": 1.0})
    net = generate_network(cfg)
    trips, _ = generate_trips(net, cfg)
    for trip in trips:
        assert trip.label == "normal"
        fv = offline_features(net, trip)
        assert fv.extra_distance_ratio == 0.0
        assert fv.extra_time_ratio == 0.0


@pytest.mark.parametrize("period", [0.0, 1.0])
def test_gps_period_floor_keeps_zero_and_one_second(period):
    # 0 turns GPS off; the floor itself still samples, one fix per second
    cfg = SimConfig(seed=2, grid_dims=(3, 3), n_trips=3, gps_period_s=period)
    trips, _ = generate_trips(generate_network(cfg), cfg)
    for trip in trips:
        if period == 0.0:
            assert trip.raw_gps is None
        else:
            minutes = trajectory_minutes(trip.atr)
            assert len(trip.raw_gps) >= int(minutes * 60.0)


def test_detour_trips_hit_inflation_target():
    cfg = SimConfig(seed=3, grid_dims=(6, 6), n_trips=60, detour_inflation=0.3,
                    behavior_mix={"detour": 1.0}, gps_period_s=0.0)
    net = generate_network(cfg)
    trips, _ = generate_trips(net, cfg)
    for trip in trips:
        assert trip.behavior == "detour" and trip.label == "detour"
        driven = path_distance(net, [s.segment for s in trip.atr.steps[:-1]])
        assert driven >= 1.3 * trip.plan.distance - 1e-9


def test_planted_separation():
    cfg = SimConfig(seed=6, grid_dims=(6, 6), n_trips=150, detour_inflation=0.2,
                    gps_noise_m=0.0, gps_period_s=0.0,
                    behavior_mix={"normal": 0.5, "detour": 0.5})
    net = generate_network(cfg)
    trips, _ = generate_trips(net, cfg)
    for trip in trips:
        fv = offline_features(net, trip)
        if trip.label == "detour":
            assert fv.extra_distance_ratio >= 0.2 - 1e-9
        else:
            assert fv.extra_distance_ratio == 0.0


def test_planted_alternatives_are_the_one_criterion_routes():
    # avoiders drive the time-optimal route, longer and faster than the plan;
    # shortcut takers the distance-optimal one, shorter and slower; a trip
    # with no such route falls back to normal and drives its plan
    cfg = SimConfig(seed=1, grid_dims=(8, 8), n_trips=300, gps_period_s=0.0,
                    behavior_mix={"avoid_congestion": 0.5, "shortcut": 0.5})
    net = generate_network(cfg)
    trips, _ = generate_trips(net, cfg)
    for trip in trips:
        plan = trip.plan
        driven = tuple(st.segment for st in trip.atr.steps[:-1])
        if trip.behavior == "normal":
            assert driven == plan.path
            continue
        km = trajectory_distance_km(net, trip.atr)
        minutes = trajectory_minutes(trip.atr)
        if trip.behavior == "avoid_congestion":
            weights = RoutingWeights(0.0, 1.0)
            assert km > plan.distance + 1e-9 and minutes < plan.est_time - 1e-9
        else:
            assert trip.behavior == "shortcut"
            weights = RoutingWeights(1.0, 0.0)
            assert km < plan.distance - 1e-9 and minutes > plan.est_time + 1e-9
        alt = route_plan(net, plan.path[0], trip.atr.steps[-1].segment, plan.planned_at,
                         weights)
        assert driven == alt.path
    counts = Counter(t.behavior for t in trips)
    assert min(counts[b] for b in ("normal", "avoid_congestion", "shortcut")) >= 5, counts


def test_label_proportions_match_mix():
    mix = {"normal": 0.72, "detour": 0.10, "avoid_congestion": 0.09, "shortcut": 0.09}
    cfg = SimConfig(seed=12, grid_dims=(8, 8), n_trips=10000, gps_period_s=0.0,
                    behavior_mix=mix)
    net = generate_network(cfg)
    trips, _ = generate_trips(net, cfg)
    detour_share = sum(1 for t in trips if t.label == "detour") / len(trips)
    assert abs(detour_share - mix["detour"]) <= 0.02


def _night_and_day_detour_shares(boost):
    """Detour shares of trips starting before 06:00 and after, over three seeds."""
    counts = {True: [0, 0], False: [0, 0]}
    for seed in range(3):
        cfg = SimConfig(seed=seed, grid_dims=(4, 4), n_trips=300, gps_period_s=0.0,
                        night_detour_boost=boost)
        trips, _ = generate_trips(generate_network(cfg), cfg)
        for trip in trips:
            tally = counts[trip.atr.steps[0].t < BASE_EPOCH + 360 * 60.0]
            tally[0] += trip.label == "detour"
            tally[1] += 1
    return counts[True][0] / counts[True][1], counts[False][0] / counts[False][1]


def test_night_detour_boost_raises_the_night_detour_share():
    flat_night, flat_day = _night_and_day_detour_shares(0.0)
    night, day = _night_and_day_detour_shares(3.0)
    # a boost of 3 takes the night mix's detour weight from 0.1 to 0.4 / 1.3
    assert night > 2.0 * flat_night
    assert abs(day - flat_day) < 0.02


def test_trip_structure_valid(sim_dataset):
    net, trips, drivers = sim_dataset
    trip_ids = {t.trip_id for t in trips}
    for trip in trips:
        trajectory_distance_km(net, trip.atr)  # raises unless the segments connect
        assert trip.behavior in BEHAVIORS
        assert (trip.label == "detour") == (trip.behavior == "detour")
        plan = trip.plan
        assert plan.planned_at == trip.atr.steps[0].t
        assert plan.distance == path_distance(net, plan.path)
        assert plan.est_time == path_est_time(net, plan.path, plan.planned_at)
        assert trip.actual_destination == net.segment_end(trip.atr.steps[-1].segment)
    for d in drivers:
        assert all(tid in trip_ids for tid in d.trips)
