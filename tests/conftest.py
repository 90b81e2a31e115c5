import math

import pytest

from detourlab.network import EARTH_RADIUS_KM, LatLng, Node, RoadNetwork, Segment
from detourlab.routing import RoutePlanStep, check_contiguous, entry_times
from detourlab.simulate import SimConfig, generate_network, generate_trips
from detourlab.trips import AbstractTrajectory, TrajStep, TripRecord

KM_PER_DEG = EARTH_RADIUS_KM * math.pi / 180.0


def flat(speed_kmh: float) -> tuple[tuple[float, float], ...]:
    return ((0.0, speed_kmh),)


def path_est_time(net, path, depart: float) -> float:
    """Estimated minutes to traverse ``path`` departing at ``depart``: the
    forward sum of ``entry_times``, as ``route_plan`` makes it."""
    check_contiguous(net, path)
    return (entry_times(net, path, depart)[-1] - depart) / 60.0


def schedule_json(schedule) -> dict:
    """The JSON form ``pricing.load_schedule`` reads, for ``schedule``."""
    return {
        "city": schedule.city,
        "base_fare": schedule.base_fare,
        "base_km": schedule.base_km,
        "base_min": schedule.base_min,
        "operating_cost_per_km": schedule.operating_cost_per_km,
        "intervals": [{"start_min": iv.start_min, "end_min": iv.end_min,
                       "rate_per_km": iv.rate_per_km, "rate_per_min": iv.rate_per_min,
                       "serving_speed_km_per_min": iv.serving_speed}
                      for iv in schedule.intervals],
    }


def line_network(lengths, speed: float = 60.0) -> RoadNetwork:
    """Chain of nodes along the equator; segment k has the given length."""
    lngs = [0.0]
    for km in lengths:
        lngs.append(lngs[-1] + km / KM_PER_DEG)
    nodes = [Node(f"v{i}", 0.0, lng) for i, lng in enumerate(lngs)]
    segments = [
        Segment(f"e{i}", f"v{i}", f"v{i + 1}", km, flat(speed))
        for i, km in enumerate(lengths)
    ]
    return RoadNetwork(nodes, segments)


def make_trip(
    net,
    seg_times,
    plan_path,
    plan_distance,
    plan_est_time,
    trip_id="t0",
    recorded=None,
    actual=None,
    label="unlabeled",
):
    """Hand-built trip: explicit steps and an explicit initial plan."""
    steps = tuple(TrajStep(s, t) for s, t in seg_times)
    atr = AbstractTrajectory(trip_id, steps)
    if actual is None:
        actual = net.segment_end(steps[-1].segment)
    if recorded is None:
        recorded = actual
    plan = RoutePlanStep(tuple(plan_path), steps[0].t, plan_distance, plan_est_time)
    return TripRecord(
        trip_id=trip_id,
        driver_id="d0",
        atr=atr,
        plan=plan,
        recorded_destination=LatLng(recorded.lat, recorded.lng),
        actual_destination=LatLng(actual.lat, actual.lng),
        label=label,
    )


@pytest.fixture(scope="session")
def two_route_net() -> RoadNetwork:
    """Origin segment, then a short-slow route and a long-fast route, then
    the destination segment."""
    nodes = [Node("o", 0.0, 0.0), Node("a", 0.0, 0.01), Node("b", 0.0, 0.03),
             Node("c", 0.01, 0.02), Node("x", 0.0, 0.04)]
    segments = [
        Segment("in", "o", "a", 1.0, flat(60.0)),
        Segment("short", "a", "b", 1.0, flat(30.0)),
        Segment("long1", "a", "c", 1.0, flat(120.0)),
        Segment("long2", "c", "b", 1.0, flat(120.0)),
        Segment("out", "b", "x", 1.0, flat(60.0)),
    ]
    return RoadNetwork(nodes, segments)


@pytest.fixture(scope="session")
def small_grid() -> RoadNetwork:
    return generate_network(SimConfig(seed=42, grid_dims=(5, 5)))


@pytest.fixture(scope="session")
def sim_dataset():
    """Mixed-behavior labeled dataset shared by classifier/online tests."""
    cfg = SimConfig(
        seed=101,
        grid_dims=(8, 8),
        n_trips=400,
        behavior_mix={"normal": 0.7, "detour": 0.15,
                      "avoid_congestion": 0.075, "shortcut": 0.075},
        gps_period_s=0.0,
        gps_noise_m=0.0,
    )
    net = generate_network(cfg)
    trips, drivers = generate_trips(net, cfg)
    return net, trips, drivers
