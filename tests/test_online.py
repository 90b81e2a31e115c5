import dataclasses

import pytest

from detourlab import online
from detourlab.classifier import LogitModel, evaluate_roc_auc, offline_features
from detourlab.errors import FitError, InputError
from detourlab.network import Node, RoadNetwork, Segment
from detourlab.online import TripProgress, run_trip, stage_auc, step
from detourlab.routing import RoutingWeights, entry_times, route_plan

from conftest import flat, make_trip

T0 = 1543622400.0
BEIJING = LogitModel(-8.8620, 41.5258, 28.5575)


def as_trip(net, segs, t_start, trip_id="t0", label="unlabeled"):
    """Trip whose timestamps come from actually driving the segments."""
    times = entry_times(net, segs[:-1], t_start)
    seg_times = [(sid, times[i]) for i, sid in enumerate(segs[:-1])] + [(segs[-1], times[-1])]
    return make_trip(net, seg_times, [segs[0]], 1.0, 1.0, trip_id=trip_id, label=label)


@pytest.fixture(scope="module")
def loop_net():
    """Straight 8-segment main line with a short out-and-back branch at v1."""
    nodes = [Node(f"v{i}", 0.0, 0.01 * i) for i in range(9)] + [Node("w", 0.005, 0.01)]
    segments = [
        Segment(f"e{i}", f"v{i}", f"v{i + 1}", 1.0, flat(60.0)) for i in range(8)
    ] + [
        Segment("b0", "v1", "w", 0.2, flat(60.0)),
        Segment("b1", "w", "v1", 0.2, flat(60.0)),
    ]
    return RoadNetwork(nodes, segments)


def test_first_step_scores_zero(loop_net):
    progress = TripProgress("t", "e7")
    decision = step(loop_net, BEIJING, progress, "e0", T0)
    assert decision.extra_distance_ratio == 0.0
    assert decision.extra_time_ratio == 0.0
    assert decision.theta == BEIJING.intercept
    assert decision.action == "none"
    assert decision.scenario == "mixed_zero"


def test_plan_follower_never_warned(loop_net):
    segs = [f"e{i}" for i in range(8)]
    trip = as_trip(loop_net, segs, T0)
    history = run_trip(loop_net, BEIJING, trip)
    assert len(history) == 8
    for d in history:
        assert d.action == "none"
        assert d.theta == pytest.approx(BEIJING.intercept, abs=1e-9)


def test_warning_issued_at_hand_computed_crossing(loop_net):
    # driver loops the 0.4 km branch until the accumulated excess crosses the
    # warning boundary; each loop entry k scores x1 = x2 = 0.4k / 7
    n_loops = 5
    segs = ["e0"] + ["b0", "b1"] * n_loops + [f"e{i}" for i in range(1, 8)]
    trip = as_trip(loop_net, segs, T0)

    from detourlab.classifier import FeatureVector

    crossing_k = None
    for k in range(1, n_loops + 1):
        x = 0.4 * k / 7.0
        if BEIJING.log_odds(FeatureVector(x, x)) > 0.0:
            crossing_k = k
            break
    assert crossing_k is not None
    crossing_step = 2 * crossing_k  # 1-based index of that loop's b0 entry

    history = run_trip(loop_net, BEIJING, trip)
    for k in range(1, n_loops + 1):  # hand-computed mid-trip ratios
        d = history[2 * k - 1]
        assert d.extra_distance_ratio == pytest.approx(0.4 * k / 7.0, abs=1e-12)
        assert d.extra_time_ratio == pytest.approx(0.4 * k / 7.0, abs=1e-12)
    issued = [d.step for d in history if d.action == "warn_issued"]
    assert issued[0] == crossing_step
    for d in history[: crossing_step - 1]:
        assert d.action == "none"
    # once all loops are driven the excess stays, so the warning persists
    assert all(d.action == "warn_maintained" for d in history[crossing_step:])


def test_avoid_congestion_scenario(two_route_net):
    # recommendation prefers the short-slow road; the driver takes the
    # long-fast pair, so every deviating step reads longer-but-faster
    weights = RoutingWeights(1.0, 0.0)
    segs = ["in", "long1", "long2", "out"]
    trip = as_trip(two_route_net, segs, T0)
    history = run_trip(two_route_net, BEIJING, trip, weights)
    assert history[0].scenario == "mixed_zero"
    for d in history[1:]:
        assert d.extra_distance_ratio > 0
        assert d.extra_time_ratio < 0
        assert d.scenario == "longer_but_faster"


def test_terminal_step_equals_offline_features(sim_dataset):
    net, trips, _ = sim_dataset
    for trip in trips[:150]:
        fv = offline_features(net, trip)
        last = run_trip(net, BEIJING, trip)[-1]
        assert last.extra_distance_ratio == fv.extra_distance_ratio
        assert last.extra_time_ratio == fv.extra_time_ratio


def test_warning_state_machine_sound(sim_dataset):
    net, trips, _ = sim_dataset
    for trip in trips[:120]:
        active = False
        for d in run_trip(net, BEIJING, trip):
            if d.theta > 0:
                assert d.action == ("warn_maintained" if active else "warn_issued")
                active = True
            else:
                assert d.action == ("warn_cancelled" if active else "none")
                active = False
            assert d.scenario in ("worse", "longer_but_faster",
                                  "shorter_but_slower", "better", "mixed_zero")


def test_disconnected_step_rejected(loop_net):
    progress = TripProgress("t", "e7")
    step(loop_net, BEIJING, progress, "e0", T0)
    with pytest.raises(InputError):
        step(loop_net, BEIJING, progress, "e5", T0 + 60.0)


def test_failed_step_leaves_progress_unchanged(loop_net):
    progress = TripProgress("t", "e7")
    step(loop_net, BEIJING, progress, "e0", T0)
    step(loop_net, BEIJING, progress, "e1", T0 + 60.0)
    snapshot = dataclasses.replace(progress)
    with pytest.raises(InputError):
        step(loop_net, BEIJING, progress, "e5", T0 + 120.0)  # disconnected
    with pytest.raises(InputError):
        step(loop_net, BEIJING, progress, "e2", T0 + 60.0)  # time does not advance
    assert progress == snapshot


def test_non_increasing_time_rejected(loop_net):
    progress = TripProgress("t", "e7")
    step(loop_net, BEIJING, progress, "e0", T0)
    with pytest.raises(InputError):
        step(loop_net, BEIJING, progress, "e1", T0)


def test_non_finite_time_rejected(loop_net):
    progress = TripProgress("t", "e7")
    step(loop_net, BEIJING, progress, "e0", T0)
    snapshot = dataclasses.replace(progress)
    with pytest.raises(InputError, match="timestamp nan is not finite"):
        step(loop_net, BEIJING, progress, "e1", float("nan"))
    assert progress == snapshot


def test_degenerate_initial_plan_rejected(loop_net):
    progress = TripProgress("t", "e0")
    with pytest.raises(InputError):
        step(loop_net, BEIJING, progress, "e0", T0)


@pytest.mark.parametrize("dest, steps", [
    ("e7", [("e0", 0.0), ("e1", float("nan"))]),
    ("e7", [("e0", 0.0), ("e5", 60.0)]),
    ("e7", [("e0", 0.0), ("e1", 0.0)]),
    ("e0", [("e0", 0.0)]),
], ids=["non_finite_time", "disconnected", "time_does_not_advance", "degenerate_plan"])
def test_a_long_trip_id_is_cut_in_the_message(loop_net, dest, steps):
    progress = TripProgress("t" * 5000, dest)
    *taken, (segment, seconds) = steps
    for sid, s in taken:
        step(loop_net, BEIJING, progress, sid, T0 + s)
    with pytest.raises(InputError) as err:
        step(loop_net, BEIJING, progress, segment, T0 + seconds)
    message = str(err.value)
    assert message.startswith("trip '" + "t" * 79 + "...: ") and len(message) < 200


def test_the_connect_message_cuts_long_segment_ids():
    long = "e" * 5000
    nodes = [Node(n, 0.0, 0.01 * i) for i, n in enumerate("abcd")]
    net = RoadNetwork(nodes, [Segment(long + str(i), a, b, 1.0, flat(60.0))
                              for i, (a, b) in enumerate(("ab", "bc", "cd"))])
    progress = TripProgress("t", long + "2")
    step(net, BEIJING, progress, long + "0", T0)
    with pytest.raises(InputError) as err:
        step(net, BEIJING, progress, long + "2", T0 + 60.0)
    cut = "'" + "e" * 79 + "..."
    assert str(err.value) == f"trip 't': segment {cut} does not connect to {cut}"


def test_stage_auc_final_stage_matches_offline(sim_dataset):
    net, trips, _ = sim_dataset
    subset = trips[:120]
    samples = [(offline_features(net, t), 1 if t.label == "detour" else 0) for t in subset]
    offline_auc, _ = evaluate_roc_auc(BEIJING, samples)
    stages = stage_auc(net, BEIJING, subset)
    assert len(stages) == 10
    assert stages[-1].auc == offline_auc
    assert all(0 <= s.warned_trips <= len(subset) for s in stages)
    # warned counts accumulate with completeness
    assert all(a.warned_trips <= b.warned_trips for a, b in zip(stages, stages[1:]))


def test_stage_auc_leaves_unlabeled_trips_out(sim_dataset):
    net, trips, _ = sim_dataset
    mixed = [dataclasses.replace(t, label="unlabeled") if i % 3 == 0 else t
             for i, t in enumerate(trips[:120])]
    labeled = [t for t in mixed if t.label != "unlabeled"]
    assert {t.label for t in labeled} == {"detour", "normal"}
    assert stage_auc(net, BEIJING, mixed) == stage_auc(net, BEIJING, labeled)


def test_stage_auc_perfect_from_step_two(loop_net):
    normals = [
        as_trip(loop_net, [f"e{i}" for i in range(8)], T0 + 60.0 * j, f"n{j}", "normal")
        for j in range(6)
    ]
    detours = [
        as_trip(loop_net, ["e0"] + ["b0", "b1"] * 2 + [f"e{i}" for i in range(1, 8)],
                T0 + 60.0 * j, f"d{j}", "detour")
        for j in range(6)
    ]
    stages = stage_auc(loop_net, BEIJING, normals + detours)
    for s in stages:
        assert s.auc == 1.0


def test_stage_auc_single_class_rejected(loop_net):
    trips = [as_trip(loop_net, [f"e{i}" for i in range(8)], T0, f"n{j}", "normal")
             for j in range(3)]
    with pytest.raises(FitError):
        stage_auc(loop_net, BEIJING, trips)

@pytest.fixture
def searches(monkeypatch):
    """(origin, dest) of every route search the live detector starts.

    A call from a segment to itself returns the empty plan without
    searching, so it is not listed.
    """
    calls = []

    def counted(net, origin, dest, *args):
        if origin != dest:
            calls.append((origin, dest))
        return route_plan(net, origin, dest, *args)

    monkeypatch.setattr(online, "route_plan", counted)
    return calls


@pytest.mark.parametrize("weights", [RoutingWeights(), RoutingWeights(1.0, 0.0)],
                         ids=["default", "distance_only"])
def test_held_plan_decisions_equal_fresh_replanning(sim_dataset, searches, weights):
    # every step replays bit-equal to a step-by-step run that drops the held
    # plan before each step, so each of its steps searches afresh
    net, trips, _ = sim_dataset
    for trip in trips:
        held = run_trip(net, BEIJING, trip, weights)
        progress = TripProgress(trip.trip_id, trip.atr.steps[-1].segment, weights)
        fresh = []
        for st in trip.atr.steps:
            progress.plan_path, progress.plan_times = (), ()
            fresh.append(step(net, BEIJING, progress, st.segment, st.t))
        assert repr(held) == repr(fresh)
    fresh_searches = sum(len(t.atr.steps) - 1 for t in trips)
    held_searches = len(searches) - fresh_searches
    assert held_searches < 0.5 * fresh_searches  # the fast path did most of the steps


def test_seeded_plan_follower_makes_no_search(sim_dataset, searches):
    net, trips, _ = sim_dataset
    followers = [t for t in trips if t.behavior == "normal"][:30]
    assert followers
    for trip in followers:
        assert trip.plan.weights == RoutingWeights()
        assert all(d.action == "none" for d in run_trip(net, BEIJING, trip))
    assert searches == []


def test_on_plan_steps_do_not_recheck_contiguity(sim_dataset, monkeypatch):
    # a plan follower's path is checked once, when its stored plan seeds the
    # detector; the on-plan steps take suffixes of that path unchecked
    net, trips, _ = sim_dataset
    checked = []
    monkeypatch.setattr(online, "first_gap", lambda net, path: checked.append(path))
    followers = [t for t in trips if t.behavior == "normal"][:30]
    for trip in followers:
        run_trip(net, BEIJING, trip)
    assert checked == [(*t.plan.path, t.atr.steps[-1].segment) for t in followers]


@pytest.mark.parametrize("weights", [None, RoutingWeights(1.0, 0.0)],
                         ids=["unrecorded", "other_weights"])
def test_plan_not_made_under_replay_weights_is_not_seeded(sim_dataset, searches, weights):
    net, trips, _ = sim_dataset
    trip = next(t for t in trips if t.behavior == "normal")
    seeded = run_trip(net, BEIJING, trip)
    assert searches == []
    other = dataclasses.replace(trip, plan=dataclasses.replace(trip.plan, weights=weights))
    assert run_trip(net, BEIJING, other) == seeded
    assert searches == [(trip.atr.steps[0].segment, trip.atr.steps[-1].segment)]


def test_plan_from_another_network_is_not_seeded(sim_dataset, searches):
    # a stored plan whose distance this network's segments do not reproduce
    net, trips, _ = sim_dataset
    trip = next(t for t in trips if t.behavior == "normal")
    plan = dataclasses.replace(trip.plan, distance=trip.plan.distance + 1.0)
    run_trip(net, BEIJING, dataclasses.replace(trip, plan=plan))
    assert searches == [(trip.atr.steps[0].segment, trip.atr.steps[-1].segment)]


def test_plan_that_does_not_connect_is_not_seeded(sim_dataset, searches):
    # a stored plan whose middle segment is swapped for one elsewhere: it
    # cannot be the planner's answer, so the first step searches
    net, trips, _ = sim_dataset
    trip = next(t for t in trips if t.behavior == "normal" and len(t.plan.path) >= 3)
    path = trip.plan.path
    stray = next(s.id for s in net.segments.values()
                 if s.from_node != net.segment(path[0]).to_node)
    plan = dataclasses.replace(trip.plan, path=(path[0], stray, *path[2:]))
    assert run_trip(net, BEIJING, dataclasses.replace(trip, plan=plan)) == run_trip(
        net, BEIJING, trip)
    assert searches == [(trip.atr.steps[0].segment, trip.atr.steps[-1].segment)]


def test_plan_with_an_unknown_segment_is_rejected(sim_dataset):
    net, trips, _ = sim_dataset
    trip = next(t for t in trips if t.behavior == "normal" and len(t.plan.path) >= 3)
    path = trip.plan.path
    plan = dataclasses.replace(trip.plan, path=(path[0], "nowhere", *path[2:]))
    with pytest.raises(InputError, match="nowhere"):
        run_trip(net, BEIJING, dataclasses.replace(trip, plan=plan))


def test_late_entry_onto_the_held_plan_replans(loop_net, searches):
    # the driver stays on the planned segments but enters e2 a minute late:
    # the held plan's times no longer hold, so that step searches afresh
    progress = TripProgress("t", "e7")
    step(loop_net, BEIJING, progress, "e0", T0)
    step(loop_net, BEIJING, progress, "e1", T0 + 60.0)
    assert searches == [("e0", "e7")]
    late = step(loop_net, BEIJING, progress, "e2", T0 + 180.0)
    assert searches == [("e0", "e7"), ("e2", "e7")]
    assert late.extra_distance_ratio == 0.0
    assert late.extra_time_ratio == pytest.approx(1.0 / 7.0, abs=1e-12)


def test_destination_step_makes_no_route_call(loop_net, monkeypatch):
    # the plan from the destination segment is empty, so no planner call
    calls = []

    def counted(net, origin, dest, *args):
        calls.append((origin, dest))
        return route_plan(net, origin, dest, *args)

    monkeypatch.setattr(online, "route_plan", counted)
    trip = as_trip(loop_net, [f"e{i}" for i in range(8)], T0)
    decisions = run_trip(loop_net, BEIJING, trip)
    assert calls == [("e0", "e7")]
    assert (decisions[-1].extra_distance_ratio, decisions[-1].extra_time_ratio) == (0.0, 0.0)
