"""Online phase: per-step scoring, warning state machine, staged evaluation.

Each segment entry compares the estimated trip totals (distance already
covered plus the current plan, elapsed time plus its estimate) against the
pickup-time recommendation.  The detector re-plans only when the driver
leaves the plan it holds; while the driver enters each planned segment at
its planned time, the current plan is the held plan's suffix.  On the final
step the remaining plan is empty, so the live scores reduce to the offline
features of the finished trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classifier import LogitModel, excess_ratios, rank_auc
from .errors import FitError, InputError, shown
from .network import RoadNetwork
from .routing import (RoutePlanStep, RoutingWeights, entry_times, path_distance, path_km,
                      route_plan)

STAGES = 10  # completeness stages of stage_auc: the first 10%, 20%, ..., 100% of steps


@dataclass(frozen=True)
class StepDecision:
    step: int  # 1-based index in the trajectory
    extra_distance_ratio: float
    extra_time_ratio: float
    theta: float
    action: str
    scenario: str


@dataclass
class TripProgress:
    """Mutable per-trip detection state; one writer per trip.

    No past step or decision is kept.  Besides a few running totals it holds
    the last plan taken on: its path, the planned entry times along it plus
    the arrival (``routing.entry_times``), and the index of the next planned
    entry.  When a step enters ``plan_path[plan_index]`` exactly at
    ``plan_times[plan_index]``, the fresh plan from there is the held path's
    suffix: a route's cost adds up along it from fixed entry times, so the
    suffix of an optimal route is optimal from where it starts.  The suffix
    search and the full search sum their costs from different departure
    times, so this holds up to routes whose costs tie within rounding; a
    differential test against fresh planning guards it.  The step that
    enters the destination segment takes the empty plan without a search.
    """

    trip_id: str
    dest_segment: str
    weights: RoutingWeights = RoutingWeights()
    initial_plan: RoutePlanStep | None = None  # the pickup plan, issued at the first step
    step_count: int = 0
    last_segment: str | None = None
    last_t: float = 0.0
    prefix_km: float = 0.0  # running length of completed segments
    warning_active: bool = False
    plan_path: tuple[str, ...] = ()  # path of the held plan
    plan_times: tuple[float, ...] = ()  # its planned entry times, then the arrival
    plan_index: int = 0  # position in plan_path of the next planned entry


def _scenario(x1: float, x2: float) -> str:
    if x1 > 0.0 and x2 > 0.0:
        return "worse"
    if x1 > 0.0 and x2 < 0.0:
        return "longer_but_faster"
    if x1 < 0.0 and x2 > 0.0:
        return "shorter_but_slower"
    if x1 < 0.0 and x2 < 0.0:
        return "better"
    return "mixed_zero"


def step(net: RoadNetwork, model: LogitModel, progress: TripProgress,
         segment: str, t: float) -> StepDecision:
    """Advance one segment entry and decide on the warning.

    A strictly positive score triggers (or maintains) the warning; a score
    at or below zero cancels an active one.  The scenario tags the sign
    pattern of the two ratios.  A rejected step leaves ``progress`` as it was.
    """
    if not math.isfinite(t):
        raise InputError(f"trip {shown(repr(progress.trip_id))}: timestamp {t} is not finite")
    seg = net.segment(segment)
    prefix_km = progress.prefix_km
    if progress.last_segment is not None:
        prev_seg = net.segment(progress.last_segment)
        if prev_seg.to_node != seg.from_node:
            raise InputError(
                f"trip {shown(repr(progress.trip_id))}: segment {shown(repr(segment))} does "
                f"not connect to {shown(repr(progress.last_segment))}"
            )
        if t <= progress.last_t:
            raise InputError(
                f"trip {shown(repr(progress.trip_id))}: timestamps must strictly increase")
        prefix_km += prev_seg.length

    path, times, k = progress.plan_path, progress.plan_times, progress.plan_index
    if k < len(path) and path[k] == segment and times[k] == t:  # on the held plan
        plan_km, plan_min = path_km(net, path[k:]), (times[-1] - t) / 60.0
    else:
        if segment == progress.dest_segment:  # arrived: nothing is left to plan
            path, plan_km, plan_min = (), 0.0, 0.0
        else:
            plan = route_plan(net, segment, progress.dest_segment, t, progress.weights)
            path, plan_km, plan_min = plan.path, plan.distance, plan.est_time
        times, k = tuple(entry_times(net, path, t)), 0
    initial = progress.initial_plan
    if initial is None:  # the first step's plan, issued at t, is the pickup recommendation
        initial = RoutePlanStep(path[k:], t, plan_km, plan_min, progress.weights)
    fv = excess_ratios(prefix_km + plan_km, (t - initial.planned_at) / 60.0 + plan_min,
                       initial, progress.trip_id)
    theta = model.log_odds(fv)
    if theta > 0.0:
        action = "warn_maintained" if progress.warning_active else "warn_issued"
    else:
        action = "warn_cancelled" if progress.warning_active else "none"

    # all checks passed; mutate the per-trip state
    progress.initial_plan = initial
    progress.step_count += 1
    progress.last_segment = segment
    progress.last_t = t
    progress.prefix_km = prefix_km
    progress.warning_active = theta > 0.0
    progress.plan_path, progress.plan_times, progress.plan_index = path, times, k + 1

    x1, x2 = fv.extra_distance_ratio, fv.extra_time_ratio
    return StepDecision(progress.step_count, x1, x2, theta, action, _scenario(x1, x2))


def run_trip(net: RoadNetwork, model: LogitModel, trip,
             weights: RoutingWeights = RoutingWeights()) -> list[StepDecision]:
    """Replay a recorded trip through the live detector.

    The stored pickup plan seeds the detector's held plan when it is the
    planner's answer under these ``weights`` on this network: it recorded the
    same weights, it is not empty, it ends where the destination segment
    starts, and re-walking it reproduces its distance and time bit for bit.
    The first step then needs no route search.
    """
    dest = trip.atr.steps[-1].segment
    progress = TripProgress(trip.trip_id, dest, weights)
    plan = trip.plan
    if (plan.weights == weights and plan.path
            and net.segment(plan.path[-1]).to_node == net.segment(dest).from_node):
        times = tuple(entry_times(net, plan.path, plan.planned_at))
        if (path_distance(net, plan.path) == plan.distance
                and (times[-1] - plan.planned_at) / 60.0 == plan.est_time):
            progress.plan_path, progress.plan_times = plan.path, times
    return [step(net, model, progress, st.segment, st.t) for st in trip.atr.steps]


@dataclass(frozen=True)
class StageResult:
    stage: int
    auc: float
    warned_trips: int


def stage_auc(net: RoadNetwork, model: LogitModel, trips,
              weights: RoutingWeights = RoutingWeights()) -> list[StageResult]:
    """Detection quality by trip completeness.

    Each trip is scored at the last step inside the first k/``STAGES`` of its
    steps (ceiling); the per-stage AUC ranks those scores against the labels.
    A trip counts as warned at stage k if any warning was active at or
    before that step.  Unlabeled trips are left out, as in the offline
    evaluation.
    """
    trips = [t for t in trips if t.label != "unlabeled"]
    labels = [1 if t.label == "detour" else 0 for t in trips]
    if sum(labels) in (0, len(labels)):
        raise FitError("stage AUC is undefined without both classes")

    thetas = [[d.theta for d in run_trip(net, model, trip, weights)] for trip in trips]
    # per trip, the index of its first warning, or its length when none is raised
    first_warning = [next((i for i, v in enumerate(trip_thetas) if v > 0.0), len(trip_thetas))
                     for trip_thetas in thetas]
    results = []
    for stage in range(1, STAGES + 1):
        scores = []
        warned = 0
        for trip_thetas, first in zip(thetas, first_warning):
            idx = math.ceil(len(trip_thetas) * stage / STAGES)
            scores.append(trip_thetas[idx - 1])
            warned += first < idx
        auc, _ = rank_auc(scores, labels)
        results.append(StageResult(stage, auc, warned))
    return results
