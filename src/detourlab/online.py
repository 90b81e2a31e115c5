"""Online phase: per-step scoring, warning state machine, staged evaluation.

Every segment entry re-plans the remainder of the trip and compares the
estimated trip totals (distance already covered plus the fresh plan, elapsed
time plus the fresh estimate) against the pickup-time recommendation.  On
the final step the remaining plan is empty, so the live scores reduce to the
offline features of the finished trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classifier import LogitModel, excess_ratios, rank_auc
from .errors import FitError, InputError
from .network import RoadNetwork
from .routing import RoutePlanStep, RoutingWeights, route_plan

ACTIONS = ("none", "warn_issued", "warn_maintained", "warn_cancelled")
SCENARIOS = ("worse", "longer_but_faster", "shorter_but_slower", "better", "mixed_zero")
STAGES = 10  # completeness stages of stage_auc: the first 10%, 20%, ..., 100% of steps


@dataclass(frozen=True)
class StepDecision:
    step: int  # 1-based index in the trajectory
    segment: str
    t: float
    extra_distance_ratio: float
    extra_time_ratio: float
    theta: float
    action: str
    scenario: str


@dataclass
class TripProgress:
    """Mutable per-trip detection state; one writer per trip.

    Its size does not grow with the trip: each step re-plans from the new
    segment and scores the estimated totals against ``initial_plan``, so no
    past step, plan or decision is kept.
    """

    trip_id: str
    dest_segment: str
    weights: RoutingWeights = RoutingWeights()
    initial_plan: RoutePlanStep | None = None  # the pickup recommendation
    step_count: int = 0
    first_t: float = 0.0  # entry time of the first step, once there is one
    last_segment: str | None = None
    last_t: float = 0.0
    prefix_km: float = 0.0  # running length of completed segments
    warning_active: bool = False


def begin_trip(trip_id: str, dest_segment: str,
               weights: RoutingWeights = RoutingWeights()) -> TripProgress:
    return TripProgress(trip_id=trip_id, dest_segment=dest_segment, weights=weights)


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
        raise InputError(f"trip {progress.trip_id!r}: timestamp {t} is not finite")
    seg = net.segment(segment)
    first_t = t
    prefix_km = progress.prefix_km
    if progress.last_segment is not None:
        prev_seg = net.segment(progress.last_segment)
        if prev_seg.to_node != seg.from_node:
            raise InputError(
                f"trip {progress.trip_id!r}: segment {segment!r} does not connect "
                f"to {progress.last_segment!r}"
            )
        if t <= progress.last_t:
            raise InputError(f"trip {progress.trip_id!r}: timestamps must strictly increase")
        first_t = progress.first_t
        prefix_km += prev_seg.length

    plan = route_plan(net, segment, progress.dest_segment, t, progress.weights)
    initial = plan if progress.initial_plan is None else progress.initial_plan
    fv = excess_ratios(prefix_km + plan.distance, (t - first_t) / 60.0 + plan.est_time,
                       initial, progress.trip_id)
    theta = model.log_odds(fv)
    if theta > 0.0:
        action = "warn_maintained" if progress.warning_active else "warn_issued"
    else:
        action = "warn_cancelled" if progress.warning_active else "none"

    # all checks passed; mutate the per-trip state
    progress.initial_plan = initial
    progress.step_count += 1
    progress.first_t = first_t
    progress.last_segment = segment
    progress.last_t = t
    progress.prefix_km = prefix_km
    progress.warning_active = theta > 0.0

    x1, x2 = fv.extra_distance_ratio, fv.extra_time_ratio
    return StepDecision(
        step=progress.step_count,
        segment=segment,
        t=t,
        extra_distance_ratio=x1,
        extra_time_ratio=x2,
        theta=theta,
        action=action,
        scenario=_scenario(x1, x2),
    )


def run_trip(net: RoadNetwork, model: LogitModel, trip,
             weights: RoutingWeights = RoutingWeights()) -> list[StepDecision]:
    """Replay a recorded trip through the live detector."""
    progress = begin_trip(trip.trip_id, trip.atr.steps[-1].segment, weights)
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
    before that step.
    """
    labels = [1 if t.label == "detour" else 0 for t in trips]
    if sum(labels) in (0, len(labels)):
        raise FitError("stage AUC is undefined without both classes")

    thetas = [[d.theta for d in run_trip(net, model, trip, weights)] for trip in trips]
    results = []
    for stage in range(1, STAGES + 1):
        scores = []
        warned = 0
        for trip_thetas in thetas:
            idx = math.ceil(len(trip_thetas) * stage / STAGES)
            scores.append(trip_thetas[idx - 1])
            if any(v > 0.0 for v in trip_thetas[:idx]):
                warned += 1
        auc, _ = rank_auc(scores, labels)
        results.append(StageResult(stage, auc, warned))
    return results
