"""Online phase: per-step scoring, warning state machine, staged evaluation.

Every segment entry re-plans the remainder of the trip and compares the
estimated trip totals (distance already covered plus the fresh plan, elapsed
time plus the fresh estimate) against the pickup-time recommendation.  On
the final step the remaining plan is empty, so the live scores reduce to the
offline features of the finished trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .classifier import FeatureVector, LogitModel, rank_auc
from .errors import FitError, InputError
from .network import RoadNetwork
from .routing import RoutePlanStep, RoutingWeights, route_plan
from .trips import TrajStep

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
    """Mutable per-trip detection state; one writer per trip."""

    trip_id: str
    dest_segment: str
    weights: RoutingWeights = RoutingWeights()
    steps: list[TrajStep] = field(default_factory=list)
    initial_plan: RoutePlanStep | None = None
    current_plan: RoutePlanStep | None = None
    prefix_km: float = 0.0  # running length of completed segments
    warning_active: bool = False
    history: list[StepDecision] = field(default_factory=list)


def begin_trip(trip_id: str, dest_segment: str,
               weights: RoutingWeights = RoutingWeights()) -> TripProgress:
    return TripProgress(trip_id=trip_id, dest_segment=dest_segment, weights=weights)


def online_scores(progress: TripProgress) -> tuple[float, float]:
    """Live excess-distance and excess-time ratios at the latest step."""
    if not progress.steps:
        raise InputError("no steps observed yet")
    initial = progress.initial_plan
    current = progress.current_plan
    est_km = progress.prefix_km + current.distance
    elapsed_min = (progress.steps[-1].t - progress.steps[0].t) / 60.0
    est_min = elapsed_min + current.est_time
    return est_km / initial.distance - 1.0, est_min / initial.est_time - 1.0


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
    pattern of the two ratios.
    """
    if not math.isfinite(t):
        raise InputError(f"trip {progress.trip_id!r}: timestamp {t} is not finite")
    seg = net.segment(segment)
    prev_seg = None
    if progress.steps:
        prev = progress.steps[-1]
        prev_seg = net.segment(prev.segment)
        if prev_seg.to_node != seg.from_node:
            raise InputError(
                f"trip {progress.trip_id!r}: segment {segment!r} does not connect "
                f"to {prev.segment!r}"
            )
        if t <= prev.t:
            raise InputError(f"trip {progress.trip_id!r}: timestamps must strictly increase")

    plan = route_plan(net, segment, progress.dest_segment, t, progress.weights)
    if progress.initial_plan is None and (plan.distance <= 0.0 or plan.est_time <= 0.0):
        raise InputError(f"trip {progress.trip_id!r}: degenerate initial plan")

    # all checks passed; mutate the per-trip state
    if prev_seg is not None:
        progress.prefix_km += prev_seg.length
    progress.steps.append(TrajStep(segment, t))
    progress.current_plan = plan
    if progress.initial_plan is None:
        progress.initial_plan = plan

    x1, x2 = online_scores(progress)
    theta = model.log_odds(FeatureVector(x1, x2))

    if theta > 0.0:
        action = "warn_maintained" if progress.warning_active else "warn_issued"
        progress.warning_active = True
    else:
        action = "warn_cancelled" if progress.warning_active else "none"
        progress.warning_active = False

    decision = StepDecision(
        step=len(progress.steps),
        segment=segment,
        t=t,
        extra_distance_ratio=x1,
        extra_time_ratio=x2,
        theta=theta,
        action=action,
        scenario=_scenario(x1, x2),
    )
    progress.history.append(decision)
    return decision


def run_trip(net: RoadNetwork, model: LogitModel, trip,
             weights: RoutingWeights = RoutingWeights()) -> list[StepDecision]:
    """Replay a recorded trip through the live detector."""
    progress = begin_trip(trip.trip_id, trip.atr.steps[-1].segment, weights)
    for st in trip.atr.steps:
        step(net, model, progress, st.segment, st.t)
    return progress.history


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
