"""Detour-fraud analytics for e-hailing trips.

Offline classification of finished trips, live per-step warnings, and
long-term fare-policy analysis, validated on seeded synthetic road networks
and simulated trips with planted driver behaviors.
"""

from .classifier import (
    FeatureVector,
    LogitModel,
    TrainReport,
    evaluate_roc_auc,
    offline_features,
    rank_auc,
    train,
)
from .errors import (
    DataFormatError,
    DetourlabError,
    FitError,
    InputError,
    MatchError,
    NoRouteError,
)
from .matching import MatchConfig, match_trajectory
from .network import (
    GpsPoint,
    LatLng,
    Node,
    RoadNetwork,
    Segment,
    haversine_km,
    load_network,
    minute_of_day,
    save_network,
    segment_travel_time,
)
from .online import StepDecision, TripProgress, begin_trip, run_trip, stage_auc, step
from .pricing import (
    DEFAULT_SCHEDULES,
    FareSchedule,
    IntervalRate,
    PriceAdjustment,
    RatioUtilityFit,
    compute_alpha4,
    detour_utility,
    fare,
    fit_ratio_utility,
    interval_report,
    solve_price_adjustment,
)
from .routing import RoutePlanStep, RoutingWeights, path_distance, path_est_time, route_plan
from .simulate import SimConfig, generate_network, generate_trips
from .trips import (
    AbstractTrajectory,
    DriverRecord,
    FilterRules,
    TrajStep,
    TripRecord,
    destination_change_probability,
    filter_dataset,
    load_trips,
    save_trips,
    trajectory_distance_km,
    trajectory_minutes,
)

__version__ = "0.1.0"
