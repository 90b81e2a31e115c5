"""Long-term phase: fares, detour utility, and revenue-neutral re-pricing.

Fares are piecewise linear: a base amount covers the first ``base_km`` and
``base_min`` of a trip, then per-km and per-minute rates apply to the excess
only.  Rates vary by time-of-day interval.  The detour utility of an
interval is the driver's net gain per minute of deliberately prolonging a
trip; the adjustment solver shifts base fare against the distance rate so
that the average trip price is unchanged while the utility drops to the
level where the fitted detour ratio reaches zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (FitError, InputError, check_non_negative, read_array, read_json_file,
                     read_number, read_string)
from .network import minute_of_day
from .trips import trajectory_distance_km, trajectory_minutes

DUTY_MINUTES = 60.0  # each driver's income is spread over one hour of duty


@dataclass(frozen=True)
class IntervalRate:
    start_min: float
    end_min: float
    rate_per_km: float  # fare per excess km
    rate_per_min: float  # fare per excess minute
    serving_speed: float  # km per minute while occupied

    @property
    def label(self) -> str:
        def hhmm(minute: float) -> str:
            return f"{int(minute) // 60:02d}:{int(minute) % 60:02d}"

        return f"{hhmm(self.start_min)}-{hhmm(self.end_min)}"


@dataclass(frozen=True)
class FareSchedule:
    city: str
    base_fare: float
    base_km: float  # distance covered by the base fare
    base_min: float  # minutes covered by the base fare
    operating_cost_per_km: float
    intervals: tuple[IntervalRate, ...]

    def __post_init__(self):
        if not self.intervals:
            raise InputError("schedule needs at least one interval")
        amounts = {"base_fare": self.base_fare, "base_km": self.base_km,
                   "base_min": self.base_min, "operating_cost_per_km": self.operating_cost_per_km}
        for name, value in amounts.items():
            check_non_negative(name, value)
        expected = 0.0
        for iv in self.intervals:
            if iv.start_min != expected:
                raise InputError(f"intervals must partition [0, 1440): gap at {iv.start_min}")
            if iv.end_min <= iv.start_min:
                raise InputError("interval end must exceed its start")
            if not all(math.isfinite(r) and r >= 0.0 for r in (iv.rate_per_km, iv.rate_per_min)):
                raise InputError(f"interval {iv.label}: rates must be finite and non-negative")
            if not (math.isfinite(iv.serving_speed) and iv.serving_speed > 0.0):
                raise InputError(f"interval {iv.label}: serving speed must be finite and positive")
            expected = iv.end_min
        if expected != 1440.0:
            raise InputError("intervals must end at minute 1440")

    def interval_index(self, minute: float) -> int:
        for i, iv in enumerate(self.intervals):
            if iv.start_min <= minute < iv.end_min:
                return i
        raise InputError(f"minute {minute} outside [0, 1440)")


def fare(schedule: FareSchedule, distance_km: float, duration_min: float,
         start_minute: float) -> float:
    """Trip price under the interval containing the start minute.

    Exactly the base fare when neither threshold is exceeded; the thresholds
    themselves are not charged (a trip of precisely ``base_km`` and
    ``base_min`` pays the base fare alone).
    """
    iv = schedule.intervals[schedule.interval_index(start_minute)]
    extra_km = max(distance_km - schedule.base_km, 0.0)
    extra_min = max(duration_min - schedule.base_min, 0.0)
    return schedule.base_fare + iv.rate_per_km * extra_km + iv.rate_per_min * extra_min


def compute_alpha4(total_income: float, driver_count: int) -> float:
    """Average driver income per minute: the opportunity cost of idling.

    Income per driver is spread over ``DUTY_MINUTES``.
    """
    if driver_count <= 0:
        raise InputError("driver count must be positive")
    return total_income / (driver_count * DUTY_MINUTES)


def detour_utility(schedule: FareSchedule, interval: int, alpha4: float) -> float:
    """Net driver gain per minute of prolonging a trip in this interval.

    Earn the metered rates at serving speed, pay operating cost and the
    opportunity cost ``alpha4`` of the minute (see ``compute_alpha4``).
    """
    iv = schedule.intervals[interval]
    return iv.rate_per_km * iv.serving_speed + iv.rate_per_min \
        - schedule.operating_cost_per_km * iv.serving_speed - alpha4


@dataclass(frozen=True)
class RatioUtilityFit:
    coefficient: float  # detour-ratio change per unit utility
    intercept: float
    u0: float | None  # utility at which the fitted ratio reaches zero
    r2: float


def fit_ratio_utility(points) -> RatioUtilityFit:
    """Least squares of detour ratio on detour utility.

    Too few points or constant utilities raise FitError: the fit is
    degenerate.  Points too large for the sums of squares to stay finite
    floats, as utilities beyond about 1e154 are, raise InputError.
    """
    pts = list(points)
    if len(pts) < 3:
        raise FitError("ratio/utility fit needs at least 3 points")
    us = [float(u) for u, _ in pts]
    rs = [float(r) for _, r in pts]
    u_mean = sum(us) / len(us)
    r_mean = sum(rs) / len(rs)
    try:
        suu = sum((u - u_mean) ** 2 for u in us)
        if suu == 0.0:
            raise FitError("utility values are constant; fit is degenerate")
        sur = sum((u - u_mean) * (r - r_mean) for u, r in zip(us, rs))
        coef = sur / suu
        intercept = r_mean - coef * u_mean
        ss_res = sum((r - (intercept + coef * u)) ** 2 for u, r in zip(us, rs))
        ss_tot = sum((r - r_mean) ** 2 for r in rs)
    except OverflowError:  # a square beyond the largest float
        coef = intercept = ss_res = ss_tot = math.inf
    if not all(map(math.isfinite, (coef, intercept, ss_res, ss_tot))):
        raise InputError(f"ratio/utility fit: utilities up to {max(map(abs, us))} or ratios up "
                         f"to {max(map(abs, rs))} are too large to fit")
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else (1.0 - ss_res / ss_tot if ss_tot else 0.0)
    u0 = -intercept / coef if coef != 0.0 else None
    return RatioUtilityFit(coef, intercept, u0, r2)


@dataclass(frozen=True)
class PriceAdjustment:
    delta_base_fare: float
    delta_rate_per_km: float
    delta_opportunity_cost: float
    price_residual: float  # average-trip-price equation after substitution
    utility_residual: float  # utility-target equation after substitution


def solve_price_adjustment(
    utility: float,
    u0: float,
    serving_speed: float,
    mean_excess_km: float,
    trip_count: int,
    driver_count: int,
) -> PriceAdjustment:
    """Base-fare / distance-rate shift holding the average trip price fixed.

    Two constraints pin the two unknowns: the average price must not move
    (so the rate change offsets the base-fare change over the mean excess
    distance), and the post-change utility must equal ``u0`` once the
    base-fare change has fed back into the opportunity cost.  Closed form,
    verified here by residual substitution: both residuals must be below
    1e-9, which amounts far from a tariff's scale (a utility near 1e12, a
    rate near 2**63) break by rounding, and then InputError is raised.
    """
    if mean_excess_km <= 0.0:
        raise InputError("interval unsolvable: mean excess distance is zero")
    if serving_speed <= 0.0 or trip_count <= 0 or driver_count <= 0:
        raise InputError("interval parameters must be positive")

    feedback = trip_count / (DUTY_MINUTES * driver_count)
    delta_f0 = (utility - u0) / (serving_speed / mean_excess_km + feedback)
    delta_rate = -delta_f0 / mean_excess_km
    delta_alpha4 = feedback * delta_f0

    price_residual = delta_f0 + delta_rate * mean_excess_km
    utility_residual = (utility + delta_rate * serving_speed - delta_alpha4) - u0
    if not (abs(price_residual) < 1e-9 and abs(utility_residual) < 1e-9):  # NaN fails too
        raise InputError(f"adjustment residuals {price_residual}, {utility_residual} are not "
                         "below 1e-9: the interval's amounts are too large to re-price")
    return PriceAdjustment(delta_f0, delta_rate, delta_alpha4, price_residual, utility_residual)


@dataclass(frozen=True)
class IntervalStats:
    """One interval's aggregates.  Every trip counts toward the trip, driver,
    income and excess figures; only labeled trips count toward the detour ratio."""

    interval: int
    trip_count: int
    labeled_count: int
    detour_count: int
    driver_count: int
    total_income: float
    mean_excess_km: float
    mean_excess_min: float

    @property
    def detour_ratio(self) -> float:
        """Detours among the interval's labeled trips; 0.0 when none is labeled."""
        return self.detour_count / self.labeled_count if self.labeled_count else 0.0


def interval_stats(net, schedule: FareSchedule, trips) -> list[IntervalStats]:
    """Per-interval traffic, detour, income, and excess-usage aggregates."""
    n = len(schedule.intervals)
    counts = [0] * n
    labeled = [0] * n
    detours = [0] * n
    drivers: list[set] = [set() for _ in range(n)]
    income = [0.0] * n
    excess_km = [0.0] * n
    excess_min = [0.0] * n
    for trip in trips:
        start_minute = minute_of_day(trip.atr.steps[0].t)
        i = schedule.interval_index(start_minute)
        counts[i] += 1
        if trip.label != "unlabeled":
            labeled[i] += 1
            detours[i] += trip.label == "detour"
        drivers[i].add(trip.driver_id)
        dist = trajectory_distance_km(net, trip.atr)
        minutes = trajectory_minutes(trip.atr)
        income[i] += fare(schedule, dist, minutes, start_minute)
        excess_km[i] += max(dist - schedule.base_km, 0.0)
        excess_min[i] += max(minutes - schedule.base_min, 0.0)
    return [
        IntervalStats(
            interval=i,
            trip_count=counts[i],
            labeled_count=labeled[i],
            detour_count=detours[i],
            driver_count=len(drivers[i]),
            total_income=income[i],
            mean_excess_km=excess_km[i] / counts[i] if counts[i] else 0.0,
            mean_excess_min=excess_min[i] / counts[i] if counts[i] else 0.0,
        )
        for i in range(n)
    ]


@dataclass(frozen=True)
class IntervalReportRow:
    stats: IntervalStats
    opportunity_cost: float | None
    utility: float | None
    adjustment: PriceAdjustment | None


def interval_report(
    net, schedule: FareSchedule, trips
) -> tuple[list[IntervalReportRow], RatioUtilityFit | None]:
    """Full long-term analysis: stats, utilities, fit, and adjustments.

    The target utility ``u0`` comes from regressing this dataset's
    per-interval detour ratio on its utility; an interval without a labeled
    trip has no ratio and stays out of the fit.  Intervals without traffic,
    and datasets where the fit is degenerate, leave the dependent columns
    unavailable rather than failing.
    """
    stats = interval_stats(net, schedule, trips)
    costs: list[float | None] = []
    utilities: list[float | None] = []
    for st in stats:
        if st.trip_count == 0 or st.driver_count == 0:
            costs.append(None)
            utilities.append(None)
            continue
        a4 = compute_alpha4(st.total_income, st.driver_count)
        costs.append(a4)
        utilities.append(detour_utility(schedule, st.interval, a4))

    points = [(u, st.detour_ratio) for st, u in zip(stats, utilities)
              if u is not None and st.labeled_count]
    try:
        fit = fit_ratio_utility(points)
        u0 = fit.u0
    except FitError:
        fit = u0 = None

    rows = []
    for st, a4, u in zip(stats, costs, utilities):
        adjustment = None
        if u is not None and u0 is not None and st.mean_excess_km > 0.0:
            adjustment = solve_price_adjustment(
                u, u0, schedule.intervals[st.interval].serving_speed,
                st.mean_excess_km, st.trip_count, st.driver_count,
            )
        rows.append(IntervalReportRow(st, a4, u, adjustment))
    return rows, fit


# ---------------------------------------------------------------------------
# operator tariff tables (city rates by time of day; cost is fuel per km)

_INTERVAL_BOUNDS = ((0.0, 360.0), (360.0, 720.0), (720.0, 1020.0),
                    (1020.0, 1260.0), (1260.0, 1440.0))


def _schedule(city, base_fare, base_km, base_min, per_km, per_min, speeds):
    intervals = tuple(
        IntervalRate(lo, hi, per_km[i], per_min[i], speeds[i])
        for i, (lo, hi) in enumerate(_INTERVAL_BOUNDS)
    )
    return FareSchedule(city, base_fare, base_km, base_min, 0.5, intervals)


DEFAULT_SCHEDULES = {
    "beijing": _schedule("beijing", 13.0, 3.0, 10.0,
                         (2.15, 1.80, 1.45, 1.50, 2.15),
                         (0.80, 0.80, 0.40, 0.80, 0.80),
                         (0.629, 0.467, 0.449, 0.435, 0.526)),
    "shanghai": _schedule("shanghai", 14.0, 3.0, 10.0,
                          (3.20, 2.30, 2.30, 2.30, 3.20),
                          (0.60, 0.70, 0.60, 0.70, 0.60),
                          (0.581, 0.382, 0.418, 0.359, 0.483)),
    "guangzhou": _schedule("guangzhou", 11.0, 2.0, 4.0,
                           (2.60, 2.50, 1.90, 2.30, 2.60),
                           (0.40, 0.40, 0.30, 0.40, 0.40),
                           (0.612, 0.442, 0.415, 0.409, 0.478)),
    "shenzhen": _schedule("shenzhen", 12.0, 3.0, 8.0,
                          (2.90, 2.05, 2.05, 2.30, 2.95),
                          (0.55, 0.65, 0.55, 0.65, 0.55),
                          (0.593, 0.397, 0.373, 0.403, 0.457)),
}


def schedule_from_dict(data: dict) -> FareSchedule:
    intervals = tuple(
        IntervalRate(*(read_number(iv[key], key) for key in (
            "start_min", "end_min", "rate_per_km", "rate_per_min",
            "serving_speed_km_per_min")))
        for iv in read_array(data["intervals"], "intervals")
    )
    city = read_string(data["city"], "city")
    return FareSchedule(city, *(read_number(data[key], key) for key in (
        "base_fare", "base_km", "base_min", "operating_cost_per_km")), intervals)


def load_schedule(path) -> FareSchedule:
    return read_json_file(path, "schedule", schedule_from_dict)
