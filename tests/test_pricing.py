import json
import math

import pytest
from hypothesis import given, strategies as st

from detourlab.errors import FitError, InputError
from detourlab.network import minute_of_day
from detourlab.pricing import (
    DEFAULT_SCHEDULES,
    FareSchedule,
    IntervalRate,
    compute_alpha4,
    detour_utility,
    fare,
    fit_ratio_utility,
    interval_report,
    interval_stats,
    load_schedule,
    schedule_from_dict,
    solve_price_adjustment,
)
from detourlab.simulate import SimConfig, generate_network, generate_trips

from conftest import schedule_json

BEIJING = DEFAULT_SCHEDULES["beijing"]
MORNING = 8 * 60.0  # inside 06:00-12:00


def test_fare_below_thresholds_is_base_fare():
    assert fare(BEIJING, 2.0, 5.0, MORNING) == 13.0


def test_fare_hand_value():
    # 10 km, 30 min in the 06:00-12:00 interval
    assert fare(BEIJING, 10.0, 30.0, MORNING) == 13.0 + 1.80 * 7.0 + 0.80 * 20.0
    assert fare(BEIJING, 10.0, 30.0, MORNING) == pytest.approx(41.6, abs=1e-12)


def test_fare_boundary_charges_nothing_extra():
    assert fare(BEIJING, 3.0, 10.0, MORNING) == 13.0


def test_fare_interval_selection():
    # same trip at night pays the night distance rate
    night = fare(BEIJING, 10.0, 30.0, 2 * 60.0)
    assert night == 13.0 + 2.15 * 7.0 + 0.80 * 20.0


@given(st.floats(0.0, 40.0), st.floats(0.0, 40.0))
def test_fare_monotone(d, t):
    base = fare(BEIJING, d, t, MORNING)
    assert fare(BEIJING, d + 0.5, t, MORNING) >= base
    assert fare(BEIJING, d, t + 0.5, MORNING) >= base


def test_fare_kinks_exactly_at_thresholds():
    eps = 1e-6
    assert fare(BEIJING, 3.0 + eps, 10.0, MORNING) > 13.0
    assert fare(BEIJING, 3.0 - eps, 10.0, MORNING) == 13.0
    assert fare(BEIJING, 3.0, 10.0 + eps, MORNING) > 13.0


def test_compute_alpha4():
    assert compute_alpha4(0.0, 10) == 0.0
    assert compute_alpha4(6000.0, 100) == 1.0
    assert compute_alpha4(6000.0 * 3, 100 * 3) == 1.0  # homogeneity
    with pytest.raises(InputError):
        compute_alpha4(100.0, 0)


def test_detour_utility_hand_value():
    got = detour_utility(BEIJING, 1, 1.0)  # 06:00-12:00
    assert got == pytest.approx(1.80 * 0.467 + 0.80 - 0.5 * 0.467 - 1.0, abs=1e-12)
    assert got == pytest.approx(0.4071, abs=1e-4)


def test_detour_utility_zero_when_costs_match_revenue():
    intervals = tuple(
        IntervalRate(lo, hi, 0.5, 0.8, 0.4)
        for lo, hi in ((0.0, 720.0), (720.0, 1440.0))
    )
    schedule = FareSchedule("test", 10.0, 3.0, 10.0, 0.5, intervals)
    assert detour_utility(schedule, 0, 0.8) == 0.0


def test_detour_utility_decreasing_in_opportunity_cost():
    lo = detour_utility(BEIJING, 1, 0.5)
    hi = detour_utility(BEIJING, 1, 1.5)
    assert hi < lo


def test_fit_exact_line():
    points = [(u, 0.04 * u - 0.008) for u in (0.0, 0.5, 1.0, 2.0)]
    fit = fit_ratio_utility(points)
    assert fit.coefficient == pytest.approx(0.04, abs=1e-12)
    assert fit.intercept == pytest.approx(-0.008, abs=1e-12)
    assert fit.u0 == pytest.approx(0.2, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "city,coef,intercept,expected_u0",
    [
        ("beijing", 0.0415, -0.0079, 0.1896),
        ("shanghai", 0.0365, -0.0066, 0.1796),
        ("guangzhou", 0.0395, -0.0020, 0.0516),
        ("shenzhen", 0.0230, 0.0008, -0.0349),
    ],
)
def test_u0_reproduces_published_fits(city, coef, intercept, expected_u0):
    assert -intercept / coef == pytest.approx(expected_u0, abs=0.002)


def test_fit_shift_moves_intercept_only():
    points = [(u, 0.04 * u - 0.008) for u in (0.0, 0.5, 1.0, 2.0)]
    shifted = [(u, r + 0.1) for u, r in points]
    a = fit_ratio_utility(points)
    b = fit_ratio_utility(shifted)
    assert b.coefficient == pytest.approx(a.coefficient, abs=1e-12)
    assert b.intercept == pytest.approx(a.intercept + 0.1, abs=1e-12)


def test_fit_degenerate_inputs():
    with pytest.raises(FitError):
        fit_ratio_utility([(1.0, 0.1), (1.0, 0.2), (1.0, 0.3)])
    with pytest.raises(FitError):
        fit_ratio_utility([(1.0, 0.1), (2.0, 0.2)])


@pytest.mark.parametrize("points", [
    [(1e200, 0.1), (-1e200, 0.2), (0.0, 0.3)],
    [(1.0, 1e200), (2.0, -1e200), (3.0, 0.0)],
    [(math.inf, 0.1), (1.0, 0.2), (2.0, 0.3)],
], ids=["huge_utility", "huge_ratio", "infinite_utility"])
def test_fit_too_large_to_square_is_an_input_error(points):
    # ** 2 would raise OverflowError, and an infinite utility gives NaN sums
    with pytest.raises(InputError, match="too large to fit"):
        fit_ratio_utility(points)


@pytest.mark.parametrize("utility, u0", [(2.0**63, 0.1), (1e12, 0.1), (math.nan, 0.0)],
                         ids=["2**63", "1e12", "nan"])
def test_solver_residuals_above_contract_are_an_input_error(utility, u0):
    with pytest.raises(InputError, match="residuals .* are not below 1e-9"):
        solve_price_adjustment(utility, u0, 0.45, 1.7, 500, 40)


def test_solver_no_change_at_target():
    adj = solve_price_adjustment(0.2, 0.2, 0.5, 5.0, 300, 10)
    assert adj.delta_base_fare == 0.0
    assert adj.delta_rate_per_km == 0.0


def test_solver_hand_value():
    # gap 0.2, v = 0.5, mean excess 5 km, 30 trips per driver-hour
    adj = solve_price_adjustment(0.4, 0.2, 0.5, 5.0, 300, 10)
    assert adj.delta_base_fare == pytest.approx(0.2 / (0.1 + 0.5), abs=1e-12)
    assert adj.delta_rate_per_km == pytest.approx(-0.2 / (0.1 + 0.5) / 5.0, abs=1e-12)


def test_solver_signs_and_residuals():
    for utility, u0 in ((0.9, 0.2), (0.35, 0.1), (1.4, -0.2)):
        adj = solve_price_adjustment(utility, u0, 0.45, 4.0, 500, 40)
        assert adj.delta_base_fare > 0
        assert adj.delta_rate_per_km < 0
        assert abs(adj.price_residual) < 1e-9
        assert abs(adj.utility_residual) < 1e-9


def test_solver_rejects_zero_excess():
    with pytest.raises(InputError):
        solve_price_adjustment(0.4, 0.2, 0.5, 0.0, 300, 10)


@pytest.fixture(scope="module")
def priced_dataset():
    cfg = SimConfig(seed=77, grid_dims=(7, 7), n_trips=600, gps_period_s=0.0,
                    behavior_mix={"normal": 0.8, "detour": 0.2})
    net = generate_network(cfg)
    trips, drivers = generate_trips(net, cfg)
    return net, trips, drivers


def test_interval_stats_cover_all_trips(priced_dataset):
    net, trips, _ = priced_dataset
    stats = interval_stats(net, BEIJING, trips)
    assert len(stats) == 5
    assert sum(s.trip_count for s in stats) == len(trips)
    assert sum(s.detour_count for s in stats) == sum(1 for t in trips if t.label == "detour")
    for s in stats:
        assert s.detour_count <= s.trip_count
        assert s.mean_excess_km >= 0 and s.mean_excess_min >= 0


def _unlabel(trips, keep):
    """``trips`` with the label of each trip for which ``keep`` is false set to unlabeled."""
    import dataclasses

    return [t if keep(i, t) else dataclasses.replace(t, label="unlabeled")
            for i, t in enumerate(trips)]


def test_detour_ratio_counts_only_labeled_trips(priced_dataset):
    net, trips, _ = priced_dataset
    # every other normal trip loses its label; detours keep theirs
    partly = _unlabel(trips, lambda i, t: t.label == "detour" or i % 2)
    full = interval_stats(net, BEIJING, trips)
    stats = interval_stats(net, BEIJING, partly)
    for st, before in zip(stats, full):
        members = [t for t in partly
                   if BEIJING.interval_index(minute_of_day(t.atr.steps[0].t)) == st.interval]
        labeled = [t for t in members if t.label != "unlabeled"]
        assert 0 < len(labeled) < len(members)
        assert st.labeled_count == len(labeled)
        assert st.detour_ratio == sum(t.label == "detour" for t in labeled) / len(labeled)
        # the solver's inputs keep every trip
        assert (st.trip_count, st.detour_count, st.driver_count, st.total_income,
                st.mean_excess_km) == (before.trip_count, before.detour_count,
                                       before.driver_count, before.total_income,
                                       before.mean_excess_km)


def test_interval_without_labeled_trips_stays_out_of_the_fit(priced_dataset):
    net, trips, _ = priced_dataset
    # the 00:00-06:00 interval keeps its trips but loses every label
    night = _unlabel(trips, lambda i, t: minute_of_day(t.atr.steps[0].t) >= 360.0)
    rows, fit = interval_report(net, BEIJING, night)
    assert rows[0].stats.trip_count > 0 and rows[0].stats.labeled_count == 0
    assert rows[0].utility is not None
    assert fit == fit_ratio_utility([(r.utility, r.stats.detour_ratio) for r in rows[1:]])
    assert rows[0].adjustment is not None  # its utility still meets the fitted target


def test_interval_report_rows_and_residuals(priced_dataset):
    net, trips, _ = priced_dataset
    rows, fit = interval_report(net, BEIJING, trips)
    assert len(rows) == len(BEIJING.intervals)
    solved = 0
    for row in rows:
        if row.adjustment is None:
            continue
        solved += 1
        st_ = row.stats
        adj = row.adjustment
        # average trip price unchanged
        assert abs(adj.delta_base_fare + adj.delta_rate_per_km * st_.mean_excess_km) < 1e-9
        # utility lands exactly on the target
        iv = BEIJING.intervals[st_.interval]
        new_utility = (
            (iv.rate_per_km + adj.delta_rate_per_km) * iv.serving_speed
            + iv.rate_per_min
            - BEIJING.operating_cost_per_km * iv.serving_speed
            - (row.opportunity_cost + adj.delta_opportunity_cost)
        )
        assert new_utility == pytest.approx(fit.u0, abs=1e-9)
    assert solved >= 4


def test_interval_report_all_normal_has_zero_ratio(priced_dataset):
    net, _, _ = priced_dataset
    cfg = SimConfig(seed=78, grid_dims=(5, 5), n_trips=120, gps_period_s=0.0,
                    behavior_mix={"normal": 1.0})
    net2 = generate_network(cfg)
    trips, _ = generate_trips(net2, cfg)
    rows, _ = interval_report(net2, BEIJING, trips)
    for row in rows:
        assert row.stats.detour_ratio == 0.0


def test_interval_report_empty_interval_marked_unavailable():
    cfg = SimConfig(seed=79, grid_dims=(4, 4), n_trips=10, gps_period_s=0.0)
    net = generate_network(cfg)
    trips, _ = generate_trips(net, cfg)
    # squeeze every trip into one interval by faking start times
    import dataclasses

    from detourlab.trips import AbstractTrajectory

    shifted = []
    for t in trips:
        delta = (8 * 60.0 - (t.atr.steps[0].t / 60.0) % 1440.0) * 60.0
        steps = tuple(
            dataclasses.replace(s, t=s.t + delta) for s in t.atr.steps
        )
        plan = dataclasses.replace(t.plan, planned_at=t.plan.planned_at + delta)
        shifted.append(dataclasses.replace(
            t, atr=AbstractTrajectory(t.trip_id, steps), plan=plan,
        ))
    rows, _ = interval_report(net, BEIJING, shifted)
    assert rows[1].stats.trip_count == len(shifted)
    for idx in (0, 2, 3, 4):
        assert rows[idx].stats.trip_count == 0
        assert rows[idx].utility is None
        assert rows[idx].adjustment is None


def test_schedule_save_load_roundtrip(tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule_json(BEIJING)), encoding="utf-8")
    assert load_schedule(path) == BEIJING


def test_schedule_validation():
    with pytest.raises(InputError):
        FareSchedule("x", 10.0, 3.0, 10.0, 0.5,
                     (IntervalRate(0.0, 720.0, 1.0, 1.0, 0.4),))  # does not reach 1440
    with pytest.raises(InputError):
        FareSchedule("x", 10.0, 3.0, 10.0, 0.5,
                     (IntervalRate(10.0, 1440.0, 1.0, 1.0, 0.4),))  # gap at 0
    for key, value in (("rate_per_km", math.nan), ("serving_speed_km_per_min", -1.0)):
        data = schedule_json(BEIJING)
        data["intervals"][2][key] = value
        with pytest.raises(InputError):
            schedule_from_dict(data)


@pytest.mark.parametrize("key,bad", [("base_fare", "13.0"), ("rate_per_km", True)])
def test_schedule_rejects_strings_and_booleans(key, bad):
    data = schedule_json(BEIJING)
    (data if key == "base_fare" else data["intervals"][1])[key] = bad
    with pytest.raises(InputError):
        schedule_from_dict(data)


@pytest.mark.parametrize("bad", [{"0": {}}, ""], ids=["object", "string"])
def test_schedule_intervals_must_be_an_array(bad):
    data = schedule_json(BEIJING)
    data["intervals"] = bad
    with pytest.raises(InputError, match="^intervals must be an array, got "):
        schedule_from_dict(data)


def test_schedule_rejects_a_city_that_is_not_a_string():
    data = schedule_json(BEIJING)
    data["city"] = 7
    with pytest.raises(InputError):
        schedule_from_dict(data)


def test_default_schedules_complete():
    assert set(DEFAULT_SCHEDULES) == {"beijing", "shanghai", "guangzhou", "shenzhen"}
    for schedule in DEFAULT_SCHEDULES.values():
        assert len(schedule.intervals) == 5
        assert schedule.operating_cost_per_km == 0.5
