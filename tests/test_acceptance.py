"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from detourlab.classifier import (
    LogitModel,
    evaluate_roc_auc,
    log_likelihood,
    log_likelihood_gradient,
    offline_features,
    train,
)
from detourlab.cli import main as cli_main
from detourlab.errors import NoRouteError
from detourlab.matching import MatchConfig, candidates_for, viterbi_decode
from detourlab.online import run_trip, stage_auc
from detourlab.pricing import DEFAULT_SCHEDULES, fare, solve_price_adjustment
from detourlab.routing import route_plan
from detourlab.simulate import SimConfig, generate_network, generate_trips
from detourlab.trips import (
    REJECT_DESTINATION,
    REJECT_SPEED,
    REJECT_TIME,
    filter_dataset,
)

from conftest import line_network
from test_matching import enumeration_best, random_walk_points
from test_routing import WEIGHT_CHOICES, brute_force_best, random_graph
from test_trips import chain_trip, equator_point_at_km

BASE_T = 1543622400.0


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {description}")


def test_01_routing_exactness():
    with criterion(1, "route plan equals brute-force enumeration on 200 random graphs"):
        started = time.monotonic()
        rng = np.random.default_rng(20240101)
        graphs = 0
        probes = 0
        while graphs < 200:
            net = random_graph(rng, int(rng.integers(3, 9)))
            seg_ids = sorted(net.segments)
            if len(seg_ids) < 2:
                continue
            graphs += 1
            for _ in range(6):
                origin = seg_ids[int(rng.integers(len(seg_ids)))]
                dest = seg_ids[int(rng.integers(len(seg_ids)))]
                depart = BASE_T + float(rng.uniform(0.0, 2880.0)) * 60.0
                weights = WEIGHT_CHOICES[int(rng.integers(len(WEIGHT_CHOICES)))]
                expected = brute_force_best(net, origin, dest, depart, weights)
                if expected is None:
                    with pytest.raises(NoRouteError):
                        route_plan(net, origin, dest, depart, weights)
                    continue
                plan = route_plan(net, origin, dest, depart, weights)
                cost = weights.w1 * plan.distance + weights.w2 * plan.est_time
                assert cost == expected[0], (origin, dest, depart, weights)
                assert plan.path == expected[1]
                probes += 1
        elapsed = time.monotonic() - started
        assert probes >= 600
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_02_mle_gradient_matches_finite_differences():
    with criterion(2, "analytic likelihood gradient matches central differences"):
        rng = np.random.default_rng(20240102)
        h = 1e-5
        for _ in range(4):
            n = 500
            x = rng.normal(0.0, 0.5, size=(n, 2))
            truth = rng.uniform(-2.0, 2.0, size=3)
            logits = truth[0] + x @ truth[1:]
            y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
            X = np.column_stack([np.ones(n), x])
            for _ in range(5):
                beta = rng.uniform(-3.0, 3.0, size=3)
                grad = log_likelihood_gradient(beta, X, y)
                fd = np.zeros(3)
                for k in range(3):
                    hi, lo = beta.copy(), beta.copy()
                    hi[k] += h
                    lo[k] -= h
                    fd[k] = (log_likelihood(hi, X, y) - log_likelihood(lo, X, y)) / (2 * h)
                rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
                assert rel < 1e-6, rel


def test_03_offline_auc_on_planted_data():
    with criterion(3, "offline AUC >= 0.95 on 10000 planted trips"):
        started = time.monotonic()
        cfg = SimConfig(
            seed=20240103,
            grid_dims=(10, 10),
            n_trips=10000,
            behavior_mix={"normal": 0.80, "detour": 0.10,
                          "avoid_congestion": 0.05, "shortcut": 0.05},
            detour_inflation=0.3,
            gps_period_s=10.0,
            gps_noise_m=10.0,
            n_drivers=120,
        )
        net = generate_network(cfg)
        trips, _ = generate_trips(net, cfg)
        assert len(trips) == 10000
        samples = [(offline_features(net, t), 1 if t.label == "detour" else 0)
                   for t in trips]
        report = train(samples, ridge=1e-6)
        auc, _ = evaluate_roc_auc(report.model, samples)
        elapsed = time.monotonic() - started
        assert auc >= 0.95, auc
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_04_online_offline_consistency():
    with criterion(4, "final-step online scores equal offline features (1e-9)"):
        cfg = SimConfig(
            seed=20240104,
            grid_dims=(8, 8),
            n_trips=1000,
            behavior_mix={"normal": 0.6, "detour": 0.2,
                          "avoid_congestion": 0.1, "shortcut": 0.1},
            gps_period_s=0.0,
        )
        net = generate_network(cfg)
        trips, _ = generate_trips(net, cfg)
        model = LogitModel(-8.8620, 41.5258, 28.5575)
        for trip in trips:
            fv = offline_features(net, trip)
            last = run_trip(net, model, trip)[-1]
            assert abs(last.extra_distance_ratio - fv.extra_distance_ratio) < 1e-9
            assert abs(last.extra_time_ratio - fv.extra_time_ratio) < 1e-9


def test_05_stage_auc_shape():
    with criterion(5, "stage-10 AUC >= 0.90 and >= stage-1 AUC on early detours"):
        started = time.monotonic()
        cfg = SimConfig(
            seed=20240105,
            grid_dims=(9, 9),
            n_trips=400,
            behavior_mix={"normal": 0.75, "detour": 0.25},
            detour_inflation=0.3,
            gps_period_s=0.0,
        )
        net = generate_network(cfg)
        trips, _ = generate_trips(net, cfg)  # loops start inside the first half
        samples = [(offline_features(net, t), 1 if t.label == "detour" else 0)
                   for t in trips]
        model = train(samples, ridge=1e-6).model
        stages = stage_auc(net, model, trips)
        elapsed = time.monotonic() - started
        assert stages[-1].auc >= 0.90, stages[-1]
        assert stages[-1].auc >= stages[0].auc, (stages[0], stages[-1])
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_06_map_matching_oracle():
    with criterion(6, "Viterbi equals exhaustive enumeration on 100 fixtures"):
        net = generate_network(SimConfig(seed=20240106, grid_dims=(5, 5)))
        rng = np.random.default_rng(20240106)
        cfg = MatchConfig(candidate_radius=80.0)
        accepted = 0
        while accepted < 100:
            points = random_walk_points(net, rng, int(rng.integers(2, 7)))
            counts = [len(candidates_for(net, p, cfg.candidate_radius)) for p in points]
            if not all(1 <= c <= 4 for c in counts):
                continue
            expected = enumeration_best(net, points, cfg)
            if expected is None:
                continue
            assert viterbi_decode(net, points, cfg) == expected
            accepted += 1


def test_07_fare_arithmetic():
    with criterion(7, "published-tariff fare arithmetic is exact"):
        beijing = DEFAULT_SCHEDULES["beijing"]
        morning = 8 * 60.0
        assert fare(beijing, 10.0, 30.0, morning) == 41.6
        assert fare(beijing, 3.0, 10.0, morning) == 13.0
        assert fare(beijing, 2.0, 5.0, morning) == 13.0


def test_08_u0_reproduction():
    with criterion(8, "utility intercepts match the published fits within 0.002"):
        published = {
            "beijing": (0.0415, -0.0079, 0.1896),
            "shanghai": (0.0365, -0.0066, 0.1796),
            "guangzhou": (0.0395, -0.0020, 0.0516),
            "shenzhen": (0.0230, 0.0008, -0.0349),
        }
        for city, (coef, intercept, expected) in published.items():
            u0 = -intercept / coef
            assert abs(u0 - expected) <= 0.002, (city, u0)


def test_09_pricing_solver_soundness():
    with criterion(9, "solver raises base fare, cuts km rate, zero residuals"):
        rng = np.random.default_rng(20240109)
        for _ in range(200):
            u0 = float(rng.uniform(-0.3, 0.3))
            utility = u0 + float(rng.uniform(1e-6, 2.0))  # every interval above target
            adj = solve_price_adjustment(
                utility, u0,
                serving_speed=float(rng.uniform(0.3, 0.7)),
                mean_excess_km=float(rng.uniform(0.5, 8.0)),
                trip_count=int(rng.integers(1, 2000)),
                driver_count=int(rng.integers(1, 200)),
            )
            assert adj.delta_base_fare > 0
            assert adj.delta_rate_per_km < 0
            assert abs(adj.price_residual) < 1e-9
            assert abs(adj.utility_residual) < 1e-9


def test_10_filtering_conformance():
    with criterion(10, "six-trip screening fixture: 3 kept, 3 tagged rejections"):
        net = line_network([1.0] * 12)
        trips = [
            chain_trip(net, 1, 59.0, trip_id="too-short"),
            chain_trip(net, 10, 10.0 / 121.0 * 3600.0, trip_id="too-fast"),
            chain_trip(net, 10, 900.0, trip_id="changed",
                       actual=equator_point_at_km(10.0),
                       recorded=equator_point_at_km(10.0 + 0.995 * 10.0)),
            chain_trip(net, 10, 900.0, trip_id="clean-1"),
            chain_trip(net, 9, 800.0, trip_id="clean-2"),
            chain_trip(net, 8, 700.0, trip_id="clean-3"),
        ]
        kept, rejected = filter_dataset(net, trips)
        assert [t.trip_id for t in kept] == ["clean-1", "clean-2", "clean-3"]
        assert [(t.trip_id, r) for t, r in rejected] == [
            ("too-short", REJECT_TIME),
            ("too-fast", REJECT_SPEED),
            ("changed", REJECT_DESTINATION),
        ]


def test_11_pipeline_determinism(tmp_path):
    with criterion(11, "two seeded pipeline runs produce byte-identical outputs"):
        outputs = []
        for run_dir in (tmp_path / "run1", tmp_path / "run2"):
            run_dir.mkdir()
            net = run_dir / "network.json"
            assert cli_main(["gen-network", "--seed", "17", "--rows", "6",
                             "--cols", "6", "--out", str(net)]) == 0
            data = run_dir / "data"
            assert cli_main(["gen-trips", "--network", str(net), "--seed", "17",
                             "--n-trips", "200", "--out", str(data)]) == 0
            filt = run_dir / "filtered"
            assert cli_main(["filter", "--network", str(net),
                             "--trips", str(data / "trips.jsonl"),
                             "--out", str(filt)]) == 0
            model = run_dir / "model.json"
            assert cli_main(["train", "--network", str(net),
                             "--trips", str(filt / "kept.jsonl"),
                             "--ridge", "1e-6", "--out", str(model)]) == 0
            roc = run_dir / "roc.csv"
            assert cli_main(["eval", "--network", str(net), "--model", str(model),
                             "--trips", str(filt / "kept.jsonl"),
                             "--out", str(roc)]) == 0
            intervals = run_dir / "intervals.csv"
            assert cli_main(["pricing", "--network", str(net),
                             "--trips", str(filt / "kept.jsonl"),
                             "--schedule", "beijing", "--out", str(intervals)]) == 0
            report = run_dir / "report"
            assert cli_main(["report", "--network", str(net), "--model", str(model),
                             "--trips", str(filt / "kept.jsonl"),
                             "--schedule", "beijing", "--out", str(report)]) == 0
            outputs.append({
                "network.json": net.read_bytes(),
                "trips.jsonl": (data / "trips.jsonl").read_bytes(),
                "kept.jsonl": (filt / "kept.jsonl").read_bytes(),
                "model.json": model.read_bytes(),
                "roc.csv": roc.read_bytes(),
                "intervals.csv": intervals.read_bytes(),
                "report/roc.csv": (report / "roc.csv").read_bytes(),
                "report/stage_auc.csv": (report / "stage_auc.csv").read_bytes(),
                "report/intervals.csv": (report / "intervals.csv").read_bytes(),
                "report/detour_ratio.svg": (report / "detour_ratio.svg").read_bytes(),
            })
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
