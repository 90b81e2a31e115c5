"""One benchmark process: build the inputs, set up, or run a workload.

``run.py`` starts this file in fresh processes, from the root of a checkout
with ``PYTHONPATH=src``:

    python3 perfbench/worker.py gen   --workload W --seed S --dir D
    python3 perfbench/worker.py setup --workload W --seed S --dir D
    python3 perfbench/worker.py run   --workload W --seed S --dir D --seconds N --trace 0|1

Each prints one JSON object as the last line of its standard output.  Input
generation runs in its own process so that it stays out of the workload's
peak memory, and set-up is timed from the start of this file, before
``detourlab`` is imported.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import ROUTE_PLAN_CALLERS, Tracer  # noqa: E402

WORKLOADS = ("pipeline", "match")

# One fixed 10x10 city network (run_pipeline.py's default seed); the workload
# seed draws the trips on it.
NETWORK_SEED = 7
# run_pipeline.py's night-heavy behaviour mix, used for every simulated trip set
BEHAVIOR_MIX = {"normal": 0.82, "detour": 0.08, "avoid_congestion": 0.05, "shortcut": 0.05}

# pipeline: every pass runs the five commands on run_pipeline.py's default
# inputs (seed 7), cut to PIPELINE_TRIPS trips so that a pass takes one to two
# seconds.  The inputs ignore --seed on purpose: per-trip planning cost is so
# heavy-tailed that seeded trip sets of this size differ 2-5x in wall time
# (interquartile range 67% of the median over 30 sets of 150 trips).
PIPELINE_SEED = 7
PIPELINE_TRIPS = 200
# match: noisy GPS traces (10 s period, 10 m noise), so that a round takes one
# to three seconds.  A p90 would need 100 traces, whose rounds are too long to
# filter out other load.
MATCH_TRIPS = 50

# A round runs every operation of the workload once.  Rounds repeat until the
# run's seconds are spent, at least MIN_ROUNDS times; each operation counts at
# its fastest round.  The planner builds its per-goal lower-bound tables on
# first use, inside the first round, so the fastest round leaves them out
# without a warm-up in set-up.
MIN_ROUNDS = 4


def _paths(d: Path) -> dict[str, Path]:
    return {
        "network": d / "network.json",
        "trips": d / "trips.jsonl",
        "config": d / "config.json",
        "reference": d / "reference",
    }


# ---------------------------------------------------------------------------
# inputs


def _sim_config(seed: int, n_trips: int, gps: bool):
    from detourlab.simulate import SimConfig

    return SimConfig(
        seed=seed,
        grid_dims=(10, 10),
        n_trips=n_trips,
        n_drivers=max(10, n_trips // 15),
        behavior_mix=dict(BEHAVIOR_MIX),
        night_detour_boost=3.0,
        gps_period_s=10.0 if gps else 0.0,
        gps_noise_m=10.0,
    )


def generate(workload: str, seed: int, d: Path) -> None:
    from detourlab import cli, network, simulate, trips

    p = _paths(d)
    if workload == "pipeline":
        config = cli.RunConfig(sim=_sim_config(PIPELINE_SEED, PIPELINE_TRIPS, False),
                               ridge=1e-6)
        p["config"].write_text(json.dumps(config.to_dict(), indent=2) + "\n")
        for name, code, text in pipeline_pass(cli, p["config"], p["reference"]):
            if code != 0:
                raise SystemExit(f"reference pass: {name} exited {code}: {text}")
        return

    net = simulate.generate_network(_sim_config(NETWORK_SEED, 1, False))
    network.save_network(net, p["network"])
    sim, _ = simulate.generate_trips(net, _sim_config(seed, MATCH_TRIPS, True))
    trips.save_trips(sim, p["trips"])


# ---------------------------------------------------------------------------
# set-up: import detourlab and load the inputs through the package's loaders


def setup(workload: str, d: Path, tracer=None) -> dict:
    from detourlab import cli, network, trips

    if tracer is not None:
        tracer.install()
    p = _paths(d)
    if workload == "pipeline":
        code, text = _cli(cli, ["gen-network", "--config", p["config"], "--out", p["network"]])
        if code != 0:
            raise SystemExit(f"gen-network exited {code}: {text}")
        return {}
    return {"net": network.load_network(p["network"]), "trips": trips.load_trips(p["trips"])}


def _cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# workloads.  An operation record is (ok, seconds, work), where work is what
# ops_per_s counts.  ``one_round()`` runs the workload's fixed list of
# operations once, in order, and returns one record per operation.


def timed_rounds(one_round, seconds: float, trace: bool) -> list[list]:
    """The records of each round; a traced run is one round.

    Every round runs the same operations, so which operations are measured
    never depends on how fast they run; the seconds decide only how many
    rounds run.
    """
    t_start = time.perf_counter()
    rounds = [one_round()]
    # start another round only if it is likely to end within the seconds
    while not trace and (len(rounds) < MIN_ROUNDS or (
            time.perf_counter() + (time.perf_counter() - t_start) / len(rounds)
            <= t_start + seconds)):
        rounds.append(one_round())
    return rounds


PIPELINE_COMMANDS = ("gen-network", "gen-trips", "filter", "train", "report")


def pipeline_pass(cli, config: Path, out: Path):
    """Run the five commands into ``out``, stopping at the first that fails.

    Yields (command, exit code, output) after each command; the caller's
    time between yields is the command's own.
    """
    net, data, filt, model, rep = (out / "network.json", out / "data", out / "filtered",
                                   out / "model.json", out / "report")
    argvs = (
        ["gen-network", "--config", config, "--out", net],
        ["gen-trips", "--config", config, "--network", net, "--out", data],
        ["filter", "--network", net, "--trips", data / "trips.jsonl", "--out", filt],
        ["train", "--config", config, "--network", net, "--trips", filt / "kept.jsonl",
         "--out", model],
        ["report", "--network", net, "--model", model, "--trips", filt / "kept.jsonl",
         "--schedule", "beijing", "--out", rep],
    )
    out.mkdir(parents=True)
    for name, argv in zip(PIPELINE_COMMANDS, argvs):
        code, text = _cli(cli, argv)
        yield name, code, text
        if code != 0:
            return


def run_pipeline(d: Path, seconds: float, trace: bool):
    """One operation: a pass of the five commands, checked against the
    reference pass that input generation made in another process."""
    import shutil

    from detourlab import cli

    p = _paths(d)
    reference = _tree_bytes(p["reference"])
    errors, per_cmd, early = [], {c: [] for c in PIPELINE_COMMANDS}, []
    out = d / "pass"

    def one_round():
        shutil.rmtree(out, ignore_errors=True)
        total, ok = 0.0, True
        t0 = time.perf_counter()
        for name, code, text in pipeline_pass(cli, p["config"], out):
            dt = time.perf_counter() - t0
            total += dt
            per_cmd[name].append(dt)
            if code != 0:
                ok = False
                errors.append(f"{name} exited {code}: {text.strip()[-300:]}")
            t0 = time.perf_counter()
        if ok:
            rows = (out / "report" / "stage_auc.csv").read_text().splitlines()
            early.append(float(rows[3].split(",")[1]))  # header, then stages 1..10
            # every pass runs on the same inputs, so every artifact must repeat byte for byte
            artifacts = _tree_bytes(out)
            if artifacts != reference:
                ok = False
                differ = sorted(k for k in artifacts.keys() | reference.keys()
                                if artifacts.get(k) != reference.get(k))
                errors.append(f"pass differs from the reference pass in {differ}")
        return [(ok, total, 1)]

    rounds = timed_rounds(one_round, seconds, trace)
    extra = {f"{c.replace('-', '_')}_s": (min(v), "s") for c, v in per_cmd.items() if v}
    extra["run_s"] = (min(dt for (_, dt, _), in rounds), "s")
    extra["trips_per_pass"] = (PIPELINE_TRIPS, "count")
    if early:
        extra["early_auc"] = (statistics.median(early), "ratio")
    return rounds, extra, errors


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
            if f.is_file()}


def run_match(inputs, seconds: float, trace: bool):
    from detourlab import matching
    from detourlab.errors import MatchError

    net, trips = inputs["net"], inputs["trips"]
    cfg = matching.MatchConfig()
    errors, exact = [], {}

    def one_round():
        ops = []
        for trip in trips:
            t0 = time.perf_counter()
            try:
                atr = matching.match_trajectory(net, trip.raw_gps, cfg, trip.trip_id)
            except MatchError as exc:
                atr, problem = None, f"MatchError: {exc}"
            else:
                problem = _trajectory_problem(net, atr, trip)
            dt = time.perf_counter() - t0
            if problem:
                errors.append(f"trip {trip.trip_id}: {problem}")
            ops.append((not problem, dt, len(trip.raw_gps)))
            exact[trip.trip_id] = atr is not None and (
                [s.segment for s in atr.steps] == [s.segment for s in trip.atr.steps])
        return ops

    rounds = timed_rounds(one_round, seconds, trace)
    extra = {"match_exact_ratio": (sum(exact.values()) / len(exact), "ratio"),
             "match_exact_of": (len(exact), "count")}
    return rounds, extra, errors


def _trajectory_problem(net, atr, trip) -> str | None:
    """Why ``atr`` is not a valid matched trajectory of ``trip``, or None."""
    if atr.trip_id != trip.trip_id or not atr.steps:
        return "empty trajectory or wrong trip id"
    if atr.steps[0].t != trip.raw_gps[0].t:
        return "first step does not start at the first GPS fix"
    for a, b in zip(atr.steps, atr.steps[1:]):
        if b.t <= a.t:
            return f"timestamps do not increase at {b.segment}"
        if net.segment(a.segment).to_node != net.segment(b.segment).from_node:
            return f"segments {a.segment} -> {b.segment} do not connect"
    return None


# ---------------------------------------------------------------------------
# statistics


def summarize(rounds) -> tuple[dict, dict]:
    """Latency figures from each round's (ok, seconds, work) records.

    Each operation counts at its fastest round: other load on the machine
    only ever slows an operation down, and it comes and goes within seconds,
    so the minimum over rounds some seconds apart is the steadiest estimate
    of the operation's own cost.  Latency is per unit of work: per GPS point,
    or per pipeline pass.  A failed operation counts as +inf.  There is no
    tail percentile: a p90 needs ten samples beyond it, and a round holds 50
    traces or one pass.
    """
    ops = [(all(r[i][0] for r in rounds), min(r[i][1] for r in rounds), rounds[0][i][2])
           for i in range(len(rounds[0]))]
    lat = sorted(dt * 1e3 / work if ok else math.inf for ok, dt, work in ops)
    extra = {
        "ops_per_round": (len(ops), "count"),
        "rounds": (len(rounds), "count"),
        "ops_per_s": (sum(w for ok, _, w in ops if ok) / sum(dt for _, dt, _ in ops), "1/s"),
        "op_max_ms": (lat[-1], "ms"),
    }
    # nearest-rank median
    return {"op_p50_ms": (lat[math.ceil(len(lat) / 2) - 1], "ms")}, extra


# ---------------------------------------------------------------------------
# per-layer figures of a traced run


def layer_metrics(tracer) -> tuple[dict, dict]:
    """(per_layer metrics for the result, every span total for the report)."""
    totals = tracer.totals()
    c = tracer.counts

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    # one route_plan span name per caller module
    plans = [totals.get(f"routing.route_plan.{caller}", {"calls": 0, "self_s": 0.0})
             for caller in ROUTE_PLAN_CALLERS]
    plan_calls = sum(t["calls"] for t in plans)
    m = {"routing.route_plan.calls": (plan_calls, "count"),
         "routing.route_plan.self_s": (sum(t["self_s"] for t in plans), "s")}
    for caller, t in zip(ROUTE_PLAN_CALLERS, plans):
        m[f"routing.route_plan.calls.{caller}"] = (t["calls"], "count")
    missing = []
    heap = {k: c[k] for k in ("routing.heap_pushes", "routing.heap_pops")}
    if plan_calls and not all(heap.values()):
        missing += list(heap)  # the shim saw nothing although the planner ran
    else:
        for k, v in heap.items():
            m[k] = (v, "count")
    m["routing.loop_plans"] = (c["routing.loop_plans"], "count")
    m["online.step.calls"] = (calls("online.step"), "count")
    cand_calls = calls("matching.candidates_for")
    m["matching.candidates_for.calls"] = (cand_calls, "count")
    m["matching.candidates_per_point"] = (
        c["matching.candidates"] / cand_calls if cand_calls else 0.0, "ratio")
    km_calls = c["matching.route_km.calls"]
    if calls("matching.viterbi_decode") and not km_calls:
        missing.append("matching.route_km.calls")
    else:
        m["matching.route_km.calls"] = (km_calls, "count")
        m["matching.route_km.hit_ratio"] = (
            c["matching.route_km.hits"] / km_calls if km_calls else 0.0, "ratio")
    m["classifier.train.iterations"] = (c["classifier.train.iterations"], "count")
    m["classifier.train.converged"] = (c["classifier.train.converged"], "count")
    m["classifier.rank_auc.calls"] = (calls("classifier.rank_auc"), "count")
    m["network.load_network.s"] = (totals["network.load_network"]["s"], "s")
    for name, agg in totals.items():
        if c[name + ".trips"]:
            agg["us_per_trip"] = agg["s"] * 1e6 / c[name + ".trips"]
    return m, {"missing": missing, "spans": totals}


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("gen", "setup", "run"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.role == "gen":
        generate(args.workload, args.seed, args.dir)
        print(json.dumps({"generated": args.workload}))
        return 0

    tracer = Tracer() if args.trace else None
    inputs = setup(args.workload, args.dir, tracer)
    setup_s = time.perf_counter() - T_START
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    trace = bool(args.trace)
    if args.workload == "pipeline":
        rounds, extra, errors = run_pipeline(args.dir, args.seconds, trace)
    else:
        rounds, extra, errors = run_match(inputs, args.seconds, trace)

    metrics, more = summarize(rounds)
    extra.update(more)
    extra["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    import numpy

    result = {
        "setup_s": setup_s,
        "attempted": sum(len(r) for r in rounds),
        "failed": sum(not ok for r in rounds for ok, _, _ in r),
        "check_errors": errors,
        "metrics": metrics,
        "extra": extra,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        layer, report = layer_metrics(tracer)
        layer["traced.ops_per_s"] = extra["ops_per_s"]
        layer["traced.op_p50_ms"] = metrics["op_p50_ms"]
        result["per_layer"] = layer
        result["trace_report"] = report
        tracer.write_spans(args.dir / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
