"""Command-line pipeline: simulate, filter, train, evaluate, detect, price.

Every command is a pure function of (inputs, config, seed): re-running with
the same arguments overwrites outputs byte-identically.  Exit codes: 0 ok,
2 missing input file (or a directory given as one), 3 validation failure,
4 internal invariant breach.

Each command imports the modules it runs when it runs: the classifier, the
live detector, the pricing analysis and the charts load only for the
commands that use them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from . import trips as trips_mod
from .errors import (DataFormatError, DetourlabError, FitError, InputError, check_non_negative,
                     read_json_file, read_jsonl, read_number, read_string, shown)
from .network import load_network, save_network
from .routing import RoutingWeights
from .simulate import SimConfig, generate_network, generate_trips


# the parsed JSON types a config key may hold, and their name in JSON, by the
# type of the key's default
_JSON_TYPES = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), tuple: ((list,), "an array"),
               dict: ((dict,), "an object")}


def _from_json(cls, data, where: str):
    """``cls`` built from a JSON object whose keys are ``cls``'s fields.

    Each value is read by ``_json_value`` against the field's default;
    anything else is an InputError.
    """
    names = {f.name for f in fields(cls)}
    defaults = cls()
    values = {}
    for key, value in data.items():
        if key not in names:
            raise InputError(f"{where}: unknown key {shown(repr(key))}")
        values[key] = _json_value(value, getattr(defaults, key), f"{where}.{key}")
    return cls(**values)


def _json_value(value, default, where: str):
    """``value`` converted to the type of ``default``, or an InputError.

    The value must have the JSON type of the default; a bool never counts as
    a number.  A nested dataclass is read by ``_from_json`` from a dict, a
    tuple must match the default's length and element types, and every value
    of a dict must have the type of the default's values.
    """
    want = dict if is_dataclass(default) else type(default)
    types, kind = _JSON_TYPES[want]
    if isinstance(value, bool) != (want is bool) or not isinstance(value, types):
        raise InputError(f"{where} must be {kind}, got {shown(json.dumps(value))}")
    if is_dataclass(default):
        return _from_json(type(default), value, where)
    if want is tuple:
        if len(value) != len(default):
            raise InputError(f"{where} must have {len(default)} elements, "
                             f"got {shown(json.dumps(value))}")
        return tuple(_json_value(v, d, f"{where}[{i}]")
                     for i, (v, d) in enumerate(zip(value, default)))
    if want is dict:
        item = next(iter(default.values()))
        return {k: _json_value(v, item, f"{where}.{k}") for k, v in value.items()}
    # read_number turns an integer too large for a float into an InputError
    return read_number(value, where) if want is float else value


@dataclass(frozen=True)
class RunConfig:
    """File-backed defaults for the pipeline; command-line flags win."""

    sim: SimConfig = field(default_factory=SimConfig)
    rules: trips_mod.FilterRules = field(default_factory=trips_mod.FilterRules)
    weights: RoutingWeights = field(default_factory=RoutingWeights)
    ridge: float = 0.0

    def __post_init__(self):
        check_non_negative("ridge", self.ridge)

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        return _from_json(RunConfig, data, "config")

    def to_dict(self) -> dict:
        return asdict(self)


def _config_for(args) -> RunConfig:
    path = getattr(args, "config", None)
    return read_json_file(path, "config", RunConfig.from_dict) if path else RunConfig()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _output(path) -> Path:
    """``path`` with its parent directory made, for a command about to write it.

    Commands call it only once their input files are read or open, so a
    missing input leaves no output.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _output(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _labeled_samples(net, trips):
    from . import classifier

    samples = []
    for trip in trips:
        if trip.label == "unlabeled":
            continue
        fv = classifier.offline_features(net, trip)
        samples.append((fv, 1 if trip.label == "detour" else 0))
    return samples


def _schedule_arg(name_or_path: str):
    from . import pricing

    if name_or_path in pricing.DEFAULT_SCHEDULES:
        return pricing.DEFAULT_SCHEDULES[name_or_path]
    return pricing.load_schedule(name_or_path)


# ---------------------------------------------------------------------------
# commands


def _with_flags(config, **flags):
    """``config`` with each flag that was given, not None, replacing its field."""
    return replace(config, **{k: v for k, v in flags.items() if v is not None})


def cmd_gen_network(args) -> int:
    cfg = _config_for(args).sim
    rows, cols = cfg.grid_dims
    cfg = _with_flags(cfg, seed=args.seed, grid_dims=(rows if args.rows is None else args.rows,
                                                      cols if args.cols is None else args.cols))
    net = generate_network(cfg)
    save_network(net, _output(args.out))
    print(f"network nodes={len(net.nodes)} segments={len(net.segments)} -> {args.out}")
    return 0


def cmd_gen_trips(args) -> int:
    config = _config_for(args)
    cfg = _with_flags(config.sim, seed=args.seed, n_trips=args.n_trips)
    net = load_network(args.network)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sim_trips, drivers = generate_trips(net, cfg, config.weights)
    trips_mod.save_trips(sim_trips, out / "trips.jsonl")
    detours = sum(1 for t in sim_trips if t.label == "detour")
    print(f"trips={len(sim_trips)} detours={detours} drivers={len(drivers)} -> {out}")
    return 0


def cmd_filter(args) -> int:
    rules = _with_flags(_config_for(args).rules, min_travel_time=args.min_travel_time,
                        max_speed=args.max_speed, epsilon_bar=args.epsilon_bar)
    net = load_network(args.network)
    trips = trips_mod.load_trips(args.trips)
    kept, rejected = trips_mod.filter_dataset(net, trips, rules)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trips_mod.save_trips(kept, out / "kept.jsonl")
    with (out / "rejected.jsonl").open("w", encoding="utf-8") as fh:
        for trip, reason in rejected:
            record = {"reason": reason, "trip": trips_mod.trip_to_dict(trip)}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"kept={len(kept)} rejected={len(rejected)} -> {out}")
    return 0


def cmd_train(args) -> int:
    from . import classifier

    config = _config_for(args)
    ridge = args.ridge if args.ridge is not None else config.ridge
    net = load_network(args.network)
    trips = trips_mod.load_trips(args.trips)
    samples = _labeled_samples(net, trips)
    report = classifier.train(samples, ridge=ridge)
    if not report.converged:  # diverged coefficients must not reach a model file
        raise FitError(f"the fit did not converge in {report.iterations} iterations"
                       + (f": {report.diagnostics}" if report.diagnostics else ""))
    classifier.save_model(report.model, _output(args.out), trained_on=len(samples), ridge=ridge)
    print(
        f"trained on={len(samples)} iterations={report.iterations} "
        f"converged={report.converged} loglik={report.final_log_likelihood:.6f}"
    )
    return 0


def _write_roc(path, net, model, trips) -> tuple[float, int]:
    """Write roc.csv; returns the AUC and the number of labeled trips."""
    from . import classifier

    samples = _labeled_samples(net, trips)
    auc, roc = classifier.evaluate_roc_auc(model, samples)
    _write_csv(path, ("fpr", "tpr"), roc)
    return auc, len(samples)


def cmd_eval(args) -> int:
    from . import classifier

    _config_for(args)  # eval reads no config value, but a bad config file still fails
    net = load_network(args.network)
    model = classifier.load_model(args.model)
    trips = trips_mod.load_trips(args.trips)
    auc, n = _write_roc(args.out, net, model, trips)
    print(f"auc={auc:.6f} n={n} -> {args.out}")
    return 0


def _read_event(event: dict) -> tuple:
    """(trip id, segment, t, dest or None) of one detect event."""
    trip_id = read_string(event["trip_id"], "trip_id")
    dest = event.get("dest")
    return (trip_id, read_string(event["segment"], "segment"), read_number(event["t"], "t"),
            None if dest is None else read_string(dest, "dest"))


def cmd_detect(args) -> int:
    from . import classifier, online

    config = _config_for(args)
    net = load_network(args.network)
    model = classifier.load_model(args.model)
    weights = config.weights

    sessions: dict[str, online.TripProgress] = {}
    events = warned = 0
    with ExitStack() as stack:
        if args.events == "-":
            lines = sys.stdin.buffer
        else:  # opened before --out, so a missing input truncates nothing
            lines = stack.enter_context(Path(args.events).open("rb"))
        out = (stack.enter_context(_output(args.out).open("w", encoding="utf-8"))
               if args.out else sys.stdout)
        for lineno, (trip_id, segment, t, dest) in read_jsonl(lines, f"--events {args.events}",
                                                              _read_event):
            if trip_id not in sessions:
                if dest is None:
                    raise DataFormatError(
                        f"line {lineno}: first event of trip {trip_id!r} must carry 'dest'",
                        line=lineno,
                    )
                sessions[trip_id] = online.TripProgress(trip_id, dest, weights)
            progress = sessions[trip_id]
            decision = online.step(net, model, progress, segment, t)
            if segment == progress.dest_segment:
                del sessions[trip_id]  # arrived: a later event for this id starts a new trip
            out.write(json.dumps({
                "trip_id": trip_id,
                "step": decision.step,
                "theta": decision.theta,
                "action": decision.action,
                "scenario": decision.scenario,
            }, sort_keys=True, allow_nan=False) + "\n")
            out.flush()  # each decision is out before the next event is read
            events += 1
            warned += decision.action == "warn_issued"

    print(f"events={events} warnings_issued={warned}", file=sys.stderr)
    return 0


def _write_stage_auc(path, net, model, trips, weights) -> list[tuple]:
    """Write stage_auc.csv; returns its (stage, auc, warned_count) rows."""
    from . import online

    rows = [(r.stage, r.auc, r.warned_trips)
            for r in online.stage_auc(net, model, trips, weights)]
    _write_csv(path, ("stage", "auc", "warned_count"), rows)
    return rows


def cmd_stage_report(args) -> int:
    from . import classifier

    config = _config_for(args)
    net = load_network(args.network)
    model = classifier.load_model(args.model)
    trips = trips_mod.load_trips(args.trips)
    rows = _write_stage_auc(args.out, net, model, trips, config.weights)
    print(f"stages={len(rows)} final_auc={rows[-1][1]:.6f} -> {args.out}")
    return 0


_INTERVAL_HEADER = (
    "interval", "label", "trips", "detours", "detour_ratio", "drivers", "income",
    "mean_excess_km", "mean_excess_min", "opportunity_cost_per_min", "utility",
    "delta_base_fare", "delta_rate_per_km", "delta_opportunity_cost",
)


def _write_intervals(path, net, schedule, trips):
    """Write intervals.csv; returns ``pricing.interval_report``'s rows and fit."""
    from . import pricing

    rows, fit = pricing.interval_report(net, schedule, trips)
    out = []
    for row, iv in zip(rows, schedule.intervals):  # one row per interval, in order
        st = row.stats
        adj = row.adjustment
        out.append((
            st.interval, iv.label, st.trip_count, st.detour_count, st.detour_ratio,
            st.driver_count, st.total_income, st.mean_excess_km, st.mean_excess_min,
            row.opportunity_cost, row.utility,
            None if adj is None else adj.delta_base_fare,
            None if adj is None else adj.delta_rate_per_km,
            None if adj is None else adj.delta_opportunity_cost,
        ))
    _write_csv(path, _INTERVAL_HEADER, out)
    return rows, fit


def cmd_pricing(args) -> int:
    _config_for(args)  # pricing reads no config value, but a bad config file still fails
    net = load_network(args.network)
    trips = trips_mod.load_trips(args.trips)
    rows, fit = _write_intervals(args.out, net, _schedule_arg(args.schedule), trips)
    if fit is not None:
        u0 = "" if fit.u0 is None else f"{fit.u0:.6f}"
        print(f"fit coefficient={fit.coefficient:.6f} intercept={fit.intercept:.6f} "
              f"u0={u0} r2={fit.r2:.4f}")
    print(f"intervals={len(rows)} -> {args.out}")
    return 0


def cmd_report(args) -> int:
    from . import charts, classifier

    config = _config_for(args)
    net = load_network(args.network)
    model = classifier.load_model(args.model)
    trips = trips_mod.load_trips(args.trips)
    schedule = _schedule_arg(args.schedule)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    auc, _ = _write_roc(out / "roc.csv", net, model, trips)
    stage_rows = _write_stage_auc(out / "stage_auc.csv", net, model, trips, config.weights)
    rows, _ = _write_intervals(out / "intervals.csv", net, schedule, trips)

    # interval_report gives one row per interval, in schedule order
    hours = [(iv.start_min + iv.end_min) / 2.0 / 60.0 for iv in schedule.intervals]
    ratio_pts = [(h, r.stats.detour_ratio) for h, r in zip(hours, rows)]
    charts.write_line_chart(out / "detour_ratio.svg", "Detour ratio by time of day",
                            [("detour ratio", ratio_pts)], "hour", "ratio")
    util_pts = [(h, r.utility) for h, r in zip(hours, rows) if r.utility is not None]
    cost_pts = [(h, r.opportunity_cost) for h, r in zip(hours, rows)
                if r.opportunity_cost is not None]
    charts.write_line_chart(out / "utility.svg", "Detour utility and opportunity cost",
                            [("utility", util_pts), ("opportunity cost", cost_pts)],
                            "hour", "per minute")
    f0_pts = [(h, r.adjustment.delta_base_fare) for h, r in zip(hours, rows)
              if r.adjustment is not None]
    a1_pts = [(h, r.adjustment.delta_rate_per_km) for h, r in zip(hours, rows)
              if r.adjustment is not None]
    charts.write_line_chart(out / "adjustments.svg", "Suggested price adjustments",
                            [("base fare change", f0_pts), ("km rate change", a1_pts)],
                            "hour", "change")

    print(f"auc={auc:.6f} stage_final={stage_rows[-1][1]:.6f} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built by the first ``main`` call in a process
    and reused by every later one: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="detourlab",
        description="Detour detection and pricing experiments on synthetic taxi trips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration; flags override it")
    generating = argparse.ArgumentParser(add_help=False, parents=[common])
    generating.add_argument("--seed", type=int, default=None,
                            help="override the simulation seed")

    p = sub.add_parser("gen-network", parents=[generating], help="generate a grid road network")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--out", required=True, help="network JSON path")
    p.set_defaults(func=cmd_gen_network)

    p = sub.add_parser("gen-trips", parents=[generating], help="simulate labeled trips")
    p.add_argument("--network", required=True)
    p.add_argument("--n-trips", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_trips)

    p = sub.add_parser("filter", parents=[common], help="screen trips")
    p.add_argument("--network", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--min-travel-time", type=float, default=None)
    p.add_argument("--max-speed", type=float, default=None)
    p.add_argument("--epsilon-bar", type=float, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("train", parents=[common], help="fit the detour classifier")
    p.add_argument("--network", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="offline ROC/AUC evaluation")
    p.add_argument("--network", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--out", required=True, help="roc.csv path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", parents=[common], help="stream live step decisions")
    p.add_argument("--network", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--events", required=True, help="JSONL events, or - for stdin")
    p.add_argument("--out", default=None, help="decisions JSONL (stdout if omitted)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("stage-report", parents=[common], help="AUC by trip completeness")
    p.add_argument("--network", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--out", required=True, help="stage_auc.csv path")
    p.set_defaults(func=cmd_stage_report)

    p = sub.add_parser("pricing", parents=[common], help="per-interval pricing analysis")
    p.add_argument("--network", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--schedule", required=True, help="city name or schedule JSON path")
    p.add_argument("--out", required=True, help="intervals.csv path")
    p.set_defaults(func=cmd_pricing)

    p = sub.add_parser("report", parents=[common], help="all reports in one directory")
    p.add_argument("--network", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: missing-input: {exc}", file=sys.stderr)
        return 2
    except DetourlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # invariant breach
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
