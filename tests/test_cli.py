import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from detourlab.classifier import load_model
from detourlab.cli import RunConfig, main
from detourlab.network import load_network, save_network
from detourlab.online import run_trip
from detourlab.simulate import SimConfig, generate_network
from detourlab.trips import load_trips

from conftest import schedule_json


HUGE_INT = "1" + "0" * 400  # a JSON integer too large for a float


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One small end-to-end pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    net = root / "network.json"
    assert run(["gen-network", "--seed", 5, "--rows", 6, "--cols", 6, "--out", net]) == 0
    data = root / "data"
    assert run(["gen-trips", "--network", net, "--seed", 5, "--n-trips", 150,
                "--out", data]) == 0
    filt = root / "filtered"
    assert run(["filter", "--network", net, "--trips", data / "trips.jsonl",
                "--out", filt]) == 0
    model = root / "model.json"
    assert run(["train", "--network", net, "--trips", filt / "kept.jsonl",
                "--ridge", "1e-6", "--out", model]) == 0
    return root, net, data, filt, model


def test_gen_trips_writes_only_the_trip_file(pipeline_dir):
    root, net, data, filt, model = pipeline_dir
    assert sorted(p.name for p in data.iterdir()) == ["trips.jsonl"]


def test_seed_is_only_on_generation_commands(pipeline_dir):
    root, net, data, filt, model = pipeline_dir
    with pytest.raises(SystemExit) as err:
        run(["filter", "--network", net, "--trips", data / "trips.jsonl", "--seed", 3,
             "--out", root / "unused"])
    assert err.value.code == 2


@pytest.fixture(scope="module")
def separable_dir(tmp_path_factory):
    """30 trips that a fit without a ridge separates perfectly."""
    root = tmp_path_factory.mktemp("separable")
    net = root / "network.json"
    assert run(["gen-network", "--seed", 7, "--rows", 4, "--cols", 4, "--out", net]) == 0
    assert run(["gen-trips", "--network", net, "--seed", 7, "--n-trips", 30,
                "--out", root / "data"]) == 0
    return net, root / "data" / "trips.jsonl"


def test_train_that_does_not_converge_exits_3(separable_dir, tmp_path, capsys):
    net, trips = separable_dir
    model = tmp_path / "model.json"
    assert run(["train", "--network", net, "--trips", trips, "--out", model]) == 3
    assert "perfect separation" in capsys.readouterr().err
    assert not model.exists()


def test_train_with_ridge_converges(separable_dir, tmp_path, capsys):
    net, trips = separable_dir
    model = tmp_path / "model.json"
    assert run(["train", "--network", net, "--trips", trips, "--ridge", "1e-6",
                "--out", model]) == 0
    assert "converged=True" in capsys.readouterr().out
    assert model.exists()


@pytest.mark.parametrize("distance_km, message", [
    (1e-300, "the information matrix is not finite"),  # an excess ratio near 4e300
    (1e-310, "the features must be finite"),  # a subnormal distance: an infinite ratio
])
def test_train_on_a_plan_distance_near_0_exits_3(tmp_path, capsys, distance_km, message):
    # load_trips accepts any finite positive plan distance
    net = tmp_path / "network.json"
    assert run(["gen-network", "--seed", 5, "--rows", 5, "--cols", 5, "--out", net]) == 0
    assert run(["gen-trips", "--network", net, "--seed", 5, "--n-trips", 100,
                "--out", tmp_path / "data"]) == 0
    lines = (tmp_path / "data" / "trips.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    first["plans"][0]["distance_km"] = distance_km
    trips = tmp_path / "edited.jsonl"
    trips.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    model = tmp_path / "model.json"
    capsys.readouterr()
    assert run(["train", "--network", net, "--trips", trips, "--ridge", "1e-6",
                "--out", model]) == 3
    assert capsys.readouterr().err.startswith(f"error: FitError: {message}")
    assert not model.exists()


def test_gen_network_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["gen-network", "--seed", 7, "--rows", 4, "--cols", 5, "--out", a]) == 0
    assert run(["gen-network", "--seed", 7, "--rows", 4, "--cols", 5, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_calls_in_one_process_share_no_parsed_values(tmp_path):
    # main parses every call with one parser; a flag given to one call, or
    # a call that fails to parse, must leave no value for the next call
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sim": {"seed": 5, "grid_dims": [3, 4]}}))
    seeded, bad, plain = (tmp_path / f"{name}.json" for name in ("seeded", "bad", "plain"))
    assert run(["gen-network", "--config", config, "--seed", 3, "--rows", 6,
                "--out", seeded]) == 0
    with pytest.raises(SystemExit) as err:
        run(["gen-network", "--config", config, "--seed", 9, "--cols", 2, "--rows", "x",
             "--out", bad])
    assert err.value.code == 2
    assert run(["gen-network", "--config", config, "--out", plain]) == 0
    want = tmp_path / "want.json"
    save_network(generate_network(SimConfig(seed=5, grid_dims=(3, 4))), want)
    assert plain.read_bytes() == want.read_bytes()  # the config's seed and grid
    assert grid_shape(seeded) == (6, 4) and not bad.exists()


def test_help_lists_every_command_on_every_call(tmp_path, capsys):
    assert run(["gen-network", "--seed", 1, "--rows", 2, "--cols", 2,
                "--out", tmp_path / "net.json"]) == 0
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert ("{gen-network,gen-trips,filter,train,eval,detect,stage-report,pricing,report}"
                in capsys.readouterr().out)


def grid_shape(path):
    ids = [n.id for n in load_network(path).nodes.values()]
    return (1 + max(int(i[1:].split("_")[0]) for i in ids),
            1 + max(int(i.split("_")[1]) for i in ids))


@pytest.mark.parametrize("flag, value, shape", [("--cols", 3, (8, 3)), ("--rows", 3, (3, 8))])
def test_gen_network_size_flag_alone_overrides_its_own_dimension(tmp_path, flag, value, shape):
    net = tmp_path / "net.json"
    assert run(["gen-network", "--seed", 7, flag, value, "--out", net]) == 0
    assert grid_shape(net) == shape  # the config's grid is 8x8


def test_gen_network_rows_0_exits_3(tmp_path):
    net = tmp_path / "net.json"
    assert run(["gen-network", "--seed", 7, "--rows", 0, "--out", net]) == 3
    assert not net.exists()


def test_negative_seed_exits_3(tmp_path, capsys):
    net = tmp_path / "net.json"
    assert run(["gen-network", "--seed", -1, "--rows", 3, "--cols", 3, "--out", net]) == 3
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not net.exists()
    assert run(["gen-network", "--seed", 1, "--rows", 3, "--cols", 3, "--out", net]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sim": {"seed": -1}}))
    assert run(["gen-trips", "--config", config, "--network", net,
                "--out", tmp_path / "out"]) == 3
    assert "seed must be non-negative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_unlabeled_trips_are_left_out(pipeline_dir, tmp_path, capsys, command):
    root, net, data, filt, model = pipeline_dir
    lines = (filt / "kept.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    first["label"] = "unlabeled"
    with_unlabeled = tmp_path / "with.jsonl"
    with_unlabeled.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    without = tmp_path / "without.jsonl"
    without.write_text("\n".join(lines[1:]) + "\n")
    extra = ["--ridge", "1e-6"] if command == "train" else ["--model", model]
    outputs = []
    for trips in (with_unlabeled, without):
        out = tmp_path / f"{trips.stem}.out"
        assert run([command, "--network", net, "--trips", trips, *extra, "--out", out]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    counted = f" on={len(lines) - 1} " if command == "train" else f" n={len(lines) - 1} "
    assert capsys.readouterr().out.count(counted) == 2


def test_eval_prints_auc_line(pipeline_dir, capsys):
    root, net, data, filt, model = pipeline_dir
    roc = root / "roc.csv"
    assert run(["eval", "--network", net, "--model", model,
                "--trips", filt / "kept.jsonl", "--out", roc]) == 0
    out = capsys.readouterr().out
    assert "auc=" in out
    header, first = roc.read_text().splitlines()[:2]
    assert header == "fpr,tpr"
    assert first == "0.0,0.0"


def test_stage_report(pipeline_dir):
    root, net, data, filt, model = pipeline_dir
    out = root / "stage_auc.csv"
    assert run(["stage-report", "--network", net, "--model", model,
                "--trips", filt / "kept.jsonl", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "stage,auc,warned_count"
    assert len(lines) == 11


def test_pricing_command(pipeline_dir):
    root, net, data, filt, model = pipeline_dir
    out = root / "intervals.csv"
    assert run(["pricing", "--network", net, "--trips", filt / "kept.jsonl",
                "--schedule", "beijing", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("interval,label,trips,")
    assert len(lines) == 6


def test_detect_streams_decisions(pipeline_dir):
    root, net, data, filt, model = pipeline_dir
    trips = json.loads((data / "trips.jsonl").read_text().splitlines()[0])
    events_path = root / "events.jsonl"
    dest = trips["atr"][-1]["segment"]
    with events_path.open("w") as fh:
        for i, step in enumerate(trips["atr"]):
            event = {"trip_id": trips["trip_id"], "segment": step["segment"], "t": step["t"]}
            if i == 0:
                event["dest"] = dest
            fh.write(json.dumps(event) + "\n")
    out = root / "decisions.jsonl"
    assert run(["detect", "--network", net, "--model", model,
                "--events", events_path, "--out", out]) == 0
    decisions = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(decisions) == len(trips["atr"])
    assert set(decisions[0]) == {"trip_id", "step", "theta", "action", "scenario"}


def test_detect_empty_stream(pipeline_dir, tmp_path):
    root, net, data, filt, model = pipeline_dir
    events = tmp_path / "events.jsonl"
    events.write_text("")
    out = tmp_path / "decisions.jsonl"
    assert run(["detect", "--network", net, "--model", model,
                "--events", events, "--out", out]) == 0
    assert out.read_text() == ""


def test_detect_requires_dest_on_first_event(pipeline_dir, tmp_path):
    root, net, data, filt, model = pipeline_dir
    trips = json.loads((data / "trips.jsonl").read_text().splitlines()[0])
    events = tmp_path / "events.jsonl"
    first = trips["atr"][0]
    events.write_text(json.dumps(
        {"trip_id": "t", "segment": first["segment"], "t": first["t"]}) + "\n")
    assert run(["detect", "--network", net, "--model", model,
                "--events", events, "--out", tmp_path / "d.jsonl"]) == 3


def test_detect_rejects_non_finite_timestamp(pipeline_dir, tmp_path):
    # the second step enters the destination, so no route search sees the NaN
    root, net, data, filt, model = pipeline_dir
    atr = json.loads((data / "trips.jsonl").read_text().splitlines()[0])["atr"]
    events = tmp_path / "events.jsonl"
    events.write_text(
        json.dumps({"trip_id": "t", "segment": atr[0]["segment"], "t": atr[0]["t"],
                    "dest": atr[1]["segment"]}) + "\n"
        + json.dumps({"trip_id": "t", "segment": atr[1]["segment"], "t": float("nan")}) + "\n")
    assert run(["detect", "--network", net, "--model", model,
                "--events", events, "--out", tmp_path / "d.jsonl"]) == 3


@pytest.mark.parametrize("bad", ["1543622550.0", True], ids=["string", "bool"])
def test_detect_rejects_a_timestamp_that_is_not_a_number(pipeline_dir, tmp_path, bad):
    root, net, data, filt, model = pipeline_dir
    atr = json.loads((data / "trips.jsonl").read_text().splitlines()[0])["atr"]
    events = tmp_path / "events.jsonl"
    events.write_text(json.dumps({"trip_id": "t", "segment": atr[0]["segment"], "t": bad,
                                  "dest": atr[-1]["segment"]}) + "\n")
    assert run(["detect", "--network", net, "--model", model,
                "--events", events, "--out", tmp_path / "d.jsonl"]) == 3


def test_detect_rejects_a_trip_id_that_is_not_a_string(pipeline_dir, tmp_path):
    root, net, data, filt, model = pipeline_dir
    atr = json.loads((data / "trips.jsonl").read_text().splitlines()[0])["atr"]
    events = tmp_path / "events.jsonl"
    events.write_text(json.dumps({"trip_id": 7, "segment": atr[0]["segment"], "t": atr[0]["t"],
                                  "dest": atr[-1]["segment"]}) + "\n")
    assert run(["detect", "--network", net, "--model", model,
                "--events", events, "--out", tmp_path / "d.jsonl"]) == 3


def _event_lines(trips):
    """Every step of ``trips`` as one detect event, sorted by (time, step index)."""
    events = []
    for trip in trips:
        for i, st in enumerate(trip.atr.steps):
            event = {"trip_id": trip.trip_id, "segment": st.segment, "t": st.t}
            if i == 0:
                event["dest"] = trip.atr.steps[-1].segment
            events.append((st.t, i, json.dumps(event)))
    events.sort(key=lambda e: e[:2])
    return [line + "\n" for _, _, line in events]


def test_detect_matches_replayed_trips(pipeline_dir, tmp_path):
    # an interleaved live stream decides each step exactly as replaying the trip alone
    root, net, data, filt, model = pipeline_dir
    trips = load_trips(filt / "kept.jsonl")[:40]
    events = tmp_path / "events.jsonl"
    events.write_text("".join(_event_lines(trips)))
    out = tmp_path / "decisions.jsonl"
    assert run(["detect", "--network", net, "--model", model,
                "--events", events, "--out", out]) == 0
    live = {}
    for line in out.read_text().splitlines():
        d = json.loads(line)
        live.setdefault(d.pop("trip_id"), []).append(d)
    network, logit = load_network(net), load_model(model)
    assert len(live) == len(trips)
    for trip in trips:
        replayed = [{"step": d.step, "theta": d.theta, "action": d.action,
                     "scenario": d.scenario} for d in run_trip(network, logit, trip)]
        assert live[trip.trip_id] == replayed


def _trip_events(trip, with_dest=True):
    """One detect event per step of ``trip``; the first carries 'dest' if asked."""
    lines = []
    for i, st in enumerate(trip.atr.steps):
        event = {"trip_id": "t", "segment": st.segment, "t": st.t}
        if i == 0 and with_dest:
            event["dest"] = trip.atr.steps[-1].segment
        lines.append(json.dumps(event) + "\n")
    return lines


def test_detect_starts_a_new_session_after_arrival(pipeline_dir, tmp_path):
    # entering the destination closes the session, so a later trip under the
    # same id starts again at step 1 and decides as if replayed alone
    root, net, data, filt, model = pipeline_dir
    first, second = load_trips(filt / "kept.jsonl")[:2]
    assert second.atr.steps[0].t > first.atr.steps[-1].t
    events = tmp_path / "events.jsonl"
    events.write_text("".join(_trip_events(first) + _trip_events(second)))
    out = tmp_path / "decisions.jsonl"
    assert run(["detect", "--network", net, "--model", model,
                "--events", events, "--out", out]) == 0
    decisions = [json.loads(l) for l in out.read_text().splitlines()]
    network, logit = load_network(net), load_model(model)
    replayed = [{"trip_id": "t", "step": d.step, "theta": d.theta, "action": d.action,
                 "scenario": d.scenario}
                for trip in (first, second) for d in run_trip(network, logit, trip)]
    assert decisions == replayed


def test_detect_event_after_arrival_must_carry_dest(pipeline_dir, tmp_path):
    root, net, data, filt, model = pipeline_dir
    first, second = load_trips(filt / "kept.jsonl")[:2]
    events = tmp_path / "events.jsonl"
    events.write_text("".join(_trip_events(first) + _trip_events(second, with_dest=False)))
    out = tmp_path / "decisions.jsonl"
    assert run(["detect", "--network", net, "--model", model,
                "--events", events, "--out", out]) == 3
    assert len(out.read_text().splitlines()) == len(first.atr.steps)


def test_detect_writes_decisions_before_a_bad_event(pipeline_dir, tmp_path):
    root, net, data, filt, model = pipeline_dir
    good = _event_lines(load_trips(filt / "kept.jsonl")[:3])
    events = tmp_path / "events.jsonl"
    events.write_text("".join(good) + '{"trip_id": "t", "segment": \n')
    out = tmp_path / "decisions.jsonl"
    assert run(["detect", "--network", net, "--model", model,
                "--events", events, "--out", out]) == 3
    assert len(out.read_text().splitlines()) == len(good)


def test_detect_missing_events_leaves_out_untouched(pipeline_dir, tmp_path):
    root, net, data, filt, model = pipeline_dir
    out = tmp_path / "decisions.jsonl"
    out.write_text("earlier\n")
    assert run(["detect", "--network", net, "--model", model,
                "--events", tmp_path / "missing.jsonl", "--out", out]) == 2
    assert out.read_text() == "earlier\n"


@pytest.mark.parametrize("command", ["filter", "train", "pricing"])
def test_trip_file_with_nan_step_exits_3(pipeline_dir, tmp_path, command):
    root, net, data, filt, model = pipeline_dir
    lines = (data / "trips.jsonl").read_text().splitlines()
    trip = json.loads(lines[0])
    trip["atr"][1]["t"] = float("nan")
    bad = tmp_path / "trips.jsonl"
    bad.write_text("\n".join([json.dumps(trip)] + lines[1:]) + "\n")
    extra = ["--schedule", "beijing"] if command == "pricing" else []
    assert run([command, "--network", net, "--trips", bad, *extra,
                "--out", tmp_path / "out"]) == 3


def write_disconnected_trip(filt, tmp_path, part):
    """kept.jsonl with segments 1 and 2 of the first line's ``part`` swapped,
    timestamps kept; returns the file, that trip and the line count."""
    lines = (filt / "kept.jsonl").read_text().splitlines()
    trip = json.loads(lines[0])
    if part == "atr":
        a, b = trip["atr"][1], trip["atr"][2]
        a["segment"], b["segment"] = b["segment"], a["segment"]
    else:
        path = trip["plans"][0]["path"]
        path[1], path[2] = path[2], path[1]
    bad = tmp_path / "kept.jsonl"
    bad.write_text("\n".join([json.dumps(trip)] + lines[1:]) + "\n")
    return bad, trip, len(lines)


@pytest.mark.parametrize("part", ["atr", "plan"])
def test_filter_rejects_a_trip_that_does_not_connect(pipeline_dir, tmp_path, part):
    root, net, data, filt, model = pipeline_dir
    bad, trip, n_lines = write_disconnected_trip(filt, tmp_path, part)
    out = tmp_path / "out"
    assert run(["filter", "--network", net, "--trips", bad, "--out", out]) == 0
    rejected = [json.loads(line) for line in (out / "rejected.jsonl").read_text().splitlines()]
    assert [(r["reason"], r["trip"]["trip_id"]) for r in rejected] == [
        ("malformed", trip["trip_id"])]
    assert len(load_trips(out / "kept.jsonl")) == n_lines - 1


@pytest.mark.parametrize("command", ["train", "eval", "pricing"])
def test_trip_that_does_not_connect_exits_3(pipeline_dir, tmp_path, capsys, command):
    root, net, data, filt, model = pipeline_dir
    bad, trip, _ = write_disconnected_trip(filt, tmp_path, "atr")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RunConfig(ridge=1e-6).to_dict()))  # a fit that converges
    extra = {"train": ["--config", config], "eval": ["--model", model],
             "pricing": ["--schedule", "beijing"]}[command]
    out = tmp_path / "out"
    assert run([command, "--network", net, "--trips", bad, *extra, "--out", out]) == 3
    assert f"trajectory {trip['trip_id']!r}: segments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["filter", "train", "pricing"])
def test_trip_file_with_shifted_start_time_exits_3(pipeline_dir, tmp_path, command):
    # a legacy start_time 12 h away from the first step's timestamp
    root, net, data, filt, model = pipeline_dir
    lines = (filt / "kept.jsonl").read_text().splitlines()
    trip = json.loads(lines[0])
    trip["start_time"] = trip["atr"][0]["t"] + 12 * 3600.0
    bad = tmp_path / "kept.jsonl"
    bad.write_text("\n".join([json.dumps(trip)] + lines[1:]) + "\n")
    extra = ["--schedule", "beijing"] if command == "pricing" else []
    assert run([command, "--network", net, "--trips", bad, *extra,
                "--out", tmp_path / "out"]) == 3


def test_report_emits_all_outputs(pipeline_dir):
    root, net, data, filt, model = pipeline_dir
    out = root / "report"
    assert run(["report", "--network", net, "--model", model,
                "--trips", filt / "kept.jsonl", "--schedule", "beijing",
                "--out", out]) == 0
    for name in ("roc.csv", "stage_auc.csv", "intervals.csv",
                 "detour_ratio.svg", "utility.svg", "adjustments.svg"):
        assert (out / name).exists()


@pytest.mark.parametrize("flag", ["--network", "--model", "--schedule", "--config"])
@pytest.mark.parametrize("content, code", [(None, 2), (b"{not json", 3), (b"\xff{}", 3)],
                         ids=["missing", "not_json", "not_utf8"])
def test_json_input_file_rule(pipeline_dir, tmp_path, flag, content, code):
    # every JSON input follows one rule: missing exits 2, unreadable as JSON exits 3
    root, net, data, filt, model = pipeline_dir
    inputs = {"--network": net, "--model": model, "--schedule": "beijing"}
    bad = tmp_path / "input.json"
    if content is not None:
        bad.write_bytes(content)
    inputs[flag] = bad
    out = tmp_path / "out"
    assert run(["report", "--trips", filt / "kept.jsonl", "--out", out,
                *(arg for pair in inputs.items() for arg in pair)]) == code
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--network", "--model", "--trips", "--schedule", "--config",
                                  "--events"])
def test_directory_as_input_exits_2(pipeline_dir, tmp_path, flag):
    # a directory is not an input file at all: the missing-input code, and no --out
    root, net, data, filt, model = pipeline_dir
    inputs = {"--network": net, "--model": model}
    if flag == "--events":
        command = "detect"
    else:
        command = "report"
        inputs.update({"--trips": filt / "kept.jsonl", "--schedule": "beijing"})
    inputs[flag] = tmp_path
    out = tmp_path / "out"
    assert run([command, *(arg for pair in inputs.items() for arg in pair), "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-network", "train", "eval", "detect", "stage-report",
                                     "pricing"])
def test_output_file_in_a_missing_directory_is_made(pipeline_dir, tmp_path, command):
    # a missing output directory is not a missing input: the command makes it
    root, net, data, filt, model = pipeline_dir
    trip = json.loads((filt / "kept.jsonl").read_text().splitlines()[0])
    events = tmp_path / "events.jsonl"
    events.write_text("".join(
        json.dumps({"trip_id": trip["trip_id"], "segment": st["segment"], "t": st["t"],
                    **({"dest": trip["atr"][-1]["segment"]} if i == 0 else {})}) + "\n"
        for i, st in enumerate(trip["atr"])))
    kept = filt / "kept.jsonl"
    args = {
        "gen-network": ["--seed", 5, "--rows", 3, "--cols", 3],
        "train": ["--network", net, "--trips", kept, "--ridge", "1e-6"],
        "eval": ["--network", net, "--model", model, "--trips", kept],
        "detect": ["--network", net, "--model", model, "--events", events],
        "stage-report": ["--network", net, "--model", model, "--trips", kept],
        "pricing": ["--network", net, "--trips", kept, "--schedule", "beijing"],
    }[command]
    out = tmp_path / "new" / "deeper" / "output"
    assert run([command, *args, "--out", out]) == 0
    assert out.is_file() and out.stat().st_size > 0


@pytest.mark.parametrize("flag", ["--trips", "--events"])
def test_jsonl_input_that_is_not_utf8_exits_3_naming_the_line(pipeline_dir, tmp_path, capsys,
                                                              flag):
    root, net, data, filt, model = pipeline_dir
    bad = tmp_path / "input.jsonl"
    bad.write_bytes(b"\n\xff\n")  # the blank first line still counts
    command = ["eval", "--trips"] if flag == "--trips" else ["detect", "--events"]
    assert run([*command, bad, "--network", net, "--model", model,
                "--out", tmp_path / "out"]) == 3
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--trips", "--events"])
def test_jsonl_line_that_is_not_an_object_exits_3_saying_so(pipeline_dir, tmp_path, capsys,
                                                            flag):
    root, net, data, filt, model = pipeline_dir
    bad = tmp_path / "input.jsonl"
    bad.write_bytes(b"\n[1, 2]\n")
    command = ["eval", "--trips"] if flag == "--trips" else ["detect", "--events"]
    assert run([*command, bad, "--network", net, "--model", model,
                "--out", tmp_path / "out"]) == 3
    assert "line 2: expected a JSON object, got an array" in capsys.readouterr().err


@pytest.mark.parametrize("key, bad, reason", [
    ("raw_gps", {}, "raw_gps must be an array, got {}"),
    ("label", "maybe", "unknown label 'maybe'"),
], ids=["raw_gps_object", "unknown_label"])
def test_bad_trip_line_exits_3_naming_the_line(pipeline_dir, tmp_path, capsys, key, bad, reason):
    root, net, data, filt, model = pipeline_dir
    lines = (data / "trips.jsonl").read_text().splitlines()[:3]
    d = json.loads(lines[2])
    d[key] = bad
    lines[2] = json.dumps(d)
    trips = tmp_path / "trips.jsonl"
    trips.write_text("\n".join(lines) + "\n")
    assert run(["filter", "--network", net, "--trips", trips, "--out", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert "line 3: " in err and reason in err


@pytest.mark.parametrize("bad, reason", [
    ("true", "must be a number, got True"), ('"1"', "must be a number, got '1'"),
    ("NaN", "must be finite, got nan"),
], ids=["boolean", "string", "nan"])
def test_trip_file_with_a_bad_gps_number_exits_3_naming_the_line(pipeline_dir, tmp_path,
                                                                 capsys, bad, reason):
    root, net, data, filt, model = pipeline_dir
    lines = (data / "trips.jsonl").read_text().splitlines()[:3]
    d = json.loads(lines[2])
    d["raw_gps"][1]["lng"] = "BAD"
    lines[2] = json.dumps(d).replace('"BAD"', bad)
    trips = tmp_path / "trips.jsonl"
    trips.write_text("\n".join(lines) + "\n")
    assert run(["filter", "--network", net, "--trips", trips, "--out", tmp_path / "out"]) == 3
    assert f"line 3: raw_gps lng {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("lat", 95.0), ("lng", -180.5)], ids=["lat", "lng"])
def test_trip_file_with_an_out_of_range_gps_fix_exits_3_naming_the_line(pipeline_dir, tmp_path,
                                                                       capsys, field, value):
    root, net, data, filt, model = pipeline_dir
    lines = (data / "trips.jsonl").read_text().splitlines()[:3]
    d = json.loads(lines[2])
    d["raw_gps"][1][field] = value
    lines[2] = json.dumps(d)
    trips = tmp_path / "trips.jsonl"
    trips.write_text("\n".join(lines) + "\n")
    assert run(["filter", "--network", net, "--trips", trips, "--out", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert "line 3: " in err and "GPS point 1 " in err and "is out of range" in err


@pytest.mark.parametrize("rate", [1e200, 2**63], ids=["overflow", "rounding"])
def test_pricing_exits_3_when_the_schedule_breaks_the_arithmetic(pipeline_dir, tmp_path, capsys,
                                                                rate):
    # 1e200 per km overflows the ratio/utility fit's squares; 2**63 leaves
    # the adjustment's residuals far above 1e-9 by rounding alone
    from detourlab.pricing import DEFAULT_SCHEDULES

    root, net, data, filt, model = pipeline_dir
    schedule = schedule_json(DEFAULT_SCHEDULES["beijing"])
    for iv in schedule["intervals"]:
        iv["rate_per_km"] = rate
    schedule_path = tmp_path / "tariff.json"
    schedule_path.write_text(json.dumps(schedule))
    assert run(["pricing", "--network", net, "--trips", filt / "kept.jsonl",
                "--schedule", schedule_path, "--out", tmp_path / "intervals.csv"]) == 3
    assert capsys.readouterr().err.startswith("error: InputError: ")


@pytest.mark.parametrize("text, reason", [
    ("[1, 2]", "expected a JSON object, got an array"),
    ('{"id": 1}', "missing key 'nodes'"),
], ids=["not_an_object", "missing_key"])
def test_bad_network_file_says_what_is_wrong(tmp_path, capsys, text, reason):
    bad = tmp_path / "badnet.json"
    bad.write_text(text)
    assert run(["gen-trips", "--network", bad, "--out", tmp_path / "out"]) == 3
    assert capsys.readouterr().err.strip().endswith(f"bad network file {bad}: {reason}")


def _python(args, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from this checkout's ``src``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=300,
                          **kwargs)


def test_events_on_stdin_that_are_not_utf8_exit_3(pipeline_dir):
    # stdin is read as bytes, so the outcome does not depend on the locale
    root, net, data, filt, model = pipeline_dir
    done = _python(["-m", "detourlab.cli", "detect", "--network", str(net),
                    "--model", str(model), "--events", "-"], input=b"\xff\n")
    assert done.returncode == 3, done.stderr
    assert b"line 1" in done.stderr


# prints whether numpy is loaded after the statements before it
_NUMPY_PROBE = "\nimport sys\nprint('numpy' in sys.modules)"
# prints the package's loaded modules after the statements before it
_MODULES_PROBE = ("\nimport sys\n"
                  "print(*sorted(m for m in sys.modules if m.startswith('detourlab.')))")


def test_importing_the_package_does_not_load_numpy():
    modules = ("cli", "matching", "online", "pricing", "trips", "network", "routing", "charts",
               "errors")
    done = _python(["-c", "".join(f"import detourlab.{m}\n" for m in modules) + _NUMPY_PROBE],
                   text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def _after_command(pipeline_dir, tmp_path, command, probe) -> str:
    """The last output line of ``probe`` run after ``command`` in a fresh interpreter.

    ``command`` runs through ``main`` on the shared pipeline's files and must
    succeed; None runs no command, only ``import detourlab.cli``.
    """
    if command is None:
        code = "import detourlab.cli"
    else:
        root, net, data, filt, model = pipeline_dir
        trip = json.loads((filt / "kept.jsonl").read_text().splitlines()[0])
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            json.dumps({"trip_id": trip["trip_id"], "segment": st["segment"], "t": st["t"],
                        **({"dest": trip["atr"][-1]["segment"]} if i == 0 else {})}) + "\n"
            for i, st in enumerate(trip["atr"])))
        args = {
            "gen-network": ["--seed", 5, "--rows", 3, "--cols", 3],
            "gen-trips": ["--network", net, "--seed", 5, "--n-trips", 5],
            "filter": ["--network", net, "--trips", data / "trips.jsonl"],
            "train": ["--network", net, "--trips", filt / "kept.jsonl", "--ridge", "1e-6"],
            "eval": ["--network", net, "--model", model, "--trips", filt / "kept.jsonl"],
            "detect": ["--network", net, "--model", model, "--events", events],
            "stage-report": ["--network", net, "--model", model, "--trips", filt / "kept.jsonl"],
            "pricing": ["--network", net, "--trips", filt / "kept.jsonl",
                        "--schedule", "beijing"],
            "report": ["--network", net, "--model", model, "--trips", filt / "kept.jsonl",
                       "--schedule", "beijing"],
        }[command]
        argv = [command, *map(str, args), "--out", str(tmp_path / "out")]
        code = f"from detourlab.cli import main\nassert main({argv!r}) == 0"
    done = _python(["-c", code + probe], text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("command, loads_numpy", [
    ("gen-network", False), ("filter", False), ("eval", False), ("detect", False),
    ("stage-report", False), ("pricing", False), ("report", False), ("gen-trips", True),
    ("train", True),
])
def test_only_the_simulator_and_the_fit_load_numpy(pipeline_dir, tmp_path, command, loads_numpy):
    # gen-trips and train do load it, which shows that the probe can see numpy
    assert _after_command(pipeline_dir, tmp_path, command, _NUMPY_PROBE) == str(loads_numpy)


# what every command loads: the config, the network, the planner, the simulator
# and the trip files
_CORE = ("cli", "errors", "network", "routing", "simulate", "trips")


@pytest.mark.parametrize("command, more", [
    (None, ()), ("gen-network", ()), ("gen-trips", ()), ("filter", ()),
    ("train", ("classifier",)), ("eval", ("classifier",)),
    ("detect", ("classifier", "online")), ("stage-report", ("classifier", "online")),
    ("pricing", ("pricing",)), ("report", ("charts", "classifier", "online", "pricing")),
], ids=["import", "gen-network", "gen-trips", "filter", "train", "eval", "detect",
        "stage-report", "pricing", "report"])
def test_each_command_loads_only_the_modules_it_runs(pipeline_dir, tmp_path, command, more):
    loaded = _after_command(pipeline_dir, tmp_path, command, _MODULES_PROBE).split()
    assert loaded == sorted(f"detourlab.{m}" for m in (*_CORE, *more))


def test_missing_input_exits_2(tmp_path):
    assert run(["gen-trips", "--network", tmp_path / "missing.json",
                "--out", tmp_path / "out"]) == 2


def test_gen_trips_on_a_network_without_segments_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"nodes": [], "segments": []}))
    out = tmp_path / "out"
    assert run(["gen-trips", "--network", empty, "--out", out]) == 3
    assert "InputError" in capsys.readouterr().err
    assert not (out / "trips.jsonl").exists()


def test_validation_failure_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": [], "segments": []}))
    trips = tmp_path / "trips.jsonl"
    trips.write_text("not json\n")
    assert run(["filter", "--network", bad, "--trips", trips,
                "--out", tmp_path / "o"]) == 3


@pytest.mark.parametrize("text", [
    "{not json",
    "[]",
    '{"sim": 5}',
    '{"sim": {"bogus": 1}}',
    '{"sim": {"n_trips": "40"}}',
    '{"sim": {"grid_dims": ["a", "b"]}}',
    '{"sim": {"grid_dims": [3]}}',
    '{"sim": {"grid_dims": [2.5, 3]}}',
    '{"sim": {"behavior_mix": {"normal": "x"}}}',
    '{"sim": {"behavior_mix": {"normal": null}}}',
    '{"match": {"emission_sigma": 25.0}}',
    '{"sim": {"full_plans": true}}',
    '{"duty_minutes": 60.0}',
    '{"weights": {"w1": NaN, "w2": 0.5}}',
    '{"rules": {"min_travel_time": NaN}}',
    '{"sim": {"behavior_mix": {"normal": NaN, "detour": 0.5}}}',
    '{"sim": {"detour_inflation": NaN}}',
    '{"sim": {"gps_noise_m": NaN}}',
    '{"sim": {"gps_period_s": Infinity}}',
    '{"sim": {"night_detour_boost": NaN}}',
    # integers too large for a float, in float fields
    f'{{"ridge": {HUGE_INT}}}',
    f'{{"sim": {{"detour_inflation": {HUGE_INT}}}}}',
    f'{{"rules": {{"max_speed": {HUGE_INT}}}}}',
    f'{{"weights": {{"w1": {HUGE_INT}, "w2": 0.5}}}}',
    f'{{"sim": {{"n_drivers": {2**70}}}}}',
], ids=["invalid_json", "not_an_object", "section_not_an_object", "unknown_key", "wrong_type",
        "tuple_element_type", "tuple_length", "tuple_float_for_int", "dict_value_type",
        "dict_value_null", "removed_match_key", "removed_full_plans_key",
        "removed_duty_minutes_key", "nan_weight", "nan_filter_rule", "nan_behavior_mix",
        "nan_detour_inflation", "nan_gps_noise", "inf_gps_period", "nan_night_boost",
        "huge_int_ridge", "huge_int_detour_inflation", "huge_int_max_speed", "huge_int_weight",
        "n_drivers_beyond_int64"])
def test_bad_config_file_exits_3(tmp_path, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert run(["gen-network", "--config", config, "--out", tmp_path / "net.json"]) == 3


@pytest.mark.parametrize("text, message", [
    ('{"sim": 5}', "config.sim must be an object, got 5"),
    ('{"sim": {"n_trips": "40"}}', 'config.sim.n_trips must be an integer, got "40"'),
    ('{"sim": {"n_trips": 40.0}}', "config.sim.n_trips must be an integer, got 40.0"),
    ('{"ridge": true}', "config.ridge must be a number, got true"),
    ('{"sim": {"grid_dims": 3}}', "config.sim.grid_dims must be an array, got 3"),
    ('{"sim": {"grid_dims": [3]}}', "config.sim.grid_dims must have 2 elements, got [3]"),
    ('{"sim": {"behavior_mix": {"normal": null}}}',
     "config.sim.behavior_mix.normal must be a number, got null"),
    ('{"weights": {"w1": [1]}}', "config.weights.w1 must be a number, got [1]"),
], ids=["object", "integer", "float_for_integer", "number", "array", "array_length", "null",
        "array_for_number"])
def test_config_type_errors_name_json_types(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert run(["gen-network", "--config", config, "--out", tmp_path / "net.json"]) == 3
    assert capsys.readouterr().err.strip().endswith(f"bad config file {config}: {message}")


@pytest.mark.parametrize("text, message", [
    (f'{{"sim": {{"detour_inflation": {HUGE_INT}}}}}',
     f"config.sim.detour_inflation must be finite, got {HUGE_INT[:80]}..."),
    (json.dumps({"sim": {"n_trips": "x" * 5000}}),
     'config.sim.n_trips must be an integer, got "' + "x" * 79 + "..."),
    (json.dumps({"sim": {"k" * 5000: 1}}), "config.sim: unknown key '" + "k" * 79 + "..."),
    (f'{{"sim": {{"n_drivers": {HUGE_INT}}}}}',
     f"n_drivers must be at most 2**63, got {HUGE_INT[:80]}..."),
], ids=["huge_integer", "long_string", "long_key", "huge_n_drivers"])
def test_config_error_cuts_a_long_bad_value(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert run(["gen-network", "--config", config, "--out", tmp_path / "net.json"]) == 3
    assert capsys.readouterr().err.strip().endswith(f"bad config file {config}: {message}")


def test_network_error_cuts_a_long_bad_value(tmp_path, capsys):
    bad = tmp_path / "badnet.json"
    bad.write_text(json.dumps({"nodes": "x" * 5000, "segments": []}))
    assert run(["gen-trips", "--network", bad, "--out", tmp_path / "out"]) == 3
    message = "nodes must be an array, got '" + "x" * 79 + "..."
    assert capsys.readouterr().err.strip().endswith(f"bad network file {bad}: {message}")


@pytest.mark.parametrize("command", ["eval", "pricing", "stage-report"])
def test_bad_config_file_exits_3_on_trip_commands(pipeline_dir, tmp_path, command):
    root, net, data, filt, model = pipeline_dir
    config = tmp_path / "config.json"
    config.write_text('{"bogus": 1}')
    extra = {"eval": ["--model", model], "pricing": ["--schedule", "beijing"],
             "stage-report": ["--model", model]}[command]
    out = tmp_path / "out.csv"
    assert run([command, "--config", config, "--network", net,
                "--trips", filt / "kept.jsonl", *extra, "--out", out]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "report"])
@pytest.mark.parametrize("text", ['{"ridge": -1.0}', '{"ridge": NaN}'],
                         ids=["negative", "nan"])
def test_bad_ridge_in_config_exits_3_on_commands_that_do_not_train(pipeline_dir, tmp_path,
                                                                   command, text):
    # the ridge is checked when the config is built, not only by the fit
    root, net, data, filt, model = pipeline_dir
    config = tmp_path / "config.json"
    config.write_text(text)
    extra = {"eval": [], "report": ["--schedule", "beijing"]}[command]
    out = tmp_path / "out"
    assert run([command, "--config", config, "--network", net, "--model", model,
                "--trips", filt / "kept.jsonl", *extra, "--out", out]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command,flags", [
    ("train", ["--ridge", "nan"]),
    ("train", ["--config", '{"ridge": NaN}']),
    ("filter", ["--min-travel-time", "nan"]),
], ids=["ridge_flag", "ridge_config", "min_travel_time_flag"])
def test_non_finite_setting_exits_3(pipeline_dir, tmp_path, command, flags):
    root, net, data, filt, model = pipeline_dir
    if flags[0] == "--config":
        config = tmp_path / "config.json"
        config.write_text(flags[1])
        flags = ["--config", config]
    assert run([command, "--network", net, "--trips", filt / "kept.jsonl", *flags,
                "--out", tmp_path / "out"]) == 3


def test_pricing_accepts_schedule_file(pipeline_dir, tmp_path):
    from detourlab.pricing import DEFAULT_SCHEDULES

    root, net, data, filt, model = pipeline_dir
    schedule_path = tmp_path / "tariff.json"
    schedule_path.write_text(json.dumps(schedule_json(DEFAULT_SCHEDULES["shenzhen"])))
    out = tmp_path / "intervals.csv"
    assert run(["pricing", "--network", net, "--trips", filt / "kept.jsonl",
                "--schedule", schedule_path, "--out", out]) == 0
    assert out.exists()


def test_gen_trips_honors_config_file(tmp_path):
    config = RunConfig(sim=SimConfig(seed=3, grid_dims=(4, 4), n_trips=40,
                                     behavior_mix={"normal": 1.0}, gps_period_s=0.0))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    net = tmp_path / "net.json"
    assert run(["gen-network", "--config", config_path, "--out", net]) == 0
    assert run(["gen-trips", "--config", config_path, "--network", net,
                "--out", tmp_path / "data"]) == 0
    lines = (tmp_path / "data" / "trips.jsonl").read_text().splitlines()
    assert len(lines) == 40
    assert all(json.loads(l)["behavior"] == "normal" for l in lines)


def test_run_config_roundtrip(tmp_path):
    cfg = RunConfig(sim=SimConfig(seed=9, n_trips=123), ridge=1e-5)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = RunConfig.from_dict(json.loads(path.read_text()))
    assert loaded.to_dict() == cfg.to_dict()
