"""Seeded mutation test: an input the readers accept finishes in bounded time
and exits 0 or 3 with a short message.

The test builds small valid files of each format (config, network, trips with
raw GPS, model, schedule, events).  Each case then replaces, deletes or adds
one JSON value in one file, drawn from ``POOL``, and runs every command whose
arguments name that file through ``cli.main``, in-process, under a time cap.
All cases run in one child process (this file run as a script) with warnings
as errors and its address space capped, since a config may legally ask for a
very large run.

Huge integers are left out of ``sim.grid_dims`` and ``sim.n_trips``: there
they ask for a legal run of any length, not a bad input.
"""

import json
import math
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 20240117
CASES = 120  # 20 per file
CASE_SECONDS = 20  # per case, all its commands together
MAX_STDERR = 600  # characters per command
MEMORY_BYTES = 2 << 30

HUGE_INTS = (2**63, 10**400)
POOL = (*HUGE_INTS, 1e308, 5e-324, math.nan, math.inf, -math.inf, "x" * 5000,
        None, True, "7", -1, 0, [], {})
NEW_KEYS = ("bogus", "k" * 5000)
LONG_RUN_PATHS = (["sim", "grid_dims"], ["sim", "n_trips"])  # no huge ints here

CONFIG = {
    "sim": {"seed": 3, "grid_dims": [4, 4], "n_trips": 20, "n_drivers": 4,
            "behavior_mix": {"normal": 0.5, "detour": 0.3, "avoid_congestion": 0.1,
                             "shortcut": 0.1},
            "gps_period_s": 30.0},
    "ridge": 1e-6,
}


def input_files(root: Path) -> dict[str, Path]:
    """Where the valid input files live under ``root``, by name."""
    files = {name: root / name for name in ("config.json", "network.json", "model.json",
                                            "schedule.json", "events.jsonl")}
    files["trips.jsonl"] = root / "data" / "trips.jsonl"
    return files


def build_inputs(root: Path) -> None:
    """Write the valid files every case starts from."""
    from detourlab.cli import main
    from detourlab.pricing import DEFAULT_SCHEDULES

    from conftest import schedule_json

    files = input_files(root)
    files["config.json"].write_text(json.dumps(CONFIG))
    files["schedule.json"].write_text(json.dumps(schedule_json(DEFAULT_SCHEDULES["beijing"])))
    for args in (["gen-network", "--out", files["network.json"]],
                 ["gen-trips", "--network", files["network.json"], "--out", root / "data"],
                 ["train", "--network", files["network.json"], "--trips", files["trips.jsonl"],
                  "--out", files["model.json"]]):
        assert main([str(a) for a in (*args, "--config", files["config.json"])]) == 0
    events = []
    for line in files["trips.jsonl"].read_text().splitlines()[:2]:
        trip = json.loads(line)
        steps = trip["atr"]
        events += [{"trip_id": trip["trip_id"], "segment": s["segment"], "t": s["t"]}
                   for s in steps]
        events[-len(steps)]["dest"] = steps[-1]["segment"]
    files["events.jsonl"].write_text("".join(json.dumps(e) + "\n" for e in events))


def commands(files: dict[str, Path], out: Path) -> dict[str, list]:
    """Every command's arguments over ``files``, writing under ``out``."""
    net, trips, model = files["network.json"], files["trips.jsonl"], files["model.json"]
    reading = ["--network", net, "--trips", trips]
    scoring = ["--network", net, "--model", model, "--trips", trips]
    return {
        "gen-network": ["--out", out / "network.json"],
        "gen-trips": ["--network", net, "--out", out / "data"],
        "filter": [*reading, "--out", out / "filtered"],
        "train": [*reading, "--out", out / "model.json"],
        "eval": [*scoring, "--out", out / "roc.csv"],
        "detect": ["--network", net, "--model", model, "--events", files["events.jsonl"],
                   "--out", out / "decisions.jsonl"],
        "stage-report": [*scoring, "--out", out / "stage_auc.csv"],
        "pricing": [*reading, "--schedule", files["schedule.json"], "--out", out / "intervals.csv"],
        "report": [*scoring, "--schedule", files["schedule.json"], "--out", out / "report"],
    }


def pick_path(rng: random.Random, doc) -> list:
    """A random path into ``doc``: a descent that stops at each level below
    the top with chance 1/3, and at the first scalar or empty container."""
    path, value = [], doc
    while isinstance(value, (dict, list)) and value and (not path or rng.random() < 2 / 3):
        key = rng.choice(list(value) if isinstance(value, dict) else range(len(value)))
        path.append(key)
        value = value[key]
    return path


def mutate(rng: random.Random, doc, config: bool) -> str:
    """Replace, delete or add one value in ``doc``; returns what it did."""
    path = pick_path(rng, doc)
    value = rng.choice(POOL)
    while config and value in HUGE_INTS and path[:2] in LONG_RUN_PATHS:
        value = rng.choice(POOL)
    op = rng.choice(("replace", "delete", "add")) if path else "add"
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "replace":
        parent[path[-1]] = value
    elif op == "delete":
        del parent[path[-1]]
    else:
        target = doc
        for key in path:  # the deepest container on the path
            if isinstance(target[key], (dict, list)):
                target = target[key]
        if isinstance(target, dict):
            target[rng.choice(NEW_KEYS)] = value
        else:
            target.insert(rng.randrange(len(target) + 1), value)
    return f"{op} {json.dumps(path)[:80]} <- {json.dumps(value)[:40]}"


def expire(signum, frame):
    raise TimeoutError(f"case still running after {CASE_SECONDS} s")


def run_cases(root: Path) -> list[str]:
    """Run every case over the inputs under ``root``; returns the failures."""
    from detourlab.cli import main

    files = input_files(root)
    names = sorted(files)
    rng = random.Random(SEED)
    signal.signal(signal.SIGALRM, expire)
    failures = []
    for case in range(CASES):
        name = names[case % len(names)]
        case_dir = root / f"case{case}"
        case_dir.mkdir()
        lines = files[name].read_text().splitlines()
        jsonl = name.endswith(".jsonl")
        index = rng.randrange(len(lines)) if jsonl else 0
        doc = json.loads(lines[index]) if jsonl else json.loads(files[name].read_text())
        change = mutate(rng, doc, name == "config.json")
        what = f"case {case}: {name}{f' line {index + 1}' if jsonl else ''}: {change}"
        text = json.dumps(doc)
        if jsonl:
            lines[index] = text
            text = "\n".join(lines)
        mutant = case_dir / name
        mutant.write_text(text + "\n")
        argv = {cmd: [str(mutant if a == files[name] else a)
                      for a in ("--config", files["config.json"], *args)]
                for cmd, args in commands(files, case_dir / "out").items()}
        signal.alarm(CASE_SECONDS)
        try:
            for cmd, args in argv.items():
                if str(mutant) not in args:
                    continue
                err = StringIO()
                with redirect_stdout(StringIO()), redirect_stderr(err):
                    code = main([cmd, *args])
                message = err.getvalue()
                if code not in (0, 3) or len(message) > MAX_STDERR:
                    failures.append(f"{what}: {cmd} exited {code}, stderr "
                                    f"({len(message)} chars) {message[:300]!r}")
        except TimeoutError as exc:
            failures.append(f"{what}: {exc}")
        finally:
            signal.alarm(0)
        shutil.rmtree(case_dir)
    return failures


def test_mutated_inputs_exit_0_or_3_in_bounded_time(tmp_path):
    build_inputs(tmp_path)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, (done.stdout + done.stderr)[-4000:]
    assert done.stdout.strip() == f"{CASES} cases passed"


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
    found = run_cases(Path(sys.argv[1]))
    print("\n".join(found) if found else f"{CASES} cases passed")
    sys.exit(1 if found else 0)
