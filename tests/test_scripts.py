import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from detourlab.classifier import load_model, offline_features
from detourlab.network import load_network
from detourlab.online import run_trip
from detourlab.trips import load_trips

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "detourlab").glob("*.py")
                 if p.stem != "__init__")


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def run_script(name, *args):
    return run_python(ROOT / "scripts" / name, *args)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    # a fresh interpreter per module: an import cycle can fail only when one
    # particular module in it is the first one imported
    done = run_python("-c", f"import detourlab.{module}")
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline") / "out"
    done = run_script("run_pipeline.py", "--rows", 4, "--cols", 4, "--n-trips", 60, "--out", out)
    assert done.returncode == 0, done.stderr
    return out


def csv_rows(path):
    header, *rows = path.read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_pipeline_behaviors_table(pipeline_out):
    kept = pipeline_out / "filtered" / "kept.jsonl"
    trips = load_trips(kept)
    rows = csv_rows(pipeline_out / "report" / "behaviors.csv")
    keys = [row["behavior"] for row in rows]
    assert keys == sorted({t.behavior or t.label for t in trips})
    assert sum(int(row["trips"]) for row in rows) == len(trips)
    stages = csv_rows(pipeline_out / "report" / "stage_auc.csv")
    assert stages[-1]["stage"] == "10"
    assert sum(int(row["warned"]) for row in rows) == int(stages[-1]["warned_count"])


def test_behaviors_table_counts_the_replayed_actions(pipeline_out):
    # each row is what the live detector's decisions say, counted by action;
    # its mean ratios are those of the offline features
    net = load_network(pipeline_out / "network.json")
    model = load_model(pipeline_out / "model.json")
    want = {}
    for trip in load_trips(pipeline_out / "filtered" / "kept.jsonl"):
        actions = [d.action for d in run_trip(net, model, trip)]
        row = want.setdefault(trip.behavior or trip.label, [0, 0, 0, [], [], []])
        row[0] += 1
        if "warn_issued" in actions:
            row[1] += 1
            row[3].append((actions.index("warn_issued") + 1) / len(actions))
        row[2] += actions[-1] in ("warn_issued", "warn_maintained")
        fv = offline_features(net, trip)
        row[4].append(fv.extra_distance_ratio)
        row[5].append(fv.extra_time_ratio)
    want = {key: [str(n), str(warned), str(at_end),
                  repr(statistics.median(firsts)) if firsts else "",
                  repr(statistics.fmean(x1)), repr(statistics.fmean(x2))]
            for key, (n, warned, at_end, firsts, x1, x2) in want.items()}
    got = {row.pop("behavior"): list(row.values())
           for row in csv_rows(pipeline_out / "report" / "behaviors.csv")}
    assert got == want
