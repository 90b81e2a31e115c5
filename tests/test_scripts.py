import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_pipeline_then_replay(tmp_path):
    out = tmp_path / "out"
    done = run_script("run_pipeline.py", "--rows", 4, "--cols", 4, "--n-trips", 60, "--out", out)
    assert done.returncode == 0, done.stderr
    kept = out / "filtered" / "kept.jsonl"
    behaviors = {json.loads(line)["behavior"] for line in kept.read_text().splitlines()}

    done = run_script("replay_warnings.py", "--network", out / "network.json",
                      "--model", out / "model.json", "--trips", kept)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["behavior", "trips", "warned", "at", "end", "first", "warn"]
    assert sorted(row.split()[0] for row in rows) == sorted(behaviors)
