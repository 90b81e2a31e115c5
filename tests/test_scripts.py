import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def replay(out, *args):
    return run_script("replay_warnings.py", "--network", out / "network.json",
                      "--model", out / "model.json",
                      "--trips", out / "filtered" / "kept.jsonl", *args)


def test_pipeline_then_replay(pipeline_out):
    kept = pipeline_out / "filtered" / "kept.jsonl"
    behaviors = {json.loads(line)["behavior"] for line in kept.read_text().splitlines()}

    done = replay(pipeline_out)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["behavior", "trips", "warned", "at", "end", "first", "warn"]
    assert sorted(row.split()[0] for row in rows) == sorted(behaviors)


def test_replay_limit(pipeline_out):
    done = replay(pipeline_out, "--limit", 3)
    assert done.returncode == 0, done.stderr
    assert sum(int(row.split()[1]) for row in done.stdout.splitlines()[1:]) == 3
    # 0 is not "no limit", and a negative count does not slice from the end
    for bad in ("0", "-5"):
        done = replay(pipeline_out, "--limit", bad)
        assert done.returncode == 2, (bad, done.stdout)
        assert "--limit" in done.stderr
