#!/usr/bin/env python3
"""detourlab benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload pipeline|match \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``detourlab`` from ``src/``
and sees the program only through its public functions.  It builds the
workload's inputs from the seed in a separate process, times set-up in nine
fresh processes (median), then runs the workload in one process and one
thread for the given seconds, checks every output, and prints the result as
the last line.

Workloads (one closed-loop client each):

* ``pipeline``: the five commands of ``scripts/run_pipeline.py`` through
  ``detourlab.cli.main``, on that script's seed-7 inputs cut to 200 trips;
  the operation is one pass of the five commands, checked byte for byte
  against a reference pass made during input generation.
* ``match``: 50 seeded noisy GPS traces through
  ``matching.match_trajectory``; the operation is one GPS point, timed per
  trip.

With ``--trace 0`` the result carries the end-to-end metrics ``setup_s`` and
``op_p50_ms`` (median latency per operation; failures count as +inf).  The
operations are fixed by the seed; a round runs all of them once, rounds
repeat for the given seconds (at least four), and each operation counts at
its fastest round, which filters out the load other processes put on the
machine.  With ``--trace 1`` the run is one round, wrappers around the
package's public functions record spans and exact work counts, and the
result carries the per-layer metrics.  The lines before the result report
the rest by name and unit: environment and source size, throughput, peak
memory, per-command times, detection and matching quality, and every traced
span.  Inputs and
outputs go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pipeline", "match")
SETUP_RUNS = 9  # the workload process's own set-up plus eight set-up-only processes
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_sha(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path, seed: int, numpy_version: str) -> dict:
    modules = sorted((root / "src" / "detourlab").glob("*.py"))
    lines = {f.stem: f.read_bytes().count(b"\n") for f in modules}
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(root),
        "seed": seed,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }
    if info["git_sha"] is None:  # a checkout without git history: name the sources by digest
        digest = hashlib.sha256()
        for f in modules:
            digest.update(f.name.encode() + b"\0" + f.read_bytes())
        info["src_sha256"] = digest.hexdigest()
    return info


def worker(role: str, args, work: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(work), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{role} process ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(name: str, value, unit: str) -> None:
    print(f"  {name} = {value} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "detourlab" / "__init__.py").is_file():
        return fail(f"no detourlab sources under {root / 'src'}; run from a checkout's root")

    work = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # a fixed hash seed keeps set and dict orders, and so the traced counts, the
    # same from run to run; numpy's BLAS stays on the workload's one thread
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        worker("gen", args, work, env, deadline)
        setups = []
        if not args.trace:
            setups = [worker("setup", args, work, env, deadline)["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
        res = worker("run", args, work, env, deadline)
    except RuntimeError as exc:
        return fail(str(exc))

    info = environment(root, args.seed, res["numpy"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment " + json.dumps(info, sort_keys=True))
    for err in res["check_errors"][:20]:
        print(f"CHECK FAILED: {err}")
    print("workload figures:")
    for name, (value, unit) in sorted(res["extra"].items()):
        report(name, value, unit)

    if args.trace:
        metrics = res["per_layer"]
        for name in res["trace_report"]["missing"]:
            print(f"MISSING: {name}: the shim saw no calls although its layer ran")
        print("traced spans (calls, total s, self s):")
        for name, t in sorted(res["trace_report"]["spans"].items()):
            per_trip = f", {t['us_per_trip']:.1f} us/trip" if "us_per_trip" in t else ""
            print(f"  {name}: {t['calls']} calls, {t['s']:.6f} s, self {t['self_s']:.6f} s"
                  f"{per_trip}")
    else:
        metrics = dict(res["metrics"])
        metrics["setup_s"] = (statistics.median(setups + [res["setup_s"]]), "s")
    print("metrics:")
    for name, (value, unit) in sorted(metrics.items()):
        report(name, value, unit)

    print(json.dumps({
        "correct": not res["check_errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
