#!/usr/bin/env python3
"""End-to-end experiment: simulate, screen, train, evaluate, price.

Drives the CLI commands in sequence against one seed and leaves every
artifact (network, datasets, model, CSV reports, SVG charts) under --out.
Re-running with the same seed reproduces every file byte for byte.
"""

import argparse
import json
import sys
from pathlib import Path

from detourlab.cli import RunConfig, main as cli
from detourlab.simulate import SimConfig


def run(args) -> None:
    code = cli([str(a) for a in args])
    if code != 0:
        raise SystemExit(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rows", type=int, default=10)
    parser.add_argument("--cols", type=int, default=10)
    parser.add_argument("--n-trips", type=int, default=2000)
    parser.add_argument("--schedule", default="beijing")
    parser.add_argument("--out", default="out")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    network = out / "network.json"
    data = out / "data"
    filtered = out / "filtered"
    model = out / "model.json"
    report = out / "report"

    # night-heavy detours plus one driver per ~15 trips keep the per-interval
    # opportunity costs in a realistic band for the pricing phase
    config = RunConfig(sim=SimConfig(
        seed=args.seed,
        grid_dims=(args.rows, args.cols),
        n_trips=args.n_trips,
        n_drivers=max(10, args.n_trips // 15),
        behavior_mix={"normal": 0.82, "detour": 0.08,
                      "avoid_congestion": 0.05, "shortcut": 0.05},
        night_detour_boost=3.0,
        gps_period_s=0.0,
    ), ridge=1e-6)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config.to_dict(), indent=2) + "\n")

    print(f"== generating network ({args.rows}x{args.cols}, seed {args.seed})")
    run(["gen-network", "--config", config_path, "--out", network])

    print(f"== simulating {args.n_trips} trips")
    run(["gen-trips", "--config", config_path, "--network", network, "--out", data])

    print("== screening")
    run(["filter", "--network", network, "--trips", data / "trips.jsonl",
         "--out", filtered])

    print("== training the detour classifier")
    run(["train", "--config", config_path, "--network", network,
         "--trips", filtered / "kept.jsonl", "--out", model])

    print("== offline evaluation, staged detection, pricing report")
    run(["report", "--network", network, "--model", model,
         "--trips", filtered / "kept.jsonl", "--schedule", args.schedule,
         "--out", report])

    print(f"== done; see {report}/ for roc.csv, stage_auc.csv, behaviors.csv, intervals.csv "
          "and charts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
