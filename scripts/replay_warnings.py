#!/usr/bin/env python3
"""Replay recorded trips through the live detector and summarize warnings.

Shows, per planted behavior, how many trips ever triggered a warning, how
many ended with it still active, and how far into the trip the first warning
arrived. Useful for eyeballing how the warning mechanism treats detours
versus legitimate deviations (congestion avoidance, shortcuts).
"""

import argparse
import sys
from collections import defaultdict

from detourlab.classifier import load_model
from detourlab.network import load_network
from detourlab.online import run_trip
from detourlab.trips import load_trips


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--network", required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("--trips", required=True)
    parser.add_argument("--limit", type=int, default=None, help="replay at most N trips (N >= 1)")
    args = parser.parse_args()
    if args.limit is not None and args.limit < 1:
        parser.error(f"--limit must be at least 1, got {args.limit}")

    net = load_network(args.network)
    model = load_model(args.model)
    trips = load_trips(args.trips)
    if args.limit is not None:
        trips = trips[: args.limit]

    buckets = defaultdict(lambda: {"trips": 0, "warned": 0, "active_at_end": 0,
                                   "first_warning_at": []})
    for trip in trips:
        history = run_trip(net, model, trip)
        key = trip.behavior or trip.label
        b = buckets[key]
        b["trips"] += 1
        warned_steps = [d.step for d in history if d.theta > 0.0]
        if warned_steps:
            b["warned"] += 1
            b["first_warning_at"].append(warned_steps[0] / len(history))
        if history[-1].theta > 0.0:
            b["active_at_end"] += 1

    print(f"{'behavior':<18} {'trips':>6} {'warned':>7} {'at end':>7} {'first warn':>11}")
    for key in sorted(buckets):
        b = buckets[key]
        first = (sum(b["first_warning_at"]) / len(b["first_warning_at"])
                 if b["first_warning_at"] else None)
        first_txt = f"{first:10.0%}" if first is not None else "          -"
        print(f"{key:<18} {b['trips']:>6} {b['warned']:>7} {b['active_at_end']:>7} {first_txt}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
