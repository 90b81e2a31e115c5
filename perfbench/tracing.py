"""Spans and exact work counters around detourlab's public functions.

Wrappers replace the module attributes that callers look up, for example
``detourlab.online.route_plan``, so nothing under ``src/`` changes.  Spans
stay in memory and are written out when the run ends.  No wrapper goes on a
per-segment function such as ``segment_travel_time``.
"""

from __future__ import annotations

import json
import time
import types
from collections import Counter

# route_plan is looked up under these module names; the module is the caller
ROUTE_PLAN_CALLERS = ("simulate", "online", "matching")


def plan_has_loop(net, path) -> bool:
    """True when the plan passes through some node twice.

    The nodes are those the plan reaches, from the end of the origin segment
    on; the origin's start node is behind the vehicle, so turning back
    through it is a U-turn, not a loop.
    """
    nodes = [net.segment(sid).to_node for sid in path]
    return len(set(nodes)) != len(nodes)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span named ``name``; ``after(args, result)`` sees each result."""

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Put the wrappers and the heap shim in place, at the callers' names."""
        from detourlab import (charts, classifier, cli, matching, network, online, pricing,
                               routing, simulate, trips)

        counts = self.counts

        def count_loops(args, plan):
            counts["routing.loop_plans"] += plan_has_loop(args[0], plan.path)

        real_route_plan = routing.route_plan
        for caller, module in zip(ROUTE_PLAN_CALLERS, (simulate, online, matching)):
            module.route_plan = self.wrap(f"routing.route_plan.{caller}", real_route_plan,
                                          count_loops)

        real_heapq = routing.heapq

        def heappush(heap, item):
            counts["routing.heap_pushes"] += 1
            real_heapq.heappush(heap, item)

        def heappop(heap):
            counts["routing.heap_pops"] += 1
            return real_heapq.heappop(heap)

        routing.heapq = types.SimpleNamespace(heappush=heappush, heappop=heappop)

        def count_candidates(args, found):
            counts["matching.candidates"] += len(found)

        def count_trips(name, position=None):
            """Count the trips each call handled: its result, or argument ``position``."""
            def after(args, result):
                counts[name + ".trips"] += len(result if position is None else args[position])
            return after

        def count_fit(args, report):
            counts["classifier.train.iterations"] += report.iterations
            counts["classifier.train.converged"] += bool(report.converged)

        real_km = matching.RouteDistanceCache.km

        def km(cache, a, b, *rest):
            counts["matching.route_km.calls"] += 1
            counts["matching.route_km.hits"] += (a, b) in cache.cache
            return real_km(cache, a, b, *rest)

        matching.RouteDistanceCache.km = km

        plain = (
            (online, "step", "online.step", None),
            (online, "stage_auc", "online.stage_auc", None),
            (matching, "candidates_for", "matching.candidates_for", count_candidates),
            (matching, "viterbi_decode", "matching.viterbi_decode", None),
            (matching, "match_trajectory", "matching.match_trajectory", None),
            (classifier, "train", "classifier.train", count_fit),
            (classifier, "offline_features", "classifier.offline_features", None),
            (classifier, "rank_auc", "classifier.rank_auc", None),
            (online, "rank_auc", "classifier.rank_auc", None),
            (cli, "generate_trips", "simulate.generate_trips", None),
            (trips, "load_trips", "trips.load_trips", count_trips("trips.load_trips")),
            (trips, "save_trips", "trips.save_trips", count_trips("trips.save_trips", 0)),
            (trips, "filter_dataset", "trips.filter_dataset",
             count_trips("trips.filter_dataset", 1)),
            (pricing, "interval_report", "pricing.interval_report", None),
            (charts, "write_line_chart", "charts.write_line_chart", None),
            (network, "load_network", "network.load_network", None),
            (cli, "load_network", "network.load_network", None),
        )
        for module, attr, name, after in plain:
            setattr(module, attr, self.wrap(name, getattr(module, attr), after))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
