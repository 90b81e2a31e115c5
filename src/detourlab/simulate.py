"""Seeded synthetic road networks and labeled trips with planted behaviors.

Everything is reproducible from (seed, config): node geometry, segment
lengths and speeds, trip origins, driver behavior, and GPS noise all come
from independent deterministic substreams of the one seed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import InputError, NoRouteError, check_non_negative, shown
from .network import (
    EARTH_RADIUS_KM,
    GpsPoint,
    LatLng,
    Node,
    RoadNetwork,
    Segment,
    haversine_km,
)
from .routing import RoutingWeights, entry_times, route_plan
from .trips import AbstractTrajectory, DriverRecord, TrajStep, TripRecord

if TYPE_CHECKING:  # numpy is imported by the generators that use it, not at start-up
    import numpy as np

BEHAVIORS = ("normal", "detour", "avoid_congestion", "shortcut")

BASE_EPOCH = 1543622400.0  # 2018-12-01T00:00:00Z, start of the simulated day
_BASE_LAT = 39.90
_BASE_LNG = 116.40
_KM_PER_DEG_LAT = EARTH_RADIUS_KM * math.pi / 180.0


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings, checked when built: from ``--config``, by
    ``dataclasses.replace`` for a command-line flag, or in code."""

    seed: int = 0
    grid_dims: tuple[int, int] = (8, 8)
    n_trips: int = 500
    behavior_mix: dict[str, float] = field(
        default_factory=lambda: {"normal": 0.7, "detour": 0.1,
                                 "avoid_congestion": 0.1, "shortcut": 0.1}
    )
    detour_inflation: float = 0.3  # planted extra-distance fraction
    gps_period_s: float = 10.0  # 0 disables raw GPS emission
    gps_noise_m: float = 10.0
    n_drivers: int = 40
    # Scales the detour share of trips starting in the small hours (00:00 to
    # 06:00), when prolonging a trip pays best; 0 keeps the mix flat across
    # the day.  Gives the per-interval detour ratio a real dependence on the
    # tariff, which the long-term pricing fit needs to say anything.
    night_detour_boost: float = 0.0

    def __post_init__(self):
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {shown(str(self.seed))}")
        rows, cols = self.grid_dims
        if rows < 2 or cols < 2:
            raise InputError("grid_dims must be at least (2, 2)")
        if self.n_trips <= 0 or self.n_drivers <= 0:
            raise InputError("counts must be positive")
        if self.n_drivers > 2**63:  # drivers are drawn below it as a numpy int64 bound
            raise InputError(f"n_drivers must be at most 2**63, got {shown(str(self.n_drivers))}")
        amounts = {"detour_inflation": self.detour_inflation,
                   "gps_period_s": self.gps_period_s,
                   "gps_noise_m": self.gps_noise_m,
                   "night_detour_boost": self.night_detour_boost,
                   **{f"behavior_mix[{shown(repr(b))}]": v
                      for b, v in self.behavior_mix.items()}}
        for name, value in amounts.items():
            check_non_negative(name, value)
        unknown = set(self.behavior_mix) - set(BEHAVIORS)
        if unknown:
            raise InputError(f"unknown behaviors in mix: {shown(repr(sorted(unknown)))}")
        total = sum(self.behavior_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"behavior_mix must sum to 1, got {total}")


def _rng(seed: int, stream: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


_M32 = (1 << 32) - 1
_M53 = (1 << 53) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Stream:
    """The doubles of ``_rng(seed, stream).random()``, in pure Python.

    A port of numpy's ``SeedSequence([seed, stream])`` feeding a PCG64
    generator (O'Neill 2014, "PCG: a family of simple fast space-efficient
    statistically good algorithms"):

    1. the seed and the stream are split into 32-bit words, least
       significant first (0 is one zero word), and hashed into a pool of four
       words: each pool word starts as ``hashmix`` of an entropy word (or of
       0), every pool word is then mixed into every other, and entropy words
       beyond the fourth are mixed into each;
    2. ``generate_state(4, uint64)`` hashes the pool, cycled, into eight
       words, and joins them in little-endian pairs into u0..u3;
    3. PCG64 seeding: ``inc = (u2 << 64 | u3) << 1 | 1``, then from state 0
       one step, ``state += u0 << 64 | u1``, one more step;
    4. a draw steps the 128-bit LCG (``state * mult + inc``), takes the XSL-RR
       output of the new state (high xor low 64 bits, rotated right by the top
       six bits) and returns ``(x >> 11) * 2**-53``.

    The tests pin it to numpy's ``Generator.random()``, double for double,
    and the seeded state to ``np.random.PCG64``'s.  ``seed`` and ``stream``
    must be non-negative; ``SimConfig`` checks the seed.
    """

    __slots__ = ("state", "inc")

    def __init__(self, seed: int, stream: int):
        words = []
        for n in (seed, stream):
            words.append(n & _M32)
            while n > _M32:
                n >>= 32
                words.append(n & _M32)
        h = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal h
            value ^= h
            h = h * 0x931E8875 & _M32
            value = value * h & _M32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for w in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(w))

        h = 0x8B51F9DD
        state = []
        for i in range(8):
            value = pool[i % 4] ^ h
            h = h * 0x58F38DED & _M32
            value = value * h & _M32
            state.append(value ^ value >> 16)
        u = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]

        self.inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
        self.state = ((self.inc + (u[0] << 64 | u[1])) * _PCG64_MULT + self.inc) & _M128

    def random(self) -> float:
        state = self.state = (self.state * _PCG64_MULT + self.inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        # the low 64 bits of (x | x << 64) >> rot are x rotated right by rot;
        # 11 more keep their top 53
        return ((x | x << 64) >> ((state >> 122) + 11) & _M53) * (1.0 / 9007199254740992.0)


def _demand_weights() -> np.ndarray:
    """Per-minute trip demand over the day: morning and evening peaks over a
    base level, with the small hours quiet."""
    import numpy as np

    hours = (np.arange(1440) + 0.5) / 60.0
    w = (
        0.30
        + np.exp(-0.5 * ((hours - 8.5) / 1.5) ** 2)
        + 0.9 * np.exp(-0.5 * ((hours - 18.0) / 1.8) ** 2)
    )
    return w / w.sum()


def _cdf(weights) -> list[float]:
    """The cumulative weights ``Generator.choice(n, p=weights)`` draws from,
    built the way it builds them: ``bisect_right(cdf, rng.random())`` is the
    index that ``choice`` returns from the same stream."""
    import numpy as np

    c = np.cumsum(weights)
    return (c / c[-1]).tolist()


def generate_network(cfg: SimConfig) -> RoadNetwork:
    """Grid road network with bidirectional segment pairs.

    Row/column spacings are drawn uniformly so that every segment's
    great-circle length lands in [0.2, 1.5] km; day and night speeds are
    drawn per directed segment (three buckets: night until 06:00, day until
    22:00, night again).  A fraction of segments is congested during the
    day, which is what makes longer-but-faster routes exist at all.

    The doubles come from ``_Stream(cfg.seed, 1)``, a pure-Python port of
    ``np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])).random()``,
    so building a network does not load numpy.  Each draw is what
    ``Generator.uniform(lo, hi)`` computes, written out:
    ``lo + (hi - lo) * rng.random()``, the same double from the same stream,
    and a Python float, so node coordinates are plain floats.
    """
    rows, cols = cfg.grid_dims
    rng = _Stream(cfg.seed, 1)

    dy = [0.25 + (1.45 - 0.25) * rng.random() for _ in range(rows - 1)]
    dx = [0.25 + (1.45 - 0.25) * rng.random() for _ in range(cols - 1)]
    lat = [_BASE_LAT]
    for g in dy:
        lat.append(lat[-1] + g / _KM_PER_DEG_LAT)
    lng = [_BASE_LNG]
    km_per_deg_lng = _KM_PER_DEG_LAT * math.cos(math.radians(_BASE_LAT))
    for g in dx:
        lng.append(lng[-1] + g / km_per_deg_lng)

    nodes = [
        Node(f"n{r}_{c}", lat[r], lng[c]) for r in range(rows) for c in range(cols)
    ]
    node_by_id = {n.id: n for n in nodes}

    pairs: list[tuple[str, str]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((f"n{r}_{c}", f"n{r}_{c + 1}"))
            if r + 1 < rows:
                pairs.append((f"n{r}_{c}", f"n{r + 1}_{c}"))
    pairs.sort()

    segments = []
    for a, b in pairs:
        length = haversine_km(node_by_id[a], node_by_id[b])
        for frm, to in ((a, b), (b, a)):
            congested = rng.random() < 0.15
            day = (8.0 + (18.0 - 8.0) * rng.random() if congested
                   else 25.0 + (55.0 - 25.0) * rng.random())
            night = 40.0 + (80.0 - 40.0) * rng.random()
            segments.append(
                Segment(
                    f"{frm}>{to}",
                    frm,
                    to,
                    length,
                    ((0.0, night), (360.0, day), (1320.0, night)),
                )
            )
    return RoadNetwork(nodes, segments)


def _cheapest_loop(net: RoadNetwork, node_id: str) -> tuple[str, str] | None:
    """Shortest out-and-back segment pair at a node, if any."""
    best = None
    best_len = math.inf
    for out in net.outgoing(node_id):
        for back in net.outgoing(out.to_node):
            if back.to_node != node_id:
                continue
            total = out.length + back.length
            if total < best_len:
                best_len = total
                best = (out.id, back.id)
    return best


def _plant_detour(net, plan, inflation, rng) -> list[str] | None:
    base = list(plan.path)
    half = max(1, len(base) // 2)
    k = int(rng.integers(1, half + 1))  # loop starts somewhere in the first half
    node = net.segment(base[k - 1]).to_node
    loop = _cheapest_loop(net, node)
    if loop is None:
        return None
    target = inflation * plan.distance
    loop_len = net.segment(loop[0]).length + net.segment(loop[1]).length
    repeats = math.ceil(target / loop_len) if target > 0 else 0
    return base[:k] + list(loop) * repeats + base[k:]


def _plant_alternative(net, plan, origin, dest, t_start, behavior) -> list[str] | None:
    """The planner's one-criterion route for a legitimate deviation.

    Congestion avoiders take the time-optimal route when it is strictly
    longer and strictly faster than the recommendation; shortcut takers take
    the distance-optimal route when it is strictly shorter and strictly
    slower.  Like the recommendation, the route starts on the pickup
    segment, so the deviation starts beyond it.  None when the route is not
    such a deviation.
    """
    if behavior == "avoid_congestion":
        alt = route_plan(net, origin, dest, t_start, RoutingWeights(0.0, 1.0))
        ok = alt.distance > plan.distance + 1e-9 and alt.est_time < plan.est_time - 1e-9
    else:
        alt = route_plan(net, origin, dest, t_start, RoutingWeights(1.0, 0.0))
        ok = alt.distance < plan.distance - 1e-9 and alt.est_time > plan.est_time + 1e-9
    return list(alt.path) if ok else None


def _noisy(lat, lng, cfg, rng) -> tuple[float, float]:
    if cfg.gps_noise_m > 0:
        scale = 1.0 / (_KM_PER_DEG_LAT * 1000.0)
        ny, nx = rng.normal(0.0, cfg.gps_noise_m, size=2)
        lat += ny * scale
        lng += nx * scale / math.cos(math.radians(lat))
    return lat, lng


def _sample_gps(net, segs, dest, times, cfg, rng) -> tuple[GpsPoint, ...]:
    """GPS fixes along the driven path plus a drop-off fix.

    Sampling starts half a period into the trip and the drop-off point sits
    a few metres into the destination segment: real pickups and drop-offs
    happen on road segments, and fixes exactly on an intersection node are
    ambiguous between every segment that touches it.
    """
    points: list[GpsPoint] = []
    t = times[0] + cfg.gps_period_s / 2.0
    if t >= times[-1]:
        t = times[0]  # degenerately short trip: fall back to the pickup time
    idx = 0
    while t < times[-1]:
        while times[idx + 1] <= t:
            idx += 1
        seg = net.segment(segs[idx])
        a = net.node(seg.from_node)
        b = net.node(seg.to_node)
        frac = (t - times[idx]) / (times[idx + 1] - times[idx])
        lat, lng = _noisy(a.lat + frac * (b.lat - a.lat),
                          a.lng + frac * (b.lng - a.lng), cfg, rng)
        points.append(GpsPoint(lat, lng, t))
        t = t + cfg.gps_period_s
    d = net.segment(dest)
    a = net.node(d.from_node)
    b = net.node(d.to_node)
    frac = min(0.015 / d.length, 0.25)
    lat, lng = _noisy(a.lat + frac * (b.lat - a.lat),
                      a.lng + frac * (b.lng - a.lng), cfg, rng)
    points.append(GpsPoint(lat, lng, times[-1]))
    return tuple(points)


def generate_trips(
    net: RoadNetwork, cfg: SimConfig, weights: RoutingWeights = RoutingWeights()
) -> tuple[list[TripRecord], list[DriverRecord]]:
    """Simulate labeled trips with planted driver behaviors.

    Normal drivers follow the initial recommendation; detour drivers insert
    out-and-back loops until the planted extra distance is reached.
    Avoid-congestion drivers take the planner's time-optimal route when it
    is longer but faster than the recommendation, and shortcut drivers its
    distance-optimal route when it is shorter but slower.  A trip whose
    requested behavior finds no such route falls back to normal (the
    fallback is recorded in the trip's ``behavior``).  Start times follow a
    peaked daily demand curve, which is what gives the per-interval income
    and opportunity-cost numbers their shape.  Returns the trips and, per
    driver, the ids of the trips they drove.

    The start minute and the behavior are ``Generator.choice(..., p=...)``
    draws and the second within the minute a ``Generator.uniform(0, 1)``
    draw, each computed directly from the stream's doubles (``_cdf``), so
    the trips are the same as with those calls.
    """
    import numpy as np

    rng = _rng(cfg.seed, 2)
    gps_rng = _rng(cfg.seed, 3)
    demand = _cdf(_demand_weights())

    names = [b for b in BEHAVIORS if cfg.behavior_mix.get(b, 0.0) > 0.0]
    probs = np.array([cfg.behavior_mix[b] for b in names])
    probs = probs / probs.sum()
    day_mix = night_mix = _cdf(probs)
    if cfg.night_detour_boost > 0 and "detour" in names:
        p = probs.copy()
        p[names.index("detour")] *= 1.0 + cfg.night_detour_boost
        night_mix = _cdf(p / p.sum())
    seg_ids = sorted(net.segments.keys())
    if len(seg_ids) < 2:
        raise InputError("could not find a routable origin/destination pair")

    trips: list[TripRecord] = []
    driver_trips: dict[str, list[str]] = {}

    for j in range(cfg.n_trips):
        driver = f"d{int(rng.integers(cfg.n_drivers))}"
        minute = float(bisect_right(demand, rng.random())) + rng.random()
        t_start = BASE_EPOCH + 60.0 * minute
        mix = night_mix if minute < 360.0 else day_mix
        requested = names[bisect_right(mix, rng.random())]

        plan = None
        origin = dest = ""
        for _ in range(10):
            origin = seg_ids[int(rng.integers(len(seg_ids)))]
            dest = seg_ids[int(rng.integers(len(seg_ids)))]
            if origin == dest:
                continue
            try:
                candidate = route_plan(net, origin, dest, t_start, weights)
            except NoRouteError:
                continue
            plan = candidate
            if len(plan.path) >= 3:
                break
        if plan is None:
            raise InputError("could not find a routable origin/destination pair")

        behavior = requested
        if requested == "detour":
            segs = _plant_detour(net, plan, cfg.detour_inflation, rng)
        elif requested in ("avoid_congestion", "shortcut"):
            segs = _plant_alternative(net, plan, origin, dest, t_start, requested)
        else:
            segs = list(plan.path)
        if segs is None:
            behavior = "normal"
            segs = list(plan.path)

        times = entry_times(net, segs, t_start)
        steps = tuple(
            [TrajStep(sid, times[i]) for i, sid in enumerate(segs)]
            + [TrajStep(dest, times[-1])]
        )
        trip_id = f"t{j:06d}"
        atr = AbstractTrajectory(trip_id, steps)

        end = net.segment_end(dest)
        raw = _sample_gps(net, segs, dest, times, cfg, gps_rng) if cfg.gps_period_s > 0 else None

        trip = TripRecord(
            trip_id=trip_id,
            driver_id=driver,
            atr=atr,
            plan=plan,
            recorded_destination=LatLng(end.lat, end.lng),
            actual_destination=LatLng(end.lat, end.lng),
            label="detour" if behavior == "detour" else "normal",
            raw_gps=raw,
            behavior=behavior,
        )
        trips.append(trip)
        driver_trips.setdefault(driver, []).append(trip_id)

    drivers = [
        DriverRecord(driver_id=d, trips=tuple(ts))
        for d, ts in sorted(driver_trips.items())
    ]
    return trips, drivers
