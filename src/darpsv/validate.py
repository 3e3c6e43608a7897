"""Route sets, independent feasibility checking and a brute-force optimum
oracle.

Every solver's routes are built one way, by timed_routes: location paths
at their earliest joint schedule.  The checker re-derives everything from
the instance and the route set; it never trusts solver bookkeeping.  The
oracle exhausts vehicle assignments and visit orders for tiny instances
and prices schedules through the same difference-constraint engine the
solvers use for certificates, with shared times at synchronized
locations.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .fragments import joint_schedule
from .instance import EPS, Instance

PAIRING = "Pairing"
PRECEDENCE = "Precedence"
CAPACITY = "Capacity"
WINDOW = "Window"
RIDE_TIME = "RideTime"
INCREMENT = "Increment"
SYNC_TIME = "SyncTime"
SYNC_COUNT = "SyncCount"
EMPTY_BEFORE_LARGE = "EmptyBeforeLarge"
IMMEDIATE_DELIVERY = "ImmediateDelivery"
FLEET_SIZE = "FleetSize"
COST_MISMATCH = "CostMismatch"


@dataclass
class Route:
    vehicle: int
    stops: list  # (location, time)

    @property
    def path(self):
        return [loc for loc, _ in self.stops]


@dataclass
class RouteSet:
    routes: list
    objective: float
    sync_groups: dict = field(default_factory=dict)  # large pickup -> vehicles

    def paths(self):
        return [r.path for r in self.routes]

    def recost(self, inst) -> float:
        C = inst.travel_cost
        return float(sum(C[i, j] for r in self.routes
                         for i, j in zip(r.path, r.path[1:])))

    def to_dict(self):
        return {
            "objective": self.objective,
            "routes": [{"vehicle": r.vehicle,
                        "stops": [{"loc": int(l), "t": float(t)} for l, t in r.stops]}
                       for r in self.routes],
            "sync_groups": {str(k): list(v) for k, v in self.sync_groups.items()},
        }

    @classmethod
    def from_dict(cls, payload):
        """Inverse of to_dict; missing routes or sync groups read as none."""
        return cls([Route(r["vehicle"], [(int(s["loc"]), float(s["t"]))
                                         for s in r["stops"]])
                    for r in payload.get("routes", [])],
                   float(payload["objective"]),
                   {int(k): tuple(v)
                    for k, v in payload.get("sync_groups", {}).items()})


def timed_routes(inst, paths, objective):
    """Routes along paths at their earliest continuous joint schedule, with
    the vehicles of each large pickup grouped, or None when the paths have
    no schedule."""
    times = joint_schedule(inst, paths)
    if times is None:
        return None
    groups = {}
    for v, path in enumerate(paths):
        for loc in path:
            if inst.is_pickup(loc) and inst.is_large(loc):
                groups.setdefault(loc, []).append(v)
    return RouteSet([Route(v, [(loc, times[v][loc]) for loc in path])
                     for v, path in enumerate(paths)], float(objective),
                    {loc: tuple(vs) for loc, vs in groups.items()})


@dataclass(frozen=True)
class Violation:
    kind: str
    route: int  # -1 for solution-level findings
    location: int  # -1 when not tied to one location
    detail: str

    def __str__(self):
        return f"[{self.kind}] route={self.route} loc={self.location}: {self.detail}"


def check(inst: Instance, rs: RouteSet) -> list:
    """All constraint violations of a route set; empty iff feasible."""
    out = []
    n = inst.n
    if len(rs.routes) > inst.vehicles:
        out.append(Violation(FLEET_SIZE, -1, -1,
                             f"{len(rs.routes)} routes > |V|={inst.vehicles}"))

    visit_time = {}
    visitors = {}
    for route in rs.routes:
        path = route.path
        if path and (path[0] != inst.origin or path[-1] != inst.destination):
            out.append(Violation(PRECEDENCE, route.vehicle, path[0],
                                 "route must run origin depot to destination depot"))
        seen = set()
        load = 0
        for k, (loc, t) in enumerate(route.stops):
            if loc in seen:
                out.append(Violation(PRECEDENCE, route.vehicle, loc,
                                     "location visited twice in one route"))
            seen.add(loc)
            if not inst.earliest[loc] - EPS <= t <= inst.latest[loc] + EPS:
                out.append(Violation(
                    WINDOW, route.vehicle, loc,
                    f"t={t:.3f} outside [{inst.earliest[loc]:.3f}, "
                    f"{inst.latest[loc]:.3f}]"))
            if k:
                prev, tp = route.stops[k - 1]
                need = inst.travel_time[prev, loc]
                if t < tp + need - EPS:
                    out.append(Violation(
                        INCREMENT, route.vehicle, loc,
                        f"t={t:.3f} < {tp:.3f} + T={need:.3f}"))
            if inst.is_pickup(loc):
                if inst.is_large(loc):
                    if load != 0:
                        out.append(Violation(EMPTY_BEFORE_LARGE, route.vehicle, loc,
                                             f"load {load} on arrival"))
                    nxt = path[k + 1] if k + 1 < len(path) else None
                    if nxt != loc + n:
                        out.append(Violation(IMMEDIATE_DELIVERY, route.vehicle, loc,
                                             f"next stop {nxt} != {loc + n}"))
                    load += inst.capacity  # this vehicle's share
                else:
                    load += int(inst.demand[loc])
            elif inst.is_delivery(loc):
                c = loc - n
                load -= inst.capacity if inst.is_large(c) else int(inst.demand[loc - n])
            if load > inst.capacity:
                out.append(Violation(CAPACITY, route.vehicle, loc,
                                     f"load {load} > Q={inst.capacity}"))
            if load < 0:
                out.append(Violation(PRECEDENCE, route.vehicle, loc,
                                     "delivery before its pickup"))
            if 0 < loc < inst.destination:
                visit_time.setdefault(loc, []).append((route.vehicle, t))
                visitors.setdefault(loc, []).append(route.vehicle)
        for i in inst.pickups:
            if i in seen:
                d = i + n
                if d not in seen:
                    out.append(Violation(PAIRING, route.vehicle, i,
                                         f"pickup {i} without delivery {d}"))
                else:
                    ti = dict((l, t) for l, t in route.stops)
                    if ti[d] - ti[i] > inst.ride[i] + EPS:
                        out.append(Violation(
                            RIDE_TIME, route.vehicle, i,
                            f"ride {ti[d] - ti[i]:.3f} > R={inst.ride[i]:.3f}"))
                    if path.index(d) < path.index(i):
                        out.append(Violation(PRECEDENCE, route.vehicle, i,
                                             "delivery precedes pickup"))

    for i in inst.pickups:
        need = inst.vehicles_required(i)
        for loc in (i, i + n):
            got = visitors.get(loc, [])
            if len(got) != need:
                out.append(Violation(SYNC_COUNT, -1, loc,
                                     f"{len(got)} visits, need {need}"))
            times = [t for _, t in visit_time.get(loc, [])]
            if times and max(times) - min(times) > EPS:
                out.append(Violation(SYNC_TIME, -1, loc,
                                     f"departures spread {min(times):.4f}.."
                                     f"{max(times):.4f}"))
    for i in inst.large_pickups:
        group = rs.sync_groups.get(i)
        if group is not None and sorted(group) != sorted(visitors.get(i, [])):
            out.append(Violation(SYNC_COUNT, -1, i,
                                 f"sync group {group} != visitors {visitors.get(i)}"))

    recost = rs.recost(inst)
    if not abs(recost - rs.objective) <= 1e-6 * max(1.0, abs(recost)):  # NaN fails too
        out.append(Violation(COST_MISMATCH, -1, -1,
                             f"reported {rs.objective:.6f} != recomputed {recost:.6f}"))
    return out


# -- brute-force oracle -------------------------------------------------------

class OracleSizeError(ValueError):
    """Instance too large for exhaustive search."""


def _vehicle_orders(inst, customers):
    """All feasible visit orders of one vehicle's customers, as location
    tuples.  Large customers are atomic pickup-delivery blocks that need an
    empty vehicle."""

    def grow(seq, onboard, load, remaining):
        if not remaining and not onboard:
            yield seq
            return
        for c in sorted(remaining):
            if inst.is_large(c):
                if load == 0:
                    yield from grow(seq + (c, c + inst.n), onboard,
                                    0, remaining - {c})
            elif load + inst.demand[c] <= inst.capacity:
                yield from grow(seq + (c,), onboard | {c},
                                load + int(inst.demand[c]), remaining - {c})
        for c in sorted(onboard):
            yield from grow(seq + (c + inst.n,), onboard - {c},
                            load - int(inst.demand[c]), remaining)

    yield from grow((), frozenset(), 0, frozenset(customers))


def brute_optimum(inst: Instance, max_n=4, max_vehicles=3):
    """Exhaustive optimum: (objective, RouteSet), or (None, None) when
    infeasible.  Guarded to tiny instances."""
    if inst.n > max_n or inst.vehicles > max_vehicles:
        raise OracleSizeError(
            f"n={inst.n}, |V|={inst.vehicles} beyond guard "
            f"({max_n}, {max_vehicles})")
    smalls = list(inst.small_pickups)
    larges = list(inst.large_pickups)
    V = inst.vehicles

    small_assignments = itertools.product(range(V), repeat=len(smalls))
    large_choices = []
    for i in larges:
        k = inst.vehicles_required(i)
        if k > V:
            return None, None
        large_choices.append(list(itertools.combinations(range(V), k)))

    best = (math.inf, None)
    seen_assignments = set()
    for small_to in small_assignments:
        for large_to in itertools.product(*large_choices):
            # canonicalize vehicle labels (identical fleet): first use order
            signature = []
            for v in range(V):
                cs = tuple(sorted(
                    [c for c, sv in zip(smalls, small_to) if sv == v] +
                    [c for c, grp in zip(larges, large_to) if v in grp]))
                signature.append(cs)
            key = tuple(sorted(signature))
            if key in seen_assignments:
                continue
            seen_assignments.add(key)
            per_vehicle = [cs for cs in signature if cs]
            if len(per_vehicle) > V:
                continue
            cost, paths = _best_orders(inst, per_vehicle)
            if cost is not None and cost < best[0] - 1e-12:
                best = (cost, paths)
    if best[1] is None:
        return None, None
    return best[0], timed_routes(inst, best[1], best[0])


def _best_orders(inst, per_vehicle):
    """Cheapest joint-schedulable combination of per-vehicle visit orders:
    (cost, paths), or (None, None)."""
    C = inst.travel_cost
    order_sets = []
    for customers in per_vehicle:
        orders = []
        for seq in _vehicle_orders(inst, customers):
            path = (inst.origin,) + seq + (inst.destination,)
            cost = sum(C[i, j] for i, j in zip(path, path[1:]))
            orders.append((cost, path))
        if not orders:
            return None, None
        orders.sort()
        order_sets.append(orders)

    best_cost, best_paths = None, None
    for combo in itertools.product(*order_sets):
        cost = sum(c for c, _ in combo)
        if best_cost is not None and cost >= best_cost - 1e-12:
            continue
        paths = [p for _, p in combo]
        if joint_schedule(inst, paths) is None:
            continue
        best_cost, best_paths = cost, paths
    if best_cost is None:
        return None, None
    return float(best_cost), best_paths
