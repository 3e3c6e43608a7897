"""Fragments and the schedule-feasibility oracle.

A fragment is a route path from a pickup to a delivery whose load is zero
exactly at the two endpoints, with a feasible continuous schedule.  The
oracle solves the underlying difference-constraint system (window bounds,
travel increments, ride limits) by longest-path relaxation, so feasibility
is exact and the least solution is the earliest schedule.

Enumeration is a depth-first search over prefixes.  Besides the one-step
window test it prunes with the completion deadline D(loc, S): the latest
departure from loc that still lets every customer in S be delivered within
the windows, in some order,

    D(loc, {}) = l_loc
    D(loc, S)  = max over c in S with D(c+n, S-c) >= e_{c+n}
                 of min(l_loc, D(c+n, S-c) - T*[loc, c+n]),

where T* is the shortest-path closure of T.  A prefix ending at loc with
customers S on board is dropped when it reaches loc later than D(loc, S).
Every fragment that extends the prefix delivers all of S before it ends,
and no path of arcs, however it detours or waits, reaches a delivery
sooner than T* allows, so a dropped prefix has no completion and the
fragment set is unchanged, whether or not T obeys the triangle inequality
(on matrices that do, T* = T).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import EPS, Instance


@dataclass(frozen=True)
class Schedule:
    """Earliest feasible departure times along a path."""

    times: tuple
    start: float
    end: float


class _DiffSystem:
    """t_v >= t_u + w arcs with box bounds; least/greatest solutions via
    Bellman-Ford style relaxation.  Infeasibility <=> some bound bursts
    (equivalently, a positive cycle)."""

    def __init__(self, num):
        self.num = num
        self.lower = np.full(num, -np.inf)
        self.upper = np.full(num, np.inf)
        self.arcs = []

    def bound(self, v, lo=None, hi=None):
        if lo is not None:
            self.lower[v] = max(self.lower[v], lo)
        if hi is not None:
            self.upper[v] = min(self.upper[v], hi)

    def arc(self, u, v, w):
        self.arcs.append((u, v, w))

    def earliest(self):
        t = self.lower.copy()
        if np.any(t > self.upper + EPS):
            return None
        for _ in range(self.num + 1):
            changed = False
            for u, v, w in self.arcs:
                nv = t[u] + w
                if nv > t[v] + EPS:
                    t[v] = nv
                    if nv > self.upper[v] + EPS:
                        return None
                    changed = True
            if not changed:
                return t
        return None  # positive cycle keeps pushing

    def latest(self):
        t = self.upper.copy()
        if np.any(self.lower > t + EPS):
            return None
        for _ in range(self.num + 1):
            changed = False
            for u, v, w in self.arcs:
                nu = t[v] - w
                if nu < t[u] - EPS:
                    t[u] = nu
                    if nu < self.lower[u] - EPS:
                        return None
                    changed = True
            if not changed:
                return t
        return None


def _path_system(inst: Instance, path, fixed_start=None) -> _DiffSystem:
    sys = _DiffSystem(len(path))
    pos = {loc: k for k, loc in enumerate(path)}
    if len(pos) != len(path):
        raise ValueError(f"path repeats a location: {path}")
    for k, loc in enumerate(path):
        sys.bound(k, inst.earliest[loc], inst.latest[loc])
    if fixed_start is not None:
        sys.bound(0, fixed_start, fixed_start)
    T = inst.travel_time
    for k in range(len(path) - 1):
        sys.arc(k, k + 1, T[path[k], path[k + 1]])
    for loc in path:
        if inst.is_pickup(loc) and loc + inst.n in pos:
            # ride limit as a backward arc: t_p >= t_d - R
            sys.arc(pos[loc + inst.n], pos[loc], -inst.ride[loc])
    return sys


def feasible_schedule(inst: Instance, path, fixed_start=None):
    """Earliest feasible schedule of a location path, or None.

    Enforces windows, travel increments and the ride limit of every
    customer whose pickup and delivery both lie on the path.  With
    fixed_start set, departure from path[0] is pinned to that time.
    """
    if not path:
        return Schedule((), 0.0, 0.0)
    t = _path_system(inst, path, fixed_start).earliest()
    if t is None:
        return None
    return Schedule(tuple(float(v) for v in t), float(t[0]), float(t[-1]))


def start_interval(inst: Instance, path):
    """Closed interval [s_min, s_max] of feasible departure times from
    path[0], or None when no schedule exists."""
    sys = _path_system(inst, path)
    early = sys.earliest()
    if early is None:
        return None
    late = sys.latest()
    return float(early[0]), float(late[0])


def joint_schedule(inst: Instance, paths, fixed=None):
    """Earliest joint schedule for several vehicle paths with one shared
    time per customer location (synchronization), or None.

    Depot endpoints get per-vehicle variables.  `fixed` optionally pins
    location times (dict loc -> minutes).
    """
    keys = {}

    def key(vehicle, loc):
        k = loc if 0 < loc < inst.destination else (vehicle, loc)
        if k not in keys:
            keys[k] = len(keys)
        return keys[k]

    indexed = []
    for v, path in enumerate(paths):
        indexed.append([(loc, key(v, loc)) for loc in path])
    sys = _DiffSystem(len(keys))
    for v, path in enumerate(indexed):
        for loc, k in path:
            sys.bound(k, inst.earliest[loc], inst.latest[loc])
        for (i, ki), (j, kj) in zip(path, path[1:]):
            sys.arc(ki, kj, inst.travel_time[i, j])
    for i in inst.pickups:
        if i in keys and i + inst.n in keys:
            sys.arc(keys[i + inst.n], keys[i], -inst.ride[i])
    if fixed:
        for loc, t in fixed.items():
            sys.bound(keys[loc], t, t)
    t = sys.earliest()
    if t is None:
        return None
    return [{loc: float(t[k]) for loc, k in path} for path in indexed]


@dataclass(frozen=True)
class Fragment:
    """Physical fragment: pickup-to-delivery path, empty exactly at the ends."""

    path: tuple
    cost: float
    vehicles: int  # vehicles traversing it simultaneously
    kind: str  # "chain" (small customers) or "large-pair"

    @property
    def start(self) -> int:
        return self.path[0]

    @property
    def end(self) -> int:
        return self.path[-1]


class FragmentSet:
    """All fragments of an instance, lexicographically ordered."""

    def __init__(self, inst: Instance, fragments):
        self.inst = inst
        self.fragments = tuple(sorted(fragments, key=lambda f: f.path))

    def __len__(self):
        return len(self.fragments)

    def __iter__(self):
        return iter(self.fragments)

    def __getitem__(self, fid):
        return self.fragments[fid]


def _path_cost(inst, path):
    C = inst.travel_cost
    return float(sum(C[i, j] for i, j in zip(path, path[1:])))


def _shortest_times(T):
    """Shortest-path closure of T (Floyd-Warshall, one k-slice at a time):
    no path of arcs gets from i to j sooner than the result's [i, j]."""
    Ts = T.copy()
    for k in range(len(Ts)):
        np.minimum(Ts, Ts[:, k, None] + Ts[None, k, :], out=Ts)
    return Ts


def enumerate_fragments(inst: Instance) -> FragmentSet:
    """All fragments: a DFS over capacity-positive extensions from each
    small pickup, plus one pair fragment per large customer.

    A prefix is extended only while its last visit meets its window (the
    one-step test) and its arrival is no later than the completion
    deadline D(last, onboard) of the module docstring, up to the same EPS
    as the window test.  D bounds travel by the closure T*, which no
    detour beats, and ignores ride limits, so the prune is exact: it drops
    only prefixes that no extension completes.  Ride limits are checked on
    emission only (they are not monotone under extension).  D is memoised
    on (location, onboard set) for this call only.
    """
    out = []
    n = inst.n
    Q = inst.capacity
    T = inst.travel_time
    e, l = inst.earliest, inst.latest

    for i in inst.large_pickups:
        path = (i, i + n)
        if feasible_schedule(inst, path) is not None:
            out.append(Fragment(path, _path_cost(inst, path),
                                inst.vehicles_required(i), "large-pair"))

    smalls = inst.small_pickups
    Ts = _shortest_times(T)
    memo = {}

    def deadline(loc, onboard):
        """D(loc, onboard); -inf when no delivery order fits the windows."""
        key = (loc, onboard)
        if key not in memo:
            best = float(l[loc]) if not onboard else -np.inf
            for c in onboard:
                d = c + n
                later = deadline(d, onboard - {c})
                if later >= e[d] - EPS:
                    best = max(best, min(l[loc], later - Ts[loc, d]))
            memo[key] = best
        return memo[key]

    def extend(path, onboard, load, arrive):
        last = path[-1]
        if arrive > deadline(last, onboard) + EPS:
            return
        for c in sorted(onboard):
            d = c + n
            t = max(arrive + T[last, d], e[d])
            if t > l[d] + EPS:
                continue
            new_load = load - inst.demand[c]
            if new_load == 0:
                full = path + (d,)
                if feasible_schedule(inst, full) is not None:
                    out.append(Fragment(full, _path_cost(inst, full), 1, "chain"))
            else:
                extend(path + (d,), onboard - {c}, new_load, t)
        for j in smalls:
            if j in path or load + inst.demand[j] > Q:
                continue
            t = max(arrive + T[last, j], e[j])
            if t > l[j] + EPS:
                continue
            extend(path + (j,), onboard | {j}, load + inst.demand[j], t)

    for i in smalls:
        extend((i,), frozenset((i,)), int(inst.demand[i]), float(e[i]))
    return FragmentSet(inst, out)


def dump_fragments(frags: FragmentSet) -> str:
    """Deterministic text listing for golden tests."""
    lines = [f"fragments {len(frags)}"]
    for f in frags:
        path = ",".join(str(p) for p in f.path)
        lines.append(f"{f.kind} path=({path}) cost={f.cost:.6f} vehicles={f.vehicles}")
    return "\n".join(lines) + "\n"
