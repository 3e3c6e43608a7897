"""Fragments and the schedule-feasibility oracle.

A fragment is a route path from a pickup to a delivery whose load is zero
exactly at the two endpoints, with a feasible continuous schedule.  Every
schedule question is one difference-constraint system, built by _system
(window bounds, travel increments, ride limits, one time per customer
location) and solved by longest-path relaxation in _earliest, so
feasibility is exact and the least solution is the earliest schedule.

Enumeration is a depth-first search over prefixes.  It prunes with the
completion deadline D(loc, S): the latest departure from loc that still
lets every customer in S be delivered within the windows, in some order,

    D(loc, {}) = l_loc
    D(loc, S)  = max over c in S with D(c+n, S-c) >= e_{c+n}
                 of min(l_loc, D(c+n, S-c) - T*[loc, c+n]),

where T* is the shortest-path closure of T.  A prefix ending at loc with
customers S on board is dropped when it serves loc later than D(loc, S),
which is never later than l_loc.  Every fragment that extends the prefix
delivers all of S before it ends, and no path of arcs, however it detours
or waits, reaches a delivery sooner than T* allows, so a dropped prefix
has no completion and the fragment set is unchanged, whether or not T
obeys the triangle inequality (on matrices that do, T* = T).  `completion_deadline` holds the recursion
for any base case; the time-feasible event network (`events`) ends it at
the destination depot instead of at l_loc.  Both builders take each step
by one rule, `earliest_service`.
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


def _system(inst: Instance, paths):
    """(lower, upper, arcs, ids) of paths: t solves it when lower <= t <=
    upper and t[v] >= t[u] + w for each arc (u, v, w); paths[k][m] has
    variable ids[k][m].  A customer location has one time, whichever paths
    visit it (synchronization); a depot visit has its own.  Arcs: travel
    along each path, then by pickup the ride limit t_p >= t_d - R of every
    customer with both locations keyed."""
    e, l, T = inst.earliest, inst.latest, inst.travel_time
    shared = {}  # customer location -> its variable
    lower, upper, arcs, ids = [], [], [], []
    for path in paths:
        row = []
        for loc in path:
            v = shared.get(loc)
            if v is None:
                v = len(lower)
                lower.append(float(e[loc]))
                upper.append(float(l[loc]))
                if 0 < loc < inst.destination:
                    shared[loc] = v
            row.append(v)
        arcs += [(row[m], row[m + 1], float(T[path[m], path[m + 1]]))
                 for m in range(len(row) - 1)]
        ids.append(row)
    for i in inst.pickups:
        if i in shared and i + inst.n in shared:
            arcs.append((shared[i + inst.n], shared[i], -float(inst.ride[i])))
    return lower, upper, arcs, ids


def _earliest(lower, upper, arcs):
    """Least solution of a _system by Bellman-Ford relaxation, or None when
    a bound bursts (equivalently, a positive cycle).  Minus the least
    solution in s = -t (box negated, arcs reversed) is the greatest."""
    if any(lo > hi + EPS for lo, hi in zip(lower, upper)):
        return None
    t = list(lower)
    for _ in range(len(t) + 1):
        changed = False
        for u, v, w in arcs:
            nv = t[u] + w
            if nv > t[v] + EPS:
                if nv > upper[v] + EPS:
                    return None
                t[v] = nv
                changed = True
        if not changed:
            return t
    return None  # positive cycle keeps pushing


def feasible_schedule(inst: Instance, path, fixed_start=None):
    """Earliest feasible schedule of a location path, or None: windows,
    travel increments and the ride limit of every customer whose pickup
    and delivery both lie on the path.  With fixed_start set, departure
    from path[0] is pinned to that time."""
    if not path:
        return Schedule((), 0.0, 0.0)
    if len(set(path)) != len(path):
        raise ValueError(f"path repeats a location: {path}")
    lower, upper, arcs, _ = _system(inst, [path])
    if fixed_start is not None:
        start = float(fixed_start)
        lower[0], upper[0] = max(lower[0], start), min(upper[0], start)
    t = _earliest(lower, upper, arcs)
    return None if t is None else Schedule(tuple(t), t[0], t[-1])


def start_interval(inst: Instance, path):
    """Closed interval [s_min, s_max] of feasible departure times from
    path[0], or None when no schedule exists."""
    if len(set(path)) != len(path):
        raise ValueError(f"path repeats a location: {path}")
    lower, upper, arcs, _ = _system(inst, [path])
    early = _earliest(lower, upper, arcs)
    if early is None:
        return None
    late = _earliest([-hi for hi in upper], [-lo for lo in lower],
                     [(v, u, w) for u, v, w in arcs])
    return early[0], -late[0]


def joint_schedule(inst: Instance, paths):
    """Earliest joint schedule of vehicle paths with one shared time per
    customer location (synchronization): per path, a dict loc -> time.
    None when the paths have no schedule."""
    lower, upper, arcs, ids = _system(inst, paths)
    t = _earliest(lower, upper, arcs)
    if t is None:
        return None
    return [{loc: t[v] for loc, v in zip(path, row)}
            for path, row in zip(paths, ids)]


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
    """All fragments of an instance, lexicographically ordered.

    The set also keeps the grid-independent timing that every expansion
    over a time grid asks for again: each fragment's start interval, and
    its earliest end from each pinned departure.  enumerate_fragments
    builds one set per solve, so these live for exactly one solve.  Both
    are computed through the module-level start_interval and
    feasible_schedule.
    """

    def __init__(self, inst: Instance, fragments):
        self.inst = inst
        self.fragments = tuple(sorted(fragments, key=lambda f: f.path))
        self._intervals = {}  # fid -> start_interval of its path
        self._ends = {}  # (fid, departure) -> earliest end

    def interval(self, fid):
        """start_interval of fragment fid's path."""
        if fid not in self._intervals:
            self._intervals[fid] = start_interval(self.inst, self.fragments[fid].path)
        return self._intervals[fid]

    def end_from(self, fid, start):
        """Earliest end of fragment fid when it leaves at exactly start, a
        time within its start interval."""
        key = (fid, start)
        end = self._ends.get(key)
        if end is None:
            end = self._ends[key] = feasible_schedule(
                self.inst, self.fragments[fid].path, fixed_start=start).end
        return end

    def __len__(self):
        return len(self.fragments)

    def __iter__(self):
        return iter(self.fragments)

    def __getitem__(self, fid):
        return self.fragments[fid]


def _path_cost(inst, path):
    C = inst.travel_cost
    return float(sum(C[i, j] for i, j in zip(path, path[1:])))


def shortest_times(T):
    """Shortest-path closure of T (Floyd-Warshall, one k-slice at a time):
    no path of arcs gets from i to j sooner than the result's [i, j]."""
    Ts = T.copy()
    for k in range(len(Ts)):
        np.minimum(Ts, Ts[:, k, None] + Ts[None, k, :], out=Ts)
    return Ts


def completion_deadline(inst: Instance, Ts, base):
    """D(loc, onboard) of the module docstring over the closure Ts, with
    D(loc, {}) = base[loc]; -inf when no delivery order fits the windows.
    onboard is a frozenset of customer ids.  The returned function memoises
    its values, so a caller keeps it for one instance only."""
    n = inst.n
    e, l = inst.earliest, inst.latest
    memo = {}

    def deadline(loc, onboard):
        key = (loc, onboard)
        if key not in memo:
            best = float(base[loc]) if not onboard else -np.inf
            for c in onboard:
                d = c + n
                later = deadline(d, onboard - {c})
                if later >= e[d] - EPS:
                    best = max(best, min(l[loc], later - Ts[loc, d]))
            memo[key] = best
        return memo[key]

    return deadline


def earliest_service(ready, travel, earliest, latest, deadline=None):
    """One step of a route: a vehicle free at ready travels for travel to a
    stop whose window is [earliest, latest] and serves it at
    max(ready + travel, earliest).  Returns that time, or None when it is
    later than latest + EPS or, if deadline is given, than deadline() +
    EPS: the stop's completion deadline, asked only once the window test
    passes, since it costs a memoised recursion and latest a lookup.  The
    fragment search and the time-feasible event network both step by
    this rule."""
    t = max(ready + travel, earliest)
    if t > latest + EPS or (deadline is not None and t > deadline() + EPS):
        return None
    return t


def enumerate_fragments(inst: Instance) -> FragmentSet:
    """All fragments: a DFS over capacity-positive extensions from each
    small pickup, plus one pair fragment per large customer.

    A prefix is extended only while `earliest_service` serves its last
    visit within its window and no later than the completion deadline
    D(last, onboard) of the module docstring.  D bounds travel by the
    closure T*, which no detour beats, and ignores ride limits, so the
    prune is exact: it drops only prefixes that no extension completes.
    Ride limits are checked on emission only (they are not monotone under
    extension).  A fragment ends at its last delivery, so D's base case is
    the window alone, l_loc.
    """
    out = []
    n = inst.n
    Q = inst.capacity
    # plain lists: the search reads one entry at a time
    T = inst.travel_time.tolist()
    e, l = inst.earliest.tolist(), inst.latest.tolist()
    q = inst.demand.tolist()

    for i in inst.large_pickups:
        path = (i, i + n)
        if feasible_schedule(inst, path) is not None:
            out.append(Fragment(path, _path_cost(inst, path),
                                inst.vehicles_required(i), "large-pair"))

    smalls = inst.small_pickups
    deadline = completion_deadline(inst, shortest_times(inst.travel_time),
                                   inst.latest)

    def extend(path, onboard, load, ready):
        last = path[-1]
        for c in sorted(onboard):
            d = c + n
            t = earliest_service(ready, T[last][d], e[d], l[d],
                                 lambda: deadline(d, onboard - {c}))
            if t is None:
                continue
            new_load = load - q[c]
            if new_load == 0:
                full = path + (d,)
                if feasible_schedule(inst, full) is not None:
                    out.append(Fragment(full, _path_cost(inst, full), 1, "chain"))
            else:
                extend(path + (d,), onboard - {c}, new_load, t)
        for j in smalls:
            if j in path or load + q[j] > Q:
                continue
            t = earliest_service(ready, T[last][j], e[j], l[j],
                                 lambda: deadline(j, onboard | {j}))
            if t is not None:
                extend(path + (j,), onboard | {j}, load + q[j], t)

    for i in smalls:
        start = frozenset((i,))
        # the first stop: the vehicle is free from the start of time
        t = earliest_service(-np.inf, 0.0, e[i], l[i], lambda: deadline(i, start))
        if t is not None:
            extend((i,), start, q[i], t)
    return FragmentSet(inst, out)


def dump_fragments(frags: FragmentSet) -> str:
    """Deterministic text listing for golden tests."""
    lines = [f"fragments {len(frags)}"]
    for f in frags:
        path = ",".join(str(p) for p in f.path)
        lines.append(f"{f.kind} path=({path}) cost={f.cost:.6f} vehicles={f.vehicles}")
    return "\n".join(lines) + "\n"
