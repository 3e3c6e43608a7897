"""Time-space networks for the event- and fragment-based formulations.

Grids are per-location sorted time lists, and a node is a place (a
location, or an event of the event network) at a grid time: the time
service starts there.  Both networks expand their arcs by three rules:

- landing (_TsBase.link): an arc i -> j left at t arrives at
  a = max(t + T_ij, e_j), waiting for j's window, is dropped when a > l_j
  or a precedes j's grid, and lands at round_down(a), the last grid point
  of j at or before a.
  Partial (DDD) grids thus shorten arcs; each arc and fragment copy keeps
  its rounding loss a - round_down(a) as disc, which tells DDD the arcs
  to refine.
  Returns to the destination only test its window and land on the
  destination node.
- cap (Instance.arc_cap): at most that many synchronized vehicles share an
  arc, the smaller requirement of its two locations, a depot end taking
  the other end's.
- dominance (_TsBase.link): of the departures of one location arc (one
  event arc in the event network) that land at the same head node, only
  the latest gets a copy.  Flow on an earlier copy can wait at its tail
  and take the kept one: waiting is free, the head stamp does not change,
  and every cap still holds.  Only one customer's fragment copies end at
  its delivery or start at its pickup, and its cover row bounds them by
  its requirement; the pickup rows bound the flow through each location,
  so all copies of one event arc together carry at most its cap.  The kept
  copy has the smallest rounding loss.  A departure stamp enters only its
  own pickup's TSEF ride row, with a minus sign, so the later stamp
  loosens it.  Only a large customer's direct pickup -> delivery arc can
  merge used copies; they make up its whole ride row, and each merged
  term r - t' is at most every old term r - t, so the merged row follows
  from the old one unless two merged copies land before they leave.
"""
from __future__ import annotations

import time
from bisect import bisect_right, insort
from typing import NamedTuple

from .instance import EPS, Instance
from .fragments import FragmentSet
from .graph import reachable

GRID_TOL = 1e-9
# most points a fixed grid may ask for, (l_p - e_p) / delta summed over
# locations: a step just above GRID_TOL would fill memory long before a
# solve's deadline, so a step that asks for more is refused up front
GRID_POINT_BUDGET = 10 ** 6


class GridBudgetError(ValueError):
    """A fixed grid step that asks for more than GRID_POINT_BUDGET points
    (a usage error)."""


class TimeGrid:
    """Per-location sorted time sets T_p within [e_p, l_p]."""

    def __init__(self, inst: Instance, times: dict):
        self.inst = inst
        self.times = {loc: sorted(ts) for loc, ts in times.items()}

    @classmethod
    def fixed(cls, inst: Instance, delta: float, deadline=None) -> "TimeGrid":
        """e_p + k*delta clipped to the window, plus l_p, skipping a point
        within GRID_TOL of the one before (contains() reads them as one).
        At the time.perf_counter() deadline (None: no limit) the steps
        stop, and each location keeps e_p, the points so far and l_p: the
        solve the grid is built for stops at the same deadline.  Raises
        GridBudgetError, before making any point, when the windows over
        delta ask for more than GRID_POINT_BUDGET points."""
        if not delta > 0:
            raise ValueError(f"grid step must be positive, got {delta!r}")
        asked = float((inst.latest - inst.earliest).sum()) / delta
        if asked > GRID_POINT_BUDGET:
            raise GridBudgetError(
                f"grid step {delta:g} asks for {asked:.3g} time points, more "
                f"than the {GRID_POINT_BUDGET:,} a fixed grid may have")
        times = {}
        for loc in range(inst.num_locations):
            e, l = inst.earliest[loc], inst.latest[loc]  # e <= l
            ts = [e]
            k = 1
            while e + k * delta <= l + GRID_TOL:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                t = min(e + k * delta, l)
                if t > ts[-1] + GRID_TOL:
                    ts.append(t)
                k += 1
            if ts[-1] < l - GRID_TOL:
                ts.append(l)
            times[loc] = ts
        return cls(inst, times)

    def __getitem__(self, loc):
        return self.times[loc]

    def round_down(self, loc, t):
        """Largest grid value <= t; None when t precedes the whole grid."""
        ts = self.times[loc]
        idx = bisect_right(ts, t + GRID_TOL) - 1
        if idx < 0:
            return None
        return ts[idx]

    def contains(self, loc, t) -> bool:
        v = self.round_down(loc, t)
        return v is not None and abs(v - t) <= GRID_TOL

    def insert(self, loc, t) -> bool:
        """Insert an exact time point; False when already present or outside
        the window."""
        e, l = self.inst.earliest[loc], self.inst.latest[loc]
        if t < e - GRID_TOL or t > l + GRID_TOL:
            return False
        if self.contains(loc, t):
            return False
        insort(self.times[loc], float(t))
        return True

    def size(self) -> int:
        return sum(len(ts) for ts in self.times.values())


class TsNode(NamedTuple):
    place: int  # a location, or an event id in the event network
    t: float


class TsFragment(NamedTuple):
    """One time-space copy of a physical fragment.

    start_eff is the earliest feasible departure mapping to the grid start
    (equals the grid time whenever that exact departure is feasible);
    end_actual its earliest continuous arrival; disc the rounding loss.
    """

    frag_id: int
    tail: int
    head: int
    vehicles: int
    cost: float
    start_eff: float
    end_actual: float
    disc: float


MOVE, IDLE, DEPOT_OUT, DEPOT_IN = "move", "idle", "depot_out", "depot_in"


class TsArc(NamedTuple):
    tail: int
    head: int
    loc_arc: tuple
    kind: str
    cost: float
    cap: int
    disc: float
    event_arc: int = -1  # event-mode: originating event arc id


class _TsBase:
    def __init__(self, inst, grid):
        self.inst = inst
        self.grid = grid
        self.nodes = []
        self.node_index = {}
        self._ids = {}  # (place, unrounded t) -> node id
        # TsArc fields as plain tuples until prune() builds each kept arc
        self.arcs = []
        self._terms = {}  # (i, j) -> kind, cost and cap of its copies
        # plain-float copies, so link() reads each arc's constants once
        self._travel = inst.travel_time.tolist()
        self._early = inst.earliest.tolist()
        self._late = inst.latest.tolist()

    def node(self, place, t):
        """Id of the node of place at time t, keyed by t rounded to 9
        decimals; each (place, t) is rounded once."""
        nid = self._ids.get((place, t))
        if nid is None:
            # a plain tuple finds the same entry as the TsNode it equals
            key = (place, round(float(t), 9))
            nid = self.node_index.get(key)
            if nid is None:
                nid = self.node_index[key] = len(self.nodes)
                self.nodes.append(TsNode(*key))
            self._ids[place, t] = nid
        return nid

    def link(self, tail, i, heads, times, event_arc=-1):
        """Add the copies of the location arcs i -> j, for (head, j) in
        heads, that leave place tail at the grid times in times and land at
        place head (in the fragment network a place is its location), by
        the landing rule of the module docstring.

        A departure gets a copy only when the next time in times lands
        elsewhere, lands past the window, or does not exist: landings
        never move back as t grows, so that copy is the latest departure
        to its head node (the module docstring's dominance rule).  Copies
        are added by departure time, and for each time in the order of
        heads; times ascend, so an arc its first departure overshoots gets
        no copy."""
        inst = self.inst
        targets = []  # each arc's constants, read once per call
        for head, j in heads:
            travel, late = self._travel[i][j], self._late[j]
            if times[0] + travel > late + EPS:
                continue
            terms = self._terms.get((i, j))
            if terms is None:
                terms = self._terms[i, j] = (
                    DEPOT_OUT if i == inst.origin else
                    DEPOT_IN if j == inst.destination else MOVE,
                    float(inst.travel_cost[i, j]), inst.arc_cap(i, j))
            # a return to the destination lands at l_j, with no loss
            ts = None if j == inst.destination else self.grid.times[j]
            targets.append((head, (i, j), travel, self._early[j], late + EPS,
                            late, ts, terms))
        # each target's copies by departure; times ascend, and with them
        # arrivals, so a target's walk ends at its first overshoot
        copies = [[] for _ in times]
        for head, loc_arc, travel, early, cutoff, late, ts, terms in targets:
            held = None  # (k, copy) of the last landing
            for k, t in enumerate(times):
                arrival = t + travel
                if arrival < early:  # max(), without its call
                    arrival = early
                if arrival > cutoff:
                    break
                if ts is None:
                    r, loss = late, 0.0
                else:
                    m = bisect_right(ts, arrival + GRID_TOL) - 1
                    if m < 0:  # before j's grid
                        continue
                    r = ts[m]
                    loss = arrival - r
                copy = head, r, loc_arc, terms, loss
                if held is not None and held[1][1] != r:  # lands elsewhere
                    copies[held[0]].append(held[1])
                held = k, copy
            if held is not None:
                copies[held[0]].append(held[1])
        node, arcs = self.node, self.arcs
        for t, group in zip(times, copies):
            for head, r, loc_arc, terms, loss in group:
                arcs.append((node(tail, t), node(head, r), loc_arc, *terms,
                             loss, event_arc))

    def idle(self, place, loc):
        """Waiting arcs between consecutive grid times of loc at place."""
        ids = [self.node(place, t) for t in self.grid[loc]]
        cap = self.inst.arc_cap(loc, loc)
        self.arcs.extend((a, b, (loc, loc), IDLE, 0.0, cap, 0.0, -1)
                         for a, b in zip(ids, ids[1:]))

    def prune(self, copies=()):
        """Keep the nodes that lie on some origin->destination path of the
        arcs and the raw copies (tuples that start with their tail and head
        ids), renumbered in order, and build each arc that touches no
        dropped node.  Returns the new id of each old node, -1 if dropped."""
        heads = [[] for _ in self.nodes]
        tails = [[] for _ in self.nodes]
        for group in (copies, self.arcs):
            for el in group:
                heads[el[0]].append(el[1])
                tails[el[1]].append(el[0])
        keep = (reachable(self.origin_node, heads.__getitem__)
                & reachable(self.dest_node, tails.__getitem__))
        keep |= {self.origin_node, self.dest_node}
        kept = sorted(keep)
        remap = [-1] * len(self.nodes)
        for new_id, old_id in enumerate(kept):
            remap[old_id] = new_id
        self.nodes = [self.nodes[old_id] for old_id in kept]
        self.node_index = {n: i for i, n in enumerate(self.nodes)}
        self._ids = None  # keyed by the old ids
        self.origin_node = remap[self.origin_node]
        self.dest_node = remap[self.dest_node]
        arcs = []
        for tail, head, loc_arc, kind, cost, cap, disc, event_arc in self.arcs:
            tail, head = remap[tail], remap[head]
            if tail >= 0 and head >= 0:
                arcs.append(TsArc(tail, head, loc_arc, kind, cost, cap, disc,
                                  event_arc))
        self.arcs = arcs
        return remap

    def index(self):
        """Adjacency lists, built once the network is final."""
        self.out_arcs = [[] for _ in self.nodes]
        self.in_arcs = [[] for _ in self.nodes]
        for aid, arc in enumerate(self.arcs):
            self.out_arcs[arc.tail].append(aid)
            self.in_arcs[arc.head].append(aid)


class TsFragNetwork(_TsBase):
    """Time-space fragment network G(N_N, F, A_N).

    Elements of a flow decomposition are the copies followed by the arcs:
    copy c is element c, arc a is element len(ts_frags) + a, and
    out_elems[u] tries u's copies before its arcs.
    """

    def __init__(self, inst, grid, frags):
        super().__init__(inst, grid)
        self.frags = frags
        self.ts_frags = []

    def index(self):
        super().index()
        self.out_frags = [[] for _ in self.nodes]
        self.in_frags = [[] for _ in self.nodes]
        self.by_frag = {}
        self.by_loc_arc = {}
        for cid, copy in enumerate(self.ts_frags):
            self.out_frags[copy.tail].append(cid)
            self.in_frags[copy.head].append(cid)
            self.by_frag.setdefault(copy.frag_id, []).append(cid)
        for aid, arc in enumerate(self.arcs):
            if arc.kind != IDLE:
                self.by_loc_arc.setdefault(arc.loc_arc, []).append(aid)
        nf = len(self.ts_frags)
        self.out_elems = [cs + [nf + a for a in arcs]
                          for cs, arcs in zip(self.out_frags, self.out_arcs)]

    def stats(self):
        return {"ts_nodes": len(self.nodes), "ts_fragments": len(self.ts_frags),
                "ts_arcs": len(self.arcs), "F": len(self.frags),
                "grid_points": self.grid.size()}


def expand_fragments(inst: Instance, frags: FragmentSet, grid: TimeGrid) -> TsFragNetwork:
    """Expand physical fragments and node arcs over the grid.

    A copy exists at grid time t when some feasible departure falls in
    [t, next grid point); its end is the earliest arrival rounded down.
    Anchoring at the earliest such departure keeps every continuous
    solution representable in the partial network, which the DDD bound
    argument needs.  Delivery -> pickup moves and returns keep only the
    latest departure to each head node (the module docstring's dominance
    rule): a continuous solution maps onto a flow that may use a dropped
    move, and waiting to the kept move turns it into a flow of the same
    cost, so each master is still a relaxation and its optimum a lower
    bound.  Start intervals and ends come from frags' own cache, so
    expanding the same set over a refined grid times only the departures
    it has not met before.
    """
    net = TsFragNetwork(inst, grid, frags)
    origin, dest = inst.origin, inst.destination
    t_min = float(inst.earliest[origin])
    net.origin_node = net.node(origin, t_min)
    net.dest_node = net.node(dest, float(inst.latest[dest]))

    copies = []  # TsFragment fields as tuples, tail and head first
    for fid, frag in enumerate(frags):
        interval = frags.interval(fid)
        if interval is None:
            continue
        s_min, s_max = interval
        gs = grid[frag.start]
        for k, t in enumerate(gs):
            nxt = gs[k + 1] if k + 1 < len(gs) else None
            s_eff = t if t >= s_min else s_min
            if s_eff > s_max + EPS:
                continue
            if nxt is not None and s_eff >= nxt - GRID_TOL:
                continue
            end = frags.end_from(fid, s_eff)
            r = grid.round_down(frag.end, end)
            copies.append((net.node(frag.start, t), net.node(frag.end, r), fid,
                           frag.vehicles, frag.cost, s_eff, end, end - r))

    # node arcs: delivery -> pickup moves (idle arcs shift departures
    # later, so each lands from its latest departure), depot departures
    # and returns
    for d in inst.deliveries:
        # a same-customer return only feeds subtours
        net.link(d, d, [(p, p) for p in inst.pickups if p != d - inst.n], grid[d])
    net.link(origin, origin, [(p, p) for p in inst.pickups], (t_min,))
    for d in inst.deliveries:
        net.link(d, d, [(dest, dest)], grid[d])
    for loc in list(inst.pickups) + list(inst.deliveries):
        net.idle(loc, loc)

    remap = net.prune(copies)
    for tail, head, fid, vehicles, cost, s_eff, end, disc in copies:
        tail, head = remap[tail], remap[head]
        if tail >= 0 and head >= 0:
            net.ts_frags.append(TsFragment(fid, tail, head, vehicles, cost,
                                           s_eff, end, disc))
    net.index()
    return net


class TsEventNetwork(_TsBase):
    """Time-space event network; nodes are (event, t) pairs."""

    def __init__(self, inst, grid, enet):
        super().__init__(inst, grid)
        self.enet = enet

    def index(self):
        super().index()
        self.by_event_arc = {}
        for aid, arc in enumerate(self.arcs):
            if arc.event_arc >= 0:
                self.by_event_arc.setdefault(arc.event_arc, []).append(aid)

    def stats(self):
        return {"ts_nodes": len(self.nodes), "ts_arcs": len(self.arcs),
                **self.enet.stats(), "grid_points": self.grid.size()}


def expand_events(inst: Instance, enet, grid: TimeGrid) -> TsEventNetwork:
    """Expand the event network over the grid: each event arc leaves its
    tail at its location's grid times (the origin only at e_origin), and
    only the latest departure to each landing node gets a copy (the module
    docstring's dominance rule); movement arcs keep their departure and
    arrival stamps for TSEF's ride-time rows."""
    net = TsEventNetwork(inst, grid, enet)
    t_min = float(inst.earliest[inst.origin])
    net.origin_node = net.node(enet.origin_id, t_min)
    net.dest_node = net.node(enet.dest_id, float(inst.latest[inst.destination]))

    for aid, arc in enumerate(enet.arcs):
        i, j = arc.loc_arc
        net.link(arc.tail, i, [(arc.head, j)],
                 (t_min,) if i == inst.origin else grid[i], aid)
    for ev_id, ev in enumerate(enet.events):
        if ev_id not in (enet.origin_id, enet.dest_id):
            net.idle(ev_id, ev.loc)
    net.prune()
    net.index()
    return net
