"""Time-space networks for the event- and fragment-based formulations.

Grids are per-location sorted time lists, and a node is a place (a
location, or an event of the event network) at a grid time: the time
service starts there.  Both networks expand their arcs by the same rules:

- landing (_TsBase.link): an arc i -> j left at t arrives at
  a = max(t + T_ij, e_j), waiting for j's window, is dropped when a > l_j
  or a precedes j's grid, and lands at round_down(a), the last grid point
  of j at or before a.
  Partial (DDD) grids thus shorten arcs; each arc and fragment copy keeps
  its rounding loss a - round_down(a) as disc, for the selection model.
  Returns to the destination only test its window and land on the
  destination node.
- cap (Instance.arc_cap): at most that many synchronized vehicles share an
  arc, the smaller requirement of its two locations, a depot end taking
  the other end's.
"""
from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import NamedTuple

from .instance import EPS, Instance
from .fragments import FragmentSet
from .graph import reachable

GRID_TOL = 1e-9


class TimeGrid:
    """Per-location sorted time sets T_p within [e_p, l_p]."""

    def __init__(self, inst: Instance, times: dict):
        self.inst = inst
        self.times = {loc: sorted(ts) for loc, ts in times.items()}

    @classmethod
    def fixed(cls, inst: Instance, delta: float) -> "TimeGrid":
        """e_p + k*delta clipped to the window, plus l_p."""
        if not delta > 0:
            raise ValueError(f"grid step must be positive, got {delta!r}")
        times = {}
        for loc in range(inst.num_locations):
            e, l = inst.earliest[loc], inst.latest[loc]
            ts = []
            k = 0
            while e + k * delta <= l + GRID_TOL:
                ts.append(min(e + k * delta, l))
                k += 1
            if not ts or ts[-1] < l - GRID_TOL:
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


@dataclass(frozen=True)
class TsFragment:
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


@dataclass(frozen=True)
class TsArc:
    tail: int
    head: int
    loc_arc: tuple
    kind: str
    cost: float
    cap: int
    disc: float
    event_arc: int = -1  # event-mode: originating event arc id


def _moved(el, tail, head):
    """Copy of a frozen element with new end nodes.  Same as
    dataclasses.replace (the element classes have no __post_init__), but
    replace() inspects the fields on every call, which made
    expand_fragments about 9% slower."""
    new = object.__new__(type(el))
    new.__dict__.update(el.__dict__, tail=tail, head=head)
    return new


class _TsBase:
    def __init__(self, inst, grid):
        self.inst = inst
        self.grid = grid
        self.nodes = []
        self.node_index = {}
        self.arcs = []
        self._terms = {}  # (i, j) -> kind, cost and cap of its copies
        # plain-float copies, so link() reads each arc's constants once
        self._travel = inst.travel_time.tolist()
        self._early = inst.earliest.tolist()
        self._late = inst.latest.tolist()

    def node(self, place, t):
        # a plain tuple finds the same entry as the TsNode it equals, and
        # takes a tenth of the time to build
        key = (place, round(float(t), 9))
        nid = self.node_index.get(key)
        if nid is None:
            nid = self.node_index[key] = len(self.nodes)
            self.nodes.append(TsNode(*key))
        return nid

    def link(self, tail, i, heads, times, event_arc=-1):
        """Add the copies of the location arcs i -> j, for (head, j) in
        heads, that leave place tail at the grid times in times and land at
        place head (in the fragment network a place is its location), by
        the landing rule of the module docstring.  Copies are added by
        departure time, and for each time in the order of heads; times
        ascend, so an arc its first departure overshoots gets no copy."""
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
        for t in times:
            tail_id = None
            for head, loc_arc, travel, early, cutoff, late, ts, terms in targets:
                arrival = t + travel
                if arrival < early:  # max(), without its call
                    arrival = early
                if arrival > cutoff:
                    continue
                if ts is None:
                    r, loss = late, 0.0
                else:
                    k = bisect_right(ts, arrival + GRID_TOL) - 1
                    if k < 0:  # before j's grid
                        continue
                    r = ts[k]
                    loss = arrival - r
                if tail_id is None:
                    tail_id = self.node(tail, t)
                self.arcs.append(TsArc(tail_id, self.node(head, r), loc_arc,
                                       *terms, loss, event_arc))

    def idle(self, place, loc):
        """Waiting arcs between consecutive grid times of loc at place."""
        ts = self.grid[loc]
        cap = self.inst.arc_cap(loc, loc)
        for a, b in zip(ts, ts[1:]):
            self.arcs.append(TsArc(self.node(place, a), self.node(place, b),
                                   (loc, loc), IDLE, 0.0, cap, 0.0))

    def prune(self, *groups):
        """Keep the nodes that lie on some origin->destination path,
        renumbered in order, and return each element group without the
        elements that touch a dropped node."""
        heads = [[] for _ in self.nodes]
        tails = [[] for _ in self.nodes]
        for group in groups:
            for el in group:
                heads[el.tail].append(el.head)
                tails[el.head].append(el.tail)
        keep = (reachable(self.origin_node, heads.__getitem__)
                & reachable(self.dest_node, tails.__getitem__))
        keep |= {self.origin_node, self.dest_node}
        remap = {old_id: k for k, old_id in enumerate(sorted(keep))}
        self.nodes = [self.nodes[old_id] for old_id in remap]
        self.node_index = {n: i for i, n in enumerate(self.nodes)}
        self.origin_node = remap[self.origin_node]
        self.dest_node = remap[self.dest_node]
        return [[_moved(el, remap[el.tail], remap[el.head])
                 for el in group if el.tail in remap and el.head in remap]
                for group in groups]

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
    argument needs.  Start intervals and ends come from frags' own cache,
    so expanding the same set over a refined grid times only the
    departures it has not met before.
    """
    net = TsFragNetwork(inst, grid, frags)
    origin, dest = inst.origin, inst.destination
    t_min = float(inst.earliest[origin])
    net.origin_node = net.node(origin, t_min)
    net.dest_node = net.node(dest, float(inst.latest[dest]))

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
            tail = net.node(frag.start, t)
            head = net.node(frag.end, r)
            copy = TsFragment(fid, tail, head, frag.vehicles, frag.cost,
                              s_eff, end, end - r)
            net.ts_frags.append(copy)

    # node arcs: delivery -> pickup moves (idle arcs shift departures
    # later), depot departures and returns
    for d in inst.deliveries:
        # a same-customer return only feeds subtours
        net.link(d, d, [(p, p) for p in inst.pickups if p != d - inst.n], grid[d])
    net.link(origin, origin, [(p, p) for p in inst.pickups], (t_min,))
    for d in inst.deliveries:
        net.link(d, d, [(dest, dest)], grid[d])
    for loc in list(inst.pickups) + list(inst.deliveries):
        net.idle(loc, loc)

    net.ts_frags, net.arcs = net.prune(net.ts_frags, net.arcs)
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

    def time_of_node(self, nid):
        return self.nodes[nid].t

    def stats(self):
        return {"ts_nodes": len(self.nodes), "ts_arcs": len(self.arcs),
                **self.enet.stats(), "grid_points": self.grid.size()}


def expand_events(inst: Instance, enet, grid: TimeGrid) -> TsEventNetwork:
    """Expand the event network over the grid: each event arc leaves its
    tail at every grid time (the origin only at e_origin); movement arcs
    keep their departure/arrival stamps for the ride-time rows."""
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
    net.arcs = net.prune(net.arcs)[0]
    net.index()
    return net
