"""Time-space networks for the event- and fragment-based formulations.

Grids are per-location sorted time lists.  Partial (DDD) networks round
arrival times down to the nearest grid point, shortening arcs; every copy
records its rounding discrepancy for the selection model.  Node times mean
departure/service-start times; arrival-then-wait collapses into
round_down(max(t + T, e)).
"""
from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from .instance import EPS, Instance
from .fragments import FragmentSet, feasible_schedule, start_interval
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


@dataclass(frozen=True)
class TsNode:
    loc: int
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
    node_key = TsNode  # (place, t) -> node key; place is a location here

    def __init__(self, inst, grid):
        self.inst = inst
        self.grid = grid
        self.nodes = []
        self.node_index = {}
        self.arcs = []

    def node(self, place, t):
        key = self.node_key(place, round(float(t), 9))
        if key not in self.node_index:
            self.node_index[key] = len(self.nodes)
            self.nodes.append(key)
        return self.node_index[key]

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
    argument needs.
    """
    net = TsFragNetwork(inst, grid, frags)
    e, l, T, C = inst.earliest, inst.latest, inst.travel_time, inst.travel_cost
    origin, dest = inst.origin, inst.destination
    t_min, t_max = float(e[origin]), float(l[dest])
    net.origin_node = net.node(origin, t_min)
    net.dest_node = net.node(dest, t_max)

    for fid, frag in enumerate(frags):
        interval = start_interval(inst, frag.path)
        if interval is None:
            continue
        s_min, s_max = interval
        gs = grid[frag.start]
        for k, t in enumerate(gs):
            nxt = gs[k + 1] if k + 1 < len(gs) else None
            s_eff = max(t, s_min)
            if s_eff > s_max + EPS:
                continue
            if nxt is not None and s_eff >= nxt - GRID_TOL:
                continue
            sched = feasible_schedule(inst, frag.path, fixed_start=s_eff)
            end = sched.end
            r = grid.round_down(frag.end, end)
            tail = net.node(frag.start, t)
            head = net.node(frag.end, r)
            copy = TsFragment(fid, tail, head, frag.vehicles, frag.cost,
                              s_eff, end, end - r)
            net.ts_frags.append(copy)

    # movement node arcs: delivery -> pickup, landing at the earliest
    # reachable grid point (idle arcs shift departures later)
    for d in inst.deliveries:
        for t in grid[d]:
            for p in inst.pickups:
                if p == d - inst.n:
                    continue  # same-customer return can only feed subtours
                arrival = max(t + T[d, p], e[p])
                if arrival > l[p] + EPS:
                    continue
                r = grid.round_down(p, arrival)
                if r is None:
                    continue
                net.arcs.append(TsArc(net.node(d, t), net.node(p, r), (d, p), MOVE,
                                      float(C[d, p]),
                                      min(inst.vehicles_required(d),
                                          inst.vehicles_required(p)),
                                      arrival - r))
    for p in inst.pickups:  # depot departures
        arrival = max(t_min + T[origin, p], e[p])
        if arrival > l[p] + EPS:
            continue
        r = grid.round_down(p, arrival)
        if r is None:
            continue
        net.arcs.append(TsArc(net.origin_node, net.node(p, r), (origin, p),
                              DEPOT_OUT, float(C[origin, p]), inst.vehicles_required(p),
                              arrival - r))
    for d in inst.deliveries:  # depot returns
        for t in grid[d]:
            if max(t + T[d, dest], e[dest]) > l[dest] + EPS:
                continue
            net.arcs.append(TsArc(net.node(d, t), net.dest_node, (d, dest),
                                  DEPOT_IN, float(C[d, dest]),
                                  inst.vehicles_required(d), 0.0))
    for loc in list(inst.pickups) + list(inst.deliveries):  # waiting
        ts = grid[loc]
        for a, b in zip(ts, ts[1:]):
            net.arcs.append(TsArc(net.node(loc, a), net.node(loc, b), (loc, loc),
                                  IDLE, 0.0, inst.vehicles_required(loc), 0.0))

    net.ts_frags, net.arcs = net.prune(net.ts_frags, net.arcs)
    net.index()
    return net


class TsEventNetwork(_TsBase):
    """Time-space event network; nodes are (event, t) pairs."""

    def __init__(self, inst, grid, enet):
        super().__init__(inst, grid)
        self.enet = enet

    @staticmethod
    def node_key(ev_id, t):
        return ev_id, t

    def index(self):
        super().index()
        self.by_event_arc = {}
        for aid, arc in enumerate(self.arcs):
            if arc.event_arc >= 0:
                self.by_event_arc.setdefault(arc.event_arc, []).append(aid)

    def loc_of_node(self, nid):
        return self.enet.events[self.nodes[nid][0]].loc

    def time_of_node(self, nid):
        return self.nodes[nid][1]

    def stats(self):
        return {"ts_nodes": len(self.nodes), "ts_arcs": len(self.arcs),
                "V_E": self.enet.num_events, "A_E": self.enet.num_arcs,
                "grid_points": self.grid.size()}


def expand_events(inst: Instance, enet, grid: TimeGrid) -> TsEventNetwork:
    """Expand the event network over the grid with the same round-down
    semantics; movement arcs keep their departure/arrival stamps for the
    ride-time rows."""
    net = TsEventNetwork(inst, grid, enet)
    e, l, T = inst.earliest, inst.latest, inst.travel_time
    origin, dest = inst.origin, inst.destination
    t_min, t_max = float(e[origin]), float(l[dest])
    net.origin_node = net.node(enet.origin_id, t_min)
    net.dest_node = net.node(enet.dest_id, t_max)

    for aid, arc in enumerate(enet.arcs):
        i, j = arc.loc_arc
        if arc.tail == enet.origin_id:
            arrival = max(t_min + T[i, j], e[j])
            if arrival > l[j] + EPS:
                continue
            r = grid.round_down(j, arrival)
            if r is None:
                continue
            ts_arc = TsArc(net.origin_node, net.node(arc.head, r), (i, j),
                           DEPOT_OUT, arc.cost, arc.cap, arrival - r, aid)
            net.arcs.append(ts_arc)
            continue
        for t in grid[i]:
            if arc.head == enet.dest_id:
                if max(t + T[i, j], e[j]) > l[j] + EPS:
                    continue
                ts_arc = TsArc(net.node(arc.tail, t), net.dest_node, (i, j),
                               DEPOT_IN, arc.cost, arc.cap, 0.0, aid)
            else:
                arrival = max(t + T[i, j], e[j])
                if arrival > l[j] + EPS:
                    continue
                r = grid.round_down(j, arrival)
                if r is None:
                    continue
                ts_arc = TsArc(net.node(arc.tail, t), net.node(arc.head, r),
                               (i, j), MOVE, arc.cost, arc.cap, arrival - r, aid)
            net.arcs.append(ts_arc)
    for ev_id, ev in enumerate(enet.events):
        if ev_id in (enet.origin_id, enet.dest_id):
            continue
        ts = grid[ev.loc]
        for a, b in zip(ts, ts[1:]):
            net.arcs.append(TsArc(net.node(ev_id, a), net.node(ev_id, b),
                                  (ev.loc, ev.loc), IDLE, 0.0,
                                  inst.vehicles_required(ev.loc), 0.0))
    net.arcs = net.prune(net.arcs)[0]
    net.index()
    return net
