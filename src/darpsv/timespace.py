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

GRID_TOL = 1e-9


class TimeGrid:
    """Per-location sorted time sets T_p within [e_p, l_p]."""

    def __init__(self, inst: Instance, times: dict, tag: str):
        self.inst = inst
        self.times = {loc: sorted(ts) for loc, ts in times.items()}
        self.tag = tag

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
        return cls(inst, times, f"fixed-{delta:g}min")

    @classmethod
    def initial_ddd(cls, inst: Instance, delta: float = 50.0) -> "TimeGrid":
        return cls.fixed(inst, delta).retag("ddd-partial")

    def retag(self, tag):
        self.tag = tag
        return self

    def copy(self) -> "TimeGrid":
        return TimeGrid(self.inst, {loc: list(ts) for loc, ts in self.times.items()},
                        self.tag)

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


class _TsBase:
    def __init__(self, inst, grid):
        self.inst = inst
        self.grid = grid
        self.nodes = []
        self.node_index = {}
        self.arcs = []

    def node(self, loc, t):
        key = TsNode(loc, round(float(t), 9))
        if key not in self.node_index:
            self.node_index[key] = len(self.nodes)
            self.nodes.append(key)
        return self.node_index[key]

    def finalize_adjacency(self):
        self.out_arcs = [[] for _ in self.nodes]
        self.in_arcs = [[] for _ in self.nodes]
        for aid, arc in enumerate(self.arcs):
            self.out_arcs[arc.tail].append(aid)
            self.in_arcs[arc.head].append(aid)


class TsFragNetwork(_TsBase):
    """Time-space fragment network G(N_N, F, A_N)."""

    def __init__(self, inst, grid, frags):
        super().__init__(inst, grid)
        self.frags = frags
        self.ts_frags = []
        self.out_frags = []
        self.in_frags = []
        self.by_frag = {}
        self.by_loc_arc = {}

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
            net.by_frag.setdefault(fid, []).append(len(net.ts_frags))
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
                aid = len(net.arcs)
                net.arcs.append(TsArc(net.node(d, t), net.node(p, r), (d, p), MOVE,
                                      float(C[d, p]),
                                      min(inst.vehicles_required(d),
                                          inst.vehicles_required(p)),
                                      arrival - r))
                net.by_loc_arc.setdefault((d, p), []).append(aid)
    for p in inst.pickups:  # depot departures
        arrival = max(t_min + T[origin, p], e[p])
        if arrival > l[p] + EPS:
            continue
        r = grid.round_down(p, arrival)
        if r is None:
            continue
        aid = len(net.arcs)
        net.arcs.append(TsArc(net.origin_node, net.node(p, r), (origin, p),
                              DEPOT_OUT, float(C[origin, p]), inst.vehicles_required(p),
                              arrival - r))
        net.by_loc_arc.setdefault((origin, p), []).append(aid)
    for d in inst.deliveries:  # depot returns
        for t in grid[d]:
            if max(t + T[d, dest], e[dest]) > l[dest] + EPS:
                continue
            aid = len(net.arcs)
            net.arcs.append(TsArc(net.node(d, t), net.dest_node, (d, dest),
                                  DEPOT_IN, float(C[d, dest]),
                                  inst.vehicles_required(d), 0.0))
            net.by_loc_arc.setdefault((d, dest), []).append(aid)
    for loc in list(inst.pickups) + list(inst.deliveries):  # waiting
        ts = grid[loc]
        for a, b in zip(ts, ts[1:]):
            net.arcs.append(TsArc(net.node(loc, a), net.node(loc, b), (loc, loc),
                                  IDLE, 0.0, inst.vehicles_required(loc), 0.0))

    net.finalize_adjacency()
    net.out_frags = [[] for _ in net.nodes]
    net.in_frags = [[] for _ in net.nodes]
    for cid, copy in enumerate(net.ts_frags):
        net.out_frags[copy.tail].append(cid)
        net.in_frags[copy.head].append(cid)
    _prune_frag_network(net)
    return net


def _prune_frag_network(net: TsFragNetwork):
    """Drop nodes/copies/arcs not on any origin->destination flow path."""
    fwd = {net.origin_node}
    stack = [net.origin_node]
    while stack:
        u = stack.pop()
        heads = [net.arcs[a].head for a in net.out_arcs[u]]
        heads += [net.ts_frags[c].head for c in net.out_frags[u]]
        for h in heads:
            if h not in fwd:
                fwd.add(h)
                stack.append(h)
    bwd = {net.dest_node}
    stack = [net.dest_node]
    while stack:
        u = stack.pop()
        tails = [net.arcs[a].tail for a in net.in_arcs[u]]
        tails += [net.ts_frags[c].tail for c in net.in_frags[u]]
        for t in tails:
            if t not in bwd:
                bwd.add(t)
                stack.append(t)
    keep = fwd & bwd
    keep.add(net.origin_node)
    keep.add(net.dest_node)

    def live(copy_or_arc):
        return copy_or_arc.tail in keep and copy_or_arc.head in keep

    net.ts_frags = [c for c in net.ts_frags if live(c)]
    net.arcs = [a for a in net.arcs if live(a)]
    remap = {}
    nodes = []
    for old_id, node in enumerate(net.nodes):
        if old_id in keep:
            remap[old_id] = len(nodes)
            nodes.append(node)
    net.nodes = nodes
    net.node_index = {n: i for i, n in enumerate(nodes)}
    net.ts_frags = [TsFragment(c.frag_id, remap[c.tail], remap[c.head], c.vehicles,
                               c.cost, c.start_eff, c.end_actual, c.disc)
                    for c in net.ts_frags]
    net.arcs = [TsArc(remap[a.tail], remap[a.head], a.loc_arc, a.kind, a.cost,
                      a.cap, a.disc, a.event_arc) for a in net.arcs]
    net.origin_node = remap[net.origin_node]
    net.dest_node = remap[net.dest_node]
    net.finalize_adjacency()
    net.out_frags = [[] for _ in net.nodes]
    net.in_frags = [[] for _ in net.nodes]
    net.by_frag = {}
    net.by_loc_arc = {}
    for cid, copy in enumerate(net.ts_frags):
        net.out_frags[copy.tail].append(cid)
        net.in_frags[copy.head].append(cid)
        net.by_frag.setdefault(copy.frag_id, []).append(cid)
    for aid, arc in enumerate(net.arcs):
        if arc.kind != IDLE:
            net.by_loc_arc.setdefault(arc.loc_arc, []).append(aid)


class TsEventNetwork(_TsBase):
    """Time-space event network; nodes are (event, t) pairs."""

    def __init__(self, inst, grid, enet):
        super().__init__(inst, grid)
        self.enet = enet
        self.by_event_arc = {}

    def node_ev(self, ev_id, t):
        key = (ev_id, round(float(t), 9))
        if key not in self.node_index:
            self.node_index[key] = len(self.nodes)
            self.nodes.append(key)
        return self.node_index[key]

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
    net.origin_node = net.node_ev(enet.origin_id, t_min)
    net.dest_node = net.node_ev(enet.dest_id, t_max)

    for aid, arc in enumerate(enet.arcs):
        i, j = arc.loc_arc
        if arc.tail == enet.origin_id:
            arrival = max(t_min + T[i, j], e[j])
            if arrival > l[j] + EPS:
                continue
            r = grid.round_down(j, arrival)
            if r is None:
                continue
            ts_arc = TsArc(net.origin_node, net.node_ev(arc.head, r), (i, j),
                           DEPOT_OUT, arc.cost, arc.cap, arrival - r, aid)
            net.by_event_arc.setdefault(aid, []).append(len(net.arcs))
            net.arcs.append(ts_arc)
            continue
        for t in grid[i]:
            if arc.head == enet.dest_id:
                if max(t + T[i, j], e[j]) > l[j] + EPS:
                    continue
                ts_arc = TsArc(net.node_ev(arc.tail, t), net.dest_node, (i, j),
                               DEPOT_IN, arc.cost, arc.cap, 0.0, aid)
            else:
                arrival = max(t + T[i, j], e[j])
                if arrival > l[j] + EPS:
                    continue
                r = grid.round_down(j, arrival)
                if r is None:
                    continue
                ts_arc = TsArc(net.node_ev(arc.tail, t), net.node_ev(arc.head, r),
                               (i, j), MOVE, arc.cost, arc.cap, arrival - r, aid)
            net.by_event_arc.setdefault(aid, []).append(len(net.arcs))
            net.arcs.append(ts_arc)
    for ev_id, ev in enumerate(enet.events):
        if ev_id in (enet.origin_id, enet.dest_id):
            continue
        ts = grid[ev.loc]
        for a, b in zip(ts, ts[1:]):
            net.arcs.append(TsArc(net.node_ev(ev_id, a), net.node_ev(ev_id, b),
                                  (ev.loc, ev.loc), IDLE, 0.0,
                                  inst.vehicles_required(ev.loc), 0.0))
    net.finalize_adjacency()
    _prune_event_network(net)
    return net


def _prune_event_network(net: TsEventNetwork):
    fwd = {net.origin_node}
    stack = [net.origin_node]
    while stack:
        u = stack.pop()
        for a in net.out_arcs[u]:
            h = net.arcs[a].head
            if h not in fwd:
                fwd.add(h)
                stack.append(h)
    bwd = {net.dest_node}
    stack = [net.dest_node]
    while stack:
        u = stack.pop()
        for a in net.in_arcs[u]:
            t = net.arcs[a].tail
            if t not in bwd:
                bwd.add(t)
                stack.append(t)
    keep = fwd & bwd
    keep.add(net.origin_node)
    keep.add(net.dest_node)
    net.arcs = [a for a in net.arcs if a.tail in keep and a.head in keep]
    remap = {}
    nodes = []
    for old_id, node in enumerate(net.nodes):
        if old_id in keep:
            remap[old_id] = len(nodes)
            nodes.append(node)
    net.nodes = nodes
    net.node_index = {n: i for i, n in enumerate(nodes)}
    net.arcs = [TsArc(remap[a.tail], remap[a.head], a.loc_arc, a.kind, a.cost,
                      a.cap, a.disc, a.event_arc) for a in net.arcs]
    net.origin_node = remap[net.origin_node]
    net.dest_node = remap[net.dest_node]
    net.finalize_adjacency()
    net.by_event_arc = {}
    for aid, arc in enumerate(net.arcs):
        if arc.event_arc >= 0:
            net.by_event_arc.setdefault(arc.event_arc, []).append(aid)
