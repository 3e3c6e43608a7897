"""The four MILP formulations, route extraction and cut generation.

Solvers never trust structure that can be recomputed: extraction performs
an explicit flow decomposition, residual cycles feed the subtour cuts, and
objectives are re-derived from the traversed location arcs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import milp
from .events import EventNetwork, enumerate_events
from .fragments import enumerate_fragments, feasible_schedule, joint_schedule
from .graph import decompose_flow
from .instance import EPS, Instance
from .milp import BINARY, CONTINUOUS, EQ, GE, INTEGER, LE, MilpModel, Status
from .timespace import (DEPOT_IN, IDLE, TimeGrid, TsEventNetwork,
                        TsFragNetwork, expand_events, expand_fragments)


def _time_left(time_limit, start):
    """What is left of a solve's time limit after the steps since start."""
    if time_limit is None:
        return None
    return time_limit - (time.perf_counter() - start)


def big_m(inst, i, j):
    return max(0.0, inst.latest[i] + inst.travel_time[i, j] - inst.earliest[j])


# -- routes ------------------------------------------------------------------

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
    schedule_exact: bool = True

    def paths(self):
        return [r.path for r in self.routes]

    def recost(self, inst) -> float:
        C = inst.travel_cost
        return float(sum(C[i, j] for r in self.routes
                         for i, j in zip(r.path, r.path[1:])))

    def reschedule(self, inst):
        """Replace inexact discrete stop times by one joint continuous
        schedule of all routes, when such a schedule exists."""
        if self.schedule_exact:
            return
        times_per_route = joint_schedule(inst, self.paths())
        if times_per_route is None:
            return
        for route, times in zip(self.routes, times_per_route):
            route.stops = [(loc, float(times[loc])) for loc, _ in route.stops]
        self.schedule_exact = True

    def to_dict(self):
        return {
            "routes": [{"vehicle": r.vehicle,
                        "stops": [{"loc": int(l), "t": float(t)} for l, t in r.stops]}
                       for r in self.routes],
            "sync_groups": {str(k): list(v) for k, v in self.sync_groups.items()},
        }


@dataclass
class SolveReport:
    """Outcome of one solve, whatever the method."""

    method: str
    status: str
    objective: float | None
    bound: float | None
    routes: RouteSet | None
    seconds: float
    gap: float | None = None
    iterations: int | None = None
    cuts: int = 0
    stats: dict = field(default_factory=dict)
    approximate: bool = False
    history: list = field(default_factory=list)

    @property
    def ok(self):
        return self.status in (Status.OPTIMAL, Status.FEASIBLE_WITH_GAP)

    def to_dict(self):
        out = {
            "method": self.method,
            "status": self.status,
            "objective": self.objective,
            "bound": self.bound,
            "gap": self.gap,
            "seconds": self.seconds,
            "stats": dict(self.stats, cuts=self.cuts,
                          iterations=self.iterations,
                          approximate=self.approximate),
        }
        if self.routes is not None:
            out.update(self.routes.to_dict())
            out["stats"]["schedule_exact"] = self.routes.schedule_exact
        else:
            out["routes"] = []
            out["sync_groups"] = {}
        return out


def _sync_groups_from_paths(inst, route_paths):
    groups = {}
    for v, path in enumerate(route_paths):
        for loc in path:
            if inst.is_pickup(loc) and inst.is_large(loc):
                groups.setdefault(loc, []).append(v)
    return {loc: tuple(vs) for loc, vs in groups.items()}


# -- EBF ----------------------------------------------------------------------

@dataclass
class EbfVars:
    x: list  # arc id -> var
    y: list
    t: dict  # location -> var


def build_ebf(inst: Instance, net: EventNetwork):
    m = MilpModel(f"ebf-{inst.name}")
    x = [m.add_var(f"x{a}", INTEGER, 0, arc.cap, arc.cost)
         for a, arc in enumerate(net.arcs)]
    y = [m.add_var(f"y{a}", BINARY) for a in range(net.num_arcs)]
    t = {loc: m.add_var(f"t{loc}", CONTINUOUS, inst.earliest[loc], inst.latest[loc])
         for loc in range(inst.num_locations)}
    for vid in range(net.num_events):
        if vid in (net.origin_id, net.dest_id):
            continue
        coeffs = [(x[a], 1.0) for a in net.in_arcs[vid]]
        coeffs += [(x[a], -1.0) for a in net.out_arcs[vid]]
        m.add_constr(f"flow{vid}", coeffs, EQ, 0.0)
    for a in range(net.num_arcs):
        m.add_constr(f"lk1_{a}", [(x[a], 1.0), (y[a], -1.0)], GE, 0.0)
        m.add_constr(f"lk2_{a}", [(x[a], 1.0), (y[a], -net.arcs[a].cap)], LE, 0.0)
    by_tail_loc = {}
    for a, arc in enumerate(net.arcs):
        by_tail_loc.setdefault(arc.loc_arc[0], []).append(a)
    for i in inst.pickups:
        coeffs = [(x[a], 1.0) for a in by_tail_loc.get(i, [])]
        m.add_constr(f"cover{i}", coeffs, EQ, float(inst.vehicles_required(i)))
    m.add_constr("fleet", [(x[a], 1.0) for a in net.out_arcs[net.origin_id]],
                 LE, float(inst.vehicles))
    for (i, j), aids in sorted(net.by_loc_arc.items()):
        M = big_m(inst, i, j)
        coeffs = [(t[i], 1.0), (t[j], -1.0)]
        coeffs += [(y[a], M) for a in aids]
        m.add_constr(f"time{i}_{j}", coeffs, LE, M - inst.travel_time[i, j])
    for i in inst.pickups:
        m.add_constr(f"ride{i}", [(t[i + inst.n], 1.0), (t[i], -1.0)],
                     LE, float(inst.ride[i]))
    return m, EbfVars(x, y, t)


def extract_routes_ebf(inst, net, sol, vars_):
    flow = [int(round(sol.value(v))) for v in vars_.x]
    tval = {loc: sol.value(v) for loc, v in vars_.t.items()}
    walks, cycles = decompose_flow(net.arcs, net.out_arcs, flow,
                                   net.origin_id, net.dest_id)
    routes = []
    for vehicle, walk in enumerate(walks):
        path = [inst.origin] + [net.events[net.arcs[a].head].loc for a in walk]
        routes.append(Route(vehicle, [(loc, float(tval[loc])) for loc in path]))
    paths = [r.path for r in routes]
    rs = RouteSet(routes, float(sol.objective),
                  _sync_groups_from_paths(inst, paths))
    return rs, cycles


def solve_ebf(inst: Instance, time_limit=None, net=None) -> SolveReport:
    start = time.perf_counter()
    net = net or enumerate_events(inst)
    model, vars_ = build_ebf(inst, net)

    def subtours(sol):
        # big-M time rows already forbid positive-length cycles; this only
        # fires on zero-length residual cycles
        _, cycles = extract_routes_ebf(inst, net, sol, vars_)
        cuts = []
        for k, cycle in enumerate(cycles):
            arcs = sorted(set(cycle))
            coeffs = [(vars_.y[a], 1.0) for a in arcs]
            cuts.append((f"cut_st{model.num_constrs}_{k}", coeffs, LE,
                         float(len(arcs) - 1)))
        return cuts

    sol, info = milp.resolve_with_cuts(model, subtours,
                                     _time_left(time_limit, start))
    seconds = time.perf_counter() - start
    stats = {"V_E": net.num_events, "A_E": net.num_arcs}
    if not sol.ok:
        return SolveReport("ebf", sol.status, None, sol.best_bound, None,
                           seconds, cuts=info.num_cuts, stats=stats)
    routes, cycles = extract_routes_ebf(inst, net, sol, vars_)
    return SolveReport("ebf", sol.status, sol.objective, sol.best_bound, routes,
                       seconds, gap=sol.gap, cuts=info.num_cuts, stats=stats)


# -- ABF ----------------------------------------------------------------------

@dataclass
class AbfVars:
    f: dict  # (i, j, v) -> var
    t: dict  # (i, v) -> var
    tt: dict  # large location -> var
    load: dict  # (i, v) -> var
    arcs: list


def abf_arcs(inst: Instance):
    """Location arcs kept for the arc-based model: depot conventions plus
    the large-customer pruning shared by all formulations."""
    e, l, T = inst.earliest, inst.latest, inst.travel_time
    large_p = set(inst.large_pickups)
    arcs = []
    for i in range(inst.num_locations):
        if i == inst.destination:
            continue
        for j in range(inst.num_locations):
            if i == j or j == inst.origin:
                continue
            if i == inst.origin and j == inst.destination:
                arcs.append((i, j))  # idle vehicles stay home at no cost
                continue
            if i == inst.origin and inst.is_delivery(j):
                continue
            if inst.is_pickup(i) and j == inst.destination:
                continue
            if i in large_p and j != i + inst.n:
                continue
            if j in large_p and inst.is_pickup(i):
                continue
            if e[i] + T[i, j] > l[j] + EPS:
                continue
            arcs.append((i, j))
    return arcs


def build_abf(inst: Instance):
    m = MilpModel(f"abf-{inst.name}")
    arcs = abf_arcs(inst)
    V = range(inst.vehicles)
    Q = inst.capacity
    vq = np.zeros(inst.num_locations)
    for i in inst.pickups:
        q = min(int(inst.demand[i]), Q)
        vq[i], vq[i + inst.n] = q, -q

    f = {(i, j, v): m.add_var(
            f"f{i}_{j}_{v}", BINARY,
            obj=0.0 if i == inst.origin and j == inst.destination
            else float(inst.travel_cost[i, j]))
         for (i, j) in arcs for v in V}
    t = {(i, v): m.add_var(f"t{i}_{v}", CONTINUOUS, inst.earliest[i], inst.latest[i])
         for i in range(inst.num_locations) for v in V}
    large_locs = [i for i in inst.large_pickups] + \
                 [i + inst.n for i in inst.large_pickups]
    tt = {i: m.add_var(f"tt{i}", CONTINUOUS, inst.earliest[i], inst.latest[i])
          for i in large_locs}
    load = {}
    for i in range(inst.num_locations):
        lo, hi = max(0.0, vq[i]), min(Q, Q + vq[i])
        if inst.is_pickup(i) and inst.is_large(i):
            lo = hi = float(Q)
        if inst.is_delivery(i) and inst.is_large(i - inst.n):
            lo = hi = 0.0
        for v in V:
            load[i, v] = m.add_var(f"q{i}_{v}", INTEGER, lo, hi)

    out_arcs, in_arcs = {}, {}
    for (i, j) in arcs:
        out_arcs.setdefault(i, []).append((i, j))
        in_arcs.setdefault(j, []).append((i, j))

    for i in list(inst.pickups) + list(inst.deliveries):
        coeffs = [(f[a + (v,)], 1.0) for a in out_arcs.get(i, []) for v in V]
        m.add_constr(f"cover{i}", coeffs, EQ, float(inst.vehicles_required(i)))
    for v in V:
        for i in inst.pickups:
            coeffs = [(f[a + (v,)], 1.0) for a in out_arcs.get(i, [])]
            coeffs += [(f[a + (v,)], -1.0) for a in out_arcs.get(i + inst.n, [])]
            m.add_constr(f"pair{i}_{v}", coeffs, EQ, 0.0)
        m.add_constr(f"depart{v}",
                     [(f[a + (v,)], 1.0) for a in out_arcs[inst.origin]], EQ, 1.0)
        m.add_constr(f"arrive{v}",
                     [(f[a + (v,)], 1.0) for a in in_arcs[inst.destination]], EQ, 1.0)
        for i in list(inst.pickups) + list(inst.deliveries):
            coeffs = [(f[a + (v,)], 1.0) for a in in_arcs.get(i, [])]
            coeffs += [(f[a + (v,)], -1.0) for a in out_arcs.get(i, [])]
            m.add_constr(f"flow{i}_{v}", coeffs, EQ, 0.0)
        for i in large_locs:
            m.add_constr(f"sync{i}_{v}", [(t[i, v], 1.0), (tt[i], -1.0)], EQ, 0.0)
        for (i, j) in arcs:
            M = big_m(inst, i, j)
            m.add_constr(f"time{i}_{j}_{v}",
                         [(t[i, v], 1.0), (t[j, v], -1.0), (f[i, j, v], M)],
                         LE, M - inst.travel_time[i, j])
            W = min(Q, Q + vq[i])
            m.add_constr(f"load{i}_{j}_{v}",
                         [(load[i, v], 1.0), (load[j, v], -1.0), (f[i, j, v], W)],
                         LE, W - vq[j])
        for i in inst.pickups:
            m.add_constr(f"ride{i}_{v}",
                         [(t[i + inst.n, v], 1.0), (t[i, v], -1.0)],
                         LE, float(inst.ride[i]))
            # precedence: the trip takes at least the direct travel time
            m.add_constr(f"prec{i}_{v}",
                         [(t[i + inst.n, v], 1.0), (t[i, v], -1.0)],
                         GE, float(inst.travel_time[i, i + inst.n]))
    return m, AbfVars(f, t, tt, load, arcs)


def extract_routes_abf(inst, sol, vars_):
    routes = []
    for v in range(inst.vehicles):
        succ = {}
        for (i, j) in vars_.arcs:
            if sol.value(vars_.f[i, j, v]) > 0.5:
                succ[i] = j
        path, cur = [inst.origin], inst.origin
        while cur != inst.destination:
            cur = succ[cur]
            path.append(cur)
        if len(path) == 2:
            continue  # idle vehicle
        stops = [(loc, sol.value(vars_.t[loc, v])) for loc in path]
        routes.append(Route(len(routes), stops))
    paths = [r.path for r in routes]
    return RouteSet(routes, float(sol.objective),
                    _sync_groups_from_paths(inst, paths))


def solve_abf(inst: Instance, time_limit=None) -> SolveReport:
    start = time.perf_counter()
    model, vars_ = build_abf(inst)
    sol = milp.solve(model, time_limit)
    seconds = time.perf_counter() - start
    stats = {"arcs": len(vars_.arcs)}
    if not sol.ok:
        return SolveReport("abf", sol.status, None, sol.best_bound, None,
                           seconds, stats=stats)
    routes = extract_routes_abf(inst, sol, vars_)
    return SolveReport("abf", sol.status, sol.objective, sol.best_bound, routes,
                       seconds, gap=sol.gap, stats=stats)


# -- TSFrag ---------------------------------------------------------------------

@dataclass
class TsfragVars:
    X: list  # ts fragment copy -> var
    Y: list  # ts arc -> var
    usage: dict = field(default_factory=dict)  # loc arc -> lazy indicator var


def arc_usage_var(model, net, vars_, loc_arc):
    """Binary that is forced to 1 whenever any copy of the physical node
    arc carries flow.  Created lazily: cuts need indicators because a
    synchronized pair may split its two flow units across a cycle's arcs,
    and no linear cut in (X, Y) alone separates that from a legitimate
    chain."""
    if loc_arc in vars_.usage:
        return vars_.usage[loc_arc]
    i, j = loc_arc
    g = model.add_var(f"g{i}_{j}", BINARY)
    for aid in net.by_loc_arc.get(loc_arc, []):
        model.add_constr(f"glk{i}_{j}_{aid}",
                         [(vars_.Y[aid], 1.0), (g, -float(net.arcs[aid].cap))],
                         LE, 0.0)
    vars_.usage[loc_arc] = g
    return g


def build_tsfrag(inst: Instance, net: TsFragNetwork):
    m = MilpModel(f"tsfrag-{inst.name}")
    X = [m.add_var(f"X{c}", BINARY, obj=copy.cost * copy.vehicles)
         for c, copy in enumerate(net.ts_frags)]
    Y = [m.add_var(f"Y{a}", INTEGER, 0, arc.cap, arc.cost)
         for a, arc in enumerate(net.arcs)]
    for nid in range(len(net.nodes)):
        if nid in (net.origin_node, net.dest_node):
            continue
        coeffs = [(X[c], float(net.ts_frags[c].vehicles)) for c in net.in_frags[nid]]
        coeffs += [(Y[a], 1.0) for a in net.in_arcs[nid]]
        coeffs += [(X[c], -float(net.ts_frags[c].vehicles)) for c in net.out_frags[nid]]
        coeffs += [(Y[a], -1.0) for a in net.out_arcs[nid]]
        m.add_constr(f"flow{nid}", coeffs, EQ, 0.0)
    covering = {}
    for c, copy in enumerate(net.ts_frags):
        for loc in net.frags[copy.frag_id].path:
            if inst.is_pickup(loc):
                covering.setdefault(loc, []).append(c)
    for i in inst.pickups:
        coeffs = [(X[c], 1.0) for c in covering.get(i, [])]
        m.add_constr(f"cover{i}", coeffs, EQ, 1.0)
    m.add_constr("fleet", [(Y[a], 1.0) for a in net.out_arcs[net.origin_node]],
                 LE, float(inst.vehicles))
    return m, TsfragVars(X, Y)


@dataclass
class TsWalk:
    """One vehicle's traversal: ordered (kind, id) elements."""

    elements: list


def decompose_tsfrag(inst, net, sol, vars_):
    flow = [int(round(sol.value(x))) * copy.vehicles
            for x, copy in zip(vars_.X, net.ts_frags)]
    flow += [int(round(sol.value(y))) for y in vars_.Y]
    walks, cycles = decompose_flow(net.ts_frags + net.arcs, net.out_elems, flow,
                                   net.origin_node, net.dest_node)
    nf = len(net.ts_frags)

    def named(elements):
        return [("frag", e) if e < nf else ("arc", e - nf) for e in elements]

    return [TsWalk(named(w)) for w in walks], [named(c) for c in cycles]


def _return_stop(inst, last):
    """Destination stop after last = (delivery, time): direct travel,
    waiting for the depot to open if early."""
    d, t = last
    dest = inst.destination
    return dest, max(t + inst.travel_time[d, dest], float(inst.earliest[dest]))


def walk_locations(net, walk: TsWalk, inst):
    """Location path of a walk, with the discrete node times.

    Movement arcs land on pickups that the following fragment re-covers, so
    only fragments and the final depot arc contribute stops.
    """
    sched = [(inst.origin, float(inst.earliest[inst.origin]))]
    for kind, idx in walk.elements:
        if kind == "frag":
            copy = net.ts_frags[idx]
            frag = net.frags[copy.frag_id]
            inner = feasible_schedule(inst, frag.path, fixed_start=copy.start_eff)
            sched.extend(zip(frag.path, inner.times))
        elif net.arcs[idx].kind == DEPOT_IN:
            sched.append(_return_stop(inst, sched[-1]))
    return sched


def extract_routes_tsfrag(inst, net, sol, vars_):
    walks, cycles = decompose_tsfrag(inst, net, sol, vars_)
    routes = []
    for v, walk in enumerate(walks):
        routes.append(Route(v, [(loc, float(t)) for loc, t in
                                walk_locations(net, walk, inst)]))
    exact = all(net.ts_frags[i].disc <= EPS and
                abs(net.ts_frags[i].start_eff - net.nodes[net.ts_frags[i].tail].t) <= EPS
                for w in walks for k, i in w.elements if k == "frag") and \
        all(net.arcs[i].disc <= EPS for w in walks for k, i in w.elements if k == "arc")
    paths = [r.path for r in routes]
    rs = RouteSet(routes, float(sol.objective),
                  _sync_groups_from_paths(inst, paths), schedule_exact=exact)
    return rs, walks, cycles


def cycle_physical_elements(net, cycle):
    """Physical fragments and movement location arcs of a residual cycle;
    idle arcs carry no physical element."""
    frags, loc_arcs = [], []
    for kind, idx in cycle:
        if kind == "frag":
            fid = net.ts_frags[idx].frag_id
            if fid not in frags:
                frags.append(fid)
        else:
            arc = net.arcs[idx]
            if arc.kind != IDLE and arc.loc_arc not in loc_arcs:
                loc_arcs.append(arc.loc_arc)
    return frags, loc_arcs


def subtour_cut_tsfrag(model, net, vars_, frags, loc_arcs, name):
    """Forbid simultaneous use of every element of a detected cycle, over
    all time copies: positive flow on the whole physical cycle forces a
    closed precedence chain, which no continuous schedule satisfies."""
    coeffs = [(vars_.X[c], 1.0) for fid in frags for c in net.by_frag.get(fid, [])]
    for la in loc_arcs:
        coeffs.append((arc_usage_var(model, net, vars_, la), 1.0))
    rhs = float(len(frags) + len(loc_arcs) - 1)
    return (name, coeffs, LE, rhs)


def route_elements(net, walk: TsWalk):
    frags, loc_arcs = [], []
    for kind, idx in walk.elements:
        if kind == "frag":
            frags.append(net.ts_frags[idx].frag_id)
        else:
            arc = net.arcs[idx]
            if arc.kind != IDLE:
                loc_arcs.append(arc.loc_arc)
    return frags, loc_arcs


def solve_tsfrag(inst: Instance, resolution=1.0, time_limit=None,
                 callbacks=False, frags=None, grid=None) -> SolveReport:
    """Fixed-grid TSFrag; with callbacks=True, continuous-time feasibility
    of extracted routes is enforced through infeasible-path cuts (TSFrag+C),
    which requires independent route schedules (no large customers)."""
    start = time.perf_counter()
    if callbacks and inst.large_pickups:
        raise ValueError("infeasible-path callbacks need independent route "
                         "schedules; large customers require DDD")
    frags = frags or enumerate_fragments(inst)
    grid = grid or TimeGrid.fixed(inst, resolution)
    net = expand_fragments(inst, frags, grid)
    model, vars_ = build_tsfrag(inst, net)
    ncuts = {"subtour": 0, "path": 0}

    def generator(sol):
        rs, walks, cycles = extract_routes_tsfrag(inst, net, sol, vars_)
        cuts = []
        for cycle in cycles:
            fr, la = cycle_physical_elements(net, cycle)
            ncuts["subtour"] += 1
            cuts.append(subtour_cut_tsfrag(
                model, net, vars_, fr, la,
                f"cut_st{model.num_constrs}_{len(cuts)}"))
        if cuts or not callbacks:
            return cuts
        for walk in walks:
            locs = [loc for loc, _ in walk_locations(net, walk, inst)]
            if feasible_schedule(inst, locs) is None:
                fr, la = route_elements(net, walk)
                ncuts["path"] += 1
                cuts.append(subtour_cut_tsfrag(
                    model, net, vars_, fr, la,
                    f"cut_ip{model.num_constrs}_{len(cuts)}"))
        return cuts

    sol, info = milp.resolve_with_cuts(model, generator,
                                     _time_left(time_limit, start))
    seconds = time.perf_counter() - start
    stats = dict(net.stats())
    method = "tsfrag+c" if callbacks else "tsfrag"
    if not sol.ok:
        return SolveReport(method, sol.status, None, sol.best_bound, None, seconds,
                           cuts=info.num_cuts, stats=stats)
    routes, _, _ = extract_routes_tsfrag(inst, net, sol, vars_)
    routes.reschedule(inst)
    return SolveReport(method, sol.status, sol.objective, sol.best_bound, routes,
                       seconds, gap=sol.gap, cuts=info.num_cuts, stats=stats)


# -- TSEF -----------------------------------------------------------------------

@dataclass
class TsefVars:
    chi: list
    gamma: list


def build_tsef(inst: Instance, net: TsEventNetwork):
    m = MilpModel(f"tsef-{inst.name}")
    chi = [m.add_var(f"c{a}", INTEGER, 0, arc.cap, arc.cost)
           for a, arc in enumerate(net.arcs)]
    gamma = [m.add_var(f"g{a}", BINARY) for a in range(len(net.arcs))]
    for nid in range(len(net.nodes)):
        if nid in (net.origin_node, net.dest_node):
            continue
        coeffs = [(chi[a], 1.0) for a in net.in_arcs[nid]]
        coeffs += [(chi[a], -1.0) for a in net.out_arcs[nid]]
        m.add_constr(f"flow{nid}", coeffs, EQ, 0.0)
    for a, arc in enumerate(net.arcs):
        m.add_constr(f"lk1_{a}", [(chi[a], 1.0), (gamma[a], -1.0)], GE, 0.0)
        m.add_constr(f"lk2_{a}", [(chi[a], 1.0), (gamma[a], -arc.cap)], LE, 0.0)
    out_loc, in_loc = {}, {}
    for a, arc in enumerate(net.arcs):
        if arc.kind == IDLE:
            continue
        out_loc.setdefault(arc.loc_arc[0], []).append(a)
        in_loc.setdefault(arc.loc_arc[1], []).append(a)
    for i in inst.pickups:
        coeffs = [(chi[a], 1.0) for a in out_loc.get(i, [])]
        m.add_constr(f"cover{i}", coeffs, EQ, float(inst.vehicles_required(i)))
    m.add_constr("fleet", [(chi[a], 1.0) for a in net.out_arcs[net.origin_node]],
                 LE, float(inst.vehicles))
    # ride limit at discrete stamps: arrival at the delivery minus departure
    # from the pickup; exact only when the grid is fine enough
    for i in inst.pickups:
        coeffs = [(gamma[a], net.time_of_node(net.arcs[a].head))
                  for a in in_loc.get(i + inst.n, [])]
        coeffs += [(gamma[a], -net.time_of_node(net.arcs[a].tail))
                   for a in out_loc.get(i, [])]
        m.add_constr(f"ride{i}", coeffs, LE, float(inst.ride[i]))
    return m, TsefVars(chi, gamma)


def decompose_tsef(inst, net, sol, vars_):
    flow = [int(round(sol.value(v))) for v in vars_.chi]
    return decompose_flow(net.arcs, net.out_arcs, flow, net.origin_node,
                          net.dest_node)


def extract_routes_tsef(inst, net, sol, vars_):
    walks, cycles = decompose_tsef(inst, net, sol, vars_)
    routes = []
    for v, elements in enumerate(walks):
        stops = [(inst.origin, float(inst.earliest[inst.origin]))]
        for aid in elements:
            arc = net.arcs[aid]
            if arc.kind == IDLE:
                # waiting at a pickup delays service; at a delivery service
                # happened on arrival and the wait is free slack
                if inst.is_pickup(stops[-1][0]):
                    stops[-1] = (stops[-1][0], net.time_of_node(arc.head))
                continue
            if arc.kind == DEPOT_IN:
                stops.append(_return_stop(inst, stops[-1]))
                continue
            stops.append((net.loc_of_node(arc.head), net.time_of_node(arc.head)))
        routes.append(Route(v, stops))
    exact = all(net.arcs[a].disc <= EPS for w in walks for a in w)
    paths = [r.path for r in routes]
    rs = RouteSet(routes, float(sol.objective),
                  _sync_groups_from_paths(inst, paths), schedule_exact=exact)
    return rs, walks, cycles


def subtour_cut_tsef(net, vars_, event_arcs, name):
    coeffs = [(vars_.gamma[a], 1.0) for ea in event_arcs
              for a in net.by_event_arc.get(ea, [])]
    return (name, coeffs, LE, float(len(event_arcs) - 1))


def solve_tsef(inst: Instance, resolution=1.0, time_limit=None,
               enet=None, grid=None) -> SolveReport:
    start = time.perf_counter()
    enet = enet or enumerate_events(inst)
    grid = grid or TimeGrid.fixed(inst, resolution)
    net = expand_events(inst, enet, grid)
    model, vars_ = build_tsef(inst, net)

    def subtours(sol):
        _, _, cycles = extract_routes_tsef(inst, net, sol, vars_)
        cuts = []
        for k, cycle in enumerate(cycles):
            eas = sorted({net.arcs[a].event_arc for a in cycle
                          if net.arcs[a].kind != IDLE})
            cuts.append(subtour_cut_tsef(net, vars_, eas,
                                         f"cut_st{model.num_constrs}_{k}"))
        return cuts

    sol, info = milp.resolve_with_cuts(model, subtours,
                                     _time_left(time_limit, start))
    seconds = time.perf_counter() - start
    stats = dict(net.stats())
    if not sol.ok:
        return SolveReport("tsef", sol.status, None, sol.best_bound, None, seconds,
                           cuts=info.num_cuts, stats=stats, approximate=True)
    routes, _, _ = extract_routes_tsef(inst, net, sol, vars_)
    routes.reschedule(inst)
    return SolveReport("tsef", sol.status, sol.objective, sol.best_bound, routes,
                       seconds, gap=sol.gap, cuts=info.num_cuts, stats=stats,
                       approximate=True)
