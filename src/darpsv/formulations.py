"""The four MILP formulations, route extraction and cut generation.

Solvers never trust structure that can be recomputed: extraction performs
an explicit flow decomposition, residual cycles feed the subtour cuts, and
objectives are re-derived from the traversed location arcs.

EBF, TSEF and TSFrag share one subtour-separation loop
(separate_subtours): solve, decompose the flow once, turn each residual
cycle into a cut over its physical elements, re-solve, and read the routes
off the walks of the last decomposition.  TsfragMaster and TsefMaster hold
the steps of one time-space formulation on its current grid; fixed-grid
solves and DDD drive the same masters.

A fixed grid rounds arcs down, so its optimum is a relaxation whose paths
may admit no continuous schedule.  Its routes are timed one way, by the
earliest joint schedule of their location paths (timed_routes); without
one the report has status RELAXATION and the master's bound.
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
from .timespace import (IDLE, TimeGrid, TsEventNetwork, TsFragNetwork,
                        expand_events, expand_fragments)


def _time_left(time_limit, start):
    """What is left of a solve's time limit after the steps since start."""
    if time_limit is None:
        return None
    return time_limit - (time.perf_counter() - start)


def _flow(sol, idx):
    """Rounded values of the variables idx, read with one numpy index.
    np.rint rounds half to even like round(); the result is a list because
    decompose_flow's unit steps are slower on numpy scalars."""
    return np.rint(sol.values[idx]).astype(int).tolist()


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

    @classmethod
    def from_routes(cls, inst, routes, objective):
        """Route set with the vehicles of each large pickup grouped."""
        groups = {}
        for route in routes:
            for loc in route.path:
                if inst.is_pickup(loc) and inst.is_large(loc):
                    groups.setdefault(loc, []).append(route.vehicle)
        return cls(routes, float(objective),
                   {loc: tuple(vs) for loc, vs in groups.items()})

    def paths(self):
        return [r.path for r in self.routes]

    def recost(self, inst) -> float:
        C = inst.travel_cost
        return float(sum(C[i, j] for r in self.routes
                         for i, j in zip(r.path, r.path[1:])))

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
        else:
            out["routes"] = []
            out["sync_groups"] = {}
        return out


def _report(method, sol, info, routes, start, stats, approximate=False):
    """Report of a separation-loop solve; routes is None unless sol.ok."""
    return SolveReport(method, sol.status, sol.objective, sol.best_bound, routes,
                       time.perf_counter() - start, gap=sol.gap,
                       cuts=info.num_cuts, stats=stats, approximate=approximate)


# -- subtour separation -----------------------------------------------------

def separate_subtours(model, decompose, physical, cut, time_limit,
                      more_cuts=None):
    """The subtour-separation loop of every flow formulation.

    Each HiGHS solution is decomposed once: decompose(sol) gives the walks
    (EBF: its routes) and the residual cycles.  Each cycle becomes a cut,
    cut(physical(cycle), name), and the model is re-solved; more_cuts(walks)
    runs only when no cycle was cut.  resolve_with_cuts returns an ok
    solution only after the generator found no cut on it, so the last
    decomposition is that solution's.

    Returns (sol, info, walks, cut_sets): the final solution's walks (None
    unless sol.ok) and the physical element set of every cycle cut, which
    DDD keeps across grids.
    """
    walks, cut_sets = None, []

    def generator(sol):
        nonlocal walks
        walks, cycles = decompose(sol)
        cuts = []
        for k, cycle in enumerate(cycles):
            cut_sets.append(physical(cycle))
            cuts.append(cut(cut_sets[-1], f"cut{model.num_constrs}_{k}"))
        if not cuts and more_cuts is not None:
            cuts = more_cuts(walks)
        return cuts

    sol, info = milp.resolve_with_cuts(model, generator, time_limit)
    return sol, info, walks if sol.ok else None, cut_sets


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
    flow = _flow(sol, vars_.x)
    tval = {loc: sol.value(v) for loc, v in vars_.t.items()}
    walks, cycles = decompose_flow(net.arcs, net.out_arcs, flow,
                                   net.origin_id, net.dest_id)
    routes = []
    for vehicle, walk in enumerate(walks):
        path = [inst.origin] + [net.events[net.arcs[a].head].loc for a in walk]
        routes.append(Route(vehicle, [(loc, float(tval[loc])) for loc in path]))
    return RouteSet.from_routes(inst, routes, sol.objective), cycles


def solve_ebf(inst: Instance, time_limit=None) -> SolveReport:
    start = time.perf_counter()
    net = enumerate_events(inst)
    model, vars_ = build_ebf(inst, net)

    def cut(arcs, name):
        # the big-M time rows already forbid cycles of positive length, so
        # this fires only on zero-length ones
        return (name, [(vars_.y[a], 1.0) for a in arcs], LE, float(len(arcs) - 1))

    sol, info, routes, _ = separate_subtours(
        model, lambda sol: extract_routes_ebf(inst, net, sol, vars_),
        lambda cycle: sorted(set(cycle)), cut, _time_left(time_limit, start))
    return _report("ebf", sol, info, routes, start,
                   {"V_E": net.num_events, "A_E": net.num_arcs})


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
    return RouteSet.from_routes(inst, routes, sol.objective)


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


def decompose_tsfrag(inst, net, sol, vars_):
    """Walks and residual cycles as lists of ("frag", copy id) and
    ("arc", arc id) elements."""
    flow = [x * copy.vehicles for x, copy in zip(_flow(sol, vars_.X), net.ts_frags)]
    flow += _flow(sol, vars_.Y)
    walks, cycles = decompose_flow(net.ts_frags + net.arcs, net.out_elems, flow,
                                   net.origin_node, net.dest_node)
    nf = len(net.ts_frags)

    def named(elements):
        return [("frag", e) if e < nf else ("arc", e - nf) for e in elements]

    return [named(w) for w in walks], [named(c) for c in cycles]


def paths_tsfrag(inst, net, walks):
    """Location path of each walk: the origin, every fragment's stops in
    order, then the destination.  Movement arcs land on the pickup that
    the next fragment starts at, so node arcs add no stop of their own."""
    paths = []
    for walk in walks:
        path = [inst.origin]
        for kind, idx in walk:
            if kind == "frag":
                path.extend(net.frags[net.ts_frags[idx].frag_id].path)
        paths.append(path + [inst.destination])
    return paths


def cycle_physical_elements(net, elements):
    """Physical fragments and movement location arcs of a residual cycle
    or a walk, each once, in order; idle arcs carry no physical element."""
    frags, loc_arcs = [], []
    for kind, idx in elements:
        if kind == "frag":
            fid = net.ts_frags[idx].frag_id
            if fid not in frags:
                frags.append(fid)
        else:
            arc = net.arcs[idx]
            if arc.kind != IDLE and arc.loc_arc not in loc_arcs:
                loc_arcs.append(arc.loc_arc)
    return frags, loc_arcs


def subtour_cut_tsfrag(model, net, vars_, elements, name):
    """Forbid simultaneous use of every element of a detected cycle, over
    all time copies: positive flow on the whole physical cycle forces a
    closed precedence chain, which no continuous schedule satisfies.
    elements is a (fragment ids, location arcs) pair."""
    frags, loc_arcs = elements
    coeffs = [(vars_.X[c], 1.0) for fid in frags for c in net.by_frag.get(fid, [])]
    for la in loc_arcs:
        coeffs.append((arc_usage_var(model, net, vars_, la), 1.0))
    rhs = float(len(frags) + len(loc_arcs) - 1)
    return (name, coeffs, LE, rhs)


def solve_tsfrag(inst: Instance, resolution=1.0, time_limit=None,
                 callbacks=False) -> SolveReport:
    """Fixed-grid TSFrag; with callbacks=True, continuous-time feasibility
    of extracted routes is enforced through infeasible-path cuts (TSFrag+C),
    which requires independent route schedules (no large customers)."""
    start = time.perf_counter()
    if callbacks and inst.large_pickups:
        raise ValueError("infeasible-path callbacks need independent route "
                         "schedules; large customers require DDD")
    master = TsfragMaster(inst, enumerate_fragments(inst), callbacks)
    return _solve_grid(master, TimeGrid.fixed(inst, resolution), time_limit, start)


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
    return decompose_flow(net.arcs, net.out_arcs, _flow(sol, vars_.chi),
                          net.origin_node, net.dest_node)


def paths_tsef(inst, net, walks):
    """Location path of each walk: the origin plus the head location of
    every non-idle arc."""
    return [[inst.origin] + [net.arcs[a].loc_arc[1] for a in walk
                             if net.arcs[a].kind != IDLE]
            for walk in walks]


def subtour_cut_tsef(model, net, vars_, event_arcs, name):
    coeffs = [(vars_.gamma[a], 1.0) for ea in event_arcs
              for a in net.by_event_arc.get(ea, [])]
    return (name, coeffs, LE, float(len(event_arcs) - 1))


def solve_tsef(inst: Instance, resolution=1.0, time_limit=None,
               grid=None) -> SolveReport:
    start = time.perf_counter()
    master = TsefMaster(inst, enumerate_events(inst))
    return _solve_grid(master, grid or TimeGrid.fixed(inst, resolution),
                       time_limit, start)


# -- time-space masters ----------------------------------------------------------

def timed_routes(inst, paths, objective):
    """Routes along paths at their earliest continuous joint schedule, or
    None when the paths have none."""
    times = joint_schedule(inst, paths)
    if times is None:
        return None
    return RouteSet.from_routes(inst, [
        Route(v, [(loc, times[v][loc]) for loc in path])
        for v, path in enumerate(paths)], objective)


def _solve_grid(master, grid, time_limit, start):
    """Fixed-grid solve of a time-space master: a RELAXATION, with the
    master's bound and no routes, when its paths have no schedule."""
    net, model = master.build(grid)
    sol, info, walks, _ = separate_subtours(
        model, master.decompose, master.physical, master.cut,
        _time_left(time_limit, start), master.more_cuts)
    routes = timed_routes(master.inst, master.paths(walks),
                          sol.objective) if sol.ok else None
    report = _report(master.method, sol, info, routes, start, net.stats(),
                     master.approximate)
    if sol.ok and routes is None:
        report.status, report.objective, report.gap = Status.RELAXATION, None, None
    return report


class TsfragMaster:
    """TSFrag over a fragment set, for any grid.  build(grid) expands the
    grid and builds the model; the other steps act on the last build, and
    call the module-level decomposer when they run, so tracing wrappers
    and test patches see every call.  With callbacks (TSFrag+C), a route
    with no continuous schedule is cut like a cycle."""

    approximate = False

    def __init__(self, inst, frags, callbacks=False):
        self.inst, self.frags = inst, frags
        self.method = "tsfrag+c" if callbacks else "tsfrag"
        self.more_cuts = self._path_cuts if callbacks else None

    def build(self, grid):
        self.net = expand_fragments(self.inst, self.frags, grid)
        self.model, self.vars = build_tsfrag(self.inst, self.net)
        return self.net, self.model

    def decompose(self, sol):
        return decompose_tsfrag(self.inst, self.net, sol, self.vars)

    def physical(self, cycle):
        return cycle_physical_elements(self.net, cycle)

    def cut(self, elements, name):
        return subtour_cut_tsfrag(self.model, self.net, self.vars, elements, name)

    def paths(self, walks):
        return paths_tsfrag(self.inst, self.net, walks)

    def _path_cuts(self, walks):
        unscheduled = [self.physical(w) for w, path in zip(walks, self.paths(walks))
                       if feasible_schedule(self.inst, path) is None]
        return [self.cut(elements, f"cut_ip{self.model.num_constrs}_{k}")
                for k, elements in enumerate(unscheduled)]


class TsefMaster:
    """TSEF over an event network, for any grid, with the same steps as
    TsfragMaster.  Its ride rows act on discrete stamps, so its results
    are approximate."""

    method = "tsef"
    approximate = True
    more_cuts = None

    def __init__(self, inst, enet):
        self.inst, self.enet = inst, enet

    def build(self, grid):
        self.net = expand_events(self.inst, self.enet, grid)
        self.model, self.vars = build_tsef(self.inst, self.net)
        return self.net, self.model

    def decompose(self, sol):
        return decompose_tsef(self.inst, self.net, sol, self.vars)

    def physical(self, cycle):
        """The event arcs of a residual cycle."""
        return sorted({self.net.arcs[a].event_arc for a in cycle
                       if self.net.arcs[a].kind != IDLE})

    def cut(self, event_arcs, name):
        return subtour_cut_tsef(self.model, self.net, self.vars, event_arcs, name)

    def paths(self, walks):
        return paths_tsef(self.inst, self.net, walks)
