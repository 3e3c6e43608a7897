"""The four MILP formulations, route extraction and cut generation.

Solvers never trust structure that can be recomputed: extraction performs
an explicit flow decomposition, residual cycles feed the subtour cuts, and
objectives are re-derived from the traversed location arcs.

EBF, TSEF and TSFrag share one subtour-separation loop
(separate_subtours): solve, decompose the flow once, turn each residual
cycle into a cut over its physical elements, re-solve, and read the routes
off the walks of the last decomposition.  EBF and TSEF share their
arc-flow rows (_arc_flow) and add their own timing rows.  TsfragMaster and
TsefMaster hold the steps of one time-space formulation on its current
grid, exactness and the arcs that DDD refines (shortened) included;
fixed-grid solves and DDD drive the same masters through those steps
alone.

Every solve becomes a report one way (solve_report): status, objective,
bound and gap come from its own MILP solution, and the location paths of
an ok solution are timed by their earliest joint schedule (timed_routes)
and checked (validate.check).  A fixed grid rounds arcs down, so its
optimum is a relaxation whose paths may admit no continuous schedule;
paths without a schedule, or whose routes check() rejects, give status
RELAXATION with the solution's bound and no routes.  TSEF is not exact
(its ride rows act on discrete stamps), so its checked routes give status
APPROXIMATE, its bound can exceed the optimum, and its infeasible MILP
proves nothing about the instance: status RELAXATION with no bound.

Each solve_* turns its time_limit (seconds) into one time.perf_counter()
deadline when it starts, so network building counts against the limit.
Only _solve_grid and DDD, before they build a master, and milp.solve,
before HiGHS starts, compare the clock with it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import milp
from .events import EventNetwork, enumerate_events
from .fragments import enumerate_fragments, feasible_schedule
from .graph import decompose_flow
from .instance import EPS, Instance
from .milp import BINARY, CONTINUOUS, EQ, GE, INTEGER, LE, MilpModel, Status
from .timespace import (GRID_TOL, IDLE, TimeGrid, TsEventNetwork,
                        TsFragNetwork, expand_events, expand_fragments)
from .validate import RouteSet, check, timed_routes


def _flow(sol, idx):
    """Rounded values of the variables idx, read with one numpy index.
    np.rint rounds half to even like round(); the result is a list because
    decompose_flow's unit steps are slower on numpy scalars."""
    return np.rint(sol.values[idx]).astype(int).tolist()


def big_m_row(inst, i, j):
    """(M, b) of the time row t_i - t_j + M*y_ij <= b, b = M - T_ij, with
    M = max(0, l_i + T_ij - e_j): the row reads t_j >= t_i + T_ij when the
    arc is used and is slack over both windows otherwise.  b is computed as
    max(l_i - e_j, -T_ij), its value in exact arithmetic, and one within
    GRID_TOL of 0 is 0: tightened windows that meet can differ in the last
    bit, and HiGHS warns of such tiny bounds."""
    T = inst.travel_time[i, j]
    b = max(inst.latest[i] - inst.earliest[j], -T)
    return (max(0.0, inst.latest[i] + T - inst.earliest[j]),
            0.0 if abs(b) <= GRID_TOL else b)


# -- reports ------------------------------------------------------------------

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
    history: list = field(default_factory=list)

    @property
    def ok(self):
        return self.status in (Status.OPTIMAL, Status.FEASIBLE_WITH_GAP,
                               Status.APPROXIMATE)

    def to_dict(self):
        out = {
            "method": self.method,
            "status": self.status,
            "objective": self.objective,
            "bound": self.bound,
            "gap": self.gap,
            "seconds": self.seconds,
            "stats": dict(self.stats, cuts=self.cuts,
                          iterations=self.iterations),
        }
        routes = self.routes or RouteSet([], self.objective)
        out.update(routes.to_dict())  # routes carry the report's objective
        return out


def solve_report(inst, method, sol, paths, start, stats, cuts, exact=True,
                 **fields):
    """The one way a solve becomes a SolveReport.  Status, objective, bound
    and gap are sol's; an ok sol's location paths (read only then) are
    timed by their earliest joint schedule.  Paths with no schedule, or
    whose routes check() rejects, give RELAXATION with sol's bound and no
    routes.  Checked routes of an inexact formulation give APPROXIMATE,
    whether its MILP was optimal or stopped with a gap; its INFEASIBLE
    gives RELAXATION with no bound, since its rows can cut every feasible
    plan away.  fields go to SolveReport as they are (DDD's iterations and
    history)."""
    status, objective, gap, routes = sol.status, sol.objective, sol.gap, None
    bound = sol.best_bound
    if sol.ok:
        routes = timed_routes(inst, paths, objective)
        if routes is None or check(inst, routes):
            status, objective, gap, routes = Status.RELAXATION, None, None, None
        elif not exact:
            status = Status.APPROXIMATE
    elif status == Status.INFEASIBLE and not exact:
        status, bound = Status.RELAXATION, None
    return SolveReport(method, status, objective, bound, routes,
                       time.perf_counter() - start, gap=gap, cuts=cuts,
                       stats=stats, **fields)


def _stopped(status, bound):
    """A solution with only a status and a bound."""
    return milp.MilpSolution(status, None, None, bound, 0.0)


# -- subtour separation -----------------------------------------------------

def separate_subtours(model, decompose, physical, cut, deadline,
                      more_cuts=None):
    """The subtour-separation loop of every flow formulation.

    Each HiGHS solution is decomposed once: decompose(sol) gives the walks
    (EBF: its routes) and the residual cycles.  Each cycle becomes a
    (coeffs, sense, rhs) cut, cut(physical(cycle)), and the model is
    re-solved; more_cuts(walks) runs only when no cycle was cut.
    resolve_with_cuts returns an ok solution only after the generator
    found no cut on it, so the last decomposition is that solution's.

    Returns (sol, info, walks, cut_sets): the final solution's walks (None
    unless sol.ok) and the physical element set of every cycle cut, which
    DDD keeps across grids.
    """
    walks, cut_sets = None, []

    def generator(sol):
        nonlocal walks
        walks, cycles = decompose(sol)
        cuts = []
        for cycle in cycles:
            cut_sets.append(physical(cycle))
            cuts.append(cut(cut_sets[-1]))
        if not cuts and more_cuts is not None:
            cuts = more_cuts(walks)
        return cuts

    sol, info = milp.resolve_with_cuts(model, generator, deadline)
    return sol, info, walks if sol.ok else None, cut_sets


# -- EBF and TSEF ---------------------------------------------------------------

def _arc_flow(m, inst, arcs, in_arcs, out_arcs, origin, dest):
    """The variables and rows that EBF and TSEF share, over a network with
    depot nodes origin and dest.  Each arc a gets an integer flow x[a] up
    to its cap and a binary y[a] that is 1 exactly when x[a] > 0.  Flow is
    conserved at every other node, the arcs leaving each pickup carry its
    vehicles_required (waiting arcs, whose loc_arc is a loop, do not
    count), and at most the fleet leaves the origin.

    Returns x, y and the non-waiting arc ids by tail and by head location,
    each in arc order."""
    x = [m.add_var(INTEGER, 0, arc.cap, arc.cost) for arc in arcs]
    y = [m.add_var(BINARY) for _ in arcs]
    for v in range(len(in_arcs)):
        if v in (origin, dest):
            continue
        coeffs = [(x[a], 1.0) for a in in_arcs[v]]
        coeffs += [(x[a], -1.0) for a in out_arcs[v]]
        m.add_constr(coeffs, EQ, 0.0)
    out_loc, in_loc = {}, {}
    for a, arc in enumerate(arcs):
        m.add_constr([(x[a], 1.0), (y[a], -1.0)], GE, 0.0)
        m.add_constr([(x[a], 1.0), (y[a], -arc.cap)], LE, 0.0)
        i, j = arc.loc_arc
        if i != j:
            out_loc.setdefault(i, []).append(a)
            in_loc.setdefault(j, []).append(a)
    for i in inst.pickups:
        coeffs = [(x[a], 1.0) for a in out_loc.get(i, [])]
        m.add_constr(coeffs, EQ, float(inst.vehicles_required(i)))
    m.add_constr([(x[a], 1.0) for a in out_arcs[origin]],
                 LE, float(inst.vehicles))
    return x, y, out_loc, in_loc


@dataclass
class ArcFlowVars:
    """The arc-flow variables of an EBF or TSEF model."""

    x: list  # arc id -> integer flow var
    y: list  # arc id -> binary use var


def build_ebf(inst: Instance, net: EventNetwork):
    m = MilpModel()
    x, y, _, _ = _arc_flow(m, inst, net.arcs, net.in_arcs, net.out_arcs,
                           net.origin_id, net.dest_id)
    t = {loc: m.add_var(CONTINUOUS, inst.earliest[loc], inst.latest[loc])
         for loc in range(inst.num_locations)}
    for (i, j), aids in sorted(net.by_loc_arc.items()):
        M, b = big_m_row(inst, i, j)
        coeffs = [(t[i], 1.0), (t[j], -1.0)]
        coeffs += [(y[a], M) for a in aids]
        m.add_constr(coeffs, LE, b)
    for i in inst.pickups:
        m.add_constr([(t[i + inst.n], 1.0), (t[i], -1.0)], LE, float(inst.ride[i]))
    return m, ArcFlowVars(x, y)


def extract_routes_ebf(inst, net, sol, vars_):
    """Location paths of the flow's walks, and its residual cycles."""
    walks, cycles = decompose_flow(net.arcs, net.out_arcs, _flow(sol, vars_.x),
                                   net.origin_id, net.dest_id)
    paths = [[inst.origin] + [net.events[net.arcs[a].head].loc for a in walk]
             for walk in walks]
    return paths, cycles


def solve_ebf(inst: Instance, time_limit=None) -> SolveReport:
    start = time.perf_counter()
    deadline = None if time_limit is None else start + time_limit
    net = enumerate_events(inst, timed=True)
    model, vars_ = build_ebf(inst, net)

    def cut(arcs):
        # the big-M time rows already forbid cycles of positive length, so
        # this fires only on zero-length ones
        return [(vars_.y[a], 1.0) for a in arcs], LE, float(len(arcs) - 1)

    sol, info, paths, _ = separate_subtours(
        model, lambda sol: extract_routes_ebf(inst, net, sol, vars_),
        lambda cycle: sorted(set(cycle)), cut, deadline)
    return solve_report(inst, "ebf", sol, paths, start, net.stats(),
                        info.num_cuts)


# -- ABF ----------------------------------------------------------------------

@dataclass
class AbfVars:
    f: dict  # (i, j, v) -> var
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
    m = MilpModel()
    arcs = abf_arcs(inst)
    V = range(inst.vehicles)
    Q = inst.capacity
    vq = np.zeros(inst.num_locations)
    for i in inst.pickups:
        q = min(int(inst.demand[i]), Q)
        vq[i], vq[i + inst.n] = q, -q

    f = {(i, j, v): m.add_var(
            BINARY, obj=0.0 if i == inst.origin and j == inst.destination
            else float(inst.travel_cost[i, j]))
         for (i, j) in arcs for v in V}
    t = {(i, v): m.add_var(CONTINUOUS, inst.earliest[i], inst.latest[i])
         for i in range(inst.num_locations) for v in V}
    large_locs = [i for i in inst.large_pickups] + \
                 [i + inst.n for i in inst.large_pickups]
    tt = {i: m.add_var(CONTINUOUS, inst.earliest[i], inst.latest[i])
          for i in large_locs}
    load = {}
    for i in range(inst.num_locations):
        lo, hi = max(0.0, vq[i]), min(Q, Q + vq[i])
        if inst.is_pickup(i) and inst.is_large(i):
            lo = hi = float(Q)
        if inst.is_delivery(i) and inst.is_large(i - inst.n):
            lo = hi = 0.0
        for v in V:
            load[i, v] = m.add_var(INTEGER, lo, hi)

    out_arcs, in_arcs = {}, {}
    for (i, j) in arcs:
        out_arcs.setdefault(i, []).append((i, j))
        in_arcs.setdefault(j, []).append((i, j))

    for i in list(inst.pickups) + list(inst.deliveries):
        coeffs = [(f[a + (v,)], 1.0) for a in out_arcs.get(i, []) for v in V]
        m.add_constr(coeffs, EQ, float(inst.vehicles_required(i)))
    for v in V:
        for i in inst.pickups:
            coeffs = [(f[a + (v,)], 1.0) for a in out_arcs.get(i, [])]
            coeffs += [(f[a + (v,)], -1.0) for a in out_arcs.get(i + inst.n, [])]
            m.add_constr(coeffs, EQ, 0.0)
        m.add_constr([(f[a + (v,)], 1.0) for a in out_arcs[inst.origin]], EQ, 1.0)
        m.add_constr([(f[a + (v,)], 1.0) for a in in_arcs[inst.destination]], EQ, 1.0)
        for i in list(inst.pickups) + list(inst.deliveries):
            coeffs = [(f[a + (v,)], 1.0) for a in in_arcs.get(i, [])]
            coeffs += [(f[a + (v,)], -1.0) for a in out_arcs.get(i, [])]
            m.add_constr(coeffs, EQ, 0.0)
        for i in large_locs:
            m.add_constr([(t[i, v], 1.0), (tt[i], -1.0)], EQ, 0.0)
        for (i, j) in arcs:
            M, b = big_m_row(inst, i, j)
            m.add_constr([(t[i, v], 1.0), (t[j, v], -1.0), (f[i, j, v], M)],
                         LE, b)
            W = min(Q, Q + vq[i])
            m.add_constr([(load[i, v], 1.0), (load[j, v], -1.0), (f[i, j, v], W)],
                         LE, W - vq[j])
        for i in inst.pickups:
            m.add_constr([(t[i + inst.n, v], 1.0), (t[i, v], -1.0)],
                         LE, float(inst.ride[i]))
            # precedence: the trip takes at least the direct travel time
            m.add_constr([(t[i + inst.n, v], 1.0), (t[i, v], -1.0)],
                         GE, float(inst.travel_time[i, i + inst.n]))
    return m, AbfVars(f, arcs)


def paths_abf(inst, sol, vars_):
    """Location path of each vehicle that leaves the origin for a
    customer; idle vehicles are left out."""
    paths = []
    for v in range(inst.vehicles):
        succ = {}
        for (i, j) in vars_.arcs:
            if sol.value(vars_.f[i, j, v]) > 0.5:
                succ[i] = j
        path, cur = [inst.origin], inst.origin
        while cur != inst.destination:
            cur = succ[cur]
            path.append(cur)
        if len(path) > 2:
            paths.append(path)
    return paths


def solve_abf(inst: Instance, time_limit=None) -> SolveReport:
    """ABF adds no cuts: one solve, whose deadline counts the build."""
    start = time.perf_counter()
    deadline = None if time_limit is None else start + time_limit
    model, vars_ = build_abf(inst)
    sol = milp.solve(model, deadline)
    paths = paths_abf(inst, sol, vars_) if sol.ok else None
    return solve_report(inst, "abf", sol, paths, start,
                        {"arcs": len(vars_.arcs)}, 0)


# -- TSFrag ---------------------------------------------------------------------

@dataclass
class TsfragVars:
    X: list  # ts fragment copy -> var
    Y: list  # ts arc -> var
    usage: dict = field(default_factory=dict)  # loc arc -> lazy indicator var


def build_tsfrag(inst: Instance, net: TsFragNetwork):
    m = MilpModel()
    X = [m.add_var(BINARY, obj=copy.cost * copy.vehicles) for copy in net.ts_frags]
    Y = [m.add_var(INTEGER, 0, arc.cap, arc.cost) for arc in net.arcs]
    for nid in range(len(net.nodes)):
        if nid in (net.origin_node, net.dest_node):
            continue
        coeffs = [(X[c], float(net.ts_frags[c].vehicles)) for c in net.in_frags[nid]]
        coeffs += [(Y[a], 1.0) for a in net.in_arcs[nid]]
        coeffs += [(X[c], -float(net.ts_frags[c].vehicles)) for c in net.out_frags[nid]]
        coeffs += [(Y[a], -1.0) for a in net.out_arcs[nid]]
        m.add_constr(coeffs, EQ, 0.0)
    covering = {}
    for c, copy in enumerate(net.ts_frags):
        for loc in net.frags[copy.frag_id].path:
            if inst.is_pickup(loc):
                covering.setdefault(loc, []).append(c)
    for i in inst.pickups:
        coeffs = [(X[c], 1.0) for c in covering.get(i, [])]
        m.add_constr(coeffs, EQ, 1.0)
    m.add_constr([(Y[a], 1.0) for a in net.out_arcs[net.origin_node]],
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


class MethodError(ValueError):
    """The method does not apply to the instance (a usage error)."""


def solve_tsfrag(inst: Instance, resolution=1.0, time_limit=None,
                 callbacks=False) -> SolveReport:
    """Fixed-grid TSFrag; with callbacks=True, continuous-time feasibility
    of extracted routes is enforced through infeasible-path cuts (TSFrag+C),
    which requires independent route schedules (no large customers)."""
    start = time.perf_counter()
    deadline = None if time_limit is None else start + time_limit
    if callbacks and inst.large_pickups:
        raise MethodError("infeasible-path callbacks need independent route "
                          "schedules; large customers require DDD")
    master = TsfragMaster(inst, enumerate_fragments(inst), callbacks)
    return _solve_grid(master, TimeGrid.fixed(inst, resolution), deadline,
                       start)


# -- TSEF -----------------------------------------------------------------------

def build_tsef(inst: Instance, net: TsEventNetwork):
    m = MilpModel()
    x, y, out_loc, in_loc = _arc_flow(m, inst, net.arcs, net.in_arcs,
                                      net.out_arcs, net.origin_node,
                                      net.dest_node)
    # ride limit at discrete stamps: arrival at the delivery minus departure
    # from the pickup; exact only when the grid is fine enough
    for i in inst.pickups:
        coeffs = [(y[a], net.nodes[net.arcs[a].head].t)
                  for a in in_loc.get(i + inst.n, [])]
        coeffs += [(y[a], -net.nodes[net.arcs[a].tail].t)
                   for a in out_loc.get(i, [])]
        m.add_constr(coeffs, LE, float(inst.ride[i]))
    return m, ArcFlowVars(x, y)


def decompose_tsef(inst, net, sol, vars_):
    return decompose_flow(net.arcs, net.out_arcs, _flow(sol, vars_.x),
                          net.origin_node, net.dest_node)


def paths_tsef(inst, net, walks):
    """Location path of each walk: the origin plus the head location of
    every non-idle arc."""
    return [[inst.origin] + [net.arcs[a].loc_arc[1] for a in walk
                             if net.arcs[a].kind != IDLE]
            for walk in walks]


def solve_tsef(inst: Instance, resolution=1.0, time_limit=None) -> SolveReport:
    start = time.perf_counter()
    deadline = None if time_limit is None else start + time_limit
    master = TsefMaster(inst, enumerate_events(inst, timed=True))
    return _solve_grid(master, TimeGrid.fixed(inst, resolution), deadline,
                       start)


# -- time-space masters ----------------------------------------------------------

def _solve_grid(master, grid, deadline, start):
    """Fixed-grid solve of a time-space master, not built past the deadline."""
    if deadline is not None and time.perf_counter() >= deadline:
        sol = _stopped(Status.TIME_LIMIT, None)
        return solve_report(master.inst, master.method, sol, None, start, {}, 0)
    net, model = master.build(grid)
    sol, info, walks, _ = separate_subtours(
        model, master.decompose, master.physical, master.cut, deadline,
        master.more_cuts)
    paths = master.paths(walks) if sol.ok else None
    return solve_report(master.inst, master.method, sol, paths, start,
                        net.stats(), info.num_cuts, exact=master.exact)


class TsfragMaster:
    """TSFrag over a fragment set, for any grid.  build(grid) expands the
    grid and builds the model; the other steps act on the last build, and
    call the module-level decomposer when they run, so tracing wrappers
    and test patches see every call.  With callbacks (TSFrag+C), a route
    with no continuous schedule is cut like a cycle.  Fragments carry
    every ride limit, so a master whose paths schedule is exact."""

    exact = True

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
        """Physical fragments and movement location arcs of a residual
        cycle or a walk, each once, in order; idle arcs carry no physical
        element."""
        frags, loc_arcs = [], []
        for kind, idx in cycle:
            if kind == "frag":
                fid = self.net.ts_frags[idx].frag_id
                if fid not in frags:
                    frags.append(fid)
            else:
                arc = self.net.arcs[idx]
                if arc.kind != IDLE and arc.loc_arc not in loc_arcs:
                    loc_arcs.append(arc.loc_arc)
        return frags, loc_arcs

    def cut(self, elements):
        """Forbid simultaneous use of every element of a detected cycle,
        over all time copies: positive flow on the whole physical cycle
        forces a closed precedence chain, which no continuous schedule
        satisfies.  elements is a (fragment ids, location arcs) pair.

        A location arc enters through a binary forced to 1 whenever any of
        its copies carries flow, created on first use: a synchronized pair
        may split its two flow units across a cycle's arcs, and no linear
        cut in (X, Y) alone separates that from a legitimate chain."""
        net, vars_, m = self.net, self.vars, self.model
        frags, loc_arcs = elements
        coeffs = [(vars_.X[c], 1.0) for fid in frags for c in net.by_frag.get(fid, [])]
        for (i, j) in loc_arcs:
            g = vars_.usage.get((i, j))
            if g is None:
                g = vars_.usage[i, j] = m.add_var(BINARY)
                for aid in net.by_loc_arc.get((i, j), []):
                    m.add_constr([(vars_.Y[aid], 1.0), (g, -float(net.arcs[aid].cap))],
                                 LE, 0.0)
            coeffs.append((g, 1.0))
        return coeffs, LE, float(len(frags) + len(loc_arcs) - 1)

    def paths(self, walks):
        return paths_tsfrag(self.inst, self.net, walks)

    def shortened(self, walks):
        """The location arcs that a used copy or move shortens by more than
        EPS, each once, in walk order; and the (path, start_eff) of each
        used copy that holds one of them, once even when synchronized
        vehicles share the copy (ddd.refine_grid inserts its schedule)."""
        arcs, used = {}, {}
        for walk in walks:
            for kind, idx in walk:
                if kind == "frag":
                    copy = self.net.ts_frags[idx]
                    path = self.net.frags[copy.frag_id].path
                    used[idx] = (path, copy.start_eff)
                    if copy.disc > EPS:
                        arcs.update(dict.fromkeys(zip(path, path[1:])))
                elif self.net.arcs[idx].disc > EPS:  # never an idle arc
                    arcs[self.net.arcs[idx].loc_arc] = None
        copies = [(path, start) for path, start in used.values()
                  if any(arc in arcs for arc in zip(path, path[1:]))]
        return list(arcs), copies

    def _path_cuts(self, walks):
        unscheduled = [self.physical(w) for w, path in zip(walks, self.paths(walks))
                       if feasible_schedule(self.inst, path) is None]
        return [self.cut(elements) for elements in unscheduled]


class TsefMaster:
    """TSEF over an event network, for any grid, with the same steps as
    TsfragMaster.  It is not exact: its ride rows act on discrete stamps,
    so they can cut continuous-feasible paths and its bound can exceed
    the optimum: its ok reports have status APPROXIMATE, and its
    infeasible ones RELAXATION."""

    method = "tsef"
    exact = False
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

    def cut(self, event_arcs):
        coeffs = [(self.vars.y[a], 1.0) for ea in event_arcs
                  for a in self.net.by_event_arc.get(ea, [])]
        return coeffs, LE, float(len(event_arcs) - 1)

    def paths(self, walks):
        return paths_tsef(self.inst, self.net, walks)

    def shortened(self, walks):
        """Every location arc the walks move along that the grid shortens by
        more than EPS, once, in walk order; events have no fragment copies."""
        arcs = self.net.arcs  # an idle arc loses nothing
        return list(dict.fromkeys(arcs[a].loc_arc for walk in walks
                                  for a in walk if arcs[a].disc > EPS)), []
