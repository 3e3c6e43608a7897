"""Dynamic discretization discovery for the time-space formulations.

Each iteration solves the partial-network master (a relaxation, since arc
lengths are rounded down), decomposes its paths, and asks the selection
model whether they admit a continuous schedule with the actual arc lengths.
Z = 0 terminates with a proven optimum; otherwise the flagged arcs gain
time points and the loop repeats.  For the event mode the master's ride
rows act on discrete stamps only, so the bound can cut feasible paths; the
result is labeled approximate.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

from . import milp
from .events import enumerate_events
from .formulations import (Route, RouteSet, SolveReport, TsefMaster,
                           TsfragMaster, paths_tsef, paths_tsfrag,
                           separate_subtours, _time_left)
from .fragments import enumerate_fragments, feasible_schedule, start_interval
from .instance import EPS, Instance
from .milp import BINARY, CONTINUOUS, GE, LE, MilpModel, Status
from .timespace import IDLE, TimeGrid

MAX_ITERATIONS = 500  # StallError beyond this many masters


class StallError(RuntimeError):
    """Refinement added no time point while Z > 0 (convergence bug guard)."""


class Iteration(NamedTuple):
    """One DDD iteration, as kept in SolveReport.history."""

    k: int
    bound: float  # best master objective so far
    z: int  # selection value; -1 when no schedule exists at all
    new_points: int  # time points added to the grid
    master_seconds: float  # master solve, subtour separation included
    cuts: int  # subtour cuts added by this master

    def __str__(self):
        return (f"k={self.k} bound={self.bound:.4f} Z={self.z} "
                f"new_points={self.new_points} "
                f"master_seconds={self.master_seconds:.3f}")


@dataclass
class SelectionInputs:
    """Paths and shortened lengths drawn from one master solution."""

    location_paths: list  # per used vehicle, 0 .. 2n+1
    arc_short: dict  # (i, j) -> shortened length \bar T_ij
    fragment_floors: list  # (start loc, end loc, floor length)
    used_copies: list = field(default_factory=list)  # (path, ts copy) pairs


@dataclass
class SelectionResult:
    feasible: bool
    z: int | None
    delta: list  # flagged location arcs
    tau: dict | None  # location -> departure time (per-vehicle depots merged)
    status: str = Status.OPTIMAL  # of the selection MILP


def selection_model(inst: Instance, inputs: SelectionInputs, floors=None,
                    time_limit=None):
    """Minimal number of arcs that must keep a shortened travel time for the
    given paths to schedule; Z = 0 certifies continuous feasibility.

    Ride limits are part of the system: without them a zero-shortening
    schedule could still stretch a customer's trip beyond R_i, and the
    returned times must be valid as the final schedule.  A solve that hits
    time_limit before any solution returns status TIME_LIMIT and z None.
    """
    m = MilpModel("selection")
    tau = {}
    arcs = set()
    for path in inputs.location_paths:
        for loc in path:
            if loc not in tau:
                tau[loc] = m.add_var(f"tau{loc}", CONTINUOUS,
                                     inst.earliest[loc], inst.latest[loc])
        arcs.update(zip(path, path[1:]))
    arcs = sorted(arcs)
    theta, delta = {}, {}
    T = inst.travel_time
    for (i, j) in arcs:
        theta[i, j] = m.add_var(f"th{i}_{j}", CONTINUOUS, 0.0)
        delta[i, j] = m.add_var(f"d{i}_{j}", BINARY, obj=1.0)
        m.add_constr(f"rel{i}_{j}",
                     [(theta[i, j], 1.0), (delta[i, j], float(T[i, j]))],
                     GE, float(T[i, j]))
        m.add_constr(f"inc{i}_{j}",
                     [(tau[i], 1.0), (theta[i, j], 1.0), (tau[j], -1.0)], LE, 0.0)
        short = inputs.arc_short.get((i, j))
        if short is not None and short > 0:
            m.add_constr(f"min{i}_{j}", [(theta[i, j], 1.0)], GE, float(short))
    if floors is None:
        floors = inputs.fragment_floors
    for k, (start, end, floor) in enumerate(floors):
        m.add_constr(f"floor{k}", [(tau[end], 1.0), (tau[start], -1.0)],
                     GE, float(floor))
    for i in inst.pickups:
        if i in tau and i + inst.n in tau:
            m.add_constr(f"ride{i}", [(tau[i + inst.n], 1.0), (tau[i], -1.0)],
                         LE, float(inst.ride[i]))
    sol = milp.solve(m, time_limit=time_limit)
    if sol.status in (Status.INFEASIBLE, Status.TIME_LIMIT):
        return SelectionResult(False, None, [], None, sol.status)
    if not sol.ok:
        raise milp.ConfigurationError(f"selection model: {sol.status}")
    flagged = sorted(a for a in arcs if sol.value(delta[a]) > 0.5)
    times = {loc: sol.value(v) for loc, v in tau.items()}
    return SelectionResult(True, int(round(sol.objective)), flagged, times,
                           sol.status)


def refine_grid(grid: TimeGrid, flagged_arcs, inst: Instance) -> int:
    """Insert t + T_pp' into the head's grid for every tail time point;
    returns the number of new points."""
    added = 0
    for (p, q) in flagged_arcs:
        for t in list(grid[p]):
            if grid.insert(q, t + inst.travel_time[p, q]):
                added += 1
    return added


def _refine(inst, grid, inputs, sel) -> int:
    """Grow the grid on the arcs sel flags (every shortened arc when no
    schedule exists); returns the number of new points."""
    flagged = sel.delta if sel.feasible else [
        a for a, v in inputs.arc_short.items() if v < inst.travel_time[a] - EPS]
    return (refine_grid(grid, flagged, inst)
            + _refine_copy_interiors(inst, grid, inputs, flagged))


def _refine_copy_interiors(inst, grid, inputs, flagged_arcs) -> int:
    """Grid-time candidates are blind to visit times interior to a
    fragment; when a flagged arc lies in a used copy, insert that copy's
    whole schedule so its shortened representation cannot persist."""
    flagged = set(flagged_arcs)
    added = 0
    for path, copy in inputs.used_copies:
        if not any((i, j) in flagged for i, j in zip(path, path[1:])):
            continue
        sched = feasible_schedule(inst, path, fixed_start=copy.start_eff)
        for loc, t in zip(path, sched.times):
            if grid.insert(loc, t):
                added += 1
    return added


def _shorten(arc_short, loc_arc, value):
    """Keep the shortest rounded-down length seen on a location arc."""
    prev = arc_short.get(loc_arc)
    if prev is None or value < prev:
        arc_short[loc_arc] = value


def _frag_inputs(inst, net, walks):
    floors, used_copies = [], []
    arc_short = {}
    seen_copies = set()
    for walk in walks:
        for kind, idx in walk:
            if kind == "frag":
                if idx in seen_copies:
                    continue  # synchronized vehicles share one copy
                seen_copies.add(idx)
                copy = net.ts_frags[idx]
                frag = net.frags[copy.frag_id]
                used_copies.append((frag.path, copy))
                for (i, j) in zip(frag.path, frag.path[1:]):
                    _shorten(arc_short, (i, j), inst.travel_time[i, j] - copy.disc)
                floors.append((frag.start, frag.end,
                               net.nodes[copy.head].t - copy.start_eff))
            else:
                arc = net.arcs[idx]
                if arc.kind != IDLE:
                    _shorten(arc_short, arc.loc_arc,
                             inst.travel_time[arc.loc_arc] - arc.disc)
    return SelectionInputs(paths_tsfrag(inst, net, walks), arc_short, floors,
                           used_copies)


def _event_inputs(inst, net, walks):
    arc_short = {}
    for elements in walks:
        for aid in elements:
            arc = net.arcs[aid]
            if arc.kind != IDLE:
                _shorten(arc_short, arc.loc_arc,
                         inst.travel_time[arc.loc_arc] - arc.disc)
    return SelectionInputs(paths_tsef(inst, net, walks), arc_short, [])


def ddd_solve(inst: Instance, mode="tsfrag", time_limit=1800.0,
              initial_delta=50.0, trace=None) -> SolveReport:
    """Run DDD to a continuous-time optimum (tsfrag) or approximate
    benchmark value (tsef)."""
    if mode not in ("tsfrag", "tsef"):
        raise ValueError(f"DDD is defined for time-space modes, not {mode!r}")
    start = time.perf_counter()
    if mode == "tsfrag":
        frags = enumerate_fragments(inst)
        master, inputs_of = TsfragMaster(inst, frags), _frag_inputs
        base_stats = {"F": len(frags)}
    else:
        enet = enumerate_events(inst)
        master, inputs_of = TsefMaster(inst, enet), _event_inputs
        base_stats = {"V_E": enet.num_events, "A_E": enet.num_arcs}
    grid = TimeGrid.fixed(inst, initial_delta)
    history = []
    bound = objective = routes = gap = None
    physical_cuts = []  # persists across iterations, re-instantiated per grid
    total_cuts = 0
    floor_cache = {}
    for k in range(1, MAX_ITERATIONS + 1):
        remaining = _time_left(time_limit, start)
        if remaining is not None and remaining <= 0:
            status, k, stats = Status.TIME_LIMIT, k - 1, base_stats
            break
        net, model = master.build(grid)
        for c, phys in enumerate(physical_cuts):
            model.add_constr(*master.cut(phys, f"pcut{c}"))
        master_start = time.perf_counter()
        sol, info, walks, cut_sets = separate_subtours(
            model, master.decompose, master.physical, master.cut, remaining,
            master.more_cuts)
        master_seconds = time.perf_counter() - master_start
        total_cuts += info.num_cuts
        physical_cuts.extend(cut_sets)
        stats = dict(base_stats, **net.stats())
        if sol.status == Status.INFEASIBLE:
            # the partial network is a relaxation, so the instance itself is
            # infeasible (event mode: up to the documented ride-row caveat)
            status, bound = Status.INFEASIBLE, None
            break
        if not sol.ok:
            status = sol.status
            break
        if bound is not None and mode == "tsfrag" and sol.objective < bound - 1e-6:
            raise AssertionError(
                f"lower bound regressed: {sol.objective} < {bound} at k={k}")
        bound = sol.objective if bound is None else max(bound, sol.objective)
        inputs = inputs_of(inst, net, walks)
        # sel.z is None without a schedule
        sel = selection_model(inst, inputs,
                              time_limit=_time_left(time_limit, start))
        if sel.status == Status.TIME_LIMIT:
            status = Status.TIME_LIMIT
            break
        new_points = 0 if sel.z == 0 else _refine(inst, grid, inputs, sel)
        if sel.z != 0 and new_points == 0 and mode == "tsfrag":
            # the per-copy fragment floor can overtighten; retry with the
            # fragment's true minimum duration before declaring a stall
            weak = _weak_floors(inst, inputs, floor_cache)
            sel = selection_model(inst, inputs, floors=weak,
                                  time_limit=_time_left(time_limit, start))
            if sel.status == Status.TIME_LIMIT:
                status = Status.TIME_LIMIT
                break
            new_points = 0 if sel.z == 0 else _refine(inst, grid, inputs, sel)
        if sel.z != 0 and new_points == 0 and mode == "tsef":
            # nothing left to lengthen yet no continuous schedule: the
            # discrete ride rows cut the path set (documented inexactness)
            status = Status.INFEASIBLE
            break
        z = -1 if sel.z is None else sel.z
        history.append(Iteration(k, bound, z, new_points, master_seconds,
                                 info.num_cuts))
        if trace is not None:
            trace(str(history[-1]))
        if z == 0:
            status, objective, bound, gap = (Status.OPTIMAL, sol.objective,
                                             sol.best_bound, 0.0)
            routes = RouteSet.from_routes(inst, [
                Route(v, [(loc, sel.tau[loc]) for loc in path])
                for v, path in enumerate(inputs.location_paths)], objective)
            break
        if new_points == 0:
            raise StallError(f"Z={z} with no grid growth at iteration {k}")
    else:
        raise StallError(f"no convergence within {MAX_ITERATIONS} iterations")
    return SolveReport(f"{mode}+ddd", status, objective, bound, routes,
                       time.perf_counter() - start, gap=gap, iterations=k,
                       cuts=total_cuts, stats=stats,
                       approximate=master.approximate, history=history)


def _weak_floors(inst, inputs, cache):
    """Valid fragment floors: the minimum duration over all feasible starts
    (durations weakly shrink as the start moves later)."""
    floors = []
    for path, copy in inputs.used_copies:
        fid = copy.frag_id
        if fid not in cache:
            interval = start_interval(inst, path)
            sched = feasible_schedule(inst, path, fixed_start=interval[1])
            cache[fid] = sched.end - interval[1]
        floors.append((path[0], path[-1], cache[fid]))
    return floors
