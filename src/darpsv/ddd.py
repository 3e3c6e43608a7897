"""Dynamic discretization discovery for the time-space formulations.

Each iteration solves the partial-network master (a relaxation, since arc
lengths are rounded down), decomposes its paths, and asks the selection
model whether they admit a continuous schedule with the actual arc lengths.
Z = 0 terminates, and the master's solution is reported like any other
solve (formulations.solve_report): a proven optimum when the master is
optimal, its paths timed by their earliest joint schedule; otherwise the
flagged arcs gain time points and the loop repeats.  The running bound
takes a master's objective only when that master is optimal, and its
best bound otherwise, also when it stopped before its first incumbent, so
a master stopped by the deadline never raises the bound above the
optimum.

The loop drives its master (formulations.TsfragMaster or TsefMaster)
through the master's own steps, selection inputs included; master.exact
says whether a master whose paths schedule is a proven optimum.  TSEF's
ride rows act on discrete stamps only, so its masters can cut feasible
paths and its bound can exceed the optimum: a schedulable result has
status APPROXIMATE, when refinement can no longer lengthen the paths the
solve ends as a RELAXATION with the masters' bound, and an infeasible
master ends it as a RELAXATION with no bound.

Each iteration runs one selection and one refinement, and in the fragment
mode refinement grows the grid whenever Z != 0.  An arc that an optimal
selection flags has a use whose rounding loss is positive: with no loss,
delta = 0 is feasible for it and cheaper.  Refinement inserts that use's
exact time.
For a master arc, refine_grid inserts the departure time plus T; for a
fragment copy, _refine_copy_interiors inserts the copy's schedule,
unrounded end included.  When the selection has no schedule at all,
every arc shortened by more than EPS is flagged.  So the grid can stay
unchanged only at tolerance level: every loss is at most EPS, or an
arrival lands in (l + GRID_TOL, l + EPS], past the window end l that
TimeGrid.insert accepts.  Other fragment floors in the selection would not
reach those cases, so the loop has no second selection; StallError guards
the invariant.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

from . import milp
from .events import enumerate_events
from .formulations import (SelectionInputs, SolveReport, TsefMaster,
                           TsfragMaster, separate_subtours, solve_report)
from .fragments import enumerate_fragments, feasible_schedule
from .instance import EPS, Instance
from .milp import BINARY, CONTINUOUS, GE, LE, MilpModel, Status
from .timespace import TimeGrid

MAX_ITERATIONS = 500  # StallError beyond this many masters


class StallError(RuntimeError):
    """Refinement added no time point while Z > 0 (convergence bug guard)."""


class Iteration(NamedTuple):
    """One DDD iteration, as kept in SolveReport.history."""

    k: int
    bound: float  # best master bound so far
    z: int  # selection value; -1 when no schedule exists at all
    new_points: int  # time points added to the grid
    master_seconds: float  # master solve, subtour separation included
    cuts: int  # subtour cuts added by this master

    def __str__(self):
        return (f"k={self.k} bound={self.bound:.4f} Z={self.z} "
                f"new_points={self.new_points} "
                f"master_seconds={self.master_seconds:.3f}")


@dataclass
class SelectionResult:
    z: int | None  # None when the solve found no schedule
    delta: list  # flagged location arcs
    status: str = Status.OPTIMAL  # of the selection MILP


def selection_model(inst: Instance, inputs: SelectionInputs, deadline=None):
    """Minimal number of arcs that must keep a shortened travel time for the
    given paths to schedule; Z = 0 certifies continuous feasibility.

    Ride limits are part of the system: without them a zero-shortening
    schedule could still stretch a customer's trip beyond R_i, so Z = 0
    would not certify the paths.  A solve that hits the deadline before any
    solution returns status TIME_LIMIT and z None.
    """
    m = MilpModel("selection")
    tau = {}
    arcs = set()
    for path in inputs.location_paths:
        for loc in path:
            if loc not in tau:
                tau[loc] = m.add_var(CONTINUOUS, inst.earliest[loc], inst.latest[loc])
        arcs.update(zip(path, path[1:]))
    arcs = sorted(arcs)
    theta, delta = {}, {}
    T = inst.travel_time
    for (i, j) in arcs:
        theta[i, j] = m.add_var(CONTINUOUS, 0.0)
        delta[i, j] = m.add_var(BINARY, obj=1.0)
        m.add_constr([(theta[i, j], 1.0), (delta[i, j], float(T[i, j]))],
                     GE, float(T[i, j]))
        m.add_constr([(tau[i], 1.0), (theta[i, j], 1.0), (tau[j], -1.0)], LE, 0.0)
        short = inputs.arc_short.get((i, j))
        if short is not None and short > 0:
            m.add_constr([(theta[i, j], 1.0)], GE, float(short))
    for start, end, floor in inputs.fragment_floors:
        m.add_constr([(tau[end], 1.0), (tau[start], -1.0)], GE, float(floor))
    for i in inst.pickups:
        if i in tau and i + inst.n in tau:
            m.add_constr([(tau[i + inst.n], 1.0), (tau[i], -1.0)],
                         LE, float(inst.ride[i]))
    sol = milp.solve(m, deadline)
    if sol.status in (Status.INFEASIBLE, Status.TIME_LIMIT):
        return SelectionResult(None, [], sol.status)
    if not sol.ok:
        raise milp.ConfigurationError(f"selection model: {sol.status}")
    flagged = sorted(a for a in arcs if sol.value(delta[a]) > 0.5)
    return SelectionResult(int(round(sol.objective)), flagged, sol.status)


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
    flagged = sel.delta if sel.z is not None else [
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


def ddd_solve(inst: Instance, mode="tsfrag", time_limit=1800.0,
              initial_delta=50.0, trace=None) -> SolveReport:
    """Run DDD to a continuous-time optimum (tsfrag) or an approximate
    value (tsef, status APPROXIMATE).  time_limit becomes one deadline at
    the call: enumeration and every grid expansion count against it, and
    every master and selection solve stops at it."""
    start = time.perf_counter()
    deadline = None if time_limit is None else start + time_limit
    if mode == "tsfrag":
        frags = enumerate_fragments(inst)
        master, base_stats = TsfragMaster(inst, frags), {"F": len(frags)}
    elif mode == "tsef":
        enet = enumerate_events(inst, timed=True)
        master, base_stats = TsefMaster(inst, enet), enet.stats()
    else:
        raise ValueError(f"DDD is defined for time-space modes, not {mode!r}")
    grid = TimeGrid.fixed(inst, initial_delta)
    history = []
    bound = paths = None
    stats = base_stats
    physical_cuts = []  # persists across iterations, re-instantiated per grid
    total_cuts = 0
    for k in range(1, MAX_ITERATIONS + 1):
        if deadline is not None and time.perf_counter() >= deadline:
            k, sol = k - 1, _stopped(Status.TIME_LIMIT, bound)
            break
        net, model = master.build(grid)
        for phys in physical_cuts:
            model.add_constr(*master.cut(phys))
        master_start = time.perf_counter()
        sol, info, walks, cut_sets = separate_subtours(
            model, master.decompose, master.physical, master.cut, deadline,
            master.more_cuts)
        master_seconds = time.perf_counter() - master_start
        total_cuts += info.num_cuts
        physical_cuts.extend(cut_sets)
        stats = dict(base_stats, **net.stats())
        if sol.status == Status.INFEASIBLE:
            # an infeasible partial network of an exact master is a
            # relaxation, so the instance itself is infeasible; an inexact
            # master's ride rows may have cut every plan, and solve_report
            # makes that a RELAXATION.  No bound either way
            sol = _stopped(sol.status, None)
            break
        if (sol.ok and bound is not None and master.exact
                and sol.objective < bound - 1e-6):
            raise AssertionError(
                f"lower bound regressed: {sol.objective} < {bound} at k={k}")
        # a master stopped before its first incumbent still has a dual bound
        master_bound = (sol.objective if sol.status == Status.OPTIMAL
                        else sol.best_bound)
        if master_bound is not None:
            bound = master_bound if bound is None else max(bound, master_bound)
        if not sol.ok:
            sol = _stopped(sol.status, bound)
            break
        inputs = master.selection_inputs(walks)
        sel = selection_model(inst, inputs, deadline=deadline)
        if sel.status == Status.TIME_LIMIT:
            sol = _stopped(Status.TIME_LIMIT, bound)
            break
        new_points = 0 if sel.z == 0 else _refine(inst, grid, inputs, sel)
        if sel.z != 0 and new_points == 0 and not master.exact:
            # nothing left to lengthen yet no continuous schedule: the
            # discrete ride rows cut the path set (documented inexactness),
            # so the masters' bound is all the solve has
            sol = _stopped(Status.RELAXATION, bound)
            break
        z = -1 if sel.z is None else sel.z
        history.append(Iteration(k, bound, z, new_points, master_seconds,
                                 info.num_cuts))
        if trace is not None:
            trace(str(history[-1]))
        if z == 0:
            paths = inputs.location_paths
            break
        if new_points == 0:
            raise StallError(f"Z={z} with no grid growth at iteration {k}")
    else:
        raise StallError(f"no convergence within {MAX_ITERATIONS} iterations")
    return solve_report(inst, master.method + "+ddd", sol, paths, start,
                        stats, total_cuts, exact=master.exact, iterations=k,
                        history=history)


def _stopped(status, bound):
    """A DDD exit without a schedulable master solution, as a solution
    with only a status and a bound."""
    return milp.MilpSolution(status, None, None, bound, 0.0)

