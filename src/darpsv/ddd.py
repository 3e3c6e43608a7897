"""Dynamic discretization discovery for the time-space formulations.

Each iteration solves the partial-network master (a relaxation, since arc
lengths are rounded down), decomposes its paths, and asks the schedule
oracle (fragments.joint_schedule) whether they admit a continuous
schedule with the actual arc lengths, windows, synchronization and ride
limits.  A schedule (Z = 0) terminates, and the master's solution is
reported like any other solve (formulations.solve_report): a proven
optimum when the master is optimal, its paths timed by their earliest
joint schedule; otherwise the shortened arcs gain time points and the
loop repeats.  The running bound takes a master's objective only when
that master is optimal, and its best bound otherwise, also when it
stopped before its first incumbent, so a master stopped by the deadline
never raises the bound above the optimum.

The loop drives its master (formulations.TsfragMaster or TsefMaster)
through the master's own steps, the shortened arcs included; master.exact
says whether a master whose paths schedule is a proven optimum.  TSEF's
ride rows act on discrete stamps only, so its masters can cut feasible
paths and its bound can exceed the optimum: a schedulable result has
status APPROXIMATE, when refinement can no longer lengthen the paths the
solve ends as a RELAXATION with the masters' bound, and an infeasible
master ends it as a RELAXATION with no bound.

Each iteration runs one selection and one refinement, and in the fragment
mode refinement grows the grid whenever Z != 0.  Paths without a schedule
flag every location arc that a used copy or move shortens by more than
EPS ("too short" arcs, after Boland, Hewitt, Marshall & Savelsbergh,
Operations Research 2017), and Z counts them.  Refinement (refine_grid)
inserts each flagged use's exact time: for a master arc, the departure
time plus T; for a fragment copy that holds a flagged arc, the copy's
schedule from its start, unrounded end included.  A shortened use landed on
the last grid point before its exact arrival, so that arrival is a new
point unless it lies past the window end l that TimeGrid.insert accepts.
So the grid can stay unchanged only at tolerance level: every loss is at
most EPS, or an arrival lands in (l + GRID_TOL, l + EPS].  StallError
guards that invariant.
"""
from __future__ import annotations

import time
from typing import NamedTuple

from .events import enumerate_events
from .formulations import (SolveReport, TsefMaster, TsfragMaster, _stopped,
                           separate_subtours, solve_report)
from .fragments import enumerate_fragments, feasible_schedule, joint_schedule
from .instance import Instance
from .milp import Status
from .timespace import TimeGrid

MAX_ITERATIONS = 500  # StallError beyond this many masters


class StallError(RuntimeError):
    """Refinement added no time point while Z > 0 (convergence bug guard)."""


class Iteration(NamedTuple):
    """One DDD iteration, as kept in SolveReport.history."""

    k: int
    bound: float  # best master bound so far
    z: int  # arcs flagged; 0 when the paths schedule
    new_points: int  # time points added to the grid
    master_seconds: float  # master solve, subtour separation included
    cuts: int  # subtour cuts added by this master

    def __str__(self):
        return (f"k={self.k} bound={self.bound:.4f} Z={self.z} "
                f"new_points={self.new_points} "
                f"master_seconds={self.master_seconds:.3f}")


def selection_model(inst: Instance, paths, arcs):
    """The location arcs to refine, or None when the master's paths have a
    continuous schedule (Z = 0): joint_schedule decides that with the
    actual travel times, windows, synchronization and ride limits.
    Without a schedule, every arc the master shortened (master.shortened,
    in walk order) is flagged."""
    return None if joint_schedule(inst, paths) is not None else arcs


def refine_grid(grid: TimeGrid, arcs, copies, inst: Instance) -> int:
    """Insert t + T_pp' into the head's grid for every tail time point of
    each arc, arc by arc, so a time inserted at an arc's head is a
    departure time of the next arc.  Then insert each copy's earliest
    schedule from its start, given as (path, start_eff): grid times are
    blind to visit times interior to a fragment, so this keeps a copy's
    shortened representation from persisting.  Returns the number of
    new points."""
    added = 0
    for (p, q) in arcs:
        for t in list(grid[p]):
            added += grid.insert(q, t + inst.travel_time[p, q])
    for path, start in copies:
        sched = feasible_schedule(inst, path, fixed_start=start)
        for loc, t in zip(path, sched.times):
            added += grid.insert(loc, t)
    return added


def ddd_solve(inst: Instance, mode="tsfrag", time_limit=1800.0,
              initial_delta=50.0, trace=None) -> SolveReport:
    """Run DDD to a continuous-time optimum (tsfrag) or an approximate
    value (tsef, status APPROXIMATE).  time_limit becomes one deadline at
    the call: enumeration and every grid expansion count against it, and
    every master stops at it."""
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
        arcs, copies = master.shortened(walks)
        location_paths = master.paths(walks)
        flagged = selection_model(inst, location_paths, arcs)
        new_points = (0 if flagged is None
                      else refine_grid(grid, flagged, copies, inst))
        if flagged is not None and new_points == 0 and not master.exact:
            # nothing left to lengthen yet no continuous schedule: the
            # discrete ride rows cut the path set (documented inexactness),
            # so the masters' bound is all the solve has
            sol = _stopped(Status.RELAXATION, bound)
            break
        z = 0 if flagged is None else len(flagged)
        history.append(Iteration(k, bound, z, new_points, master_seconds,
                                 info.num_cuts))
        if trace is not None:
            trace(str(history[-1]))
        if flagged is None:
            paths = location_paths
            break
        if new_points == 0:
            raise StallError(f"Z={z} with no grid growth at iteration {k}")
    else:
        raise StallError(f"no convergence within {MAX_ITERATIONS} iterations")
    return solve_report(inst, master.method + "+ddd", sol, paths, start,
                        stats, total_cuts, exact=master.exact, iterations=k,
                        history=history)

