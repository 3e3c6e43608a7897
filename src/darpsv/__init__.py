"""darpsv: exact MILP solvers for dial-a-ride problems with synchronized
visits, classical DARP and PDPTW.

Four formulations (arc-, event-, time-space event- and time-space
fragment-based) over shared network builders, a dynamic discretization
discovery loop that refines coarse time grids to continuous-time optima,
and an independent validator/brute-force oracle.
"""

from .ddd import ddd_solve, refine_grid, selection_model
from .events import Event, EventArc, EventNetwork, enumerate_events
from .formulations import (MethodError, SolveReport, build_abf, build_ebf, build_tsef,
                           build_tsfrag, solve_abf, solve_ebf, solve_tsef,
                           solve_tsfrag)
from .fragments import (Fragment, FragmentSet, enumerate_fragments,
                        feasible_schedule, joint_schedule, start_interval)
from .instance import (DatasetParams, Instance, InstanceError,
                       InfeasibleCustomerError, build_dataset1,
                       build_dataset2, designate_large, from_json,
                       load_instance, parse_cordeau, random_instance,
                       tighten_windows, to_json)
from .milp import MilpModel, MilpSolution, Status, resolve_with_cuts, solve
from .timespace import TimeGrid, expand_events, expand_fragments
from .validate import (Route, RouteSet, Violation, brute_optimum, check,
                       timed_routes)

__version__ = "0.1.0"

METHODS = ("ebf", "abf", "tsef", "tsfrag", "tsef+ddd", "tsfrag+ddd", "tsfrag+c")


def run_method(inst: Instance, method: str, resolution=1.0, time_limit=1800.0,
               initial_delta=50.0, trace=None) -> SolveReport:
    """Dispatch one solve; `method` is one of METHODS."""
    if method == "ebf":
        return solve_ebf(inst, time_limit)
    if method == "abf":
        return solve_abf(inst, time_limit)
    if method == "tsef":
        return solve_tsef(inst, resolution, time_limit)
    if method in ("tsfrag", "tsfrag+c"):
        return solve_tsfrag(inst, resolution, time_limit,
                            callbacks=method == "tsfrag+c")
    if method in ("tsef+ddd", "tsfrag+ddd"):
        return ddd_solve(inst, method.split("+")[0], time_limit,
                         initial_delta=initial_delta, trace=trace)
    raise ValueError(f"unknown method {method!r}")


__all__ = [name for name in dir() if not name.startswith("_")]
