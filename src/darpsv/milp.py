"""A small MILP store solved by the HiGHS core that SciPy bundles.

Models are built row by row (MilpModel) into flat column lists and COO
row triples.  solve() converts them once, into a HighsLp with a colwise
matrix built in numpy, and runs one session of the core's _Highs on it
with _HIGHS_OPTIONS, where HiGHS's Feasibility Jump heuristic is off.  Its
start-up costs time on every MIP that presolve does not empty, while the
DDD masters here close at the root node: the 34 master solves of
TSFrag+DDD on the benchmark's seven DDD instances took 0.78-0.85 s in
HiGHS with it and 0.42-0.43 s without (median 15-19 ms and 8 ms a call,
two runs each on a 2-vCPU VM), with the same statuses, objectives and
iteration counts.
A model whose columns are all binary (every TSFrag and TSEF model of an
instance without large customers, DDD masters included) also gets
PROBING_OFF: its MIP presolve skips probing, which was most of such a
master's HiGHS time and changed the presolved model by at most one row
and column.  The last master of the benchmark's darp-n24-q6-ddd
instance seed 5 (876 binaries, 327 rows) presolved to 683 x 172 either
way, in 29 ms with probing and 6 ms without, and the whole run took 69
and 39 ms; over that workload's 9 masters the summed medians went from
279 to 163 ms (5 runs each, HiGHS 1.12.0, 2-vCPU VM).  Other models keep
HiGHS's default.  EBF and ABF link continuous times to binaries by big-M
rows, and there probing pays: the EBF model of sync-n24-q3 instance
seed 5 took 56 ms with it and 191 ms without.  A large customer's
synchronized flows are integers up to 2, and with probing off on those
masters too the benchmark's sync-n24-q3 solve_s_max rose from 0.080 to
0.102 s (medians of 10 runs).
_STATUS maps HiGHS's model status to a Status; a status it lacks is a
ConfigurationError, and a MIP stopped at a limit with an incumbent is
FEASIBLE_WITH_GAP.  add_var rejects a non-finite column bound, so no
model is unbounded: the "unbounded or infeasible" of HiGHS's MIP presolve
reads as infeasible, and each solve is one HiGHS session.  HiGHS answers
kModelEmpty for any model with no columns, so solve() decides one
itself: infeasible when some row's bounds exclude 0.  Only solve() reads
the clock here: a call at or past its deadline returns TIME_LIMIT at once.
The core is SciPy's extension module scipy.optimize._highspy._core,
loaded from its file by path: darpsv never imports scipy.optimize, whose
package import (with scipy.sparse and scipy.linalg) costs more than most
solves here.
A model holds only what HiGHS reads, with no name; its columns and rows
are known by index.  Lazy constraints are emulated by re-solving with the
violated rows added (resolve_with_cuts); a cut is a (coeffs, sense, rhs)
tuple, add_constr's arguments.
"""
from __future__ import annotations

import os
import re
import sys
import time
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from math import inf

import numpy as np
import scipy

from .instance import EPS

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

LE, GE, EQ = "<=", ">=", "="

MIP_REL_GAP = 1e-9  # every MILP here is solved to proven optimality

# every session's options but time_limit
_HIGHS_OPTIONS = {"log_to_console": False,
                  "presolve": "on",
                  "mip_rel_gap": MIP_REL_GAP,
                  "mip_heuristic_run_feasibility_jump": False}
# presolve_rule_off bit 15: HiGHS's "Probing" presolve rule (the 16th name
# of the rule table in HiGHS 1.12.0), set for models whose columns are all
# binary
PROBING_OFF = 1 << 15


class Status:
    OPTIMAL = "optimal"
    FEASIBLE_WITH_GAP = "feasible_with_gap"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time_limit"
    RELAXATION = "relaxation"  # a relaxation's paths with no checked schedule
    APPROXIMATE = "approximate"  # checked routes of an inexact formulation


class ConfigurationError(RuntimeError):
    """HiGHS failed in a way no solve status describes."""


_CORE = "scipy.optimize._highspy._core"


def _load_core():
    """SciPy's HiGHS extension (private API, present from SciPy 1.17 on),
    loaded from its file without running scipy/optimize/__init__.py.

    It is loaded under its own name: a later `import scipy.optimize` then
    gets the same module object from CPython's extension cache, where any
    other name would register its pybind11 types twice.  An entry already
    in sys.modules (scipy.optimize imported first) is used as it is."""
    if _CORE in sys.modules:
        core = sys.modules[_CORE]
        if core is None:
            raise ImportError(f"import of {_CORE} halted; None in sys.modules")
        return core
    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            loader = ExtensionFileLoader(_CORE, path)
            core = module_from_spec(spec_from_file_location(_CORE, path, loader=loader))
            loader.exec_module(core)
            return core
    raise ImportError(f"no _core extension module in {folder}")


try:
    highs_core = _load_core()
except ImportError as exc:
    raise ConfigurationError(
        f"darpsv needs the HiGHS core bundled with SciPy >= 1.17; "
        f"SciPy {scipy.__version__} is installed ({exc})") from exc

_VAR_TYPE = {CONTINUOUS: highs_core.HighsVarType.kContinuous,
             INTEGER: highs_core.HighsVarType.kInteger,
             BINARY: highs_core.HighsVarType.kInteger}
_MS = highs_core.HighsModelStatus
# the HiGHS model statuses a solve reports; _run_highs answers kModelError
# when HiGHS does not accept the model
_STATUS = {_MS.kOptimal: Status.OPTIMAL,
           _MS.kTimeLimit: Status.TIME_LIMIT,
           _MS.kIterationLimit: Status.TIME_LIMIT,
           _MS.kInfeasible: Status.INFEASIBLE,
           # finite column bounds leave no ray, so the model is infeasible
           _MS.kUnboundedOrInfeasible: Status.INFEASIBLE,
           _MS.kModelError: Status.INFEASIBLE}


class MilpModel:
    """Minimization model: columns as flat lists, rows as COO triples
    (row, col, val) plus per-row bounds lo <= a.x <= hi: only what
    to_highs passes to HiGHS.  add_var and add_constr return the new
    column's or row's index; every column's bounds are finite."""

    def __init__(self):
        self.col_obj, self.col_lb, self.col_ub, self.col_kind = [], [], [], []
        self.row_lower, self.row_upper = [], []
        self.coo_row, self.coo_col, self.coo_val = [], [], []

    def add_var(self, kind=CONTINUOUS, lb=0.0, ub=np.inf, obj=0.0) -> int:
        if kind not in _VAR_TYPE:
            raise ValueError(f"bad kind {kind!r}")
        if kind == BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        j = len(self.col_obj)
        if not -inf < lb <= ub + EPS < inf:  # NaN fails too
            raise ValueError(f"variable {j} has lb {lb}, ub {ub}: bounds "
                             f"must be finite, with lb <= ub")
        self.col_obj.append(float(obj))
        self.col_lb.append(float(lb))
        self.col_ub.append(float(ub))
        self.col_kind.append(kind)
        return j

    def add_constr(self, coeffs, sense, rhs) -> int:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"bad sense {sense!r}")
        nv, r = len(self.col_obj), len(self.row_lower)
        for idx, _ in coeffs:
            if not 0 <= idx < nv:
                raise ValueError(f"constraint {r} references unknown var {idx}")
        rhs = float(rhs)
        self.row_lower.append(rhs if sense != LE else -np.inf)
        self.row_upper.append(rhs if sense != GE else np.inf)
        self.coo_row.extend([r] * len(coeffs))
        self.coo_col.extend(idx for idx, _ in coeffs)
        self.coo_val.extend(coef for _, coef in coeffs)
        return r

    @property
    def num_vars(self):
        return len(self.col_obj)

    @property
    def num_constrs(self):
        return len(self.row_lower)

    def to_highs(self):
        """The model as a HighsLp: columns in order, rows in order, and a
        colwise matrix with duplicate entries summed and row indices
        sorted, the arrays scipy.optimize.milp passes for the same rows."""
        nv, nr = self.num_vars, self.num_constrs
        rows = np.array(self.coo_row, dtype=np.int32)
        cols = np.array(self.coo_col, dtype=np.int32)
        vals = np.array(self.coo_val, dtype=np.float64)
        order = np.lexsort((rows, cols))  # stable: duplicates keep their order
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.ones(len(rows), dtype=bool)  # first entry of its cell
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        # duplicates are added one at a time, in the order they were given,
        # as scipy's coo -> csc conversion does when each column's rows come
        # in order, as add_constr's do; np.add.reduceat adds a run's later
        # entries together first, which can differ in the last bit
        value = vals[first]
        np.add.at(value, np.cumsum(first)[~first] - 1, vals[~first])
        start = np.zeros(nv + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols[first], minlength=nv), out=start[1:])
        lp = highs_core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = nv
        lp.num_row_ = lp.a_matrix_.num_row_ = nr
        lp.a_matrix_.format_ = highs_core.MatrixFormat.kColwise
        lp.col_cost_ = np.array(self.col_obj)
        lp.col_lower_ = np.array(self.col_lb)
        lp.col_upper_ = np.array(self.col_ub)
        lp.row_lower_ = np.array(self.row_lower)
        lp.row_upper_ = np.array(self.row_upper)
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = rows[first]
        lp.a_matrix_.value_ = value
        lp.integrality_ = [_VAR_TYPE[kind] for kind in self.col_kind]
        return lp


@dataclass
class MilpSolution:
    status: str
    values: np.ndarray | None
    objective: float | None
    best_bound: float | None
    solve_seconds: float
    gap: float | None = None

    @property
    def ok(self):
        return self.status in (Status.OPTIMAL, Status.FEASIBLE_WITH_GAP)

    def value(self, idx):
        return float(self.values[idx])


# -- solving -----------------------------------------------------------------

def _session(time_limit, model):
    """A HiGHS session for model with _HIGHS_OPTIONS and time_limit seconds
    (None: no limit); when every column of model is binary, presolve also
    skips probing (PROBING_OFF).  Raises ConfigurationError naming an
    option HiGHS does not accept: HiGHS itself only logs it and goes on
    without it."""
    highs = highs_core._Highs()
    options = dict(_HIGHS_OPTIONS)
    if time_limit is not None:
        options["time_limit"] = time_limit
    if (CONTINUOUS not in model.col_kind and min(model.col_lb) >= 0
            and max(model.col_ub) <= 1):
        options["presolve_rule_off"] = PROBING_OFF
    for name, value in options.items():
        if highs.setOptionValue(name, value) != highs_core.HighsStatus.kOk:
            raise ConfigurationError(f"HiGHS rejected option {name} = {value!r}")
    return highs


def _run_highs(lp, time_limit, model):
    """One HiGHS session on lp, the HighsLp of model (_session's options and
    time limit).  Returns the model status, the info record and the column
    values; both are None when HiGHS failed before it finished, and the
    values are None too unless _STATUS reads the status as optimal or a
    limit."""
    highs = _session(time_limit, model)
    if highs.passModel(lp) == highs_core.HighsStatus.kError:
        return _MS.kModelError, None, None
    if highs.run() == highs_core.HighsStatus.kError:
        return highs.getModelStatus(), None, None
    status = highs.getModelStatus()
    x = None
    if _STATUS.get(status) in (Status.OPTIMAL, Status.TIME_LIMIT):
        x = np.array(highs.getSolution().col_value)
    return status, highs.getInfo(), x


def _time_left(deadline):
    """HiGHS's time limit for a call made now: what is left until the
    time.perf_counter() deadline, at least 0.05 s; 0 at or past the
    deadline, where no call is made (None: no limit)."""
    if deadline is None:
        return None
    left = deadline - time.perf_counter()
    return 0 if left <= 0 else max(left, 0.05)


def _without_columns(model):
    """The solution of a model with no columns, where every row reads 0."""
    if any(lo > 0 or hi < 0 for lo, hi in zip(model.row_lower, model.row_upper)):
        return MilpSolution(Status.INFEASIBLE, None, None, None, 0.0, None)
    return MilpSolution(Status.OPTIMAL, np.zeros(0), 0.0, 0.0, 0.0, 0.0)


def solve(model: MilpModel, deadline=None) -> MilpSolution:
    """Solve a model with HiGHS, stopping it at the time.perf_counter()
    deadline (None: no limit)."""
    if model.num_vars == 0:
        return _without_columns(model)
    lp = model.to_highs()
    time_limit = _time_left(deadline)
    start = time.perf_counter()
    # a call at or past its deadline starts no HiGHS session
    status, info, x = ((_MS.kTimeLimit, None, None) if time_limit == 0
                       else _run_highs(lp, time_limit, model))
    elapsed = time.perf_counter() - start
    mip = INTEGER in model.col_kind or BINARY in model.col_kind
    return _solution(status, info, x, mip, elapsed)


def _solution(status, info, x, mip, elapsed) -> MilpSolution:
    """The MilpSolution of a HiGHS outcome (_run_highs's status, info and x)
    of a MIP or, if not mip, a pure LP, that took elapsed seconds."""
    outcome = _STATUS.get(status)
    if outcome == Status.OPTIMAL:
        fun = info.objective_function_value
        if mip:
            bound, gap = info.mip_dual_bound, info.mip_gap
        else:  # pure LP: the optimum is its own bound
            bound, gap = fun, 0.0
        return MilpSolution(Status.OPTIMAL, x, float(fun), float(bound), elapsed, gap)
    if outcome == Status.TIME_LIMIT:
        if mip and x is not None and (
                info.objective_function_value != highs_core.kHighsInf):
            # a MIP at a limit keeps its incumbent
            return MilpSolution(Status.FEASIBLE_WITH_GAP, x,
                                float(info.objective_function_value),
                                float(info.mip_dual_bound), elapsed, info.mip_gap)
        # a MIP stopped before its first incumbent still has a dual bound
        bound = info.mip_dual_bound if mip and info is not None else np.nan
        return MilpSolution(Status.TIME_LIMIT, None, None,
                            float(bound) if np.isfinite(bound) else None,
                            elapsed, None)
    if outcome is not None:
        return MilpSolution(outcome, None, None, None, elapsed, None)
    words = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", status.name[1:]).lower()
    raise ConfigurationError(f"HiGHS solve failed: {words} "
                             f"(HiGHS status {int(status)}: {status.name})")


@dataclass
class CutLoop:
    """Bookkeeping of a resolve_with_cuts run."""

    num_cuts: int = 0


def resolve_with_cuts(model: MilpModel, cut_generator, deadline=None):
    """Iterated solve -> inspect incumbent -> add violated constraints.

    cut_generator(solution) returns a list of (coeffs, sense, rhs) cuts,
    add_constr's arguments; an empty list terminates the loop.  Emulates
    lazy-constraint callbacks, which scipy does not expose.  At the deadline
    solve() stops, and the loop returns TIME_LIMIT with the best bound so far.
    """
    info = CutLoop()
    prev_bound = -np.inf
    while True:
        sol = solve(model, deadline)
        if sol.best_bound is not None:
            # valid cuts never push the relaxation below a previous bound
            prev_bound = max(prev_bound, sol.best_bound)
        if sol.status == Status.TIME_LIMIT:
            sol.best_bound = prev_bound if np.isfinite(prev_bound) else None
        if not sol.ok:
            return sol, info
        cuts = cut_generator(sol)
        if not cuts:
            return sol, info
        for cut in cuts:
            model.add_constr(*cut)
        info.num_cuts += len(cuts)

