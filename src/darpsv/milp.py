"""A small MILP store solved with HiGHS through scipy.optimize.milp.

Models are built row by row (MilpModel), solved in one call (solve), and
can be written in LP file syntax (write_lp).  scipy exposes no callbacks,
so lazy constraints are emulated by re-solving with the violated rows
added (resolve_with_cuts).
"""
from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp as highs_milp
from scipy.sparse import csr_matrix

from .instance import EPS

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

LE, GE, EQ = "<=", ">=", "="

MIP_REL_GAP = 1e-9  # every MILP here is solved to proven optimality


class Status:
    OPTIMAL = "optimal"
    FEASIBLE_WITH_GAP = "feasible_with_gap"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time_limit"
    UNBOUNDED = "unbounded"
    RELAXATION = "relaxation"  # fixed-grid optimum whose paths have no schedule


class ConfigurationError(RuntimeError):
    """HiGHS failed in a way no solve status describes."""


@dataclass
class _Var:
    name: str
    kind: str
    lb: float
    ub: float
    obj: float


@dataclass
class _Constr:
    name: str
    coeffs: list  # (var index, coefficient)
    sense: str
    rhs: float


class MilpModel:
    """Minimization model: variables, sparse linear constraints."""

    def __init__(self, name="model"):
        self.name = name
        self.vars = []
        self.constrs = []
        self._names = set()

    def add_var(self, name, kind=CONTINUOUS, lb=0.0, ub=np.inf, obj=0.0) -> int:
        if name in self._names:
            raise ValueError(f"duplicate name {name!r}")
        if kind == BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if lb > ub + EPS:
            raise ValueError(f"variable {name!r} has lb {lb} > ub {ub}")
        self._names.add(name)
        self.vars.append(_Var(name, kind, float(lb), float(ub), float(obj)))
        return len(self.vars) - 1

    def add_constr(self, name, coeffs, sense, rhs) -> int:
        if name in self._names:
            raise ValueError(f"duplicate name {name!r}")
        if sense not in (LE, GE, EQ):
            raise ValueError(f"bad sense {sense!r}")
        for idx, _ in coeffs:
            if not 0 <= idx < len(self.vars):
                raise ValueError(f"constraint {name!r} references unknown var {idx}")
        self._names.add(name)
        self.constrs.append(_Constr(name, list(coeffs), sense, float(rhs)))
        return len(self.constrs) - 1

    @property
    def num_vars(self):
        return len(self.vars)

    @property
    def num_constrs(self):
        return len(self.constrs)


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

def solve(model: MilpModel, time_limit=None) -> MilpSolution:
    """Solve a model with HiGHS."""
    nv = model.num_vars
    if nv == 0:
        return MilpSolution(Status.OPTIMAL, np.zeros(0), 0.0, 0.0, 0.0, 0.0)
    c = np.array([v.obj for v in model.vars])
    integrality = np.array([0 if v.kind == CONTINUOUS else 1 for v in model.vars])
    bounds = Bounds(np.array([v.lb for v in model.vars]),
                    np.array([v.ub for v in model.vars]))
    constraints = []
    if model.constrs:
        rows, cols, data, lo, hi = [], [], [], [], []
        for r, con in enumerate(model.constrs):
            for idx, coef in con.coeffs:
                rows.append(r)
                cols.append(idx)
                data.append(coef)
            lo.append(con.rhs if con.sense in (GE, EQ) else -np.inf)
            hi.append(con.rhs if con.sense in (LE, EQ) else np.inf)
        A = csr_matrix((data, (rows, cols)), shape=(len(model.constrs), nv))
        constraints = [LinearConstraint(A, np.array(lo), np.array(hi))]
    options = {"mip_rel_gap": MIP_REL_GAP, "presolve": True}
    if time_limit is not None:
        options["time_limit"] = max(float(time_limit), 0.05)
    start = time.perf_counter()
    res = highs_milp(c=c, integrality=integrality, bounds=bounds,
                     constraints=constraints, options=options)
    elapsed = time.perf_counter() - start
    bound = getattr(res, "mip_dual_bound", None)
    gap = getattr(res, "mip_gap", None)
    if res.status == 0:
        if bound is None:  # pure LP: the optimum is its own bound
            bound, gap = res.fun, 0.0
        return MilpSolution(Status.OPTIMAL, res.x, float(res.fun), float(bound),
                            elapsed, gap)
    if res.status == 1:
        if res.x is not None:
            return MilpSolution(Status.FEASIBLE_WITH_GAP, res.x, float(res.fun),
                                None if bound is None else float(bound), elapsed, gap)
        return MilpSolution(Status.TIME_LIMIT, None, None,
                            None if bound is None else float(bound), elapsed, None)
    if res.status == 2:
        return MilpSolution(Status.INFEASIBLE, None, None, None, elapsed, None)
    if res.status == 3:
        return MilpSolution(Status.UNBOUNDED, None, None, None, elapsed, None)
    raise ConfigurationError(f"scipy/HiGHS solve failed: {res.message}")


@dataclass
class CutLoop:
    """Bookkeeping of a resolve_with_cuts run."""

    solves: int = 0
    cuts: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def num_cuts(self):
        return len(self.cuts)


def resolve_with_cuts(model: MilpModel, cut_generator, time_limit=None):
    """Iterated solve -> inspect incumbent -> add violated constraints.

    cut_generator(solution) returns a list of (name, coeffs, sense, rhs)
    tuples; an empty list terminates the loop.  Emulates lazy-constraint
    callbacks, which scipy does not expose.
    """
    info = CutLoop()
    start = time.perf_counter()
    prev_bound = -np.inf
    while True:
        remaining = None
        if time_limit is not None:
            remaining = time_limit - (time.perf_counter() - start)
            if remaining <= 0:
                return MilpSolution(Status.TIME_LIMIT, None, None,
                                    prev_bound if np.isfinite(prev_bound) else None,
                                    time.perf_counter() - start), info
        sol = solve(model, time_limit=remaining)
        info.solves += 1
        info.seconds = time.perf_counter() - start
        if not sol.ok:
            return sol, info
        if sol.best_bound is not None:
            # valid cuts never push the relaxation below a previous bound
            prev_bound = max(prev_bound, sol.best_bound)
        cuts = cut_generator(sol)
        if not cuts:
            return sol, info
        for name, coeffs, sense, rhs in cuts:
            model.add_constr(name, coeffs, sense, rhs)
            info.cuts.append(name)


# -- LP-format export --------------------------------------------------------

def _lp_name(raw, used, prefix):
    name = re.sub(r"[^A-Za-z0-9_.]", "_", raw)
    if not name or not (name[0].isalpha() or name[0] == "_"):
        name = prefix + name
    base, k = name, 1
    while name in used:
        name = f"{base}_{k}"
        k += 1
    used.add(name)
    return name


def write_lp(model: MilpModel, path):
    """Write the model in LP file syntax (debugging aid)."""
    used = set()
    vnames = [_lp_name(v.name, used, "x_") for v in model.vars]
    lines = [f"\\ {model.name}", "Minimize", " obj:"]
    terms = [f" {v.obj:+.12g} {vnames[j]}" for j, v in enumerate(model.vars)
             if v.obj]
    lines[-1] += "".join(terms) if terms else " 0 " + (vnames[0] if vnames else "")
    lines.append("Subject To")
    for con in model.constrs:
        cname = _lp_name(con.name, used, "c_")
        body = "".join(f" {coef:+.12g} {vnames[j]}" for j, coef in con.coeffs)
        lines.append(f" {cname}:{body} {con.sense} {con.rhs:.12g}")
    lines.append("Bounds")
    for j, v in enumerate(model.vars):
        lo = f"{v.lb:.12g}" if np.isfinite(v.lb) else "-inf"
        hi = f"{v.ub:.12g}" if np.isfinite(v.ub) else "+inf"
        lines.append(f" {lo} <= {vnames[j]} <= {hi}")
    generals = [vnames[j] for j, v in enumerate(model.vars) if v.kind == INTEGER]
    binaries = [vnames[j] for j, v in enumerate(model.vars) if v.kind == BINARY]
    if generals:
        lines.append("General")
        lines.append(" " + " ".join(generals))
    if binaries:
        lines.append("Binary")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
