"""Run TSFrag+DDD on the size ladder of ROADMAP.md and print one line a rung.

Each rung is a benchmark workload of perfbench/suites.py at a larger size:
build_instance(dataclasses.replace(WORKLOADS[w], n=N, vehicles=V), seed).
Per rung it prints the solve's wall seconds, the seconds spent in HiGHS
runs, the DDD iterations, the objective and the verdict of an independent
check() of the routes ("ok", or the number of violations).  The ladder is
a record of how the solver scales, not a gate: its times are single runs.

    python3 tools/ladder.py [RUNG ...]

RUNG names pick rungs (default: all six).  Each solve has TIME_LIMIT
seconds; all six take 17-25 s on a 2-vCPU VM.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from darpsv import milp  # noqa: E402
from darpsv.ddd import ddd_solve  # noqa: E402
from darpsv.validate import check  # noqa: E402
from suites import WORKLOADS, build_instance  # noqa: E402

TIME_LIMIT = 150.0  # seconds a rung's solve may take


class Rung(NamedTuple):
    workload: str
    n: int
    vehicles: int
    seed: int

    @property
    def name(self):
        return f"{self.workload.split('-')[0]}-n{self.n}-v{self.vehicles}-s{self.seed}"


RUNGS = (Rung("darp-n24-q6-ddd", 32, 3, 0), Rung("darp-n24-q6-ddd", 32, 3, 2),
         Rung("darp-n24-q6-ddd", 40, 4, 0), Rung("sync-n24-q3", 48, 6, 0),
         Rung("darp-n24-q6-ddd", 48, 5, 0), Rung("sync-n24-q3", 24, 3, 2))


def rung_instance(rung):
    workload = dataclasses.replace(WORKLOADS[rung.workload], n=rung.n,
                                   vehicles=rung.vehicles)
    return build_instance(workload, rung.seed)


def solve_rung(rung):
    """{seconds, highs_s, iterations, objective, verdict} of one TSFrag+DDD
    solve of the rung's instance."""
    inst = rung_instance(rung)
    highs_s = 0.0
    run_highs = milp._run_highs

    def timed(*args):
        nonlocal highs_s
        start = time.perf_counter()
        try:
            return run_highs(*args)
        finally:
            highs_s += time.perf_counter() - start

    milp._run_highs = timed
    try:
        report = ddd_solve(inst, "tsfrag", TIME_LIMIT)
    finally:
        milp._run_highs = run_highs
    if report.routes is None:
        verdict = "no routes"
    else:
        violations = check(inst, report.routes)
        verdict = f"{len(violations)} violations" if violations else "ok"
    return {"seconds": report.seconds, "highs_s": highs_s,
            "iterations": report.iterations, "objective": report.objective,
            "status": report.status, "verdict": verdict}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [rung.name for rung in RUNGS]
    ap.add_argument("rungs", nargs="*", metavar="RUNG",
                    help=f"rungs to run, of {', '.join(names)}")
    args = ap.parse_args(argv)
    unknown = sorted(set(args.rungs) - set(names))
    if unknown:
        ap.error(f"no rung {', '.join(unknown)}; rungs: {', '.join(names)}")
    total = 0.0
    for rung in RUNGS:
        if args.rungs and rung.name not in args.rungs:
            continue
        r = solve_rung(rung)
        total += r["seconds"]
        objective = "-" if r["objective"] is None else f"{r['objective']:.6f}"
        print(f"{rung.name:<16} {r['seconds']:7.2f} s  highs {r['highs_s']:6.2f} s"
              f"  {r['iterations']:3d} iterations  {objective:>12}"
              f"  {r['status']}  check {r['verdict']}", flush=True)
    print(f"{'total':<16} {total:7.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
