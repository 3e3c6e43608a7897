"""Fingerprint every solver outcome on a fixed set of instances.

Solves the 8 benchmark instances of perfbench/suites.py with their
workloads' methods, and 40 seeded random draws with every method in
darpsv.METHODS: the fixed-grid methods at grids of 5 and 10 min, DDD from
a 10-min grid, and no tsfrag+c on a draw with large customers.  For each
method it prints the number of reports and two SHA-256 digests: one over
the HighsLp arrays of every model the method handed to HiGHS, one over its
reports (SolveReport.to_dict() without seconds, and the DDD history
without master_seconds).  Two trees that print the same line for a method
build the same models for it and report the same outcomes.

    python3 tools/fingerprint.py [--reports FILE]

--reports also writes one JSON line per report, with its case and method,
for comparing two trees report by report.  One pass takes about 15 s on
a 2-vCPU VM.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from darpsv import METHODS, run_method  # noqa: E402
from darpsv.instance import random_instance, tighten_windows  # noqa: E402
from darpsv.milp import MilpModel  # noqa: E402
from suites import WORKLOADS, build_instance  # noqa: E402

DRAWS = range(40)
GRIDS = (5.0, 10.0)  # minutes, for tsef, tsfrag and tsfrag+c
INITIAL_DELTA = 10.0  # minutes, for tsef+ddd and tsfrag+ddd on the draws
FIXED_GRID = ("tsef", "tsfrag", "tsfrag+c")


def draw(seed):
    """The seed-th random draw: 5 customers, 3 vehicles, capacity 2 or 3,
    large customers possible in every other pair of seeds."""
    return tighten_windows(random_instance(
        seed, n=5, vehicles=3, capacity=2 + seed % 2,
        large_share=0.0 if seed % 4 < 2 else 0.3))


def bench_cases():
    """(case, instance, method, run_method keywords) of the bench solves."""
    for workload in WORKLOADS.values():
        for seed in workload.instance_seeds:
            inst = build_instance(workload, seed)
            for method in workload.methods:
                yield f"{workload.name}/{seed}", inst, method, {}


def draw_cases(seeds=DRAWS):
    """(case, instance, method, run_method keywords) of the draw solves."""
    for seed in seeds:
        inst = draw(seed)
        for method in METHODS:
            if method == "tsfrag+c" and inst.large_pickups:
                continue
            if method in FIXED_GRID:
                for delta in GRIDS:
                    yield (f"draw{seed}/{delta:g}", inst, method,
                           {"resolution": delta})
            else:
                yield (f"draw{seed}", inst, method,
                       {"initial_delta": INITIAL_DELTA})


def _lp_arrays(lp):
    m = lp.a_matrix_
    return (lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_,
            lp.row_upper_, m.start_, m.index_, m.value_,
            [int(kind) for kind in lp.integrality_])


def report_record(report):
    """The fingerprinted part of a report: everything but its times."""
    record = report.to_dict()
    del record["seconds"]
    record["history"] = [{k: v for k, v in it._asdict().items()
                          if k != "master_seconds"} for it in report.history]
    return record


def fingerprint(cases, reports=None):
    """{method: (reports, HighsLp digest, report digest)} over cases, in
    METHODS order; each record goes to reports (a list) when given."""
    digests = {}  # method -> [count, lp hash, report hash]
    current = None
    to_highs = MilpModel.to_highs

    def hashed_to_highs(model):
        lp = to_highs(model)
        for array in _lp_arrays(lp):
            array = np.asarray(array)
            current[1].update(f"{array.dtype}:{array.size}:".encode())
            current[1].update(array.tobytes())
        return lp

    MilpModel.to_highs = hashed_to_highs
    try:
        for case, inst, method, kw in cases:
            current = digests.setdefault(
                method, [0, hashlib.sha256(), hashlib.sha256()])
            record = report_record(run_method(inst, method, **kw))
            current[0] += 1
            current[2].update(json.dumps(record, sort_keys=True).encode())
            if reports is not None:
                reports.append({"case": case, "method": method,
                                "report": record})
    finally:
        MilpModel.to_highs = to_highs
    return {m: (digests[m][0], digests[m][1].hexdigest(),
                digests[m][2].hexdigest()) for m in METHODS if m in digests}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reports", help="write one JSON line per report here")
    args = ap.parse_args(argv)
    records = [] if args.reports else None
    cases = [*bench_cases(), *draw_cases()]
    result = fingerprint(cases, records)
    for method, (count, lp, rep) in result.items():
        print(f"{method:<10} {count:3d} lp {lp} reports {rep}")
    print(f"{'total':<10} {sum(c for c, _, _ in result.values()):3d}")
    if args.reports:
        with open(args.reports, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
