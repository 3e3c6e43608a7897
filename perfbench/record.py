"""Record the reference outcome of every (workload, instance seed, method).

    python3 perfbench/record.py            # rewrites perfbench/reference.json

Each instance is solved in its recipe numbering, without the run seed's
relabelling.  A reference is written only if the validator accepts the
routes and, where a workload runs several methods, they agree.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from darpsv.validate import check  # noqa: E402

import suites  # noqa: E402
from run import OBJ_TOL, solve  # noqa: E402


def record():
    out = {}
    for name, workload in suites.WORKLOADS.items():
        refs = out[name] = {}
        for iseed in workload.instance_seeds:
            inst = suites.build_instance(workload, iseed)
            objectives = []
            for method in workload.methods:
                report = solve(method, inst)
                if report.routes is not None and check(inst, report.routes):
                    raise SystemExit(f"{name} {iseed}/{method}: routes rejected")
                refs[f"{iseed}/{method}"] = {"status": report.status,
                                             "objective": report.objective}
                objectives.append(report.objective)
                print(name, iseed, method, report.status, report.objective,
                      f"{report.seconds:.2f}s", flush=True)
            if None not in objectives and max(objectives) - min(objectives) > OBJ_TOL:
                raise SystemExit(f"{name} {iseed}: methods disagree {objectives}")
    with open(HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    record()
