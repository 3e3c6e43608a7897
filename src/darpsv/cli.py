"""Command-line front end: solve, dataset generation, benchmark harness,
solution validation and network dumps.

Exit codes: 0 success, 1 infeasible, 2 usage error, 3 time limit.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from . import METHODS, run_method
from . import instance as inst_mod
from .events import dump_events, enumerate_events
from .formulations import MethodError, SolveReport
from .fragments import dump_fragments, enumerate_fragments
from .instance import DatasetParams, Instance, load_instance, tighten_windows
from .milp import Status
from .timespace import GridBudgetError
from .validate import RouteSet, check

EXIT_OK, EXIT_INFEASIBLE, EXIT_USAGE, EXIT_TIME = 0, 1, 2, 3

BENCH_COLUMNS = ["instance", "r_l", "p_tw", "p_de", "fleet_multiplier", "method",
                 "V_E", "A_E", "F", "time_s", "obj", "lb", "gap", "iter", "nc"]


def prepare_instance(path, set1=False, r_l=1.0 / 3.0, fleet_mult=3,
                     tighten=True) -> Instance:
    inst = load_instance(path)
    if set1:
        inst = inst_mod.build_dataset1(inst, r_l=r_l, fleet_multiplier=fleet_mult)
    if tighten:
        inst = tighten_windows(inst)
    return inst


def _report_exit(report: SolveReport) -> int:
    if report.status == Status.INFEASIBLE:
        return EXIT_INFEASIBLE
    if report.status == Status.TIME_LIMIT:
        return EXIT_TIME
    return EXIT_OK


def cmd_solve(args) -> int:
    method = args.formulation + "+ddd" * args.ddd + "+c" * args.callbacks
    if method not in METHODS:
        print(f"no method {method!r}: --ddd takes tsef or tsfrag, "
              f"--callbacks takes tsfrag without --ddd", file=sys.stderr)
        return EXIT_USAGE
    inst = prepare_instance(args.instance, args.set1, args.r_l,
                            args.fleet_mult)
    report = run_method(inst, method, resolution=args.resolution,
                        time_limit=args.time_limit,
                        initial_delta=args.initial_delta,
                        trace=lambda line: print(line, file=sys.stderr))
    payload = report.to_dict()
    payload["instance"] = inst.name
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
    if report.objective is not None:
        print(f"{inst.name} {method} objective {report.objective:.2f} "
              f"({report.status})")
    else:
        print(f"{inst.name} {method} {report.status}")
    return _report_exit(report)


def _positive_float(text):
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive number: {text}")
    return value


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _list_of(element):
    """An argparse type: comma-separated values, each read by element."""
    def parse(text):
        return [element(x) for x in text.split(",")]
    parse.__name__ = "comma-separated list"
    return parse


def cmd_gen_dataset(args) -> int:
    import itertools
    import os

    built = []  # every instance is built before anything is written
    for path in args.instances:
        base = tighten_windows(load_instance(path))
        grid = itertools.product(args.r_l, args.p_tw, args.p_de,
                                 args.fleet_mult)
        for r_l, p_tw, p_de, mult in grid:
            params = DatasetParams(r_l=r_l, p_tw=p_tw, p_de=p_de,
                                   fleet_multiplier=mult, variant=args.variant,
                                   unchecked=args.unchecked)
            name = (f"{base.name}_RL{r_l:g}_TW{p_tw:g}_DE{p_de:g}"
                    f"_V{mult}_{args.variant}")
            built.append(inst_mod.build_dataset2(base, params).replace(
                name=name, meta={"r_l": r_l, "p_tw": p_tw, "p_de": p_de,
                                 "fleet_multiplier": mult,
                                 "variant": args.variant, "source": base.name}))
    os.makedirs(args.out_dir, exist_ok=True)
    for inst in built:
        out_path = os.path.join(args.out_dir, inst.name + ".json")
        with open(out_path, "w") as fh:
            fh.write(inst_mod.to_json(inst))
        print(out_path)
    return EXIT_OK


def bench_one(task):
    """One bench row; module-level so --parallel can pickle it."""
    path, method, resolution, time_limit, set1 = task
    inst = prepare_instance(path, set1=set1)
    report = run_method(inst, method, resolution=resolution,
                        time_limit=time_limit)
    row = {c: "" for c in BENCH_COLUMNS}
    row.update({k: v for k, v in inst.meta.items() if k in BENCH_COLUMNS})
    row.update({k: report.stats.get(k, "") for k in ("V_E", "A_E", "F")})
    row.update(instance=inst.name, method=method,
               time_s=f"{report.seconds:.2f}")
    if report.objective is not None:
        row["obj"] = f"{report.objective:.2f}"
    if report.bound is not None:
        row["lb"] = f"{report.bound:.2f}"
    if report.objective and report.bound is not None:
        row["gap"] = f"{max(0.0, (report.objective - report.bound) / report.objective):.4f}"
    row["iter"] = "" if report.iterations is None else report.iterations
    row["nc"] = report.cuts
    return row


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            print(f"unknown method {m!r}; choices: {', '.join(METHODS)}",
                  file=sys.stderr)
            return EXIT_USAGE
    tasks = [(path, m, args.resolution, args.time_limit, args.set1)
             for path in args.instances for m in methods]
    if args.parallel > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            rows = list(pool.map(bench_one, tasks))
    else:
        rows = [bench_one(t) for t in tasks]
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.DictWriter(out, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    if args.out:
        out.close()
    if args.json:
        json_path = (args.out or "bench") + ".jsonl"
        with open(json_path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    inst = prepare_instance(args.instance, args.set1, args.r_l, args.fleet_mult,
                            tighten=False)
    try:
        with open(args.solution) as fh:
            payload = json.load(fh)
        if payload.get("objective") is None:
            print("solution has no objective (nothing to validate)",
                  file=sys.stderr)
            return EXIT_INFEASIBLE
        rs = RouteSet.from_dict(payload)
        outside = [loc for route in rs.routes for loc in route.path
                   if not inst.origin <= loc <= inst.destination]
        if outside:
            raise ValueError(f"stop at location {outside[0]}, outside "
                             f"{inst.origin}..{inst.destination}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed solution file: {exc!r}", file=sys.stderr)
        return EXIT_USAGE
    violations = check(inst, rs)
    for v in violations:
        print(v)
    print(f"{len(violations)} violation(s)")
    return EXIT_OK if not violations else EXIT_INFEASIBLE


def cmd_inst_dump(args) -> int:
    inst = prepare_instance(args.instance, args.set1, args.r_l, args.fleet_mult,
                            tighten=args.tighten)
    print(inst_mod.to_json(inst))
    return EXIT_OK


def cmd_net_dump(args) -> int:
    inst = prepare_instance(args.instance, args.set1, args.r_l, args.fleet_mult)
    if args.what == "dump-events":
        sys.stdout.write(dump_events(enumerate_events(inst)))
    else:
        sys.stdout.write(dump_fragments(enumerate_fragments(inst)))
    return EXIT_OK


def _add_transform_flags(p):
    p.add_argument("--set1", action="store_true",
                   help="apply the first-dataset transform (large customers, "
                        "scaled fleet)")
    p.add_argument("--r-l", type=float, default=1.0 / 3.0,
                   help="large-customer fraction for --set1")
    p.add_argument("--fleet-mult", type=_positive_int, default=3,
                   help="fleet multiplier for --set1")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="darpsv",
        description="Exact solvers for dial-a-ride problems with synchronized "
                    "visits (four MILP formulations, DDD refinement)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("instance")
    p.add_argument("--formulation", choices=("abf", "ebf", "tsef", "tsfrag"),
                   default="ebf")
    p.add_argument("--ddd", action="store_true",
                   help="dynamic discretization discovery (time-space modes)")
    p.add_argument("--resolution", type=_positive_float, default=1.0,
                   help="fixed grid step in minutes for tsef/tsfrag")
    p.add_argument("--callbacks", action="store_true",
                   help="TSFrag+C: infeasible-path cuts instead of DDD")
    p.add_argument("--time-limit", type=_positive_float, default=1800.0)
    p.add_argument("--initial-delta", type=_positive_float, default=50.0,
                   help="initial DDD grid step in minutes")
    p.add_argument("--out", help="write the solution JSON here")
    _add_transform_flags(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("gen-dataset", help="emit second-dataset instances")
    p.add_argument("instances", nargs="+")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--r-l", type=_list_of(float), default="0.3333333333333333")
    p.add_argument("--p-tw", type=_list_of(float), default="15")
    p.add_argument("--p-de", type=_list_of(float), default="1.5")
    p.add_argument("--fleet-mult", type=_list_of(_positive_int), default="4")
    p.add_argument("--variant", default="darpsv-set2",
                   choices=inst_mod.VARIANTS)
    p.add_argument("--unchecked", action="store_true",
                   help="allow parameters outside the benchmark grid")
    p.set_defaults(fn=cmd_gen_dataset)

    p = sub.add_parser("bench", help="method x instance matrix, CSV out")
    p.add_argument("instances", nargs="*")
    p.add_argument("--methods", default="ebf,tsfrag+ddd")
    p.add_argument("--resolution", type=_positive_float, default=1.0)
    p.add_argument("--time-limit", type=_positive_float, default=1800.0)
    p.add_argument("--parallel", type=_positive_int, default=1)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.add_argument("--json", action="store_true",
                   help="also write one JSON object per row")
    p.add_argument("--set1", action="store_true")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("validate", help="check a solution file")
    p.add_argument("instance")
    p.add_argument("solution")
    _add_transform_flags(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("inst", help="instance utilities")
    isub = p.add_subparsers(dest="what", required=True)
    d = isub.add_parser("dump", help="JSON dump")
    d.add_argument("instance")
    d.add_argument("--tighten", action="store_true")
    _add_transform_flags(d)
    d.set_defaults(fn=cmd_inst_dump)

    p = sub.add_parser("net", help="network dumps")
    nsub = p.add_subparsers(dest="what", required=True)
    for what in ("dump-events", "dump-fragments"):
        d = nsub.add_parser(what)
        d.add_argument("instance")
        _add_transform_flags(d)
        d.set_defaults(fn=cmd_net_dump)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (inst_mod.InfeasibleCustomerError, inst_mod.InstanceError,
            MethodError, GridBudgetError,
            OSError) as exc:  # OSError: a path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        infeasible = isinstance(exc, inst_mod.InfeasibleCustomerError)
        return EXIT_INFEASIBLE if infeasible else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
