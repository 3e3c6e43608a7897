"""Self-test of the benchmark's failure accounting and of the traced run.

    python3 perfbench/selftest.py

Uses one small instance of the sync-n24-q3 suite.  The perturbed solves
print their failure reasons to stderr, as a benchmark run would.  Exits
non-zero when a check fails.
"""
import copy
import dataclasses
import importlib
import math
import sys

import run as bench

sys.path.insert(0, str(bench.SRC))

import suites  # noqa: E402
from spans import TARGETS, Tracer, darpsv_modules  # noqa: E402

WORKLOAD = dataclasses.replace(suites.WORKLOADS["sync-n24-q3"], instance_seeds=(4,))
FAILURES = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def small_run():
    return bench.Run(WORKLOAD, 0, suites.build_suite(WORKLOAD, 0),
                     bench.load_reference()[WORKLOAD.name])


def solved_share_with(perturb):
    """Run one pass with every report passed through ``perturb``."""
    real = bench.solve

    def perturbed(method, inst):
        return perturb(real(method, inst))

    run = small_run()
    bench.solve = perturbed
    try:
        plain = [run.run_pass()]
    finally:
        bench.solve = real
    return run, bench.end_to_end(run, plain, [1.0])["solved_share"][0]


def shifted_objective(report):
    report.objective += 0.01
    return report


def late_stop(report):
    """Routes that check() rejects: one customer stop leaves its window."""
    report.routes = copy.deepcopy(report.routes)
    route = next(r for r in report.routes.routes if len(r.stops) > 2)
    loc, _ = route.stops[1]
    route.stops[1] = (loc, float(route.stops[1][1]) + 1000.0)
    return report


def test_failure_accounting():
    run, share = solved_share_with(lambda report: report)
    expect(run.failed == 0 and share == 1.0, "unperturbed solves all pass")
    for name, perturb in (("perturbed objective", shifted_objective),
                          ("route set check() rejects", late_stop)):
        run, share = solved_share_with(perturb)
        expect(run.failed == run.attempted == 2 and share == 0.0,
               f"{name} counts as failed ({run.failed}/{run.attempted})")
    run, share = solved_share_with(
        lambda report: shifted_objective(report) if report.method == "ebf" else report)
    expect(run.failed == 1 and share == 0.5 and run.disagreements == 1,
           "methods that disagree are caught")


def darpsv_bindings():
    return {(name, key): value for name, mod in darpsv_modules()
            for key, value in vars(mod).items()}


def test_traced_run():
    run = small_run()
    run.run_pass()  # warm-up
    run.outcomes.clear()
    before = darpsv_bindings()
    tracer = Tracer()
    with tracer.installed():
        ddd = importlib.import_module("darpsv.ddd")
        fragments = importlib.import_module("darpsv.fragments")
        expect(ddd.enumerate_fragments is fragments.enumerate_fragments
               and hasattr(ddd.enumerate_fragments, "traced_span"),
               "from-imported bindings are replaced too")
    plain, traced = bench.measure(run, 0.0, tracer)
    after = darpsv_bindings()
    expect(run.outcomes[0] == run.outcomes[1],
           "traced and untraced passes give identical statuses and objectives")
    expect(run.failed == 0, "traced solves pass the reference check")
    expect(before.keys() == after.keys()
           and all(after[k] is v for k, v in before.items()),
           "every darpsv binding is restored after the traced run")
    expect(not Tracer.leftover_wrappers(), "no wrapper left installed")
    patched = {name for _, _, name, _ in TARGETS}
    seen = {s[0] for s in tracer.spans}
    expect({"events.enumerate", "fragments.enumerate", "timespace.expand",
            "milp.solve", "ddd.select", "formulations.build"} <= seen <= patched
           | {"instance.build"}, "spans recorded at every layer boundary")
    suite_s = sum(traced[0].values())
    metrics = tracer.metrics(suite_s)
    covered = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    covered += metrics["trace.uncovered_share"] * suite_s
    expect(math.isclose(covered, suite_s, rel_tol=1e-9),
           f"layer self times plus uncovered share account for suite_s "
           f"({covered:.6f} vs {suite_s:.6f})")


if __name__ == "__main__":
    test_failure_accounting()
    test_traced_run()
    sys.exit(1 if FAILURES else 0)
