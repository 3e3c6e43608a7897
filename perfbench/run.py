"""Solver benchmark: time to a proven optimum on seeded DARP / DARP-SV suites.

Run from the repository root:

    python3 perfbench/run.py --workload sync-n24-q3 --seed 1 --seconds 35 --trace 0

One run builds the workload's instances from the seed, warms up, then
solves the whole (instance, method) list in passes for about
``--seconds`` (at least one pass; no pass starts that is expected to end
later).  ``suite_s`` is the mean pass and ``solve_s_max`` the mean time
of the slowest (instance, method): the machine's speed drifts over tens of
seconds, and a mean over the whole run evens that out better than a median
of three to ten passes.  Every answer is checked against the
recorded reference outcome and the independent validator.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, the last line carries
the per-layer split, and the spans are written to ``perfbench/out/``.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SOLVE_LIMIT_S = 60.0  # per-solve time limit; a slower solve fails
DEADLINE_S = 150.0  # no solve starts later than this after process start
OBJ_TOL = 1e-4
SETUP_PROBES = 4  # extra set-ups in child processes, for the setup_s median


def setup(workload_name, seed):
    """Imports, instance generation and a tiny warm-up solve per method."""
    sys.path.insert(0, str(SRC))  # the package is run from source
    import suites

    workload = suites.WORKLOADS[workload_name]
    suite = suites.build_suite(workload, seed)
    tiny = suites.warmup_instance()
    for method in workload.methods:
        solve(method, tiny)
    return workload, suite


def solve(method, inst):
    # looked up per call, so a traced run reaches the installed wrappers
    from darpsv.ddd import ddd_solve
    from darpsv.formulations import solve_ebf

    if method == "ebf":
        return solve_ebf(inst, time_limit=SOLVE_LIMIT_S)
    return ddd_solve(inst, "tsfrag", time_limit=SOLVE_LIMIT_S)


def judge(inst, ref, report, wall):
    """Reasons a solve fails; empty when it matches the reference and the
    validator accepts its routes."""
    from darpsv.milp import Status
    from darpsv.validate import check

    problems = []
    if report.status == Status.TIME_LIMIT or wall > SOLVE_LIMIT_S:
        problems.append(f"time limit ({wall:.1f} s)")
    if report.status != ref["status"]:
        problems.append(f"status {report.status} != reference {ref['status']}")
    if ref["objective"] is not None:
        if report.objective is None or abs(report.objective - ref["objective"]) > OBJ_TOL:
            problems.append(f"objective {report.objective} != reference {ref['objective']}")
        if report.routes is None:
            problems.append("no routes")
        else:
            problems.extend(str(v) for v in check(inst, report.routes))
    return problems


def load_reference():
    """{workload: {"instance seed/method": {"status", "objective"}}}"""
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


class Run:
    """The solves of one benchmark run and their verdicts."""

    def __init__(self, workload, seed, suite, reference):
        self.workload = workload
        self.seed = seed
        self.suite = suite
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.disagreements = 0
        self.outcomes = []  # per pass: {"seed/method": (status, objective)}

    def run_pass(self, tracer=None, label=""):
        """Solve the list once; returns {"seed/method": wall seconds}."""
        gc.collect()  # each pass starts from the same heap, outside the timing
        times = {}
        outcome = {}
        for iseed, inst in self.suite:
            for method in self.workload.methods:
                key = f"{iseed}/{method}"
                self.attempted += 1
                if time.perf_counter() - T0 > DEADLINE_S:
                    self.failed += 1
                    print(f"{label}{key}: not started, run deadline passed",
                          file=sys.stderr)
                    continue
                start = time.perf_counter()
                try:
                    if tracer is None:
                        report = solve(method, inst)
                    else:
                        with tracer.solve(f"{label}{key}"):
                            report = solve(method, inst)
                except Exception as exc:  # a raising solve is a failed solve
                    self.failed += 1
                    print(f"{label}{key}: raised {exc!r}", file=sys.stderr)
                    continue
                wall = time.perf_counter() - start
                times[key] = wall
                if tracer is not None and report.iterations is not None:
                    tracer.counts["ddd.iterations"] += report.iterations
                outcome[key] = (report.status, report.objective)
                problems = judge(inst, self.reference[key], report, wall)
                if problems:
                    self.failed += 1
                    print(f"{label}{key}: " + "; ".join(problems), file=sys.stderr)
            objectives = [outcome.get(f"{iseed}/{m}", (None, None))[1]
                          for m in self.workload.methods]
            if None not in objectives and max(objectives) - min(objectives) > OBJ_TOL:
                self.disagreements += 1
                print(f"{label}{iseed}: methods disagree {objectives}", file=sys.stderr)
        self.outcomes.append(outcome)
        return times


def setup_probe(workload_name, seed):
    """One set-up sample in a fresh process: from process start to warm."""
    setup(workload_name, seed)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


def probe_setups(workload_name, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measure(run, seconds, tracer=None):
    """Passes while the next one is expected to end within ``seconds``
    (at least one); with a tracer, each untraced pass is followed by a
    traced one over the same inputs.  Returns the per-solve times of the
    untraced and of the traced passes, one dict per pass."""
    import suites

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run.run_pass())
        if tracer is not None:
            with tracer.installed():
                with tracer.span("instance.build"):
                    suites.build_suite(run.workload, run.seed)
                traced.append(run.run_pass(tracer, f"t{len(traced)}:"))
        elapsed = time.perf_counter() - start
        expected_end = elapsed * (len(plain) + 1) / len(plain)
        if expected_end > seconds or time.perf_counter() - T0 > DEADLINE_S:
            return plain, traced


def suite_seconds(passes):
    return statistics.fmean(sum(p.values()) for p in passes)


def slowest_solve(passes):
    """The largest per-(instance, method) mean over the passes."""
    keys = {k for p in passes for k in p}
    return max((statistics.fmean(p[k] for p in passes if k in p) for k in keys),
               default=0.0)


def end_to_end(run, plain, setup_samples):
    return {
        "suite_s": (suite_seconds(plain), "s"),
        "solve_s_max": (slowest_solve(plain), "s"),
        "solved_share": ((run.attempted - run.failed) / run.attempted, "share"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "share"
    return "count"


def per_layer(plain, traced, tracer):
    """Per-layer metrics, each the mean over the traced passes."""
    passes = len(traced)
    raw = tracer.metrics(sum(sum(p.values()) for p in traced))
    out = {name: value if unit_of(name) == "share" else value / passes
           for name, value in raw.items()}
    out["trace.suite_s"] = suite_seconds(traced)
    out["trace.overhead_s"] = suite_seconds(traced) - suite_seconds(plain)
    return {k: (v, unit_of(k)) for k, v in out.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "darpsv" / "__init__.py").is_file():
        print(f"darpsv sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    reference = load_reference()
    if args.workload not in reference:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(reference)}")

    workload, suite = setup(args.workload, args.seed)
    setup_samples = [time.perf_counter() - T0]
    run = Run(workload, args.seed, suite, reference[args.workload])
    correct = True
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        plain, traced = measure(run, args.seconds, tracer)
        metrics = per_layer(plain, traced, tracer)
        mismatched = sum(a != b for a, b in zip(run.outcomes[0::2], run.outcomes[1::2]))
        leftover = Tracer.leftover_wrappers()
        if mismatched or leftover:
            print(f"traced outcomes differ in {mismatched} pass(es); "
                  f"wrappers left installed: {leftover}", file=sys.stderr)
            correct = False
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        plain, _ = measure(run, args.seconds)
        setup_samples += probe_setups(args.workload, args.seed)
        metrics = end_to_end(run, plain, setup_samples)
    correct = correct and run.failed == 0 and run.disagreements == 0

    print(f"{args.workload}: {len(plain)} untraced pass(es) of "
          f"{len(suite) * len(workload.methods)} solves")
    print("untraced pass seconds: "
          + " ".join(f"{sum(p.values()):.3f}" for p in plain))
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
