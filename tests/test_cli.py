import itertools
import json
import os
import sys
import time

import pytest

from darpsv import METHODS, cli, formulations, milp
from darpsv.cli import main
from darpsv.formulations import SolveReport
from darpsv.instance import from_json, parse_cordeau, to_json
from darpsv.timespace import TimeGrid
from darpsv.validate import timed_routes

from conftest import CORDEAU_SAMPLE


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text(CORDEAU_SAMPLE)
    return str(path)


def test_solve_writes_validating_solution(sample_file, tmp_path, capsys):
    out = str(tmp_path / "sol.json")
    code = main(["solve", sample_file, "--formulation", "ebf", "--set1",
                 "--out", out])
    assert code == 0
    payload = json.loads(open(out).read())
    assert payload["status"] == "optimal"
    assert payload["routes"]
    assert "objective" in capsys.readouterr().out
    code = main(["validate", sample_file, out, "--set1"])
    assert code == 0


def test_solve_methods_agree_through_cli(sample_file, tmp_path):
    objs = {}
    for flags in (["--formulation", "ebf"],
                  ["--formulation", "abf"],
                  ["--formulation", "tsfrag", "--ddd"],
                  ["--formulation", "tsef", "--ddd"]):
        out = str(tmp_path / f"sol_{flags[-1].strip('-')}_{flags[1]}.json")
        assert main(["solve", sample_file, "--set1", "--out", out] + flags) == 0
        objs[flags[1] + flags[-1]] = json.loads(open(out).read())["objective"]
        # every emitted solution file passes validation
        assert main(["validate", sample_file, out, "--set1"]) == 0
    values = list(objs.values())
    assert max(values) - min(values) < 1e-4


def test_usage_errors(sample_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve", sample_file, "--formulation", "nope"])
    assert exc.value.code == 2
    assert main(["solve", sample_file, "--formulation", "abf", "--ddd"]) == 2
    assert main(["solve", sample_file, "--formulation", "ebf",
                 "--callbacks"]) == 2
    for workers in ("0", "-3"):  # these ran serially and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["bench", sample_file, "--methods", "ebf",
                  "--parallel", workers])
        assert exc.value.code == 2


def test_solve_accepts_exactly_the_library_methods(sample_file, monkeypatch):
    solved = []

    def run_method(inst, method, **kwargs):
        solved.append(method)
        return SolveReport(method, "optimal", 1.0, 1.0, None, 0.0)

    monkeypatch.setattr(cli, "run_method", run_method)
    accepted = set()
    for form, ddd, callbacks in itertools.product(
            ("abf", "ebf", "tsef", "tsfrag"), (False, True), (False, True)):
        argv = (["solve", sample_file, "--formulation", form]
                + ["--ddd"] * ddd + ["--callbacks"] * callbacks)
        code = main(argv)
        assert code in (0, 2)
        if code == 0:
            accepted.add(solved[-1])
    assert accepted == set(METHODS)
    assert len(solved) == len(METHODS)


@pytest.mark.parametrize("flag", ["--resolution", "--initial-delta",
                                  "--time-limit"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_grid_steps_must_be_positive(sample_file, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["solve", sample_file, "--formulation", "tsfrag", flag, value])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bench_time_limit_must_be_positive(sample_file, value):
    with pytest.raises(SystemExit) as exc:
        main(["bench", sample_file, "--methods", "ebf", "--time-limit", value])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0", "-2"])
def test_fleet_multiplier_must_be_positive(sample_file, value):
    with pytest.raises(SystemExit) as exc:
        main(["solve", sample_file, "--set1", "--fleet-mult", value])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [
    ("--fleet-mult", "0"), ("--fleet-mult", "x"), ("--fleet-mult", "4,"),
    ("--p-tw", "abc"), ("--r-l", ""), ("--variant", "darpsv-set1"),
    # errors found while building: the second grid point's window collapses
    # after the first built, every point's does, and the input is missing
    ("--p-tw", "15,-5"), ("--p-de", "0.5"), ("input", "missing.txt"),
])
def test_gen_dataset_usage_errors_write_nothing(sample_file, tmp_path, flag,
                                                value):
    out_dir = tmp_path / "ds"
    source = str(tmp_path / value) if flag == "input" else sample_file
    extra = [] if flag == "input" else [flag, value]
    try:
        code = main(["gen-dataset", source, "--out-dir", str(out_dir),
                     "--unchecked", "--variant", "darp", *extra])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code == 2
    assert not out_dir.exists()


def _write(path, text):
    path.write_text(text)
    return str(path)


def _json_with(tmp, field, value):
    """The sample as a JSON instance file, with field[1][2] set to value."""
    payload = json.loads(to_json(parse_cordeau(CORDEAU_SAMPLE)))
    payload[field][1][2] = value
    return _write(tmp / f"{field}.json", json.dumps(payload))


# each case: (tmp_path, sample_file) -> argv of a malformed input
MALFORMED = {
    "zero-capacity": lambda tmp, sample: ["solve", _write(
        tmp / "cap0.txt", CORDEAU_SAMPLE.replace("2 3 480 3 30", "2 3 480 0 30"))],
    "json-missing-keys": lambda tmp, sample: [
        "solve", _write(tmp / "keys.json", '{"name": "x", "n": 0}')],
    "json-not-json": lambda tmp, sample: [
        "solve", _write(tmp / "text.json", "not json")],
    "no-such-file": lambda tmp, sample: ["solve", str(tmp / "missing.txt")],
    "out-dir-missing": lambda tmp, sample: [
        "solve", sample, "--out", str(tmp / "missing" / "sol.json")],
    "inf-load": lambda tmp, sample: ["solve", _write(
        tmp / "inf.txt", CORDEAU_SAMPLE.replace(
            "1   2.0   1.0   3  1    0  480", "1   2.0   1.0   3  inf  0  480"))],
    "json-nan-travel-time": lambda tmp, sample: [
        "solve", _json_with(tmp, "travel_time", float("nan"))],
    "json-inf-travel-cost": lambda tmp, sample: [
        "solve", _json_with(tmp, "travel_cost", float("inf"))],
    "json-negative-fleet": lambda tmp, sample: ["solve", _write(
        tmp / "fleet.json", json.dumps(dict(json.loads(to_json(
            parse_cordeau(CORDEAU_SAMPLE))), vehicles=-1)))],
    "json-fractional-capacity": lambda tmp, sample: ["solve", _write(
        tmp / "cap.json", json.dumps(dict(json.loads(to_json(
            parse_cordeau(CORDEAU_SAMPLE))), capacity=2.5)))],
    "r-l-above-one": lambda tmp, sample: [
        "solve", sample, "--set1", "--r-l", "5"],
    "r-l-nan": lambda tmp, sample: ["solve", sample, "--set1", "--r-l", "nan"],
    "r-l-negative": lambda tmp, sample: [
        "solve", sample, "--set1", "--r-l", "-1"],
    "gen-dataset-r-l-above-one": lambda tmp, sample: [
        "gen-dataset", sample, "--out-dir", str(tmp / "ds"), "--r-l", "5",
        "--unchecked"],
    "stop-without-t": lambda tmp, sample: [
        "validate", sample, _write(tmp / "sol.json", json.dumps(
            {"objective": 1.0, "routes": [{"vehicle": 0,
                                           "stops": [{"loc": 0}]}]}))],
    "stop-past-the-last-location": lambda tmp, sample: [
        "validate", sample, _write(tmp / "sol.json", json.dumps(
            {"objective": 1.0, "routes": [{"vehicle": 0, "stops": [
                {"loc": 0, "t": 0.0}, {"loc": 9, "t": 1.0}]}]}))],
    "stop-at-a-negative-location": lambda tmp, sample: [
        "validate", sample, _write(tmp / "sol.json", json.dumps(
            {"objective": 1.0, "routes": [{"vehicle": 0, "stops": [
                {"loc": 0, "t": 0.0}, {"loc": -1, "t": 1.0}]}]}))],
    "solution-not-json": lambda tmp, sample: [
        "validate", sample, _write(tmp / "sol.json", "[")],
    "solve-tsfrag+c-large": lambda tmp, sample: [
        "solve", sample, "--formulation", "tsfrag", "--callbacks", "--set1"],
    "bench-tsfrag+c-large": lambda tmp, sample: [
        "bench", sample, "--methods", "tsfrag+c", "--set1",
        "--out", str(tmp / "bench.csv")],
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_inputs_are_usage_errors(case, sample_file, tmp_path,
                                           capsys):
    # an uncaught exception (a traceback from the command line) fails here
    assert main(MALFORMED[case](tmp_path, sample_file)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "bench.csv").exists()  # no partial bench CSV


def test_validate_rejects_stop_times_that_are_not_numbers(single_customer,
                                                         tmp_path, capsys):
    inst_file = _write(tmp_path / "inst.json", to_json(single_customer))
    routes = timed_routes(single_customer, [[0, 1, 2, 3]], 12.0)
    sol = routes.to_dict()
    assert main(["validate", inst_file,
                 _write(tmp_path / "sol.json", json.dumps(sol))]) == 0
    for stop in sol["routes"][0]["stops"]:
        stop["t"] = float("nan")
    assert main(["validate", inst_file,
                 _write(tmp_path / "nan.json", json.dumps(sol))]) == 1
    assert "[Window]" in capsys.readouterr().out


def test_validate_rejects_an_objective_that_is_not_a_number(single_customer,
                                                            tmp_path, capsys):
    inst_file = _write(tmp_path / "inst.json", to_json(single_customer))
    sol = timed_routes(single_customer, [[0, 1, 2, 3]], 12.0).to_dict()
    sol["objective"] = float("nan")  # json writes NaN
    assert main(["validate", inst_file,
                 _write(tmp_path / "sol.json", json.dumps(sol))]) == 1
    assert "[CostMismatch]" in capsys.readouterr().out


def test_ddd_trace_on_stderr(sample_file, capsys):
    assert main(["solve", sample_file, "--set1", "--formulation", "tsfrag",
                 "--ddd"]) == 0
    err = capsys.readouterr().err
    assert "Z=" in err and "bound=" in err


def test_gen_dataset_round_trip(sample_file, tmp_path, capsys):
    out_dir = str(tmp_path / "ds")
    code = main(["gen-dataset", sample_file, "--out-dir", out_dir,
                 "--r-l", "0", "--p-tw", "15", "--p-de", "1.5",
                 "--fleet-mult", "4", "--variant", "darp"])
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert len(files) == 1
    text = open(os.path.join(out_dir, files[0])).read()
    inst = from_json(text)
    assert inst.meta["p_de"] == 1.5
    from darpsv.instance import to_json
    assert to_json(inst) == text  # parse(gen(x)) round-trips exactly


def test_gen_dataset_grid(sample_file, tmp_path):
    out_dir = str(tmp_path / "grid")
    code = main(["gen-dataset", sample_file, "--out-dir", out_dir,
                 "--r-l", "0.3333333333333333", "--p-tw", "15,30",
                 "--p-de", "1.5,2.0", "--fleet-mult", "4"])
    assert code == 0
    assert len(os.listdir(out_dir)) == 4


def _strip_timing(csv_text):
    head, *rows = csv_text.strip().splitlines()
    keep = [k for k, name in enumerate(head.split(",")) if name != "time_s"]
    return [",".join(row.split(",")[k] for k in keep) for row in rows]


def test_bench_csv_and_determinism(sample_file, tmp_path):
    out = str(tmp_path / "bench.csv")
    args = ["bench", sample_file, "--set1", "--methods", "ebf,tsfrag+ddd",
            "--out", out, "--json"]
    assert main(args) == 0
    rows = open(out).read().strip().splitlines()
    assert rows[0].split(",")[:6] == ["instance", "r_l", "p_tw", "p_de",
                                      "fleet_multiplier", "method"]
    assert len(rows) == 3
    first = _strip_timing(open(out).read())
    assert main(args) == 0
    assert _strip_timing(open(out).read()) == first  # deterministic OBJ column
    jsonl = [json.loads(ln) for ln in open(out + ".jsonl")]
    assert [r["method"] for r in jsonl] == ["ebf", "tsfrag+ddd"]
    objs = {r["method"]: r["obj"] for r in jsonl}
    assert objs["ebf"] == objs["tsfrag+ddd"]
    iters = [r["iter"] for r in jsonl]
    assert iters[0] == "" and iters[1] != ""  # Iter only for DDD methods
    assert all(isinstance(r["nc"], int) for r in jsonl)  # cuts for every method


def test_bench_parallel_matches_serial(sample_file, tmp_path):
    serial = str(tmp_path / "s.csv")
    par = str(tmp_path / "p.csv")
    base = ["bench", sample_file, "--set1", "--methods", "ebf"]
    assert main(base + ["--out", serial]) == 0
    assert main(base + ["--out", par, "--parallel", "2"]) == 0
    assert _strip_timing(open(serial).read()) == _strip_timing(open(par).read())


def test_net_dumps_deterministic(sample_file, capsys):
    assert main(["net", "dump-events", sample_file, "--set1"]) == 0
    a = capsys.readouterr().out
    assert main(["net", "dump-events", sample_file, "--set1"]) == 0
    assert capsys.readouterr().out == a
    assert a.startswith("events ")
    assert main(["net", "dump-fragments", sample_file, "--set1"]) == 0
    assert capsys.readouterr().out.startswith("fragments ")


def test_inst_dump_loads_back(sample_file, tmp_path, capsys):
    assert main(["inst", "dump", sample_file, "--tighten"]) == 0
    payload = capsys.readouterr().out
    inst = from_json(payload)
    assert inst.n == 3


def test_infeasible_exit_code(tmp_path):
    # ride limit below direct travel time: rejected as infeasible
    path = tmp_path / "bad.txt"
    path.write_text("1 1 480 3 1\n"
                    "0 0.0 0.0 0 0 0 480\n"
                    "1 0.0 0.0 0 1 0 480\n"
                    "2 30.0 0.0 0 -1 0 480\n"
                    "3 0.0 0.0 0 0 0 480\n")
    assert main(["solve", str(path), "--formulation", "ebf"]) == 1


def test_bench_empty_instance_list_header_only(tmp_path):
    out = str(tmp_path / "empty.csv")
    assert main(["bench", "--methods", "ebf", "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("instance,")


GRID_STEP_FLAGS = pytest.mark.parametrize("flags", [
    ["--formulation", "tsfrag", "--resolution"],
    ["--formulation", "tsef", "--resolution"],
    ["--formulation", "tsfrag", "--ddd", "--initial-delta"],
], ids=["tsfrag", "tsef", "tsfrag+ddd"])


@pytest.mark.parametrize("step", ["2e-9", "1e-300"])
@GRID_STEP_FLAGS
def test_a_grid_step_past_the_point_budget_is_a_usage_error(sample_file,
                                                            capsys, flags,
                                                            step):
    # 2e-9 would fill memory with grid points before a 30 s limit; the
    # point count is checked before any point is made, and the short limit
    # bounds what a grid without that check could make here
    assert main(["solve", sample_file, "--set1", *flags, step,
                 "--time-limit", "1"]) == 2
    assert "time points" in capsys.readouterr().err


@GRID_STEP_FLAGS
def test_a_limit_that_passes_while_the_grid_is_built_stops_the_solve(
        sample_file, capsys, monkeypatch, flags):
    # the clock jumps past the 1 s limit while the grid is built: the solve
    # checks its deadline before it builds a master, so nothing is expanded
    # and no HiGHS runs
    late, clock, fixed = [0.0], time.perf_counter, TimeGrid.fixed

    def slow_grid(inst, delta):
        grid = fixed(inst, delta)
        late[0] = 2.0
        return grid

    monkeypatch.setattr(time, "perf_counter", lambda: clock() + late[0])
    monkeypatch.setattr(TimeGrid, "fixed", slow_grid)
    for name in ("expand_fragments", "expand_events"):
        monkeypatch.setattr(formulations, name,
                            lambda *args: pytest.fail("grid expanded"))
    monkeypatch.setattr(milp, "_run_highs",
                        lambda *args: pytest.fail("HiGHS ran"))
    assert main(["solve", sample_file, "--set1", *flags, "5",
                 "--time-limit", "1"]) == 3
    assert "time_limit" in capsys.readouterr().out
