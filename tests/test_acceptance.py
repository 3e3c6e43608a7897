"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 replicate published optima and network sizes on the classic
benchmark files (a2-16, a3-18, b2-16, b3-18, a4-16).  Those files are not
redistributable and this sandbox has no way to fetch them (no general
network access; the package mirror carries code only), so the tests look
for them under data/cordeau/ and fail with an explanatory message when
absent.  Everything else runs self-contained.
"""
import time
from pathlib import Path

import pytest

from darpsv import milp
from darpsv.ddd import ddd_solve
from darpsv.events import enumerate_events
from darpsv.formulations import (TsefMaster, solve_abf, solve_ebf, solve_tsef,
                                 solve_tsfrag)
from darpsv.fragments import enumerate_fragments, feasible_schedule
from darpsv.instance import (DatasetParams, InfeasibleCustomerError,
                             build_dataset1, build_dataset2, parse_cordeau,
                             random_instance, tighten_windows)
from darpsv.timespace import TimeGrid
from darpsv.validate import brute_optimum, check

from conftest import synthetic_base

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "cordeau"


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def _benchmark(name):
    for candidate in (DATA_DIR / f"{name}.txt", DATA_DIR / name):
        if candidate.exists():
            return parse_cordeau(candidate.read_text(), name=name)
    pytest.fail(
        f"ACCEPTANCE: FAIL - benchmark file {name} not found under "
        f"{DATA_DIR}. The classic set is not redistributable and this "
        f"environment cannot download it (no general network access; the "
        f"package mirror carries no instance data). Place the original "
        f"file there to run this criterion.")


def dataset2_instances(params, seeds=range(6), n=6):
    """Second-dataset style instances from synthetic bases; combinations
    that tightening proves infeasible are dropped, as in the published
    construction."""
    out = []
    for seed in seeds:
        try:
            base = tighten_windows(synthetic_base(seed, n=n))
            inst = tighten_windows(build_dataset2(base, params))
        except InfeasibleCustomerError:
            continue
        out.append(inst)
    return out


# -- criterion 1: dataset-1 optima -------------------------------------------

@pytest.mark.parametrize("name,target", [
    ("a2-16", 456.99), ("a3-18", 460.08), ("b2-16", 383.79), ("b3-18", 413.00),
])
def test_criterion_1_dataset1_optima(name, target):
    inst = tighten_windows(build_dataset1(_benchmark(name), 1.0 / 3.0, 3))
    results = {
        "ebf": solve_ebf(inst, time_limit=600).objective,
        "abf": solve_abf(inst, time_limit=1800).objective,
        "tsfrag+ddd": ddd_solve(inst, "tsfrag", time_limit=600).objective,
    }
    for method, value in results.items():
        assert value == pytest.approx(target, abs=0.5), (name, method, value)
    report(1, f"{name}: all of EBF/ABF/TSFrag+DDD at {target} +/- 0.5")


# -- criterion 2: dataset-2 optima -------------------------------------------

@pytest.mark.parametrize("p_de,target", [(1.5, 416.65), (2.0, 405.49)])
def test_criterion_2_dataset2_optima(p_de, target):
    base = tighten_windows(_benchmark("a4-16"))
    params = DatasetParams(r_l=1.0 / 3.0, p_tw=15.0, p_de=p_de,
                           fleet_multiplier=4)
    inst = tighten_windows(build_dataset2(base, params))
    ebf = solve_ebf(inst, time_limit=600).objective
    ddd = ddd_solve(inst, "tsfrag", time_limit=600).objective
    # a miss here while criterion 4 holds would mean the reference values
    # used a different large-customer designation than the documented
    # deterministic index rule
    assert ebf == pytest.approx(target, abs=0.5)
    assert ddd == pytest.approx(target, abs=0.5)
    report(2, f"a4-16 P_De={p_de}: EBF and TSFrag+DDD at {target} +/- 0.5")


# -- criterion 3: network sizes ----------------------------------------------

def test_criterion_3_network_sizes():
    inst = tighten_windows(build_dataset1(_benchmark("a2-16"), 1.0 / 3.0, 3))
    frags = enumerate_fragments(inst)
    net = enumerate_events(inst)
    assert len(frags) == 24
    assert abs(net.num_events - 46) <= 0.2 * 46, net.num_events
    assert abs(net.num_arcs - 182) <= 0.2 * 182, net.num_arcs
    report(3, f"a2-16: |F|={len(frags)}, |V_E|={net.num_events}, "
              f"|A_E|={net.num_arcs}")


# -- criterion 4: oracle equivalence on 500 random instances ------------------

def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    shapes = [
        dict(n=1, vehicles=2, capacity=2, large_share=0.5),
        dict(n=2, vehicles=2, capacity=2, large_share=0.4),
        dict(n=3, vehicles=2, capacity=2, large_share=0.4),
        dict(n=3, vehicles=3, capacity=3, large_share=0.3),
        dict(n=4, vehicles=3, capacity=2, large_share=0.35),
    ]
    total = feasible = infeasible = 0
    seed = 0
    while total < 500:
        shape = shapes[total % len(shapes)]
        seed += 1
        try:
            inst = tighten_windows(random_instance(seed, **shape))
        except InfeasibleCustomerError:
            total += 1
            infeasible += 1
            continue
        obj, brute_routes = brute_optimum(inst)
        results = {
            "ebf": solve_ebf(inst, time_limit=120),
            "abf": solve_abf(inst, time_limit=120),
            "tsfrag+ddd": ddd_solve(inst, "tsfrag", time_limit=120),
        }
        for method, rep in results.items():
            if obj is None:
                assert rep.status == "infeasible", (seed, method, rep.status)
            else:
                assert rep.objective == pytest.approx(obj, abs=1e-4), \
                    (seed, method, rep.objective, obj)
                violations = check(inst, rep.routes)
                assert not violations, (seed, method, violations[:3])
        if obj is None:
            infeasible += 1
        else:
            assert not check(inst, brute_routes)
            feasible += 1
        total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    report(4, f"{total} instances ({feasible} feasible, {infeasible} "
              f"infeasible) agree across ABF/EBF/TSFrag+DDD/brute in "
              f"{elapsed:.0f}s")


# -- criterion 5: DDD contract on dataset-2 instances --------------------------

def test_criterion_5_ddd_behavior():
    params = DatasetParams(r_l=1.0 / 3.0, p_tw=15.0, p_de=1.5,
                           fleet_multiplier=4)
    instances = dataset2_instances(params)
    if (DATA_DIR / "a4-16.txt").exists():
        base = tighten_windows(_benchmark("a4-16"))
        instances.append(tighten_windows(build_dataset2(base, params)))
    assert instances, "no feasible dataset-2 instances generated"
    solved = 0
    for inst in instances:
        rep = ddd_solve(inst, "tsfrag", time_limit=300)
        bounds = [h[1] for h in rep.history]
        assert bounds == sorted(bounds), (inst.name, "bound regressed")
        if rep.status != "optimal":
            continue
        assert rep.history[-1][2] == 0, (inst.name, "terminated with Z != 0")
        ebf = solve_ebf(inst, time_limit=300)
        if ebf.status == "optimal":
            assert rep.objective == pytest.approx(ebf.objective, abs=1e-4), \
                inst.name
        assert not check(inst, rep.routes), inst.name
        solved += 1
    assert solved >= 3
    report(5, f"{solved}/{len(instances)} dataset-2 instances: bounds "
              f"non-decreasing, Z=0 at exit, objective equals EBF")


# -- criterion 6: ride-time discretization regression --------------------------

def test_criterion_6_discretization_regression(ride_regression):
    inst = ride_regression
    sched = feasible_schedule(inst, (1, 2, 3, 4))
    assert sched is not None
    assert [round(t) for t in sched.times] == [600, 624, 626, 650]
    assert solve_ebf(inst).status == "optimal"
    master = TsefMaster(inst, enumerate_events(inst, timed=True))
    _, model = master.build(TimeGrid.fixed(inst, 10.0))
    assert milp.solve(model).status == "infeasible"
    # an inexact master's infeasibility proves nothing about the instance
    tsef = solve_tsef(inst, resolution=10.0)
    assert tsef.status == "relaxation" and tsef.bound is None
    report(6, "route (p1,p2,d1,d2) at 600/624/626/650 with rides 26: "
              "continuous-feasible, infeasible on the 10-minute event grid")


# -- criterion 7: subtour rounding regression ----------------------------------

def test_criterion_7_subtour_regression(subtour_regression):
    inst = subtour_regression
    ten = solve_tsfrag(inst, resolution=10.0)
    five = solve_tsfrag(inst, resolution=5.0)
    assert ten.status == five.status == "optimal"
    assert ten.cuts == 1, f"expected exactly one cut, got {ten.cuts}"
    assert five.cuts == 0
    assert ten.objective == pytest.approx(five.objective)
    report(7, "subtour (p1,p2,d1,d2,p1): one cut at 10-minute rounding, "
              "unrepresentable at 5 minutes")


# -- criterion 8: TSFrag+C parity on the DARP grid ------------------------------

def test_criterion_8_tsfrag_callback_parity():
    total_nc = 0
    compared = 0
    for p_de in (1.5, 1.75, 2.0):
        params = DatasetParams(r_l=0.0, p_tw=15.0, p_de=p_de,
                               fleet_multiplier=4, variant="darp")
        grid_instances = (dataset2_instances(params, seeds=range(4), n=6) +
                          dataset2_instances(params, seeds=range(2), n=8))
        for inst in grid_instances:
            cb = solve_tsfrag(inst, resolution=1.0, time_limit=300,
                              callbacks=True)
            dd = ddd_solve(inst, "tsfrag", time_limit=300)
            if cb.status == "optimal" or dd.status == "optimal":
                assert cb.status == dd.status == "optimal", inst.name
                assert cb.objective == pytest.approx(dd.objective, abs=1e-4), \
                    (inst.name, cb.objective, dd.objective)
                compared += 1
            else:
                assert cb.status == dd.status == "infeasible", inst.name
            total_nc += cb.cuts
    assert compared >= 5
    assert total_nc > 0, "expected at least one infeasibility cut on the grid"
    report(8, f"TSFrag+C(1 min) and TSFrag+DDD agree on {compared} DARP "
              f"instances; NC={total_nc} callbacks fired")
