import itertools

import numpy as np
import pytest

from darpsv import milp
from darpsv.fragments import (Fragment, FragmentSet, _path_cost,
                              dump_fragments, enumerate_fragments,
                              feasible_schedule, joint_schedule,
                              start_interval)
from darpsv.instance import (EPS, DatasetParams, InfeasibleCustomerError,
                             build_dataset2, parse_cordeau, random_instance,
                             tighten_windows)
from darpsv.milp import CONTINUOUS, GE, LE, MilpModel

from conftest import CORDEAU_SAMPLE, make_instance


def lp_schedule(inst, path, fixed_start=None):
    """Independent oracle: the same difference constraints as an LP,
    minimizing the end time."""
    m = MilpModel()
    t = [m.add_var(CONTINUOUS, inst.earliest[loc], inst.latest[loc],
                   obj=1.0 if k == len(path) - 1 else 0.0)
         for k, loc in enumerate(path)]
    if fixed_start is not None:
        m.add_constr([(t[0], 1.0)], "=", fixed_start)
    for k in range(len(path) - 1):
        m.add_constr([(t[k + 1], 1.0), (t[k], -1.0)], GE,
                     inst.travel_time[path[k], path[k + 1]])
    pos = {loc: k for k, loc in enumerate(path)}
    for loc in path:
        if inst.is_pickup(loc) and loc + inst.n in pos:
            m.add_constr([(t[pos[loc + inst.n]], 1.0), (t[pos[loc]], -1.0)],
                         LE, inst.ride[loc])
    sol = milp.solve(m)
    if sol.status != "optimal":
        return None
    return float(sol.objective)


def test_single_arc_chain():
    inst = make_instance(1, [[0, 1, 9, 9], [9, 0, 5, 9], [9, 9, 0, 1],
                             [9, 9, 9, 0]],
                         [0, 0, 5, 0], [100, 10, 20, 100], [0, 30],
                         [0, 1, -1, 0], capacity=1, vehicles=1)
    sched = feasible_schedule(inst, (1, 2), fixed_start=0.0)
    assert sched is not None
    assert sched.end == pytest.approx(5.0)  # lifted to the delivery window


def test_ride_limit_delays_pickup():
    # delivery cannot start before 60; ride limit 10 forces the pickup to 50
    inst = make_instance(1, np.full((4, 4), 5.0), [0, 0, 60, 0],
                         [200, 200, 200, 200], [0, 10], [0, 1, -1, 0],
                         capacity=1)
    sched = feasible_schedule(inst, (1, 2))
    assert sched.times[0] == pytest.approx(50.0)
    assert sched.end == pytest.approx(60.0)


def test_route_from_discretization_example(ride_regression):
    sched = feasible_schedule(ride_regression, (1, 2, 3, 4))
    assert [round(v) for v in sched.times] == [600, 624, 626, 650]


def test_infeasible_is_a_value():
    inst = make_instance(1, np.full((4, 4), 50.0), [0, 0, 0, 0],
                         [100, 10, 20, 100], [0, 5], [0, 1, -1, 0])
    assert feasible_schedule(inst, (1, 2)) is None


def test_oracle_agrees_with_lp_on_1000_paths():
    paths = [(1, 2, 3, 4), (1, 3), (2, 4), (1, 2, 4, 3), (2, 1, 3, 4),
             (2, 1, 4, 3), (1, 2, 3), (2, 3, 4), (1, 4, 2), (2, 4, 1, 3)]
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        inst = random_instance(seed, n=2, capacity=2, large_share=0.0)
        for path in paths:
            start = float(rng.uniform(0, 60)) if rng.random() < 0.5 else None
            ours = feasible_schedule(inst, path, fixed_start=start)
            lp = lp_schedule(inst, path, fixed_start=start)
            assert (ours is None) == (lp is None), (seed, path, start)
            if ours is not None:
                assert ours.end == pytest.approx(lp, abs=1e-5)
            checked += 1
    assert checked == 1000


def test_start_interval_matches_sampling():
    inst = random_instance(1, n=2, capacity=2, large_share=0.0)
    path = (1, 2, 3, 4)
    smin, smax = start_interval(inst, path)
    assert feasible_schedule(inst, path, fixed_start=smin) is not None
    assert feasible_schedule(inst, path, fixed_start=smax) is not None
    assert feasible_schedule(inst, path, fixed_start=smin - 0.5) is None
    assert feasible_schedule(inst, path, fixed_start=smax + 0.5) is None
    mid = (smin + smax) / 2.0
    assert feasible_schedule(inst, path, fixed_start=mid) is not None


def test_joint_schedule_synchronizes_large_location():
    inst = random_instance(0, n=2, capacity=2, large_share=0.0)
    # both vehicles visit "large" location 1 in their own path
    paths = [(0, 1, 3, 5), (0, 1, 3, 5)]
    times = joint_schedule(inst, paths)
    assert times is not None
    assert times[0][1] == times[1][1]
    assert times[0][3] == times[1][3]


def test_every_schedule_question_reads_one_system():
    # feasible_schedule, start_interval and joint_schedule build the same
    # difference system; fragments reversed give paths with no schedule
    scheduled = unscheduled = 0
    for seed in range(4):
        inst = tighten_windows(random_instance(seed, n=5, vehicles=3,
                                               capacity=3, large_share=0.3))
        frags = enumerate_fragments(inst)
        for path in [f.path for f in frags] + [f.path[::-1] for f in frags]:
            sched = feasible_schedule(inst, path)
            joint = joint_schedule(inst, [path])
            assert (start_interval(inst, path) is None) == (sched is None)
            if sched is None:
                assert joint is None
                unscheduled += 1
            else:
                assert tuple(joint[0][loc] for loc in path) == sched.times
                scheduled += 1
            with pytest.raises(ValueError, match="repeats"):
                start_interval(inst, path + path[:1])
    assert scheduled > 0 and unscheduled > 0


# -- enumeration --------------------------------------------------------------

def brute_fragments(inst):
    """All load-valid pickup..delivery sequences that schedule, by brute
    force over permutations."""
    smalls = list(inst.small_pickups)
    found = set()
    for r in range(1, len(smalls) + 1):
        for chosen in itertools.combinations(smalls, r):
            nodes = list(chosen) + [c + inst.n for c in chosen]
            for perm in itertools.permutations(nodes):
                if perm[0] not in inst.pickups or perm[-1] not in inst.deliveries:
                    continue
                load = 0
                ok = True
                onboard = set()
                for k, loc in enumerate(perm):
                    if inst.is_pickup(loc):
                        onboard.add(loc)
                        load += inst.demand[loc]
                    else:
                        if loc - inst.n not in onboard:
                            ok = False
                            break
                        onboard.discard(loc - inst.n)
                        load += inst.demand[loc]
                    if load > inst.capacity or (load == 0 and k < len(perm) - 1):
                        ok = False
                        break
                if ok and load == 0 and feasible_schedule(inst, perm) is not None:
                    found.add(perm)
    for i in inst.large_pickups:
        if feasible_schedule(inst, (i, i + inst.n)) is not None:
            found.add((i, i + inst.n))
    return found


@pytest.mark.parametrize("seed,n", [(s, 3) for s in range(12)] + [(0, 4), (5, 4)])
def test_enumeration_equals_brute_force(seed, n):
    inst = random_instance(seed, n=n, capacity=2, large_share=0.3)
    frags = enumerate_fragments(inst)
    assert {f.path for f in frags} == brute_fragments(inst)


def test_interior_loads_positive_endpoints_zero():
    inst = random_instance(11, n=4, capacity=3, large_share=0.25)
    for frag in enumerate_fragments(inst):
        load = 0
        for k, loc in enumerate(frag.path):
            share = (inst.capacity if inst.is_large(loc if inst.is_pickup(loc)
                                                    else loc - inst.n)
                     else abs(inst.demand[loc]))
            load += share if inst.is_pickup(loc) else -share
            if k < len(frag.path) - 1:
                assert 0 < load <= inst.capacity
        assert load == 0


def test_empty_only_at_endpoints_examples():
    # (p1,p2,d2,d1) is a fragment shape; (p1,d1,p2,p3,d2,d3) is not, since
    # the vehicle empties after d1
    wide = np.full((8, 8), 1.0)
    np.fill_diagonal(wide, 0.0)
    inst = make_instance(3, wide, [0] * 8, [1000] * 8, [0, 900, 900, 900],
                         [0, 1, 1, 1, -1, -1, -1, 0], capacity=2, vehicles=2)
    paths = {f.path for f in enumerate_fragments(inst)}
    assert (1, 2, 5, 4) in paths
    assert all((1, 4) != p[:2] or len(p) == 2 for p in paths)


def test_single_small_customer_single_fragment(single_customer):
    frags = enumerate_fragments(single_customer)
    assert [f.path for f in frags] == [(1, 2)]
    assert frags[0].vehicles == 1 and frags[0].kind == "chain"


def test_large_pair_fragment_vehicles():
    T = np.full((4, 4), 2.0)
    np.fill_diagonal(T, 0.0)
    inst = make_instance(1, T, [0] * 4, [100] * 4, [0, 50], [0, 4, -4, 0],
                         capacity=2, vehicles=2)
    frags = enumerate_fragments(inst)
    assert [f.path for f in frags] == [(1, 2)]
    assert frags[0].vehicles == 2 and frags[0].kind == "large-pair"


def test_dump_is_deterministic():
    inst = random_instance(5, n=3, capacity=2)
    a = dump_fragments(enumerate_fragments(inst))
    b = dump_fragments(enumerate_fragments(inst))
    assert a == b and a.startswith("fragments ")


# -- completion-deadline prune -----------------------------------------------

def unpruned_fragments(inst):
    """Reference enumeration without the completion deadline: the same DFS
    with only the one-step window test."""
    out = []
    n, Q, T = inst.n, inst.capacity, inst.travel_time
    e, l = inst.earliest, inst.latest
    for i in inst.large_pickups:
        path = (i, i + n)
        if feasible_schedule(inst, path) is not None:
            out.append(Fragment(path, _path_cost(inst, path),
                                inst.vehicles_required(i), "large-pair"))
    smalls = inst.small_pickups

    def extend(path, onboard, load, arrive):
        last = path[-1]
        for c in sorted(onboard):
            d = c + n
            t = max(arrive + T[last, d], e[d])
            if t > l[d] + EPS:
                continue
            new_load = load - inst.demand[c]
            if new_load == 0:
                full = path + (d,)
                if feasible_schedule(inst, full) is not None:
                    out.append(Fragment(full, _path_cost(inst, full), 1, "chain"))
            else:
                extend(path + (d,), onboard - {c}, new_load, t)
        for j in smalls:
            if j in path or load + inst.demand[j] > Q:
                continue
            t = max(arrive + T[last, j], e[j])
            if t > l[j] + EPS:
                continue
            extend(path + (j,), onboard | {j}, load + inst.demand[j], t)

    for i in smalls:
        extend((i,), {i}, int(inst.demand[i]), float(e[i]))
    return FragmentSet(inst, out)


def detour_instance():
    """The direct arc p1 -> d1 takes 100, the detour p1 -> p2 -> d1 takes 2.
    A deadline on the direct arc, 10 - 100 < 0, would drop (1,2,3,4) and
    (1,2,4,3), which schedule; the closure gives 10 - 2."""
    T = np.full((6, 6), 1.0)
    np.fill_diagonal(T, 0.0)
    T[1, 3] = 100.0
    return make_instance(2, T, [0] * 6, [100, 10, 10, 10, 10, 100],
                         [0, 200, 200], [0, 1, 1, -1, -1, 0], capacity=2,
                         name="detour")


def sub_eps_detour_instance():
    """Every triangle holds up to 0.9 EPS, but the chain p1 -> p2 -> p3 -> d1
    of unit arcs beats the direct arc T[p1,d1] = 3 + 1.8 EPS.  Fragments
    from p1 reach d1 at 3, within l_d1 + EPS = 3 + 0.5 EPS; a deadline on
    T, 3 - 0.5 EPS - T[p1,d1], lies 2.3 EPS below the start at 0, so it
    would drop them even with an EPS-tolerant triangle guard."""
    delta = 0.9 * EPS
    T = np.full((8, 8), 10.0)
    chain = (1, 2, 3, 4)  # p1, p2, p3, d1 on a line
    for a in chain:
        for b in chain:
            T[a, b] = abs(a - b)
    T[1, 3] = T[2, 4] = 2.0 + delta
    T[1, 4] = 3.0 + 2 * delta
    np.fill_diagonal(T, 0.0)
    latest = [100.0] * 8
    latest[4] = 3.0 - 0.5 * EPS
    return make_instance(3, T, [0.0] * 8, latest, [0, 200, 200, 200],
                         [0, 1, 1, 1, -1, -1, -1, 0], capacity=3,
                         name="sub-eps-detour")


def triangle_slack(T):
    """Largest T[i,j] - (T[i,k] + T[k,j]) over all i, j, k."""
    return float(np.max(T[:, None, :] - T[:, :, None] - T[None, :, :]))


def eps_tie_instance():
    """Metric matrix on which (1,2,3,4) reaches d2 half an EPS after l_d2,
    which the window tests accept.  The deadline of prefix (1,2) must come
    from delivering 1 first, and D(d1, {2}) lies half an EPS below e_d1: a
    deadline test with less slack than the window tests drops the
    fragment."""
    T = np.full((6, 6), 30.0)
    np.fill_diagonal(T, 0.0)
    T[3, 4] = 5.0
    T[4, 3] = 50.0
    return make_instance(2, T, [0, 0, 0, 70, 0, 0],
                         [500, 10, 40, 100, 75.0 - 0.5 * EPS, 500],
                         [0, 200, 200], [0, 1, 1, -1, -1, 0], capacity=2,
                         name="eps-tie")


def non_metric_fragments(seed, n=4):
    """Random travel times without the triangle inequality, windows wide
    enough that chains of two or three customers fit."""
    rng = np.random.default_rng(seed)
    m = 2 * n + 2
    T = rng.uniform(1.0, 40.0, size=(m, m))
    np.fill_diagonal(T, 0.0)
    earliest = np.zeros(m)
    latest = np.full(m, 1000.0)
    for i in range(1, n + 1):
        earliest[i] = rng.uniform(0.0, 40.0)
        latest[i] = earliest[i] + rng.uniform(10.0, 40.0)
        earliest[i + n] = earliest[i] + T[i, i + n]
        latest[i + n] = latest[i] + T[i, i + n] + rng.uniform(0.0, 40.0)
    demand = [0] + [1] * n + [-1] * n + [0]
    return make_instance(n, T, earliest, latest, [0.0] + [200.0] * n, demand,
                         capacity=3, name=f"non-metric{seed}")


def dataset2_fragments():
    """Small second-dataset instances from the sample file and from random
    bases; bases the tightening rejects are skipped."""
    out = []
    bases = [parse_cordeau(CORDEAU_SAMPLE, name="sample")] + [
        random_instance(seed, n=5, vehicles=2, capacity=3, large_share=0.0,
                        horizon=400.0, window=60.0) for seed in range(6)]
    for base in bases:
        for params in (DatasetParams(r_l=0.0, p_tw=30.0, p_de=2.0,
                                     variant="darp", fleet_multiplier=3),
                       DatasetParams(r_l=1.0 / 3.0, p_tw=15.0, p_de=1.5)):
            try:
                out.append(tighten_windows(build_dataset2(
                    tighten_windows(base), params)))
            except InfeasibleCustomerError:
                continue
    return out


PRUNE_CASES = [
    pytest.param(random_instance(seed, n=3 + seed % 4,
                                 capacity=2 + seed // 4 % 2,
                                 large_share=0.3 * (seed // 8 % 2)),
                 id=f"random{seed}")
    for seed in range(24)
] + [
    pytest.param(inst, id=f"dataset2-{k}")
    for k, inst in enumerate(dataset2_fragments())
] + [
    pytest.param(non_metric_fragments(seed), id=f"non-metric{seed}")
    for seed in range(6)
] + [
    pytest.param(detour_instance(), id="detour"),
    pytest.param(sub_eps_detour_instance(), id="sub-eps-detour"),
    pytest.param(eps_tie_instance(), id="eps-tie"),
]


@pytest.mark.parametrize("inst", PRUNE_CASES)
def test_deadline_prune_keeps_fragments(inst):
    assert dump_fragments(enumerate_fragments(inst)) == \
        dump_fragments(unpruned_fragments(inst))


def test_prune_cases_include_non_metric_matrices():
    cases = [p.values[0] for p in PRUNE_CASES]
    broken = [inst for inst in cases
              if triangle_slack(inst.travel_time) > 0.0]
    assert len(cases) - len(broken) >= 25 and len(broken) >= 6
    assert len(dataset2_fragments()) >= 3
    # the non-metric draws do produce fragments, so equality is not vacuous
    assert all(len(enumerate_fragments(inst)) > 0 for inst in broken)


def test_hand_built_cases_keep_their_chains():
    """Each hand-built case has the chain that a too-tight deadline drops,
    so comparing it with the unpruned DFS is not vacuous."""
    def paths(inst):
        return {f.path for f in enumerate_fragments(inst)}

    assert {(1, 2, 3, 4), (1, 2, 4, 3)} <= paths(detour_instance())
    inst = sub_eps_detour_instance()
    assert 0.0 < triangle_slack(inst.travel_time) < EPS
    assert (1, 2, 3, 4) in {p[:4] for p in paths(inst)}
    inst = eps_tie_instance()
    assert triangle_slack(inst.travel_time) <= 0.0
    assert (1, 2, 3, 4) in paths(inst)
