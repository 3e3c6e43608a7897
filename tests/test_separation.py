"""The shared subtour-separation loop decomposes each master solution once."""
import pytest

import darpsv
from darpsv import formulations, milp
from darpsv.instance import random_instance, tighten_windows

DECOMPOSERS = ("extract_routes_ebf", "decompose_tsef", "decompose_tsfrag")


@pytest.mark.parametrize("method", ["ebf", "tsef", "tsfrag", "tsfrag+c",
                                    "tsef+ddd", "tsfrag+ddd"])
@pytest.mark.parametrize("draw", ["subtour_regression", "seeded"])
def test_one_decomposition_per_master_solve(method, draw, subtour_regression,
                                            monkeypatch):
    if draw == "seeded":
        inst = tighten_windows(random_instance(2, n=5, capacity=2,
                                               large_share=0.0))
    else:
        inst = subtour_regression
    counts = {"solves": 0, "decompositions": 0}
    solve = milp.solve

    def counted_solve(model, *args, **kwargs):
        if model.name != "selection":  # DDD's selection model is no master
            counts["solves"] += 1
        return solve(model, *args, **kwargs)

    monkeypatch.setattr(milp, "solve", counted_solve)
    for name in DECOMPOSERS:
        def counted(*args, _decompose=getattr(formulations, name)):
            counts["decompositions"] += 1
            return _decompose(*args)
        monkeypatch.setattr(formulations, name, counted)

    report = darpsv.run_method(inst, method, resolution=10.0, initial_delta=10.0)
    # the seeded draw's fixed 10-minute optimum (73.82, below the true
    # 74.64) rounds arcs down onto paths that have no schedule
    relaxed = draw == "seeded" and method in ("tsef", "tsfrag")
    assert report.status == ("relaxation" if relaxed else "optimal")
    if draw == "subtour_regression" and method != "ebf":
        assert report.cuts >= 1  # the loop re-solved at least once
    assert counts["solves"] >= 1
    assert counts["decompositions"] == counts["solves"]


def test_flow_read_matches_per_variable_rounding():
    # one numpy read in place of a sol.value() call per variable: np.rint
    # and round() both round half to even, so the flows are identical
    import numpy as np
    rng = np.random.default_rng(0)
    values = np.concatenate([
        [0.5, 1.5, 2.5, -0.0, 1e-12, 0.9999999, 3.0000001, 2.0],
        rng.integers(0, 4, 200) + rng.choice([0.0, 0.5, 1e-7, -1e-7], 200)])
    sol = milp.MilpSolution("optimal", values, 0.0, 0.0, 0.0)
    idx = list(rng.permutation(len(values)))[:150]
    flow = formulations._flow(sol, idx)
    assert flow == [int(round(sol.value(i))) for i in idx]
    assert all(type(f) is int for f in flow)
