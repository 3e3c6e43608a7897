"""Four formulations, one optimum.

EBF and ABF work in continuous time; TSFrag and TSEF discretize it. On an
exact grid (integer data, 1-minute steps) all four meet the brute-force
oracle. The validator double-checks every returned plan independently:
the time-space rows carry the earliest continuous schedule of their paths.
"""
import numpy as np

import darpsv
from darpsv.validate import brute_optimum, check

base = darpsv.random_instance(seed=11, n=3, vehicles=2, capacity=2,
                              large_share=0.4)
T = np.ceil(base.travel_time)
np.fill_diagonal(T, 0.0)
inst = darpsv.tighten_windows(base.replace(
    travel_time=T, travel_cost=T.copy(), earliest=np.floor(base.earliest),
    latest=np.ceil(base.latest), ride=np.ceil(base.ride)))
print(inst, f"large customers: {inst.large_pickups}\n")

obj, _ = brute_optimum(inst)
print(f"brute-force optimum: {obj:.2f}\n")

for name, run in [
    ("ebf", lambda: darpsv.solve_ebf(inst)),
    ("abf", lambda: darpsv.solve_abf(inst)),
    ("tsfrag (1 min)", lambda: darpsv.solve_tsfrag(inst, resolution=1.0)),
    ("tsef (1 min)", lambda: darpsv.solve_tsef(inst, resolution=1.0)),
    ("tsfrag+ddd", lambda: darpsv.ddd_solve(inst, "tsfrag")),
]:
    rep = run()
    violations = check(inst, rep.routes) if rep.routes else ["no routes"]
    print(f"{name:<15} obj {rep.objective:8.2f}  {rep.status:<9} "
          f"{rep.seconds * 1e3:6.1f} ms  validator: "
          f"{'clean' if not violations else violations}")
    assert not violations, name

rep = darpsv.ddd_solve(inst, "tsfrag")
print("\noptimal routes (synchronized stops share one departure time):")
for route in rep.routes.routes:
    stops = "  ".join(f"{loc}@{t:.1f}" for loc, t in route.stops)
    print(f"  vehicle {route.vehicle}: {stops}")
print(f"sync groups: {rep.routes.sync_groups}")
