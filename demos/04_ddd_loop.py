"""Watching dynamic discretization discovery converge.

The loop starts from a 50-minute grid: arcs round down onto it, so the
master is a relaxation and its objective a valid lower bound. The schedule
oracle then asks whether the chosen paths admit a continuous schedule with
the actual arc lengths (Z = 0) -- if not, every arc the grid shortened is
flagged (Z counts them), gains time points, and the master re-solves.
Bounds only move up.
"""
import darpsv

inst = darpsv.tighten_windows(
    darpsv.random_instance(seed=23, n=4, vehicles=3, capacity=2,
                           large_share=0.3))
print(inst, "\n")

print("iteration trace (k, lower bound, Z, inserted points, master time):")
report = darpsv.ddd_solve(inst, "tsfrag", initial_delta=50.0,
                          trace=lambda line: print(" ", line))

print(f"\nconverged: {report.status}, objective {report.objective:.2f} "
      f"after {report.iterations} master solves, {report.cuts} subtour cuts")
print("history records (k, bound, z, new_points, master_seconds, cuts):")
for rec in report.history:
    print(f"  {rec.k:>2}  {rec.bound:8.2f}  Z={rec.z}  +{rec.new_points} pts"
          f"  {rec.cuts} cuts")

assert not darpsv.check(inst, report.routes)
print("\nfinal schedule passes the independent validator.")
