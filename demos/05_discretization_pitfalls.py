"""Two ways a coarse grid lies, and who is immune.

First pitfall: ride limits on discrete stamps. The route (p1,p2,d1,d2)
below schedules continuously at 600/624/626/650 with both ride limits 26
-- tight but feasible. On a 10-minute event grid every representable
schedule stretches one customer's ride past the limit, so the event-based
time-space master is infeasible on a feasible instance. TSEF is inexact,
so that proves nothing, and its report says `relaxation` (no bound, no
routes). Fragments are immune: their ride limits live inside the
fragment, not on grid stamps.

Second pitfall: rounded-down arcs can close time loops. A fragment whose
rounded copy ends where it started, plus a short return arc, forms a
depot-free subtour that flow conservation accepts. A lazy cut removes it;
finer grids never create it.
"""
import numpy as np

import darpsv
from darpsv.instance import Instance


def two_customer(T, earliest, latest, ride, name):
    m = 6
    return Instance(name, 2, 1, 2, np.zeros((m, 2)), np.zeros(m),
                    np.array([0, 1, 1, -1, -1, 0]), np.array(earliest),
                    np.array(latest), np.array(ride), T, T.copy())


# -- ride limits on stamps ----------------------------------------------------
T = np.full((6, 6), 200.0)
np.fill_diagonal(T, 0.0)
for i, j, v in [(1, 2, 24), (2, 3, 2), (3, 4, 24), (1, 3, 26), (2, 4, 26)]:
    T[i][j] = T[j][i] = v
for j in (1, 2, 3, 4):
    T[0][j] = 50.0
    T[j][5] = 10.0
T[0][5] = 0.0
inst = two_customer(T, [0, 600, 600, 600, 650, 0],
                    [2000, 600, 650, 650, 650, 2000], [0, 26, 26], "ride-pitfall")

sched = darpsv.feasible_schedule(inst, (1, 2, 3, 4))
print("continuous schedule of (p1,p2,d1,d2):",
      [round(t) for t in sched.times], "(rides 26 and 26)")
print("ebf:            ", darpsv.solve_ebf(inst).status)
print("tsef, 10-min:   ", darpsv.solve_tsef(inst, resolution=10.0).status)
print("tsef+ddd:       ", darpsv.ddd_solve(inst, "tsef").status,
      "(inexact: its ride rows read grid stamps and cut the only path)")
print("tsfrag+ddd:     ", darpsv.ddd_solve(inst, "tsfrag").status, "\n")

# -- rounding subtours --------------------------------------------------------
T = np.full((6, 6), 300.0)
np.fill_diagonal(T, 0.0)
T[1][2], T[2][3], T[3][4], T[4][1] = 6.0, 1.0, 1.0, 1.0
for j in (1, 2, 3, 4):
    T[0][j] = 100.0
    T[j][5] = 100.0
T[0][5] = 0.0
inst = two_customer(T, [0, 600, 600, 600, 600, 0],
                    [5000, 610, 620, 620, 620, 5000], [0, 30, 30],
                    "subtour-pitfall")

for res in (10.0, 5.0, 1.0):
    rep = darpsv.solve_tsfrag(inst, resolution=res)
    print(f"tsfrag at {res:>4.0f}-minute rounding: obj {rep.objective:.1f}, "
          f"{rep.cuts} subtour cut(s)")
print("\nAt 10 minutes the fragment's rounded copy plus the return arc close")
print("a cycle at one stamp; one lazy cut restores the true optimum.")
