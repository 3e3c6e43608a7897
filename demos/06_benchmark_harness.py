"""Dataset generation and the benchmark harness, end to end.

Builds a classic-style base instance, derives high-request-density
variants over the parameter grid (pickup windows compressed into one
hour, delivery windows rebuilt from direct travel times), then runs the
method matrix through the same entry points the CLI uses.
"""
import os
import tempfile

import numpy as np

from darpsv.cli import main

rng = np.random.default_rng(2024)
n, m = 6, 14
xy = rng.uniform(-10, 10, size=(m, 2))
xy[0] = xy[-1] = 0.0
rows = [f"2 {n} 480 3 30"]
for i in range(m):
    load = 1 if 1 <= i <= n else (-1 if n < i <= 2 * n else 0)
    if 1 <= i <= n:
        e = rng.uniform(60, 400)
        win = (e, e + 15)
    else:
        win = (0, 480)
    rows.append(f"{i} {xy[i][0]:.3f} {xy[i][1]:.3f} "
                f"{3 if 0 < i < m - 1 else 0} {load} {win[0]:.1f} {win[1]:.1f}")

with tempfile.TemporaryDirectory(prefix="darpsv-demo-") as tmp:
    base_path = os.path.join(tmp, "base.txt")
    with open(base_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote base instance: {base_path}")

    out_dir = os.path.join(tmp, "dataset2")
    main(["gen-dataset", base_path, "--out-dir", out_dir,
          "--r-l", "0.3333333333333333", "--p-tw", "15", "--p-de", "1.5,2.0",
          "--fleet-mult", "4"])

    instances = sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir))
    csv_path = os.path.join(tmp, "bench.csv")
    main(["bench", *instances, "--methods", "ebf,tsfrag+ddd,tsef+ddd",
          "--out", csv_path])
    print("\nbench CSV:")
    print(open(csv_path).read())

    print("solution files validate through the same front end:")
    sol = os.path.join(tmp, "sol.json")
    main(["solve", instances[0], "--formulation", "tsfrag", "--ddd", "--out", sol])
    code = main(["validate", instances[0], sol])
    print(f"validate exit code: {code} (0 means no violations)")
