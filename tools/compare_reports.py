"""Compare two `fingerprint.py --reports` files report by report.

    python3 tools/compare_reports.py OLD.jsonl NEW.jsonl

Reports are matched by case and method.  Per method it prints every
report whose status, objective or bound changed (numbers within 1e-9
relative count as equal), or that is in one file only, and every DDD
report whose iteration count moved.  It exits 1 when any status,
objective or bound changed or a report is missing, and 0 otherwise:
moved iteration counts alone are a record, not a failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

REL_TOL = 1e-9
COMPARED = ("status", "objective", "bound")


def load(path):
    """The records of one --reports file."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _same(old, new):
    if isinstance(old, float) and isinstance(new, float):
        return math.isclose(old, new, rel_tol=REL_TOL, abs_tol=REL_TOL)
    return old == new


def compare(old, new):
    """{method: (changes, moves)} over the records of both lists, in the
    order first seen.  A change is (case, field, old value, new value),
    with field "report" and values True/False for presence when a report
    is in one list only; a move is (case, old iterations, new iterations)
    of a DDD report."""
    before = {(r["case"], r["method"]): r["report"] for r in old}
    after = {(r["case"], r["method"]): r["report"] for r in new}
    result = {}
    for case, method in dict.fromkeys([*before, *after]):
        changes, moves = result.setdefault(method, ([], []))
        a, b = before.get((case, method)), after.get((case, method))
        if a is None or b is None:
            changes.append((case, "report", a is not None, b is not None))
            continue
        changes += [(case, f, a[f], b[f]) for f in COMPARED
                    if not _same(a[f], b[f])]
        its = a["stats"]["iterations"], b["stats"]["iterations"]
        if method.endswith("+ddd") and its[0] != its[1]:
            moves.append((case, *its))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="--reports file of the old tree")
    ap.add_argument("new", help="--reports file of the new tree")
    args = ap.parse_args(argv)
    result = compare(load(args.old), load(args.new))
    for method, (changes, moves) in result.items():
        print(f"{method}: {len(changes)} changed, {len(moves)} iteration "
              f"counts moved")
        for case, field, a, b in changes:
            print(f"  {case} {field}: {a} -> {b}")
        for case, a, b in moves:
            print(f"  {case} iterations: {a} -> {b}")
    return 1 if any(changes for changes, _ in result.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
