"""Smoke tests of tools/fingerprint.py on one draw, of
tools/compare_reports.py on two small record lists and of tools/ladder.py
on its smallest rung."""
import importlib.util
import json
from pathlib import Path

from darpsv import METHODS

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name="fingerprint"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_fingerprint_of_one_draw_is_repeatable():
    tool = load_tool()
    assert not tool.draw(0).large_pickups  # so tsfrag+c runs too
    records = []
    first = tool.fingerprint(tool.draw_cases([0]), records)
    assert {m: count for m, (count, _, _) in first.items()} == {
        m: 2 if m in tool.FIXED_GRID else 1 for m in METHODS}
    assert len(records) == sum(count for count, _, _ in first.values())
    assert all("seconds" not in r["report"] for r in records)
    assert tool.fingerprint(tool.draw_cases([0])) == first


def _record(case, method, status="optimal", objective=10.0, bound=10.0,
            iterations=None):
    return {"case": case, "method": method,
            "report": {"status": status, "objective": objective,
                       "bound": bound, "stats": {"iterations": iterations}}}


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_compare_reports_flags_outcome_changes_and_lists_moved_iterations(
        tmp_path, capsys):
    tool = load_tool("compare_reports")
    old = [_record("a", "ebf"), _record("a", "tsfrag+ddd", iterations=8),
           _record("b", "tsfrag+ddd", iterations=3)]
    # objective and bound within 1e-9 relative; iterations moved
    same = [_record("a", "ebf", objective=10.0 + 1e-9),
            _record("a", "tsfrag+ddd", iterations=5),
            _record("b", "tsfrag+ddd", iterations=3)]
    assert tool.compare(old, same) == {
        "ebf": ([], []), "tsfrag+ddd": ([], [("a", 8, 5)])}
    assert tool.main([_write_jsonl(tmp_path / "old.jsonl", old),
                      _write_jsonl(tmp_path / "same.jsonl", same)]) == 0
    assert "a iterations: 8 -> 5" in capsys.readouterr().out
    changed = [_record("a", "ebf", status="relaxation", objective=None),
               _record("a", "tsfrag+ddd", bound=9.9, iterations=8)]
    assert tool.compare(old, changed) == {
        "ebf": ([("a", "status", "optimal", "relaxation"),
                 ("a", "objective", 10.0, None)], []),
        "tsfrag+ddd": ([("a", "bound", 10.0, 9.9),
                        ("b", "report", True, False)], [])}
    assert tool.main([_write_jsonl(tmp_path / "old.jsonl", old),
                      _write_jsonl(tmp_path / "new.jsonl", changed)]) == 1


def test_ladder_runs_its_smallest_rung(capsys):
    tool = load_tool("ladder")
    assert tool.main(["sync-n24-v3-s2"]) == 0
    line, total = capsys.readouterr().out.splitlines()
    assert line.startswith("sync-n24-v3-s2 ") and total.startswith("total ")
    assert line.endswith("optimal  check ok") and "iterations" in line
