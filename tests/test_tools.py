"""Smoke test of tools/fingerprint.py on one draw."""
import importlib.util
from pathlib import Path

from darpsv import METHODS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
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
