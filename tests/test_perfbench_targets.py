"""The benchmark's tracer wraps solver functions by (module, name); a
renamed or moved function would make `perfbench/run.py --trace 1` crash."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.TARGETS]


@pytest.mark.parametrize("module, attr", span_targets())
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
