"""The benchmark's tracer wraps solver functions by (module, name); a
renamed or moved function would make `perfbench/run.py --trace 1` crash.
The benchmark's own self-test runs here too, in a subprocess."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.TARGETS]


@pytest.mark.parametrize("module, attr", span_targets())
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
