"""In-memory span tracer that wraps darpsv's public functions from outside.

Modules bind each other's functions with ``from .x import f``, so a
wrapper replaces every binding of the original object in every loaded
``darpsv`` module, and ``restore`` puts each one back.  A span is
``[name, start, end, parent, solve]``; the parent is the index of the
enclosing span and ``solve`` the benchmark's solve id.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, SOLVE = range(5)


def _count(metric, measure):
    def hook(tracer, result):
        tracer.counts[metric] += measure(result)
    return hook


def _net_stats(tracer, net):
    stats = net.stats()
    tracer.counts["timespace.ts_arcs"] += stats["ts_arcs"]
    tracer.counts["timespace.grid_points"] += stats["grid_points"]


def _events(tracer, net):
    tracer.counts["events.V_E"] += net.num_events
    tracer.counts["events.A_E"] += net.num_arcs


def _model(tracer, built):
    model = built[0]
    tracer.counts["formulations.model_vars"] += model.num_vars
    tracer.counts["formulations.model_constrs"] += model.num_constrs


#: (module, function, span name, result hook)
TARGETS = (
    ("darpsv.events", "enumerate_events", "events.enumerate", _events),
    ("darpsv.fragments", "enumerate_fragments", "fragments.enumerate",
     _count("fragments.F", len)),
    ("darpsv.fragments", "feasible_schedule", "fragments.schedule", None),
    ("darpsv.fragments", "start_interval", "fragments.start_interval", None),
    ("darpsv.timespace", "expand_fragments", "timespace.expand", _net_stats),
    ("darpsv.formulations", "solve_ebf", "formulations.solve_ebf", None),
    ("darpsv.formulations", "build_ebf", "formulations.build", _model),
    ("darpsv.formulations", "build_tsfrag", "formulations.build", _model),
    ("darpsv.formulations", "extract_routes_ebf", "formulations.decompose", None),
    ("darpsv.formulations", "decompose_tsfrag", "formulations.decompose", None),
    ("darpsv.milp", "resolve_with_cuts", "milp.resolve_with_cuts",
     _count("milp.cuts", lambda out: out[1].num_cuts)),
    ("darpsv.milp", "solve", "milp.solve",
     _count("milp.highs_s", lambda sol: sol.solve_seconds)),
    ("darpsv.ddd", "ddd_solve", "ddd.solve", None),
    ("darpsv.ddd", "selection_model", "ddd.select", None),
    ("darpsv.ddd", "refine_grid", "ddd.refine", None),
    ("darpsv.validate", "check", "validate.check", None),
)

#: layers whose spans run inside solves, each reported with its self time
LAYERS = ("events", "fragments", "timespace", "formulations", "milp", "ddd",
          "validate")


def darpsv_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if name == "darpsv" or name.startswith("darpsv.")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.solve_id = None
        self._stack = []
        self._patches = []  # (module, attribute, original)

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.solve_id])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()

    @contextmanager
    def solve(self, solve_id):
        self.solve_id = solve_id
        try:
            yield
        finally:
            self.solve_id = None

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None and self.solve_id is not None:
                hook(self, result)
            return result
        traced.traced_span = name
        return traced

    def install(self):
        """Replace every darpsv binding of each target with a wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self._wrapper(original, name, hook)
            for _, mod in darpsv_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._patches.append((mod, key, original))

    def restore(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    @staticmethod
    def leftover_wrappers():
        """``module.attribute`` of every wrapper still bound in darpsv."""
        return sorted(f"{mod_name}.{key}"
                      for mod_name, mod in darpsv_modules()
                      for key, value in vars(mod).items()
                      if hasattr(value, "traced_span"))

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- reduction ---------------------------------------------------------

    def children_seconds(self):
        """Per span, the seconds its direct children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                covered[s[PARENT]] += s[END] - s[START]
        return covered

    def metrics(self, suite_s):
        """Per-layer metrics of the spans inside solves, plus instance
        building; ``suite_s`` is the traced wall time of the solves."""
        covered = self.children_seconds()
        spans = self.spans

        def dur(s):
            return s[END] - s[START]

        def parent_name(s):
            return None if s[PARENT] is None else spans[s[PARENT]][NAME]

        total = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        top = 0.0
        for k, s in enumerate(spans):
            if s[SOLVE] is None and s[NAME] != "instance.build":
                continue  # the benchmark's own checks between solves
            total[s[NAME]] += dur(s)
            calls[s[NAME]] += 1
            if s[SOLVE] is not None:
                self_s[s[NAME].split(".")[0]] += dur(s) - covered[k]
                if s[PARENT] is None:
                    top += dur(s)
        in_enum = [k for k, s in enumerate(spans) if s[NAME] == "fragments.schedule"
                   and parent_name(s) == "fragments.enumerate"]
        schedule_calls = len(in_enum)
        schedule_s = sum(dur(spans[k]) for k in in_enum)
        master_s = sum(dur(s) for s in spans if s[NAME] == "milp.resolve_with_cuts"
                       and parent_name(s) == "ddd.solve")
        c = self.counts
        out = {
            "instance.build_s": total["instance.build"],
            "events.enumerate_s": total["events.enumerate"],
            "events.V_E": c["events.V_E"],
            "events.A_E": c["events.A_E"],
            "fragments.enumerate_s": total["fragments.enumerate"],
            "fragments.enumerate_self_s": total["fragments.enumerate"] - schedule_s,
            "fragments.F": c["fragments.F"],
            "fragments.schedule_calls": schedule_calls,
            "fragments.schedule_s": schedule_s,
            "fragments.emit_ratio": (c["fragments.F"] / schedule_calls
                                     if schedule_calls else 0.0),
            "timespace.expand_s": total["timespace.expand"],
            "timespace.expand_calls": calls["timespace.expand"],
            "timespace.ts_arcs": c["timespace.ts_arcs"],
            "timespace.grid_points": c["timespace.grid_points"],
            "formulations.build_s": total["formulations.build"],
            "formulations.decompose_s": total["formulations.decompose"],
            "formulations.model_vars": c["formulations.model_vars"],
            "formulations.model_constrs": c["formulations.model_constrs"],
            "milp.solve_calls": calls["milp.solve"],
            "milp.highs_s": c["milp.highs_s"],
            "milp.convert_s": total["milp.solve"] - c["milp.highs_s"],
            "milp.cuts": c["milp.cuts"],
            "ddd.iterations": c["ddd.iterations"],
            "ddd.master_s": master_s,
            "ddd.select_s": total["ddd.select"],
            "ddd.select_calls": calls["ddd.select"],
            "ddd.refine_s": total["ddd.refine"],
            "validate.check_s": total["validate.check"],
            "validate.check_calls": calls["validate.check"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["trace.uncovered_share"] = (suite_s - top) / suite_s if suite_s else 0.0
        return out

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, solve in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "solve": solve}) + "\n")
