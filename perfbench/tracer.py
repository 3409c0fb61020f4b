"""Span tracing of thinring's layers from outside the library.

Each public layer function is replaced, in the module that looks it up, by a
wrapper that records a span (name, start, end, parent span, state id).  The
state id counts ``newton_solve`` calls, so all spans of one solved state
share it.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module that looks the function up, attribute, span name, required).
# A required layer records calls on every workload at the seed commit;
# f_elliptic is the far-field fallback, which this regime never reaches.
SITES = (
    ("thinring.solver", "newton_solve", "solver.newton_solve", True),
    ("thinring.solver", "jacobian_fd", "solver.jacobian_fd", True),
    ("thinring.solver", "residual", "solver.residual", True),
    ("thinring.solver", "project_constraints", "shape.project_constraints", True),
    ("thinring.solver", "build_grid", "shape.build_grid", True),
    ("thinring.solver", "cosine_coeffs", "shape.cosine_coeffs", True),
    ("thinring.solver", "solve_inner", "inner.solve_inner", True),
    ("thinring.solver", "solve_outer", "outer.solve_outer", True),
    ("thinring.outer", "assemble_full", "outer.assemble_full", True),
    ("thinring.outer", "f_split", "special.f_split", True),
    ("thinring.outer", "f_elliptic", "special.f_elliptic", False),
)

ROOT_SPAN = "solver.newton_solve"

_UNITS = {"calls": "count", "points": "count", "self_s": "s", "total_s": "s",
          "points_per_call": "count/call", "share": "fraction",
          "residuals_per_state": "count/state",
          "iterations_per_state": "count/state",
          "residuals_per_jacobian": "count/jacobian",
          "jacobian_share": "fraction", "overhead_frac": "fraction"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    return _UNITS[metric.rsplit(".", 1)[1]]


class MissingLayerError(RuntimeError):
    """A required layer recorded no calls: a call site left the wrapper's view."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "state", "points")

    def __init__(self, name, parent, state, points):
        self.name = name
        self.parent = parent
        self.state = state
        self.points = points
        self.start = self.end = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._state = -1

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        counts_points = name.startswith("special.")

        def traced(*args, **kwargs):
            if name == ROOT_SPAN:
                self._state += 1
            span = Span(name, open_[-1] if open_ else None, self._state,
                        int(np.size(args[0])) if counts_points else 0)
            open_.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every site for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, _ in SITES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "state": s.state, "points": s.points}))
                fh.write("\n")

    def layer_metrics(self, wall: float, iterations: list[int]) -> dict:
        """Per-layer values over all recorded spans.

        wall is the traced wall time of the solve phase (denominator of the
        shares); iterations holds the Newton iteration count of each state.
        Raises MissingLayerError when a required layer has no calls.
        """
        names = [name for _, _, name, _ in SITES]
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        child = [0.0] * len(self.spans)
        points = dict.fromkeys(names, 0)
        fd_residuals = 0
        for s in self.spans:
            dur = s.end - s.start
            calls[s.name] += 1
            total[s.name] += dur
            points[s.name] += s.points
            if s.parent is not None:
                child[s.parent] += dur
                if (s.name == "solver.residual"
                        and self.spans[s.parent].name == "solver.jacobian_fd"):
                    fd_residuals += 1
        self_s = dict.fromkeys(names, 0.0)
        for i, s in enumerate(self.spans):
            self_s[s.name] += (s.end - s.start) - child[i]

        missing = [name for _, _, name, required in SITES
                   if required and calls[name] == 0]
        if missing:
            raise MissingLayerError(
                "no calls recorded for " + ", ".join(missing)
                + "; the seed commit records calls there, so the layer is "
                "missing from the trace, not free")

        states = calls[ROOT_SPAN]
        out = {}
        for name in ("special.f_split", "outer.assemble_full",
                     "outer.solve_outer", "inner.solve_inner"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["special.f_split.points"] = points["special.f_split"]
        out["special.f_split.points_per_call"] = (
            points["special.f_split"] / calls["special.f_split"])
        out["special.f_split.share"] = self_s["special.f_split"] / wall
        out["special.f_elliptic.calls"] = calls["special.f_elliptic"]
        out["inner.solve_inner.share"] = self_s["inner.solve_inner"] / wall
        for name in ("solver.newton_solve", "solver.jacobian_fd",
                     "solver.residual"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        out["solver.residuals_per_state"] = calls["solver.residual"] / states
        out["solver.residuals_per_jacobian"] = (
            fd_residuals / calls["solver.jacobian_fd"])
        out["solver.iterations_per_state"] = sum(iterations) / len(iterations)
        out["solver.jacobian_share"] = (
            total["solver.jacobian_fd"] / total["solver.newton_solve"])
        for name in ("shape.build_grid", "shape.project_constraints",
                     "shape.cosine_coeffs"):
            out[f"{name}.self_s"] = self_s[name]
        return out
