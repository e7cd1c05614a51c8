"""Span tracing of gridperc's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``gridperc`` module that holds it (``from .engine import percolate`` binds the
name in ``bounds`` too), and on the class for methods.  A span is
``(name, start, end, parent, request, extra)``: ``parent`` is the index of the
enclosing span, ``request`` the benchmark request that caused it, and ``extra``
a small dict of counts taken at the boundary (cells, nodes, bytes, the
exception raised).  Spans stay in memory; ``dump`` writes them out once the
traced pass ends, and ``layer_metrics`` derives the per-layer numbers.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute, class or None)
TRACED = (
    ("engine.fixed_point_mask", "gridperc.engine", "fixed_point_mask", None),
    ("engine.percolate", "gridperc.engine", "percolate", None),
    ("bounds.classify", "gridperc.bounds", "classify", None),
    ("bounds.perfect_audit", "gridperc.bounds", "perfect_audit", None),
    ("grid.embed", "gridperc.grid", "embed", None),
    ("grid.orient_set", "gridperc.grid", "orient_set", None),
    ("gridtext.parse_set", "gridperc.gridtext", "parse_set", None),
    ("gridtext.write_set", "gridperc.gridtext", "write_set", None),
    ("gridtext.render_trace", "gridperc.gridtext", "render_trace", None),
    ("catalog.loads", "gridperc.catalog", "loads", "Catalog"),
    ("catalog.verify", "gridperc.catalog", "verify", "CatalogEntry"),
    ("combine.combine", "gridperc.combine", "combine", None),
    ("combine.thickness1_entry", "gridperc.combine", "thickness1_entry", None),
    ("families.assemble_family", "gridperc.families", "assemble_family", None),
    ("families.discover_family", "gridperc.families", "discover_family", None),
    ("pipelines.perfect", "gridperc.pipelines", "perfect", "Builder"),
    ("pipelines.optimal", "gridperc.pipelines", "optimal", "Builder"),
    ("pipelines.build_perfect_4", "gridperc.pipelines", "build_perfect_4", "Builder"),
    ("pipelines.build_optimal", "gridperc.pipelines", "build_optimal", "Builder"),
    ("search.find_at_bound", "gridperc.search", "find_at_bound", None),
    ("search.min_exhaustive", "gridperc.search", "min_exhaustive", None),
    ("milestones.extract_milestones", "gridperc.milestones", "extract_milestones", None),
)

BUILDER_SPANS = frozenset(name for name, _, _, cls in TRACED if cls == "Builder")


def _extra(name: str, args: tuple, result) -> dict | None:
    """Counts read at the span boundary from arguments and result."""
    if name == "engine.fixed_point_mask":
        # the last, unproductive step is simulated too
        return {"cell_steps": args[0].volume * (result[1] + 1)}
    if name == "engine.percolate":
        return {"cells": args[0].volume}
    if name in ("search.find_at_bound", "search.min_exhaustive"):
        return {"nodes": result.nodes_explored}
    if name == "gridtext.parse_set":
        return {"bytes": len(args[0])}
    if name in ("gridtext.write_set", "gridtext.render_trace"):
        return {"bytes": len(result)}
    return None


class Tracer:
    """Records spans while ``active``; wrappers are pass-through otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.request: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None, tracer.request, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            span[5] = _extra(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every traced name wherever a gridperc module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "gridperc" or n.startswith("gridperc.")]
        for name, module_name, attr, cls_name in TRACED:
            module = sys.modules[module_name]
            if cls_name is not None:
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, patched)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def dump(path, passes: list[list[list]]) -> None:
    """One JSON object per span: pass, id, name, start, end, parent, request, extra.

    Pass 0 holds the set-up spans; ids and parents count within a pass.
    """
    with open(path, "w", encoding="utf-8") as out:
        for k, spans in enumerate(passes):
            for i, (name, start, end, parent, request, extra) in enumerate(spans):
                out.write(json.dumps({
                    "pass": k, "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "extra": extra,
                }) + "\n")


# smaller simulations are dominated by per-call costs and flatten the slope
SCALING_MIN_CELLS = 4096


def _loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(volume) over calls of at
    least SCALING_MIN_CELLS cells; 0 without two distinct volumes."""
    pts = [(math.log(v), math.log(t)) for v, t in points if v >= SCALING_MIN_CELLS and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers over the spans of one pass over a workload's inputs.

    Self time is a span's duration minus that of its direct children (spans
    nest on one thread, so children never overlap).
    """
    n = len(spans)
    child_time = [0.0] * n
    under_discover = [False] * n
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
            under_discover[i] = under_discover[parent]
        if name == "families.discover_family":
            under_discover[i] = True

    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(int)
    percolate_points = []
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        inclusive[name] += dur
        self_s[name] += dur - child_time[i]
        extra = extra or {}
        for key, value in extra.items():
            if key != "error":
                sums[f"{name}.{key}"] += value
        if name == "engine.percolate":
            percolate_points.append((extra["cells"], dur))
        if name == "bounds.classify" and parent is not None and spans[parent][0] == "combine.combine":
            sums["combine.tries"] += 1
        if name == "engine.fixed_point_mask" and under_discover[i]:
            sums["families.discover_family.sims"] += 1
        if name in BUILDER_SPANS:
            sums["pipelines.plan_self_s"] += dur - child_time[i]
            if parent is None and extra.get("error") == "DependencyError":
                sums["pipelines.dependency_errors"] += 1

    # every ratio below is printed with its base: the numerator is a metric of
    # its own, the denominator one of the calls or self_s metrics
    text_layers = ("gridtext.parse_set", "gridtext.write_set", "gridtext.render_trace")
    text_bytes = sum(sums[f"{t}.bytes"] for t in text_layers)
    text_time = sum(self_s[t] for t in text_layers)
    me_time = inclusive["search.min_exhaustive"]

    return {
        "engine.fixed_point_mask.calls": calls["engine.fixed_point_mask"],
        "engine.fixed_point_mask.self_s": self_s["engine.fixed_point_mask"],
        "engine.fixed_point_mask.cell_steps": sums["engine.fixed_point_mask.cell_steps"],
        "engine.fixed_point_mask.cell_steps_per_s": _ratio(
            sums["engine.fixed_point_mask.cell_steps"], self_s["engine.fixed_point_mask"]),
        "engine.percolate.calls": calls["engine.percolate"],
        "engine.percolate.self_s": self_s["engine.percolate"],
        "engine.percolate.cells": sums["engine.percolate.cells"],
        "engine.percolate.cells_per_s": _ratio(sums["engine.percolate.cells"], self_s["engine.percolate"]),
        "engine.percolate.scaling_exp": _loglog_slope(percolate_points),
        "engine.percolate.scaling_calls": sum(1 for v, _ in percolate_points if v >= SCALING_MIN_CELLS),
        "bounds.classify.calls": calls["bounds.classify"],
        "bounds.classify.self_s": self_s["bounds.classify"],
        "bounds.perfect_audit.self_s": self_s["bounds.perfect_audit"],
        "grid.embed.calls": calls["grid.embed"],
        "grid.embed.self_s": self_s["grid.embed"],
        "grid.orient_set.calls": calls["grid.orient_set"],
        "grid.orient_set.self_s": self_s["grid.orient_set"],
        "gridtext.parse_set.self_s": self_s["gridtext.parse_set"],
        "gridtext.write_set.self_s": self_s["gridtext.write_set"],
        "gridtext.render_trace.self_s": self_s["gridtext.render_trace"],
        "gridtext.bytes": text_bytes,
        "gridtext.bytes_per_s": _ratio(text_bytes, text_time),
        "catalog.verify.calls": calls["catalog.verify"],
        "catalog.verify.self_s": self_s["catalog.verify"],
        "combine.combine.calls": calls["combine.combine"],
        "combine.combine.self_s": self_s["combine.combine"],
        "combine.tries": sums["combine.tries"],
        "combine.tries_per_call": _ratio(sums["combine.tries"], calls["combine.combine"]),
        "combine.thickness1_entry.self_s": self_s["combine.thickness1_entry"],
        "families.assemble_family.calls": calls["families.assemble_family"],
        "families.assemble_family.self_s": self_s["families.assemble_family"],
        "families.discover_family.self_s": self_s["families.discover_family"],
        "families.discover_family.sims": sums["families.discover_family.sims"],
        "pipelines.perfect.calls": calls["pipelines.perfect"],
        "pipelines.optimal.calls": calls["pipelines.optimal"],
        "pipelines.plan_self_s": sums["pipelines.plan_self_s"],
        "pipelines.dependency_errors": sums["pipelines.dependency_errors"],
        "search.find_at_bound.self_s": self_s["search.find_at_bound"],
        "search.find_at_bound.sims": sums["search.find_at_bound.nodes"],
        "search.min_exhaustive.nodes": sums["search.min_exhaustive.nodes"],
        "search.min_exhaustive.total_s": me_time,
        "search.min_exhaustive.nodes_per_s": _ratio(sums["search.min_exhaustive.nodes"], me_time),
        "milestones.extract_milestones.self_s": self_s["milestones.extract_milestones"],
    }
