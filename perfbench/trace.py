"""In-process tracing by wrappers around the program's public functions.

`Tracer.install()` replaces every public function of the traced modules, in
every module namespace that binds it, with a wrapper that records a span:
name, start, end, parent span and graph id.  Spans stay in memory until
`uninstall()`; `self_times` and `layer_table` derive per-layer costs.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from typing import Optional

TRACED_MODULES = ("graphcore", "rigidity", "spectral", "oracle", "verify",
                  "cli")
PACKAGE = "rigidspec"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 at the root
    graph: int   # corpus graph id, -1 outside a corpus graph


class Tracer:
    def __init__(self, item_start: Optional[tuple[str, str]] = None):
        """`item_start` = (span name, parent span name): each span of that
        name opened directly under that parent starts the next graph id."""
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._graph = -1
        self._item_start = item_start
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if self._item_start == (
                name, spans[parent].name if parent >= 0 else None
            ):
                self._graph += 1
            idx = len(spans)
            spans.append(Span(name, clock(), 0.0, parent, self._graph))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx].end = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        mods = [importlib.import_module(f"{PACKAGE}.{m}")
                for m in TRACED_MODULES]
        mods.append(importlib.import_module(PACKAGE))
        wrappers: dict[int, object] = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith(PACKAGE + "."):
                    continue
                key = id(obj)
                if key not in wrappers:
                    layer = home.rsplit(".", 1)[1]
                    wrappers[key] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[key])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "graph": s.graph,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total self time in seconds and the number of calls."""
    table: dict[str, dict[str, float]] = {}
    for s, st in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        row["self_s"] += st
        row["calls"] += 1
    return table
