"""Layer spans recorded from outside the program.

``Tracer`` wraps every function listed in ``tssos.__all__`` plus
``BlockSdp.canonical`` at every place a ``tssos.*`` module binds it.  A span
belongs to the layer named by the wrapped function's module (``solver``,
``graphs``, ...); the benchmark opens the root ``cli`` span around
``tssos.cli.main``.  Spans stay in memory until ``dump`` writes them.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Counts are read off arguments and return values at the
same boundaries; the time spent counting is excluded from every span.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Dict, List

MIB = 1024.0 * 1024.0

# per-layer metrics besides "<layer>.self_s", in the order they are reported
LAYERS = ("solver", "graphs", "basis", "assembly", "sdpa", "poly", "cli")
COUNTS = (
    "solver.iters", "solver.blocks", "solver.blocks_1x1", "solver.max_block",
    "solver.stack_mb_computed", "solver.schur_mb_computed",
    "graphs.edges", "graphs.cliques", "graphs.max_clique", "graphs.stabilized_at",
    "basis.size", "basis.reduced_size",
    "assembly.rows", "assembly.entries",
    "sdpa.bytes", "poly.parse_calls",
)
MAXIMA = {"solver.max_block", "graphs.max_clique"}


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class _Span:
    __slots__ = ("sid", "op", "name", "layer", "parent", "start", "end", "hidden")

    def __init__(self, sid, op, name, layer, parent):
        self.sid, self.op, self.name, self.layer, self.parent = sid, op, name, layer, parent
        self.start = time.perf_counter()
        self.end = 0.0
        self.hidden = 0.0  # counting time spent inside this span


class Tracer:
    def __init__(self):
        import tssos
        from tssos.assembly import BlockSdp

        targets = {}
        for name in tssos.__all__:
            obj = getattr(tssos, name)
            if inspect.isfunction(obj):
                targets[obj] = self._wrap(obj, obj.__name__)
        targets[BlockSdp.canonical] = self._wrap(BlockSdp.canonical, "canonical")
        self._patches = [(BlockSdp, "canonical", BlockSdp.__dict__["canonical"],
                          targets[BlockSdp.canonical])]
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "tssos" or modname.startswith("tssos.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in targets:
                    self._patches.append((mod, attr, val, targets[val]))
        self.spans: List[_Span] = []
        self._stack: List[_Span] = []
        self.counts: Dict[tuple, float] = defaultdict(float)  # (op, metric) -> value
        self.op = None

    # -- installing ------------------------------------------------------

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- spans ------------------------------------------------------------

    def open(self, name: str, layer: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        span = _Span(len(self.spans), self.op, name, layer, parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: _Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        layer = _layer(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            t = time.perf_counter()
            self._count(span, args, result)
            if span.parent is not None:
                span.parent.hidden += time.perf_counter() - t
            return result

        return traced

    # -- counts -------------------------------------------------------------

    def _add(self, metric: str, value: float):
        key = (self.op, metric)
        if metric in MAXIMA:
            self.counts[key] = max(self.counts[key], value)
        else:
            self.counts[key] += value

    def _count(self, span: _Span, args, result):
        caller = span.parent.layer if span.parent is not None else None
        name, layer = span.name, span.layer
        if name == "solve_canonical":
            prob = args[0]
            sizes = list(prob.block_sizes)
            touching = [set() for _ in sizes]
            for i, row in enumerate(prob.a_entries):
                for ent in row:
                    touching[ent[0]].add(i)
            self._add("solver.iters", result.iterations)
            self._add("solver.blocks", len(sizes))
            self._add("solver.blocks_1x1", sum(1 for s in sizes if s == 1))
            self._add("solver.max_block", max(sizes, default=0))
            self._add("solver.stack_mb_computed",
                      sum(len(t) * s * s * 8 for t, s in zip(touching, sizes)) / MIB)
            self._add("solver.schur_mb_computed", prob.n_constraints ** 2 * 8 / MIB)
        elif name in ("iterate_unconstrained", "iterate_constrained"):
            self._add("graphs.edges", sum(g.n_edges for g in result.levels[-1]))
            self._add("graphs.stabilized_at", result.stabilized_at or 0)
        elif name == "maximal_cliques" and caller != "graphs":
            self._add("graphs.cliques", len(result.cliques))
            self._add("graphs.max_clique", max((len(c) for c in result.cliques), default=0))
        elif name == "canonical":
            prob = result[0]
            self._add("assembly.rows", prob.n_constraints)
            self._add("assembly.entries", len(prob.c_entries) + sum(len(r) for r in prob.a_entries))
        elif name == "export_sdpa":
            self._add("sdpa.bytes", os.path.getsize(args[1]))
        elif layer == "basis" and caller != "basis":
            self._add("basis.reduced_size" if name.startswith("reduce") else "basis.size", len(result))
        elif layer == "poly" and caller != "poly" and name.startswith("parse"):
            self._add("poly.parse_calls", 1)

    # -- results ---------------------------------------------------------------

    def per_op(self) -> Dict[object, Dict[str, float]]:
        """Layer self times, canonical time and counts for every operation."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent.sid] += s.end - s.start
        out: Dict[object, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            dur = s.end - s.start
            out[s.op][s.layer + ".self_s"] += dur - covered[s.sid] - s.hidden
            if s.name == "canonical":
                out[s.op]["assembly.canonical_s"] += dur - s.hidden
        for (op, metric), value in self.counts.items():
            out[op][metric] = value
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.op, s.name, s.layer,
                                     s.parent.sid if s.parent is not None else None,
                                     s.start, s.end]) + "\n")
