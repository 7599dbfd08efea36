"""Span tracing of the switchflow layers, installed from outside the package.

Wrappers replace the public functions of the traced modules on every
switchflow module attribute that refers to them (``chains`` and ``cli``
import by name, so patching only the defining module would miss their
calls), plus ``Grid.cells_within`` and the field classes' ``__call__``.
Each wrapper records one span (name, start, end, parent span, op id) in
flat in-memory arrays and bumps the counters measured at that boundary.
Spans are written once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("chains", "cli", "fields", "flow", "signals", "sequences", "literals")
OP_SPAN = "bench.op"

# Per-layer metrics reported by a traced run, as (name, unit, better).
PER_LAYER = (
    ("chains.query_calls", "count", "lower"),
    ("chains.query_hits", "count", "lower"),
    ("chains.query_s", "s", "lower"),
    ("chains.build_self_s", "s", "lower"),
    ("chains.edges", "count", "lower"),
    ("chains.edge_yield", "ratio", "higher"),
    ("chains.scc_s", "s", "lower"),
    ("chains.components", "count", "lower"),
    ("chains.hausdorff_s", "s", "lower"),
    ("chains.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("fields.calls", "count", "lower"),
    ("fields.points", "count", "lower"),
    ("fields.self_s", "s", "lower"),
    ("flow.segment_calls", "count", "lower"),
    ("flow.switched_calls", "count", "lower"),
    ("flow.rk4_steps", "count", "lower"),
    ("flow.self_s", "s", "lower"),
    ("signals.metric_calls", "count", "lower"),
    ("signals.metric_s", "s", "lower"),
    ("signals.shift_calls", "count", "lower"),
    ("signals.self_s", "s", "lower"),
    ("sequences.words", "count", "lower"),
    ("sequences.self_s", "s", "lower"),
    ("literals.parse_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _edge_count(cg) -> int:
    adjacency = getattr(cg, "adjacency", None)
    if isinstance(adjacency, dict):
        return sum(len(targets) for targets in adjacency.values())
    return int(getattr(adjacency, "nnz", 0))


def _tally(metric, amount):
    def count(counts, args, kwargs, result):
        counts[metric] += amount(result)
    return count


def _count_query(counts, args, kwargs, result):
    counts["chains.query_calls"] += 1
    counts["chains.query_hits"] += len(result)


def _count_field(counts, args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    counts["fields.calls"] += 1
    counts["fields.points"] += x.size // x.shape[-1] if x.ndim else 1


def _count_segment(counts, args, kwargs, result):
    system = _arg(args, kwargs, 0, "sys")
    dt = _arg(args, kwargs, 3, "dt")
    counts["flow.segment_calls"] += 1
    if dt != 0.0:
        counts["flow.rk4_steps"] += (max(1, math.ceil(abs(dt) / system.step))
                                     * system.substeps)


def _one(result) -> int:
    return 1


# Counters taken at a span boundary, keyed by span name; field classes'
# ``__call__`` spans all use _count_field.
COUNTERS = {
    "chains.Grid.cells_within": _count_query,
    "chains.build_chain_graph": _tally("chains.edges", _edge_count),
    "chains.chain_components": _tally("chains.components", len),
    "sequences.enumerate_admissible_words": _tally("sequences.words", len),
    "flow.integrate_segment": _count_segment,
    "flow.switched_flow": _tally("flow.switched_calls", _one),
    "signals.metric_delta": _tally("signals.metric_calls", _one),
    "signals.shift": _tally("signals.shift_calls", _one),
}


class Tracer:
    """In-memory span store plus boundary counters for one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        counter = (_count_field if name.startswith("fields.") and name.endswith(".__call__")
                   else COUNTERS.get(name))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def prepare(self) -> None:
        """Build the patch list against the loaded switchflow modules."""
        for layer in LAYERS:
            importlib.import_module(f"switchflow.{layer}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "switchflow" or name.startswith("switchflow.")}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"switchflow.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, value in vars(mod).items():
                if id(value) in wrappers:
                    self._patches.append((mod, attr, value, wrappers[id(value)]))
        classes = [("chains", getattr(modules["switchflow.chains"], "Grid"), "cells_within")]
        for attr, cls in vars(modules["switchflow.fields"]).items():
            if (inspect.isclass(cls) and cls.__module__ == "switchflow.fields"
                    and "__call__" in vars(cls)):
                classes.append(("fields", cls, "__call__"))
        for layer, cls, attr in classes:
            fn = vars(cls).get(attr)
            if fn is not None:
                self._patches.append(
                    (cls, attr, fn, self._wrap(fn, f"{layer}.{cls.__name__}.{attr}")))

    def install(self) -> None:
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn`` as one traced op; returns (result, wall seconds)."""
        self.op_id = op_id
        nid = self.name_id(OP_SPAN)
        self.install()
        try:
            i = self.open(nid)
            try:
                result = fn(*args)
            finally:
                self.close(i)
        finally:
            self.uninstall()
            self.op_id = -1
        return result, self.end[i] - self.start[i]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op means of layer self times, named span times and counts.

        A span's self time is its duration minus its direct children's
        durations; on one thread children nest inside their parent, so the
        layer self times plus the op span's own self time (the unattributed
        remainder) add up to the op's wall time.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        self_time = dur - children
        by_name_self = np.bincount(a["name"], weights=self_time, minlength=len(self.names))
        by_name_total = np.bincount(a["name"], weights=dur, minlength=len(self.names))

        def total(name: str) -> float:
            return float(by_name_total[self._ids[name]]) if name in self._ids else 0.0

        def own(prefix: str) -> float:
            return float(sum(by_name_self[i] for i, n in enumerate(self.names)
                             if n.startswith(prefix)))

        sums = {f"{layer}.self_s": own(f"{layer}.") for layer in LAYERS}
        sums["literals.parse_s"] = sums.pop("literals.self_s")
        sums.update({
            "chains.query_s": total("chains.Grid.cells_within"),
            "chains.build_self_s": own("chains.build_chain_graph"),
            "chains.scc_s": total("chains.chain_components"),
            "chains.hausdorff_s": total("chains.hausdorff_distance"),
            "signals.metric_s": total("signals.metric_delta"),
            "trace.op_s": total(OP_SPAN),
            "trace.unattributed_s": own(OP_SPAN),
            "trace.spans": float(len(dur) - int(np.sum(a["name"] == self._ids.get(OP_SPAN, -1)))),
        })
        sums.update(self.counts)
        n = max(n_ops, 1)
        out = {name: sums.get(name, 0.0) / n for name, _, _ in PER_LAYER
               if name not in ("chains.edge_yield", "trace.overhead_frac")}
        hits = out["chains.query_hits"]
        out["chains.edge_yield"] = out["chains.edges"] / hits if hits else 0.0
        return out
