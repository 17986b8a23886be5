"""Spans and counters recorded from outside the library.

The tracer replaces module attributes that callers resolve at call time
(for example ``newcart.verify.check_compatibility_omega``, which ``run_all``
looks up in its own module, or ``Connection.christoffel``) with wrappers.
A function imported into several modules is wrapped in every one of them.
Spans stay in memory until the run writes them out once at the end.  A
target that no longer exists is listed in ``absent`` instead of failing.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter, defaultdict, namedtuple

import numpy as np

Span = namedtuple("Span", "name start end parent op")

# (module, attribute, metric name); "Class.method" patches the class
SPAN_TARGETS = (
    ("newcart.scenario", "load_scenario", "scenario.load_scenario"),
    ("newcart.verify", "run_all", "verify.run_all"),
    ("newcart.verify", "fd_validate", "verify.fd_validate"),
    ("newcart.verify", "check_compatibility_omega", "verify.check_compatibility_omega"),
    ("newcart.verify", "check_compatibility_metric", "verify.check_compatibility_metric"),
    ("newcart.verify", "check_torsion_clock", "verify.check_torsion_clock"),
    ("newcart.verify", "check_roundtrip", "verify.check_roundtrip"),
    ("newcart.geometry", "structure_entries", "geometry.structure_entries"),
    ("newcart.connection", "build_connection", "connection.build_connection"),
    ("newcart.connection", "Connection.christoffel", "connection.christoffel"),
    ("newcart.connection", "observable_map", "connection.observable_map"),
    ("newcart.expr", "differentiate", "expr.differentiate"),
    ("newcart.dynamics", "integrate_geodesic", "dynamics.integrate_geodesic"),
    ("newcart.dynamics", "trajectory_csv", "dynamics.trajectory_csv"),
    ("newcart.report", "CheckReport.to_json", "report.to_json"),
)
# called far too often for a span each: counted only
COUNT_TARGETS = (
    ("newcart.expr", "evaluate", "expr.evaluate"),
)
REPEAT_TARGET = "connection.christoffel"


def union_length(intervals, lo, hi):
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - union_length(children[k], s.start, s.end)
            for k, s in enumerate(spans)]


class RepeatCounter:
    """Share of calls whose key the same owner has already seen."""

    def __init__(self):
        self._seen = weakref.WeakKeyDictionary()
        self.calls = 0
        self.repeats = 0

    def observe(self, owner, key):
        seen = self._seen.setdefault(owner, set())
        self.calls += 1
        if key in seen:
            self.repeats += 1
        else:
            seen.add(key)

    @property
    def ratio(self):
        return self.repeats / self.calls if self.calls else 0.0


class Tracer:
    """Records spans and counts while installed; `op` labels what runs."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()          # (metric name, op) -> calls
        self.repeats = RepeatCounter()
        self.absent = []
        self.op = None
        self._stack = []
        self._depth = Counter()
        self._patches = []

    def _span(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter_ns
        repeats = self.repeats if name == REPEAT_TARGET else None

        def traced(*args, **kwargs):
            if depth[name]:  # recursion: the outermost span already covers it
                return fn(*args, **kwargs)
            if repeats is not None:
                repeats.observe(args[0], np.asarray(args[1], dtype=float).tobytes())
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = Span(name, start, end, stack[-1] if stack else -1, self.op)
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(name, self.op)] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every target that exists; record the names of those that do not."""
        self.absent = []
        wanted = [(t, self._span) for t in SPAN_TARGETS]
        wanted += [(t, self._count) for t in COUNT_TARGETS]
        for (module_name, attr, name), make in wanted:
            module = sys.modules.get(module_name)
            owner_name, _, attr_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr_name) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = make(name, original)
            if owner_name:
                self._patch(owner, attr_name, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "newcart" and getattr(mod, attr_name, None) is original:
                    self._patch(mod, attr_name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self, op_filter):
        """Per metric name: span count, total seconds, total self seconds, call count."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            if op_filter(span.op):
                row = out[span.name]
                row["calls"] += 1
                row["s"] += (span.end - span.start) * 1e-9
                row["self_s"] += own * 1e-9
        for (name, op), calls in self.counts.items():
            if op_filter(op):
                out[name]["calls"] += calls
        return out

    def dump(self):
        """Spans in a compact JSON-ready form: a name table and rows."""
        names = sorted({s.name for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        return {"names": names,
                "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                "spans": [[index[s.name], s.start, s.end, s.parent, s.op] for s in self.spans]}
