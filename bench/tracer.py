"""Spans around the dscodes layer entry points, recorded from outside.

No span lives in the program.  `Tracer.install()` replaces each entry
point named in `ENTRY_POINTS`, in every loaded `dscodes` module
namespace that holds it (so `cli.build_code_weights` and
`theorems.build_code_weights` are both wrapped), by a wrapper that
records a span; `uninstall()` puts the originals back.  A name the
program no longer has is skipped: it shows up as an absent span, never
as an error.

A span is `[key, start, end, parent, child_s, tags, outermost]`: times
from `time.perf_counter` (CLOCK_MONOTONIC on Linux, so spans recorded in
forked children share the parent's time line), `parent` the index of
the enclosing span or -1, `child_s` the time covered by direct children
and `outermost` true when no enclosing span has the same key.  Spans stay
in memory; the caller aggregates them and writes them out at the end.
"""

from __future__ import annotations

import fnmatch
import functools
import sys
import time

import numpy as np

SMALL_Q = 1 << 11  # code.weights.small_call_us covers calls with q <= 2^11

# span key -> (module, name pattern) pairs.  A pattern matches the public
# functions defined in that module; "Class.method" names one method.
ENTRY_POINTS = {
    "field.build": [("dscodes.field", "Field.__init__")],
    "sets.build": [
        ("dscodes.cli", "build_set"),
        ("dscodes.sets", "*"),
        ("dscodes.code", "DefiningSet.__post_init__"),
    ],
    "code.weights": [("dscodes.code", "build_code_weights")],
    "code.dual": [
        ("dscodes.code", name)
        for name in ("macwilliams_dual", "dual_distance", "pless_moments_check", "summarize")
    ],
    "spectra": [
        ("dscodes.spectra", name) for name in ("walsh_transform", "weil_sum", "tr_cubic_table")
    ],
    "theorems": [
        ("dscodes.theorems", pattern)
        for pattern in ("verify*", "scan*", "predict*", "thm1_property_test")
    ],
    "secretshare.minimal": [("dscodes.secretshare", "minimal_codewords")],
    "cli.render": [("dscodes.cli", "render")],
    "cli.main": [("dscodes.cli", "main")],
}


def _targets(module, pattern):
    """(owner, attribute, original) for every entry point matching pattern."""
    if "." in pattern:
        cls_name, attr = pattern.split(".", 1)
        cls = getattr(module, cls_name, None)
        if isinstance(cls, type) and attr in vars(cls):
            yield cls, attr, vars(cls)[attr]
        return
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
            and fnmatch.fnmatchcase(name, pattern)
        ):
            yield module, name, obj


def _size_tags(objs, classes) -> dict:
    """p, m, q, n, k and the number of distinct weights, from whichever
    fields, defining sets and weight distributions the call saw."""
    field_cls, set_cls, dist_cls = classes
    tags: dict = {}
    flat = []
    for o in objs:
        flat.extend(o if isinstance(o, tuple) else (o,))
    for o in flat:
        if dist_cls is not None and isinstance(o, dist_cls):
            for name in ("p", "m", "n", "k"):
                tags.setdefault(name, getattr(o, name, None))
            tags.setdefault("weights", len(getattr(o, "counts", ())))
        elif set_cls is not None and isinstance(o, set_cls):
            tags.setdefault("n", len(o.elements))
            flat.append(o.field)
        elif field_cls is not None and isinstance(o, field_cls) and hasattr(o, "q"):
            for name in ("p", "m", "q"):
                tags.setdefault(name, getattr(o, name))
    return {k: v for k, v in tags.items() if v is not None}


def _report_count(result) -> int:
    """Claim instances in a theorems result: one report, or a list of them."""
    if hasattr(result, "verdict"):
        return 1
    if isinstance(result, list):
        return sum(hasattr(r, "verdict") for r in result)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "dscodes" or name.startswith("dscodes."))]
        classes = tuple(getattr(sys.modules["dscodes"], n, None)
                        for n in ("Field", "DefiningSet", "WeightDistribution"))
        wrappers = {}
        for key, entries in ENTRY_POINTS.items():
            for module_name, pattern in entries:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                for owner, attr, original in _targets(module, pattern):
                    wrapper = self._wrap(key, original, classes)
                    if isinstance(owner, type):
                        self._patch(owner, attr, original, wrapper)
                    else:
                        wrappers[id(original)] = (original, wrapper)
        # every module namespace that imported a wrapped function
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if value is original:
                    self._patch(module, attr, value, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, key, fn, classes):
        tracer = self
        clock = time.perf_counter
        name = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            outermost = all(spans[i][0] != key for i in stack)
            span = [key, clock(), 0.0, parent, 0.0, None, outermost]
            spans.append(span)
            stack.append(len(spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
                tags = _size_tags((*args, *kwargs.values(), result), classes)
                tags["fn"] = name
                if key == "field.build" and args:
                    tags["table_bytes"] = sum(
                        v.nbytes for v in vars(args[0]).values() if isinstance(v, np.ndarray)
                    )
                elif key == "cli.render" and isinstance(result, str):
                    tags["bytes"] = len(result.encode())
                elif key == "theorems":
                    tags["reports"] = _report_count(result)
                span[5] = tags

        return traced


def aggregate(spans: list[list]) -> dict:
    """Per-key totals over one pass: calls, self seconds and size sums."""
    out: dict = {}
    for key, start, end, _parent, child_s, tags, outermost in spans:
        a = out.setdefault(key, {"calls": 0, "self_s": 0.0, "sum_q": 0, "small_calls": 0,
                                 "small_self_s": 0.0, "table_bytes": 0, "bytes": 0, "reports": 0})
        self_s = (end - start) - child_s
        a["calls"] += 1
        a["self_s"] += self_s
        tags = tags or {}
        q = tags.get("q", 0)
        a["sum_q"] += q
        if 0 < q <= SMALL_Q:
            a["small_calls"] += 1
            a["small_self_s"] += self_s
        a["table_bytes"] += tags.get("table_bytes", 0)
        a["bytes"] += tags.get("bytes", 0)
        if outermost:
            a["reports"] += tags.get("reports", 0)
    return out


def accounting(spans: list[list], start: float, end: float) -> tuple[float, float]:
    """(sum of span self times, untraced gap time) inside [start, end].

    The gaps are the parts of the interval no top-level span covers;
    self times plus gaps must add up to end - start when every child
    span lies inside its parent."""
    self_total = sum((s[2] - s[1]) - s[4] for s in spans)
    gaps, cursor = 0.0, start
    for s in sorted((s for s in spans if s[3] < 0), key=lambda s: s[1]):
        if s[1] > cursor:
            gaps += s[1] - cursor
        cursor = max(cursor, s[2])
    gaps += max(0.0, end - cursor)
    return self_total, gaps


def tree(spans: list[list], origin: float) -> list[dict]:
    """Nested span records, times in ms from origin, for the trace file."""
    nodes = []
    for key, start, end, _parent, child_s, tags, _outer in spans:
        nodes.append({
            "name": key,
            "start_ms": round((start - origin) * 1e3, 4),
            "dur_ms": round((end - start) * 1e3, 4),
            "self_ms": round((end - start - child_s) * 1e3, 4),
            "tags": tags or {},
            "children": [],
        })
    roots = []
    for node, span in zip(nodes, spans):
        (nodes[span[3]]["children"] if span[3] >= 0 else roots).append(node)
    return roots
