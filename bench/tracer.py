"""Spans at mixednorm's module boundaries, recorded from outside the package.

The tracer rebinds names that one package module imported from another
(for example ``mixednorm.catalog.mixed_norm_log``) to wrappers that record a
span per call: name, start, end and the id of the enclosing span.  Nothing in
``src/`` changes; ``uninstall`` restores the original bindings.  Spans stay in
memory until ``dump`` writes them out.

Calls made in a worker thread whose own stack is empty (the ``--threads``
pool of ``sweep``) are parented to the span open on the main thread, so the
caller's self time excludes them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import threading
import time
from collections import defaultdict

# (calling module, imported name, span name).  A name missing from a module
# is skipped, so the table survives refactors of the package.
BOUNDARIES = (
    ("search", "build_instance", "catalog.build"),
    ("search", "evaluate_instance", "catalog.evaluate"),
    ("search", "orbit", "perms.orbit"),
    ("search", "orbit_info", "perms.orbit"),
    ("search", "as_exponent", "exponents"),
    ("search", "reciprocal", "exponents"),
    ("search", "Tensor", "spaces.tensor"),
    ("search", "mixed_norm_log", "spaces.norm"),
    ("search", "space_to_doc", "documents.to_doc"),
    ("search", "tensor_to_doc", "documents.to_doc"),
    ("catalog", "build_instance", "catalog.build"),
    ("catalog", "orbit", "perms.orbit"),
    ("catalog", "orbit_info", "perms.orbit"),
    ("catalog", "as_exponent", "exponents"),
    ("catalog", "reciprocal", "exponents"),
    ("catalog", "mixed_norm_log", "spaces.norm"),
    ("catalog", "mixed_norm_log_values", "spaces.norm"),
    ("catalog", "integrate_product_log", "spaces.integrate"),
    ("catalog", "log_values", "spaces.log_values"),
    ("perms", "harmonic_mean", "exponents"),
    ("spaces", "as_exponent", "exponents"),
    ("documents", "Tensor", "spaces.tensor"),
    ("cli", "space_from_doc", "documents.from_doc"),
    ("cli", "tensor_from_doc", "documents.from_doc"),
    ("cli", "instance_from_doc", "catalog.from_doc"),
    ("cli", "build_instance", "catalog.build"),
    ("cli", "evaluate_instance", "catalog.evaluate"),
    ("cli", "orbit", "perms.orbit"),
    ("cli", "orbit_info", "perms.orbit"),
    ("cli", "as_exponent", "exponents"),
    ("cli", "eval_mixed_norm", "spaces.norm"),
    ("cli", "mixed_norm_log", "spaces.norm"),
    ("cli", "random_inputs", "search.random_inputs"),
)

REDUCTIONS = ("spaces.norm", "spaces.integrate")


def _cells(args, kwargs):
    """Input cells of a spaces call: the first argument is a Tensor, an
    ndarray, or a list of Tensors over one space."""
    first = args[0] if args else next(iter(kwargs.values()))
    if isinstance(first, (list, tuple)):
        return first[0].values.size, len(first)
    values = getattr(first, "values", first)
    return values.size, 1


def _count(span_name, attr, args, kwargs, result):
    if span_name in REDUCTIONS or span_name == "spaces.log_values":
        cells, arrays = _cells(args, kwargs)
        out = {"spaces.bytes_computed": 8 * cells * arrays}
        if span_name in REDUCTIONS:
            out["spaces.cells"] = cells
        return out
    if attr == "orbit":
        return {"perms.orbit.specs": len(result)}
    return None


class _Traced:
    """Callable stand-in for a function or class; attribute access falls
    through to the original (``Tensor.constant`` keeps working)."""

    def __init__(self, tracer, fn, name, attr):
        self._tracer, self._fn, self._name, self._attr = tracer, fn, name, attr

    def __call__(self, *args, **kwargs):
        result = self._tracer.call(self._name, self._fn, args, kwargs)
        counts = _count(self._name, self._attr, args, kwargs, result)
        if counts:
            self._tracer.add(counts)
        return result

    def __getattr__(self, attr):
        return getattr(self._fn, attr)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or None, name, start, end)
        self.counts = defaultdict(float)
        self._next_id = 1
        self._main = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main[-1:]
            parent = main[0] if main and stack is not self._main else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def add(self, counts):
        with self._lock:
            for key, value in counts.items():
                self.counts[key] += value

    def install(self):
        """Rebind every boundary found; returns the names bound."""
        bound = []
        for mod_name, attr, span_name in BOUNDARIES:
            module = importlib.import_module(f"mixednorm.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, _Traced(self, original, span_name, attr))
            bound.append(f"{mod_name}.{attr}")
        return bound

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path):
        """Write spans and counters as gzipped JSON."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[s[0], s[1], index[s[2]], s[3], s[4]] for s in self.spans],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)

    def merge_dump(self, path):
        """Append spans and counters written by ``dump`` in another process,
        renumbering their ids."""
        with gzip.open(path, "rt") as fh:
            doc = json.load(fh)
        with self._lock:
            offset = self._next_id
            for sid, parent, name, start, end in doc["spans"]:
                self.spans.append(
                    (
                        sid + offset,
                        None if parent is None else parent + offset,
                        doc["names"][name],
                        start,
                        end,
                    )
                )
                self._next_id = max(self._next_id, sid + offset + 1)
        self.add(doc["counts"])


def _union(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans):
    """Per span name: calls, total and self seconds; plus the union of root
    spans and, per parent name, the count of reduction children."""
    children = defaultdict(list)
    for sid, parent, name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end, name))
    calls = defaultdict(int)
    self_s = defaultdict(float)
    reductions_under = defaultdict(int)
    roots = []
    for sid, parent, name, start, end in spans:
        kids = children.get(sid, ())
        covered = _union([(max(a, start), min(b, end)) for a, b, _ in kids if b > start and a < end])
        calls[name] += 1
        self_s[name] += (end - start) - covered
        reductions_under[name] += sum(1 for _, _, kid in kids if kid in REDUCTIONS)
        if parent is None:
            roots.append((start, end))
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "reductions_under": dict(reductions_under),
        "root_s": _union(roots),
    }
