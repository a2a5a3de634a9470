"""Spans and counters recorded from outside the gzcount package.

The tracer swaps the public functions and methods listed in ``TARGETS``
for wrappers, by assigning the module or class attribute, and puts the
originals back on ``restore``.  Nothing inside ``src/gzcount`` changes.

A span is ``(name_id, start, end, parent)`` with ``parent`` the index of
the enclosing span or -1.  Spans stay in memory until the pass ends.
A function that is re-entered while its own span is open gets no second
span: the inner call is only counted, so its time stays in the outer
span.  ``recurrence_V3`` recurses through its module-global name; its
outermost call puts the original back for the duration of the call,
counts the inner calls with a profile hook and raises the recursion
limit by the one frame the wrapper adds, so the same jobs hit
``RecursionError`` traced or not.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

LAYERS = ("polyseries", "counting", "oracle", "genfun", "cli")

# Span name, module, class (or None), attribute.  Two attributes may share
# a span name (``__mul__`` and ``__rmul__`` are both SparsePoly.mul).
TARGETS = (
    ("polyseries.SparsePoly.mul", "polyseries", "SparsePoly", "__mul__"),
    ("polyseries.SparsePoly.mul", "polyseries", "SparsePoly", "__rmul__"),
    ("polyseries.SparsePoly.pow", "polyseries", "SparsePoly", "__pow__"),
    ("polyseries.divide_exact", "polyseries", None, "divide_exact"),
    ("polyseries.TruncSeries.mul", "polyseries", "TruncSeries", "__mul__"),
    ("polyseries.TruncSeries.inv", "polyseries", "TruncSeries", "inv"),
    ("polyseries.TruncSeries.sqrt", "polyseries", "TruncSeries", "sqrt"),
    ("polyseries.TruncSeries.divdiff", "polyseries", "TruncSeries", "divdiff"),
    ("counting.a_infinity", "counting", None, "a_infinity"),
    ("counting.apply_A", "counting", None, "apply_A"),
    ("counting.count_by_fiber_recursion", "counting", None, "count_by_fiber_recursion"),
    ("counting.recurrence_V3", "counting", None, "recurrence_V3"),
    ("counting.binomial_formula_V", "counting", None, "binomial_formula_V"),
    ("counting.coeff_theorem_V", "counting", None, "coeff_theorem_V"),
    ("counting.g_polynomial", "counting", None, "g_polynomial"),
    ("counting.h_polynomial", "counting", None, "h_polynomial"),
    ("counting.tri_table", "counting", None, "tri_table"),
    ("counting.CountCache.load", "counting", "CountCache", "load"),
    ("counting.CountCache.save", "counting", "CountCache", "save"),
    ("oracle.build_hrep", "oracle", None, "build_hrep"),
    ("oracle.enumerate_vertices", "oracle", None, "enumerate_vertices"),
    ("genfun.build_G", "genfun", None, "build_G"),
    ("genfun.build_E", "genfun", None, "build_E"),
    ("genfun.closed_form_G3", "genfun", None, "closed_form_G3"),
    ("genfun.closed_form_E2", "genfun", None, "closed_form_E2"),
    ("genfun.closed_form_H", "genfun", None, "closed_form_H"),
    ("genfun.pde_residual", "genfun", None, "pde_residual"),
    ("genfun.dde_residual", "genfun", None, "dde_residual"),
    ("genfun.verify_pde_E", "genfun", None, "verify_pde_E"),
    ("genfun.verify_dde_G", "genfun", None, "verify_dde_G"),
    ("genfun.verify_g3", "genfun", None, "verify_g3"),
    ("genfun.verify_e2", "genfun", None, "verify_e2"),
    ("genfun.verify_h", "genfun", None, "verify_h"),
    ("genfun.g4_explore", "genfun", None, "g4_explore"),
    ("cli.main", "cli", None, "main"),
)

# Spans recorded by the benchmark itself rather than by a wrapper.
EXTRA_SPANS = ("cli.startup",)

SPAN_NAMES = tuple(dict.fromkeys([t[0] for t in TARGETS] + list(EXTRA_SPANS)))

# Functions that call themselves through their module-global name.
RECURSIVE = frozenset({"counting.recurrence_V3"})

# Functions whose results count towards genfun.series_terms.
SERIES_FUNCTIONS = frozenset({
    "genfun.build_G", "genfun.build_E", "genfun.closed_form_G3",
    "genfun.closed_form_E2", "genfun.closed_form_H",
})

# Frames the recursive wrapper adds below the recursion (its own); the
# recursion limit is raised by this much during the outermost call.  The
# profile hook needs no allowance: test_perfbench checks that traced and
# untraced recurrence_V3 fail at exactly the same depth.
RECURSION_EXTRA_FRAMES = 1


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self._open[name] += 1
        self.spans.append((self._name_id(name), self.clock(), 0.0, parent))
        return idx

    def end(self, idx: int) -> None:
        nid, start, _, parent = self.spans[idx]
        self.spans[idx] = (nid, start, self.clock(), parent)
        self._stack.pop()
        self._open[self.names[nid]] -= 1

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span (and count the call); returns its index."""
        self.calls[name] += 1
        self.spans.append((self._name_id(name), start, end, parent))
        return len(self.spans) - 1

    def add_foreign(self, other: "Tracer") -> None:
        """Append the spans and counters of a tracer from another process."""
        base = len(self.spans)
        for nid, start, end, parent in other.spans:
            self.spans.append((self._name_id(other.names[nid]), start, end,
                               parent + base if parent >= 0 else -1))
        self.calls.update(other.calls)
        self.counts.update(other.counts)

    def to_json(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "calls": dict(self.calls), "counts": dict(self.counts)}

    @classmethod
    def from_json(cls, data: dict) -> "Tracer":
        tracer = cls()
        tracer.names = list(data["names"])
        tracer.spans = [tuple(s) for s in data["spans"]]
        tracer.calls.update(data["calls"])
        tracer.counts.update(data["counts"])
        return tracer

    # ---------------------------------------------------------- wrappers

    def wrap(self, name: str, fn):
        calls = self.calls
        opened = self._open
        counts = self.counts
        on_result = None
        if name in SERIES_FUNCTIONS:
            def on_result(result):
                counts["genfun.series_terms"] += len(result.coeffs)
        elif name == "oracle.enumerate_vertices":
            def on_result(result):
                counts["oracle.vertices"] += len(result)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if opened[name]:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_recursive(self, name: str, fn, holders, attr: str):
        """Wrapper for a function that recurses through a global name.

        During the outermost call the original stands in ``holders`` (the
        modules that hold it as ``attr``), so the recursion runs unwrapped;
        a profile hook counts its calls.
        """
        code = fn.__code__
        calls = self.calls

        def wrapper(*args, **kwargs):
            inner = 0

            def hook(frame, event, arg):
                nonlocal inner
                if event == "call" and frame.f_code is code:
                    inner += 1

            idx = self.begin(name)
            wrappers = [h.__dict__[attr] for h in holders]
            limit = sys.getrecursionlimit()
            previous = sys.getprofile()
            for h in holders:
                setattr(h, attr, fn)
            sys.setrecursionlimit(limit + RECURSION_EXTRA_FRAMES)
            sys.setprofile(hook)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(previous)
                sys.setrecursionlimit(limit)
                for h, w in zip(holders, wrappers):
                    setattr(h, attr, w)
                self.end(idx)
                calls[name] += inner

        return wrapper

    def _count_get(self, fn):
        counts = self.counts

        def get(cache, key):
            value = fn(cache, key)
            counts["counting.CountCache.get.calls"] += 1
            if value is not None:
                counts["counting.CountCache.get.hits"] += 1
            return value

        return get

    def _count_insert(self, fn):
        counts = self.counts

        def insert(cache, key, value):
            counts["counting.CountCache.insert.calls"] += 1
            return fn(cache, key, value)

        return insert

    # ----------------------------------------------------- install/restore

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Swap every target in the gzcount package for a wrapper."""
        by_name = {m: importlib.import_module(f"gzcount.{m}") for m in LAYERS}
        modules = [importlib.import_module("gzcount")] + list(by_name.values())
        for name, mod_name, cls_name, attr in TARGETS:
            module = by_name[mod_name]
            if cls_name is not None:
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._set(owner, attr, self.wrap(name, raw))
                continue
            original = getattr(module, attr)
            holders = [m for m in modules if m.__dict__.get(attr) is original]
            if name in RECURSIVE:
                wrapper = self.wrap_recursive(name, original, holders, attr)
            else:
                wrapper = self.wrap(name, original)
            for holder in holders:
                self._set(holder, attr, wrapper)
        cache_cls = by_name["counting"].CountCache
        self._set(cache_cls, "get", self._count_get(cache_cls.__dict__["get"]))
        self._set(cache_cls, "insert", self._count_insert(cache_cls.__dict__["insert"]))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def self_times(spans, names) -> dict[str, dict[str, float]]:
    """Self and inclusive time per span name.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only spans with no ancestor of the
    same name, so a re-entered name is not counted twice.
    """
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for idx, (nid, start, end, parent) in enumerate(spans):
        entry = out.setdefault(names[nid], {"self_s": 0.0, "total_s": 0.0})
        entry["self_s"] += (end - start) - child[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != nid:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["total_s"] += end - start
    return out


def covered_time(spans) -> float:
    """Time covered by root spans; roots never overlap in one thread."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def memo_sizes() -> dict[str, int]:
    """Entries in each process-global memo table of gzcount, read from outside."""
    counting = importlib.import_module("gzcount.counting")
    return {
        "SHARED_CACHE": len(counting.SHARED_CACHE),
        "_FIBER_MEMO": len(counting._FIBER_MEMO),
        "_REC3_MEMO": len(counting._REC3_MEMO),
        "_G_CACHE": len(counting._G_CACHE) - 1,
        "_H_CACHE": len(counting._H_CACHE) - 1,
    }


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in SPAN_NAMES:
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_s", "s", "lower"))
    spec += [
        ("counting.a_infinity.total_s", "s", "lower"),
        ("counting.CountCache.get.calls", "count", "lower"),
        ("counting.CountCache.hit_ratio", "ratio", "higher"),
        ("counting.CountCache.insert.calls", "count", "lower"),
        ("counting.memo_entries", "count", "lower"),
        ("counting.cache_file_bytes", "bytes", "lower"),
        ("oracle.vertices", "count", "higher"),
        ("oracle.s_per_vertex", "s", "lower"),
        ("genfun.series_terms", "count", "higher"),
        ("cli.interpreter_start_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.stdout_bytes", "bytes", "lower"),
    ]
    spec += [(f"{layer}.share", "ratio", "lower") for layer in LAYERS]
    spec += [
        ("bench.wall_s", "s", "lower"),
        ("bench.unattributed_s", "s", "lower"),
        ("bench.trace_overhead", "ratio", "lower"),
    ]
    return spec


# Per-layer metrics that are counts of work and must repeat exactly
# between two traced passes of one seed.
def exact_metrics() -> list[str]:
    return [name for name, unit, _ in per_layer_spec()
            if unit in ("count", "bytes") or name == "counting.CountCache.hit_ratio"]


def layer_metrics(tracer: Tracer, wall: float, memo_entries: int,
                  cache_file_bytes: int, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the probes are added by run.py)."""
    times = self_times(tracer.spans, tracer.names)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = times.get(name, {}).get("self_s", 0.0)
    out["counting.a_infinity.total_s"] = times.get("counting.a_infinity", {}).get("total_s", 0.0)
    gets = tracer.counts["counting.CountCache.get.calls"]
    out["counting.CountCache.get.calls"] = gets
    out["counting.CountCache.hit_ratio"] = (
        tracer.counts["counting.CountCache.get.hits"] / gets if gets else 0.0)
    out["counting.CountCache.insert.calls"] = tracer.counts["counting.CountCache.insert.calls"]
    out["counting.memo_entries"] = memo_entries
    out["counting.cache_file_bytes"] = cache_file_bytes
    vertices = tracer.counts["oracle.vertices"]
    oracle_s = sum(v["self_s"] for k, v in times.items() if k.startswith("oracle."))
    out["oracle.vertices"] = vertices
    out["oracle.s_per_vertex"] = oracle_s / vertices if vertices else 0.0
    out["genfun.series_terms"] = tracer.counts["genfun.series_terms"]
    out["cli.stdout_bytes"] = stdout_bytes
    for layer in LAYERS:
        busy = sum(v["self_s"] for k, v in times.items() if k.startswith(layer + "."))
        out[f"{layer}.share"] = busy / wall
    out["bench.wall_s"] = wall
    out["bench.unattributed_s"] = wall - covered_time(tracer.spans)
    return out
