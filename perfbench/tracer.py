"""Per-layer tracing of qcalc from outside the package.

install() replaces, at run time, the public functions of each qcalc
module (and the public methods and arithmetic operators of Poly) with
wrappers that report to a Tracer.  The source files are never touched;
every module namespace and dispatch table that holds an original
function is pointed at its wrapper, so calls between modules go through
the wrappers too.

Three kinds of wrapper, chosen by how often a function runs (see
UNWRAPPED for the primitives left alone):

- span: every call is kept as a span record (name, start, end, parent
  span, request id) and written out when the run ends;
- timed: calls, inclusive time and self time are aggregated, no record;
- counted: only the number of calls (blockperm.length, called about a
  million times per sweep; its time stays in its caller's self time).

Generators are timed per resumption, so a generator's time is the work
done inside it, not the time its consumer held it open.  Self time is a
frame's duration minus the durations of the wrapped frames it directly
encloses.  Tracing runs in one process: pool workers are not traced.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
from time import perf_counter

from common import orbit_key

LAYERS = ("poly", "quiver", "blockperm", "pipedream", "cgpd", "localization", "engine")

# Metric names for functions whose own name is not the metric's.
RENAME = {
    "poly.exact_divide": "poly.divide",
    "blockperm.subword_subsets": "blockperm.subword",
    "cgpd.enumerate_cgpd": "cgpd.enumerate",
    "quiver.enumerate_rank_arrays": "quiver.enumerate",
    "pipedream.locus_pipe_dreams": "pipedream.locus",
}

POLY_OPERATORS = {
    "__add__": "poly.add",
    "__radd__": "poly.add",
    "__sub__": "poly.sub",
    "__rsub__": "poly.sub",
    "__neg__": "poly.neg",
    "__mul__": "poly.mul",
    "__rmul__": "poly.mul",
    "__pow__": "poly.pow",
    "__eq__": "poly.eq",
}

COUNTED = {"blockperm.length"}

# Primitives called hundreds of thousands of times per pass, whose
# wrappers would cost more than they do; their time stays in the caller.
UNWRAPPED = {
    "poly.var_key",
    "blockperm.left_mul_s",
    "blockperm.compose",
    "blockperm.inverse",
    "blockperm.identity",
}

SPANS = {
    "quiver.enumerate",
    "blockperm.perm_set",
    "blockperm.zelevinsky_permutation",
    "blockperm.subword",
    "pipedream.enumerate_pipe_dreams",
    "pipedream.locus",
    "pipedream.quiver_poly_pd",
    "pipedream.csm_pd",
    "cgpd.enumerate",
    "cgpd.cgpd_infinity",
    "cgpd.csm_cgpd",
    "cgpd.quiver_poly_cgpd",
    "localization.ajs_billey",
    "localization.csm_restriction",
    "localization.quiver_poly_ratio",
    "localization.csm_ratio",
    "engine.compute",
    "engine.check",
    "engine.sweep",
}


class Tracer:
    """Frames, aggregates and span records of one traced run."""

    def __init__(self):
        self.on = False
        self.request = None
        # open frames: [name, start, child_s, span_id, context, parent span]
        self.stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._depth: dict[str, int] = {}
        self._next_id = 1

    def enter(self, name: str, span: bool) -> list:
        ctx = self.stack[-1][4] if self.stack else 0
        sid = 0
        if span:
            sid = self._next_id
            self._next_id += 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [name, 0.0, 0.0, sid, sid or ctx, ctx]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def leave(self, frame: list):
        end = perf_counter()
        name, start, child, sid, _, parent = frame
        self.stack.pop()
        dur = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.incl[name] = self.incl.get(name, 0.0) + dur
        if self.stack:
            self.stack[-1][2] += dur
        if sid:
            self.spans.append((sid, name, start, end, parent, self.request))

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not traced (the benchmark's own checks)."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for name, s in self.self_s.items() if name.startswith(prefix))

    def write(self, path, extra: dict):
        """Write the span records and aggregates as one JSON document."""
        doc = dict(extra)
        doc["spans"] = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "request": s[5]}
            for s in self.spans
        ]
        doc["aggregates"] = {
            name: {
                "calls": self.calls.get(name, 0),
                "incl_s": self.incl.get(name, 0.0),
                "self_s": self.self_s.get(name, 0.0),
            }
            for name in sorted(self.calls)
        }
        doc["counts"] = dict(sorted(self.counts.items()))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _counted(tr: Tracer, name: str, fn):
    calls = tr.calls

    def wrapper(*args, **kwargs):
        if tr.on:
            calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _timed(tr: Tracer, name: str, fn, span: bool, before=None, after=None):
    def wrapper(*args, **kwargs):
        if not tr.on:
            return fn(*args, **kwargs)
        if before is not None:
            before(tr, args)
        frame = tr.enter(name, span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.leave(frame)
        if after is not None:
            after(tr, args, result)
        return result

    return wrapper


def _generator(tr: Tracer, name: str, fn, span: bool):
    """Time each resumption of the generator; one span per generator,
    from its first resumption to its last, with its busy time."""

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if not tr.on:
            yield from inner
            return
        tr.calls[name] = tr.calls.get(name, 0) + 1
        key = name + "#"  # resumptions are frames of their own name
        sid = 0
        if span:
            sid = tr._next_id
            tr._next_id += 1
        parent = tr.stack[-1][4] if tr.stack else 0
        request = tr.request
        first = perf_counter()
        yielded = 0
        try:
            while True:
                frame = tr.enter(key, False)
                frame[4] = sid or parent
                try:
                    item = next(inner)
                except StopIteration:
                    break
                finally:
                    tr.leave(frame)
                yielded += 1
                yield item
        finally:
            inner.close()
            tr.count(name + ".yielded", yielded)
            if sid:
                tr.spans.append((sid, name, first, perf_counter(), parent, request))

    return wrapper


def _hooks() -> dict:
    """Counters measured at the boundary of a call, from its arguments
    and result: name -> (before, after)."""

    def add_before(tr, args):
        tr.count("poly.add.terms_copied", len(args[0].terms))

    def perm_set_after(tr, args, result):
        tr.count("blockperm.perm_set.size", len(result))

    def enumerate_after(tr, args, result):
        tr.count("cgpd.diagrams_valid", len(result))

    def check_before(tr, args):
        tr.request = orbit_key(args[0])

    return {
        "poly.add": (add_before, None),
        "blockperm.perm_set": (None, perm_set_after),
        "cgpd.enumerate": (None, enumerate_after),
        "engine.check": (check_before, None),
    }


def _count_tilings(tr: Tracer, cls):
    """Count the CGPD objects built while cgpd.enumerate runs: the
    tilings the enumeration actually tries."""
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        if tr.on and tr._depth.get("cgpd.enumerate"):
            tr.count("cgpd.tilings_tried")
        init(self, *args, **kwargs)

    cls.__init__ = __init__


def _wrap(tr: Tracer, name: str, fn, hooks: dict):
    if name in COUNTED:
        return _counted(tr, name, fn)
    if inspect.isgeneratorfunction(fn):
        return _generator(tr, name, fn, name in SPANS)
    before, after = hooks.get(name, (None, None))
    return _timed(tr, name, fn, name in SPANS, before, after)


def install(tr: Tracer, qcalc) -> int:
    """Wrap the loaded qcalc package for tracing; returns the number of
    wrapped functions.  Call once, on a freshly imported package."""
    modules = {layer: importlib.import_module(f"qcalc.{layer}") for layer in LAYERS}
    hooks = _hooks()
    wrappers: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = RENAME.get(f"{layer}.{attr}", f"{layer}.{attr}")
            if name in UNWRAPPED:
                continue
            wrappers[id(obj)] = _wrap(tr, name, obj, hooks)

    poly_cls = modules["poly"].Poly
    for attr, raw in list(vars(poly_cls).items()):
        if attr in POLY_OPERATORS:
            name = POLY_OPERATORS[attr]
        elif attr.startswith("_"):
            continue
        else:
            name = f"poly.{attr}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tr, name, raw.__func__, hooks))
        elif inspect.isfunction(raw):
            wrapped = _wrap(tr, name, raw, hooks)
        else:
            continue
        setattr(poly_cls, attr, wrapped)

    _count_tilings(tr, modules["cgpd"].CGPD)

    namespaces = [qcalc, *modules.values(), importlib.import_module("qcalc.cli")]
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(mod, attr, wrappers[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and id(value) in wrappers:
                        obj[key] = wrappers[id(value)]
    return len(wrappers)


def clear_caches(qcalc):
    """Empty every lru cache of the package, so a pass starts cold."""
    for layer in LAYERS:
        mod = importlib.import_module(f"qcalc.{layer}")
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
