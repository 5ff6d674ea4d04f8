"""Spans and counts at the library's function boundaries, from outside it.

install() wraps every public function of every module of the package, and
every public method of its classes, where it is defined, in every module
that imported it by name and in module-level dispatch tables.  Each call
records a span (name, start, end, parent) in flat arrays kept in memory;
self time is a span's duration minus that of its children.  lru_cache hits
and misses come from cache_info().
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

# One call of a field primitive costs about what the timer resolves; their
# cost shows in the callers' self time.
PRIMITIVES = {
    "add", "sub", "mul", "neg", "inv", "div", "pow", "is_zero",
    "from_int", "fmt", "parse", "elements",
}
DUNDERS = {"__mul__"}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = {}
        self.caches = {}
        self._cache_base = {}

    def wrap(self, name, fn, count_len=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        counts, clock = self.counts, time.perf_counter
        if count_len:
            counts[count_len] = 0

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_len:
                counts[count_len] += len(out)
            return out

        functools.update_wrapper(traced, fn)
        return traced

    def snapshot(self):
        """Position and extra counts, to attribute later spans to an op."""
        return len(self.span_start), dict(self.counts)

    def summary(self, since=(0, {})):
        """{name.calls, name.self_s, counters, cache hits/misses}."""
        first, base = since
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = array("d", bytes(8 * (n - first)))
        for i in range(n - 1, first - 1, -1):
            par = parents[i]
            if par >= first:
                child[par - first] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(first, n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i - first]
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        for key, value in self.counts.items():
            out[key] = value - base.get(key, 0)
        if first == 0:
            for name, fn in self.caches.items():
                info, start = fn.cache_info(), self._cache_base[name]
                out[f"{name}.hits"] = info.hits - start.hits
                out[f"{name}.misses"] = info.misses - start.misses
        return out

    def write(self, path):
        """Spans as one JSON header line (names, count) plus raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_start),
                      "arrays": ["name:H", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def install(package, modules):
    """Wrap the public callables of the given package modules."""
    tracer = Tracer()
    replaced = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                continue
            if inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    public = not meth.startswith("_") or meth in DUNDERS
                    if inspect.isfunction(fn) and public and meth not in PRIMITIVES:
                        name = f"{short}.{obj.__name__}.{meth}"
                        setattr(obj, meth, tracer.wrap(name, fn))
            elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                name = f"{short}.{attr}"
                counter = "oracle.points_enumerated" if name == "oracle.enumerate_points" else None
                replaced[id(obj)] = tracer.wrap(name, obj, counter)
                if hasattr(obj, "cache_info"):
                    tracer.caches[name] = obj
                    tracer._cache_base[name] = obj.cache_info()
    for mod in list(modules) + [package]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
            elif isinstance(obj, dict):  # dispatch tables such as cli.COMMANDS
                for key, value in obj.items():
                    if id(value) in replaced:
                        obj[key] = replaced[id(value)]
    return tracer
