"""Span tracing from outside the package: wrap public functions, record spans.

Every public function a layer module defines is replaced by a wrapper in every
module that bound its name (``run_machine`` lives in ``periodic`` and is also
imported by ``cycles``; the package root re-exports most names), and the
networkx entry points the package calls are replaced on the networkx module,
where the package looks them up at call time.  A span is (name, start, end,
parent span, query id); spans stay in memory as flat arrays until written.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "io", "core", "ops", "linear", "periodic", "cycles", "families")
METHODS = (("core", "OracleMatroid", "is_independent"), ("core", "ExplicitSystem", "is_independent"))
NETWORKX = ("maximum_flow", "shortest_path", "minimum_spanning_edges", "number_connected_components")
# spans whose boolean outcome is kept, for useful-over-attempted ratios
OUTCOMES = ("cycles.cycle_is_base",)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._index: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self._stack = [-1]
        self.query_id = -1

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn):
        ix = self._name_index(name)
        keep_outcome = name in OUTCOMES
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(ix)
            self.parent.append(stack[-1])
            self.query.append(self.query_id)
            self.outcome.append(-1)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if keep_outcome:
                self.outcome[i] = int(bool(result[0] if isinstance(result, tuple) else result))
            return result

        return functools.update_wrapper(traced, fn)

    def write(self, prefix: str):
        with open(prefix + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.start)}, fh)
        with open(prefix + ".bin", "wb") as fh:
            for column in (self.name, self.parent, self.query, self.start, self.end, self.outcome):
                column.tofile(fh)


def read_spans(prefix: str) -> dict:
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    n = meta["count"]
    columns = {}
    with open(prefix + ".bin", "rb") as fh:
        for key, code in (("name", "i"), ("parent", "i"), ("query", "i"),
                          ("start", "d"), ("end", "d"), ("outcome", "b")):
            col = array(code)
            col.fromfile(fh, n)
            columns[key] = col
    return {"names": meta["names"], **columns}


def _traceable(obj, module_name: str) -> bool:
    # lru_cache wrappers are not functions but carry the wrapped __module__
    return (inspect.isfunction(obj) or hasattr(obj, "cache_info")) and getattr(
        obj, "__module__", None
    ) == module_name


def install(tracer: Tracer, package) -> None:
    """Wrap the layer functions and rebind them wherever they were imported."""
    modules = [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
    wrappers: dict = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and _traceable(obj, module.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for module in [package, *modules]:
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"{package.__name__}.{layer}"], cls_name)
        setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
    nx = sys.modules.get("networkx")
    if nx is not None:
        for attr in NETWORKX:
            setattr(nx, attr, tracer.wrap(f"networkx.{attr}", getattr(nx, attr)))
