"""Outside-in tracing of chainreg's layers, with no edit to the library.

The tracer replaces each public function of the layer modules with a timing
wrapper, at every module attribute that refers to it.  A module calls its
helpers through its own globals (``chainreg.graphs.is_cochordal`` looks up
``complement`` in ``chainreg.graphs``, ``chainreg.classify`` looks up its
imported ``expand`` in ``chainreg.classify``), so patching every attribute
catches calls made inside the library as well as the benchmark's own.

Spans are kept in memory as tuples ``(name, start, end, parent, item, attrs)``
whose index in ``Tracer.spans`` is the span id, and are written out once the
run ends.  Calls are synchronous and single-threaded, so spans nest properly
and a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("chain", "graphs", "oracle", "anticycle", "classify")
ITEM_SPAN = "bench.item"


def _expand_attrs(args, kwargs, result):
    return {"edges": result.edge_count}


def _regularity_attrs(args, kwargs, result):
    G = args[0] if args else kwargs["G"]
    k = sum(1 for row in G.adj[1:] if row)
    # Computed from the support size, not counted by the oracle: the scan
    # visits every subset of the k supported vertices with at least 2 members.
    return {"support": k, "subsets": (1 << k) - k - 1}


def _anticycle_attrs(args, kwargs, result):
    return {"m": result[0].m}


#: Extra per-call attributes read from arguments and results after the call.
OBSERVERS = {
    "chain.expand": _expand_attrs,
    "oracle.regularity": _regularity_attrs,
    "anticycle.construct_anticycle": _anticycle_attrs,
}


class Tracer:
    """Wraps the public layer functions of an imported chainreg package."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self._stack: list[int] = []
        self._item = None
        self._undo: list = []
        #: Names of the wrapped functions, ``<layer>.<function>``.
        self.names: list[str] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self._item, {"raised": type(exc).__name__})
                raise
            t1 = clock()
            stack.pop()
            attrs = observe(args, kwargs, result) if observe else None
            spans[sid] = (name, t0, t1, parent, self._item, attrs)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every chainreg module attribute bound to a layer function."""
        pkg = self.package.__name__
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    self.names.append(f"{layer}.{attr}")
                    wrappers[fn] = self._wrap(self.names[-1], fn)
        modules = [m for k, m in sys.modules.items() if k == pkg or k.startswith(pkg + ".")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._undo.append((mod, attr, val))

    def remove(self) -> None:
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()

    @contextmanager
    def item(self, item_id):
        """Root span for one workload item; layer spans inherit its id."""
        sid = len(self.spans)
        self.spans.append(None)
        self._item = item_id
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._item = None
            self.spans[sid] = (ITEM_SPAN, t0, t1, None, item_id, None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, item, attrs) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": t0, "end": t1,
                       "parent": parent, "item": item}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans, first: int, names, wall_s: float) -> dict:
    """Per-function and per-layer figures for the spans of one traced pass.

    ``spans`` is the pass's slice of ``Tracer.spans``, starting at span id
    ``first``.  ``names`` lists every wrapped function, so one never called
    reads 0; ``wall_s`` is the pass's wall time, the base of every share.
    """
    child = defaultdict(float)
    for name, t0, t1, parent, _, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    out = {
        "chain.expand.edges": 0,
        "oracle.regularity.refused": 0,
        "oracle.support_max": 0,
        "oracle.subsets": 0,
        "anticycle.witness_vertices": 0,
    }
    for sid, (name, t0, t1, parent, _, attrs) in enumerate(spans, start=first):
        if name == ITEM_SPAN:
            continue
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[sid]
        if not attrs:
            continue
        if "raised" in attrs:
            if attrs["raised"] == "SubsetBudgetExceeded":
                out["oracle.regularity.refused"] += 1
        elif name == "chain.expand":
            out["chain.expand.edges"] += attrs["edges"]
        elif name == "oracle.regularity":
            out["oracle.support_max"] = max(out["oracle.support_max"], attrs["support"])
            out["oracle.subsets"] += attrs["subsets"]
        elif name == "anticycle.construct_anticycle":
            out["anticycle.witness_vertices"] += attrs["m"]
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        busy = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = busy
        out[f"{layer}.self_share"] = busy / wall_s
    out["chain.expand.edges_per_s"] = _rate(out["chain.expand.edges"], self_s["chain.expand"])
    out["oracle.subsets_per_s"] = _rate(out["oracle.subsets"], self_s["oracle.regularity"])
    return out


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0
