"""Per-layer spans for the eccforge benchmark, recorded from outside the library.

`Tracer.install()` replaces every public function and public method of the
layer modules with a timing wrapper, at the class or module attribute, and
rebinds every name under `eccforge` that still points at an original (for
example `eccforge.dynamic.k_certificate` and `eccforge.solver.k_certificate`).
`uninstall()` puts the originals back. The library itself is never edited.

Each wrapped call becomes a span with its parent: the nearest enclosing
wrapped call, or none for a call made by the benchmark itself. A span's self
time is its duration minus the time its child spans cover. Calls to the hot
accessors in `HOT` are not kept as spans; their count and time are added to
the enclosing span instead, so memory grows with the number of other calls.
Per-function totals (calls, self seconds) are kept for every name.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable

# Timed layers, in dependency order. `oracle` is the correctness reference and
# is never wrapped; `gen` and `cli` are not used by the benchmark.
LAYERS = (
    "graph",
    "dsu",
    "blockforest",
    "cactusforest",
    "decomp",
    "certificates",
    "solver",
    "dynamic",
)

# Small accessors that the layers call from their inner loops, up to millions
# of times a round. Their calls, and the wrapped calls they make, are added to
# the enclosing span instead of being kept one by one.
HOT = frozenset(
    {
        "dsu.root_of",
        "dsu.label_of",
        "dsu.find",
        "dsu.set_label",
        "dsu.unite",
        "dsu.make_set",
        "dsu.size_of",
        "graph.endpoints",
        "graph.incident",
        "graph.has_vertex",
        "graph.vertex_ids",
        "graph.edge_ids",
        "graph.degree",
        "graph.neighbors",
        "graph.multiplicity",
        "graph.edges_between",
        "graph.add_vertex",
        "graph.add_edge",
        "blockforest.new_node",
        "blockforest.representative",
        "blockforest.is_live",
        "blockforest.parent_of",
        "blockforest.root_path",
        "blockforest.tree_size",
        "cactusforest.new_node",
        "cactusforest.representative",
        "cactusforest.is_live",
        "cactusforest.cycle_parent",
        "cactusforest.root_path",
        "cactusforest.cactus_size",
    }
)

Observer = Callable[["Tracer", tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.top_leaves: dict[str, list] = {}  # hot calls made by the benchmark
        self._observers: dict[str, Observer] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._on = [True]
        self._restore: list[tuple[object, str, object]] = []

    def observe(self, name: str, fn: Observer) -> None:
        """Call fn(tracer, args, result) after each call of `name`."""
        self._observers[name] = fn

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, Callable] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"eccforge.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    wrapped[id(obj)] = wrapper
                    self._set(module, attr, wrapper)
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)
                ):
                    self._install_class(layer, obj)
        # re-bound names such as `from .certificates import k_certificate`
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "eccforge" and not mod_name.startswith("eccforge."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(module, attr, wrapped[id(obj)])

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{attr}"
            if name in self.stats:
                raise RuntimeError(f"two public names map to {name}")
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(name, obj.__func__)))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def paused(self):
        """Inside this context the wrappers only pass calls through: no span, no count."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        spans = self.spans
        on = self._on
        clock = time.perf_counter
        hot = name in HOT
        observers = self._observers
        top_leaves = self.top_leaves
        tracer = self

        # frame: [span id (inherited by hot calls), child seconds, leaf
        #         aggregate of the enclosing span, root span id]
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if hot:
                if parent is None:
                    frame = [None, 0.0, top_leaves, None]
                else:
                    frame = [parent[0], 0.0, parent[2], parent[3]]
            else:
                tracer._next_id += 1
                sid = tracer._next_id
                frame = [sid, 0.0, {}, parent[3] if parent is not None else sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                stat[0] += 1
                stat[1] += own
                if parent is not None:
                    parent[1] += duration
                if hot:
                    agg = frame[2].get(name)
                    if agg is None:
                        frame[2][name] = [1, own]
                    else:
                        agg[0] += 1
                        agg[1] += own
                else:
                    spans.append(
                        (
                            frame[0],
                            parent[0] if parent is not None else None,
                            frame[3],
                            name,
                            start,
                            end,
                            own,
                            frame[2],
                        )
                    )
            observer = observers.get(name)
            if observer is not None:
                observer(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: id, parent, root, name, start and end
        in microseconds from the first span, self microseconds, and the hot
        calls made inside the span as {name: [calls, self microseconds]}. A
        span's duration is its self time plus its hot calls' self time plus
        its child spans' durations."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for sid, parent, root, name, start, end, own, leaves in self.spans:
                row = [
                    sid,
                    parent,
                    root,
                    name,
                    round((start - t0) * 1e6, 3),
                    round((end - t0) * 1e6, 3),
                    round(own * 1e6, 3),
                    {k: [c, round(s * 1e6, 3)] for k, (c, s) in leaves.items()},
                ]
                out.write(json.dumps(row, separators=(",", ":")) + "\n")
