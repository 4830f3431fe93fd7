"""Tracing from outside the package: wrap public functions, record spans,
and reduce them to per-layer metrics.

A span is ``(name id, start, end, parent span index, op index, count)``.
``count`` is a size read off the call (items in a ``Permutation``, steps in
a resolution, parts in a decomposition or cover) and 0 where none is named.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer -> [(qualified name inside the module, size to record per call)]
# The size function gets (args, result); None records 0.
TARGETS = {
    "perms": [
        ("resolution_from_decomposition", None),
        ("check_resolution", None),
        ("Resolution.replay", None),
        ("Permutation.__post_init__", lambda args, r: len(args[0].image)),
        ("Partition.__post_init__", lambda args, r: len(args[0].assign)),
    ],
    "polycycles": [
        ("balanced_permutation_factorization", None),
        ("directed_polycycle_decomposition", lambda args, r: len(r.parts)),
        ("undirected_polycycle_decomposition", None),
        ("polycycle_odd_cover", None),
    ],
    "resolve": [
        ("resolve", lambda args, r: len(r.taus)),
        ("pcycles_from_pair", None),
        ("pcycles_from_balanced", None),
    ],
    "oddcover": [
        ("path_odd_cover_delta4", lambda args, r: len(r.parts)),
        ("cycle_odd_cover_delta4", lambda args, r: len(r.parts)),
        ("odd_cover_eulerian", lambda args, r: len(r.parts)),
        ("path_odd_cover_general", lambda args, r: len(r.parts)),
        ("linear_forest_decomposition", lambda args, r: len(r.parts)),
        ("transversal_odd_intersection", None),
        ("transversal_even_intersection", None),
        ("flexible_exchange", None),
        ("linear_forests_from_transversal", None),
        ("forest_stats", None),
    ],
    "graphs": [
        ("edge_components", None),
        ("classify", None),
        ("eulerian_orientation", None),
    ],
    "oracles": [
        ("verify_certificate", None),
        ("min_resolution_length", None),
        ("min_odd_cover_exhaustive", None),
    ],
    "jsonio": [
        (f"{kind}_{what}", None)
        for kind in ("parse", "emit")
        for what in ("instance", "graph", "resolution", "cover", "report")
    ],
    "cli": [("main", None)],
}

_CONSTRUCTIONS = [
    "oddcover." + name
    for name in (
        "path_odd_cover_delta4", "cycle_odd_cover_delta4", "odd_cover_eulerian",
        "path_odd_cover_general", "linear_forest_decomposition",
    )
]
# metric -> (how, span names).  "ms": inclusive time; "self": time minus
# child spans; "count": recorded sizes; "calls": number of calls.  A call
# nested inside another call of the same name set is not counted again.
# Times, counts and calls are means per traced op; a seed fixes the inputs,
# so counts and calls repeat exactly.  oddcover.joins is derived from two
# call counts in Tracer.per_layer.
METRICS = {
    "perms.walk_ms": ("ms", ["perms.resolution_from_decomposition"]),
    "perms.replay_ms": ("ms", ["perms.Resolution.replay"]),
    "perms.check_ms": ("ms", ["perms.check_resolution"]),
    "perms.permutation_entries": ("count", ["perms.Permutation.__post_init__"]),
    "perms.partition_entries": ("count", ["perms.Partition.__post_init__"]),
    "polycycles.factor_ms": ("ms", ["polycycles.balanced_permutation_factorization"]),
    "polycycles.decomp_ms": ("ms", ["polycycles.directed_polycycle_decomposition",
                                    "polycycles.undirected_polycycle_decomposition"]),
    "polycycles.parts": ("count", ["polycycles.directed_polycycle_decomposition"]),
    "polycycles.cover_ms": ("ms", ["polycycles.polycycle_odd_cover"]),
    "resolve.total_ms": ("ms", ["resolve.resolve"]),
    "resolve.self_ms": ("self", ["resolve.resolve"]),
    "resolve.pair_ms": ("ms", ["resolve.pcycles_from_pair", "resolve.pcycles_from_balanced"]),
    "resolve.pair_calls": ("calls", ["resolve.pcycles_from_pair", "resolve.pcycles_from_balanced"]),
    "resolve.steps": ("count", ["resolve.resolve"]),
    "oddcover.construct_ms": ("ms", _CONSTRUCTIONS),
    "oddcover.self_ms": ("self", [f"oddcover.{name}" for name, _ in TARGETS["oddcover"]]),
    "oddcover.transversal_ms": ("ms", ["oddcover.transversal_odd_intersection",
                                       "oddcover.transversal_even_intersection",
                                       "oddcover.flexible_exchange"]),
    "oddcover.forest_split_ms": ("ms", ["oddcover.linear_forests_from_transversal"]),
    "oddcover.forest_stats_ms": ("ms", ["oddcover.forest_stats"]),
    "oddcover.parts": ("count", _CONSTRUCTIONS),
    "graphs.components_ms": ("ms", ["graphs.edge_components"]),
    "graphs.components_calls": ("calls", ["graphs.edge_components"]),
    "graphs.classify_ms": ("ms", ["graphs.classify"]),
    "graphs.classify_calls": ("calls", ["graphs.classify"]),
    "graphs.orientation_ms": ("ms", ["graphs.eulerian_orientation"]),
    "oracles.verify_ms": ("ms", ["oracles.verify_certificate"]),
    "oracles.bfs_ms": ("ms", ["oracles.min_resolution_length"]),
    "oracles.exhaustive_ms": ("ms", ["oracles.min_odd_cover_exhaustive"]),
    "jsonio.parse_ms": ("ms", [f"jsonio.{n}" for n, _ in TARGETS["jsonio"] if n.startswith("parse")]),
    "jsonio.emit_ms": ("ms", [f"jsonio.{n}" for n, _ in TARGETS["jsonio"] if n.startswith("emit")]),
    "cli.self_ms": ("self", ["cli.main"]),
}


class Tracer:
    """Records a span for every call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.op = -1
        self.bindings: list[tuple] = []

    def set_enabled(self, on: bool, op: int) -> None:
        """Bind the wrappers (or the originals) for the next op."""
        self.op = op
        self.stack[:] = [-1]
        for owner, attr, original, wrapper in self.bindings:
            setattr(owner, attr, wrapper if on else original)

    def wrap(self, name: str, fn, size):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            count = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    count = size(args, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op, count)

        return wrapper

    def install(self) -> None:
        """Wrap every target, and find each ``polyresolve.*`` attribute that
        refers to it: modules import names directly, so every binding needs
        the wrapper.  Methods are bound on their class."""
        importlib.import_module("polyresolve")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "polyresolve" or name.startswith("polyresolve.")]
        for layer, targets in TARGETS.items():
            module = importlib.import_module(f"polyresolve.{layer}")
            for qualname, size in targets:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapper = self.wrap(f"{layer}.{qualname}", original, size)
                if owner_name:
                    self.bindings.append((owner, attr, original, wrapper))
                    continue
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is original:
                            self.bindings.append((mod, key, original, wrapper))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "op", "count"],
                       "spans": self.spans}, fh)

    def per_layer(self, ops: int) -> dict[str, float]:
        """Every metric of METRICS, plus ``oddcover.joins``, as means over
        the ``ops`` traced ops."""
        spans = self.spans
        by_name: dict[int, list[int]] = {}
        child_ms: dict[int, float] = {}
        for i, (nid, t0, t1, parent, _, _) in enumerate(spans):
            by_name.setdefault(nid, []).append(i)
            if parent >= 0:
                child_ms[parent] = child_ms.get(parent, 0.0) + (t1 - t0) * 1e3

        def nested(i: int, wanted: set[int]) -> bool:
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in wanted:
                    return True
                parent = spans[parent][3]
            return False

        ids = {name: i for i, name in enumerate(self.names)}
        out = {}
        for metric, (how, names) in METRICS.items():
            wanted = {ids[name] for name in names}
            total = 0.0
            for i in (j for nid in wanted for j in by_name.get(nid, ())):
                nid, t0, t1, parent, _, count = spans[i]
                if how == "self":
                    total += (t1 - t0) * 1e3 - child_ms.get(i, 0.0)
                elif nested(i, wanted):
                    continue
                elif how == "ms":
                    total += (t1 - t0) * 1e3
                else:
                    total += count if how == "count" else 1
            out[metric] = total / ops
        out["oddcover.joins"] = (
            len(by_name.get(ids["oddcover.forest_stats"], ()))
            - len(by_name.get(ids["oddcover.linear_forests_from_transversal"], ()))
        ) / ops
        return out
