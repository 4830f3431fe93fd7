"""JSON wire formats for graphs, instances, and certificates.

Emit functions return plain dicts ready for ``json.dump``; parse functions
rebuild the domain objects, and ``parse_*(emit_*(x)) == x`` for every
supported type.  Vertices, items, and clusters are 0-based throughout.
A vertex, item or cluster count above ``MAX_COUNT`` is refused with
``ValueError`` before anything is sized by it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Any

from .graphs import SimpleGraph, edge, simple_graph
from .oddcover import OddCoverCert
from .oracles import Report
from .perms import CycleSeq, Partition, Resolution
from .resolve import LowerBoundInstance

__all__ = [
    "emit_graph",
    "parse_graph",
    "emit_instance",
    "parse_instance",
    "emit_resolution",
    "parse_resolution",
    "emit_cover",
    "parse_cover",
    "emit_report",
    "parse_report",
]


def _require(d: Any, *keys: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    for k in keys:
        if k not in d:
            raise ValueError(f"missing key {k!r}")


def _int(x: Any, what: str) -> int:
    # bool is an int subclass, but JSON true/false is no count or label.
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {type(x).__name__}")
    return x


# Counts size lists such as degree vectors and cluster sizes, so one
# stray number must not decide how much memory a run takes.
MAX_COUNT = 1_000_000


def _count(x: Any, what: str) -> int:
    n = _int(x, what)
    if n < 0:
        raise ValueError(f"{what} must be non-negative, got {n}")
    if n > MAX_COUNT:
        raise ValueError(f"{what}={n} exceeds the limit of {MAX_COUNT}")
    return n


def _array(x: Any, what: str) -> list | tuple:
    if not isinstance(x, (list, tuple)):
        raise ValueError(f"{what} must be a JSON array, got {type(x).__name__}")
    return x


def _ints(x: Any, what: str) -> tuple[int, ...]:
    values = _array(x, what)
    if set(map(type, values)) <= {int}:
        return tuple(values)
    return tuple(_int(v, what) for v in values)   # names the first offender


def _pairs(x: Any, what: str) -> list | tuple:
    entries = _array(x, what)
    if not (set(map(type, entries)) <= {list, tuple} and set(map(len, entries)) <= {2}
            and set(map(type, chain.from_iterable(entries))) <= {int}):
        for e in entries:   # names the first offender
            if len(_ints(e, what)) != 2:
                raise ValueError(f"every entry of {what} must be a pair of integers")
    return entries


def emit_graph(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def parse_graph(d: dict) -> SimpleGraph:
    _require(d, "n", "edges")
    return simple_graph(_count(d["n"], "n"), _pairs(d["edges"], "edges"))


def emit_instance(inst: tuple[Partition, Partition] | LowerBoundInstance) -> dict:
    if isinstance(inst, LowerBoundInstance):
        p, q = inst.p, inst.q
        extra = {"bound": inst.bound, "family": inst.family}
    else:
        p, q = inst
        extra = {}
    if p.n != q.n or p.m != q.m:
        raise ValueError("instance partitions must share items and clusters")
    return {"m": p.m, "n": p.n, "p": list(p.assign), "p_prime": list(q.assign), **extra}


def parse_instance(d: dict) -> tuple[Partition, Partition] | LowerBoundInstance:
    _require(d, "m", "n", "p", "p_prime")
    m, n = _count(d["m"], "m"), _count(d["n"], "n")
    p = Partition(n, _ints(d["p"], "p"))
    q = Partition(n, _ints(d["p_prime"], "p_prime"))
    if p.m != m or q.m != m:
        raise ValueError(f"assignments disagree with m={m}")
    if "bound" in d or "family" in d:
        _require(d, "bound", "family")
        return LowerBoundInstance(p, q, _int(d["bound"], "bound"), str(d["family"]))
    return p, q


def emit_resolution(res: Resolution) -> dict:
    return {"type": "resolution", "taus": [list(t.items) for t in res.taus]}


def parse_resolution(d: dict, start: Partition) -> Resolution:
    _require(d, "type", "taus")
    if d["type"] != "resolution":
        raise ValueError(f"expected type 'resolution', got {d['type']!r}")
    taus = tuple(CycleSeq(_ints(t, "a step")) for t in _array(d["taus"], "taus"))
    return Resolution(start, taus)


def emit_cover(cert: OddCoverCert) -> dict:
    return {
        "type": "odd_cover",
        "kind": cert.kind,
        "parts": [[list(e) for e in sorted(part)] for part in cert.parts],
    }


def parse_cover(d: dict) -> OddCoverCert:
    _require(d, "type", "kind", "parts")
    if d["type"] != "odd_cover":
        raise ValueError(f"expected type 'odd_cover', got {d['type']!r}")
    kind = str(d["kind"])
    if kind not in ("path", "cycle", "linear_forest"):
        raise ValueError(f"unknown cover kind {kind!r}")
    return OddCoverCert(kind, tuple(_part(part) for part in _array(d["parts"], "parts")))


def _part(x: Any) -> frozenset:
    """A part's edges, refusing one listed twice in either orientation."""
    pairs = _pairs(x, "a part")
    edges = frozenset(edge(u, v) for u, v in pairs)
    if len(edges) != len(pairs):
        u, v = next(e for e, k in Counter(edge(u, v) for u, v in pairs).items() if k > 1)
        raise ValueError(f"a part lists edge ({u},{v}) twice")
    return edges


def emit_report(r: Report) -> dict:
    return {"check": r.check, "pass": r.passed, "detail": r.detail, "elapsed_ms": r.elapsed_ms}


def parse_report(d: dict) -> Report:
    _require(d, "check", "pass", "detail", "elapsed_ms")
    if type(d["pass"]) is not bool:
        raise ValueError(f"pass must be a JSON boolean, got {type(d['pass']).__name__}")
    return Report(str(d["check"]), d["pass"], str(d["detail"]), _int(d["elapsed_ms"], "elapsed_ms"))
