"""Undirected simple graphs, directed multigraphs, and shape queries.

Vertices are dense integers ``0..n-1``.  Undirected edges are canonical
``(min, max)`` pairs so that edge sets support exact xor algebra; directed
edges are indexed positionally (arc id = position in the tail/head arrays)
and may include loops and parallel arcs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import NotEulerian

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Canonical unordered pair."""
    if u == v:
        raise ValueError(f"loop edge {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Loopless undirected graph on vertices ``0..n-1`` with set semantics."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) invalid for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree_vector(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def simple_graph(n: int, pairs: Iterable[tuple[int, int]]) -> SimpleGraph:
    """Build a SimpleGraph, canonicalizing and deduplicating edge pairs."""
    return SimpleGraph(n, frozenset(edge(u, v) for u, v in pairs))


@dataclass(frozen=True)
class Digraph:
    """Directed multigraph; arc ``i`` runs ``tails[i] -> heads[i]``.

    Loops and parallel arcs are permitted.
    """

    n: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]

    def __post_init__(self):
        if len(self.tails) != len(self.heads):
            raise ValueError("tails and heads must have equal length")
        for v in (*self.tails, *self.heads):
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.tails)

    def out_degrees(self) -> list[int]:
        deg = [0] * self.n
        for v in self.tails:
            deg[v] += 1
        return deg

    def in_degrees(self) -> list[int]:
        deg = [0] * self.n
        for v in self.heads:
            deg[v] += 1
        return deg

    def is_eulerian(self) -> bool:
        return self.out_degrees() == self.in_degrees()


class DegreeSummary(NamedTuple):
    delta: int
    v_odd: int
    delta_e: int
    degrees: tuple[int, ...]


def degrees(g: SimpleGraph) -> DegreeSummary:
    """Max degree, number of odd vertices, even ceiling of the max, and
    the full degree vector."""
    deg = g.degree_vector()
    delta = max(deg, default=0)
    return DegreeSummary(
        delta=delta,
        v_odd=sum(1 for d in deg if d % 2),
        delta_e=2 * ((delta + 1) // 2),
        degrees=tuple(deg),
    )


class SubgraphShape(Enum):
    EMPTY = "empty"
    PATH = "path"
    CYCLE = "cycle"
    POLYCYCLE = "polycycle"
    LINEAR_FOREST = "linear_forest"
    OTHER = "other"


# Shapes a linear forest (a disjoint union of paths) can classify as.
FOREST_SHAPES = (SubgraphShape.EMPTY, SubgraphShape.PATH, SubgraphShape.LINEAR_FOREST)


def vertices_of(edges: Iterable[Edge]) -> set[int]:
    out: set[int] = set()
    for u, v in edges:
        out.add(u)
        out.add(v)
    return out


def _adjacency(edges: Iterable[Edge]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def edge_components(edges: Iterable[Edge]) -> list[frozenset[Edge]]:
    """Connected components as edge sets, ordered by smallest vertex.

    One depth-first pass: each edge joins its component when the search
    pops its first vertex, so the cost is O(E) plus sorting the vertices.
    """
    incident: dict[int, list[Edge]] = defaultdict(list)
    for e in edges:
        incident[e[0]].append(e)
        incident[e[1]].append(e)
    seen: set[int] = set()
    comps: list[frozenset[Edge]] = []
    # Starts run in increasing order, so each start is the smallest vertex
    # of its component and the list comes out sorted.
    for start in sorted(incident):
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        comp: list[Edge] = []
        while stack:
            v = stack.pop()
            for e in incident[v]:
                if e[0] == v:
                    comp.append(e)
                w = e[1] if e[0] == v else e[0]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def _component_shape(comp: frozenset[Edge]) -> SubgraphShape:
    """Shape of one connected edge set: PATH, CYCLE, or OTHER."""
    deg = Counter(chain.from_iterable(comp))
    if any(d > 2 for d in deg.values()):
        return SubgraphShape.OTHER
    ones = sum(1 for d in deg.values() if d == 1)
    if ones == 2:
        return SubgraphShape.PATH
    if ones == 0:
        return SubgraphShape.CYCLE
    return SubgraphShape.OTHER


def classify(edges: Iterable[Edge], n: int) -> SubgraphShape:
    """Most specific shape tag of an edge set over vertices ``0..n-1``.

    A single path/cycle gets its own tag; otherwise an all-cycle edge set
    is a POLYCYCLE, an all-path edge set a LINEAR_FOREST.
    """
    edges = frozenset(edges)
    for u, v in edges:
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u},{v}) invalid for n={n}")
    if not edges:
        return SubgraphShape.EMPTY
    shapes = [_component_shape(c) for c in edge_components(edges)]
    if any(s is SubgraphShape.OTHER for s in shapes):
        return SubgraphShape.OTHER
    if len(shapes) == 1:
        return shapes[0]
    if all(s is SubgraphShape.CYCLE for s in shapes):
        return SubgraphShape.POLYCYCLE
    if all(s is SubgraphShape.PATH for s in shapes):
        return SubgraphShape.LINEAR_FOREST
    return SubgraphShape.OTHER


def symmetric_difference(parts: Iterable[Iterable[Edge]]) -> frozenset[Edge]:
    """Edges occurring in an odd number of the given edge sets."""
    acc: set[Edge] = set()
    for part in parts:
        acc ^= set(part)
    return frozenset(acc)


def eulerian_orientation(g: SimpleGraph) -> Digraph:
    """Orient every edge so that in-degree equals out-degree at each vertex.

    Follows a closed trail through each component; arcs are emitted in
    sorted order of their underlying edges, so the arc with id ``i``
    corresponds to ``sorted(g.edges)[i]``.
    """
    if any(d % 2 for d in g.degree_vector()):
        raise NotEulerian("graph has a vertex of odd degree")
    remaining: dict[int, set[int]] = defaultdict(set)
    for u, v in g.edges:
        remaining[u].add(v)
        remaining[v].add(u)
    direction: dict[Edge, tuple[int, int]] = {}
    for start in sorted(remaining):
        if not remaining[start]:
            continue
        # Hierholzer: the reversed pop order is a closed trail.
        stack, trail = [start], []
        while stack:
            v = stack[-1]
            if remaining[v]:
                w = min(remaining[v])
                remaining[v].discard(w)
                remaining[w].discard(v)
                stack.append(w)
            else:
                trail.append(stack.pop())
        trail.reverse()
        for a, b in zip(trail, trail[1:]):
            direction[edge(a, b)] = (a, b)
    ordered = sorted(g.edges)
    tails = tuple(direction[e][0] for e in ordered)
    heads = tuple(direction[e][1] for e in ordered)
    return Digraph(g.n, tails, heads)


def cycle_order(comp: Iterable[Edge], start: int | None = None,
                second: int | None = None) -> list[int]:
    """Vertices of a cycle-shaped component in traversal order.

    Starts at ``start`` (default: smallest vertex) and moves toward
    ``second`` (default: its smaller neighbor).
    """
    adj = _adjacency(comp)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        raise ValueError("component is not a single cycle")
    first = min(adj) if start is None else start
    nxt = adj[first][0] if second is None else second
    order = [first]
    prev = first
    while nxt != first:
        order.append(nxt)
        a, b = adj[nxt]
        prev, nxt = nxt, (b if a == prev else a)
    if len(order) != len(adj):
        raise ValueError("component is not a single cycle")
    return order


def path_order(comp: Iterable[Edge]) -> list[int]:
    """Vertices of a path-shaped component from one endpoint to the other,
    starting at the smaller endpoint."""
    adj = _adjacency(comp)
    ends = sorted(v for v, nbrs in adj.items() if len(nbrs) == 1)
    if len(ends) != 2 or any(len(nbrs) > 2 for nbrs in adj.values()):
        raise ValueError("component is not a single path")
    order = [ends[0]]
    prev, cur = -1, ends[0]
    while cur != ends[1]:
        nbrs = adj[cur]
        nxt = nbrs[0] if len(nbrs) == 1 or nbrs[1] == prev else nbrs[1]
        order.append(nxt)
        prev, cur = cur, nxt
    return order
