"""Undirected simple graphs, directed multigraphs, and shape queries.

Vertices are dense integers ``0..n-1``.  Undirected edges are canonical
``(min, max)`` pairs so that edge sets support exact xor algebra; directed
edges are indexed positionally (arc id = position in the tail/head arrays)
and may include loops and parallel arcs.  Every walk of an undirected edge
set, here and in the pair search, the cover surgery and the matching
colouring, reads the plain dict of neighbour lists that ``_links`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

Edge = tuple[int, int]


def label_counts(labels: Iterable[int], n: int) -> list[int]:
    """How often each label ``0..n-1`` occurs in ``labels``."""
    counts = [0] * n
    for c in labels:
        counts[c] += 1
    return counts


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
        return label_counts(chain.from_iterable(self.edges), self.n)

    @cached_property
    def _degrees(self) -> DegreeSummary:
        deg = self.degree_vector()
        delta = max(deg, default=0)
        return DegreeSummary(
            delta=delta,
            v_odd=sum(1 for d in deg if d % 2),
            delta_e=2 * ((delta + 1) // 2),
            degrees=tuple(deg),
        )


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
        tails, heads = self.tails, self.heads
        if tails and not 0 <= min(min(tails), min(heads)) <= max(max(tails), max(heads)) < self.n:
            for v in (*tails, *heads):   # names the first offender
                if not 0 <= v < self.n:
                    raise ValueError(f"vertex {v} out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.tails)

    def out_degrees(self) -> list[int]:
        return label_counts(self.tails, self.n)

    def in_degrees(self) -> list[int]:
        return label_counts(self.heads, self.n)


class DegreeSummary(NamedTuple):
    delta: int
    v_odd: int
    delta_e: int
    degrees: tuple[int, ...]


def degrees(g: SimpleGraph) -> DegreeSummary:
    """Max degree, number of odd vertices, even ceiling of the max, and
    the full degree vector: the one summary g counts once and keeps."""
    return g._degrees


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
    return set(chain.from_iterable(edges))


def edge_components(edges: Iterable[Edge]) -> list[frozenset[Edge]]:
    """Connected components as edge sets, ordered by smallest vertex.

    One depth-first pass over the neighbour lists (``_links``): each edge
    joins its component when the search pops its smaller vertex, so the
    cost is O(E) plus sorting the vertices.
    """
    adj = _links(edges)
    seen: set[int] = set()
    comps: list[frozenset[Edge]] = []
    # Starts run in increasing order, so each start is the smallest vertex
    # of its component and the list comes out sorted.
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        comp: list[Edge] = []
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if v < w:
                    comp.append((v, w))
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def _links(edges: Iterable[Edge]) -> dict[int, list[int]]:
    """Neighbour lists of an edge set, in no particular order, in a plain
    dict: the one builder every walk of an edge set reads."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _walk(adj: dict[int, list[int]], start: int) -> tuple[int, int, int]:
    """Follow a graph of maximum degree 2 from ``start`` (a path end, or any
    cycle vertex) to the path's other end or back round to ``start``:
    (last vertex, smallest vertex, edges walked)."""
    prev, cur, low, steps = start, adj[start][0], start, 1
    while cur != start and len(nxt := adj[cur]) == 2:
        if cur < low:
            low = cur
        # Step to the neighbour we did not come from.
        prev, cur = cur, nxt[nxt[0] == prev]
        steps += 1
    return cur, min(low, cur), steps


def _paths(adj: dict[int, list[int]]) -> tuple[list[tuple[int, int, int]], int]:
    """``(smallest vertex, smaller end, larger end)`` of each path of a graph
    of maximum degree 2, in order of smallest vertex, and the edges on them."""
    paths, walked, done = [], 0, set()
    for a, nbrs in adj.items():
        if len(nbrs) == 1 and a not in done:
            b, low, steps = _walk(adj, a)
            done.add(b)
            walked += steps
            paths.append((low, min(a, b), max(a, b)))
    return sorted(paths), walked


def linear_forest_paths(edges: Iterable[Edge]) -> list[tuple[int, int, int]] | None:
    """The paths of a linear forest as ``_paths`` gives them, or None when
    the edge set has a vertex of degree above 2 or a cycle."""
    edges = frozenset(edges)
    adj = _links(edges)
    if adj and max(map(len, adj.values())) > 2:
        return None
    paths, walked = _paths(adj)
    return paths if walked == len(edges) else None


def classify(edges: Iterable[Edge], n: int) -> SubgraphShape:
    """Most specific shape tag of an edge set over vertices ``0..n-1``.

    A single path/cycle gets its own tag; otherwise an all-cycle edge set
    is a POLYCYCLE, an all-path edge set a LINEAR_FOREST.  One walk decides
    it: along the paths if any (they must take every edge), else round one
    cycle (it is alone when it takes every edge).
    """
    edges = frozenset(edges)
    for u, v in edges:
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u},{v}) invalid for n={n}")
    if not edges:
        return SubgraphShape.EMPTY
    adj = _links(edges)
    if max(map(len, adj.values())) > 2:
        return SubgraphShape.OTHER
    paths, walked = _paths(adj)
    if paths:
        if walked < len(edges):
            return SubgraphShape.OTHER
        return SubgraphShape.PATH if len(paths) == 1 else SubgraphShape.LINEAR_FOREST
    alone = _walk(adj, next(iter(adj)))[2] == len(edges)
    return SubgraphShape.CYCLE if alone else SubgraphShape.POLYCYCLE


def symmetric_difference(parts: Iterable[Iterable[Edge]]) -> frozenset[Edge]:
    """Edges occurring in an odd number of the given edge sets."""
    acc: set[Edge] = set()
    for part in parts:
        acc ^= set(part)
    return frozenset(acc)


def eulerian_orientation(g: SimpleGraph) -> Digraph:
    """Orient every edge so that in-degree equals out-degree at each vertex.

    Follows a closed trail through each component (Hierholzer), starting
    from the smallest vertex with an unused edge and leaving each vertex
    by its unused edge to the smallest neighbour.  Arc ``i`` is the edge
    ``sorted(g.edges)[i]``.  An odd vertex is refused from g's kept degree
    summary before anything is built.  A vertex's edge ids, in sorted-list
    order, run by increasing neighbour, so a pointer per vertex finds its
    next unused edge and the walk is O(E) after the sort.
    """
    if degrees(g).v_odd:
        raise ValueError("graph has a vertex of odd degree")
    ordered = sorted(g.edges)
    inc: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(ordered):
        inc[u].append(i)
        inc[v].append(i)
    m = len(ordered)
    tails, heads = [-1] * m, [0] * m   # a tail of -1 marks an unused edge
    nxt = [0] * g.n
    for start in range(g.n):
        # Each edge takes the direction it is walked in, which is its
        # direction in the closed trail Hierholzer splices together.
        stack: list[int] = []
        v = start
        while True:
            ids, i = inc[v], nxt[v]
            while i < len(ids) and tails[ids[i]] >= 0:
                i += 1
            if i == len(ids):
                nxt[v] = i
                if not stack:
                    break
                v = stack.pop()
                continue
            e = ids[i]
            nxt[v] = i + 1
            stack.append(v)
            tails[e] = v
            a, b = ordered[e]
            v = heads[e] = a + b - v
    return Digraph(g.n, tuple(tails), tuple(heads))

