"""Polycycle decompositions of Eulerian graphs and digraphs.

An Eulerian digraph whose maximum out-degree is D splits into D arc-disjoint
parts in which every touched vertex has in- and out-degree exactly 1, i.e.
every part is a disjoint union of directed cycles (a directed polycycle).
When at most one vertex has out-degree above a threshold t, the last D - t
parts can moreover be forced to be single cycles through that vertex.

The undirected variant orients the graph first.  Applied to the cluster
difference digraph of two equal-shape partitions, the same decomposition
yields a factorization of the move from p to q into balanced permutations
and p-cycles with pairwise disjoint supports.

Cost
----
The directed decomposition runs the matcher only while the residual
degree is 3 or more.  For t >= 3 it keeps, for each tail u, a map from
each head w to a stack of the unused arcs u -> w, lists those heads in
order for the matcher, and peels t - 2 perfect matchings with
Hopcroft-Karp, O(m sqrt(n)) each with a greedy first phase.  The last two
matchings come from flat arrays, two slots (arc, head) per tail: a
residual of degree 2 is a union of even tail-head cycles, and one walk
per cycle puts alternate slots into the two matchings, the halving step
of Gabow's Euler partitions (Gabow 1976).  So t <= 2, which covers every
pair of partitions into clusters of at most two items and every cover of
maximum degree 4, runs no matcher at all.  Each matcher round and the
split hand out a part as the arc it takes out of each tail, and one walk
per part turns that array into the part's cycles (``components``), which
the factorization and the undirected decomposition read; no pass builds
a set per part (``parts`` is built on first use, by the covers only).
All but the matcher is near-linear in m + n t on m arcs and n vertices.
Within ``resolve`` on CPython 3.11 (2-vCPU x86-64 VM) the decomposition
takes about 40% of the time at m = 3000 (1500 clusters of 2) and about
80% at m = 10^5 (20,000 clusters of 5, three matching rounds).
``_directed`` takes tail and head arrays, no ``Digraph``: p's and q's
assignments from the factorization, with p's sizes as out-degrees, and an
orientation's arcs from the undirected decomposition.

Checks
------
A part's walk raises when it stalls at a tail with no arc or enters a head
twice: with one arc out of each tail, the in = out = 1 test.  It, a failed
matching round, a walk on the residual of degree 2 that does not close and
a stalled cycle extraction are explicit raises.  With one slot per tail
and part, and each arc popped or slotted once, the parts are disjoint and
hold exactly the non-loop arcs by construction.  The undirected polycycle
shape needs no check of its own: an orientation of a simple graph has no
loop and no antiparallel pair, so each directed cycle of a part is an
undirected cycle of length 3 or more.  The factorization checks nothing
more, not even a label (``Partition`` did), and ``resolve`` its walk once,
with ``perms.check_resolution``.  The cores ``_directed`` and
``_polycycle_cover`` skip their public names' input checks, whose facts
their callers hold, and ``_polycycle_cover`` checks nothing of its two
parts: the covers check their output once, with ``oddcover.check_cover``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import (
    Digraph,
    Edge,
    SimpleGraph,
    SubgraphShape,
    classify,
    degrees,
    edge,
    edge_components,
    eulerian_orientation,
)
from .perms import (
    CycleSeq,
    Partition,
    Permutation,
    two_largest,
)

__all__ = [
    "PolycycleDecomposition",
    "directed_polycycle_decomposition",
    "undirected_polycycle_decomposition",
    "balanced_permutation_factorization",
    "polycycle_odd_cover",
]

# A part by tail holds the arc out of each tail, or one of these marks.
_NO_ARC, _LEFT = -1, -2   # no arc (the tail holds a loop); taken by the walk


@dataclass(frozen=True)
class PolycycleDecomposition:
    """Pairwise disjoint polycycle parts covering all non-loop edges.

    ``components`` holds each part's cycles: for a directed host as arc-id
    tuples, each from its smallest arc and in order of that arc; for an
    undirected host as edge sets, in order of smallest vertex (as
    ``graphs.edge_components`` orders them), the same order since arc i is
    the i-th smallest edge.  ``parts``, built on first use, gives each
    part's arcs or edges as one set.  The trailing ``cycle_suffix_len``
    parts are single cycles; one may be empty, paid for by a loop at the
    high-degree vertex, which stands in for a degenerate cycle.
    """

    components: tuple[tuple[tuple[int, ...] | frozenset, ...], ...]
    cycle_suffix_len: int

    @cached_property
    def parts(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(x for cycle in cycles for x in cycle) for cycles in self.components)

    def __len__(self) -> int:
        return len(self.components)


def _hopcroft_karp(n_left: int, n_right: int, adj: list[list[int]]) -> list[int]:
    """Maximum bipartite matching; returns the partner of each left vertex (-1 if none).

    The first phase is a greedy pass: every left vertex starts free at BFS
    distance 0, so each augmenting path of that phase has length 1 and the
    textbook phase matches each vertex, in order, to its first free
    neighbour.  Later phases run the BFS from the free vertices only.
    """
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    free = []
    for u in range(n_left):
        for w in adj[u]:
            if match_r[w] == -1:
                match_l[u] = w
                match_r[w] = u
                break
        else:
            free.append(u)
    inf = n_left + n_right + 1

    while free:
        dist = [inf] * n_left
        for u in free:
            dist[u] = 0
        queue = free[:]
        reachable_free = False
        for u in queue:   # the loop also visits the vertices appended below
            du = dist[u] + 1
            for w in adj[u]:
                u2 = match_r[w]
                if u2 == -1:
                    reachable_free = True
                elif dist[u2] == inf:
                    dist[u2] = du
                    queue.append(u2)
        if not reachable_free:
            return match_l
        for root in free:
            # Depth-first search along the BFS layers.  path[d] is the left
            # vertex at depth d and nxt[d] the index of its next neighbour;
            # adj[u] is scanned in order and dead ends get dist = inf exactly
            # where the recursive form would mark them.
            path = [root]
            nxt = [0]
            while path:
                u = path[-1]
                nbrs = adj[u]
                i = nxt[-1]
                want = dist[u] + 1
                while i < len(nbrs):
                    u2 = match_r[nbrs[i]]
                    i += 1
                    if u2 == -1 or dist[u2] == want:
                        break
                else:
                    dist[u] = inf
                    path.pop()
                    nxt.pop()
                    continue
                nxt[-1] = i
                if u2 != -1:
                    path.append(u2)
                    nxt.append(0)
                    continue
                # Flip the path: each vertex takes the neighbour it last tried.
                for v, j in zip(path, nxt):
                    w = adj[v][j - 1]
                    match_l[v] = w
                    match_r[w] = v
                break
        free = [u for u in free if match_l[u] == -1]
    return match_l


def _extract_cycle_through(heads, v: int, out_arcs: list[list[int]], used: list[bool]) -> tuple[int, ...]:
    """Remove and return a simple directed cycle through v, or consume one loop at v.

    Walks unused non-loop arcs (lowest arc id first) until the first return
    to v.  When the walk re-enters a vertex of its path, the detour since
    that vertex is cut from the path; its arcs stay used until the walk
    reaches v, and only then go back to the pool.  The cycle comes in walk
    order from its smallest arc.  If only loops remain at v, one loop is
    consumed and the empty tuple returned (a degenerate cycle).
    """
    path: list[int] = []
    cut: list[int] = []
    pos = {v: 0}  # each vertex of the path -> index of the path's arc out of it
    cur = v
    while True:
        step = next((a for a in out_arcs[cur] if not used[a] and heads[a] != cur), None)
        if step is None:
            if path:
                raise AssertionError("balanced digraph walk can only halt at its start")
            loop = next((a for a in out_arcs[v] if not used[a]), None)
            if loop is None:
                raise AssertionError("extraction requires an unused out-arc at v")
            used[loop] = True
            return ()
        used[step] = True
        path.append(step)
        cur = heads[step]
        if cur == v:
            break
        j = pos.setdefault(cur, len(path))
        if j < len(path):
            for a in path[j:-1]:
                del pos[heads[a]]
            cut += path[j:]
            del path[j:]
    for a in cut:
        used[a] = False
    k = path.index(min(path))
    return (*path[k:], *path[:k])


def _cycles_of(out_arc: list[int], heads) -> tuple[tuple[int, ...], ...]:
    """The cycles of the part holding arc ``out_arc[u]`` out of each tail u
    (``_NO_ARC`` if none), as arc-id tuples, each from its smallest arc and
    in order of that arc: one walk, marking each tail it leaves in
    ``out_arc``.  Raises AssertionError when the walk stalls at a tail with
    no arc or enters a tail twice but at its cycle's start (two arcs into
    one head), which with one arc per tail is the in = out = 1 test."""
    cycles = []
    for s, a in enumerate(out_arc):
        if a < 0:
            continue
        out_arc[s] = _LEFT
        cycle = [a]
        u = heads[a]
        while u != s:
            a = out_arc[u]
            if a < 0:
                if a == _LEFT:
                    raise AssertionError("two arcs of a part enter one head")
                raise AssertionError("a part's walk stalls at a tail with no arc")
            out_arc[u] = _LEFT
            cycle.append(a)
            u = heads[a]
        k = cycle.index(min(cycle))
        cycles.append((*cycle[k:], *cycle[:k]))
    cycles.sort()
    return tuple(cycles)


def _split_residual(k: int, slot_arcs: list[int], slot_heads: list[int]) -> list[list[int]]:
    """The last k <= 2 matchings of a k-regular residual, each as the arc
    it takes out of every tail (``_NO_ARC`` for a loop).

    Tail u owns slots k u .. k u + k - 1, each an arc and its head; a loop,
    real or virtual, holds its slot as ``_NO_ARC`` and enters no part.
    With k = 1 the slots are the one matching.  With k = 2 the residual is
    a union of even tail-head cycles: the two slots into each head are
    paired, and one walk per cycle alternates between a tail's other slot
    (first matching) and the slot paired with it at its head (second
    matching) until it is back at its start.  This is the halving step of
    Gabow's Euler partitions (Gabow 1976).
    """
    if k < 2:
        return [slot_arcs] * k
    n = len(slot_heads) // 2
    mate = [-1] * (2 * n)
    pending = [-1] * n
    for s, w in enumerate(slot_heads):
        r = pending[w]
        if r < 0:
            pending[w] = s
        else:
            mate[r] = s
            mate[s] = r
            pending[w] = -1
    first, second = [None] * n, [None] * n   # None until the walk fills the tail
    for u in range(n):
        if first[u] is not None:
            continue
        start = s = 2 * u
        while True:
            first[s >> 1] = slot_arcs[s]
            r = mate[s]
            if r < 0:
                raise AssertionError("the walk on the degree-2 residual must close at its start")
            second[r >> 1] = slot_arcs[r]
            s = r ^ 1
            if s == start:
                break
    return [first, second]


def directed_polycycle_decomposition(g: Digraph, t: int) -> PolycycleDecomposition:
    """Split an Eulerian digraph into max-out-degree many directed polycycles.

    Requires in-degree = out-degree everywhere and, when t < D (the maximum
    out-degree), that at most one vertex has out-degree above t.  Returns D
    parts whose union is the non-loop arcs of g; the last D - t parts are
    single cycles through the high-degree vertex.
    """
    out = g.out_degrees()
    if out != g.in_degrees():
        raise ValueError("every vertex needs equal in- and out-degree")
    return _directed(g.n, g.tails, g.heads, t, out)


def _directed(n: int, tails, heads, t: int, out) -> PolycycleDecomposition:
    """``directed_polycycle_decomposition`` of the digraph on n vertices
    with arcs ``tails[a] -> heads[a]`` and out-degrees ``out``, equal to its
    in-degrees: the callers hold these facts and those a ``Digraph`` checks."""
    delta = max(out, default=0)
    if not 0 <= t <= delta:
        raise ValueError(f"threshold must lie in [0, {delta}], got {t}")
    m = len(tails)

    used = [False] * m
    suffix: list[tuple[tuple[int, ...], ...]] = []
    if t < delta:
        high = [u for u in range(n) if out[u] > t]
        if len(high) > 1:
            raise ValueError(
                f"{len(high)} vertices have out-degree above {t}; at most one allowed"
            )
        out_arcs: list[list[int]] = [[] for _ in range(n)]
        for a, u in enumerate(tails):
            out_arcs[u].append(a)
        v = high[0]
        for _ in range(delta - t):
            cycle = _extract_cycle_through(heads, v, out_arcs, used)
            suffix.append((cycle,) if cycle else ())

    components: list[tuple[tuple[int, ...], ...]] = []
    if t >= 3:
        # pools[u][w] is a stack of the unused arcs u -> w, lowest arc id on
        # top; a head leaves pools[u] when its stack runs dry.
        pools: list[dict[int, list[int]]] = [{} for _ in range(n)]
        res_out = [0] * n
        for a in range(m - 1, -1, -1):
            if used[a]:
                continue
            u, w = tails[a], heads[a]
            res_out[u] += 1
            stack = pools[u].get(w)
            if stack is None:
                pools[u][w] = stack = []
            stack.append(a if u != w else _NO_ARC)

        # Pad every vertex to out-degree t with virtual loops.  No loop, real
        # or virtual, enters a part: each holds its slot as _NO_ARC.  Then
        # peel t - 2 perfect matchings of the tail/head bipartite multigraph.
        for u in range(n):
            if res_out[u] < t:
                pools[u].setdefault(u, []).extend([_NO_ARC] * (t - res_out[u]))

        # adj[u] lists the heads w with a non-empty pools[u][w], ascending.
        adj = [sorted(pu) for pu in pools]
        for _ in range(t - 2):
            match_l = _hopcroft_karp(n, n, adj)
            if -1 in match_l:
                raise AssertionError("regular bipartite graph has a perfect matching")
            out_arc = []
            for u, w in enumerate(match_l):
                stack = pools[u][w]
                out_arc.append(stack.pop())
                if not stack:
                    del pools[u][w]
                    adj[u].remove(w)
            components.append(_cycles_of(out_arc, heads))
        # The two slots left at each tail.
        slot_arcs: list[int] = []
        slot_heads: list[int] = []
        for pu in pools:
            for w, stack in pu.items():
                slot_arcs += stack
                slot_heads += [w] * len(stack)
    else:
        # The residual's arcs by tail, t slots each, lowest arc id first,
        # padded with virtual loops.  Every loop, real or virtual, holds
        # its slot as _NO_ARC with the tail as its head.
        slot_arcs = [_NO_ARC] * (t * n)
        slot_heads = sorted([*range(n)] * t)
        filled = [t * u for u in range(n)]
        for a in range(m):
            if not used[a]:
                u, w = tails[a], heads[a]
                s = filled[u]
                filled[u] = s + 1
                if u != w:
                    slot_arcs[s] = a
                    slot_heads[s] = w
    for out_arc in _split_residual(min(t, 2), slot_arcs, slot_heads):
        components.append(_cycles_of(out_arc, heads))
    return PolycycleDecomposition((*components, *suffix), delta - t)


def undirected_polycycle_decomposition(g: SimpleGraph, t: int) -> PolycycleDecomposition:
    """Split an Eulerian graph of maximum degree D into D/2 polycycles.

    Requires, when t < D/2, that at most one vertex has degree above 2t.
    The last D/2 - t parts are single cycles through that vertex.  The
    parts' cycles come with them, mapped from the directed decomposition's:
    an orientation of a simple graph has no loop and no antiparallel pair,
    so each directed cycle is an undirected cycle of length 3 or more.
    """
    oriented = eulerian_orientation(g)
    tails, heads = oriented.tails, oriented.heads
    directed = _directed(oriented.n, tails, heads, t, [d // 2 for d in degrees(g).degrees])
    edge_of = [(u, w) if u < w else (w, u) for u, w in zip(tails, heads)].__getitem__
    components = tuple(tuple(frozenset(map(edge_of, cycle)) for cycle in cycles)
                       for cycles in directed.components)
    return PolycycleDecomposition(components, directed.cycle_suffix_len)


def balanced_permutation_factorization(
    p: Partition, q: Partition
) -> tuple[list[CycleSeq], list[Permutation]]:
    """Factor the move from p to q into p-cycles and p-balanced permutations.

    Returns (sigmas, pis) with pairwise disjoint supports: at most k1 - k2
    p-cycles and at most k2 p-balanced permutations, where k1 >= k2 are the
    two largest cluster sizes.  Applying all factors to p (in any order,
    since they commute) yields q.
    """
    if p.sizes() != q.sizes():
        raise ValueError("p and q must have equal per-cluster sizes")
    sigmas, classes = _factorize(p, q)
    return [CycleSeq(s) for s in sigmas], [
        Permutation.from_moved(p.m, {x: y for c in cycles for x, y in zip(c, (*c[1:], c[0]))})
        for cycles in classes]


def _factorize(p: Partition, q: Partition):
    """The factorization of a pair with checked equal ``sizes()``: each
    p-cycle as an item tuple, each balanced permutation as its ``cycles()``."""
    if p == q:
        return [], []
    sizes = p.sizes()
    _, k2 = two_largest(sizes)
    # Arc j runs p(j) -> q(j): the out-degrees are p's sizes, the in-degrees q's.
    decomp = _directed(p.n, p.assign, q.assign, k2, sizes)
    split = len(decomp) - decomp.cycle_suffix_len
    classes = [cycles for cycles in decomp.components[:split] if cycles]
    sigmas = [cycles[0] for cycles in decomp.components[split:] if cycles]
    return sigmas, classes


def polycycle_odd_cover(h, kind: str) -> list[frozenset[Edge]]:
    """Cover a polycycle with at most two paths or at most two cycles.

    Every edge of h lies in an odd number of returned parts and every other
    pair in an even number (here: the parts xor to h exactly).  A single
    cycle is its own one-part cycle cover.
    """
    if kind not in ("path", "cycle"):
        raise ValueError(f"kind must be 'path' or 'cycle', got {kind!r}")
    edges = frozenset(edge(u, v) for u, v in h)
    if not edges:
        return []
    n = max(max(e) for e in edges) + 1
    shape = classify(edges, n)
    if shape not in (SubgraphShape.CYCLE, SubgraphShape.POLYCYCLE):
        raise ValueError(f"input classifies as {shape.value}, not a polycycle")

    return _polycycle_cover(edges, edge_components(edges), kind)


def _polycycle_cover(edges: frozenset[Edge], comps, kind: str) -> list[frozenset[Edge]]:
    """``polycycle_odd_cover`` of a polycycle of canonical ``edges`` whose
    cycles ``comps`` come in order of smallest vertex."""
    if kind == "cycle" and len(comps) == 1:
        return [edges]

    chosen = [min(c) for c in comps]
    connectors = [edge(chosen[i][1], chosen[i + 1][0]) for i in range(len(comps) - 1)]
    p1: set[Edge] = set(connectors)
    for comp, e in zip(comps, chosen):
        p1 |= comp - {e}
    p2: set[Edge] = set(chosen) | set(connectors)
    if kind == "cycle":
        closing = edge(chosen[-1][1], chosen[0][0])
        p1.add(closing)
        p2.add(closing)
    return [frozenset(p1), frozenset(p2)]
