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
maximum degree 4, runs no matcher at all.  The set-up, the pops, the
split and the self-checks are near-linear in m + n t on m arcs and n
vertices: one arc-owner array shows the parts disjoint and holding
exactly the non-loop arcs, and one successor walk per part checks
in = out = 1 and hands out its cycles (``components``), which the
factorization and the undirected decomposition read without walking the
part again.  Within ``resolve`` on CPython 3.11 the decomposition takes
about 35% of the time at m = 3000 (1500 clusters of 2) and about 65% at
m = 10^5 (20,000 clusters of 5, three matching rounds).  The
factorization calls the core ``_directed`` with p's cluster sizes as the
out-degrees (the in-degrees are q's).

Checks
------
The in = out = 1 test, a suffix part of more than one cycle, a failed
matching round, a walk on the residual of degree 2 that does not close
and a stalled cycle walk are explicit raises.  The undirected polycycle
shape needs no check of its own: an orientation of a simple graph has no
loop and no antiparallel pair, so each directed cycle of a part is an
undirected cycle of length 3 or more.  The factorization checks nothing
more; ``resolve`` checks its walk once, with ``perms.check_resolution``.
The cores ``_directed`` and ``_polycycle_cover`` skip their public
names' input checks, whose facts their callers hold already, and
``_polycycle_cover`` checks nothing of its two parts: the covers check
their output once, with ``oddcover.check_cover``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Digraph,
    Edge,
    SimpleGraph,
    SubgraphShape,
    classify,
    edge,
    edge_components,
    eulerian_orientation,
)
from .perms import (
    CycleSeq,
    Partition,
    Permutation,
    cdg,
    two_largest,
)

__all__ = [
    "PolycycleDecomposition",
    "directed_polycycle_decomposition",
    "undirected_polycycle_decomposition",
    "balanced_permutation_factorization",
    "polycycle_odd_cover",
]


@dataclass(frozen=True)
class PolycycleDecomposition:
    """Pairwise disjoint polycycle parts covering all non-loop edges.

    Parts hold arc ids (directed host) or canonical edges (undirected host).
    The trailing ``cycle_suffix_len`` parts are single cycles; a part in the
    suffix may be empty when it was paid for by a loop at the high-degree
    vertex, which stands in for a degenerate cycle.  ``components`` holds
    each part's cycles: for a directed host as arc-id tuples, each from its
    smallest arc and in order of that arc; for an undirected host as edge
    sets, in order of smallest vertex (as ``graphs.edge_components`` orders
    them), which is the same order since arc i is the i-th smallest edge.
    """

    parts: tuple[frozenset, ...]
    cycle_suffix_len: int
    components: tuple[tuple[tuple[int, ...] | frozenset, ...], ...] = ()

    def __len__(self) -> int:
        return len(self.parts)


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


def _extract_cycle_through(g: Digraph, v: int, out_arcs: list[list[int]], used: list[bool]) -> frozenset[int]:
    """Remove and return a simple directed cycle through v, or consume one loop at v.

    Walks unused non-loop arcs (lowest arc id first) until the first return
    to v; repeated intermediate vertices are shortcut and their arcs returned
    to the pool.  If only loops remain at v, one loop is consumed and the
    empty set returned (a degenerate cycle).
    """
    first = None
    loop = None
    for a in out_arcs[v]:
        if used[a]:
            continue
        if g.heads[a] == v:
            if loop is None:
                loop = a
        else:
            first = a
            break
    if first is None:
        if loop is None:
            raise AssertionError("extraction requires an unused out-arc at v")
        used[loop] = True
        return frozenset()

    walk = [first]
    used[first] = True
    cur = g.heads[first]
    while cur != v:
        step = None
        for a in out_arcs[cur]:
            if not used[a] and g.heads[a] != cur:
                step = a
                break
        if step is None:
            raise AssertionError("balanced digraph walk can only halt at its start")
        used[step] = True
        walk.append(step)
        cur = g.heads[step]

    # Shortcut revisited intermediate vertices so the cycle is simple.
    verts = [v]
    pos = {v: 0}
    reduced: list[int] = []
    for a in walk:
        reduced.append(a)
        h = g.heads[a]
        if h == v:
            break
        if h in pos:
            j = pos[h]
            for b in reduced[j:]:
                used[b] = False
            for w in verts[j + 1 :]:
                del pos[w]
            del reduced[j:]
            del verts[j + 1 :]
        else:
            pos[h] = len(reduced)
            verts.append(h)
    return frozenset(reduced)


def _part_cycles(arcs: frozenset[int], tails, heads, single_cycle: bool) -> tuple[tuple[int, ...], ...]:
    """The cycles of a directed polycycle part as arc-id tuples, each from
    its smallest arc and in order of that arc: one successor walk.  Raises
    AssertionError unless every vertex the arcs touch has in- and
    out-degree 1 in them and, for a suffix part, they form at most one
    cycle."""
    succ = {tails[a]: a for a in arcs}   # the walk removes the arcs it takes
    ends = {heads[a] for a in arcs}
    # Distinct tails, distinct heads and equal sets: in = out = 1 everywhere.
    if not len(succ) == len(ends) == len(arcs) or ends != succ.keys():
        raise AssertionError("part must have in- and out-degree 1 at every touched vertex")
    cycles = []
    for a in sorted(arcs):
        if tails[a] in succ:
            cycle = []
            while a is not None:
                cycle.append(a)
                del succ[tails[a]]
                a = succ.get(heads[a])
            cycles.append(tuple(cycle))
    if single_cycle and len(cycles) > 1:
        raise AssertionError("suffix part must be one cycle")
    return tuple(cycles)


def _split_residual(
    k: int, slot_arcs: list[int], slot_heads: list[int], loop: int
) -> list[frozenset[int]]:
    """The last k <= 2 matchings of a k-regular residual, as arc-id sets.

    Tail u owns slots k u .. k u + k - 1, each an arc and its head; a loop,
    real or virtual, holds its slot under the arc id ``loop`` and enters no
    part.  With k = 1 the slots are the one matching.  With k = 2 the
    residual is a union of even tail-head cycles: the two slots into each
    head are paired, and one walk per cycle alternates between a tail's
    other slot (first matching) and the slot paired with it at its head
    (second matching) until it is back at its start.  This is the halving
    step of Gabow's Euler partitions (Gabow 1976).
    """
    if k < 2:
        return [frozenset(slot_arcs) - {loop}] * k
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
    first: list[int] = []
    second: list[int] = []
    placed = [False] * n
    for u in range(n):
        if placed[u]:
            continue
        start = s = 2 * u
        while True:
            placed[s >> 1] = True
            first.append(slot_arcs[s])
            r = mate[s]
            if r < 0:
                raise AssertionError("the walk on the degree-2 residual must close at its start")
            second.append(slot_arcs[r])
            s = r ^ 1
            if s == start:
                break
    return [frozenset(first) - {loop}, frozenset(second) - {loop}]


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
    return _directed(g, t, out)


def _directed(g: Digraph, t: int, out) -> PolycycleDecomposition:
    """``directed_polycycle_decomposition`` of g, whose out-degrees ``out``
    are checked equal to its in-degrees."""
    delta = max(out, default=0)
    if not 0 <= t <= delta:
        raise ValueError(f"threshold must lie in [0, {delta}], got {t}")
    n, m, tails, heads = g.n, g.m, g.tails, g.heads

    used = [False] * m
    cycles: list[frozenset[int]] = []
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
            cycles.append(_extract_cycle_through(g, v, out_arcs, used))

    classes: list[frozenset[int]] = []
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
                pools[u][w] = [a]
            else:
                stack.append(a)

        # Pad every vertex to out-degree t with virtual loops (arc id m, which
        # no owner slot below accepts), then peel t - 2 perfect matchings of
        # the tail/head bipartite multigraph.  No loop, real or virtual,
        # enters a part, so their order in a stack does not matter.
        for u in range(n):
            if res_out[u] < t:
                pools[u].setdefault(u, []).extend([m] * (t - res_out[u]))

        # adj[u] lists the heads w with a non-empty pools[u][w], ascending.
        adj = [sorted(pu) for pu in pools]
        for _ in range(t - 2):
            match_l = _hopcroft_karp(n, n, adj)
            if -1 in match_l:
                raise AssertionError("regular bipartite graph has a perfect matching")
            cls = []
            for u, w in enumerate(match_l):
                stack = pools[u][w]
                a = stack.pop()
                if not stack:
                    del pools[u][w]
                    adj[u].remove(w)
                if u != w:
                    cls.append(a)
            classes.append(frozenset(cls))
        # The two arcs left at each tail, real loops as m.
        slot_arcs: list[int] = []
        slot_heads: list[int] = []
        for u, pu in enumerate(pools):
            for w, stack in pu.items():
                slot_arcs += stack if w != u else [m] * len(stack)
                slot_heads += [w] * len(stack)
    else:
        # The residual's arcs by tail, t slots each, lowest arc id first,
        # padded with virtual loops.  Every loop, real or virtual, holds
        # its slot as arc id m with the tail as its head.
        slot_arcs = [m] * (t * n)
        slot_heads = [u for u in range(n) for _ in range(t)]
        filled = [t * u for u in range(n)]
        for a in range(m):
            if not used[a]:
                u, w = tails[a], heads[a]
                s = filled[u]
                filled[u] = s + 1
                if u != w:
                    slot_arcs[s] = a
                    slot_heads[s] = w
    classes.extend(_split_residual(min(t, 2), slot_arcs, slot_heads, m))

    # owner[a] is the part holding arc a, or -1.  The parts are disjoint
    # when the arcs written number the sum of the part sizes (no write
    # overwrote another), and they hold exactly the non-loop arcs when no
    # loop is written and the arcs written number the non-loops.
    parts = tuple(classes) + tuple(cycles)
    owner = [-1] * m
    for i, part in enumerate(parts):
        for a in part:
            owner[a] = i
    loops = [a for a in range(m) if tails[a] == heads[a]]
    written = m - owner.count(-1)
    assert written == sum(map(len, parts)) == m - len(loops)
    assert all(owner[a] == -1 for a in loops)
    components = tuple(_part_cycles(part, tails, heads, i >= len(classes))
                       for i, part in enumerate(parts))
    return PolycycleDecomposition(parts, delta - t, components)


def undirected_polycycle_decomposition(g: SimpleGraph, t: int) -> PolycycleDecomposition:
    """Split an Eulerian graph of maximum degree D into D/2 polycycles.

    Requires, when t < D/2, that at most one vertex has degree above 2t.
    The last D/2 - t parts are single cycles through that vertex.  The
    parts' cycles come with them, mapped from the directed decomposition's:
    an orientation of a simple graph has no loop and no antiparallel pair,
    so each directed cycle is an undirected cycle of length 3 or more.
    """
    oriented = eulerian_orientation(g)
    directed = directed_polycycle_decomposition(oriented, t)
    tails, heads = oriented.tails, oriented.heads
    edge_of = [(u, w) if u < w else (w, u) for u, w in zip(tails, heads)].__getitem__
    parts = tuple(frozenset(map(edge_of, arcs)) for arcs in directed.parts)
    components = tuple(tuple(frozenset(map(edge_of, cycle)) for cycle in cycles)
                       for cycles in directed.components)
    return PolycycleDecomposition(parts, directed.cycle_suffix_len, components)


def balanced_permutation_factorization(
    p: Partition, q: Partition
) -> tuple[list[CycleSeq], list[Permutation]]:
    """Factor the move from p to q into p-cycles and p-balanced permutations.

    Returns (sigmas, pis) with pairwise disjoint supports: at most k1 - k2
    p-cycles and at most k2 p-balanced permutations, where k1 >= k2 are the
    two largest cluster sizes.  Applying all factors to p (in any order,
    since they commute) yields q.
    """
    sizes = p.sizes()
    if sizes != q.sizes():
        raise ValueError("p and q must have equal per-cluster sizes")
    sigmas, classes = _factorize(p, q, sizes)
    return [CycleSeq(s) for s in sigmas], [
        Permutation.from_moved(p.m, {x: y for c in cycles for x, y in zip(c, (*c[1:], c[0]))})
        for cycles in classes]


def _factorize(p: Partition, q: Partition, sizes):
    """The factorization of a pair of checked common ``sizes``: each p-cycle
    as an item tuple, each balanced permutation as its ``cycles()``."""
    if p == q:
        return [], []
    _, k2 = two_largest(sizes)
    d = cdg(p, q)
    # The cdg's out-degrees are p's cluster sizes and its in-degrees q's.
    decomp = _directed(d, k2, sizes)
    split = len(decomp.parts) - decomp.cycle_suffix_len
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
