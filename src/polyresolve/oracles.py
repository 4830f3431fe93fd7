"""Brute-force oracles for desk-scale cross-checking.

Everything here answers by explicit state-space search, independent of the
constructive modules: polytope diameters and shortest resolutions by BFS
over contingency tables, and smallest odd-covers by exhaustive part
enumeration (``exact_odd_cover``).  The shortest resolution certifies the
paper's tight pp36 instance (six clusters of three, 5 = ceil(9/2) moves
apart) exactly; its search stores 341,722 tables, so the acceptance check
passes a cap of 400,000 to
``min_resolution_length``.  ``verify_certificate`` reports a
certificate's first violated invariant, promised bound included: it
dispatches to the one checker of each kind, ``perms.check_resolution`` and
``oddcover.check_cover``, which the constructions also call on their
output.  The one cover built here, ``tight_path_odd_cover``, falls back on
the exhaustive search where the constructive path cover misses the tight
bound.

The BFS oracles search contingency tables: the table of a state s against
a fixed state q is N[i][j] = #{x : s(x) = i, q(x) = j}.  Relabeling items
within q's clusters acts by automorphisms of the exchange graph that fix
q, its orbits are the tables, and an edge between two orbits lifts from
every member of the first, so BFS over tables gives exact distances to q.
An exchange picks distinct rows in cyclic order and a non-zero cell in
each, and moves one unit of each cell to the next row.  A table is one
integer: cell (i, j) is a field of b = K.bit_length() bits at offset
b*(i*n + j), K the largest cluster.  ``_neighbours`` decodes a table in
one step per non-zero cell, then walks the exchanges carrying the code
change of the open chain: one multiply-add per neighbour.  One BFS from
the diagonal, ``_distance_map``, gives the distance of every table of a
shape; it stops once the orbit sizes of the tables reached add up to the
polytope's vertex count, and fails if they never do.  The maps are kept per process, keyed by the non-empty
cluster sizes in label order, and the least recently used are dropped once
those kept hold more than ``errors.DEFAULT_STATE_CAP`` tables.  The
diameter is the depth of the shape's map; its cap counts the polytope's
vertices, with an early exit.  The shortest resolution looks up N(p, q) in
the map when the shape has at most four non-empty clusters, and at most
as many vertices as the cap and the map bound; otherwise it grows a ball from
N(p, q) and one from the diagonal, and its cap counts the tables stored on
both sides.  Both paths give the same answers and refuse the same inputs.

The exhaustive cover search codes a part as an edge bitmask of K_n.  Its
table of every path or cycle of K_n, ``_part_table``, lists each part once,
as one vertex sequence from ``itertools.permutations``.  It depends only on
(n, kind), so it is built once per process and kept; the state cap is
checked before each lookup, so the tables kept are those the cap allows
(about 16 MB at the default cap).  That cap is the one size guard of every
caller of the search: ``min_odd_cover_exhaustive``,
``tight_path_odd_cover`` and ``oddcover --exact``.  A search node costs
one pass over the n vertices, which also cuts nodes past the degree
bound, and one set lookup; the last two parts of a cover are one scan
over the parts through the smallest uncovered edge, with one xor and one
set lookup each.  A node's result depends on nothing but the edges left and
the parts left to spend, so its failures are kept across the deepening;
the first budget that has a cover admits no cover with a repeated part,
since that would cancel into a smaller one.
"""

from __future__ import annotations

import functools
import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from itertools import permutations
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import DEFAULT_STATE_CAP, TooLarge, state_cap
from .graphs import Edge, SimpleGraph, degrees, edge
from .oddcover import OddCoverCert, _make_cert, check_cover, path_odd_cover_general
from .perms import Partition, Resolution, check_resolution

__all__ = [
    "Report",
    "exact_diameter_bfs",
    "min_resolution_length",
    "exact_odd_cover",
    "min_odd_cover_exhaustive",
    "tight_path_odd_cover",
    "verify_certificate",
]


def _table_coding(sizes: tuple[int, ...]) -> tuple[int, list[int], list[int], int]:
    """Field width, column and row weights, and the diagonal's code of the
    tables over ``sizes``, a shape without empty clusters."""
    n, b = len(sizes), max(sizes).bit_length()
    colw = [1 << b * j for j in range(n)]
    roww = [1 << b * n * i for i in range(n)]
    return b, colw, roww, sum(k * roww[c] * colw[c] for c, k in enumerate(sizes))


def _neighbours(code: int, n: int, b: int, colw: list[int], roww: list[int]) -> list[int]:
    """Codes of the tables one exchange away from ``code``, each exchange
    walked once from its smallest row c0.  An exchange in which a row gets
    the column it gives is skipped: it equals the one without that row, or
    changes nothing."""
    by: list[list[int]] = [[] for _ in range(n)]
    rest, cell = code, 0
    while rest:
        skip = ((rest & -rest).bit_length() - 1) // b
        cell += skip
        by[cell // n].append(colw[cell % n])
        rest >>= (skip + 1) * b
        cell += 1
    occupied = [c for c in range(n) if by[c]]
    out: list[int] = []
    append = out.append
    for i, c0 in enumerate(occupied[:-1]):
        r0 = roww[c0]
        later = [(1 << j, roww[c], by[c]) for j, c in enumerate(occupied[i + 1:])]
        full = (1 << len(later)) - 1
        for w0 in by[c0]:
            # (row and column weight of the open end, code change so far, later rows used)
            stack = [(r0, w0, code, 0)]
            while stack:
                r_end, w_end, base, used = stack.pop()
                for bit, r, cols in later:
                    if used & bit:
                        continue
                    moved = base + (r - r_end) * w_end
                    close = r0 - r
                    more = used | bit != full
                    for w in cols:
                        if w != w_end:
                            if w != w0:
                                append(moved + close * w)
                            if more:
                                stack.append((r, w, moved, used | bit))
    return out


def _vertex_count(sizes: tuple[int, ...], limit: int) -> int:
    """The multinomial m! / prod(k!), built one factor at a time.

    It is the product, over the clusters, of binomial(items so far, k),
    each built by the multiplicative formula.  The partial products never
    decrease, so ``TooLarge`` is raised as soon as one passes ``limit``,
    after a few steps even for a huge shape.
    """
    count, total = 1, 0
    for k in sizes:
        r = min(k, total)
        total += k
        for i in range(1, r + 1):
            count = count * (total - r + i) // i
            if count > limit:
                raise TooLarge(f"polytope has more than {limit} vertices, the cap")
    return count


# The distance maps kept, least recently used first.
_MAPS: OrderedDict[tuple[int, ...], dict[int, int]] = OrderedDict()
# The most tables the maps kept may hold together.
_MAP_TABLES = DEFAULT_STATE_CAP
# Shortest resolutions read a map only for shapes of at most this many
# clusters.  A table of n rows has up to sum_k C(n, k) (k-1)! row cycles to
# exchange along: 20 for 4 rows, 84 for 5, 2,365 for 7.  Under the default
# cap, the costliest map of 4 clusters, (4,3,2,2), builds in 0.05 s, one of
# 5 in up to 0.4 s and (2,2,1,1,1,1,1) in 12 s, where one search of any of
# them takes about 1 ms.
_MAP_ROWS = 4


def _distance_map(live: tuple[int, ...], count: int) -> dict[int, int]:
    """The distance from the diagonal of every table over ``live``, a shape
    without empty clusters whose polytope has ``count`` vertices, by one BFS;
    the last entry is a farthest table.

    The orbit sizes of the tables reached must add up to ``count``, and the
    BFS stops as soon as they do.  Maps are kept per process, keyed by
    ``live``; once those kept hold more than ``_MAP_TABLES`` tables, the
    least recently used are dropped.  A map larger than that is returned,
    not kept, and drops none.  Callers only read a map.
    """
    dist = _MAPS.get(live)
    if dist is not None:
        _MAPS.move_to_end(live)
        return dist
    n = len(live)
    b, colw, roww, start = _table_coding(live)
    mask = (1 << b) - 1

    def orbit(code: int) -> int:
        # A table's orbit holds prod_j k_j! / prod_ij N[i][j]! states: a
        # product of binomials down each column.
        cells = [code >> b * c & mask for c in range(n * n)]
        return math.prod(math.comb(sum(cells[c % n:c + 1:n]), k) for c, k in enumerate(cells))

    # The orbits are disjoint, so once those reached hold every vertex, no
    # table is left to find and the search stops.  The diagonal's orbit is
    # one vertex.
    dist, frontier, depth, reached = {start: 0}, [start], 0, 1
    while frontier and reached < count:
        depth += 1
        level = []
        for code in frontier:
            for nb in _neighbours(code, n, b, colw, roww):
                if nb not in dist:
                    dist[nb] = depth
                    level.append(nb)
                    reached += orbit(nb)
            if reached >= count:
                break
        frontier = level
    if reached != count:
        raise AssertionError(f"BFS reached {reached} of {count} vertices of a connected graph")
    if len(dist) <= _MAP_TABLES:
        _MAPS[live] = dist
        held = sum(map(len, _MAPS.values()))
        while held > _MAP_TABLES:
            held -= len(_MAPS.popitem(last=False)[1])
    return dist


def exact_diameter_bfs(shape: Iterable[int], cap: int | None = None) -> int:
    """Combinatorial diameter of the partition polytope of the given shape:
    the eccentricity of one vertex, the depth of the shape's distance map.
    ``TooLarge`` is raised when the polytope has more vertices than the cap.
    """
    sizes = tuple(shape)
    for k in sizes:
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"cluster sizes must be integers, got {k!r}")
    if any(k < 0 for k in sizes):
        raise ValueError("cluster sizes must be non-negative")
    count = _vertex_count(sizes, state_cap(cap))
    if count == 1:  # at most one non-empty cluster; m may still be huge
        return 0
    return next(reversed(_distance_map(tuple(k for k in sizes if k), count).values()))


def _table_of(p: Partition, q: Partition) -> tuple[tuple[int, ...], int]:
    """The non-empty cluster sizes in label order, and the code of p's table
    against q over them.  ``p`` and ``q`` have equal sizes."""
    sizes = p.sizes()
    live = [c for c, k in enumerate(sizes) if k]
    row = {c: i for i, c in enumerate(live)}
    shape = tuple(sizes[c] for c in live)
    _, colw, roww, _ = _table_coding(shape)
    return shape, sum(roww[row[a]] * colw[row[c]] for a, c in zip(p.assign, q.assign))


def min_resolution_length(p: Partition, q: Partition, cap: int | None = None) -> int:
    """Length of a shortest resolution from p to q: the distance of p's
    table against q from the diagonal.

    A shape of at most ``_MAP_ROWS`` non-empty clusters whose polytope has
    at most the cap's vertices, and at most ``_MAP_TABLES``, reads it from
    the shape's distance map, built on first use.  That map holds no more
    tables than the cap, so the search below would not have refused it.
    Any other pair runs that search.
    """
    if p.sizes() != q.sizes():  # equal sizes hold n and m equal too
        raise ValueError("p and q must have equal per-cluster sizes")
    limit = state_cap(cap)
    if p.assign == q.assign:
        return 0
    shape, code = _table_of(p, q)
    if len(shape) <= _MAP_ROWS:
        try:
            count = _vertex_count(shape, min(limit, _MAP_TABLES))
        except TooLarge:
            pass
        else:
            return _distance_map(shape, count)[code]
    return _search_to_diagonal(shape, code, limit)


def _search_to_diagonal(shape: tuple[int, ...], code: int, limit: int) -> int:
    """Distance of the table ``code`` over ``shape`` from the diagonal, by
    bidirectional BFS; ``code`` is not the diagonal.

    Each round expands the side with the smaller frontier by one whole
    level.  The balls are disjoint before the round, so every table of the
    new level that lies in the other ball gives the same distance sum, the
    shortest length; the search returns at the first one.  ``TooLarge``
    counts the tables stored on both sides together against ``limit``.
    """
    n = len(shape)
    b, colw, roww, goal = _table_coding(shape)
    near = {code: 0}
    far = {goal: 0}
    near_front, far_front = list(near), list(far)
    while near_front and far_front:
        if len(near_front) > len(far_front):
            near, far, near_front, far_front = far, near, far_front, near_front
        depth = near[near_front[0]] + 1
        level = []
        for code in near_front:
            for nb in _neighbours(code, n, b, colw, roww):
                if nb in near:
                    continue
                if nb in far:
                    return depth + far[nb]
                near[nb] = depth
                level.append(nb)
                if len(near) + len(far) > limit:
                    raise TooLarge(f"search exceeded {limit} states")
        near_front = level
    raise AssertionError("equal shapes are always mutually reachable")


def _candidate_parts(n: int, kind: str, limit: int | None = None) -> int:
    """Number of paths (of at least one edge) or cycles of K_n.

    Each k-vertex part is listed by 2 (path) or 2k (cycle) of the
    n!/(n-k)! sequences of k distinct vertices.  The sum stops once it
    passes ``limit``.
    """
    total, sequences = 0, n
    for k in range(2, n + 1):
        sequences *= n - k + 1
        if kind == "path":
            total += sequences // 2
        elif k >= 3:
            total += sequences // (2 * k)
        if limit is not None and total > limit:
            break
    return total


class _PartTable(NamedTuple):
    """Every path (of at least one edge) or cycle of K_n as an edge bitmask.

    Bit i of a mask stands for ``edges[i]``; ``vbits[v]`` holds the edges at
    v, and ``by_edge[i]`` the parts through ``edges[i]`` in ascending order.
    """

    edges: tuple[Edge, ...]
    index: Mapping[Edge, int]
    vbits: tuple[int, ...]
    parts: frozenset[int]
    by_edge: tuple[tuple[int, ...], ...]


@functools.cache
def _part_table(n: int, kind: str) -> _PartTable:
    """The part table of K_n for ``kind``, built once per process.

    Every field is immutable, so no caller can change the cached table.
    The parts are walks from ``itertools.permutations``, each listed once:
    a path from its smaller end, and a cycle as its smallest vertex v0, then
    such a path over the vertices above v0, then v0 again.  A part's mask
    ORs ``bit[u][w]``, the mask of edge uw, along its walk.
    """
    edges = tuple(edge(u, v) for u in range(n) for v in range(u + 1, n))
    bit = [[0] * n for _ in range(n)]
    vbits = [0] * n
    for i, (u, v) in enumerate(edges):
        bit[u][v] = bit[v][u] = 1 << i
        vbits[u] |= 1 << i
        vbits[v] |= 1 << i
    if kind == "path":
        walks = (p for k in range(2, n + 1) for p in permutations(range(n), k) if p[0] < p[-1])
    else:
        walks = ((v0, *p, v0) for v0 in range(n) for k in range(2, n - v0)
                 for p in permutations(range(v0 + 1, n), k) if p[0] < p[-1])
    masks = []
    for walk in walks:
        mask, u = 0, walk[0]
        for w in walk[1:]:
            mask |= bit[u][w]
            u = w
        masks.append(mask)
    by_edge: list[list[int]] = [[] for _ in edges]
    for mask in sorted(masks):
        rest = mask
        while rest:
            low = rest & -rest
            by_edge[low.bit_length() - 1].append(mask)
            rest ^= low
    return _PartTable(
        edges,
        MappingProxyType({e: i for i, e in enumerate(edges)}),
        tuple(vbits),
        frozenset(masks),
        tuple(map(tuple, by_edge)),
    )


def exact_odd_cover(
    g: SimpleGraph, kind: str, budget: int, cap: int | None = None
) -> list[frozenset[Edge]] | None:
    """Smallest odd-cover of at most ``budget`` parts by exhaustive search.

    Parts range over all paths (or cycles) of the complete graph on V(g),
    as edge bitmasks from ``_part_table``, which builds the table once per
    (n, kind) in a process; when there are more than the state cap
    (``errors.state_cap(cap)``), ``TooLarge`` is raised before the table is
    looked up, cached or not.  Iterative deepening over the part count
    with a fixed rule -- the next part must contain the smallest uncovered
    edge -- so each cover is tried once.  A search node costs one set
    lookup and one pass over the n vertices for the odd-degree count and
    the largest degree, which cuts nodes that must fail (d parts have
    degree at most 2d at a vertex; cycles leave no odd one) without
    changing the search order.  The last two parts are one scan over the
    parts through the smallest uncovered edge, with one xor and one set
    lookup per part for the rest.

    A node returns the parts it found, or None, and depends on nothing but
    (remaining, depth), so its failures stay memoized across budgets.  The
    search returns at the first budget b that has a cover, and that cover
    has b distinct parts: one that repeats a part, or closes in fewer,
    cancels into a cover of fewer parts, which an earlier budget would have
    returned.  Exponential; meant for tiny hosts.
    """
    if kind not in ("path", "cycle"):
        raise ValueError(f"kind must be 'path' or 'cycle', got {kind!r}")
    n = g.n
    limit = state_cap(cap)
    if _candidate_parts(n, kind, limit) > limit:
        raise TooLarge(f"K_{n} has more than {limit} {kind}s to search, the cap")
    edges, index, vbits, parts, by_edge = _part_table(n, kind)
    max_part = n - 1 if kind == "path" else n
    target = 0
    for e in g.edges:
        target |= 1 << index[e]

    def decode(mask: int) -> frozenset[Edge]:
        return frozenset(e for i, e in enumerate(edges) if mask >> i & 1)

    def odd_and_top(mask: int) -> tuple[int, int]:
        """The number of odd-degree vertices and the largest degree."""
        degs = [(mask & bits).bit_count() for bits in vbits]
        return sum(d & 1 for d in degs), max(degs)

    dead: set[tuple[int, int]] = set()

    def search(remaining: int, depth: int) -> list[int] | None:
        """The first cover of ``remaining`` by at most ``depth`` parts, in
        search order, or None."""
        if not remaining:
            return []
        if remaining.bit_count() > depth * max_part:
            return None
        stray, top = odd_and_top(remaining)
        # A part has degree at most 2 at a vertex, and a path leaves at most
        # two odd vertices, a cycle none.
        if top > 2 * depth or stray > (2 * depth if kind == "path" else 0):
            return None
        if depth == 1:
            return [remaining] if remaining in parts else None
        if (remaining, depth) in dead:
            return None
        candidates = by_edge[(remaining & -remaining).bit_length() - 1]
        if depth == 2:
            # The last two parts: every part passes the one-part checks
            # above, so the rest after a part needs only a lookup.
            for mask in candidates:
                if remaining ^ mask in parts:
                    return [mask, remaining ^ mask]
        else:
            for mask in candidates:
                found = search(remaining ^ mask, depth - 1)
                if found is not None:
                    return [mask, *found]
        dead.add((remaining, depth))
        return None

    for depth in range(budget + 1):
        found = search(target, depth)
        if found is not None:
            return [decode(mask) for mask in found]
    return None


def min_odd_cover_exhaustive(
    g: SimpleGraph, kind: str, max_size: int, cap: int | None = None
) -> int | None:
    """Smallest odd-cover size within ``max_size``, or None if none exists.

    ``exact_odd_cover`` finds it, so the answer is a true optimum for
    cross-checking bounds.  Its state cap is the one size guard:
    ``TooLarge`` when K_n has more parts of the kind than the cap.
    """
    parts = exact_odd_cover(g, kind, max_size, cap)
    return None if parts is None else len(parts)


def tight_path_odd_cover(g: SimpleGraph) -> OddCoverCert:
    """Cover a graph with at most max(v_odd/2, ceil((v_odd/2 + 3*Delta_e)/4))
    paths.

    Returns ``oddcover.path_odd_cover_general``'s cover when it meets that
    bound, on a graph of any size, and otherwise the smallest cover
    ``exact_odd_cover`` finds within it.  That search raises ``TooLarge``
    when K_n has more paths than the state cap (from 9 vertices on, at the
    default cap).
    """
    cert = path_odd_cover_general(g)
    summary = degrees(g)
    half = summary.v_odd // 2
    goal = max(half, -(-(half + 3 * summary.delta_e) // 4))
    if len(cert.parts) <= goal:
        return cert
    found = exact_odd_cover(g, "path", goal)
    if found is None:
        raise AssertionError("the tight bound is always attainable")
    return _make_cert("path", found, g)


@dataclass(frozen=True)
class Report:
    """Outcome of one verification: name, verdict, first failure, timing."""

    check: str
    passed: bool
    detail: str
    elapsed_ms: int


def verify_certificate(target, cert) -> Report:
    """Re-check a certificate against its target; never raises.

    Resolutions are replayed against a (p, q) pair by
    ``perms.check_resolution``, and covers checked against the graph by
    ``oddcover.check_cover``.  Each works out the promised bound from the
    target alone and refuses a certificate past it: k1 + ceil(k2/2) steps,
    or ``oddcover.odd_cover_bound`` parts.
    """
    t0 = time.perf_counter()
    try:
        if isinstance(cert, Resolution):
            name = "resolution"
            p, q = target
            if cert.start != p:
                detail = "resolution starts at the wrong partition"
            else:
                detail = check_resolution(p, q, cert.taus)
        elif isinstance(cert, OddCoverCert):
            if cert.kind in ("path", "cycle"):
                name = f"odd_cover[{cert.kind}]"
            else:
                name = "linear_forest" if cert.kind == "linear_forest" else "odd_cover"
            detail = check_cover(target, cert)
        else:
            name = "certificate"
            detail = f"unsupported certificate type {type(cert).__name__}"
    except Exception as exc:  # noqa: BLE001 - verifier reports, never raises
        name = "certificate"
        detail = f"verification crashed: {exc}"
    elapsed = int((time.perf_counter() - t0) * 1000)
    return Report(name, detail is None, detail or "ok", elapsed)
