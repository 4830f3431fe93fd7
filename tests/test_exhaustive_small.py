"""Exhaustive small-input tier: every small input up to symmetry, through
every construction, with the excess over the exact optimum pinned.

Covers run on every graph with an edge in ``networkx.graph_atlas_g()``:
1,245 graphs on at most 7 vertices, one per isomorphism class.  Each cover
passes ``verify_certificate`` and is no smaller than ``exact_odd_cover``'s
optimum; the parts past that optimum are summed per construction.  The
exact search finds the same parts within ``odd_cover_bound``, the budget
``oddcover --exact`` gives it, as within the constructive cover's size.

The same covers, Eulerian and Delta-4 ones included, run on every even
graph on 8 vertices.  Joining a new vertex to exactly the odd-degree
vertices of each 7-vertex atlas graph yields each of them, and an
isomorphism test within buckets of equal degree sequence and triangle
count leaves 243 classes, 242 with an edge.

Resolutions run on one pair per contingency table: for every shape of at
most 7 items, with sizes in non-increasing label order, q puts the items
into its clusters in order and p puts N[i][c] of q's cluster c into
cluster i.  Relabelling items within q's clusters fixes q, so the table
is the pair up to symmetry: 8,518 tables.  ``resolve`` passes
``check_resolution`` and is no shorter than the table's distance in the
shape's map, the map ``min_resolution_length`` reads.  Up to 6 items,
``min_resolution_length`` must give that distance too, table by table.
The ``large`` tier does the same for the 57,447 tables of 8 items.

The pinned totals are the quality of today's constructions.  A change
that shortens certificates lowers them in one diff; a change that
lengthens one fails here.  Each test takes about 3 to 7 s on a 2-vCPU
x86-64 VM with CPython 3.11, and the one on 8 items about 25 s.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

import pytest

nx = pytest.importorskip("networkx")

from polyresolve import oracles
from polyresolve.graphs import degrees, simple_graph, symmetric_difference
from polyresolve.oddcover import (
    cycle_odd_cover_delta4,
    linear_forest_decomposition,
    odd_cover_bound,
    odd_cover_eulerian,
    path_odd_cover_delta4,
    path_odd_cover_general,
)
from polyresolve.oracles import (
    exact_odd_cover,
    min_resolution_length,
    tight_path_odd_cover,
    verify_certificate,
)
from polyresolve.perms import Partition, check_resolution
from polyresolve.resolve import resolve

# Parts past the optimum, summed over the graphs each construction covers.
COVER_EXCESS = {
    "general": 2915,
    "tight": 1237,
    "eulerian path": 62,
    "eulerian cycle": 11,
    "delta4 path": 31,
    "delta4 cycle": 7,
}

# The same on the even graphs on 8 vertices, where all three path covers
# are measured against one path optimum.
EVEN8_EXCESS = {
    "general": 327,
    "tight": 327,
    "eulerian path": 327,
    "eulerian cycle": 126,
    "delta4 path": 78,
    "delta4 cycle": 53,
}

# Tables where resolve is longer than the distance, the excess summed over
# them, and the largest excess.
RESOLVE_EXCESS = (569, 570, 2)

# The same on the 57,447 tables of 8 items, in the large tier (about 25 s).
RESOLVE8_EXCESS = (5337, 5356, 2)


def _checked(g, cert, optimum: int) -> int:
    """The parts of ``cert`` past ``optimum``, once the verifier passes it."""
    report = verify_certificate(g, cert)
    assert report.passed, report.detail
    assert len(cert.parts) >= optimum
    return len(cert.parts) - optimum


def test_covers_on_every_atlas_graph():
    totals = dict.fromkeys(COVER_EXCESS, 0)
    seen = {"graphs": 0, "delta <= 4": 0, "eulerian": 0, "eulerian, delta <= 4": 0}
    for atlas in nx.graph_atlas_g():
        if not atlas.number_of_edges():
            continue
        g = simple_graph(atlas.number_of_nodes(), atlas.edges())
        summary = degrees(g)
        seen["graphs"] += 1
        tight = tight_path_odd_cover(g)
        optimum = len(exact_odd_cover(g, "path", len(tight.parts)))
        totals["general"] += _checked(g, path_odd_cover_general(g), optimum)
        totals["tight"] += _checked(g, tight, optimum)
        if summary.delta <= 4:
            seen["delta <= 4"] += 1
            report = verify_certificate(g, linear_forest_decomposition(g))
            assert report.passed, report.detail
        if summary.v_odd:
            continue
        seen["eulerian"] += 1
        seen["eulerian, delta <= 4"] += summary.delta <= 4
        for kind, delta4 in (("path", path_odd_cover_delta4), ("cycle", cycle_odd_cover_delta4)):
            cover = odd_cover_eulerian(g, kind)
            optimum = len(exact_odd_cover(g, kind, len(cover.parts)))
            totals[f"eulerian {kind}"] += _checked(g, cover, optimum)
            if summary.delta <= 4:
                totals[f"delta4 {kind}"] += _checked(g, delta4(g), optimum)
    assert seen == {"graphs": 1245, "delta <= 4": 677, "eulerian": 77, "eulerian, delta <= 4": 61}
    assert totals == COVER_EXCESS


def test_exact_cover_is_the_same_within_the_promised_bound():
    # ``oddcover --exact`` searches within odd_cover_bound, no longer within
    # the constructive cover's size.  The deepening stops at the smallest
    # part count, so both budgets give the same parts.  Cycle covers run on
    # the Eulerian graphs, the only ones with one.
    runs = 0
    for atlas in nx.graph_atlas_g():
        if not atlas.number_of_edges():
            continue
        g = simple_graph(atlas.number_of_nodes(), atlas.edges())
        if degrees(g).v_odd:
            covers = {"path": path_odd_cover_general(g)}
        else:
            covers = {kind: odd_cover_eulerian(g, kind) for kind in ("path", "cycle")}
        for kind, cover in covers.items():
            found = exact_odd_cover(g, kind, odd_cover_bound(g, kind))
            assert found == exact_odd_cover(g, kind, len(cover.parts))
            runs += 1
    assert runs == 1245 + 77


def test_exact_cover_parts_are_distinct_past_the_promised_bound():
    # Two parts over the bound leave room for a repeated pair; the
    # deepening returns at the smallest part count, where none repeats.
    runs = 0
    for atlas in nx.graph_atlas_g():
        g = simple_graph(atlas.number_of_nodes(), atlas.edges())
        for kind in ("path", "cycle") if not degrees(g).v_odd else ("path",):
            found = exact_odd_cover(g, kind, odd_cover_bound(g, kind) + 2)
            assert len(set(found)) == len(found)
            assert symmetric_difference(found) == g.edges
            runs += 1
    assert runs == 1253 + 85  # every atlas graph, and the even ones again


@functools.cache
def _even_graphs_on_8() -> tuple:
    """One graph per isomorphism class of even graphs on 8 vertices, found
    once per process: the output corpus reads them too."""
    classes = []
    buckets: dict[tuple, list] = {}
    for atlas in nx.graph_atlas_g():
        if atlas.number_of_nodes() != 7:
            continue
        h = nx.Graph(atlas)
        h.add_node(7)
        h.add_edges_from((v, 7) for v, d in atlas.degree() if d % 2)
        key = (tuple(sorted(d for _, d in h.degree())), sum(nx.triangles(h).values()))
        bucket = buckets.setdefault(key, [])
        if not any(nx.is_isomorphic(h, other) for other in bucket):
            bucket.append(h)
            classes.append(h)
    return tuple(classes)


def test_covers_on_every_even_graph_on_8_vertices():
    totals = dict.fromkeys(EVEN8_EXCESS, 0)
    seen = {"classes": 0, "graphs": 0, "delta <= 4": 0}
    for h in _even_graphs_on_8():
        seen["classes"] += 1
        if not h.number_of_edges():
            continue
        g = simple_graph(8, h.edges())
        summary = degrees(g)
        seen["graphs"] += 1
        seen["delta <= 4"] += summary.delta <= 4
        for kind, delta4 in (("path", path_odd_cover_delta4), ("cycle", cycle_odd_cover_delta4)):
            cover = odd_cover_eulerian(g, kind)
            optimum = len(exact_odd_cover(g, kind, len(cover.parts)))
            totals[f"eulerian {kind}"] += _checked(g, cover, optimum)
            if summary.delta <= 4:
                totals[f"delta4 {kind}"] += _checked(g, delta4(g), optimum)
            if kind == "path":
                totals["general"] += _checked(g, path_odd_cover_general(g), optimum)
                totals["tight"] += _checked(g, tight_path_odd_cover(g), optimum)
    assert seen == {"classes": 243, "graphs": 242, "delta <= 4": 114}
    assert totals == EVEN8_EXCESS


def _shapes(m: int, top: int):
    """Every shape of m items with no size above ``top``, non-increasing."""
    if not m:
        yield ()
        return
    for k in range(min(m, top), 0, -1):
        for rest in _shapes(m - k, k):
            yield (k, *rest)


def _tables(sizes: tuple[int, ...]):
    """Every square table of non-negative integers whose row sums and
    column sums are both ``sizes``, row by row."""
    n = len(sizes)

    def rows(i: int, room: tuple[int, ...]):
        if i == n:
            yield ()
            return
        for row in fill(0, sizes[i], room):
            for rest in rows(i + 1, tuple(r - x for r, x in zip(room, row))):
                yield (row, *rest)

    def fill(j: int, left: int, room: tuple[int, ...]):
        if j == n - 1:
            if left <= room[j]:
                yield (left,)
            return
        for x in range(min(left, room[j]) + 1):
            for rest in fill(j + 1, left - x, room):
                yield (x, *rest)

    yield from rows(0, sizes)


def _pair(sizes: tuple[int, ...], table) -> tuple[Partition, Partition]:
    """p and q with table[i][c] items in p's cluster i and q's cluster c."""
    n = len(sizes)
    q = [c for c, k in enumerate(sizes) for _ in range(k)]
    p = [i for c in range(n) for i in range(n) for _ in range(table[i][c])]
    return Partition(n, tuple(p)), Partition(n, tuple(q))


def _resolve_excess(item_counts) -> tuple[int, int, int, int]:
    """The tables of every shape of each item count, then the tables where
    ``resolve`` is longer than the distance, the excess summed over them
    and the largest excess."""
    count = longer = excess = worst = 0
    for m in item_counts:
        for sizes in _shapes(m, m):
            dist = oracles._distance_map(sizes, oracles._vertex_count(sizes, 10**6))
            tables = list(_tables(sizes))
            assert len(tables) == len(dist)
            for table in tables:
                p, q = _pair(sizes, table)
                walk = resolve(p, q)
                assert check_resolution(p, q, walk.taus) is None
                shortest = dist[oracles._table_of(p, q)[1]]
                if m <= 6:
                    assert min_resolution_length(p, q) == shortest
                assert len(walk) >= shortest
                if len(walk) > shortest:
                    longer += 1
                    excess += len(walk) - shortest
                    worst = max(worst, len(walk) - shortest)
            count += len(tables)
    return count, longer, excess, worst


def test_resolve_on_every_table(monkeypatch):
    monkeypatch.setattr(oracles, "_MAPS", OrderedDict())
    assert _resolve_excess(range(1, 8)) == (8518, *RESOLVE_EXCESS)


@pytest.mark.large
def test_resolve_on_every_table_of_8_items(monkeypatch):
    monkeypatch.setattr(oracles, "_MAPS", OrderedDict())
    assert _resolve_excess([8]) == (57447, *RESOLVE8_EXCESS)
