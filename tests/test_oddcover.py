"""Tests for odd covers by paths/cycles and linear-forest decompositions."""

from __future__ import annotations

import random
import sys
import time
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from polyresolve.graphs import (
    SimpleGraph,
    SubgraphShape,
    _links,
    classify,
    degrees,
    edge,
    edge_components,
    simple_graph,
    symmetric_difference,
    vertices_of,
)
from polyresolve.oddcover import (
    TransversalPair,
    cycle_odd_cover_delta4,
    flexible_exchange,
    forest_stats,
    linear_forest_decomposition,
    linear_forests_from_transversal,
    odd_cover_bound,
    odd_cover_eulerian,
    path_odd_cover_delta4,
    path_odd_cover_general,
    transversal_even_intersection,
    transversal_odd_intersection,
)
from polyresolve.generators import (
    random_delta4_eulerian_graph,
    random_delta4_graph,
    random_eulerian_graph,
    random_graph,
)
from polyresolve import graphs, oddcover, polycycles
from polyresolve.errors import TooLarge
from polyresolve.oracles import exact_odd_cover, tight_path_odd_cover, verify_certificate


def _ends(edges):
    """Degree-1 vertices of an edge set (path endpoints in a linear forest)."""
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return {v for v, d in deg.items() if d == 1}


def cyc(*vs):
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def check_cover(cert, g, kind, limit):
    assert cert.kind == kind
    want = SubgraphShape.PATH if kind == "path" else SubgraphShape.CYCLE
    for part in cert.parts:
        assert classify(part, g.n) is want
    assert symmetric_difference(cert.parts) == g.edges
    assert len(set(cert.parts)) == len(cert.parts)
    assert len(cert.parts) <= limit


def complete(n):
    return simple_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# The interlocked pair: two vertex-disjoint C4s per side whose union is
# 4-regular on 8 vertices, with every component of one side meeting both
# components of the other.
H1 = cyc(0, 4, 1, 5) + cyc(2, 6, 3, 7)
H2 = cyc(0, 2, 1, 3) + cyc(4, 6, 5, 7)

# A 4-regular graph whose cycle cover needs the even-intersection direct
# route with the two polycycles swapped (``test_the_swapped_direct_route_is_needed``).
SWAPPED_ROUTE = simple_graph(8, [(0, 1), (0, 4), (0, 5), (0, 7), (1, 3), (1, 6), (1, 7), (2, 3),
                                 (2, 4), (2, 5), (2, 7), (3, 4), (3, 5), (4, 6), (5, 6), (6, 7)])

# Twelve stacked Delta-4 components, the shape of the Delta-4 benchmark's
# covers.
TWELVE_COMPONENTS = random_delta4_eulerian_graph(random.Random(7), max_n=16, components=12)


# --- forest statistics and transversal forests -------------------------------


def test_forest_stats_triangle_of_single_edges():
    t = forest_stats([(0, 1)], [(0, 2)], [(1, 2)])
    assert (t.r12, t.r13, t.r23) == (1, 1, 1)
    assert (t.t1, t.t2, t.t3) == (1, 1, 1)
    assert t.parity == 1


def test_forest_stats_empty():
    t = forest_stats([], [], [])
    assert (t.r12, t.r13, t.r23, t.t1, t.t2, t.t3, t.parity) == (0,) * 7


def test_public_splits_check_their_inputs():
    # The covers call the split core on inputs they checked; the public
    # functions still refuse bad ones.
    square, other = cyc(0, 1, 2, 3), cyc(4, 5, 6, 7)
    good = TransversalPair(frozenset({edge(0, 1)}), frozenset({edge(4, 5)}))
    path = [(4, 5), (5, 6)]
    star = [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (4, 6)]
    with pytest.raises(ValueError, match="h2 is not a disjoint union of cycles"):
        linear_forests_from_transversal(square, path, good)
    with pytest.raises(ValueError, match="h1 is not a disjoint union of cycles"):
        linear_forests_from_transversal(star, cyc(7, 8, 9), good)
    # Two edges of one cycle; an edge outside the polycycle; none at all.
    for m1, message in (
        ({edge(0, 1), edge(2, 3)}, "m1 must pick exactly one edge per component"),
        ({edge(0, 2)}, "m1 has edges outside its polycycle"),
        (set(), "m1 must pick exactly one edge per component"),
    ):
        with pytest.raises(ValueError, match=message):
            linear_forests_from_transversal(square, other, TransversalPair(frozenset(m1), good.m2))
    with pytest.raises(ValueError, match="h2 is not a disjoint union of cycles"):
        transversal_odd_intersection(cyc(0, 1, 2), [(0, 3), (3, 4)])
    with pytest.raises(ValueError, match="h1 is not a disjoint union of cycles"):
        transversal_odd_intersection([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)], cyc(0, 5, 6))
    linear_forest = "every part must be a disjoint union of paths"
    with pytest.raises(ValueError, match=linear_forest):
        forest_stats(cyc(0, 1, 2), [(0, 3)], [(1, 3)])
    with pytest.raises(ValueError, match=linear_forest):
        forest_stats([(0, 1), (0, 2), (0, 3)], [(1, 2)], [(3, 4)])
    # A path plus a cycle is no linear forest.
    with pytest.raises(ValueError, match=linear_forest):
        forest_stats([(0, 1)] + cyc(2, 3, 4), [(0, 5)], [(1, 5)])


def test_linear_forests_from_disjoint_transversal():
    h1, h2 = cyc(0, 1, 2, 3), cyc(4, 5, 6, 7)
    tp = TransversalPair(frozenset({edge(0, 1)}), frozenset({edge(4, 5)}))
    t = linear_forests_from_transversal(h1, h2, tp)
    assert classify(t.f3, 8) is SubgraphShape.PATH
    assert t.f2 == frozenset({edge(0, 1), edge(4, 5)})
    assert t.parity == 0


def _assert_matches_fresh_analysis(state):
    """Compare the incremental endpoint state with the ends, shared-endpoint
    sets, straddlers and anchors worked out afresh from the components of
    the current forests."""
    forests = tuple(frozenset(f) for f in state.fs)
    others, paths = [], []
    for f, forest in enumerate(forests):
        other, low = {}, {}
        for comp in edge_components(forest):
            a, b = sorted(_ends(comp))
            other[a], other[b] = b, a
            low[a] = low[b] = min(vertices_of(comp))
        assert state.other[f] == other
        assert state.low[f] == low
        others.append(other)
        # Each path's smallest vertex and ends, in order of smallest vertex.
        paths.append(sorted((low[a], a, b) for a, b in other.items() if a < b))
    r_sets = {(i, j): others[i].keys() & others[j].keys() for i, j in ((0, 1), (0, 2), (1, 2))}
    assert state.r == r_sets
    for f in range(3):
        # An end of forest f is an end of exactly one other forest, so a path
        # straddles when exactly one of its ends is an end of forest g.
        g = 1 if f == 0 else 0
        fresh = [(a, b) for _, a, b in paths[f] if (a in others[g]) != (b in others[g])]
        assert state.straddlers[f] == set(fresh)
        # Straddlers come out in the order of their smallest vertex.
        assert [tuple(sorted(t[1:])) for t in state.straddlers_by_low(f, len(fresh))] == fresh
    for i, j in ((0, 1), (0, 2), (1, 2)):
        k = 3 - i - j
        rik = r_sets[(min(i, k), max(i, k))]
        anchors = [x for x in sorted(r_sets[(i, j)]) if _other_end(forests[i], x) in rik]
        assert state.anchor(i, j) == (anchors[0] if anchors else None)


def _other_end(forest, x):
    comp = next(c for c in edge_components(forest) if x in vertices_of(c))
    (y,) = _ends(comp) - {x}
    return y


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_incremental_endpoint_state_matches_fresh_analysis(seed):
    rng = random.Random(seed)
    g = random_delta4_eulerian_graph(rng, components=rng.randint(2, 5))
    joins = []
    join = oddcover._Surgery.join

    def checked_join(state, i, j, u, v):
        join(state, i, j, u, v)
        _assert_matches_fresh_analysis(state)
        joins.append((i, j, u, v))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oddcover._Surgery, "join", checked_join)
        check_cover(path_odd_cover_delta4(g), g, "path", 3)
        check_cover(cycle_odd_cover_delta4(g), g, "cycle", 3)
    assert joins


# --- exchange moves on a single cycle ----------------------------------------


def test_flexible_exchange_single_marked_vertex():
    chosen, e0, e1 = flexible_exchange(cyc(0, 1, 2), {0}, 0, 3)
    assert chosen == {0}
    assert (e0, e1) == ((1, 2), (0, 1))


def test_flexible_exchange_all_marked():
    chosen, e0, e1 = flexible_exchange(cyc(0, 1, 2), {0, 1, 2}, 0, 3)
    assert chosen == {1, 2, 3}
    assert (e0, e1) == ((1, 2), (0, 1))


def test_flexible_exchange_alternating():
    chosen, e0, e1 = flexible_exchange(cyc(0, 1, 2, 3), {0, 2}, 0, 4)
    assert chosen == {2, 4}
    assert len(set(e0) & chosen) % 2 == 0
    assert len(set(e1) & chosen) % 2 == 1


# --- transversal construction on the interlocked pair ------------------------


def test_transversal_odd_intersection_interlocked():
    tp = transversal_odd_intersection(H1, H2)
    inter = vertices_of(tp.m1) & vertices_of(tp.m2)
    assert len(inter) % 2 == 1


def test_transversal_even_intersection_rigid_witness():
    comps1 = edge_components(frozenset(edge(u, v) for u, v in H1))
    comps2 = edge_components(frozenset(edge(u, v) for u, v in H2))
    crossing = ((comps1[0], comps2[0]), (comps1[1], comps2[1]))
    tp, wit = transversal_even_intersection(H1, H2, crossing)
    inter = vertices_of(tp.m1) & vertices_of(tp.m2)
    assert len(inter) % 2 == 0
    u, v1, v2 = wit
    assert edge(u, v1) in tp.m1
    assert edge(u, v2) in tp.m2


def test_the_swapped_direct_route_is_needed(monkeypatch):
    # The one polycycle pair of this 4-regular graph crosses, and the
    # direct construction fails on all four crossings it tries with h1's
    # cycles on side 1; with h2's on side 1 it succeeds on its third.
    g = SWAPPED_ROUTE
    pairs, tries = [], []
    even_pair, direct = oddcover._even_pair, oddcover._even_case_direct

    def spy_pair(h1, h2, comps1, comps2, *rest):
        pairs.append((comps1, comps2))
        return even_pair(h1, h2, comps1, comps2, *rest)

    def spy_direct(side1, *rest):
        found = direct(side1, *rest)
        tries.append((side1, found is not None))
        return found

    monkeypatch.setattr(oddcover, "_even_pair", spy_pair)
    monkeypatch.setattr(oddcover, "_even_case_direct", spy_direct)
    cert = cycle_odd_cover_delta4(g)
    check_cover(cert, g, "cycle", 3)
    assert sorted(map(sorted, cert.parts)) == [
        [(0, 1), (0, 7), (1, 4), (2, 5), (2, 6), (3, 4), (3, 5), (6, 7)],
        [(0, 4), (0, 7), (1, 6), (1, 7), (2, 4), (2, 6)],
        [(0, 5), (0, 7), (1, 3), (1, 4), (2, 3), (2, 7), (4, 6), (5, 6)],
    ]
    [(comps1, comps2)] = pairs
    sides = [("h1" if side1 is comps1 else "h2" if side1 is comps2 else None, ok)
             for side1, ok in tries]
    assert sides == [("h1", False)] * 4 + [("h2", False)] * 2 + [("h2", True)]


@pytest.mark.parametrize("cover, g, builds", [
    (cycle_odd_cover_delta4, simple_graph(8, H1 + H2), 11),
    (cycle_odd_cover_delta4, SWAPPED_ROUTE, 11),
    (path_odd_cover_delta4, simple_graph(8, H1 + H2), 8),
    (path_odd_cover_delta4, SWAPPED_ROUTE, 8),
    (path_odd_cover_general, TWELVE_COMPONENTS, 8),
    (lambda g: odd_cover_eulerian(g, "cycle"), TWELVE_COMPONENTS, 10),
    (linear_forest_decomposition, TWELVE_COMPONENTS, 4),
], ids=["interlocked", "swapped route", "interlocked paths", "swapped route paths",
        "12 components paths", "12 components cycles", "12 components forests"])
def test_the_even_pair_builds_each_cycles_neighbour_lists_once(monkeypatch, cover, g, builds):
    # The pair search reads a cycle's neighbour lists for its vertex set,
    # the walk from its anchor and the rigid route's alternation check.
    # Rebuilt at every read, the interlocked pair took 23 builds, 16 of them
    # for its four cycles, and the swapped route 14; the other 7 are the
    # decomposition's, the split's and the final check's.
    calls = _count_calls(monkeypatch, graphs, ["_links"])
    cert = cover(g)
    assert calls["_links"] == builds
    assert oddcover.check_cover(g, cert) is None


def test_no_pair_search_builds_a_cycles_neighbour_lists_twice(monkeypatch):
    # Each transversal-pair search keeps one cache of neighbour lists, which
    # its anchor step, its flexible exchange and both even-pair routes read.
    # When the exchange walked an all-odd cycle through lists of its own,
    # stacks 102, 127 and 173 built one cycle's lists twice.
    searches, active = [], []
    links = graphs._links

    def spy_links(edges):
        if active:
            searches[-1].append(frozenset(edges))
        return links(edges)

    def searching(core):
        def spy(*args):
            searches.append([])
            active.append(True)
            try:
                return core(*args)
            finally:
                active.pop()
        return spy

    for module in (graphs, oddcover):
        monkeypatch.setattr(module, "_links", spy_links)
    for core in ("_odd_pair", "_even_pair"):
        monkeypatch.setattr(oddcover, core, searching(getattr(oddcover, core)))
    rng, repeated = random.Random(1), []
    for k in range(200):
        g = random_delta4_eulerian_graph(rng, max_n=16, components=rng.randint(1, 12))
        del searches[:]
        odd_cover_eulerian(g, "cycle")
        path_odd_cover_general(g)
        if any(len(set(built)) < len(built) for built in searches):
            repeated.append(k)
    assert repeated == []


# --- covers of fixed graphs ---------------------------------------------------


def test_interlocked_union_covers():
    g = simple_graph(8, H1 + H2)
    check_cover(cycle_odd_cover_delta4(g), g, "cycle", 3)
    check_cover(path_odd_cover_delta4(g), g, "path", 3)


def test_c5_cover_counts():
    c5 = simple_graph(5, cyc(0, 1, 2, 3, 4))
    assert len(path_odd_cover_delta4(c5).parts) == 2
    assert len(cycle_odd_cover_delta4(c5).parts) == 1


def test_k5_covers():
    k5 = complete(5)
    check_cover(path_odd_cover_delta4(k5), k5, "path", 3)
    check_cover(cycle_odd_cover_delta4(k5), k5, "cycle", 3)


def test_two_disjoint_k5s_need_three_cycles():
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u + 5, v + 5) for u, v in edges[:10]]
    kk = simple_graph(10, edges)
    cert = cycle_odd_cover_delta4(kk)
    check_cover(cert, kk, "cycle", 3)
    assert len(cert.parts) == 3


def test_k7_eulerian_covers():
    k7 = complete(7)
    check_cover(odd_cover_eulerian(k7, "path"), k7, "path", 5)
    check_cover(odd_cover_eulerian(k7, "cycle"), k7, "cycle", 5)


def test_star_paths():
    star = simple_graph(4, [(0, 1), (0, 2), (0, 3)])
    check_cover(path_odd_cover_general(star), star, "path", 5)
    check_cover(tight_path_odd_cover(star), star, "path", 4)


def test_tight_path_cover_of_any_size(monkeypatch):
    monkeypatch.delenv("POLYRESOLVE_CAP", raising=False)
    # Four disjoint triangles: the construction's 2 paths meet the tight
    # goal of 2, so no search runs on the 12 vertices.
    triangles = simple_graph(12, [e for i in range(0, 12, 3) for e in cyc(i, i + 1, i + 2)])
    cert = tight_path_odd_cover(triangles)
    check_cover(cert, triangles, "path", 2)
    assert len(cert.parts) == 2
    # The fork's 3 constructed paths miss its goal of 2; padded to 11
    # vertices, the search falls on K_11's paths and refuses them on its cap.
    fork = simple_graph(11, [(0, 1), (0, 2)])
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="the cap"):
        tight_path_odd_cover(fork)
    assert time.perf_counter() - start < 1


def test_single_edge_is_one_path():
    one = simple_graph(2, [(0, 1)])
    assert len(path_odd_cover_general(one).parts) == 1


def test_empty_graph_covers(monkeypatch):
    for n in (0, 1, 3):
        empty = simple_graph(n, [])
        assert len(path_odd_cover_general(empty).parts) == 0
        assert len(odd_cover_eulerian(empty, "cycle").parts) == 0
        assert linear_forest_decomposition(empty).parts == (frozenset(),) * 3

    # The edgeless decomposition takes the one route, through check_cover.
    def refuse(g, cert):
        raise RuntimeError("checked")

    monkeypatch.setattr(oddcover, "check_cover", refuse)
    for n in (0, 1, 3):
        with pytest.raises(RuntimeError, match="checked"):
            linear_forest_decomposition(simple_graph(n, []))


def _two_branch_linear_forests(g):
    """``linear_forest_decomposition`` as it was with a route for the
    edgeless graph and one for a host of maximum degree 2, kept to show the
    one route gives the same certificate."""
    summary = degrees(g)
    empty = frozenset()
    if not g.edges:
        return oddcover.OddCoverCert("linear_forest", (empty, empty, empty))
    n = g.n
    patch = set()
    odd = [u for u, d in enumerate(summary.degrees) if d % 2]
    for i in range(0, len(odd), 2):
        u, v = odd[i], odd[i + 1]
        if edge(u, v) not in g.edges:
            patch.add(edge(u, v))
        else:
            patch.add(edge(u, n))
            patch.add(edge(v, n))
            n += 1
    host = SimpleGraph(n, g.edges | frozenset(patch))
    if degrees(host).delta == 2:
        m = oddcover._transversal(edge_components(host.edges))
        forests = (host.edges - m, m, empty)
    else:
        dec = polycycles.undirected_polycycle_decomposition(host, 2)
        (h1, h2), (comps1, comps2) = dec.parts, dec.components
        forests = oddcover._split_forests(h1, h2, oddcover._transversal(comps1),
                                          oddcover._transversal(comps2))
    return oddcover.OddCoverCert("linear_forest", tuple(f & g.edges for f in forests))


def _atlas_delta4():
    """Every graph on at most 7 vertices with maximum degree at most 4."""
    nx = pytest.importorskip("networkx")
    return [simple_graph(atlas.number_of_nodes(), atlas.edges())
            for atlas in nx.graph_atlas_g() if max(dict(atlas.degree).values(), default=0) <= 4]


def test_linear_forests_take_one_route_to_the_same_certificate():
    graphs_ = _atlas_delta4()
    # A host of maximum degree 2 past the atlas: two cycles, a path closed
    # by one patch edge, and an edge closed through a fresh vertex.
    graphs_.append(simple_graph(14, cyc(0, 1, 2, 3, 4) + cyc(5, 6, 7, 8) + [(9, 10), (10, 11), (12, 13)]))
    assert degrees(graphs_[-1]).delta == 2
    for g in graphs_:
        assert linear_forest_decomposition(g) == _two_branch_linear_forests(g), sorted(g.edges)


def test_linear_forests_build_no_endpoint_state(monkeypatch):
    # Only the joins read the endpoint state, and a decomposition joins
    # nothing, so with the state stubbed out it gives the same certificates.
    graphs_ = _atlas_delta4()
    rng = random.Random(41)
    offset, stacked = 0, []
    for _ in range(12):
        comp = random_delta4_graph(rng)
        stacked += [(u + offset, v + offset) for u, v in comp.edges]
        offset += comp.n
    graphs_.append(simple_graph(offset, stacked))
    assert degrees(graphs_[-1]).delta == 4
    expected = [linear_forest_decomposition(g) for g in graphs_]

    def no_state(*args):
        raise RuntimeError("endpoint state built")

    monkeypatch.setattr(oddcover, "_Surgery", no_state)
    assert [linear_forest_decomposition(g) for g in graphs_] == expected
    with pytest.raises(RuntimeError, match="endpoint state built"):
        path_odd_cover_delta4(complete(5))


def test_eulerian_cover_rejects_bad_kind():
    with pytest.raises(ValueError):
        odd_cover_eulerian(simple_graph(3, cyc(0, 1, 2)), "forest")


EULERIAN_COVERS = [
    path_odd_cover_delta4,
    cycle_odd_cover_delta4,
    lambda g: odd_cover_eulerian(g, "path"),
    lambda g: odd_cover_eulerian(g, "cycle"),
]


@pytest.mark.parametrize("cover", EULERIAN_COVERS)
def test_eulerian_covers_refuse_an_odd_vertex(cover):
    with pytest.raises(ValueError, match="^graph has a vertex of odd degree$"):
        cover(simple_graph(3, [(0, 1), (1, 2)]))


@pytest.mark.parametrize("cover", [path_odd_cover_delta4, cycle_odd_cover_delta4])
def test_delta4_covers_refuse_a_degree_above_4(cover):
    with pytest.raises(ValueError, match="^maximum degree must be at most 4, got 6$"):
        cover(complete(7))
    # The degree is checked before the parity, which the orientation
    # checks: a star with six leaves has both faults and gets this refusal.
    with pytest.raises(ValueError, match="^maximum degree must be at most 4, got 6$"):
        cover(simple_graph(7, [(0, leaf) for leaf in range(1, 7)]))


# --- randomized cover properties ----------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_delta4_covers_random_eulerian(seed):
    rng = random.Random(seed)
    g = random_delta4_eulerian_graph(rng)
    check_cover(path_odd_cover_delta4(g), g, "path", 3)
    check_cover(cycle_odd_cover_delta4(g), g, "cycle", 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_eulerian_covers_meet_degree_bounds(seed):
    rng = random.Random(seed)
    g = random_eulerian_graph(rng, layers=rng.randint(1, 4), max_n=12)
    if not g.edges:
        return
    summ = degrees(g)
    check_cover(odd_cover_eulerian(g, "path"), g, "path", (3 * summ.delta + 3) // 4)
    top = sorted(summ.degrees, reverse=True)
    check_cover(
        odd_cover_eulerian(g, "cycle"), g, "cycle", top[0] // 2 + (top[1] + 3) // 4
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_general_path_cover_bounds(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    summ = degrees(g)
    weak = summ.v_odd // 2 + (3 * summ.delta_e + 3) // 4
    check_cover(path_odd_cover_general(g), g, "path", weak)
    if g.n <= 6 and g.edges:
        tight = max(summ.v_odd // 2, -(-(summ.v_odd // 2 + 3 * summ.delta_e) // 4))
        check_cover(tight_path_odd_cover(g), g, "path", tight)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_linear_forest_decomposition_random(seed):
    rng = random.Random(seed)
    g = random_delta4_graph(rng)
    cert = linear_forest_decomposition(g)
    assert cert.kind == "linear_forest"
    assert len(cert.parts) == 3
    assert symmetric_difference(cert.parts) == g.edges
    assert sum(len(f) for f in cert.parts) == g.m
    for f in cert.parts:
        assert classify(f, g.n) in (
            SubgraphShape.EMPTY,
            SubgraphShape.PATH,
            SubgraphShape.LINEAR_FOREST,
        )


# --- exhaustive minimum search -------------------------------------------------


def test_bounded_search_known_minima():
    c5 = simple_graph(5, cyc(0, 1, 2, 3, 4))
    assert len(exact_odd_cover(c5, "cycle", 3)) == 1
    k3 = complete(3)
    assert len(exact_odd_cover(k3, "cycle", 2)) == 1
    assert len(exact_odd_cover(k3, "path", 3)) == 2
    star = simple_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert len(exact_odd_cover(star, "path", 3)) == 2


def test_bounded_search_k7_optima():
    k7 = complete(7)
    assert len(exact_odd_cover(k7, "path", 5)) == 4
    assert len(exact_odd_cover(k7, "cycle", 5)) == 3


def test_bounded_search_parity_obstructions():
    p3 = simple_graph(3, [(0, 1), (1, 2)])
    assert exact_odd_cover(p3, "cycle", 4) is None
    assert len(exact_odd_cover(p3, "path", 2)) == 1
    assert exact_odd_cover(simple_graph(2, [(0, 1)]), "cycle", 4) is None


def test_bounded_search_respects_budget():
    k3 = complete(3)
    assert exact_odd_cover(k3, "path", 1) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_bounded_search_parts_are_valid(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_n=6)
    found = exact_odd_cover(g, "path", 5)
    if not g.edges:
        assert found == []
        return
    assert found is not None
    want = SubgraphShape.PATH
    for part in found:
        assert classify(part, g.n) is want
    assert symmetric_difference(found) == g.edges
    # The constructive covers can never beat the exhaustive minimum.
    assert len(found) <= len(tight_path_odd_cover(g).parts)


# --- shape passes and checks per cover ----------------------------------------


def _count_calls(monkeypatch, module, names):
    """Live call counts of ``module``'s functions ``names``, counted under
    every name that a polyresolve module holds them by."""
    calls = dict.fromkeys(names, 0)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "polyresolve"]
    for name in names:
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, counting)
    return calls


def _delta4_components():
    return random_delta4_eulerian_graph(random.Random(1), components=12)


def _delta6():
    return random_eulerian_graph(random.Random(2), layers=3, max_n=14)


def _delta6_no_crossing():
    # Its first two polycycles meet in no two disjoint cycle pairs, so the
    # cycle cover takes the two-cycle route on them.
    return random_eulerian_graph(random.Random(0), layers=3, max_n=14)


@pytest.mark.parametrize("cover, graph, splits", [
    (path_odd_cover_delta4, _delta4_components, 1),
    (cycle_odd_cover_delta4, _delta4_components, 1),
    (linear_forest_decomposition, _delta4_components, 1),
    (lambda g: odd_cover_eulerian(g, "path"), _delta6, 1),
    (lambda g: odd_cover_eulerian(g, "cycle"), _delta6_no_crossing, 0),
], ids=["path_odd_cover_delta4", "cycle_odd_cover_delta4", "linear_forest_decomposition",
        "odd_cover_eulerian_delta6_paths", "odd_cover_eulerian_delta6_cycles_no_crossing"])
def test_shape_passes_per_cover_stay_few(cover, graph, splits, monkeypatch):
    # Each fact of the surgery is established once.  On the Delta = 4 graph
    # the path and cycle covers made 36 and 43 classify calls and 54 and 90
    # component splits when every stage re-derived them, then 8 and 8,
    # and 3 and 5; the forest split made 5 and 3.  Now the decomposition
    # hands each part's cycles to the pair cores, which check nothing of
    # their own: the one classify per part is the output check's, and the
    # one component pass is the split's, over the union of the two
    # matchings.  When the flexible exchange went through its public step
    # and the polycycle cover core asserted its two parts' shapes, the
    # Delta = 4 path and cycle covers made 4 classify calls, the Delta = 6
    # path cover 8 and the cycle cover without a crossing 6.
    g = graph()
    calls = _count_calls(monkeypatch, graphs, ["classify", "edge_components"])
    public = _count_calls(monkeypatch, polycycles, ["polycycle_odd_cover"])
    steps = _count_calls(monkeypatch, oddcover, ["flexible_exchange", "_check_transversal"])
    cert = cover(g)
    assert calls["classify"] == len(cert.parts)
    assert calls["edge_components"] <= splits
    assert public["polycycle_odd_cover"] == 0
    assert steps == {"flexible_exchange": 0, "_check_transversal": 0}
    assert verify_certificate(g, cert).passed


def test_nested_covers_are_checked_once(monkeypatch):
    # A maximum degree of 8, so the covers nest: general over Eulerian over
    # two pairs of polycycles.  When every level checked its whole output, the
    # general cover made 4 check_cover and 33 classify calls, and the
    # Eulerian one 3 and 26; the one check now classifies each part once.
    g = random_eulerian_graph(random.Random(3), layers=4, max_n=12)
    minus = SimpleGraph(g.n, g.edges - {min(g.edges)})
    checks = _count_calls(monkeypatch, oddcover, ["check_cover"])
    shapes = _count_calls(monkeypatch, graphs, ["classify"])
    for cover, h in ((path_odd_cover_general, minus),
                     (lambda h: odd_cover_eulerian(h, "path"), g)):
        checks["check_cover"] = shapes["classify"] = 0
        cert = cover(h)
        assert checks["check_cover"] == 1
        assert shapes["classify"] == len(cert.parts)
        check_cover(cert, h, "path", odd_cover_bound(h, "path"))


@pytest.mark.parametrize("cover, g", [
    (lambda g: odd_cover_eulerian(g, "path"), complete(9)),
    (lambda g: odd_cover_eulerian(g, "cycle"), complete(9)),
    (path_odd_cover_general, complete(8)),
], ids=["eulerian paths K9", "eulerian cycles K9", "general paths K8"])
def test_each_cover_decomposes_once(cover, g, monkeypatch):
    # The pairs are covered as the decomposition gives them.  When each
    # pair's union was decomposed again, K9 took 3 decompositions for
    # either kind, and K8's general cover 2.
    calls = _count_calls(monkeypatch, oddcover, ["undirected_polycycle_decomposition"])
    cert = cover(g)
    assert calls["undirected_polycycle_decomposition"] == 1
    check_cover(cert, g, cert.kind, odd_cover_bound(g, cert.kind))


def _one_more(kind, parts):
    """The same xor from one more part: a path gives up an end edge, and a
    cycle splits along a chord into two cycles."""
    parts = list(parts)
    for k, part in enumerate(parts):
        if kind == "path" and len(part) >= 2:
            ends = Counter(v for e in part for v in e)
            e = next(e for e in sorted(part) if 1 in (ends[e[0]], ends[e[1]]))
            split = [part - {e}, frozenset({e})]
        elif kind == "cycle" and len(part) >= 4:
            links = _links(part)
            a = min(links)
            b = min(links[a])
            c = next(w for w in links[b] if w != a)
            arc = {edge(a, b), edge(b, c)}
            split = [frozenset(arc | {edge(a, c)}), (part - arc) | {edge(a, c)}]
        else:
            continue
        return parts[:k] + split + parts[k + 1:]


K5 = complete(5)
TWO_K5 = simple_graph(10, [e for u, v in K5.edges for e in ((u, v), (u + 5, v + 5))])
K5_MINUS_EDGE = SimpleGraph(5, K5.edges - {(0, 1)})


@pytest.mark.parametrize("cover, core, kind, g, refusal", [
    (path_odd_cover_delta4, "_path_pair", "path", K5, "4 paths exceed the bound 3"),
    (cycle_odd_cover_delta4, "_cycle_pair", "cycle", TWO_K5, "4 cycles exceed the bound 3"),
    (lambda g: odd_cover_eulerian(g, "path"), "_eulerian_cover", "path", complete(7),
     "6 paths exceed the bound 5"),
    (path_odd_cover_general, "_eulerian_cover", "path", K5_MINUS_EDGE,
     "5 paths exceed the bound 4"),
], ids=["delta4 paths", "delta4 cycles", "eulerian paths", "general paths"])
def test_public_covers_refuse_a_core_past_the_bound(monkeypatch, cover, core, kind, g, refusal):
    real = getattr(oddcover, core)
    monkeypatch.setattr(oddcover, core, lambda *args: _one_more(kind, real(*args)))
    with pytest.raises(AssertionError, match=refusal):
        cover(g)
