"""Tests for edges, graphs, digraphs, and subgraph classification."""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyresolve.generators import random_eulerian_graph
from polyresolve.graphs import (
    Digraph,
    SubgraphShape,
    classify,
    cycle_order,
    degrees,
    edge,
    edge_components,
    eulerian_orientation,
    linear_forest_paths,
    simple_graph,
    symmetric_difference,
    vertices_of,
)


def graphs(max_n=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pairs = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
        return simple_graph(n, pairs)

    return build()


def test_edge_is_canonical_and_loopless():
    assert edge(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)


def test_simple_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        simple_graph(3, [(0, 3)])


def test_degree_summary_on_a_star():
    g = simple_graph(4, [(0, 1), (0, 2), (0, 3)])
    d = degrees(g)
    assert d.delta == 3
    assert d.v_odd == 4
    assert d.delta_e == 4
    assert d.degrees == (3, 1, 1, 1)


def test_degree_summary_is_counted_once_per_graph():
    # Every reader of a graph's degrees (the cover's route and threshold,
    # the verifier's bound) gets the one summary the graph keeps, and it
    # matches a fresh count of the edge ends.
    nx = pytest.importorskip("networkx")
    for atlas in nx.graph_atlas_g():
        g = simple_graph(atlas.number_of_nodes(), atlas.edges())
        assert degrees(g) is degrees(g)
        deg = [sum(v in e for e in g.edges) for v in range(g.n)]
        delta = max(deg, default=0)
        assert degrees(g) == (delta, sum(d % 2 for d in deg), delta + delta % 2, tuple(deg))


def test_classify_distinguishes_the_known_shapes():
    assert classify([], 4) is SubgraphShape.EMPTY
    assert classify([edge(0, 1), edge(1, 2)], 3) is SubgraphShape.PATH
    assert classify([edge(0, 1), edge(1, 2), edge(0, 2)], 3) is SubgraphShape.CYCLE
    two_paths = [edge(0, 1), edge(2, 3)]
    assert classify(two_paths, 4) is SubgraphShape.LINEAR_FOREST
    two_triangles = [edge(0, 1), edge(1, 2), edge(0, 2), edge(3, 4), edge(4, 5), edge(3, 5)]
    assert classify(two_triangles, 6) is SubgraphShape.POLYCYCLE
    star = [edge(0, 1), edge(0, 2), edge(0, 3)]
    assert classify(star, 4) is SubgraphShape.OTHER
    # Two cycles through a shared vertex are not vertex-disjoint.
    figure_eight = [edge(0, 1), edge(1, 2), edge(0, 2), edge(2, 3), edge(3, 4), edge(2, 4)]
    assert classify(figure_eight, 5) is SubgraphShape.OTHER


def _frozen_classify(edges, n):
    """``classify`` as it was before the one-walk rewrite: a depth-first
    component split, then one degree count per component."""
    edges = frozenset(edges)
    for u, v in edges:
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u},{v}) invalid for n={n}")
    if not edges:
        return SubgraphShape.EMPTY
    incident = defaultdict(list)
    for e in edges:
        incident[e[0]].append(e)
        incident[e[1]].append(e)
    seen, comps = set(), []
    for start in sorted(incident):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            for e in incident[v]:
                if e[0] == v:
                    comp.append(e)
                w = e[1] if e[0] == v else e[0]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(comp)
    shapes = []
    for comp in comps:
        deg = Counter(chain.from_iterable(comp))
        ones = sum(1 for d in deg.values() if d == 1)
        if any(d > 2 for d in deg.values()) or ones not in (0, 2):
            shapes.append(SubgraphShape.OTHER)
        else:
            shapes.append(SubgraphShape.PATH if ones == 2 else SubgraphShape.CYCLE)
    if SubgraphShape.OTHER in shapes:
        return SubgraphShape.OTHER
    if len(shapes) == 1:
        return shapes[0]
    if all(s is SubgraphShape.CYCLE for s in shapes):
        return SubgraphShape.POLYCYCLE
    if all(s is SubgraphShape.PATH for s in shapes):
        return SubgraphShape.LINEAR_FOREST
    return SubgraphShape.OTHER


@st.composite
def shaped_edge_lists(draw):
    """Vertex-disjoint paths and cycles cut from a shuffled vertex list, so
    mixtures of both are common, plus stray pairs that may raise a degree
    to 3 or more, repeat a pair, or (rarely) reverse one or leave
    ``0..n-1``."""
    chunks = draw(st.lists(st.tuples(st.integers(2, 5), st.booleans()), max_size=4))
    n = sum(k for k, _ in chunks) + draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))
    pairs = []
    i = 0
    for k, closed in chunks:
        chunk = order[i:i + k]
        i += k
        pairs += [(chunk[j], chunk[j + 1]) for j in range(k - 1)]
        if closed and k >= 3:
            pairs.append((chunk[-1], chunk[0]))
    pairs = [(min(u, v), max(u, v)) for u, v in pairs]
    inside = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if draw(st.booleans()):
        pairs += draw(st.lists(inside.filter(lambda e: e[0] < e[1]), max_size=2))
    if draw(st.integers(0, 15)) == 0:
        outside = st.tuples(st.integers(-1, n), st.integers(-1, n))
        pairs += draw(st.lists(outside, min_size=1, max_size=2))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return n, draw(st.permutations(pairs))


def _outcome(fn, pairs, n):
    try:
        return fn(pairs, n)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=400, deadline=None)
@given(shaped_edge_lists())
@example((4, [(0, 1), (0, 1), (1, 2)]))
@example((7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
@example((7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]))
@example((5, [(0, 1), (0, 2), (0, 3), (3, 4)]))
@example((5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]))
@example((3, [(0, 1), (1, 3)]))
@example((3, [(1, 0)]))
def test_classify_matches_the_component_split(case):
    n, pairs = case
    assert _outcome(classify, pairs, n) == _outcome(_frozen_classify, pairs, n)


def test_linear_forest_paths_walks_each_path():
    forest = [edge(5, 6), edge(0, 4), edge(4, 2), edge(7, 1)]
    assert linear_forest_paths(forest) == [(0, 0, 2), (1, 1, 7), (5, 5, 6)]
    assert linear_forest_paths([]) == []
    assert linear_forest_paths([edge(0, 1), edge(1, 2), edge(0, 2)]) is None
    assert linear_forest_paths([edge(0, 1), edge(0, 2), edge(0, 3)]) is None
    # A path plus a cycle is no linear forest either.
    assert linear_forest_paths([edge(0, 1), edge(2, 3), edge(3, 4), edge(2, 4)]) is None


def test_edge_components_split_and_sort():
    parts = edge_components([edge(4, 5), edge(0, 1), edge(1, 2)])
    assert parts == [frozenset({edge(0, 1), edge(1, 2)}), frozenset({edge(4, 5)})]


def test_symmetric_difference_cancels_duplicates():
    a = [edge(0, 1), edge(1, 2)]
    b = [edge(1, 2), edge(2, 3)]
    assert symmetric_difference([a, b]) == frozenset({edge(0, 1), edge(2, 3)})


def test_cycle_order_walks_the_cycle():
    comp = [edge(0, 1), edge(1, 2), edge(2, 3), edge(0, 3)]
    assert cycle_order(comp) == [0, 1, 2, 3]


def test_cycle_order_names_what_is_not_a_cycle():
    with pytest.raises(ValueError, match="^component is not a single cycle$"):
        cycle_order([])
    with pytest.raises(ValueError, match="^start 5 is not on the cycle$"):
        cycle_order([edge(0, 1), edge(1, 2), edge(0, 2)], start=5)


def test_digraph_checks_lengths_and_range():
    with pytest.raises(ValueError):
        Digraph(2, (0,), (1, 1))
    with pytest.raises(ValueError, match="^vertex 2 out of range for n=2$"):
        Digraph(2, (0, 2), (1, 1))
    # The first offender in tails-then-heads order is named.
    with pytest.raises(ValueError, match="^vertex 5 out of range for n=3$"):
        Digraph(3, (0, 1, 2), (1, 5, -1))
    g = Digraph(2, (0, 1, 1), (1, 0, 1))
    assert g.m == 3
    assert g.out_degrees() == g.in_degrees() == [1, 2]


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_eulerian_orientation_balances_even_graphs(g):
    if any(d % 2 for d in g.degree_vector()):
        with pytest.raises(ValueError, match="graph has a vertex of odd degree"):
            eulerian_orientation(g)
        return
    oriented = eulerian_orientation(g)
    assert oriented.out_degrees() == oriented.in_degrees()
    back = [edge(t, h) for t, h in zip(oriented.tails, oriented.heads)]
    assert back == sorted(g.edges)


def _frozen_orientation(g):
    """``eulerian_orientation`` as it was before it walked edge ids: a
    neighbour set per vertex, the smallest unused neighbour taken by
    ``min``, and each edge directed along the reversed pop order of the
    Hierholzer stack."""
    if any(d % 2 for d in g.degree_vector()):
        raise ValueError("graph has a vertex of odd degree")
    remaining = defaultdict(set)
    for u, v in g.edges:
        remaining[u].add(v)
        remaining[v].add(u)
    direction = {}
    for start in sorted(remaining):
        if not remaining[start]:
            continue
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
    return Digraph(g.n, tuple(direction[e][0] for e in ordered),
                   tuple(direction[e][1] for e in ordered))


def test_orientation_matches_the_frozen_hierholzer():
    # Every tail and head, so the decompositions and the covers built on
    # them stay byte-identical: on each Eulerian atlas graph (every graph
    # on at most 7 vertices) and on seeded random Eulerian graphs of
    # maximum degree 2 to 8.
    nx = pytest.importorskip("networkx")
    cases = [simple_graph(a.number_of_nodes(), a.edges()) for a in nx.graph_atlas_g()]
    cases = [g for g in cases if g.edges and not any(d % 2 for d in g.degree_vector())]
    assert len(cases) == 77
    rng = random.Random(21)
    cases += [random_eulerian_graph(rng, layers, max_n=40)
              for layers in (1, 2, 3, 4) for _ in range(50)]
    for g in cases:
        assert eulerian_orientation(g) == _frozen_orientation(g)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_vertices_of_matches_edge_support(g):
    assert vertices_of(g.edges) == {v for e in g.edges for v in e}


@given(graphs(max_n=7), graphs(max_n=7))
@settings(max_examples=100, deadline=None)
def test_symmetric_difference_is_xor(g, h):
    got = symmetric_difference([g.edges, h.edges])
    assert got == g.edges ^ h.edges
