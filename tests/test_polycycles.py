"""Tests for polycycle decompositions and balanced factorizations."""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyresolve import polycycles
from polyresolve.generators import random_delta4_eulerian_graph, random_eulerian_graph
from polyresolve.graphs import (
    Digraph,
    SubgraphShape,
    classify,
    edge,
    edge_components,
    simple_graph,
    symmetric_difference,
)
from polyresolve.oddcover import cycle_odd_cover_delta4, path_odd_cover_delta4
from polyresolve.perms import Partition, Permutation
from polyresolve.polycycles import (
    PolycycleDecomposition,
    _extract_cycle_through,
    _hopcroft_karp,
    _part_cycles,
    balanced_permutation_factorization,
    directed_polycycle_decomposition,
    polycycle_odd_cover,
    undirected_polycycle_decomposition,
)
from polyresolve.resolve import resolve
from test_perms import act, compose, cycle_perm


def test_directed_decomposition_splits_a_doubled_triangle():
    # two arc-disjoint directed triangles on 0,1,2
    g = Digraph(3, (0, 1, 2, 0, 2, 1), (1, 2, 0, 2, 1, 0))
    dec = directed_polycycle_decomposition(g, 2)
    assert len(dec.parts) == 2
    assert dec.cycle_suffix_len == 0
    assert frozenset().union(*dec.parts) == frozenset(range(6))
    assert not dec.parts[0] & dec.parts[1]


def test_directed_decomposition_rejects_unbalanced_digraphs():
    with pytest.raises(ValueError, match="every vertex needs equal in- and out-degree"):
        directed_polycycle_decomposition(Digraph(2, (0,), (1,)), 1)


def test_directed_decomposition_extracts_cycles_through_the_heavy_vertex():
    # vertex 0 has out-degree 3; everyone else 1
    g = Digraph(4, (0, 1, 0, 2, 0, 3), (1, 0, 2, 0, 3, 0))
    dec = directed_polycycle_decomposition(g, 2)
    assert len(dec.parts) == 3
    assert dec.cycle_suffix_len == 1


def test_directed_decomposition_enforces_single_heavy_vertex():
    # two vertices above the threshold t=1
    g = Digraph(4, (0, 1, 0, 2, 1, 3), (1, 0, 2, 0, 3, 1))
    with pytest.raises(ValueError, match="2 vertices have out-degree above 1; at most one allowed"):
        directed_polycycle_decomposition(g, 1)


def test_part_check_rejects_a_vertex_of_out_degree_two():
    # 0 -> 1 -> 0 and 0 -> 2 -> 0: balanced, but vertex 0 has degree 2
    g = Digraph(3, (0, 1, 0, 2), (1, 0, 2, 0))
    # a bowtie: the triangles 0 -> 1 -> 2 -> 0 and 2 -> 3 -> 4 -> 2 share
    # vertex 2; its first two arcs are the path 0 -> 1 -> 2
    bowtie = Digraph(5, (0, 1, 2, 2, 3, 4), (1, 2, 0, 3, 4, 2))
    for d, arcs in ((g, range(4)), (bowtie, range(6)), (bowtie, {0, 1})):
        with pytest.raises(AssertionError, match="degree 1"):
            _part_cycles(frozenset(arcs), d.tails, d.heads, single_cycle=False)


def test_part_check_rejects_a_suffix_part_of_two_cycles():
    # two disjoint 2-cycles: a polycycle, but not a single cycle
    g = Digraph(4, (0, 1, 2, 3), (1, 0, 3, 2))
    assert _part_cycles(frozenset(range(4)), g.tails, g.heads, single_cycle=False) == (
        (0, 1), (2, 3))
    assert _part_cycles(frozenset({0, 1}), g.tails, g.heads, single_cycle=True) == ((0, 1),)
    # an empty part stands in for a loop at the high-degree vertex
    assert _part_cycles(frozenset(), g.tails, g.heads, single_cycle=True) == ()
    with pytest.raises(AssertionError, match="one cycle"):
        _part_cycles(frozenset(range(4)), g.tails, g.heads, single_cycle=True)
    # Two triangles whose arc ids do not follow the walk: each cycle starts
    # at its smallest arc, and the cycles come in order of that arc.
    tri = Digraph(6, (1, 0, 2, 5, 4, 3), (2, 1, 0, 3, 5, 4))
    assert _part_cycles(frozenset(range(6)), tri.tails, tri.heads, single_cycle=False) == (
        (0, 2, 1), (3, 5, 4))


def _reference_directed_polycycle_decomposition(g: Digraph, t: int) -> PolycycleDecomposition:
    """The decomposition as it stood before its set-up was rewritten: one
    tuple-keyed pool of arc deques and t textbook matching rounds.  Kept
    without its self-checks, which do not change the output; the cycle
    extraction is shared with the module."""
    out = g.out_degrees()
    delta = max(out, default=0)
    used = [False] * g.m
    out_arcs: list[list[int]] = [[] for _ in range(g.n)]
    for a in range(g.m):
        out_arcs[g.tails[a]].append(a)
    cycles = []
    if t < delta:
        high = [u for u in range(g.n) if out[u] > t]
        if len(high) > 1:
            raise ValueError("more than one vertex above the threshold")
        for _ in range(delta - t):
            cycles.append(_extract_cycle_through(g, high[0], out_arcs, used))
    remaining = [a for a in range(g.m) if not used[a]]
    res_out = [0] * g.n
    for a in remaining:
        res_out[g.tails[a]] += 1
    pools: dict[tuple[int, int], deque[int]] = {}
    for a in remaining:
        pools.setdefault((g.tails[a], g.heads[a]), deque()).append(a)
    next_virtual = g.m
    for u in range(g.n):
        for _ in range(t - res_out[u]):
            pools.setdefault((u, u), deque()).append(next_virtual)
            next_virtual += 1
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, w in sorted(pools):
        adj[u].append(w)
    classes = []
    for _ in range(t):
        match_l = _recursive_hopcroft_karp(g.n, g.n, adj)
        cls = []
        for u in range(g.n):
            w = match_l[u]
            pool = pools[(u, w)]
            a = pool.popleft()
            if not pool:
                adj[u].remove(w)
            if a < g.m and u != w:
                cls.append(a)
        classes.append(frozenset(cls))
    return PolycycleDecomposition(tuple(classes) + tuple(cycles), delta - t)


@st.composite
def eulerian_multidigraphs(draw):
    """Unions of closed walks, with loops, parallel arcs, isolated vertices
    and shuffled arc ids.  With ``hub`` set every walk passes vertex 0, so
    that one vertex lies above most thresholds."""
    n = draw(st.integers(1, 8))
    hub = draw(st.booleans())
    arcs = []
    for _ in range(draw(st.integers(0, 6))):
        walk = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
        if hub:
            walk[0] = 0
        arcs += zip(walk, walk[1:] + walk[:1])
    arcs = draw(st.permutations(arcs))
    return Digraph(n, tuple(u for u, _ in arcs), tuple(w for _, w in arcs))


@given(eulerian_multidigraphs())
# a hub of out-degree 4 with a loop on it, and an isolated vertex 4
@example(Digraph(5, (0, 1, 0, 2, 0, 3, 0), (1, 0, 2, 0, 3, 0, 0)))
@settings(max_examples=300, deadline=None)
def test_decomposition_equals_the_frozen_reference(g):
    degrees = sorted(g.out_degrees())
    second = degrees[-2] if len(degrees) > 1 else 0
    for t in range(degrees[-1] + 1):
        if second > t:   # two vertices lie above the threshold
            with pytest.raises(ValueError, match=f"vertices have out-degree above {t}; at most"):
                directed_polycycle_decomposition(g, t)
            with pytest.raises(ValueError, match="more than one vertex above the threshold"):
                _reference_directed_polycycle_decomposition(g, t)
            continue
        got = directed_polycycle_decomposition(g, t)
        want = _reference_directed_polycycle_decomposition(g, t)
        assert got.cycle_suffix_len == want.cycle_suffix_len
        # The matcher's t - 2 classes and the cycle suffix are the
        # reference's; the last two classes split the same arcs anew.
        cut = max(t - 2, 0)
        assert got.parts[:cut] == want.parts[:cut]
        assert got.parts[t:] == want.parts[t:]
        last = frozenset().union(*got.parts[cut:t])
        assert last == frozenset().union(*want.parts[cut:t])
        assert sum(map(len, got.parts[cut:t])) == len(last)
        # Each part comes with its cycles: closed under tail and head, each
        # from its smallest arc, in order of that arc, and together the part.
        assert len(got.components) == len(got.parts)
        for part, cycles in zip(got.parts, got.components):
            for cycle in cycles:
                assert all(g.heads[a] == g.tails[b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
                assert cycle[0] == min(cycle)
            firsts = [cycle[0] for cycle in cycles]
            assert firsts == sorted(set(firsts))
            assert sorted(a for cycle in cycles for a in cycle) == sorted(part)
        assert all(len(cycles) <= 1 for cycles in got.components[t:])


def _shuffled_pair(rng, sizes):
    base = [c for c, k in enumerate(sizes) for _ in range(k)]
    p, q = base[:], base[:]
    rng.shuffle(p)
    rng.shuffle(q)
    return Partition(len(sizes), tuple(p)), Partition(len(sizes), tuple(q))


def test_matcher_runs_only_while_the_residual_degree_is_three_or_more(monkeypatch):
    calls = []
    matcher = polycycles._hopcroft_karp

    def counting(*args):
        calls.append(args)
        return matcher(*args)

    monkeypatch.setattr(polycycles, "_hopcroft_karp", counting)
    rng = random.Random(18)

    def counted(run) -> int:
        calls.clear()
        run()
        return len(calls)

    # t = 2: the last two classes come from the residual's cycles.
    assert counted(lambda: resolve(*_shuffled_pair(rng, [2] * 1500))) == 0
    g = random_delta4_eulerian_graph(rng, 12)
    assert counted(lambda: (path_odd_cover_delta4(g), cycle_odd_cover_delta4(g))) == 0
    # t = 50: one Hopcroft-Karp round per class but the last two.
    assert counted(lambda: resolve(*_shuffled_pair(rng, [50] * 10))) == 48


def test_undirected_decomposition_covers_a_four_regular_graph():
    # K5 is 4-regular and Eulerian
    g = simple_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    dec = undirected_polycycle_decomposition(g, 2)
    assert len(dec.parts) == 2
    assert symmetric_difference(dec.parts) == g.edges


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.booleans())
def test_undirected_decomposition_hands_over_each_parts_cycles(seed, layers, suffix):
    # Each part's cycles are its directed cycles as edge sets, in the
    # order ``edge_components`` gives them; a suffix part is one cycle.
    rng = random.Random(seed)
    g = random_eulerian_graph(rng, layers, max_n=14)
    degs = sorted(g.degree_vector(), reverse=True)
    top = degs[1] // 2 if suffix and degs[0] > degs[1] else degs[0] // 2
    dec = undirected_polycycle_decomposition(g, top)
    assert len(dec.components) == len(dec.parts)
    for part, cycles in zip(dec.parts, dec.components):
        assert list(cycles) == edge_components(part)
    for cycles in dec.components[len(dec.parts) - dec.cycle_suffix_len:]:
        assert len(cycles) == 1


def test_polycycle_odd_cover_of_a_single_cycle():
    cyc = [edge(0, 1), edge(1, 2), edge(0, 2)]
    assert polycycle_odd_cover(cyc, "cycle") == [frozenset(cyc)]
    paths = polycycle_odd_cover(cyc, "path")
    assert len(paths) == 2
    assert symmetric_difference(paths) == frozenset(cyc)
    for part in paths:
        assert classify(part, 3) is SubgraphShape.PATH


def test_polycycle_odd_cover_of_two_disjoint_triangles():
    pc = [edge(0, 1), edge(1, 2), edge(0, 2), edge(3, 4), edge(4, 5), edge(3, 5)]
    for kind, want in (("path", SubgraphShape.PATH), ("cycle", SubgraphShape.CYCLE)):
        parts = polycycle_odd_cover(pc, kind)
        assert len(parts) <= 2
        assert symmetric_difference(parts) == frozenset(pc)
        for part in parts:
            assert classify(part, 6) is want


def test_polycycle_odd_cover_rejects_shared_vertices():
    fig8 = [edge(0, 1), edge(1, 2), edge(0, 2), edge(2, 3), edge(3, 4), edge(2, 4)]
    with pytest.raises(ValueError, match="input classifies as other, not a polycycle"):
        polycycle_odd_cover(fig8, "path")


def test_polycycle_odd_cover_rejects_unknown_kind():
    with pytest.raises(ValueError):
        polycycle_odd_cover([edge(0, 1)], "tree")


def test_factorization_of_a_two_cluster_swap():
    p = Partition(3, (0, 0, 1, 2))
    q = Partition(3, (1, 2, 0, 0))
    sigmas, pis = balanced_permutation_factorization(p, q)
    assert len(sigmas) == 1 and len(pis) == 1
    total = Permutation.from_moved(p.m, {})
    for s in sigmas:
        total = compose(cycle_perm(p.m, s.items), total)
    for pi in pis:
        total = compose(pi, total)
    assert act(p, total) == q


def equal_shape_pairs(max_clusters=4, max_items=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_clusters))
        extra = draw(st.lists(st.integers(0, n - 1), max_size=max_items - n))
        base = list(range(n)) + extra
        return (
            Partition(n, tuple(draw(st.permutations(base)))),
            Partition(n, tuple(draw(st.permutations(base)))),
        )

    return build()


@given(equal_shape_pairs())
@settings(max_examples=150, deadline=None)
def test_factorization_applies_back_to_the_target(pair):
    p, q = pair
    sigmas, pis = balanced_permutation_factorization(p, q)
    sizes = sorted(p.sizes(), reverse=True)
    k1, k2 = sizes[0], sizes[1]
    assert len(sigmas) <= max(k1 - k2, 0)
    assert len(pis) <= k2
    total = Permutation.from_moved(p.m, {})
    for s in sigmas:
        total = compose(cycle_perm(p.m, s.items), total)
    for pi in pis:
        total = compose(pi, total)
    assert act(p, total) == q


# --- matching ------------------------------------------------------------------


def _recursive_hopcroft_karp(n_left, n_right, adj):
    """Reference: Hopcroft-Karp with the textbook recursive augmentation."""
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    inf = n_left + n_right + 1

    def try_augment(u):
        for w in adj[u]:
            u2 = match_r[w]
            if u2 == -1 or (dist[u2] == dist[u] + 1 and try_augment(u2)):
                match_l[u] = w
                match_r[w] = u
                return True
        dist[u] = inf
        return False

    while True:
        dist = [inf] * n_left
        queue = deque(u for u in range(n_left) if match_l[u] == -1)
        for u in queue:
            dist[u] = 0
        reachable_free = False
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                u2 = match_r[w]
                if u2 == -1:
                    reachable_free = True
                elif dist[u2] == inf:
                    dist[u2] = dist[u] + 1
                    queue.append(u2)
        if not reachable_free:
            return match_l
        for u in range(n_left):
            if match_l[u] == -1:
                try_augment(u)


@st.composite
def bipartite_graphs(draw):
    n_left = draw(st.integers(0, 9))
    n_right = draw(st.integers(1, 9))
    adj = [draw(st.lists(st.integers(0, n_right - 1), unique=True, max_size=n_right))
           for _ in range(n_left)]
    return n_left, n_right, adj


@given(bipartite_graphs())
@settings(max_examples=300, deadline=None)
def test_matching_equals_the_recursive_augmentation(graph):
    assert _hopcroft_karp(*graph) == _recursive_hopcroft_karp(*graph)


def test_matching_on_a_long_chain_needs_no_recursion():
    # Left u sees right u+1 first, then right u; the last left vertex sees
    # only its own right vertex.  The first phase matches u to u+1 greedily
    # and strands the last vertex, whose augmenting path then runs through
    # all 5000 left vertices.
    n = 5000
    adj = [[u + 1, u] for u in range(n - 1)] + [[n - 1]]
    assert _hopcroft_karp(n, n, adj) == list(range(n))
