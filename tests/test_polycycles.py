"""Tests for polycycle decompositions and balanced factorizations."""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import NamedTuple

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
    eulerian_orientation,
    simple_graph,
    symmetric_difference,
)
from polyresolve.oddcover import cycle_odd_cover_delta4, path_odd_cover_delta4
from polyresolve.perms import Partition, Permutation, cdg
from polyresolve.polycycles import (
    PolycycleDecomposition,
    _cycles_of,
    _extract_cycle_through,
    _hopcroft_karp,
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


def _by_tail(d: Digraph) -> list[int]:
    """The arc out of each tail of d, -1 where a vertex has none."""
    out_arc = [-1] * d.n
    for a, u in enumerate(d.tails):
        out_arc[u] = a
    return out_arc


def test_part_walk_rejects_a_stall():
    # the path 0 -> 1 -> 2: vertex 2 has no arc out
    path = Digraph(3, (0, 1), (1, 2))
    with pytest.raises(AssertionError, match="stalls at a tail with no arc"):
        _cycles_of(_by_tail(path), path.heads)


def test_part_walk_rejects_two_arcs_into_one_head():
    # 0 -> 1 -> 0 closes, then 2 -> 0 enters the closed cycle; 0 -> 1 -> 2
    # -> 1 enters its own cycle away from its start
    into_closed = Digraph(3, (0, 1, 2), (1, 0, 0))
    into_open = Digraph(3, (0, 1, 2), (1, 2, 1))
    for d in (into_closed, into_open):
        with pytest.raises(AssertionError, match="two arcs of a part enter one head"):
            _cycles_of(_by_tail(d), d.heads)


def test_part_walk_orders_cycles_by_their_smallest_arcs():
    # two disjoint 2-cycles around an idle vertex 2
    g = Digraph(5, (0, 1, 3, 4), (1, 0, 4, 3))
    assert _cycles_of(_by_tail(g), g.heads) == ((0, 1), (2, 3))
    assert _cycles_of([-1] * 5, g.heads) == ()
    # Two triangles whose arc ids do not follow the walk: each cycle starts
    # at its smallest arc, and the cycles come in order of that arc.
    tri = Digraph(6, (1, 0, 2, 5, 4, 3), (2, 1, 0, 3, 5, 4))
    assert _cycles_of(_by_tail(tri), tri.heads) == ((0, 2, 1), (3, 5, 4))


def test_an_empty_suffix_part_stands_in_for_a_loop():
    # vertex 0 has out-degree 3: the 2-cycle 0 -> 1 -> 0 and two loops; the
    # first suffix part takes the 2-cycle, the second a loop, and the one
    # part below the threshold 1 the other loop
    dec = directed_polycycle_decomposition(Digraph(2, (0, 0, 1, 0), (1, 0, 0, 0)), 1)
    assert dec.cycle_suffix_len == 2
    assert dec.components == ((), ((0, 2),), ())
    assert dec.parts == (frozenset(), frozenset({0, 2}), frozenset())


class _Reference(NamedTuple):
    parts: tuple[frozenset[int], ...]
    cycle_suffix_len: int


def _reference_directed_polycycle_decomposition(g: Digraph, t: int) -> _Reference:
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
            cycles.append(frozenset(_extract_cycle_through(g, high[0], out_arcs, used)))
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
    return _Reference(tuple(classes) + tuple(cycles), delta - t)


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


def _two_pass_extract_cycle_through(g, v, out_arcs, used):
    """The cycle extraction as it stood when it walked first and then cut
    the detours out of the finished walk, also returning the walk's length."""
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
        return (), 1

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
    k = reduced.index(min(reduced))
    return (*reduced[k:], *reduced[:k]), len(walk)


def _hub_digraphs(rng):
    """Digraphs with one vertex of out-degree above all others, with that
    vertex and the second largest out-degree: the cluster digraphs of
    random pairs with k1 > k2 (loops included), then orientations of
    Eulerian graphs with d1 > d2, a hub's cycles over a few others."""
    while True:
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(2, 6))]
        sizes[0] += max(sizes[1:]) + rng.randint(0, 4)
        p, q = _shuffled_pair(rng, sizes)
        yield cdg(p, q), 0, sorted(sizes)[-2]
        n = rng.randint(4, 12)
        edges = frozenset()
        for hub in [True] * rng.randint(2, 5) + [False] * rng.randint(0, 3):
            cycle = rng.sample(range(1, n), rng.randint(2 if hub else 3, n - 1))
            cycle = [0, *cycle] if hub else cycle
            edges ^= {edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
        degs = simple_graph(n, edges).degree_vector()
        if degs[0] > max(degs[1:]):
            yield eulerian_orientation(simple_graph(n, edges)), 0, max(degs[1:]) // 2


def test_cycle_extraction_equals_the_two_pass_extraction():
    # Each extraction of the cycle suffix, run as the decomposition runs
    # it, returns the same cycle and leaves the same arcs used.
    rng = random.Random(36)
    calls = detours = 0
    for g, v, t in itertools.islice(_hub_digraphs(rng), 600):
        out_arcs = [[] for _ in range(g.n)]
        for a, u in enumerate(g.tails):
            out_arcs[u].append(a)
        used, want_used = [False] * g.m, [False] * g.m
        for _ in range(g.out_degrees()[v] - t):
            want, walked = _two_pass_extract_cycle_through(g, v, out_arcs, want_used)
            assert _extract_cycle_through(g, v, out_arcs, used) == want
            assert used == want_used
            calls += 1
            detours += walked > max(len(want), 1)
    assert calls > 3000 and detours > 400


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


def test_resolve_builds_no_part_sets(monkeypatch):
    # resolve reads each part's cycles only; reading ``parts`` would build
    # a set per part.
    def unread(dec):
        raise AssertionError("resolve read PolycycleDecomposition.parts")

    monkeypatch.setattr(PolycycleDecomposition, "parts", property(unread))
    rng = random.Random(31)
    for sizes in ([2] * 1500, [50] * 10):
        p, q = _shuffled_pair(rng, sizes)
        assert resolve(p, q).start == p


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
