"""Tests for the brute-force oracles and the unified certificate checker."""

from __future__ import annotations

import itertools
import math
import random
import re
import time
from collections import OrderedDict

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from polyresolve import oracles
from polyresolve.errors import TooLarge, state_cap
from polyresolve.generators import random_instance
from polyresolve.graphs import edge, simple_graph
from polyresolve.oddcover import OddCoverCert, cycle_odd_cover_delta4, path_odd_cover_general
from polyresolve.oracles import (
    _candidate_parts,
    _neighbours as table_neighbours,
    _part_table,
    _search_to_diagonal,
    _table_coding,
    _table_of,
    _vertex_count,
    exact_diameter_bfs,
    exact_odd_cover,
    min_odd_cover_exhaustive,
    min_resolution_length,
    verify_certificate,
)
from polyresolve.perms import CycleSeq, Partition, Resolution
from polyresolve.resolve import gen_lower_bound_instance, gen_pp36_instance, resolve


def complete(n):
    return simple_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cyc(*vs):
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


# --- exact polytope diameters -------------------------------------------------


def test_exact_diameter_known_values():
    assert exact_diameter_bfs((1,)) == 0
    assert exact_diameter_bfs((3, 1)) == 1
    assert exact_diameter_bfs((2, 2)) == 2
    assert exact_diameter_bfs((1, 1, 1, 1)) == 2


def test_exact_diameter_2222():
    assert exact_diameter_bfs((2, 2, 2, 2)) == 3


def test_shapes_refuse_entries_that_are_not_integers():
    # Coercing each entry with int() would read a string digit by digit,
    # truncate a float and count a bool as 0 or 1.
    for shape, bad in (("22", "'2'"), ("4321", "'4'"), ((2.5, 1), "2.5"),
                       ((4, 3, 2, 1.0), "1.0"), ((True, True), "True"), ((4, 3, 2, False), "False")):
        for build in (exact_diameter_bfs, gen_lower_bound_instance):
            with pytest.raises(ValueError, match=f"^cluster sizes must be integers, got {re.escape(bad)}$"):
                build(shape)
    with pytest.raises(ValueError, match="^cluster sizes must be non-negative$"):
        exact_diameter_bfs((2, -1))
    with pytest.raises(ValueError, match="^cluster sizes must be non-increasing and non-negative$"):
        gen_lower_bound_instance((1, 2, 3, 4))


def test_exact_diameter_respects_cap():
    with pytest.raises(TooLarge):
        exact_diameter_bfs((2, 2, 2, 2), cap=100)


def test_exact_diameter_cap_is_the_vertex_count():
    # (2,2,2,2) has 8!/2!^4 = 2520 vertices.
    with pytest.raises(TooLarge):
        exact_diameter_bfs((2, 2, 2, 2), cap=2519)
    assert exact_diameter_bfs((2, 2, 2, 2), cap=2520) == 3


def test_exact_diameter_huge_shapes_return_at_once():
    start = time.perf_counter()
    assert exact_diameter_bfs((3_000_000,)) == 0
    assert exact_diameter_bfs((0, 1_000_000, 0)) == 0
    with pytest.raises(TooLarge):
        exact_diameter_bfs((500_000, 500_000))
    with pytest.raises(TooLarge):
        exact_diameter_bfs((1,) * 100_000)
    assert time.perf_counter() - start < 5


def test_exact_diameter_env_cap(monkeypatch):
    monkeypatch.setenv("POLYRESOLVE_CAP", "100")
    with pytest.raises(TooLarge):
        exact_diameter_bfs((2, 2, 2, 2))
    monkeypatch.setenv("POLYRESOLVE_CAP", "5000")
    assert exact_diameter_bfs((2, 2, 2)) == 2


@pytest.mark.parametrize("cap", [0, -5])
def test_cap_below_one_is_refused(cap):
    p, q = Partition(2, (0, 0, 1, 1)), Partition(2, (1, 1, 0, 0))
    message = f"cap must be a positive integer, got {cap}"
    with pytest.raises(ValueError, match=message):
        exact_diameter_bfs((2, 2), cap=cap)
    for target in (q, p):
        with pytest.raises(ValueError, match=message):
            min_resolution_length(p, target, cap=cap)
    with pytest.raises(ValueError, match=message):
        exact_odd_cover(complete(3), "path", 2, cap=cap)
    # The least cap, 1, passes K_2, which has no cycle.
    assert min_odd_cover_exhaustive(complete(2), "cycle", 1, cap=1) is None


@pytest.mark.parametrize("cap", ["100", True, 2.0])
def test_cap_that_is_not_an_integer_is_refused(cap):
    p = Partition(2, (0, 0, 1, 1))
    message = re.escape(f"cap must be a positive integer, got {cap!r}")
    with pytest.raises(ValueError, match=message):
        exact_diameter_bfs((2, 2), cap=cap)
    with pytest.raises(ValueError, match=message):
        min_resolution_length(p, p, cap=cap)
    with pytest.raises(ValueError, match=message):
        exact_odd_cover(complete(3), "path", 2, cap=cap)


def test_exact_diameter_many_items_few_vertices_is_quick():
    # 3,000 vertices, each with about 3,000 neighbours, but two tables.
    start = time.perf_counter()
    assert exact_diameter_bfs((2999, 1)) == 1
    assert time.perf_counter() - start < 1


# --- the item-coded BFS, frozen as the reference ------------------------------
#
# Both BFS oracles searched item assignments before they searched contingency
# tables.  These are copies of that search, kept as the reference the table
# search must match.


def _encode(assign: tuple[int, ...], weights: list[int]) -> int:
    return sum(c * w for c, w in zip(assign, weights))


def _neighbours(code: int, n: int, m: int, weights: list[int]) -> list[int]:
    """Codes of the states one cyclic exchange away from the state ``code``.

    A state ``assign`` is coded as ``sum(assign[x] * n**x)``, and
    ``weights[x]`` is ``n**x``.  The exchanges are the cycles of items in
    distinct clusters, each walked once: anchored at its smallest cluster
    c0, every further item taken from a later, unused cluster.  Moving an
    item from cluster c to c' adds ``(c' - c) * n**x`` to the code, so the
    walk carries the code change of its open chain, and closing the chain
    back into c0 costs one addition per neighbour.
    """
    by: list[list[int]] = [[] for _ in range(n)]
    rest = code
    for x in range(m):
        rest, c = divmod(rest, n)
        by[c].append(weights[x])
    occupied = [c for c in range(n) if by[c]]
    out: list[int] = []
    for i, c0 in enumerate(occupied[:-1]):
        later = occupied[i + 1:]
        full = (1 << len(later)) - 1
        # The change each item of a later cluster makes when it closes the cycle.
        closing = [[(c0 - c) * w for w in by[c]] for c in later]
        # (cluster and weight of the open end, code change so far, later clusters used)
        stack = [(c0, w0, code, 0) for w0 in by[c0]]
        while stack:
            c_end, w_end, base, used = stack.pop()
            for j, c in enumerate(later):
                bit = 1 << j
                if used & bit:
                    continue
                moved = base + (c - c_end) * w_end
                out.extend([moved + d for d in closing[j]])
                if used | bit != full:
                    stack.extend([(c, w, moved, used | bit) for w in by[c]])
    return out


def item_diameter_bfs(shape, cap=None):
    """``exact_diameter_bfs`` over coded item assignments."""
    sizes = tuple(int(k) for k in shape)
    if any(k < 0 for k in sizes):
        raise ValueError("cluster sizes must be non-negative")
    count = _vertex_count(sizes, state_cap(cap))
    if count == 1:
        return 0
    n, m = len(sizes), sum(sizes)
    weights = [n**x for x in range(m)]
    start = _encode(tuple(c for c, k in enumerate(sizes) for _ in range(k)), weights)
    seen = {start}
    frontier = [start]
    depth = -1
    while frontier:
        depth += 1
        level = []
        for code in frontier:
            for nb in _neighbours(code, n, m, weights):
                if nb not in seen:
                    seen.add(nb)
                    level.append(nb)
        frontier = level
    if len(seen) != count:
        raise AssertionError(f"BFS reached {len(seen)} of {count} vertices of a connected graph")
    return depth


def item_min_resolution_length(p, q, cap=None):
    """``min_resolution_length`` over coded item assignments."""
    if p.sizes() != q.sizes():
        raise ValueError("p and q must have equal per-cluster sizes")
    if p.n != q.n or p.m != q.m:
        raise ValueError("p and q must share items and clusters")
    if p.assign == q.assign:
        return 0
    limit = state_cap(cap)
    n, m = p.n, p.m
    weights = [n**x for x in range(m)]
    near = {_encode(p.assign, weights): 0}
    far = {_encode(q.assign, weights): 0}
    near_front, far_front = list(near), list(far)
    while near_front and far_front:
        if len(near_front) > len(far_front):
            near, far, near_front, far_front = far, near, far_front, near_front
        depth = near[near_front[0]] + 1
        level = []
        for code in near_front:
            for nb in _neighbours(code, n, m, weights):
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


# --- shortest resolutions by BFS ---------------------------------------------


def test_min_resolution_length_known_values():
    p = Partition(2, (0, 0, 1, 1))
    q = Partition(2, (1, 1, 0, 0))
    assert min_resolution_length(p, p) == 0
    assert min_resolution_length(p, q) == 2
    r = Partition(2, (1, 0, 0, 1))
    assert min_resolution_length(p, r) == 1
    square = gen_lower_bound_instance((2, 2, 2, 2))
    assert min_resolution_length(square.p, square.q) == 3
    # Listing the items in reverse relabels them, which changes no table.
    p_rev, q_rev = (Partition(s.n, s.assign[::-1]) for s in (square.p, square.q))
    assert p_rev != square.p
    assert min_resolution_length(p_rev, q_rev) == 3


def test_min_resolution_length_rejects_mismatch():
    with pytest.raises(ValueError, match="p and q must have equal per-cluster sizes"):
        min_resolution_length(Partition(2, (0, 0, 1)), Partition(2, (0, 1, 1)))


def test_min_resolution_length_respects_cap():
    p = Partition(4, tuple(i // 4 for i in range(16)))
    q = Partition(4, tuple((i // 4 + 1) % 4 for i in range(16)))
    with pytest.raises(TooLarge):
        min_resolution_length(p, q, cap=50)


def test_min_resolution_length_env_cap(monkeypatch):
    p = Partition(4, tuple(i // 4 for i in range(16)))
    q = Partition(4, tuple((i // 4 + 1) % 4 for i in range(16)))
    monkeypatch.setenv("POLYRESOLVE_CAP", "50")
    with pytest.raises(TooLarge):
        min_resolution_length(p, q)


def exchanges(state, n):
    """Every state one cyclic exchange away, from the definition: pick at
    least two clusters, one item in each, and an order on them that starts
    at the smallest cluster (the other rotations are the same exchange);
    each item moves to the cluster of the next one."""
    by = [[x for x, c in enumerate(state) if c == k] for k in range(n)]
    occupied = [c for c in range(n) if by[c]]
    out = set()
    for size in range(2, len(occupied) + 1):
        for clusters in itertools.combinations(occupied, size):
            for rest in itertools.permutations(clusters[1:]):
                order = (clusters[0],) + rest
                for items in itertools.product(*(by[c] for c in order)):
                    nxt = list(state)
                    for i, x in enumerate(items):
                        nxt[x] = order[(i + 1) % size]
                    out.add(tuple(nxt))
    return out


def bfs_distance(p, q):
    """Plain one-directional BFS over assignment tuples."""
    dist = {p.assign: 0}
    frontier = [p.assign]
    while q.assign not in dist:
        assert frontier, "equal shapes are mutually reachable"
        level = []
        for state in frontier:
            for nxt in exchanges(state, p.n):
                if nxt not in dist:
                    dist[nxt] = dist[state] + 1
                    level.append(nxt)
        frontier = level
    return dist[q.assign]


def decode(code, n, m):
    state = []
    for _ in range(m):
        code, c = divmod(code, n)
        state.append(c)
    return tuple(state)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 3), max_size=8))
def test_neighbours_match_exchange_definition(n, raw):
    state = tuple(c % n for c in raw)
    m = len(state)
    weights = [n**x for x in range(m)]
    codes = _neighbours(_encode(state, weights), n, m, weights)
    assert len(codes) == len(set(codes)), "each exchange is listed once"
    assert {decode(c, n, m) for c in codes} == exchanges(state, n)


@st.composite
def equal_shape_pairs(draw):
    n = draw(st.integers(1, 4))
    left = draw(st.lists(st.integers(0, n - 1), max_size=8))
    right = draw(st.permutations(left))
    return Partition(n, tuple(left)), Partition(n, tuple(right))


@settings(max_examples=60, deadline=None)
@given(equal_shape_pairs())
@example((Partition(1, (0, 0, 0)), Partition(1, (0, 0, 0))))
@example((Partition(3, (0, 1, 2, 2)), Partition(3, (0, 1, 2, 2))))
@example((Partition(4, (0, 0, 1, 1, 2, 2, 3, 3)), Partition(4, (1, 1, 0, 0, 3, 3, 2, 2))))
def test_min_resolution_length_matches_plain_bfs(pair):
    p, q = pair
    assert min_resolution_length(p, q) == bfs_distance(p, q)


@settings(max_examples=200, deadline=None)
@given(equal_shape_pairs())
@example((Partition(4, (0, 0, 2, 2, 3)), Partition(4, (2, 3, 0, 2, 0))))
def test_table_neighbours_are_the_tables_of_the_exchanges(pair):
    # The tables one exchange away, less the table itself: an exchange that
    # keeps the table (two items of one q-cluster swapped) is skipped.
    p, q = pair
    if not p.m:
        return
    sizes = p.sizes()
    live = [c for c, k in enumerate(sizes) if k]
    n = len(live)
    b, colw, roww, _ = _table_coding([sizes[c] for c in live])

    def table(state):
        cells = [0] * (n * n)
        for a, c in zip(state, q.assign):
            cells[live.index(a) * n + live.index(c)] += 1
        return tuple(cells)

    code = sum(k << b * i for i, k in enumerate(table(p.assign)))
    listed = {
        tuple(nb >> b * i & (1 << b) - 1 for i in range(n * n))
        for nb in table_neighbours(code, n, b, colw, roww)
    }
    assert listed == {table(s) for s in exchanges(p.assign, p.n)} - {table(p.assign)}


CROSSCHECK_SHAPES = ((3, 3, 1, 1), (3, 2, 2, 1), (2, 2, 2, 2))


def test_table_min_resolution_length_matches_item_bfs(monkeypatch):
    # Random pairs of the benchmark's cross-check shapes, the shapes in turn,
    # then random instances small enough for the item search's default cap:
    # once from no kept map, so each shape's first pair builds its map, and
    # once more with every map kept.
    monkeypatch.setattr(oracles, "_MAPS", OrderedDict())
    rng = random.Random(11)
    pairs = []
    for _ in range(30):
        for shape in CROSSCHECK_SHAPES:
            base = [c for c, k in enumerate(shape) for _ in range(k)]
            left, right = base[:], base[:]
            rng.shuffle(left)
            rng.shuffle(right)
            pairs.append((Partition(len(shape), tuple(left)), Partition(len(shape), tuple(right))))
    pairs += [random_instance(rng, max_items=8, max_clusters=5) for _ in range(60)]
    expected = [item_min_resolution_length(p, q) for p, q in pairs]
    for _ in range(2):
        assert [min_resolution_length(p, q) for p, q in pairs] == expected
    kept = {shape: len(oracles._MAPS[shape]) for shape in CROSSCHECK_SHAPES}
    assert kept == {(3, 3, 1, 1): 92, (3, 2, 2, 1): 154, (2, 2, 2, 2): 282}


@settings(max_examples=200, deadline=None)
@given(equal_shape_pairs(), st.integers(1, 3000))
@example((Partition(4, (0, 0, 1, 1, 2, 2, 3, 3)), Partition(4, (1, 1, 0, 0, 3, 3, 2, 2))), 2520)
@example((Partition(4, (0, 0, 1, 1, 2, 2, 3, 3)), Partition(4, (1, 1, 0, 0, 3, 3, 2, 2))), 2519)
@example((Partition(4, (0, 0, 1, 1, 2, 2, 3, 3)), Partition(4, (1, 1, 0, 0, 3, 3, 2, 2))), 40)
def test_distance_map_and_search_agree_under_any_cap(pair, cap):
    # A shape with at most the cap's vertices reads its map; the search then
    # would have answered too, with the same length.  Past the cap both run
    # the search, and refuse together.
    p, q = pair
    if p.assign == q.assign:
        return
    shape, code = _table_of(p, q)

    def outcome(search, *args):
        try:
            return search(*args)
        except TooLarge:
            return "too large"

    assert outcome(min_resolution_length, p, q, cap) == outcome(_search_to_diagonal, shape, code, cap)
    if vertices(shape) <= cap:
        assert shape in oracles._MAPS


def test_distance_maps_keep_to_their_bound(monkeypatch):
    # Room for 250 tables: the maps of many shapes come and go, least
    # recently used first, and every diameter stays the same.
    shapes = [shape for shape in SMALL_SHAPES if 2 <= len(shape) <= 3 and vertices(shape) <= 3000]
    expected = [exact_diameter_bfs(shape) for shape in shapes]
    monkeypatch.setattr(oracles, "_MAPS", OrderedDict())
    monkeypatch.setattr(oracles, "_MAP_TABLES", 250)
    for _ in range(2):
        for shape, diameter in zip(shapes, expected):
            assert exact_diameter_bfs(shape) == diameter
            assert sum(map(len, oracles._MAPS.values())) <= 250
            assert next(reversed(oracles._MAPS)) == shape
    assert len(oracles._MAPS) < len(shapes)

    # A kept map is used, not rebuilt, and a use makes it the most recently
    # used: (3, 3, 1, 1) stays and (3, 2, 2, 1), used before it, goes.
    oracles._MAPS.clear()
    exact_diameter_bfs((3, 3, 1, 1))  # 92 tables
    built = oracles._MAPS[(3, 3, 1, 1)]
    exact_diameter_bfs((3, 2, 2, 1))  # 154
    exact_diameter_bfs((3, 3, 1, 1))
    exact_diameter_bfs((2, 2, 1))  # 7 more tables make 253
    assert list(oracles._MAPS) == [(3, 3, 1, 1), (2, 2, 1)]
    assert oracles._MAPS[(3, 3, 1, 1)] is built

    # A map larger than the room is answered, and drops no kept map.
    assert exact_diameter_bfs((2, 2, 2, 2)) == 3  # 282 tables
    assert list(oracles._MAPS) == [(3, 3, 1, 1), (2, 2, 1)]


def test_distance_map_refuses_a_search_that_misses_vertices(monkeypatch):
    # The orbits of the tables reached must hold every vertex; a map that
    # fails the check is not kept.
    monkeypatch.setattr(oracles, "_MAPS", OrderedDict())
    monkeypatch.setattr(oracles, "_neighbours", lambda *args: [])
    with pytest.raises(AssertionError, match="BFS reached 1 of 6 vertices"):
        exact_diameter_bfs((2, 2))
    assert not oracles._MAPS


def vertices(shape):
    return math.factorial(sum(shape)) // math.prod(map(math.factorial, shape))


# Shapes of at most four clusters whose polytope has at most 10**4 vertices.
SMALL_SHAPES = [
    shape
    for size in range(1, 5)
    for shape in itertools.combinations_with_replacement(range(1, 13), size)
    if vertices(shape) <= 10**4
]


@st.composite
def small_polytope_shapes(draw):
    shape = draw(st.sampled_from(SMALL_SHAPES))
    return tuple(draw(st.permutations(shape + (0,) * draw(st.integers(0, 2)))))


@settings(max_examples=25, deadline=None)
@given(small_polytope_shapes())
@example((1, 1, 1, 1, 1))
@example((0, 2, 1, 1, 0, 1, 1))
@example((1,) * 6)
def test_table_diameter_matches_item_bfs(shape):
    # The draws keep to four clusters: with five or more the item search
    # takes seconds a shape (15 s for (3, 1, 1, 1, 1, 1)).  The examples
    # add three quick shapes of five and six clusters.
    assert exact_diameter_bfs(shape) == item_diameter_bfs(shape)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_min_resolution_length_within_diameter(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(n, 7)
    base = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
    left, right = base[:], base[:]
    rng.shuffle(left)
    rng.shuffle(right)
    p = Partition(n, tuple(left))
    q = Partition(n, tuple(right))
    dist = min_resolution_length(p, q)
    assert dist <= exact_diameter_bfs(sorted(p.sizes(), reverse=True))


# --- exhaustive odd-cover minima ----------------------------------------------


def test_min_odd_cover_known_values():
    k3 = complete(3)
    assert min_odd_cover_exhaustive(k3, "cycle", 3) == 1
    assert min_odd_cover_exhaustive(k3, "path", 3) == 2
    p3 = simple_graph(3, [(0, 1), (1, 2)])
    assert min_odd_cover_exhaustive(p3, "path", 3) == 1
    assert min_odd_cover_exhaustive(p3, "cycle", 3) is None
    star = simple_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert min_odd_cover_exhaustive(star, "path", 4) == 2


def test_min_odd_cover_k7():
    k7 = complete(7)
    assert min_odd_cover_exhaustive(k7, "path", 5) == 4
    assert min_odd_cover_exhaustive(k7, "cycle", 5) == 3


def test_odd_cover_of_the_empty_graph_is_empty():
    empty = simple_graph(0, [])
    for kind in ("path", "cycle"):
        assert exact_odd_cover(empty, kind, 0) == []
        assert min_odd_cover_exhaustive(empty, kind, 3) == 0


def test_min_odd_cover_budget_exhausted():
    assert min_odd_cover_exhaustive(complete(3), "path", 1) is None


def test_min_odd_cover_guards():
    with pytest.raises(ValueError):
        min_odd_cover_exhaustive(complete(3), "forest", 3)
    p9 = simple_graph(9, [(i, i + 1) for i in range(8)])
    with pytest.raises(TooLarge):
        min_odd_cover_exhaustive(p9, "path", 3)
    assert min_odd_cover_exhaustive(p9, "path", 3, cap=493_200) == 1


def test_min_odd_cover_is_bounded_by_the_state_cap_alone(monkeypatch):
    # K_6 has 975 paths, past a cap of 100 from the environment; K_9 has
    # 62,814 cycles, within the default cap.  No vertex limit comes first.
    monkeypatch.setenv("POLYRESOLVE_CAP", "100")
    with pytest.raises(TooLarge, match="K_6 has more than 100 paths"):
        min_odd_cover_exhaustive(complete(6), "path", 5)
    monkeypatch.delenv("POLYRESOLVE_CAP")
    c9 = simple_graph(9, [(i, (i + 1) % 9) for i in range(9)])
    assert min_odd_cover_exhaustive(c9, "cycle", 1) == 1


def listed_parts(n, kind):
    """Every path or cycle of K_n as a set of edges, from vertex sequences."""
    closed = kind == "cycle"
    parts = set()
    for k in range(3 if closed else 2, n + 1):
        for seq in itertools.permutations(range(n), k):
            hops = zip(seq, seq[1:] + seq[:1] if closed else seq[1:])
            parts.add(frozenset(edge(u, v) for u, v in hops))
    return parts


def test_candidate_parts_counts_paths_and_cycles():
    for n in range(1, 7):
        for kind in ("path", "cycle"):
            assert _candidate_parts(n, kind) == len(listed_parts(n, kind))
    assert _candidate_parts(8, "path") == 54_796
    assert _candidate_parts(9, "path") == 493_200


def test_cover_search_rejects_unknown_kinds():
    for search in (exact_odd_cover, min_odd_cover_exhaustive):
        with pytest.raises(ValueError, match="kind must be 'path' or 'cycle', got 'forest'"):
            search(complete(3), "forest", 3)


def test_cover_cap_is_checked_before_the_cached_table(monkeypatch):
    # K_7 has 6,846 paths.  Once its table is cached, a lower cap must still
    # refuse it, whether passed in or read from the environment.
    assert len(exact_odd_cover(complete(7), "path", 5, cap=6846)) == 4
    with pytest.raises(TooLarge):
        exact_odd_cover(complete(7), "path", 5, cap=6845)
    monkeypatch.setenv("POLYRESOLVE_CAP", "6845")
    with pytest.raises(TooLarge):
        exact_odd_cover(complete(7), "path", 5)


def test_part_table_lists_every_part_once():
    for n in range(1, 7):
        for kind in ("path", "cycle"):
            table = _part_table(n, kind)
            assert table.edges == tuple(sorted(table.index))
            decoded = {
                frozenset(e for i, e in enumerate(table.edges) if mask >> i & 1)
                for mask in table.parts
            }
            assert decoded == listed_parts(n, kind)
            for i, through in enumerate(table.by_edge):
                assert list(through) == sorted(m for m in table.parts if m >> i & 1)


def two_stack_part_table(n, kind):
    """``_part_table`` as it was built before it listed the vertex sequences
    of ``itertools.permutations``: two depth-first stacks of (vertex, used
    mask, edge mask[, second vertex]) tuples.  Kept as the reference the
    permutation-built table must equal, field for field."""
    edges = tuple(edge(u, v) for u in range(n) for v in range(u + 1, n))
    bit = [[0] * n for _ in range(n)]
    vbits = [0] * n
    for i, (u, v) in enumerate(edges):
        bit[u][v] = bit[v][u] = 1 << i
        vbits[u] |= 1 << i
        vbits[v] |= 1 << i
    masks = set()
    if kind == "path":
        for start in range(n):
            stack = [(start, 1 << start, 0)]
            while stack:
                last, used, mask = stack.pop()
                if start < last:
                    masks.add(mask)
                row = bit[last]
                for w in range(n):
                    if not used >> w & 1:
                        stack.append((w, used | 1 << w, mask | row[w]))
    else:
        for v0 in range(n):
            close = bit[v0]
            stack = [(w, 1 << v0 | 1 << w, close[w], w) for w in range(v0 + 1, n)]
            while stack:
                last, used, mask, second = stack.pop()
                if used.bit_count() >= 3 and second < last:
                    masks.add(mask | close[last])
                row = bit[last]
                for w in range(v0 + 1, n):
                    if not used >> w & 1:
                        stack.append((w, used | 1 << w, mask | row[w], second))
    by_edge = [[] for _ in edges]
    for mask in sorted(masks):
        rest = mask
        while rest:
            low = rest & -rest
            by_edge[low.bit_length() - 1].append(mask)
            rest ^= low
    return (edges, {e: i for i, e in enumerate(edges)}, tuple(vbits), frozenset(masks),
            tuple(map(tuple, by_edge)))


def test_part_table_equals_the_two_stack_build():
    # Every table the default cap admits: paths up to K_8, cycles up to K_9.
    for kind, top in (("path", 8), ("cycle", 9)):
        for n in range(top + 1):
            table = _part_table(n, kind)
            for field, got, want in zip(table._fields, table, two_stack_part_table(n, kind)):
                assert got == want, (n, kind, field)
            assert _candidate_parts(n, kind) == len(table.parts), (n, kind)


def frozen_exact_odd_cover(g, kind, budget, cap=None):
    """``exact_odd_cover`` as it was before its part tables were cached:
    the table is rebuilt on every call and the last part is a recursive
    call.  Kept as the reference the cached search must match."""
    n = g.n
    limit = state_cap(cap)
    if _candidate_parts(n, kind, limit) > limit:
        raise TooLarge(f"K_{n} has more than {limit} {kind}s to search, the cap")
    kn = [edge(u, v) for u in range(n) for v in range(u + 1, n)]
    index = {e: i for i, e in enumerate(kn)}
    vbits = [0] * n
    for i, (u, v) in enumerate(kn):
        vbits[u] |= 1 << i
        vbits[v] |= 1 << i
    target = 0
    for e in g.edges:
        target |= 1 << index[e]

    def decode(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(kn[low.bit_length() - 1])
            mask ^= low
        return out

    def odd_vertices(mask):
        return sum(1 for w in range(n) if (mask & vbits[w]).bit_count() % 2)

    masks = set()
    if kind == "path":
        for start in range(n):
            stack = [(start, 1 << start, 0)]
            while stack:
                last, used, mask = stack.pop()
                if start < last:
                    masks.add(mask)
                for w in range(n):
                    if not used >> w & 1:
                        stack.append((w, used | 1 << w, mask | 1 << index[edge(last, w)]))
        max_part = n - 1
    else:
        for v0 in range(n):
            stack = [
                (w, 1 << v0 | 1 << w, 1 << index[edge(v0, w)], w)
                for w in range(v0 + 1, n)
            ]
            while stack:
                last, used, mask, second = stack.pop()
                if used.bit_count() >= 3 and second < last:
                    masks.add(mask | 1 << index[edge(last, v0)])
                for w in range(v0 + 1, n):
                    if not used >> w & 1:
                        stack.append((w, used | 1 << w, mask | 1 << index[edge(last, w)], second))
        max_part = n

    by_edge = [[] for _ in kn]
    for mask in sorted(masks):
        for e in decode(mask):
            by_edge[index[e]].append(mask)

    dead = set()

    def search(remaining, depth, acc):
        if not remaining:
            return True
        if depth == 0:
            return False
        if remaining.bit_count() > depth * max_part:
            return False
        stray = odd_vertices(remaining)
        if kind == "path" and stray > 2 * depth:
            return False
        if kind == "cycle" and stray:
            return False
        if depth == 1:
            if remaining in masks and remaining not in acc:
                acc.append(remaining)
                return True
            return False
        if (remaining, depth) in dead:
            return False
        low = remaining & -remaining
        for mask in by_edge[low.bit_length() - 1]:
            if mask in acc:
                continue
            acc.append(mask)
            if search(remaining ^ mask, depth - 1, acc):
                return True
            acc.pop()
        dead.add((remaining, depth))
        return False

    if kind == "cycle" and odd_vertices(target):
        return None
    for depth in range(budget + 1):
        acc = []
        if search(target, depth, acc):
            return [frozenset(decode(mask)) for mask in acc]
    return None


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 6))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return simple_graph(n, draw(st.lists(st.sampled_from(pool), unique=True)) if pool else [])


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.sampled_from(["path", "cycle"]), st.integers(0, 4))
def test_cached_cover_search_matches_the_frozen_search(g, kind, budget):
    # All draws run in one process, so later draws reuse cached tables.
    assert exact_odd_cover(g, kind, budget) == frozen_exact_odd_cover(g, kind, budget)


def test_part_table_built_once_per_order_and_kind():
    rng = random.Random(7)
    _part_table.cache_clear()
    for _ in range(20):
        g = simple_graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)
                             if rng.random() < 0.5])
        min_odd_cover_exhaustive(g, "path", 4)
    assert _part_table.cache_info().misses == 1


def test_cover_search_cuts_nodes_past_the_degree_bound():
    # d parts have degree at most 2d at a vertex.  This graph's optimum is 4
    # paths; without the degree bound, refusing budget 3 took 6.5 s and
    # budget 7 (its constructive cover's size) 42.7 s more.
    g = simple_graph(8, [(0, 1), (0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (1, 6), (2, 3),
                         (2, 4), (2, 6), (3, 5), (3, 6), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)])
    start = time.perf_counter()
    assert exact_odd_cover(g, "path", 3) is None
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    found = exact_odd_cover(g, "path", 7)
    assert time.perf_counter() - start < 1
    assert len(found) == 4
    xor = frozenset()
    for part in found:
        xor ^= part
    assert xor == g.edges


def test_bounded_cover_search_guard():
    p9 = simple_graph(9, [(i, i + 1) for i in range(8)])
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        exact_odd_cover(p9, "path", 3)
    with pytest.raises(TooLarge):
        exact_odd_cover(simple_graph(40, [(0, 1)]), "cycle", 3)
    with pytest.raises(TooLarge):
        exact_odd_cover(complete(7), "path", 5, cap=6845)
    assert time.perf_counter() - start < 5
    assert len(exact_odd_cover(complete(7), "path", 5, cap=6846)) == 4


# --- unified certificate checker ----------------------------------------------


def test_verify_certificate_resolution_roundtrip():
    p, q = gen_pp36_instance()
    r = resolve(p, q)
    report = verify_certificate((p, q), r)
    assert report.passed and report.detail == "ok"
    assert report.check == "resolution"


def test_verify_certificate_wrong_start():
    p = Partition(2, (0, 0, 1, 1))
    q = Partition(2, (1, 1, 0, 0))
    r = resolve(p, q)
    report = verify_certificate((q, q), r)
    assert not report.passed
    assert report.detail == "resolution starts at the wrong partition"


def test_verify_certificate_wrong_end():
    p = Partition(2, (0, 0, 1, 1))
    q = Partition(2, (1, 1, 0, 0))
    report = verify_certificate((p, q), Resolution(p, ()))
    assert not report.passed


def test_verify_certificate_cover_pass_and_fail():
    k5 = complete(5)
    cert = cycle_odd_cover_delta4(k5)
    assert verify_certificate(k5, cert).passed

    # Same parts against the wrong graph: the xor no longer matches.
    c5 = simple_graph(5, cyc(0, 1, 2, 3, 4))
    report = verify_certificate(c5, cert)
    assert not report.passed
    assert report.detail == "symmetric difference differs from the graph"


def test_verify_certificate_cover_details():
    k3 = complete(3)
    tri = frozenset(edge(u, v) for u, v in cyc(0, 1, 2))
    bad_shape = OddCoverCert("path", (tri,))
    assert verify_certificate(k3, bad_shape).detail == "part 0 not a path"

    dup = OddCoverCert("cycle", (tri, tri))
    assert verify_certificate(k3, dup).detail == "parts are not pairwise distinct"


def test_verify_certificate_forest_details():
    k3 = complete(3)
    good = verify_certificate(k3, OddCoverCert("linear_forest", (
        frozenset({edge(0, 1)}), frozenset({edge(0, 2)}), frozenset({edge(1, 2)}),
    )))
    assert good.passed and good.check == "linear_forest"

    short = OddCoverCert("linear_forest", (frozenset({edge(0, 1)}),))
    assert verify_certificate(k3, short).detail == "expected 3 parts, got 1"

    shared = OddCoverCert("linear_forest", (
        frozenset({edge(0, 1)}), frozenset({edge(0, 1)}), frozenset({edge(1, 2)}),
    ))
    assert verify_certificate(k3, shared).detail == "parts 0 and 1 share an edge"

    partial = OddCoverCert("linear_forest", (
        frozenset({edge(0, 1)}), frozenset({edge(0, 2)}), frozenset(),
    ))
    assert verify_certificate(k3, partial).detail == "union differs from the graph"


def test_verify_certificate_refuses_a_walk_past_its_bound():
    # Three swaps are a valid walk from (0, 1) to (1, 0), whose bound is 2.
    p, q = Partition(2, (0, 1)), Partition(2, (1, 0))
    report = verify_certificate((p, q), Resolution(p, (CycleSeq((0, 1)),) * 3))
    assert not report.passed
    assert report.detail == "3 steps exceed the bound 2"


def test_verify_certificate_refuses_a_cover_past_its_bound():
    # K3 xors from its three one-edge paths; its bound is ceil(3*2/4) = 2.
    k3 = complete(3)
    singles = OddCoverCert("path", tuple(frozenset({e}) for e in sorted(k3.edges)))
    report = verify_certificate(k3, singles)
    assert not report.passed
    assert report.detail == "3 paths exceed the bound 2"


def test_verify_certificate_unknown_type():
    report = verify_certificate(None, object())
    assert not report.passed
    assert report.detail == "unsupported certificate type object"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_verify_certificate_accepts_generated_covers(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = simple_graph(n, rng.sample(pool, rng.randint(0, len(pool))))
    report = verify_certificate(g, path_odd_cover_general(g))
    assert report.passed, report.detail
