"""Tests for resolution construction, hard instances, and lower bounds."""

from __future__ import annotations

import importlib
import json
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from polyresolve import cli
from polyresolve.graphs import Digraph
from polyresolve.jsonio import emit_instance
from polyresolve.oracles import min_resolution_length
from polyresolve.perms import (
    CycleSeq,
    Partition,
    Permutation,
    Resolution,
    _walk,
    cdg,
    check_resolution,
    cycle_is_p_cycle,
    is_p_balanced,
    resolution_from_decomposition,
    two_largest,
    verify_resolution,
)
from polyresolve.polycycles import (
    balanced_permutation_factorization,
    directed_polycycle_decomposition,
)
from polyresolve.resolve import (
    _color_matchings,
    _progress_lower_bound,
    gen_lower_bound_instance,
    gen_pp36_instance,
    pcycles_from_balanced,
    pcycles_from_pair,
    resolve,
)

from test_exhaustive_small import _pair as _table_pair, _shapes, _tables
from test_perms import compose, cycle_perm

# The package re-exports the function ``resolve`` under the module's name.
resolve_module = importlib.import_module("polyresolve.resolve")


def _random_shape_pair(rng: random.Random) -> tuple[Partition, Partition]:
    n = rng.randint(1, 6)
    m = rng.randint(n, 14)
    base = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
    left = base[:]
    rng.shuffle(left)
    # Relabel clusters of a shuffled copy so both sides share the multiset
    # of cluster sizes without sharing the assignment itself.
    right = base[:]
    rng.shuffle(right)
    perm = list(range(n))
    rng.shuffle(perm)
    right = [perm[c] for c in right]
    p = Partition(n, tuple(left))
    q = Partition(n, tuple(right))
    if p.sizes() == q.sizes():
        return p, q
    return _random_shape_pair(rng)


# --- resolve -----------------------------------------------------------------


def test_resolve_identity_is_empty():
    p = Partition(3, (0, 1, 2, 0))
    r = resolve(p, p)
    assert r.taus == ()
    assert r.replay()[-1] == p


def test_resolve_single_swap():
    p = Partition(2, (0, 0, 1, 1))
    q = Partition(2, (1, 1, 0, 0))
    r = resolve(p, q)
    assert r.replay()[-1] == q
    assert verify_resolution(p, q, r.taus)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_resolve_meets_bound_and_verifies(seed):
    rng = random.Random(seed)
    p, q = _random_shape_pair(rng)
    r = resolve(p, q)
    assert r.start == p
    assert r.replay()[-1] == q
    assert verify_resolution(p, q, r.taus)
    shape = sorted(p.sizes(), reverse=True)
    k1 = shape[0] if shape else 0
    k2 = shape[1] if len(shape) > 1 else 0
    assert len(r.taus) <= k1 + (k2 + 1) // 2


def test_resolve_rejects_shape_mismatch():
    p = Partition(2, (0, 0, 1))
    q = Partition(2, (0, 1, 1))
    with pytest.raises(ValueError, match="p and q must have equal per-cluster sizes"):
        resolve(p, q)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_resolve_two_largest_clusters_bound(seed):
    # With every cluster of size <= 2 the guarantee collapses to three moves.
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    base = []
    for c in range(n):
        base.extend([c] * rng.randint(1, 2))
    left = base[:]
    right = base[:]
    rng.shuffle(left)
    rng.shuffle(right)
    p = Partition(n, tuple(left))
    q = Partition(n, tuple(right))
    r = resolve(p, q)
    assert len(r.taus) <= 3
    assert r.replay()[-1] == q


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_resolve_never_beats_exact_optimum(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(n, 8)
    base = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
    left, right = base[:], base[:]
    rng.shuffle(left)
    rng.shuffle(right)
    p = Partition(n, tuple(left))
    q = Partition(n, tuple(right))
    optimum = min_resolution_length(p, q)
    r = resolve(p, q)
    assert optimum <= len(r.taus)


# --- balanced splits ---------------------------------------------------------


def test_pcycles_from_balanced_rejects_unbalanced():
    # Items 0 and 1 share a cluster, so the 4-cycle through them is not
    # balanced.
    p = Partition(2, (0, 0, 1, 1))
    pi = Permutation((1, 2, 3, 0))
    with pytest.raises(ValueError, match="permutation is not p-balanced"):
        pcycles_from_balanced(p, pi)


def test_pcycles_from_balanced_two_factors():
    p = Partition(4, (0, 1, 2, 3))
    pi = Permutation((1, 0, 3, 2))
    s1, s2 = pcycles_from_balanced(p, pi)
    assert cycle_is_p_cycle(s1, p) and cycle_is_p_cycle(s2, p)
    assert compose(cycle_perm(p.m, s2.items), cycle_perm(p.m, s1.items)) == pi


def _cycle_seqs(pi: Permutation) -> list[CycleSeq]:
    return [CycleSeq(c) for c in pi.cycles()]


def test_pcycles_from_pair_unbalanced_composite():
    # pi1 moves items 0 (cluster 0) and 2 (cluster 1); pi2 moves items
    # 1 (cluster 0) and 4 (cluster 2).  Their product touches cluster 0
    # twice, so the balanced split does not apply and three cycles appear.
    p = Partition(3, (0, 0, 1, 1, 2, 2))
    pi1 = Permutation((2, 1, 0, 3, 4, 5))
    pi2 = Permutation((0, 4, 2, 3, 1, 5))
    parts = pcycles_from_pair(p, pi1, pi2)
    assert len(parts) == 3
    for s in parts:
        assert cycle_is_p_cycle(s, p)
    got = resolution_from_decomposition(p, parts).replay()[-1]
    want = resolution_from_decomposition(p, _cycle_seqs(pi1) + _cycle_seqs(pi2)).replay()[-1]
    assert got == want


def test_pcycles_from_pair_balanced_composite():
    p = Partition(4, (0, 1, 2, 3))
    pi1 = Permutation((1, 0, 2, 3))
    pi2 = Permutation((0, 1, 3, 2))
    parts = pcycles_from_pair(p, pi1, pi2)
    assert len(parts) <= 2
    got = resolution_from_decomposition(p, parts).replay()[-1]
    want = resolution_from_decomposition(p, _cycle_seqs(pi1) + _cycle_seqs(pi2)).replay()[-1]
    assert got == want


def test_resolve_refuses_a_wrong_pair_split(monkeypatch, tmp_path, capsys):
    # The pair split's product is checked only through the walk: swapping
    # two items of sigma2 keeps every step a p-cycle but misses q, which
    # check_resolution refuses, and the CLI reports it with exit 1.
    p = Partition(3, (0, 1, 2, 0, 1, 2, 0, 1, 2))
    q = Partition(3, (1, 2, 0, 1, 2, 0, 0, 1, 2))
    split = resolve_module._pair

    def with_swapped_sigma2(*args):
        sigma1, sigma2, *rest = split(*args)
        a, b, *tail = sigma2
        return [sigma1, (b, a, *tail), *rest]

    monkeypatch.setattr(resolve_module, "_pair", with_swapped_sigma2)
    with pytest.raises(AssertionError, match="^final partition differs from the target$"):
        resolve(p, q)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(emit_instance((p, q))))
    assert cli.main(["resolve", "--instance", str(inst)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["pass"], report["detail"]) == (False, "final partition differs from the target")


@pytest.mark.parametrize("assign, k, cycle, detail", [
    ((0, 0, 0, 1, 1, 1), 0, (0, 1), "step 0 revisits a cluster"),
    ((0, 0, 0, 1, 1, 1), 0, (0, 6), "step 0 names an unknown item"),
    ((0, 0, 1, 1), 2, (3, 1, 5), "step 1 names an unknown item"),
    ((0, 0, 1, 1), 2, (3, 2), "step 1 revisits a cluster"),
], ids=["revisit", "unknown", "third unknown", "third revisit"])
def test_the_shortcut_merges_no_faulty_step(monkeypatch, assign, k, cycle, detail):
    # A faulty first cycle keeps a pair split's three cycles.  On
    # (0, 0, 1, 1) the first two merge with a swap, which relabels a
    # faulty third cycle into one as faulty.  The one check still refuses
    # the step the faulty cycle makes.
    split = resolve_module._pair

    def with_fault(*args):
        cycles = split(*args)
        cycles[k] = cycle
        return cycles

    monkeypatch.setattr(resolve_module, "_pair", with_fault)
    with pytest.raises(AssertionError, match=f"^{detail}$"):
        resolve(Partition(2, assign), Partition(2, tuple(1 - c for c in assign)))


def test_pcycles_from_pair_rejects_shared_support():
    p = Partition(4, (0, 1, 2, 3))
    pi = Permutation((1, 0, 2, 3))
    with pytest.raises(ValueError, match="permutations must have disjoint supports"):
        pcycles_from_pair(p, pi, pi)


# --- the item-tuple path against the composition of the public steps ------


def _frozen_factorize(p, q):
    """``balanced_permutation_factorization`` as it built its factors
    before ``resolve`` ran on item tuples: a ``Permutation`` per class."""
    if p == q:
        return [], []
    d = cdg(p, q)
    decomp = directed_polycycle_decomposition(d, t=two_largest(p.sizes())[1])
    n_matching = len(decomp.parts) - decomp.cycle_suffix_len
    pis, sigmas = [], []
    for part in decomp.parts[:n_matching]:
        if part:
            succ = {d.tails[a]: a for a in part}
            pis.append(Permutation.from_moved(p.m, {a: succ[d.heads[a]] for a in part}))
    for part in decomp.parts[n_matching:]:
        if part:
            succ = {d.tails[a]: a for a in part}
            seq = [min(part)]
            a = succ[d.heads[seq[0]]]
            while a != seq[0]:
                seq.append(a)
                a = succ[d.heads[a]]
            sigmas.append(CycleSeq(tuple(seq)))
    return sigmas, pis


def _frozen_balanced(p, pi):
    assert is_p_balanced(pi, p)
    cycles = pi.cycles()
    return (CycleSeq(tuple(x for c in cycles for x in c)),
            CycleSeq(tuple(c[0] for c in reversed(cycles))))


def _frozen_pair(p, pi1, pi2):
    """``pcycles_from_pair`` as it was written on ``Permutation`` objects,
    with a composite permutation deciding the balanced case."""
    assert not pi1.moved.keys() & pi2.moved.keys()
    composite = Permutation.from_moved(p.m, pi1.moved | pi2.moved)
    if is_p_balanced(composite, p):
        return [s for s in _frozen_balanced(p, composite) if len(s) >= 2]
    assign = p.assign
    moved_out_of = {assign[it]: it for it in pi2.moved}
    x = min(it for it in pi1.moved if assign[it] in moved_out_of)
    y = moved_out_of[assign[x]]
    y_next = pi2.moved[y]
    c_cycles = pi1.cycles()
    cx = next(c for c in c_cycles if x in c)
    cs = [cx] + [c for c in c_cycles if c is not cx]
    d_cycles = pi2.cycles()
    dy = next(c for c in d_cycles if y in c)
    ds = [c for c in d_cycles if c is not dy] + [dy]
    m1 = [tuple(sorted(map(assign.__getitem__, c))[:2]) for c in cs]
    m2 = [tuple(sorted(map(assign.__getitem__, c))[:2]) for c in ds[:-1]]
    m2.append(tuple(sorted((assign[y], assign[y_next]))))
    color = _color_matchings(m1, m2)
    side = color.get(assign[x], 0)

    def rotate(c, lead):
        i = c.index(lead)
        return c[i:] + c[:i]

    xs = [rotate(cx, x)] + [
        rotate(c, min(it for it in c if color.get(assign[it], 0) == side)) for c in cs[1:]]
    ys = [rotate(c, min(it for it in c if color.get(assign[it], 0) != side)) for c in ds[:-1]]
    ys.append(rotate(dy, y_next))
    d_flat = [it for c in ys for it in c]
    leaders = [c[0] for c in reversed(ys)] + [c[0] for c in reversed(xs[1:])]
    sigmas = [CycleSeq(tuple(it for c in xs for it in c)), CycleSeq(tuple(d_flat[:-1] + [x])),
              CycleSeq(tuple(leaders + [y]))]
    assert all(cycle_is_p_cycle(s, p) for s in sigmas)
    return sigmas


def _frozen_walk(p, sigmas):
    """``resolution_from_decomposition`` as it was written: each step the
    conjugate of its cycle by the product of the cycles before it."""
    inv, taus = {}, []
    for s in sigmas:
        assert cycle_is_p_cycle(s, p)
        t_items = [inv.get(x, x) for x in s.items]
        taus.append(CycleSeq(tuple(t_items)))
        inv.update(zip((*s.items[1:], *s.items[:1]), t_items))
    return tuple(taus)


def _exchange(s, t):
    """The one exchange that takes partition s to t: empty when they are
    equal, None when they are not adjacent.  They are adjacent when the
    non-loop arcs of their difference digraph form one simple cycle; item
    j then moves to the cluster of the item whose arc starts at j's head."""
    d = cdg(s, t)
    arcs = {j: (u, v) for j, (u, v) in enumerate(zip(d.tails, d.heads)) if u != v}
    by_tail = {u: j for j, (u, _) in arcs.items()}
    if len(by_tail) != len(arcs):
        return None
    cycle = []
    j = min(arcs, default=None)
    while j is not None and j not in cycle:
        cycle.append(j)
        j = by_tail.get(arcs[j][1])
    return CycleSeq(tuple(cycle)) if len(cycle) == len(arcs) else None


def _frozen_shortcut(p, taus):
    """The shortcut as its rule reads, on replayed partitions: left to
    right, a step and the one after it become the one exchange between
    the state before the first and the state after the second, or go
    when those states are equal; a merged step is tried against the
    next."""
    kept = []   # (step, the state before it)
    state = p
    for tau in taus:
        after = state.apply(tau)
        step = _exchange(kept[-1][1], after) if kept else None
        if step is None:
            kept.append((tau, state))
        else:
            before = kept.pop()[1]
            if step.items:
                kept.append((step, before))
        state = after
    return tuple(step for step, _ in kept)


def _composition(p, q, factorize, pair, balanced, walk):
    """The steps of ``resolve`` as the composition of its three steps."""
    sigmas, pis = factorize(p, q)
    parts = []
    for i in range(0, len(pis) - 1, 2):
        parts.extend(pair(p, pis[i], pis[i + 1]))
    if len(pis) % 2:
        parts.extend(balanced(p, pis[-1]))
    parts = [s for s in parts + list(sigmas) if len(s) >= 2]
    return walk(p, parts)


def _public_walk(p, q):
    """The walk of the public steps, before the shortcut."""
    return _composition(p, q, balanced_permutation_factorization, pcycles_from_pair,
                        pcycles_from_balanced,
                        lambda p, parts: resolution_from_decomposition(p, parts).taus)


def _assert_same_taus(p, q):
    taus = resolve(p, q).taus
    frozen = _composition(p, q, _frozen_factorize, _frozen_pair, _frozen_balanced, _frozen_walk)
    assert taus == _frozen_shortcut(p, frozen)
    assert taus == _frozen_shortcut(p, _public_walk(p, q))


@st.composite
def _equal_shape_pairs(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    base = [c for c, k in enumerate(sizes) for _ in range(k)]
    return (Partition(len(sizes), tuple(draw(st.permutations(base)))),
            Partition(len(sizes), tuple(draw(st.permutations(base)))))


@settings(max_examples=300, deadline=None)
@given(_equal_shape_pairs())
def test_resolve_matches_the_frozen_composition(pair):
    _assert_same_taus(*pair)


@settings(max_examples=200, deadline=None)
@given(_equal_shape_pairs())
def test_the_shortcut_leaves_no_two_steps_that_make_one_exchange(pair):
    p, q = pair
    taus = resolve(p, q).taus
    assert len(taus) <= len(_public_walk(p, q))
    assert check_resolution(p, q, taus) is None
    states = Resolution(p, taus).replay()
    assert [i for i in range(len(taus) - 1) if _exchange(states[i], states[i + 2])] == []


def test_the_shortcut_merges_a_pair_splits_first_two_steps():
    # Two items swap each way between two clusters.  The first two steps
    # move item 0 to cluster 0 and item 3 to cluster 1, and item 2 comes
    # back, which one swap does.
    p = Partition(2, (1, 1, 0, 0))
    q = Partition(2, (0, 0, 1, 1))
    assert [tau.items for tau in _public_walk(p, q)] == [(0, 2), (2, 3), (1, 2)]
    assert [tau.items for tau in resolve(p, q).taus] == [(0, 3), (1, 2)]


@pytest.mark.parametrize("n, assign, split, merged", [
    (3, (2, 0, 1, 0, 1), [(4, 1), (0, 4), (0, 2)], [(4, 1, 0), (0, 2)]),
    (2, (0, 0, 1, 1), [(0, 2), (3, 0), (3, 1)], [(0, 3), (2, 1)]),
    (3, (2, 0, 0, 2, 1), [(0, 1, 4), (2, 0), (2, 3)], [(0, 1, 4), (2, 3)]),
    (3, (0, 1, 2, 0, 1, 2), [(0, 1), (2, 3), (1, 2)], [(0, 1), (2, 3, 1)]),
], ids=["first two", "swap", "last two", "conjugated"])
def test_a_merge_walks_as_the_shortcut_of_the_splits_walk(n, assign, split, merged):
    # The swap case drops item 2, which returns to its cluster, and
    # relabels the third cycle by the swap of items 2 and 3.  The walk
    # conjugates a merge of the last two by the first cycle.
    p = Partition(n, assign)
    assert resolve_module._merged(n, assign, split) == merged
    assert _walk(merged) == _frozen_shortcut(p, _walk(split))


# The pairs of m <= 6 items up to symmetry, one per contingency table.
TABLES_UP_TO_6 = 1281


def test_resolve_matches_the_frozen_composition_on_every_table():
    count = 0
    for m in range(1, 7):
        for sizes in _shapes(m, m):
            for table in _tables(sizes):
                _assert_same_taus(*_table_pair(sizes, table))
                count += 1
    assert count == TABLES_UP_TO_6


@st.composite
def _balanced_pairs(draw):
    """A partition and two p-balanced permutations with disjoint supports.
    Cycles of 2 or 3 items, one item per cluster, go to either; then pi2
    may take more such cycles on clusters it does not touch yet."""
    n = draw(st.integers(2, 12))
    assign = [*range(n), *draw(st.lists(st.integers(0, n - 1), max_size=2 * n))]
    moved = ({}, {})
    for owners in (st.integers(0, 1), st.just(1)):
        taken = {assign[it] for it in moved[1]}
        first = {}
        for it in draw(st.permutations(range(len(assign)))):
            if it not in moved[0] and it not in moved[1] and assign[it] not in taken:
                first.setdefault(assign[it], it)
        items = list(first.values())
        for k, owner in draw(st.lists(st.tuples(st.integers(2, 3), owners), min_size=1,
                                      max_size=5)):
            cycle, items = items[:k], items[k:]
            if len(cycle) > 1:
                moved[owner].update(zip(cycle, cycle[1:] + cycle[:1]))
    return Partition(n, tuple(assign)), *(Permutation.from_moved(len(assign), mv) for mv in moved)


@settings(max_examples=300, deadline=None)
@given(_balanced_pairs())
def test_pair_splits_match_the_frozen_steps(drawn):
    # Balanced composites with three or more cycles are rare inside
    # resolve, and only there does the order of the cycles show.
    p, pi1, pi2 = drawn
    assert pcycles_from_pair(p, pi1, pi2) == _frozen_pair(p, pi1, pi2)
    assert pcycles_from_balanced(p, pi1) == _frozen_balanced(p, pi1)


def test_resolve_builds_no_permutation_and_counts_no_degrees(monkeypatch):
    # The factorization hands each class to the pair split as its cycles,
    # and p's cluster sizes stand in for the cdg's degrees.
    calls = Counter()
    for owner, name in ((Permutation, "__post_init__"), (Digraph, "out_degrees"),
                        (Digraph, "in_degrees")):
        def counting(*args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    rng = random.Random(23)
    for sizes in ([2] * 1500, [50] * 10):
        base = [c for c, k in enumerate(sizes) for _ in range(k)]
        left, right = base[:], base[:]
        rng.shuffle(left)
        rng.shuffle(right)
        p, q = Partition(len(sizes), tuple(left)), Partition(len(sizes), tuple(right))
        assert resolve(p, q).replay()[-1] == q
    assert calls == {}
    Permutation.from_moved(3, {})
    assert calls == {"__post_init__": 1}


def test_resolve_builds_no_digraph(monkeypatch):
    # The factorization hands p's and q's assignments to the decomposition
    # as its arcs, so no label is checked again past ``Partition``'s check.
    # Clusters of 2 run no matcher, of 50 the matcher rounds, and (3,2,2,1)
    # the extraction of a cycle through its one cluster above k2.
    rng = random.Random(31)
    pairs = []
    for sizes in ([2] * 1500, [50] * 10, [3, 2, 2, 1]):
        base = [c for c, k in enumerate(sizes) for _ in range(k)]
        left, right = base[:], base[:]
        rng.shuffle(left)
        rng.shuffle(right)
        pairs.append((Partition(len(sizes), tuple(left)), Partition(len(sizes), tuple(right))))
    assert all(p != q for p, q in pairs)
    want = [resolve(p, q).taus for p, q in pairs]

    def refuse(self):
        raise AssertionError("resolve built a Digraph")

    monkeypatch.setattr(Digraph, "__post_init__", refuse)
    assert [resolve(p, q).taus for p, q in pairs] == want


def test_resolve_counts_each_partitions_sizes_once(monkeypatch):
    # The shape check counts p's and q's sizes, and check_resolution's
    # length bound reads p's again from the same partition.
    counted = []
    sizes = Partition.__dict__["_sizes"]
    count = sizes.func
    monkeypatch.setattr(sizes, "func", lambda part: counted.append(part) or count(part))
    rng = random.Random(29)
    for shape in ([2] * 1500, [50] * 10):
        base = [c for c, k in enumerate(shape) for _ in range(k)]
        left, right = base[:], base[:]
        rng.shuffle(left)
        rng.shuffle(right)
        p, q = Partition(len(shape), tuple(left)), Partition(len(shape), tuple(right))
        counted.clear()
        resolve(p, q)
        assert list(map(id, counted)) == [id(p), id(q)]


# --- matching 2-coloring -----------------------------------------------------


def test_two_color_matchings_straddles_every_edge():
    m1 = [(0, 1), (2, 3)]
    m2 = [(1, 2), (3, 4)]
    color = _color_matchings(m1, m2)
    # Cluster 5 is on no edge, so it gets no colour.
    assert set(color) == {0, 1, 2, 3, 4}
    assert set(color.values()) <= {0, 1}
    for u, v in m1 + m2:
        assert color[u] != color[v]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_two_color_matchings_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    verts = list(range(n))
    rng.shuffle(verts)
    m1 = [tuple(sorted(verts[i : i + 2])) for i in range(0, n - 1, 2)]
    m1 = [e for e in m1 if rng.random() < 0.7]
    rng.shuffle(verts)
    m2 = [tuple(sorted(verts[i : i + 2])) for i in range(0, n - 1, 2)]
    m2 = [e for e in m2 if rng.random() < 0.7]
    color = _color_matchings(m1, m2)
    for u, v in m1 + m2:
        assert color[u] != color[v]


# --- hard instances and lower bounds ----------------------------------------


def test_lower_bound_instance_even_family():
    inst = gen_lower_bound_instance((4, 3, 2, 1))
    assert inst.family == "even2cycles"
    assert inst.p.sizes() == inst.q.sizes()
    # Pairs (0,1) and (2,3) exchange 3 and 1 items: 8 displaced, 10 items.
    displaced = sum(1 for a, b in zip(inst.p.assign, inst.q.assign) if a != b)
    assert displaced == 8
    assert inst.bound == _progress_lower_bound(inst.p, inst.q)
    assert inst.bound == -(-4 * displaced // (3 * 4))


def test_lower_bound_instance_odd_family():
    inst = gen_lower_bound_instance((3, 2, 2, 1, 1))
    assert inst.family == "odd2cycles3cycle"
    displaced = sum(1 for a, b in zip(inst.p.assign, inst.q.assign) if a != b)
    # Pair (0,1) swaps 2+2; clusters 2,3,4 cycle 1 item each.
    assert displaced == 7
    assert inst.bound == -(-4 * displaced // (3 * 5 + 1))


def test_lower_bound_instance_rejects_bad_shapes():
    with pytest.raises(ValueError, match="need at least 4 clusters"):
        gen_lower_bound_instance((3, 2, 1))
    with pytest.raises(ValueError, match="cluster sizes must be non-increasing and non-negative"):
        gen_lower_bound_instance((1, 2, 3, 4))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_lower_bound_instances_are_certified(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    shape = sorted((rng.randint(1, 3) for _ in range(n)), reverse=True)
    inst = gen_lower_bound_instance(shape)
    r = resolve(inst.p, inst.q)
    assert inst.bound <= len(r.taus)
    if sum(shape) <= 9:
        assert inst.bound <= min_resolution_length(inst.p, inst.q)


def test_progress_lower_bound_values():
    p = Partition(4, (0, 0, 1, 1, 2, 3))
    assert _progress_lower_bound(p, p) == 0
    inst = gen_lower_bound_instance((2, 2, 2, 2))
    # 8 displaced items, cap 6 per step: ceil(32/12) = 3.
    assert _progress_lower_bound(inst.p, inst.q) == 3


# --- the 18-item swap instance ----------------------------------------------


def test_pp36_instance_shape():
    p, q = gen_pp36_instance()
    assert p.m == 18 and p.n == 6
    assert p.sizes() == q.sizes() == (3, 3, 3, 3, 3, 3)
    assert all(a != b for a, b in zip(p.assign, q.assign))
    d = cdg(p, q)
    pairs = {(t, h) for t, h in zip(d.tails, d.heads)}
    assert pairs == {(i, 3 + i) for i in range(3)} | {(3 + i, i) for i in range(3)}


def test_pp36_resolvable_in_five():
    p, q = gen_pp36_instance()
    r = resolve(p, q)
    assert len(r.taus) <= 5
    assert r.replay()[-1] == q


def test_pp36_lower_bound_is_four():
    p, q = gen_pp36_instance()
    assert _progress_lower_bound(p, q) == 4
