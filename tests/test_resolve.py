"""Tests for resolution construction, hard instances, and lower bounds."""

from __future__ import annotations

import importlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from polyresolve import cli
from polyresolve.jsonio import emit_instance
from polyresolve.oracles import MoveAccounting, min_resolution_length, move_accounting
from polyresolve.perms import (
    CycleSeq,
    Partition,
    Permutation,
    cdg,
    compose,
    cycle_is_p_cycle,
    resolution_from_decomposition,
    verify_resolution,
)
from polyresolve.resolve import (
    PP36_FIRST_MOVE,
    _color_matchings,
    gen_lower_bound_instance,
    gen_pp36_instance,
    pcycles_from_balanced,
    pcycles_from_pair,
    progress_lower_bound,
    resolve,
)

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
    assert r.end() == p


def test_resolve_single_swap():
    p = Partition(2, (0, 0, 1, 1))
    q = Partition(2, (1, 1, 0, 0))
    r = resolve(p, q)
    assert r.end() == q
    assert verify_resolution(p, q, r.taus)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_resolve_meets_bound_and_verifies(seed):
    rng = random.Random(seed)
    p, q = _random_shape_pair(rng)
    r = resolve(p, q)
    assert r.start == p
    assert r.end() == q
    assert verify_resolution(p, q, r.taus)
    shape = p.shape()
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
    assert r.end() == q


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
    assert compose(s2.to_permutation(p.m), s1.to_permutation(p.m)) == pi


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
    got = resolution_from_decomposition(p, parts).end()
    want = resolution_from_decomposition(p, _cycle_seqs(pi1) + _cycle_seqs(pi2)).end()
    assert got == want


def test_pcycles_from_pair_balanced_composite():
    p = Partition(4, (0, 1, 2, 3))
    pi1 = Permutation((1, 0, 2, 3))
    pi2 = Permutation((0, 1, 3, 2))
    parts = pcycles_from_pair(p, pi1, pi2)
    assert len(parts) <= 2
    got = resolution_from_decomposition(p, parts).end()
    want = resolution_from_decomposition(p, _cycle_seqs(pi1) + _cycle_seqs(pi2)).end()
    assert got == want


def test_resolve_refuses_a_wrong_pair_split(monkeypatch, tmp_path, capsys):
    # The pair split's product is checked only through the walk: swapping
    # two items of sigma2 keeps every step a p-cycle but misses q, which
    # check_resolution refuses, and the CLI reports it with exit 1.
    p = Partition(3, (0, 1, 2, 0, 1, 2, 0, 1, 2))
    q = Partition(3, (1, 2, 0, 1, 2, 0, 0, 1, 2))
    split = resolve_module.pcycles_from_pair

    def with_swapped_sigma2(*args):
        sigma1, sigma2, *rest = split(*args)
        a, b, *tail = sigma2.items
        return [sigma1, CycleSeq((b, a, *tail)), *rest]

    monkeypatch.setattr(resolve_module, "pcycles_from_pair", with_swapped_sigma2)
    with pytest.raises(AssertionError, match="^final partition differs from the target$"):
        resolve(p, q)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(emit_instance((p, q))))
    assert cli.main(["resolve", "--instance", str(inst)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["pass"], report["detail"]) == (False, "final partition differs from the target")


def test_pcycles_from_pair_rejects_shared_support():
    p = Partition(4, (0, 1, 2, 3))
    pi = Permutation((1, 0, 2, 3))
    with pytest.raises(ValueError, match="permutations must have disjoint supports"):
        pcycles_from_pair(p, pi, pi)


# --- matching 2-coloring -----------------------------------------------------


def test_two_color_matchings_straddles_every_edge():
    m1 = [(0, 1), (2, 3)]
    m2 = [(1, 2), (3, 4)]
    color = _color_matchings(m1, m2, 6)
    # Cluster 5 is on no edge, so it gets no colour.
    assert set(color) == {0, 1, 2, 3, 4}
    assert set(color.values()) <= {0, 1}
    for u, v in m1 + m2:
        assert color[u] != color[v]


def test_two_color_matchings_rejects_overlap():
    with pytest.raises(ValueError, match="m1 repeats vertex 1"):
        _color_matchings([(0, 1), (1, 2)], [], 3)


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
    color = _color_matchings(m1, m2, n)
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
    assert inst.bound == progress_lower_bound(inst.p, inst.q)
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
    assert progress_lower_bound(p, p) == 0
    inst = gen_lower_bound_instance((2, 2, 2, 2))
    # 8 displaced items, cap 6 per step: ceil(32/12) = 3.
    assert progress_lower_bound(inst.p, inst.q) == 3


def test_progress_lower_bound_rejects_shape_mismatch():
    p = Partition(2, (0, 0, 1))
    q = Partition(2, (0, 1, 1))
    with pytest.raises(ValueError, match="p and q must have equal per-cluster sizes"):
        progress_lower_bound(p, q)


# --- the 18-item swap instance ----------------------------------------------


def test_pp36_instance_shape():
    p, q = gen_pp36_instance()
    assert p.m == 18 and p.n == 6
    assert p.sizes() == q.sizes() == (3, 3, 3, 3, 3, 3)
    assert all(a != b for a, b in zip(p.assign, q.assign))
    d = cdg(p, q)
    pairs = {(t, h) for t, h in zip(d.tails, d.heads)}
    assert pairs == {(i, 3 + i) for i in range(3)} | {(3 + i, i) for i in range(3)}


def test_pp36_first_move_realizes_maximum_gain():
    p, q = gen_pp36_instance()
    assert cycle_is_p_cycle(PP36_FIRST_MOVE, p)
    acc = move_accounting(p, q, p, PP36_FIRST_MOVE)
    assert acc == MoveAccounting(3, 3, 9)


def test_pp36_resolvable_in_five():
    p, q = gen_pp36_instance()
    r = resolve(p, q)
    assert len(r.taus) <= 5
    assert r.end() == q


def test_pp36_lower_bound_is_four():
    p, q = gen_pp36_instance()
    assert progress_lower_bound(p, q) == 4
