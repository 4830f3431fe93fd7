"""Tests for permutations, cyclic exchanges, partitions, and resolutions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyresolve.dot import emit_dot
from polyresolve.perms import (
    CycleSeq,
    Partition,
    Permutation,
    Resolution,
    cdg,
    check_resolution,
    cycle_is_p_cycle,
    decomposition_from_resolution,
    resolution_from_decomposition,
    verify_resolution,
)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The tests' one reference product ``a b``: ``x -> a(b(x))``, the
    right factor acting first, built from whole images."""
    return Permutation(tuple(a(b(x)) for x in range(a.m)))


def cycle_perm(m: int, items) -> Permutation:
    """The tests' reference ``Permutation`` of one cycle on ``m`` items:
    each listed item goes to its successor."""
    image = list(range(m))
    for x, y in zip(items, (*items[1:], *items[:1])):
        image[x] = y
    return Permutation(tuple(image))


def act(p: Partition, pi: Permutation) -> Partition:
    """The tests' reference right action: item ``x`` takes the old cluster
    of ``pi(x)``."""
    return Partition(p.n, tuple(p(pi(x)) for x in range(p.m)))


def partitions(max_clusters=5, max_items=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_clusters))
        extra = draw(st.lists(st.integers(0, n - 1), max_size=max_items - n))
        assign = list(range(n)) + extra
        assign = draw(st.permutations(assign))
        return Partition(n, tuple(assign))

    return build()


def random_walk(draw, p, max_steps=4):
    taus = []
    cur = p
    for _ in range(draw(st.integers(0, max_steps))):
        by = {}
        for x in range(cur.m):
            by.setdefault(cur(x), []).append(x)
        clusters = sorted(by)
        r = draw(st.integers(2, len(clusters)))
        chosen = draw(st.permutations(clusters))[:r]
        items = tuple(draw(st.sampled_from(by[c])) for c in chosen)
        taus.append(CycleSeq(items))
        cur = cur.apply(taus[-1])
    return Resolution(p, tuple(taus))


resolutions = st.composite(
    lambda draw: random_walk(draw, draw(partitions()))
)()


def test_cycleseq_rotates_to_smallest_first():
    assert CycleSeq((3, 1, 2)).items == (1, 2, 3)
    assert CycleSeq((2, 3, 1)).items == (1, 2, 3)
    assert CycleSeq((1, 2, 3)) == CycleSeq((3, 1, 2))


def test_cycleseq_rejects_repeats():
    with pytest.raises(ValueError):
        CycleSeq((0, 1, 0))


def test_trivial_cycle_is_identity():
    p = Partition(2, (0, 1, 1))
    assert p.apply(CycleSeq(())) == p
    assert p.apply(CycleSeq((2,))) == p


def test_composition_applies_right_factor_first():
    a = Permutation((1, 0, 2))
    b = Permutation((0, 2, 1))
    assert compose(a, b)(0) == a(b(0))
    assert compose(a, b).image == tuple(a(b(x)) for x in range(3))


def test_cycle_step_maps_forward():
    # tau sends 0 -> 2 -> 1 -> 0, and item x takes the old cluster of tau(x).
    p = Partition(4, (0, 1, 2, 3))
    assert p.apply(CycleSeq((0, 2, 1))).assign == (2, 0, 1, 3)


def test_partition_apply_pulls_cluster_of_image():
    p = Partition(2, (0, 0, 1, 1))
    tau = CycleSeq((0, 2))
    moved = p.apply(tau)
    # item 0 takes the cluster where item 2 sat, and vice versa
    assert moved.assign == (1, 0, 0, 1)


def test_p_cycle_requires_distinct_clusters():
    p = Partition(2, (0, 0, 1, 1))
    assert cycle_is_p_cycle(CycleSeq((0, 2)), p)
    assert not cycle_is_p_cycle(CycleSeq((0, 1)), p)
    with pytest.raises(ValueError, match="^step 0 revisits a cluster$"):
        p.apply(CycleSeq((0, 1)))


def test_replay_rejects_bad_step_and_names_it():
    p = Partition(2, (0, 0, 1, 1))
    res = Resolution(p, (CycleSeq((0, 2)), CycleSeq((1, 3))))
    states = res.replay()
    assert len(states) == 3
    # After the first swap, items 1 and 2 share cluster 0, so exchanging
    # them is not a valid step.
    bad = Resolution(p, (CycleSeq((0, 2)), CycleSeq((1, 2))))
    with pytest.raises(ValueError, match="step 1 "):
        bad.replay()


@pytest.mark.parametrize("n", [-1, True, 2.0])
def test_partition_refuses_a_bad_cluster_count(n):
    with pytest.raises(ValueError, match="cluster count must be a non-negative integer"):
        Partition(n, ())


def test_check_resolution_reports_each_failure_mode():
    p = Partition(2, (0, 0, 1, 1))
    q = Partition(2, (1, 1, 0, 0))
    other = Partition(2, (0, 0, 1, 1, 0))
    assert check_resolution(p, other, ()) == "partitions live on different ground sets"
    assert check_resolution(p, q, (CycleSeq((0, 7)),)) == "step 0 names an unknown item"
    assert check_resolution(p, q, (CycleSeq((0, 1)),)) == "step 0 revisits a cluster"
    assert check_resolution(p, q, ()) == "final partition differs from the target"
    assert check_resolution(p, q, [(0, 1)]) == "step 0 is not a cycle"
    assert not verify_resolution(p, q, [(0, 1)])
    good = (CycleSeq((0, 2)), CycleSeq((1, 3)))
    assert check_resolution(p, q, good) is None
    assert verify_resolution(p, q, good)


def _refusal(call) -> str | None:
    try:
        call()
    except ValueError as e:
        return str(e)
    return None


def test_every_consumer_refuses_what_the_verifier_refuses():
    # Walks on 1-4 clusters and up to 6 items, with steps of 0-3 items drawn
    # from -1..m: unknown items, empty and one-item steps, same-cluster pairs.
    rng = random.Random(20261019)
    refused = 0
    for _ in range(3000):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        p = Partition(n, tuple(rng.randrange(n) for _ in range(m)))
        taus = tuple(CycleSeq(tuple(rng.sample(range(-1, m + 1), rng.randint(0, 3))))
                     for _ in range(rng.randint(0, 3)))
        verdict = check_resolution(p, p, taus)
        fault = verdict if verdict and verdict.startswith("step ") else None
        refused += fault is not None
        res = Resolution(p, taus)
        assert _refusal(lambda: emit_dot(res)) == fault
        assert _refusal(lambda: list(res.steps())) == fault
        assert _refusal(res.replay) == fault
        if taus:
            first = fault if fault and fault.startswith("step 0 ") else None
            assert _refusal(lambda: p.apply(taus[0])) == first
        assert _refusal(lambda: decomposition_from_resolution(res)) == fault
    assert 0 < refused < 3000


def test_one_item_step_must_name_a_known_item():
    p = Partition(2, (0, 1, 1))
    assert not cycle_is_p_cycle(CycleSeq((7,)), p)
    assert cycle_is_p_cycle(CycleSeq((2,)), p)
    with pytest.raises(ValueError, match="factor 0 is not a p-cycle"):
        resolution_from_decomposition(p, [CycleSeq((7,))])


def test_cdg_has_one_arc_per_item():
    p = Partition(2, (0, 0, 1))
    q = Partition(2, (0, 1, 0))
    g = cdg(p, q)
    assert (g.tails, g.heads) == ((0, 0, 1), (0, 1, 0))
    assert g.out_degrees() == g.in_degrees()


@given(resolutions)
@settings(max_examples=200, deadline=None)
def test_conversion_round_trips_and_prefixes_agree(res):
    sigmas = decomposition_from_resolution(res)
    assert resolution_from_decomposition(res.start, sigmas) == res

    m = res.start.m
    left = Permutation.from_moved(m, {})
    for tau in res.taus:
        left = compose(left, cycle_perm(m, tau.items))
    right = Permutation.from_moved(m, {})
    for sigma in sigmas:
        right = compose(cycle_perm(m, sigma.items), right)
    assert left == right


@given(resolutions)
@settings(max_examples=200, deadline=None)
def test_decomposition_factors_are_cycles_of_the_start(res):
    for sigma in decomposition_from_resolution(res):
        assert cycle_is_p_cycle(sigma, res.start)


@given(partitions())
@settings(max_examples=100, deadline=None)
def test_apply_by_permutation_matches_cycle_application(p):
    by = {}
    for x in range(p.m):
        by.setdefault(p(x), []).append(x)
    items = tuple(v[0] for v in by.values())
    if len(items) < 2:
        return
    tau = CycleSeq(items)
    assert p.apply(tau) == act(p, cycle_perm(p.m, tau.items))
