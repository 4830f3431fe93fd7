"""Tests for the seeded random instance and graph generators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyresolve.graphs import degrees
from polyresolve.generators import (
    random_delta4_eulerian_graph,
    random_delta4_graph,
    random_eulerian_graph,
    random_graph,
    random_instance,
    random_k2_instance,
)


def test_generators_are_deterministic_per_seed():
    for make in (
        random_instance,
        random_k2_instance,
        random_graph,
        random_delta4_graph,
        random_delta4_eulerian_graph,
    ):
        assert make(random.Random(11)) == make(random.Random(11))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_random_instance_shapes_match(seed):
    rng = random.Random(seed)
    p, q = random_instance(rng)
    assert p.sizes() == q.sizes()
    assert 1 <= p.n <= 10 and p.m <= 30


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_random_k2_instance_cluster_sizes(seed):
    p, q = random_k2_instance(random.Random(seed))
    assert p.sizes() == q.sizes()
    assert max(p.sizes()) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_random_graph_within_limits(seed):
    g = random_graph(random.Random(seed), max_n=10)
    assert g.n <= 10
    for u, v in g.edges:
        assert 0 <= u < v < g.n


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_delta4_graphs_respect_degree_cap(seed):
    g = random_delta4_graph(random.Random(seed))
    assert degrees(g).delta <= 4


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_delta4_eulerian_graphs(seed):
    g = random_delta4_eulerian_graph(random.Random(seed))
    summ = degrees(g)
    assert summ.v_odd == 0
    assert summ.delta == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_layered_eulerian_graphs(seed, layers):
    g = random_eulerian_graph(random.Random(seed), layers, max_n=12)
    summ = degrees(g)
    assert summ.v_odd == 0
    assert summ.delta == 2 * layers

    loose = random_eulerian_graph(random.Random(seed), layers, max_n=12,
                                  exact_delta=False)
    assert degrees(loose).v_odd == 0
    assert degrees(loose).delta <= 2 * layers


class _CountingRandom(random.Random):
    """Refuses to draw more than a few numbers, so a retry loop fails fast."""

    draws = 0

    def randint(self, a, b):
        self.draws += 1
        if self.draws > 100:
            raise RuntimeError("generator kept drawing")
        return super().randint(a, b)


@pytest.mark.parametrize("layers", [0, -1])
def test_eulerian_graph_refuses_too_few_layers(layers):
    rng = _CountingRandom(0)
    with pytest.raises(ValueError, match="layers must be at least 1"):
        random_eulerian_graph(rng, layers)
    assert rng.draws == 0
