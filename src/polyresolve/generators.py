"""Seeded random instances and graphs for property suites and the CLI.

Every generator takes a ``random.Random`` so runs are reproducible from a
seed.  Instances are equal-shape partition pairs; graph generators target
the degree regimes the constructions care about (Eulerian, bounded degree).
"""

from __future__ import annotations

import random

from .graphs import SimpleGraph, degrees, edge, simple_graph
from .perms import Partition

__all__ = [
    "random_instance",
    "random_k2_instance",
    "random_eulerian_graph",
    "random_delta4_eulerian_graph",
    "random_graph",
    "random_delta4_graph",
]


def _shuffled(assign: list[int], rng: random.Random) -> tuple[int, ...]:
    out = assign[:]
    rng.shuffle(out)
    return tuple(out)


def random_instance(
    rng: random.Random, max_items: int = 30, max_clusters: int = 10
) -> tuple[Partition, Partition]:
    """Equal-shape pair: random cluster sizes, independently shuffled items."""
    n = rng.randint(1, max_clusters)
    m = rng.randint(n, max_items)
    sizes = [1] * n
    for _ in range(m - n):
        sizes[rng.randrange(n)] += 1
    base = [c for c, k in enumerate(sizes) for _ in range(k)]
    return Partition(n, _shuffled(base, rng)), Partition(n, _shuffled(base, rng))


def random_k2_instance(
    rng: random.Random, max_clusters: int = 10
) -> tuple[Partition, Partition]:
    """Equal-shape pair whose largest cluster has exactly two items."""
    n = rng.randint(1, max_clusters)
    sizes = [rng.choice((1, 2)) for _ in range(n)]
    sizes[rng.randrange(n)] = 2
    base = [c for c, k in enumerate(sizes) for _ in range(k)]
    return Partition(n, _shuffled(base, rng)), Partition(n, _shuffled(base, rng))


def _random_cycle_edges(rng: random.Random, n: int) -> frozenset:
    length = rng.randint(3, n)
    verts = rng.sample(range(n), length)
    return frozenset(edge(verts[i], verts[(i + 1) % length]) for i in range(length))


def random_eulerian_graph(
    rng: random.Random, layers: int, max_n: int = 16, exact_delta: bool = True
) -> SimpleGraph:
    """Symmetric difference of ``layers`` random cycles: all degrees even,
    max degree at most 2*layers (exactly 2*layers when ``exact_delta``).
    ``layers`` must be at least 1."""
    if layers < 1:
        raise ValueError(f"layers must be at least 1, got {layers}")
    lo = max(3, 2 * layers + 1)
    while True:
        n = rng.randint(lo, max_n)
        acc: frozenset = frozenset()
        for _ in range(layers):
            acc ^= _random_cycle_edges(rng, n)
        g = simple_graph(n, acc)
        if not exact_delta or (acc and degrees(g).delta == 2 * layers):
            return g


def random_delta4_eulerian_graph(
    rng: random.Random, max_n: int = 16, components: int = 1
) -> SimpleGraph:
    """Eulerian graph with max degree exactly 4 on at most ``max_n`` vertices,
    or the disjoint union of ``components`` such graphs."""
    offset, edges = 0, []
    for _ in range(components):
        g = random_eulerian_graph(rng, 2, max_n)
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return simple_graph(offset, edges)


def random_graph(rng: random.Random, max_n: int = 14) -> SimpleGraph:
    """Erdos-Renyi-style graph with a randomly drawn edge density."""
    n = rng.randint(1, max_n)
    prob = rng.uniform(0.15, 0.6)
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob
    ]
    return simple_graph(n, pairs)


def random_delta4_graph(rng: random.Random, max_n: int = 14) -> SimpleGraph:
    """Graph with max degree at most 4: random edges, degree-capped greedily."""
    n = rng.randint(2, max_n)
    deg = [0] * n
    chosen = []
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    budget = rng.randint(0, 2 * n)
    for u, v in pairs:
        if len(chosen) >= budget:
            break
        if deg[u] < 4 and deg[v] < 4:
            chosen.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return simple_graph(n, chosen)
