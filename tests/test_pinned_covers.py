"""The odd covers the constructions emit, pinned by a digest over a seeded set.

The set covers path and cycle covers of maximum-degree-4 Eulerian graphs
(single components and 2, 3, 12 and 24 stacked ones), Eulerian covers at
maximum degree 6 and 8, general path covers and linear-forest
decompositions.  A change that moves any edge of any part, or the order of
the parts, changes the digest, so a refactor of the forest surgery that
passes this test emits exactly the same certificates.
"""

from __future__ import annotations

import hashlib
import json
import random

from polyresolve.generators import (
    random_delta4_eulerian_graph,
    random_delta4_graph,
    random_eulerian_graph,
    random_graph,
)
from polyresolve.jsonio import emit_cover
from polyresolve.oddcover import (
    cycle_odd_cover_delta4,
    linear_forest_decomposition,
    odd_cover_eulerian,
    path_odd_cover_delta4,
    path_odd_cover_general,
)

PINNED = "56482b50e47ab551250a4e6574c86116db8e342166e52405d0d5b1c16778f12e"


def pinned_covers():
    rng = random.Random(20251018)
    for count, draws in ((1, 60), (2, 30), (3, 20), (12, 4), (24, 2)):
        for _ in range(draws):
            g = random_delta4_eulerian_graph(rng, components=count)
            yield path_odd_cover_delta4(g)
            yield cycle_odd_cover_delta4(g)
    for layers in (3, 4):
        for _ in range(15):
            g = random_eulerian_graph(rng, layers, max_n=14)
            yield odd_cover_eulerian(g, "path")
            yield odd_cover_eulerian(g, "cycle")
    for _ in range(40):
        yield path_odd_cover_general(random_graph(rng))
    for _ in range(40):
        yield linear_forest_decomposition(random_delta4_graph(rng))


def covers_digest() -> str:
    h = hashlib.sha256()
    for cert in pinned_covers():
        h.update(json.dumps(emit_cover(cert)).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_covers_are_pinned():
    assert covers_digest() == PINNED
