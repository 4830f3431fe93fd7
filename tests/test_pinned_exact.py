"""The exhaustive cover search's outputs, pinned by a digest over a seeded set.

The set holds small random graphs on 2 to 7 vertices, and small Eulerian
ones so that the cycle search has covers to find.  For each it records
the tight path cover, and the parts the exact search returns for paths and
for cycles within the constructive covers' sizes (``None`` when there is no
cover, as for cycles of a graph with odd degrees).  A change that moves any
edge of any part, or the order of the parts, changes the digest.
"""

from __future__ import annotations

import hashlib
import json
import random

from polyresolve.graphs import edge, simple_graph
from polyresolve.oddcover import path_odd_cover_general
from polyresolve.oracles import exact_odd_cover, tight_path_odd_cover

PINNED = "9392abe0d91422a428a568a78295ceb014b8b57eaea8af4aa40fbe0cea27290f"


def _graph(rng: random.Random):
    n = rng.randint(2, 7)
    prob = rng.uniform(0.2, 0.7)
    return simple_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < prob])


def _eulerian(rng: random.Random):
    """Xor of one to three random cycles on 3 to 7 vertices."""
    n = rng.randint(3, 7)
    edges: set = set()
    for _ in range(rng.randint(1, 3)):
        verts = rng.sample(range(n), rng.randint(3, n))
        edges ^= {edge(verts[i - 1], verts[i]) for i in range(len(verts))}
    return simple_graph(n, edges)


def _parts(parts) -> list | None:
    return None if parts is None else [sorted(part) for part in parts]


def pinned_searches():
    rng = random.Random(20261018)
    graphs = [_graph(rng) for _ in range(36)] + [_eulerian(rng) for _ in range(24)]
    for g in graphs:
        tight = tight_path_odd_cover(g)
        budget = len(path_odd_cover_general(g).parts)
        yield {
            "graph": sorted(g.edges),
            "tight": _parts(tight.parts),
            "path": _parts(exact_odd_cover(g, "path", budget)),
            "cycle": _parts(exact_odd_cover(g, "cycle", 3)),
        }


def searches_digest() -> str:
    h = hashlib.sha256()
    for record in pinned_searches():
        h.update(json.dumps(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_exact_searches_are_pinned():
    assert searches_digest() == PINNED
