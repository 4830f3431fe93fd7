"""Independent checks of the program's outputs.

These work on the plain JSON data the program writes and share no code with
the package: the package's own guards are ``assert`` statements that vanish
under ``python -O``, so they cannot vouch for its output.  Every function
returns ``None`` when the output is acceptable, else a one-line reason.
"""

from __future__ import annotations


def resolution_bound(p: list[int], n: int) -> int:
    """``k1 + ceil(k2/2)`` for the two largest cluster sizes of ``p``."""
    sizes = [0] * n
    for c in p:
        sizes[c] += 1
    sizes.sort(reverse=True)
    k1 = sizes[0] if sizes else 0
    k2 = sizes[1] if len(sizes) > 1 else 0
    return k1 + (k2 + 1) // 2


def check_resolution(p: list[int], q: list[int], n: int, taus: list[list[int]]) -> str | None:
    """Replay the steps from ``p`` and confirm they land on ``q`` within the bound.

    Step ``(x1 ... xt)`` moves item ``xi`` into the old cluster of ``x(i+1)``;
    it is a legal move only if the items are distinct and lie in distinct
    clusters.  The replay changes one assignment list in place.
    """
    cur = list(p)
    m = len(cur)
    for i, tau in enumerate(taus):
        if any(not isinstance(x, int) or not 0 <= x < m for x in tau):
            return f"step {i} names an unknown item"
        if len(set(tau)) != len(tau):
            return f"step {i} repeats an item"
        clusters = [cur[x] for x in tau]
        if len(set(clusters)) != len(clusters):
            return f"step {i} visits a cluster twice"
        for x, c in zip(tau, clusters[1:] + clusters[:1]):
            cur[x] = c
    if cur != list(q):
        return "replay does not end at the target partition"
    bound = resolution_bound(p, n)
    if len(taus) > bound:
        return f"{len(taus)} steps exceed the bound k1 + ceil(k2/2) = {bound}"
    return None


def _edge_set(pairs) -> set[tuple[int, int]] | None:
    out = set()
    for pair in pairs:
        u, v = pair
        if u == v:
            return None
        out.add((u, v) if u < v else (v, u))
    return out


def _shape(edges: set[tuple[int, int]]) -> tuple[dict[int, int], int]:
    """Degree of each touched vertex, and the number of connected components."""
    deg: dict[int, int] = {}
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        for w in (u, v):
            deg[w] = deg.get(w, 0) + 1
            parent.setdefault(w, w)
        parent[find(u)] = find(v)
    return deg, sum(1 for x in parent if find(x) == x)


def _is_path(edges: set[tuple[int, int]]) -> bool:
    deg, comps = _shape(edges)
    return bool(edges) and comps == 1 and len(edges) == len(deg) - 1 and max(deg.values()) <= 2


def _is_cycle(edges: set[tuple[int, int]]) -> bool:
    deg, comps = _shape(edges)
    return len(edges) >= 3 and comps == 1 and all(d == 2 for d in deg.values())


def _is_linear_forest(edges: set[tuple[int, int]]) -> bool:
    if not edges:
        return True
    deg, comps = _shape(edges)
    return len(edges) == len(deg) - comps and max(deg.values()) <= 2


def check_cover(graph: dict, cover: dict, kind: str, max_parts: int | None) -> str | None:
    """Each part is a path (or cycle), the parts xor to the graph, and there
    are at most ``max_parts`` of them."""
    if cover.get("type") != "odd_cover" or cover.get("kind") != kind:
        return f"expected a {kind} odd cover"
    target = _edge_set(graph["edges"])
    acc: set[tuple[int, int]] = set()
    is_part = _is_path if kind == "path" else _is_cycle
    for i, part in enumerate(cover["parts"]):
        edges = _edge_set(part)
        if edges is None or len(edges) != len(part) or not is_part(edges):
            return f"part {i} is not a {kind}"
        acc ^= edges
    if acc != target:
        return "parts do not xor to the graph"
    if max_parts is not None and len(cover["parts"]) > max_parts:
        return f"{len(cover['parts'])} parts exceed the bound {max_parts}"
    return None


def check_forests(graph: dict, cover: dict) -> str | None:
    """Three disjoint linear forests whose union is the graph."""
    if cover.get("type") != "odd_cover" or cover.get("kind") != "linear_forest":
        return "expected a linear-forest decomposition"
    if len(cover["parts"]) != 3:
        return f"expected 3 forests, got {len(cover['parts'])}"
    forests = [_edge_set(part) for part in cover["parts"]]
    for f, part in zip(forests, cover["parts"]):
        if f is None or len(f) != len(part) or not _is_linear_forest(f):
            return "a part is not a linear forest"
    if sum(len(f) for f in forests) != len(set().union(*forests)):
        return "forests share an edge"
    if set().union(*forests) != _edge_set(graph["edges"]):
        return "union of the forests differs from the graph"
    return None
