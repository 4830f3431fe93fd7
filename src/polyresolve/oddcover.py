"""Path and cycle odd-covers of graphs via linear-forest surgery.

An odd-cover of G is a list of subgraphs of the complete graph on V(G)
whose symmetric difference is exactly G.  Two edge-disjoint polycycles
split into three linear forests once a transversal matching pair is
fixed; the parity of |V(M1) & V(M2)| controls how the forest endpoints
pair up, and greedy endpoint joins then merge each forest into a single
path (odd parity) or close all three into cycles (even parity, given a
straddling component in each forest).  Stacking these three-for-two
covers over a polycycle decomposition covers any Eulerian graph with
ceil(3*Delta/4) paths or d1/2 + ceil(d2/4) cycles (d1 >= d2 the top two
degrees), and a general graph reduces to the Eulerian case by one
matching on its odd-degree vertices.

The split returns three forests.  Only where joins run do they get an
endpoint state (``_Surgery``), which ``_joining_state`` builds from one
walk per forest (``graphs.linear_forest_paths``) and the joins change in
place: for each forest the other end and smallest vertex of every path,
the three shared-endpoint sets and the straddling paths.  A join updates
them in O(log E), and the invariants the proof needs (two fewer shared
endpoints, one parity for all six counts, a straddler in every forest for
cycles, no closed cycle) are checked after every join, so the surgery
costs O(E log E).  The cycle closing reads the surgery's own
shared-endpoint sets.  The public steps check their inputs (a
``ValueError`` names the polycycle, transversal or forest at fault), then
call private cores: ``_odd_pair`` and ``_even_pair`` take each
polycycle's cycles, and ``_flexible`` one cycle of canonical edges.  The
cores re-check nothing that ``check_cover`` holds.  Where joins run, only
the endpoint state refuses split forests that are not linear or whose
ends are unbalanced, with an ``AssertionError``: a fault in a core is a
failed check (exit 1), not an input error.  A linear-forest decomposition
joins nothing and builds no endpoint state; ``check_cover`` alone checks
its forests.

A cover works out each fact of its graph once.  Every path or cycle cover
of an Eulerian graph runs the unchecked ``_eulerian_cover`` on the graph's
one degree summary, which the graph counts once and keeps for the route
and the final check: one decomposition orients the graph on edge ids, the
one check that it is Eulerian, and walks each polycycle once, which checks
its shape and hands out its cycles, and consecutive polycycles go as they
are, with their cycles, to the pair cores ``_path_pair`` and
``_cycle_pair``.  On an Eulerian graph the general path cover is that
cover, of g itself.  So no stage canonicalizes, re-checks or splits a
polycycle into components again.  The parts are normalized once, and
``check_cover`` is the one checker of a finished cover;
``oracles.verify_certificate`` calls it too.  It checks the part shapes,
the xor (or, for linear forests, disjointness and union) and the part
count against ``odd_cover_bound``, which it works out from the graph
alone.  Each public cover checks its output once with it, by an explicit
raise that holds under ``python -O``.  Crash guards raise explicitly too;
the asserts left are the proof's parity, count and transversal facts.  The
exhaustive cover search, and the tight path cover built on it, live in
``oracles``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import AbstractSet, Iterable

from .graphs import (
    FOREST_SHAPES,
    Edge,
    SimpleGraph,
    SubgraphShape,
    _links,
    classify,
    cycle_order,
    degrees,
    edge,
    edge_components,
    linear_forest_paths,
    symmetric_difference,
    vertices_of,
)
from .perms import two_largest
from .polycycles import _polycycle_cover, undirected_polycycle_decomposition

__all__ = [
    "TransversalPair",
    "ForestTriple",
    "OddCoverCert",
    "odd_cover_bound",
    "check_cover",
    "forest_stats",
    "linear_forests_from_transversal",
    "flexible_exchange",
    "transversal_odd_intersection",
    "transversal_even_intersection",
    "path_odd_cover_delta4",
    "cycle_odd_cover_delta4",
    "odd_cover_eulerian",
    "path_odd_cover_general",
    "linear_forest_decomposition",
]

@dataclass(frozen=True)
class TransversalPair:
    """One matching edge per component of each of two polycycles."""

    m1: frozenset[Edge]
    m2: frozenset[Edge]


@dataclass(frozen=True)
class ForestTriple:
    """Three linear forests with endpoint bookkeeping.

    ``rij`` counts vertices that are path endpoints in both forest i and
    forest j; ``ti`` counts components of forest i whose two endpoints
    fall into the two different shared-endpoint sets.  All six counts are
    congruent to ``parity`` mod 2.
    """

    f1: frozenset[Edge]
    f2: frozenset[Edge]
    f3: frozenset[Edge]
    r12: int
    r13: int
    r23: int
    t1: int
    t2: int
    t3: int
    parity: int


@dataclass(frozen=True)
class OddCoverCert:
    """Subgraph parts of one kind whose xor is the covered graph."""

    kind: str
    parts: tuple[frozenset[Edge], ...]

    def __len__(self) -> int:
        return len(self.parts)


_PAIRS = ((0, 1), (0, 2), (1, 2))
# Per forest f: the first other forest g, the key of R_fg, the second other.
_SIDES = ((1, (0, 1), 2), (0, (0, 1), 2), (0, (0, 2), 1))
_PART_SHAPES = {
    "path": (SubgraphShape.PATH,),
    "cycle": (SubgraphShape.CYCLE,),
    "linear_forest": FOREST_SHAPES,
}


def odd_cover_bound(g: SimpleGraph, kind: str) -> int:
    """The most parts a cover of g of this kind is promised to have:
    v_odd/2 + ceil(3*Delta_e/4) paths (ceil(3*Delta/4), at most 3 for
    Delta <= 4, on an Eulerian graph), d1/2 + ceil(d2/4) cycles (d1 >= d2
    the two largest degrees, 0 where absent) and exactly 3 linear forests."""
    if kind == "linear_forest":
        return 3
    summary = degrees(g)
    if kind == "path":
        return summary.v_odd // 2 + (3 * summary.delta_e + 3) // 4
    d1, d2 = two_largest(summary.degrees)
    return d1 // 2 + (d2 + 3) // 4


def check_cover(g: SimpleGraph, cert: OddCoverCert) -> str | None:
    """None if ``cert`` covers g within ``odd_cover_bound``; else the first
    failure.  Path and cycle covers need pairwise distinct parts of their
    kind whose xor is g; a linear-forest decomposition needs three pairwise
    edge-disjoint linear forests whose union is g."""
    want = _PART_SHAPES.get(cert.kind)
    if want is None:
        return f"unknown kind {cert.kind!r}"
    parts, bound = cert.parts, odd_cover_bound(g, cert.kind)
    forests = cert.kind == "linear_forest"
    if forests and len(parts) != bound:
        return f"expected {bound} parts, got {len(parts)}"
    for i, part in enumerate(parts):
        try:
            shape = classify(part, g.n)
        except Exception as exc:  # noqa: BLE001 - malformed part, name it
            return f"part {i} is malformed: {exc}"
        if shape not in want:
            return f"part {i} not a {cert.kind.replace('_', ' ')}"
    if forests:
        for i, j in _PAIRS:
            if parts[i] & parts[j]:
                return f"parts {i} and {j} share an edge"
        return None if frozenset().union(*parts) == g.edges else "union differs from the graph"
    if len(set(parts)) != len(parts):
        return "parts are not pairwise distinct"
    if symmetric_difference(parts) != g.edges:
        return "symmetric difference differs from the graph"
    if len(parts) > bound:
        return f"{len(parts)} {cert.kind}s exceed the bound {bound}"
    return None


def _checked(g: SimpleGraph, cert: OddCoverCert) -> OddCoverCert:
    """``cert``, once ``check_cover`` passes it; an explicit raise, so the
    check holds under ``python -O``."""
    detail = check_cover(g, cert)
    if detail is not None:
        raise AssertionError(detail)
    return cert


def _canon(edges: Iterable[tuple[int, int]]) -> frozenset[Edge]:
    return frozenset(edge(u, v) for u, v in edges)


def _span(*edge_sets: Iterable[Edge]) -> int:
    top = max((max(e) for es in edge_sets for e in es), default=0)
    return top + 1


def _holding(comps: Iterable[frozenset[Edge]], v: int) -> frozenset[Edge]:
    """The component with vertex v on one of its edges."""
    return next(comp for comp in comps if any(v in e for e in comp))


def _analyze(fs: tuple[frozenset[Edge], ...]) -> _Surgery:
    """The endpoint state of a linear-forest triple, from one walk per
    forest.  Raises AssertionError unless the forests are linear and every
    endpoint lies in exactly two end sets, as the split's forests are."""
    paths = [linear_forest_paths(f) for f in fs]
    if None in paths:
        raise AssertionError("every part must be a disjoint union of paths")
    return _Surgery(fs, paths)


def forest_stats(f1: Iterable[tuple[int, int]], f2: Iterable[tuple[int, int]],
                 f3: Iterable[tuple[int, int]]) -> ForestTriple:
    """Endpoint statistics of three linear forests whose union is Eulerian.

    Counts shared endpoints r12/r13/r23 and straddling components
    t1/t2/t3, all congruent mod 2 to the returned parity bit.  Forests
    that are not linear, or whose ends are unbalanced, are an input error.
    """
    fs = tuple(_canon(f) for f in (f1, f2, f3))
    try:
        return _analyze(fs).triple()
    except AssertionError as exc:
        raise ValueError(str(exc)) from None


def _check_polycycle(h: frozenset[Edge], span: int, name: str) -> None:
    if classify(h, span) not in (SubgraphShape.EMPTY, SubgraphShape.CYCLE, SubgraphShape.POLYCYCLE):
        raise ValueError(f"{name} is not a disjoint union of cycles")


def _polycycle_pair(h1: Iterable[tuple[int, int]],
                    h2: Iterable[tuple[int, int]]) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """The input check of the public steps on two polycycles: they are
    edge-disjoint polycycles.  Returns them canonicalized."""
    h1 = _canon(h1)
    h2 = _canon(h2)
    if h1 & h2:
        raise ValueError("the two polycycles share an edge")
    span = _span(h1, h2)
    _check_polycycle(h1, span, "h1")
    _check_polycycle(h2, span, "h2")
    return h1, h2


def _check_transversal(m: frozenset[Edge], h: frozenset[Edge],
                       comps: list[frozenset[Edge]], name: str) -> None:
    """m picks exactly one edge of each component ``comps`` of h."""
    if not m <= h:
        raise ValueError(f"{name} has edges outside its polycycle")
    for comp in comps:
        if len(m & comp) != 1:
            raise ValueError(f"{name} must pick exactly one edge per component")
    if len(m) != len(comps):
        raise ValueError(f"{name} has stray edges")


def _transversal(comps: Iterable[frozenset[Edge]], avoid: tuple[int, ...] = ()) -> frozenset[Edge]:
    """Smallest edge of each component that misses the given vertices."""
    out: set[Edge] = set()
    for comp in comps:
        e = min(comp)
        if e[0] in avoid or e[1] in avoid:
            e = min((e for e in comp if e[0] not in avoid and e[1] not in avoid), default=None)
            if e is None:
                raise AssertionError("a cycle always has an edge missing the avoided vertices")
        out.add(e)
    return frozenset(out)


def linear_forests_from_transversal(
    h1: Iterable[tuple[int, int]], h2: Iterable[tuple[int, int]], tp: TransversalPair
) -> ForestTriple:
    """Split two edge-disjoint polycycles into three linear forests.

    The forests are (h1 - m1) + m', m1 + (m2 - m'), and h2 - m2, where m'
    holds the smallest m2-edge of every cycle component of m1 + m2.  Their
    endpoint parity equals |V(m1) & V(m2)| mod 2.  Checks its inputs
    (disjoint polycycles, their transversals) before the split; the covers
    call the split directly on inputs they checked.
    """
    h1, h2 = _polycycle_pair(h1, h2)
    if not h1 and not h2:
        if tp.m1 or tp.m2:
            raise ValueError("transversal of an empty polycycle must be empty")
        return forest_stats((), (), ())
    if not h1 or not h2:
        raise ValueError("exactly one side is empty; no transversal pair exists")
    m1 = _canon(tp.m1)
    m2 = _canon(tp.m2)
    _check_transversal(m1, h1, edge_components(h1), "m1")
    _check_transversal(m2, h2, edge_components(h2), "m2")
    return _joining_state(h1, h2, m1, m2).triple()


def _split_forests(
    h1: frozenset[Edge], h2: frozenset[Edge], m1: frozenset[Edge], m2: frozenset[Edge]
) -> tuple[frozenset[Edge], ...]:
    """The split of ``linear_forests_from_transversal`` on inputs already
    checked: two edge-disjoint polycycles, either of them possibly empty,
    and a transversal pair of them.  Returns the three forests; only the
    joins need their endpoint state (``_joining_state``)."""
    # One edge per vertex-disjoint cycle makes m1 and m2 matchings, so each
    # component of m1 + m2 alternates between them: a path, or an even
    # cycle, which has as many vertices as edges.
    m_prime: set[Edge] = set()
    for comp in edge_components(m1 | m2):
        if len(vertices_of(comp)) == len(comp):
            m_prime.add(min(comp & m2))
    return (h1 - m1) | m_prime, m1 | (m2 - m_prime), h2 - m2


def _joining_state(
    h1: frozenset[Edge], h2: frozenset[Edge], m1: frozenset[Edge], m2: frozenset[Edge]
) -> _Surgery:
    """The endpoint state of the split's forests, which the joins start
    from.  Asserts the split's facts: the ends of each forest, and the
    parity of R_12 equal to that of |V(m1) & V(m2)|."""
    f1, f2, f3 = _split_forests(h1, h2, m1, m2)
    state = _analyze((f1, f2, f3))
    v1, v2 = vertices_of(m1), vertices_of(m2)
    ends = [other.keys() for other in state.other]
    assert ends[0] == v1 ^ vertices_of(m2 & f1)
    assert ends[1] == v1 ^ vertices_of(m2 & f2)
    assert ends[2] == v2
    assert len(state.r[(0, 1)]) % 2 == len(v1 & v2) % 2
    return state


def flexible_exchange(
    c: Iterable[tuple[int, int]], v: Iterable[int], x: int, z: int
) -> tuple[frozenset[int], Edge, Edge]:
    """Adjust a vertex set at one vertex so a cycle has edges of both parities.

    Returns (chosen_v, e0, e1) with chosen_v equal to v or v + {z} - {x},
    |e0 & chosen_v| even, and |e1 & chosen_v| odd; both edges lie on c.
    """
    cedges = _canon(c)
    vset = frozenset(v)
    if classify(cedges, _span(cedges)) is not SubgraphShape.CYCLE:
        raise ValueError("c must be a single cycle")
    if x not in vset or x not in vertices_of(cedges) or z in vset or x == z:
        raise ValueError("need x in v and on c, z outside v, x != z")
    return _flexible(cedges, vset, x, z)


def _flexible(cedges: frozenset[Edge], vset: AbstractSet[int], x: int,
              z: int) -> tuple[AbstractSet[int], Edge, Edge]:
    """``flexible_exchange`` on a cycle of canonical edges, a cycle of a
    polycycle in hand, with x in ``vset`` and on the cycle and z outside
    ``vset``."""
    evens = sorted(e for e in cedges if len(set(e) & vset) % 2 == 0)
    odds = sorted(e for e in cedges if len(set(e) & vset) % 2 == 1)
    if evens and odds:
        return vset, evens[0], odds[0]

    chosen = (vset - {x}) | {z}
    if not odds:
        # Every edge is even, so the whole cycle sits inside v; dropping x
        # makes its two incident edges odd while the rest stay even.
        assert vertices_of(cedges) <= vset
        e0 = min(e for e in cedges if x not in e)
        e1 = min(e for e in cedges if x in e)
    else:
        # Every edge is odd: the cycle alternates in/out of v, with even
        # length.  Dropping x frees one edge at x and keeps one odd edge
        # at the next in-vertex along the cycle.
        order = cycle_order(cedges, start=x)
        if len(order) % 2:
            raise AssertionError("an all-odd cycle alternates, hence is even")
        ins, outs = order[0::2], order[1::2]
        assert all(u in vset for u in ins) and all(u not in vset for u in outs)
        y = outs[-1] if outs[-1] != z else outs[0]
        y2 = outs[0] if outs[0] != z else outs[1]
        e0 = edge(order[0], y)
        e1 = edge(order[2], y2)
    assert len(set(e0) & chosen) % 2 == 0
    assert len(set(e1) & chosen) % 2 == 1
    return chosen, e0, e1


def transversal_odd_intersection(
    h1: Iterable[tuple[int, int]], h2: Iterable[tuple[int, int]]
) -> TransversalPair:
    """Transversal pair with oddly many shared matched vertices.

    Anchors both matchings at a shared vertex: the h1-side picks one of
    the two cycle edges following it (whichever makes the h2-side cycle
    flexible), and the h2-side closes with the flexible edge of the
    right parity.
    """
    h1, h2 = _polycycle_pair(h1, h2)
    return _odd_pair(h1, h2, edge_components(h1), edge_components(h2))


def _odd_pair(h1: frozenset[Edge], h2: frozenset[Edge], comps1: list[frozenset[Edge]],
              comps2: list[frozenset[Edge]]) -> TransversalPair:
    """``transversal_odd_intersection`` on checked polycycles, given their
    cycles in order of smallest vertex."""
    shared = vertices_of(h1) & vertices_of(h2)
    if not shared:
        raise ValueError("the polycycles have no vertex in common")

    x1 = min(shared)
    c = _holding(comps1, x1)
    d = _holding(comps2, x1)
    order = cycle_order(c, start=x1)
    x2, x3 = order[1], order[2]

    m1_rest = _transversal(comp for comp in comps1 if comp is not c)
    base = vertices_of(m1_rest) | {x1, x2}
    chosen, e0, e1 = _flexible(d, base, x1, x3)
    e = edge(x1, x2) if chosen == base else edge(x2, x3)
    m1 = frozenset(m1_rest | {e})
    assert vertices_of(m1) == chosen

    m2_rest = _transversal(comp for comp in comps2 if comp is not d)
    even_so_far = len(vertices_of(m1) & vertices_of(m2_rest)) % 2 == 0
    m2 = frozenset(m2_rest | ({e1} if even_so_far else {e0}))
    assert len(vertices_of(m1) & vertices_of(m2)) % 2 == 1
    return TransversalPair(m1, m2)


def _even_case_direct(
    side1: list[frozenset[Edge]],
    side2: list[frozenset[Edge]],
    a: frozenset[Edge],
    b: frozenset[Edge],
    ap: frozenset[Edge],
    bp: frozenset[Edge],
):
    """Try the generic overlap construction for one oriented quadruple.

    Looks for an edge u-v1 on a with u on b and v1 off bp, builds the
    side-1 matching so bp is flexible with respect to it while avoiding a
    b-neighbor v2 of u, and closes the side-2 matching at even parity.
    Returns (m1, m2, u, v1, v2) or None if no such edge works here.
    """
    b_links, vbp, vap = _links(b), vertices_of(bp), vertices_of(ap)
    for e in sorted(a):
        for u, v1 in (e, (e[1], e[0])):
            if u not in b_links or v1 in vbp:
                continue
            nbrs = b_links[u]
            outside = [w for w in nbrs if w not in vap]
            if outside:
                v2 = min(outside)
                x = min(vap & vbp)
                walk = cycle_order(ap, start=x)
                y, z = walk[1], walk[2]
                m1_rest = {edge(u, v1)} | _transversal(
                    (comp for comp in side1 if comp not in (a, ap)), avoid=(v2,))
                base = vertices_of(m1_rest) | {x, y}
                chosen, e0, e1 = _flexible(bp, base, x, z)
                m1 = frozenset(m1_rest | {edge(x, y) if chosen == base else edge(y, z)})
                assert vertices_of(m1) == chosen
            else:
                # Both b-neighbors of u land on ap; usable only when every
                # other side-1 component misses bp, making bp touch the
                # side-1 matching in exactly one vertex.
                if any(
                    comp not in (a, ap) and vertices_of(comp) & vbp
                    for comp in side1
                ):
                    continue
                boundary = sorted(
                    e2 for e2 in ap if len(set(e2) & vbp) == 1
                )
                if not boundary:
                    raise AssertionError("ap meets bp but also has vertices outside it")
                e2 = boundary[0]
                (x,) = set(e2) & vbp
                (y,) = set(e2) - {x}
                v2 = min(w for w in nbrs if w != y)
                m1 = frozenset({edge(u, v1), e2} | _transversal(
                    (comp for comp in side1 if comp not in (a, ap)), avoid=(v2,)))
                assert vertices_of(m1) & vbp == {x}
                e1 = min(e3 for e3 in bp if x in e3)
                e0 = min(e3 for e3 in bp if x not in e3)

            m2_rest = {edge(u, v2)} | _transversal(
                (comp for comp in side2 if comp not in (b, bp)), avoid=(v1,))
            even_so_far = len(vertices_of(m1) & vertices_of(m2_rest)) % 2 == 0
            m2 = frozenset(m2_rest | ({e0} if even_so_far else {e1}))
            return m1, m2, u, v1, v2
    return None


def _even_case_rigid(
    h1: frozenset[Edge],
    h2: frozenset[Edge],
    comps1: list[frozenset[Edge]],
    comps2: list[frozenset[Edge]],
    c1: frozenset[Edge],
    c2: frozenset[Edge],
    c1p: frozenset[Edge],
    c2p: frozenset[Edge],
):
    """Handle the fully interlocked overlap: four equal even cycles whose
    vertices alternate pairwise.  Validates the structure and pins two
    crossing matched edges per side so the intersection is {u1, x1}."""

    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise AssertionError(f"interlocked-overlap validation failed: {msg}")

    links1, links2, links1p, links2p = map(_links, (c1, c2, c1p, c2p))
    v1s, v2s, v1ps, v2ps = links1.keys(), links2.keys(), links1p.keys(), links2p.keys()
    lengths = {len(c1), len(c2), len(c1p), len(c2p)}
    need(lengths == {len(c1)} and len(c1) % 2 == 0, "cycles must share one even length")

    def check_alt(comp: frozenset[Edge], side_a: set[int], side_b: set[int]) -> None:
        walk = cycle_order(comp)
        marks = []
        for w in walk:
            if w in side_a and w not in side_b:
                marks.append(0)
            elif w in side_b and w not in side_a:
                marks.append(1)
            else:
                need(False, "cycle vertex off both opposite components")
        need(
            all(marks[i] != marks[(i + 1) % len(marks)] for i in range(len(marks))),
            "cycle must alternate between the opposite components",
        )

    check_alt(c1, v2s, v2ps)
    check_alt(c1p, v2s, v2ps)
    check_alt(c2, v1s, v1ps)
    check_alt(c2p, v1s, v1ps)
    need(vertices_of(h1) & vertices_of(h2) == v1s | v1ps, "no overlap outside the four cycles")
    need(v1s | v1ps == v2s | v2ps, "both sides must cover the same overlap")

    u1 = min(v1s & v2s)
    need(set(links1[u1]) <= v2ps, "neighbors on c1 must lie on c2'")
    v1 = min(links1[u1])
    w1, w = sorted(links2[u1])
    need({w1, w} <= v1ps, "neighbors on c2 must lie on c1'")
    x1 = min(links1p[w1])
    need(x1 in v2ps, "neighbor on c1' must lie on c2'")
    v = min(ww for ww in links2p[x1] if ww != v1)

    m1 = _transversal(comp for comp in comps1 if comp not in (c1, c1p)) | {edge(u1, v1), edge(w1, x1)}
    m2 = _transversal(comp for comp in comps2 if comp not in (c2, c2p)) | {edge(u1, w), edge(v, x1)}
    need(vertices_of(m1) & vertices_of(m2) == {u1, x1}, "intersection must be the two anchors")
    return m1, m2, u1, v1, w


def transversal_even_intersection(
    h1: Iterable[tuple[int, int]],
    h2: Iterable[tuple[int, int]],
    crossing: tuple[tuple[Iterable[tuple[int, int]], Iterable[tuple[int, int]]],
                    tuple[Iterable[tuple[int, int]], Iterable[tuple[int, int]]]],
) -> tuple[TransversalPair, tuple[int, int, int]]:
    """Transversal pair with even intersection plus a crossing witness.

    ``crossing`` names two component pairs (c1, c2) and (c1', c2') with
    c1 != c1' intersecting c2 != c2' respectively.  Returns the pair and
    a witness (u, v1, v2) with u-v1 in m1, u-v2 in m2, v1 off V(m2), and
    v2 off V(m1); the witness forces straddling components downstream.
    """
    h1, h2 = _polycycle_pair(h1, h2)
    comps1 = edge_components(h1)
    comps2 = edge_components(h2)

    try:
        (c1_raw, c2_raw), (c1p_raw, c2p_raw) = crossing
        c1, c2, c1p, c2p = (_canon(c) for c in (c1_raw, c2_raw, c1p_raw, c2p_raw))
    except (TypeError, ValueError) as exc:
        raise ValueError("crossing must hold two component pairs") from exc
    if c1 not in comps1 or c1p not in comps1 or c2 not in comps2 or c2p not in comps2:
        raise ValueError("crossing entries must be components of the polycycles")
    if c1 == c1p or c2 == c2p:
        raise ValueError("crossing components must be distinct on each side")
    if not vertices_of(c1) & vertices_of(c2) or not vertices_of(c1p) & vertices_of(c2p):
        raise ValueError("named component pairs must intersect")
    return _even_pair(h1, h2, comps1, comps2, (c1, c2, c1p, c2p))


def _even_pair(
    h1: frozenset[Edge], h2: frozenset[Edge], comps1: list[frozenset[Edge]],
    comps2: list[frozenset[Edge]], crossing: tuple[frozenset[Edge], ...],
) -> tuple[TransversalPair, tuple[int, int, int]]:
    """``transversal_even_intersection`` on checked polycycles, given their
    cycles in order of smallest vertex and a checked crossing (c1, c2, c1',
    c2') of them."""
    for swapped in (False, True):
        side1, side2 = (comps2, comps1) if swapped else (comps1, comps2)
        found = next(filter(None, (
            _even_case_direct(side1, side2, a, b, ap, bp)
            for a in side1 for b in side2 if vertices_of(a) & vertices_of(b)
            for ap in side1 if ap != a
            for bp in side2 if bp != b and vertices_of(ap) & vertices_of(bp))), None)
        if found is not None:
            break
    if found is None:
        m1, m2, u, v1, v2 = _even_case_rigid(h1, h2, comps1, comps2, *crossing)
    elif swapped:
        m2, m1, u, v2, v1 = found
    else:
        m1, m2, u, v1, v2 = found
    assert len(vertices_of(m1) & vertices_of(m2)) % 2 == 0
    return TransversalPair(m1, m2), (u, v1, v2)


def _smallest(heap: list, valid, count: int) -> list:
    """Up to ``count`` smallest entries of a lazy min-heap that pass
    ``valid``, left in the heap; failing entries met on the way are
    dropped for good."""
    out = []
    while heap and len(out) < count:
        top = heappop(heap)
        if valid(top):
            out.append(top)
    for top in out:
        heappush(heap, top)
    return out


class _Surgery:
    """Endpoint state of a linear-forest triple, kept current under joins.

    For forest f, ``other[f]`` maps each path endpoint to the other end of
    its path and ``low[f]`` to the path's smallest vertex.  ``r`` holds the
    shared-endpoint sets R_fg, and ``straddlers[f]`` the end pairs of the
    paths of f whose two ends lie in its two different R sets.  A join
    only removes endpoints, and a path keeps its straddler status while it
    exists, so lazy heaps answer the join's "smallest such vertex" queries:
    ``r_heap`` orders each R set, ``by_low[f]`` the straddlers of f by
    smallest vertex, and ``anchors[(f, g)]`` (f < g) the straddler ends of
    f in R_fg.  A join costs O(log E).  ``_analyze`` builds the state from
    one walk per forest; the constructor checks that every endpoint lies in
    exactly two end sets and that the six counts share one parity.
    """

    def __init__(self, forests: Iterable[frozenset[Edge]],
                 paths: list[list[tuple[int, int, int]]]):
        self.fs = [set(f) for f in forests]
        self.other: list[dict[int, int]] = [{}, {}, {}]
        self.low: list[dict[int, int]] = [{}, {}, {}]
        for other, low, found in zip(self.other, self.low, paths):
            for lo, a, b in found:
                other[a], other[b] = b, a
                low[a] = low[b] = lo
        ends = [other.keys() for other in self.other]
        for v in ends[0] | ends[1] | ends[2]:
            hits = sum(v in e for e in ends)
            if hits != 2:
                raise AssertionError(
                    f"endpoint {v} lies in {hits} end sets; the union is not Eulerian"
                )
        self.r = {(f, g): ends[f] & ends[g] for f, g in _PAIRS}
        self.r_heap = {key: sorted(rs) for key, rs in self.r.items()}
        self.straddlers: list[set[Edge]] = [set(), set(), set()]
        self.by_low: list[list[tuple[int, int, int]]] = [[], [], []]
        self.anchors: dict[tuple[int, int], list[int]] = {key: [] for key in _PAIRS}
        for f, found in enumerate(paths):
            for _, a, b in found:
                self._add_path(f, a, b)
        counts = self.counts()
        assert all(c % 2 == counts[0] % 2 for c in counts), "endpoint counts must share parity"

    def _side(self, f: int, x: int) -> int:
        """The forest g != f that shares endpoint x of forest f."""
        g, key, h = _SIDES[f]
        return g if x in self.r[key] else h

    def _add_path(self, f: int, a: int, b: int) -> None:
        ga, gb = self._side(f, a), self._side(f, b)
        if ga != gb:
            self.straddlers[f].add(edge(a, b))
            heappush(self.by_low[f], (self.low[f][a], a, b))
            # Joins in R_fg take their anchor from forest f only when f < g.
            for x, g in ((a, ga), (b, gb)):
                if f < g:
                    heappush(self.anchors[(f, g)], x)

    def counts(self) -> list[int]:
        """r12, r13, r23, t1, t2, t3."""
        return [len(self.r[key]) for key in _PAIRS] + [len(s) for s in self.straddlers]

    def triple(self) -> ForestTriple:
        counts = self.counts()
        return ForestTriple(*map(frozenset, self.fs), *counts, counts[0] % 2)

    def straddlers_by_low(self, f: int, count: int) -> list[tuple[int, int, int]]:
        """The ``count`` straddlers of forest f with the smallest vertices."""
        live = self.straddlers[f]
        return _smallest(self.by_low[f], lambda t: edge(t[1], t[2]) in live, count)

    def anchor(self, i: int, j: int) -> int | None:
        """Smallest x in R_ij whose path in forest i ends in its other R set."""
        rij, other, live = self.r[(i, j)], self.other[i], self.straddlers[i]
        found = _smallest(self.anchors[(i, j)],
                          lambda x: x in rij and edge(x, other[x]) in live, 1)
        return found[0] if found else None

    def min_shared(self, i: int, j: int, banned: set[int]) -> int:
        """Smallest vertex of R_ij outside ``banned``."""
        rij = self.r[(i, j)]
        free = [w for w in _smallest(self.r_heap[(i, j)], rij.__contains__, len(banned) + 1)
                if w not in banned]
        if not free:
            raise AssertionError("R_ij has a vertex outside the banned ones")
        return free[0]

    def join(self, i: int, j: int, u: int, v: int) -> None:
        """Add u-v to forests i and j: drop u and v from R_ij, and in each
        forest link the other ends of the two joined paths."""
        e = edge(u, v)
        for f in (i, j):
            assert self.other[f][u] != v, "a join must not close a cycle"
        self.r[(i, j)].remove(u)
        self.r[(i, j)].remove(v)
        for f in (i, j):
            other, low = self.other[f], self.low[f]
            a, b = other.pop(u), other.pop(v)
            self.straddlers[f].discard(edge(u, a))
            self.straddlers[f].discard(edge(v, b))
            other[a], other[b] = b, a
            low[a] = low[b] = min(low.pop(u), low.pop(v))
            self.fs[f].add(e)
            self._add_path(f, a, b)


def _join_step(s: _Surgery, i: int, j: int, for_cycles: bool) -> None:
    """Pick the proof's join edge u-v inside the shared endpoint set of
    forests i and j, chosen so straddling components survive, and add it.

    v is an endpoint of forest j, so it lies on u's path there exactly
    when it is the other end of that path."""
    rij = s.r[(i, j)]
    if not for_cycles:
        u = s.anchor(i, j)
        if u is None:
            raise AssertionError("an odd straddler count provides an anchor")
        v = s.min_shared(i, j, {u, s.other[j][u]})
    else:
        anchors = s.straddlers_by_low(i, 2)
        if len(anchors) < 2 or len(s.straddlers[j]) < 2:
            raise AssertionError("a cycle join needs two straddlers in each forest")
        u, x1 = (a if a in rij else b for _, a, b in anchors)
        x2 = None
        for _, a, b in s.straddlers_by_low(j, 2):
            cand = a if a in rij else b
            if cand != u:
                x2 = cand
                break
        assert x2 is not None
        w = s.other[j][u]
        banned = {u, x1, w} if w in rij else {u, x1, x2}
        v = s.min_shared(i, j, banned)
    s.join(i, j, u, v)


def _reduce_endpoints(
    state: _Surgery, for_cycles: bool
) -> tuple[tuple[frozenset[Edge], ...], dict[tuple[int, int], set[int]]]:
    """Greedily add join edges until every shared endpoint count hits its
    floor: 1 for the path target, 2 for the cycle target.

    The joins change the split's endpoint state in place, and its counts
    are checked after every join.  Returns the joined forests with their
    shared-endpoint sets; ``check_cover`` checks the parts built from
    them."""
    floor = 2 if for_cycles else 1
    want_parity = 0 if for_cycles else 1
    counts = state.counts()
    assert counts[0] % 2 == want_parity
    if for_cycles:
        assert min(counts[3:]) > 0
    while max(counts[:3]) > floor:
        i, j = next(key for key, c in zip(_PAIRS, counts) if c > floor)
        _join_step(state, i, j, for_cycles)
        counts = state.counts()
        assert all(c % 2 == want_parity for c in counts), "endpoint counts must share parity"
        if for_cycles:
            assert min(counts[3:]) > 0
    # An explicit raise: the cycle closing takes two vertices of each R set.
    if counts[:3] != [floor] * 3:
        raise AssertionError("every shared endpoint count must end at its floor")
    return tuple(frozenset(f) for f in state.fs), state.r


def _close_into_cycles(
    forests: tuple[frozenset[Edge], ...], r_sets: dict[tuple[int, int], set[int]]
) -> list[frozenset[Edge]]:
    """Close a (2,2,2)-endpoint triple into three cycles by adding each
    shared endpoint pair's edge to both of its forests.  ``check_cover``
    shows each part a cycle and their xor the graph, so a join edge that a
    forest already held would not pass."""
    joins = {key: edge(*sorted(r_sets[key])) for key in _PAIRS}
    # Forest i takes the join edges of the two pairs it belongs to.
    return [f | {e for key, e in joins.items() if i in key} for i, f in enumerate(forests)]


def _normalized(parts: Iterable[Iterable[Edge]]) -> tuple[frozenset[Edge], ...]:
    """Parts of canonical edges with empties dropped and duplicate pairs
    cancelled, in order of first occurrence (a Counter keeps its keys in
    that order).  ``check_cover`` refuses a part that is not canonical."""
    return tuple(part for part, count in Counter(map(frozenset, parts)).items() if part and count % 2)


def _make_cert(kind: str, parts: Iterable[Iterable[tuple[int, int]]], g: SimpleGraph) -> OddCoverCert:
    """The normalized parts as a path or cycle cover of g, checked once by
    ``check_cover``."""
    return _checked(g, OddCoverCert(kind, _normalized(parts)))


def _max_degree_up_to_4(g: SimpleGraph) -> SimpleGraph:
    """g, once checked to have maximum degree at most 4.  The orientation
    checks its parity later, so an odd graph of larger degree gets this."""
    delta = degrees(g).delta
    if delta > 4:
        raise ValueError(f"maximum degree must be at most 4, got {delta}")
    return g


def path_odd_cover_delta4(g: SimpleGraph) -> OddCoverCert:
    """Cover an Eulerian graph of maximum degree 4 with at most 3 paths:
    the Eulerian path cover on its domain.  Its two polycycles (one, covered
    by two paths, when no degree is 4) split into three linear forests,
    joined into one path each."""
    return _make_cert("path", _eulerian_cover(_max_degree_up_to_4(g), "path"), g)


def cycle_odd_cover_delta4(g: SimpleGraph) -> OddCoverCert:
    """Cover an Eulerian graph of maximum degree 4 with at most 3 cycles:
    the Eulerian cycle cover on its domain.  With a single degree-4 vertex
    the decomposition splits off one cycle through it, and the cover is
    that cycle plus at most two cycles of the polycycle left."""
    return _make_cert("cycle", _eulerian_cover(_max_degree_up_to_4(g), "cycle"), g)


def _path_pair(h1: frozenset[Edge], h2: frozenset[Edge], comps1: list[frozenset[Edge]],
               comps2: list[frozenset[Edge]]) -> tuple[frozenset[Edge], ...]:
    """Three paths whose xor is h1 | h2, two polycycles that share a vertex,
    given their cycles: a transversal pair with odd intersection splits
    them into three linear forests, joined into one path each."""
    tp = _odd_pair(h1, h2, comps1, comps2)
    final, _ = _reduce_endpoints(_joining_state(h1, h2, tp.m1, tp.m2), for_cycles=False)
    return final


def _cycle_pair(h1: frozenset[Edge], h2: frozenset[Edge], comps1: list[frozenset[Edge]],
                comps2: list[frozenset[Edge]]) -> list[frozenset[Edge]]:
    """At most three cycles whose xor is h1 | h2, two polycycles given with
    their cycles.

    When the two cross in two disjoint component pairs, an even-parity
    transversal pair with a crossing witness yields three straddled
    forests that close into three cycles; otherwise all but one component
    of one polycycle avoid the other, and the rest covers with two cycles.
    """
    owner = {v: i for i, c in enumerate(comps1) for v in vertices_of(c)}
    meets = sorted(
        {(owner[v], j) for j, d in enumerate(comps2) for v in vertices_of(d) if v in owner}
    )
    crossing = next(((comps1[i], comps2[j], comps1[i2], comps2[j2])
                     for i, j in meets for i2, j2 in meets if i2 != i and j2 != j), None)
    if crossing is None:
        # No two meeting pairs are apart on both sides, so all share one h1
        # component or all share one h2 component: else, beside meets[0] =
        # (i, j), some (i', j) and (i, j'') would be apart.
        apart = []
        if meets:
            i, j = meets[0]
            apart.append(comps1[i] if all(i2 == i for i2, _ in meets) else comps2[j])
        # The cycles left are vertex-disjoint, so their smallest edges order
        # them as ``edge_components`` would.
        rest = sorted((c for c in comps1 + comps2 if c not in apart), key=min)
        return _polycycle_cover((h1 | h2).difference(*apart), rest, "cycle") + apart

    tp, _witness = _even_pair(h1, h2, comps1, comps2, crossing)
    final, r_sets = _reduce_endpoints(_joining_state(h1, h2, tp.m1, tp.m2), for_cycles=True)
    return _close_into_cycles(final, r_sets)


def odd_cover_eulerian(g: SimpleGraph, kind: str) -> OddCoverCert:
    """Cover an Eulerian graph with ceil(3*Delta/4) paths or with
    d1/2 + ceil(d2/4) cycles, d1 >= d2 the two largest degrees.

    Pairs up the polycycles of one decomposition and covers each pair with
    three paths or cycles; for cycles the decomposition threshold is d2/2
    so the trailing parts are single cycles costing one part each.
    """
    return _make_cert(kind, _eulerian_cover(g, kind), g)


def _eulerian_cover(g: SimpleGraph, kind: str) -> list[frozenset[Edge]]:
    """The parts of ``odd_cover_eulerian``, unnormalized and unchecked,
    read off the degree summary g keeps (``graphs.degrees``), which the
    final check reuses.  Each polycycle of the one decomposition holds an
    out-arc of a top-degree vertex, so consecutive ones share a vertex and
    go to the pair cores as they are, with their cycles."""
    if kind not in ("path", "cycle"):
        raise ValueError(f"kind must be 'path' or 'cycle', got {kind!r}")
    summary = degrees(g)
    # For paths the orientation has maximum out-degree delta/2, so no part
    # is in the cycle suffix.
    t = summary.delta // 2 if kind == "path" else two_largest(summary.degrees)[1] // 2
    dec = undirected_polycycle_decomposition(g, t)
    split = len(dec.parts) - dec.cycle_suffix_len
    classes, comps = dec.parts[:split], dec.components
    parts = list(dec.parts[split:])

    cover_pair = _path_pair if kind == "path" else _cycle_pair
    for i in range(0, len(classes) - 1, 2):
        parts.extend(cover_pair(classes[i], classes[i + 1], comps[i], comps[i + 1]))
    if len(classes) % 2:
        parts.extend(_polycycle_cover(classes[-1], comps[len(classes) - 1], kind))
    return parts


def path_odd_cover_general(g: SimpleGraph) -> OddCoverCert:
    """Cover any graph with at most v_odd/2 + ceil(3*Delta_e/4) paths.

    Pairs the odd-degree vertices into a matching M, covers the Eulerian
    graph g xor M, and adds each M edge as a one-edge path.  With no odd
    vertex M is empty and g is that graph, so this is
    ``odd_cover_eulerian(g, "path")``.  ``oracles.tight_path_odd_cover``
    meets the tighter bound on small graphs by exhaustive search.
    """
    summary = degrees(g)
    odd = [u for u, d in enumerate(summary.degrees) if d % 2]
    matching = [edge(odd[i], odd[i + 1]) for i in range(0, len(odd), 2)]
    flipped = SimpleGraph(g.n, g.edges ^ frozenset(matching)) if matching else g
    assert degrees(flipped).delta <= summary.delta_e
    # The Eulerian parts cancel among themselves before the matching's
    # one-edge paths join them, which fixes the order of the parts kept.
    eulerian = _normalized(_eulerian_cover(flipped, "path"))
    return _make_cert("path", [*eulerian, *(frozenset({e}) for e in matching)], g)


def linear_forest_decomposition(g: SimpleGraph) -> OddCoverCert:
    """Split a graph of maximum degree at most 4 into 3 disjoint linear forests.

    Completes the graph to an Eulerian host (a matching on odd vertices,
    detouring through a fresh vertex when the pair is already adjacent),
    splits that into its 0, 1 or 2 polycycles, padded to two with empty
    ones, applies the transversal-forest split, and restricts the three
    forests back to the original edges.  No join runs, so no endpoint
    state is built: ``check_cover`` alone checks the forests.
    """
    summary = degrees(g)
    if summary.delta > 4:
        raise ValueError(f"maximum degree must be at most 4, got {summary.delta}")

    n = g.n
    patch: set[Edge] = set()
    odd = [u for u, d in enumerate(summary.degrees) if d % 2]
    for i in range(0, len(odd), 2):
        u, v = odd[i], odd[i + 1]
        if edge(u, v) not in g.edges:
            patch.add(edge(u, v))
        else:
            patch.add(edge(u, n))
            patch.add(edge(v, n))
            n += 1
    host = SimpleGraph(n, g.edges | frozenset(patch))
    host_summary = degrees(host)
    assert host_summary.delta in (0, 2, 4) and not host_summary.v_odd

    # The decomposition checks that its parts are polycycles, and the
    # smallest edge of each of their cycles is a transversal of them.
    dec = undirected_polycycle_decomposition(host, host_summary.delta // 2)
    pad = 2 - len(dec)
    h1, h2 = (*dec.parts, *[frozenset()] * pad)
    comps1, comps2 = (*dec.components, *[()] * pad)
    forests = _split_forests(h1, h2, _transversal(comps1), _transversal(comps2))
    return _checked(g, OddCoverCert("linear_forest", tuple(f & g.edges for f in forests)))
