"""Short resolutions between partition-polytope vertices.

``resolve`` certifies that two equal-shape partitions are at most
k1 + ceil(k2/2) moves apart (k1 >= k2 the two largest cluster sizes): the
cluster difference digraph factors into balanced permutations and p-cycles,
balanced permutations split pairwise into at most three p-cycles each, and
the cycle list converts into an explicit edge walk, which ``resolve`` checks
once with ``perms.check_resolution``.  Each stage is a private core on
item tuples that its public name wraps: ``polycycles._factorize`` hands
each balanced permutation to the pair split ``_pair`` as its cycles, and
``perms._walk`` turns the p-cycles into steps, so ``resolve`` builds no
``Permutation``.  None of these stages checks its output.  A factor that
is no p-cycle shows as a step that revisits a cluster (conjugation keeps
each item's cluster), and a wrong product as a walk that misses q; the
one check refuses both, as a failed verification.  The asserts left are
the proof's colouring facts, and in ``pcycles_from_pair`` that each
returned cycle is a p-cycle.

The module also builds the matching lower-bound family: instances whose
difference digraph is a disjoint union of doubled 2-cycles (plus one tripled
3-cycle when the cluster count is odd), where a per-step progress cap forces
resolutions of length ceil(2|S|/g) for |S| displaced items.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import _links
from .perms import (
    CycleSeq,
    Partition,
    Permutation,
    Resolution,
    _walk,
    check_resolution,
    cycle_is_p_cycle,
    is_p_balanced,
)
from .polycycles import _factorize

__all__ = [
    "LowerBoundInstance",
    "pcycles_from_balanced",
    "pcycles_from_pair",
    "resolve",
    "gen_lower_bound_instance",
    "gen_pp36_instance",
]


@dataclass(frozen=True)
class LowerBoundInstance:
    """An equal-shape pair whose shortest resolution is at least ``bound`` long."""

    p: Partition
    q: Partition
    bound: int
    family: str


def _color_matchings(m1, m2) -> dict[int, int]:
    """Colour 0 or 1 for every cluster an edge of either matching touches,
    such that each edge straddles the colours.

    The union has maximum degree 2 and every cycle alternates between the
    matchings, so it is bipartite.  The smallest cluster of each component
    gets colour 0.  Clusters no edge touches are neither visited nor listed.
    """
    adj = _links(set(m1 + m2))
    color: dict[int, int] = {}
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                else:
                    assert color[w] != color[u], "two matchings cannot form an odd cycle"
    return color


def pcycles_from_balanced(p: Partition, pi: Permutation) -> tuple[CycleSeq, CycleSeq]:
    """Split a p-balanced permutation into two p-cycles (second applied last).

    Concatenating the disjoint cycles of pi gives the first p-cycle; the
    cycle leaders in reverse order give the second.  A single-cycle pi
    yields a trivial second factor.
    """
    if not is_p_balanced(pi, p):
        raise ValueError("permutation is not p-balanced")
    s1, s2 = _split_balanced(pi.cycles())
    return CycleSeq(s1), CycleSeq(s2)


def _split_balanced(cycles) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``pcycles_from_balanced`` on the permutation's cycles, as item tuples."""
    return tuple(x for c in cycles for x in c), tuple(c[0] for c in reversed(cycles))


def _rotate(cycle: tuple[int, ...], lead: int) -> tuple[int, ...]:
    i = cycle.index(lead)
    return cycle[i:] + cycle[:i]


def pcycles_from_pair(p: Partition, pi1: Permutation, pi2: Permutation) -> list[CycleSeq]:
    """Replace two support-disjoint p-balanced permutations by <=3 p-cycles.

    Returns cycles in application order whose product differs from pi2*pi1
    by a transposition of two same-cluster items, so applying them to p has
    the same effect.  When pi2*pi1 is itself p-balanced, two cycles suffice.
    The product is not checked here; ``resolve`` checks the walk it makes.
    """
    for pi in (pi1, pi2):
        if not is_p_balanced(pi, p):
            raise ValueError("permutation is not p-balanced")
    if pi1.moved.keys() & pi2.moved.keys():
        raise ValueError("permutations must have disjoint supports")
    sigmas = [CycleSeq(s) for s in _pair(p.assign, pi1.cycles(), pi2.cycles())]
    assert all(cycle_is_p_cycle(sigma, p) for sigma in sigmas)
    return sigmas


def _two_smallest(clusters) -> tuple[int, int]:
    """The two smallest of a cycle's clusters, which are distinct."""
    clusters = list(clusters)
    low = min(clusters)
    clusters.remove(low)
    return low, min(clusters)


def _pair(assign, cs: list[tuple[int, ...]], ds: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """``pcycles_from_pair`` on the cycles ``cs`` of pi1 and ``ds`` of pi2
    (as ``Permutation.cycles`` orders them) and p's assignment, as item
    tuples."""
    # moved_out_of maps each cluster pi2 moves an item out of to that item,
    # the only one since pi2 is p-balanced.  With disjoint supports pi2 pi1
    # moves each item as its one factor does, so it is p-balanced unless
    # pi1 also moves an item out of one of those clusters.
    moved_out_of = {assign[it]: it for c in ds for it in c}
    shared = [it for c in cs for it in c if assign[it] in moved_out_of]
    if not shared:
        return [s for s in _split_balanced(sorted(cs + ds)) if len(s) > 1]

    # x is the smallest item of pi1 whose cluster pi2 also moves an item
    # out of, and y that item.
    x = min(shared)
    y = moved_out_of[assign[x]]
    cx = next(c for c in cs if x in c)
    cs = [cx] + [c for c in cs if c is not cx]
    dy = next(c for c in ds if y in c)
    ds = [c for c in ds if c is not dy] + [dy]
    y_next = dy[(dy.index(y) + 1) % len(dy)]

    # One representative cluster pair per cycle; the pair for y's cycle is
    # pinned to {p(y), p(pi2(y))} so the coloring separates those clusters.
    m1 = [_two_smallest(map(assign.__getitem__, c)) for c in cs]
    m2 = [_two_smallest(map(assign.__getitem__, c)) for c in ds[:-1]]
    m2.append(tuple(sorted((assign[y], assign[y_next]))))
    color = _color_matchings(m1, m2)
    side = color.get(assign[x], 0)   # x's side; the other side is 1 - side

    xs = [_rotate(cx, x)] + [
        _rotate(c, min(it for it in c if color.get(assign[it], 0) == side)) for c in cs[1:]
    ]
    ys = [_rotate(c, min(it for it in c if color.get(assign[it], 0) != side)) for c in ds[:-1]]
    ys.append(_rotate(dy, y_next))

    sigma1 = tuple(it for c in xs for it in c)
    d_flat = [it for c in ys for it in c]
    sigma2 = tuple(d_flat[:-1] + [x])
    sigma3 = tuple([c[0] for c in reversed(ys)] + [c[0] for c in reversed(xs[1:])] + [y])
    return [sigma1, sigma2, sigma3]


def resolve(p: Partition, q: Partition) -> Resolution:
    """Build a resolution from p to q of length <= k1 + ceil(k2/2), checked
    once by ``perms.check_resolution``.

    The factorization runs one matching round per balanced permutation
    but the last two, which it splits off a residual of degree 2 along its
    cycles, so a pair whose second-largest cluster holds at most two items
    runs no matcher at all.
    """
    if p.sizes() != q.sizes():
        raise ValueError("p and q must have equal per-cluster sizes")
    sigmas, classes = _factorize(p, q)
    assign = p.assign
    parts: list[tuple[int, ...]] = []
    for i in range(0, len(classes) - 1, 2):
        parts += _pair(assign, classes[i], classes[i + 1])
    if len(classes) % 2:
        parts += _split_balanced(classes[-1])
    parts += sigmas

    taus = _walk([s for s in parts if len(s) > 1])
    detail = check_resolution(p, q, taus)
    if detail is not None:
        raise AssertionError(detail)
    return Resolution(p, taus)


def gen_lower_bound_instance(shape) -> LowerBoundInstance:
    """Build the hard instance for a non-increasing shape with >= 4 clusters.

    Clusters are paired off; each pair exchanges as many items as the
    smaller cluster holds, in both directions.  An odd cluster count leaves
    the last three clusters cycling items instead.  The shortest resolution
    is at least ceil(2|S|/g) where |S| counts displaced items and g is the
    largest per-step progress 3n/2 (n even) or (3n+1)/2 (n odd).
    """
    shape = tuple(shape)
    for k in shape:
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"cluster sizes must be integers, got {k!r}")
    n = len(shape)
    if n < 4:
        raise ValueError("need at least 4 clusters")
    if shape[-1] < 0 or any(shape[i] < shape[i + 1] for i in range(n - 1)):
        raise ValueError("cluster sizes must be non-increasing and non-negative")

    p_assign: list[int] = []
    q_assign: list[int] = []

    def fill(cluster: int, target: int, count: int) -> None:
        p_assign.extend([cluster] * count)
        q_assign.extend([target] * count)

    n_paired = n if n % 2 == 0 else n - 3
    for a in range(0, n_paired, 2):
        b = a + 1
        fill(a, b, shape[b])
        fill(a, a, shape[a] - shape[b])
        fill(b, a, shape[b])
    if n % 2:
        u, v, w = n - 3, n - 2, n - 1
        k = shape[w]
        fill(u, v, k)
        fill(u, u, shape[u] - k)
        fill(v, w, k)
        fill(v, v, shape[v] - k)
        fill(w, u, k)
        family = "odd2cycles3cycle"
    else:
        family = "even2cycles"

    p = Partition(n, tuple(p_assign))
    q = Partition(n, tuple(q_assign))
    bound = _progress_lower_bound(p, q)
    return LowerBoundInstance(p, q, bound, family)


def _progress_lower_bound(p: Partition, q: Partition) -> int:
    """ceil(2|S|/g) for |S| displaced items: the bound of
    ``gen_lower_bound_instance``'s family.

    g caps the per-step progress at 3n/2 (n even) or (3n+1)/2 (n odd) when
    the difference digraph is a disjoint union of doubled 2-cycles (plus one
    tripled 3-cycle for odd n).  On general pairs it can exceed the exact
    distance, so it is no lower bound there.
    """
    displaced = sum(1 for a, b in zip(p.assign, q.assign) if a != b)
    if displaced == 0:
        return 0
    denom = 3 * p.n if p.n % 2 == 0 else 3 * p.n + 1
    return -(-4 * displaced // denom)


def gen_pp36_instance() -> tuple[Partition, Partition]:
    """The 18-item, 6-cluster swap instance whose resolutions need 5 moves.

    Clusters 0..2 and 3..5 come in pairs (i, 3+i); all nine items sitting in
    cluster 3+i must move to i and vice versa, so the difference digraph is
    three disjoint 2-cycles with multiplicity 3 in both directions.
    """
    p = [0] * 18
    q = [0] * 18
    for i in range(3):
        for j in range(3):
            a = 3 * i + j
            b = 9 + 3 * i + j
            p[a], q[a] = 3 + i, i
            p[b], q[b] = i, 3 + i
    return Partition(6, tuple(p)), Partition(6, tuple(q))
