"""Partitions of items into clusters, permutations, and resolutions.

Composition convention
----------------------
Products of permutations are function composition read right to left:
the product ``a b`` maps ``x`` to ``a(b(x))``, so the right factor acts
first on the argument.  A partition is transformed on the right,
``(p @ tau)(x) = p(tau(x))``, which makes a step-by-step replay
``p, p@t1, (p@t1)@t2, ...`` land on ``p @ (t1 t2 ... tk)``.

Sparse representation and cost
------------------------------
A step is a :class:`CycleSeq`, which holds its one cycle as an item
tuple; ``resolve`` hands cycles on as item tuples and builds no
:class:`Permutation`.  That type, held by its moved points only (building
one, ``cycles`` and :func:`is_p_balanced` cost O(|support|)), is left only
for the factorization and pair-split names the benchmark binds.

Replay and verification share one step rule, ``_fault``: a step may name
only items ``0..m-1``, and no two in one cluster.  One checked replay,
``_replay``, changes one assignment list in place, checking each step
before it hands it out and applying it on its |tau| entries.
:func:`check_resolution`, :meth:`Resolution.replay`,
:meth:`Resolution.steps` (so the DOT rendering),
:func:`decomposition_from_resolution` and :meth:`Partition.apply` (one
step) all walk it, so they refuse the same steps with the same ``"step i
..."`` message; :func:`cycle_is_p_cycle`, :func:`is_p_balanced` and
:func:`resolution_from_decomposition` (on its factors) apply the rule
without mutating.  The walk conversion ``_walk`` (on item tuples;
:func:`resolution_from_decomposition` wraps it) checks nothing: a factor
that is no p-cycle, or a wrong conjugate, makes a step that revisits a
cluster or a walk that misses q, which :func:`check_resolution` refuses.
``_walk`` keeps one prefix map, ``(s_{i-1} ... s_1)^-1``, as a dict over
the items moved so far, read with ``.get(x, x)`` and updated on a step's
entries.  Its inverse keeps one prefix map too, ``t1 ... t_{i-1}``, and
checks nothing past the replay: the conjugate of a step the replay passed
is a cycle of the start partition.  Building a walk ``t1 ... tk`` from its
cycles costs O(sum |ti|), and replaying, verifying or decomposing one on m
items O(m + sum |ti|).
:meth:`Partition.sizes` counts once per partition.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .graphs import Digraph, label_counts


class Permutation:
    """Bijection on ``0..m-1``, held by its moved points only.

    ``Permutation(image)`` builds one from its full image tuple;
    :meth:`from_moved` builds one from the map ``x -> pi(x)`` over its
    support without touching the fixed points.  ``image`` rebuilds the full
    tuple on demand.
    """

    __slots__ = ("m", "moved")

    def __init__(self, image) -> None:
        object.__setattr__(self, "m", len(image))
        object.__setattr__(self, "moved", {x: y for x, y in enumerate(image) if x != y})
        self.__post_init__()

    @classmethod
    def from_moved(cls, m: int, moved: dict[int, int]) -> "Permutation":
        """The permutation sending each key of ``moved`` to its value and
        fixing every other point; ``moved`` names moved points only."""
        pi = cls.__new__(cls)
        object.__setattr__(pi, "m", m)
        object.__setattr__(pi, "moved", moved)
        pi.__post_init__()
        return pi

    def __post_init__(self):
        # The bijection check, run by both constructors: O(|support|).
        moved = self.moved
        if not moved:
            return
        values = set(moved.values())
        if (
            len(values) != len(moved)
            or values != moved.keys()
            or min(moved) < 0
            or max(moved) >= self.m
            or any(x == y for x, y in moved.items())
        ):
            raise ValueError("image is not a bijection on 0..m-1")

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.m == other.m and self.moved == other.moved

    def __hash__(self) -> int:
        return hash((self.m, frozenset(self.moved.items())))

    def __repr__(self) -> str:
        return f"Permutation.from_moved({self.m}, {self.moved!r})"

    @property
    def image(self) -> tuple[int, ...]:
        """``(pi(0), ..., pi(m-1))``; the one O(m) accessor."""
        image = list(range(self.m))
        for x, y in self.moved.items():
            image[x] = y
        return tuple(image)

    def __call__(self, x: int) -> int:
        return self.moved.get(x, x)

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting at its smallest element,
        ordered by that element."""
        moved = self.moved
        seen: set[int] = set()
        out = []
        for x in sorted(moved):
            if x in seen:
                continue
            cyc = [x]
            seen.add(x)
            y = moved[x]
            while y != x:
                cyc.append(y)
                seen.add(y)
                y = moved[y]
            out.append(tuple(cyc))
        return out


def _fault(assign, items: tuple[int, ...]) -> str | None:
    """The one step rule: why the exchange ``items`` is no cycle of
    ``assign``, or None if it is."""
    if items and (min(items) < 0 or max(items) >= len(assign)):
        return "names an unknown item"
    if len(set(map(assign.__getitem__, items))) != len(items):
        return "revisits a cluster"
    return None


def _replay(assign: list[int], taus) -> Iterator[tuple[CycleSeq, list[int]]]:
    """Walk ``taus`` from ``assign``, changing that list in place.  Step
    ``i`` is checked before it is handed out, raising ``ValueError("step i
    <fault>")``, and applied when the caller asks for the next step."""
    for i, tau in enumerate(taus):
        items = tau.items
        fault = _fault(assign, items)
        if fault is not None:
            raise ValueError(f"step {i} {fault}")
        yield tau, assign
        if items:
            # Item x_j takes the old cluster of its successor x_{j+1}.
            first = assign[items[0]]
            for x, y in zip(items, items[1:]):
                assign[x] = assign[y]
            assign[items[-1]] = first


@dataclass(frozen=True)
class CycleSeq:
    """One cyclic exchange ``(x1 ... xt)`` sending each listed item to its
    successor.  Stored rotated so the smallest element comes first; length
    0 or 1 means the identity."""

    items: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.items)) != len(self.items):
            raise ValueError("cycle entries must be distinct")
        if len(self.items) >= 2:
            k = self.items.index(min(self.items))
            object.__setattr__(self, "items", self.items[k:] + self.items[:k])

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class Partition:
    """Assignment of items ``0..m-1`` to clusters ``0..n-1``."""

    n: int
    assign: tuple[int, ...]

    def __post_init__(self):
        assign = self.assign
        if assign and not 0 <= min(assign) <= max(assign) < self.n:
            for c in assign:   # names the first offender
                if not 0 <= c < self.n:
                    raise ValueError(f"cluster {c} out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.assign)

    def __call__(self, x: int) -> int:
        return self.assign[x]

    def sizes(self) -> tuple[int, ...]:
        """Cluster sizes indexed by cluster label."""
        return self._sizes

    @cached_property
    def _sizes(self) -> tuple[int, ...]:
        return tuple(label_counts(self.assign, self.n))

    def apply(self, tau: CycleSeq) -> "Partition":
        """One step of the replay: item ``x`` ends up in the old cluster of
        ``tau(x)``.  A step the replay refuses raises its ``ValueError``."""
        assign = list(self.assign)
        for _ in _replay(assign, (tau,)):
            pass
        return Partition(self.n, tuple(assign))


def is_p_balanced(pi: Permutation, p: Partition) -> bool:
    """True iff ``p`` is injective on the support of ``pi``."""
    if pi.m != p.m:
        raise ValueError(f"permutation on {pi.m} items, partition has {p.m}")
    return _fault(p.assign, tuple(pi.moved)) is None


def cycle_is_p_cycle(tau: CycleSeq, p: Partition) -> bool:
    return _fault(p.assign, tau.items) is None


def cdg(p: Partition, q: Partition) -> Digraph:
    """Cluster digraph with one arc per item: arc ``j`` runs
    ``p(j) -> q(j)``; items that do not move contribute loops."""
    if p.m != q.m or p.n != q.n:
        raise ValueError("partitions must share item and cluster counts")
    return Digraph(p.n, p.assign, q.assign)


@dataclass(frozen=True)
class Resolution:
    """A walk ``p -> p@t1 -> ...`` through partitions; each step must be a
    cycle of the partition it is applied to (checked by replay)."""

    start: Partition
    taus: tuple[CycleSeq, ...]

    def __len__(self) -> int:
        return len(self.taus)

    def replay(self) -> list[Partition]:
        """All intermediate partitions, beginning with ``start``.  An
        invalid step raises ``ValueError`` naming the step and its fault,
        as :func:`check_resolution` reports it."""
        n, assign = self.start.n, list(self.start.assign)
        out = [Partition(n, tuple(before)) for _, before in _replay(assign, self.taus)]
        return [*out, Partition(n, tuple(assign))]

    def steps(self) -> Iterator[tuple[CycleSeq, list[int]]]:
        """Each step with the assignment it is applied to, in O(m) memory:
        the one list is changed in place when the caller asks for the next
        step.  A step is checked before it is handed out; an invalid one
        raises ``ValueError`` naming the step and its fault."""
        return _replay(list(self.start.assign), self.taus)


def resolution_from_decomposition(p: Partition, sigmas) -> Resolution:
    """Turn a list of cycles of ``p`` into a replayable walk.

    Each returned step is the conjugate of the corresponding input cycle by
    the product of its predecessors, so that prefix products agree:
    ``t1 ... ti == si ... s1`` at every ``i``.  A factor that is no cycle
    of ``p`` raises ``ValueError``.
    """
    sigmas = [s.items for s in sigmas]
    for i, s in enumerate(sigmas):
        if _fault(p.assign, s) is not None:
            raise ValueError(f"factor {i} is not a p-cycle")
    return Resolution(p, _walk(sigmas))


def _walk(sigmas) -> tuple[CycleSeq, ...]:
    """The steps of :func:`resolution_from_decomposition`, from the cycles'
    item tuples; no factor is checked (a bad one makes a step that a replay
    refuses)."""
    inv: dict[int, int] = {}   # (s_{i-1} ... s_1)^-1
    taus = []
    for s in sigmas:
        # tau = acc^-1 s acc, acc = s_{i-1} ... s_1, sends inv(x) to
        # inv(s(x)); acc <- s acc then sends tau's items to s's successors.
        t_items = tuple([inv.get(x, x) for x in s])
        taus.append(CycleSeq(t_items))
        inv.update(zip((*s[1:], *s[:1]), t_items))
    return tuple(taus)


def decomposition_from_resolution(r: Resolution) -> list[CycleSeq]:
    """Inverse of :func:`resolution_from_decomposition`: recover cycles of
    the starting partition from a replayable walk."""
    run: dict[int, int] = {}   # T = t_1 ... t_{i-1}
    sigmas = []
    for tau, _ in r.steps():
        # sigma = T tau T^-1, so t_1 ... t_i == s_i ... s_1.  The replay has
        # checked tau in p @ T, so sigma is a cycle of p.
        s_items = tuple([run.get(x, x) for x in tau.items])
        sigmas.append(CycleSeq(s_items))
        run.update(zip(tau.items, (*s_items[1:], *s_items[:1])))   # T <- T tau
    return sigmas


def check_resolution(p: Partition, q: Partition, taus) -> str | None:
    """None if the steps walk from ``p`` to ``q`` within the promised
    :func:`resolution_length_bound` of ``p``'s cluster sizes; else the
    first failure."""
    if p.m != q.m or p.n != q.n:
        return "partitions live on different ground sets"
    assign = list(p.assign)
    try:
        for _ in _replay(assign, taus):
            pass
    except ValueError as e:
        return str(e)
    if tuple(assign) != q.assign:
        return "final partition differs from the target"
    bound = resolution_length_bound(p.sizes())
    if len(taus) > bound:
        return f"{len(taus)} steps exceed the bound {bound}"
    return None


def verify_resolution(p: Partition, q: Partition, taus) -> bool:
    return check_resolution(p, q, taus) is None


def two_largest(sizes) -> tuple[int, int]:
    """``(k1, k2)``: the two largest cluster sizes, 0 where absent."""
    top = heapq.nlargest(2, sizes) + [0, 0]
    return top[0], top[1]


def resolution_length_bound(sizes) -> int:
    """``k1 + ceil(k2/2)``, the length within which :func:`resolve` joins any
    two partitions with these cluster sizes."""
    k1, k2 = two_largest(sizes)
    return k1 + (k2 + 1) // 2
