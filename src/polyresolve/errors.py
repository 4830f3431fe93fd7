"""Exception hierarchy shared by all polyresolve modules, and the search
cap behind ``TooLarge``."""

from __future__ import annotations

import os

DEFAULT_STATE_CAP = 100_000


def state_cap(cap: int | None) -> int:
    """The search cap: ``cap`` if given, else ``POLYRESOLVE_CAP``, else
    100,000.  ``ValueError`` if the cap given or ``POLYRESOLVE_CAP`` is not
    an integer of at least 1."""
    if cap is not None:
        if cap < 1:
            raise ValueError(f"cap must be a positive integer, got {cap!r}")
        return cap
    env = os.environ.get("POLYRESOLVE_CAP")
    if not env:
        return DEFAULT_STATE_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"POLYRESOLVE_CAP must be a positive integer, got {env!r}")
    return cap


class PolyresolveError(Exception):
    """Base class for all errors raised by this package."""


class SizeMismatch(PolyresolveError):
    """Operands live on different ground sets (items or clusters)."""


class ShapeMismatch(PolyresolveError):
    """Two partitions do not have identical cluster-size vectors."""


class NotEulerian(PolyresolveError):
    """A vertex has odd degree (undirected) or unbalanced in/out degree."""


class ThresholdViolated(PolyresolveError):
    """More than one vertex exceeds the decomposition threshold."""


class NotPolycycle(PolyresolveError):
    """Edge set has a component that is not a cycle."""


class NotAMatching(PolyresolveError):
    """Edge set touches some vertex twice."""


class NotBalanced(PolyresolveError):
    """Permutation support hits some cluster more than once."""


class SupportsOverlap(PolyresolveError):
    """Two permutations expected to have disjoint supports do not."""


class BadShape(PolyresolveError):
    """Cluster-size vector outside the generator's domain."""


class NotTransversal(PolyresolveError):
    """Matching does not pick exactly one edge from each component."""


class NotEdgeDisjoint(PolyresolveError):
    """Two edge sets share an edge where disjointness is required."""


class NotLinearForest(PolyresolveError):
    """Edge set has a component that is not a path."""


class PreconditionViolated(PolyresolveError):
    """An argument fails a documented precondition."""


class NoCommonVertex(PolyresolveError):
    """Two polycycles share no vertex."""


class CrossingPairMissing(PolyresolveError):
    """No two disjoint pairs of intersecting components exist."""


class TooLarge(PolyresolveError):
    """Input exceeds the configured search cap."""


class NotPCycle(PolyresolveError):
    """A cycle in a decomposition revisits a cluster.

    Carries the offending position so batch converters can report it.
    """

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"factor {index} is not a p-cycle")


class InvalidResolution(PolyresolveError):
    """A replayed resolution step is not a cycle of the current partition."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"step {index} is invalid")
