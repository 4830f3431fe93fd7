"""The search cap and ``TooLarge``, the error raised past it.

The cap is the one size guard of the BFS oracles and of the exhaustive
cover search, so of ``min_odd_cover_exhaustive`` and ``oddcover --exact``
too.  Every other input error in the package is a plain ``ValueError``;
``TooLarge`` subclasses it, so the CLI maps both to exit 2, and
``oracles.min_resolution_length`` catches it by name to fall back to the
bidirectional search.  A failed check of a certificate is an
``AssertionError`` (exit 1).  A construction checks only its output, with
the verifier's checker.  Its private cores (``resolve``'s walk, the
covers' pair cores and forest split) re-check none of their own steps
with an input error, so a fault in them shows as that failed check, or
as the ``AssertionError`` of a proof invariant, not as an input error."""

from __future__ import annotations

import os

DEFAULT_STATE_CAP = 100_000


def state_cap(cap: int | None) -> int:
    """The search cap: ``cap`` if given, else ``POLYRESOLVE_CAP``, else
    100,000.  ``ValueError`` if the cap given is not an ``int`` (a ``bool``
    is refused) of at least 1, or ``POLYRESOLVE_CAP`` is not an integer of
    at least 1."""
    if cap is not None:
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
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


class TooLarge(ValueError):
    """Input exceeds the configured search cap."""
