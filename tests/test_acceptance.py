"""Acceptance gate: every shipped guarantee re-checked end to end.

Each criterion runs exactly as the ``polyresolve selftest`` command runs it
and prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""

from __future__ import annotations

import pytest

from polyresolve import acceptance
from polyresolve.acceptance import CRITERIA, run_criterion
from polyresolve.oddcover import OddCoverCert
from polyresolve.perms import CycleSeq, Resolution, resolution_length_bound
from polyresolve.resolve import resolve

NAMES = [name for name, _, _ in CRITERIA]


def test_criteria_list_is_complete():
    assert len(CRITERIA) == 11
    assert len(set(NAMES)) == 11


def test_budgets_are_held_as_data():
    budgets = {name: budget for name, _, budget in CRITERIA if budget is not None}
    assert budgets == {"upper-bound-10k": 30, "exact-diameters": 10,
                       "pp36-diameter-5": 600, "delta4-odd-covers": 60}


def test_a_criterion_past_its_budget_fails(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", (("slow", lambda: None, 0),
                                                 ("free", lambda: None, None),
                                                 ("wrong", lambda: "it broke", 0)))
    slow = run_criterion("slow")
    assert not slow.passed
    assert slow.detail.startswith("took ") and slow.detail.endswith("s, budget is 0s")
    assert run_criterion("free").passed
    assert run_criterion("wrong").detail == "it broke"


def _padded_resolve(p, q):
    """``resolve``'s walk with a swap and its undoing repeated in front,
    so it still ends at q but takes more steps than the bound."""
    res = resolve(p, q)
    swap = CycleSeq((0, next(x for x in range(p.m) if p(x) != p(0))))
    return Resolution(p, (swap, swap) * resolution_length_bound(p.sizes()) + res.taus)


def _one_edge_paths(g, *kind):
    """A valid path cover of g by its single edges: past the bound on
    every Eulerian graph with an edge, and on the first graph of each
    criterion that uses it."""
    return OddCoverCert("path", tuple(frozenset({e}) for e in sorted(g.edges)))


@pytest.mark.parametrize("name, stubbed, stub", [
    ("k2-bound-2k", "resolve", _padded_resolve),
    ("pp36-diameter-5", "resolve", _padded_resolve),
    ("delta4-odd-covers", "path_odd_cover_delta4", _one_edge_paths),
    ("eulerian-bounds", "odd_cover_eulerian", _one_edge_paths),
    ("general-path-covers", "path_odd_cover_general", _one_edge_paths),
])
def test_a_certificate_past_its_bound_fails_its_criterion(monkeypatch, name, stubbed, stub):
    # The criteria leave the length and part-count bounds to the verifier.
    monkeypatch.setattr(acceptance, stubbed, stub)
    report = run_criterion(name)
    assert not report.passed
    assert "exceed the bound" in report.detail


@pytest.mark.parametrize("name", NAMES)
def test_criterion(name):
    report = run_criterion(name)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.check}: {report.detail} ({report.elapsed_ms} ms)")
    assert report.passed, f"{report.check}: {report.detail}"
