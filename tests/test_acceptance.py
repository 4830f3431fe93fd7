"""Acceptance gate: every shipped guarantee re-checked end to end.

Each criterion runs exactly as the ``polyresolve selftest`` command runs it
and prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""

from __future__ import annotations

import pytest

from polyresolve import acceptance
from polyresolve.acceptance import CRITERIA, run_criterion

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


@pytest.mark.parametrize("name", NAMES)
def test_criterion(name):
    report = run_criterion(name)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.check}: {report.detail} ({report.elapsed_ms} ms)")
    assert report.passed, f"{report.check}: {report.detail}"
