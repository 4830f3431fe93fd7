"""Every call of the output corpus writes the bytes recorded for it.

``record_output_corpus.py`` lists the calls and records
``output_corpus.json``; a change that moves any byte of any output fails
here, and the failure names the calls whose size changed, grown ones
first.  It is the one tier-1 record of the outputs, so it needs
``networkx`` (the graph atlas), and fails without it instead of skipping.
"""

from __future__ import annotations

import json

import pytest

from record_output_corpus import CORPUS, record, size_changes


def test_outputs_match_the_recorded_corpus(tmp_path):
    want = json.loads(CORPUS.read_text())
    got = record(tmp_path)
    if got["sha256"] != want["sha256"]:
        changes = "\n".join(size_changes(want["sizes"], got["sizes"]))
        pytest.fail(f"the outputs differ from the recorded corpus; sizes changed:\n{changes}")
    assert got["sizes"] == want["sizes"]
