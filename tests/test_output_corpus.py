"""Every call of the output corpus writes the bytes recorded for it.

``record_output_corpus.py`` lists the calls and records
``output_corpus.json``; a change that moves any byte of any output fails
here, and the failure names the calls whose output grew.
"""

from __future__ import annotations

import json

import pytest

pytest.importorskip("networkx")

from record_output_corpus import CORPUS, record


def test_outputs_match_the_recorded_corpus(tmp_path):
    want = json.loads(CORPUS.read_text())
    got = record(tmp_path)
    if got["sha256"] != want["sha256"]:
        grown = [name for name, size in got["sizes"].items() if size > want["sizes"].get(name, -1)]
        pytest.fail(f"the outputs differ from the recorded corpus; calls whose output grew: {grown}")
    assert got["sizes"] == want["sizes"]
