"""Fuzz of the command line over arbitrary JSON documents.

Whatever the input files hold, a verb ends in exit 0 (verified output),
1 (verification failure) or 2 (usage or input error), never in an
uncaught exception.  Integers are small, so that a well-formed document
describes a small instance or graph, or far above ``jsonio.MAX_COUNT``, so
that a count drawn from them is refused before anything is sized by it.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyresolve.cli import main
from polyresolve.jsonio import MAX_COUNT

WIRE_KEYS = ("n", "m", "edges", "p", "p_prime", "bound", "family", "type", "taus", "kind", "parts")
WIRE_WORDS = ("resolution", "odd_cover", "path", "cycle", "linear_forest")

small_ints = st.integers(-2, 8)
huge_ints = st.integers(MAX_COUNT + 1, 10**18)
scalars = (
    st.none()
    | st.booleans()
    | small_ints
    | huge_ints
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.text(max_size=3)
    | st.sampled_from(WIRE_WORDS)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(WIRE_KEYS), inner, max_size=4),
    max_leaves=24,
)
# Documents shaped like the wire formats, with arbitrary values under their keys.
int_rows = st.lists(st.lists(small_ints, max_size=4), max_size=8)
wire_documents = st.dictionaries(
    st.sampled_from(WIRE_KEYS),
    json_values | int_rows | st.lists(small_ints, max_size=10) | huge_ints,
    max_size=len(WIRE_KEYS),
)
documents = wire_documents | json_values


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(verb=st.sampled_from(["resolve", "oddcover", "arboricity", "verify"]), doc=documents, other=documents)
def test_cli_exit_codes_on_arbitrary_json(tmp_path, capsys, verb, doc, other):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    first.write_text(json.dumps(doc))
    second.write_text(json.dumps(other))
    out = str(tmp_path / "out.json")
    if verb == "resolve":
        argv = ["resolve", "--instance", str(first), "--out", out]
    elif verb in ("oddcover", "arboricity"):
        argv = [verb, "--graph", str(first), "--out", out]
    else:
        argv = ["verify", "--instance", str(second), "--graph", str(second), str(first), "--out", out]
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()
