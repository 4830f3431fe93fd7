"""Fuzz of the command line over arbitrary JSON documents and arguments.

Whatever the input files hold, a verb ends in exit 0 (verified output),
1 (verification failure) or 2 (usage or input error), never in an
uncaught exception.  Integers are small, so that a well-formed document
describes a small instance or graph, or far above ``jsonio.MAX_COUNT``, so
that a count drawn from them is refused before anything is sized by it.
The verbs that take no file, ``gen``, ``lowerbound`` and ``diameter``, get
each flag they accept with drawn values: shapes small, empty, negative,
not integers or above ``MAX_COUNT``, and ``--exact`` always with a
``--cap`` of at most 1,000, since at the default cap one exact diameter
of eight clusters takes seconds.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyresolve.cli import _GEN_FAMILIES, main
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


def _joined(ks) -> str:
    return ",".join(map(str, ks))


# Non-increasing shapes of four or more clusters are the hard instance's domain.
shape_texts = (
    st.lists(st.integers(0, 6), min_size=4, max_size=8).map(lambda ks: _joined(sorted(ks, reverse=True)))
    | st.lists(st.integers(0, 6), max_size=8).map(_joined)
    | st.lists(st.integers(-3, 3), min_size=1, max_size=5).map(_joined)
    | st.lists(huge_ints, min_size=1, max_size=3).map(_joined)
    | st.text(alphabet="0123456789,.- x", max_size=8)
)


@st.composite
def argument_lists(draw, dot_path):
    verb = draw(st.sampled_from(["gen", "lowerbound", "diameter"]))
    argv = [verb]
    if verb == "gen":
        argv += ["--family", draw(st.sampled_from(sorted(_GEN_FAMILIES)))]
        argv.append(f"--seed={draw(st.integers(-(10**20), 10**20))}")
    else:
        argv.append(f"--shape={draw(shape_texts)}")
    if verb == "diameter":
        if draw(st.booleans()):
            argv += ["--exact", f"--cap={draw(st.integers(-2, 1000))}"]
    else:
        if draw(st.booleans()):
            argv += ["--dot", dot_path]
        if draw(st.booleans()):
            argv.append("--show-loops")
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exit_codes_on_drawn_arguments(tmp_path, capsys, data):
    argv = data.draw(argument_lists(str(tmp_path / "out.dot")))
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()
