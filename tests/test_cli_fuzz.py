"""Fuzz of the command line over arbitrary JSON documents and arguments.

Whatever the input files hold, a verb ends in exit 0 (verified output),
1 (verification failure, with its ``"pass": false`` report) or 2 (usage or
input error), never in an uncaught exception; ``gen``, ``lowerbound`` and
``diameter`` end in 0 or 2.  Integers are small, so that a well-formed document
describes a small instance or graph, or far above ``jsonio.MAX_COUNT``, so
that a count drawn from them is refused before anything is sized by it.
The verbs that take no file, ``gen``, ``lowerbound`` and ``diameter``, get
each flag they accept with drawn values: shapes small, empty, negative,
not integers or above ``MAX_COUNT``; seeds, families and caps that argparse
refuses; ``--out`` and ``--dot`` in a missing directory or on a directory;
an unknown flag; and ``POLYRESOLVE_CAP`` valid, below 1 or not an integer,
set and restored in each example.  ``--exact`` always comes with a cap of
at most 1,000, by ``--cap`` or ``POLYRESOLVE_CAP``, since at the default
cap one exact diameter of eight clusters takes seconds.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from unittest import mock

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
    code = main(argv)
    stdout = capsys.readouterr().out
    assert code in (0, 1, 2)
    if code == 1:
        # A failed check is reported: ``verify`` writes its report to
        # --out, a construction its failed check to stdout.
        report = json.loads(Path(out).read_text() if verb == "verify" else stdout)
        assert report["pass"] is False


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


# POLYRESOLVE_CAP values: valid, below 1, not integers, empty (the default).
small_env_caps = st.integers(-2, 1000).map(str) | st.sampled_from(["abc", "2.5", "1e3"])
env_caps = st.none() | st.just("") | st.just("100000") | small_env_caps


@st.composite
def argument_lists(draw, tmp_path):
    """An argv and the POLYRESOLVE_CAP to run it under (None: unset)."""
    verb = draw(st.sampled_from(["gen", "lowerbound", "diameter"]))
    argv = [verb]
    env_cap = draw(env_caps)
    if verb == "gen":
        argv.append(f"--family={draw(st.sampled_from([*sorted(_GEN_FAMILIES), 'nonsense']))}")
        argv.append(f"--seed={draw(st.integers(-(10**20), 10**20) | st.sampled_from(['1.5', 'x', '']))}")
    else:
        argv.append(f"--shape={draw(shape_texts)}")
    if verb == "diameter":
        cap = draw(st.none() | st.integers(-2, 1000) | st.sampled_from(["many", "2.5"]))
        if cap is not None:
            argv.append(f"--cap={cap}")
        if draw(st.booleans()):
            argv.append("--exact")
            # An exact diameter at the default cap can take seconds.
            if cap is None:
                env_cap = draw(small_env_caps)
    else:
        # A writable file, a file in a missing directory, or a directory.
        for flag, name in (("--out", "out.json"), ("--dot", "out.dot")):
            target = draw(st.sampled_from([None, tmp_path / name, tmp_path / "missing" / name, tmp_path]))
            if target is not None:
                argv.append(f"{flag}={target}")
        if draw(st.booleans()):
            argv.append("--show-loops")
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--frobnicate", "--kind=path", "--shape=3,3", "-x"])))
    return argv, env_cap


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exit_codes_on_drawn_arguments(tmp_path, capsys, data):
    argv, env_cap = data.draw(argument_lists(tmp_path))
    with mock.patch.dict(os.environ):
        os.environ.pop("POLYRESOLVE_CAP", None)
        if env_cap is not None:
            os.environ["POLYRESOLVE_CAP"] = env_cap
        # None of these verbs has a check that can fail.
        assert main(argv) in (0, 2)
    capsys.readouterr()
