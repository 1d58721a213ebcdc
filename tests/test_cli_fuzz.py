"""Seeded fuzzing of the command line: spec files and arguments.

Whatever the spec file holds and whatever the flags say, ``main`` returns or
exits with 0, 1 or 2, and no exception other than ``SystemExit`` (argparse's
usage errors) escapes.  Indices stay at most 14, so every example is cheap.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from chainreg.cli import main

SMALL = st.integers(-3, 16)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    SMALL,
    st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)
VERTEX = st.one_of(SMALL, st.booleans(), st.text(max_size=2))


@st.composite
def chain_spec(draw):
    """A spec object that is well formed about half the time, else flawed in
    one place: r, one endpoint, one edge or the edge list out of range, equal,
    empty or not an integer."""
    r = draw(st.integers(2, 8))
    edges = []
    for _ in range(draw(st.integers(1, 5))):
        i = draw(st.integers(1, r - 1))
        j = draw(st.integers(i + 1, r))
        edges.append([i, j] if draw(st.booleans()) else [j, i])
    spec = {"r": r, "edges": edges}
    flaw = draw(st.sampled_from(["none", "none", "none", "r", "endpoint", "edge", "edges"]))
    k = draw(st.integers(0, len(edges) - 1))
    if flaw == "r":
        spec["r"] = draw(st.one_of(st.integers(-2, 0), JUNK))
    elif flaw == "endpoint":
        bad = st.one_of(st.integers(-2, r + 3), st.text(max_size=2), JUNK)
        edges[k][draw(st.integers(0, 1))] = draw(bad)
    elif flaw == "edge":
        edges[k] = draw(st.one_of(st.lists(VERTEX, max_size=3), JUNK))
    elif flaw == "edges":
        spec["edges"] = draw(st.one_of(JUNK, st.just([])))
    return spec


@st.composite
def payload(draw):
    """Spec file bytes: a chain spec most of the time, else other JSON, text
    or bytes that need not be UTF-8."""
    kind = draw(st.sampled_from(["spec", "spec", "spec", "object", "json", "text", "bytes"]))
    if kind == "spec":
        return json.dumps(draw(chain_spec())).encode()
    if kind == "object":
        keys = st.sampled_from(["r", "edges", "extra"])
        return json.dumps(draw(st.dictionaries(keys, JUNK, max_size=3))).encode()
    if kind == "json":
        return json.dumps(draw(st.one_of(JUNK, st.lists(SMALL, max_size=3)))).encode()
    if kind == "text":
        return draw(st.text(max_size=8)).encode()
    return draw(st.binary(max_size=8))


INDEX = st.integers(-3, 14)


@st.composite
def argv_tail(draw):
    """Flags for a drawn subcommand; a required flag is sometimes left out."""
    verb = draw(st.sampled_from(
        ["expand", "classify", "indmatch", "reg", "anticycle", "quasisat", "sweep"]
    ))
    flags = ["--format", draw(st.sampled_from(["text", "json"]))]
    if verb in ("expand", "indmatch", "anticycle", "reg"):
        flags += ["--n", str(draw(INDEX))]
    if verb == "sweep":
        lo = draw(INDEX)
        hi = min(14, lo + draw(st.integers(-1, 3)))
        flags += ["--from", str(lo), "--to", str(hi)]
    if verb in ("reg", "sweep"):
        flags += ["--field", str(draw(st.sampled_from([2, 3, 5, 2, 3, -2, 0, 1, 4])))]
        flags += ["--oracle-cap", str(draw(st.sampled_from([22, 14, 22, 6, 0, -1])))]
    if len(flags) > 2 and draw(st.integers(0, 7)) == 7:
        del flags[2:4]
    return verb, flags


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=payload(), command=argv_tail())
def test_main_exits_0_1_or_2(tmp_path_factory, data, command):
    path = tmp_path_factory.getbasetemp() / "fuzz-spec.json"
    path.write_bytes(data)
    verb, flags = command
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([verb, str(path), *flags])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (data, verb, flags, err.getvalue())
