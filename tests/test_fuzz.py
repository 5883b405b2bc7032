"""Malformed documents and vectors through the CLI: a result or one error line, never a traceback.

Every verb that reads a document is driven in-process with small fuzzed
input on stdin. A run must return 0, 2 or 3 (1 is kept for a failed
verification); a nonzero run writes exactly one stderr line starting
``error: ``. Integer entries and ``p/q`` strings reach about 10^12 in size,
exponent strings such as ``"1e999999999"`` must be refused at once, arrays
nest up to 100000 deep, and ``verify`` runs under a small line cap.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from centorbits import cli

BIG = st.integers(-(10**12), 10**12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    BIG,
    st.builds("{}/{}".format, BIG, BIG),
    st.floats(width=16),
    st.sampled_from(["0", "1", "-2", "1/2", "-3/4", "1/0", "x", "", " ", "1.5", "2/", "0x1",
                     "1e3", "2E-2", "1e999999999"]),
)
ENTRIES = st.one_of(SCALARS, st.lists(st.integers(0, 1), max_size=2))
MATRICES = st.one_of(ENTRIES, st.lists(st.one_of(ENTRIES, st.lists(ENTRIES, max_size=3)), max_size=3))
BLOCKS = st.one_of(ENTRIES, st.lists(st.one_of(ENTRIES, st.lists(st.integers(-1, 3), max_size=3)), max_size=3))
EIGENVALUES = st.one_of(ENTRIES, st.text(max_size=3))
JORDAN = st.one_of(
    ENTRIES,
    st.lists(
        st.one_of(ENTRIES, st.fixed_dictionaries({"eigenvalue": EIGENVALUES, "blocks": BLOCKS})),
        max_size=3,
    ),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
DOCUMENTS = st.one_of(
    st.fixed_dictionaries({"matrix": MATRICES}),
    st.fixed_dictionaries({"jordan": JORDAN}),
    st.dictionaries(st.sampled_from(["matrix", "jordan", "other"]), st.one_of(MATRICES, JORDAN), max_size=3),
    JSON_VALUES,
)
# Arrays nested up to 100000 deep, open or closed, alone or under a field:
# deeper than any recursive parser's stack
NESTED = st.builds(
    lambda field, depth, closed: field[0] + "[" * depth + ("]" * depth + field[1] if closed else ""),
    st.sampled_from([("", ""), ('{"matrix": ', "}"), ('{"matrix": [[', "]]}"),
                     ('{"jordan": [{"eigenvalue": ', ', "blocks": [[1, 1]]}]}')]),
    st.integers(0, 100_000),
    st.booleans(),
)
TEXTS = st.one_of(DOCUMENTS.map(json.dumps), st.text(max_size=12), NESTED)
VECTORS = st.text(alphabet="0123456789/-,. x", max_size=12)


@st.composite
def invocations(draw):
    verb = draw(st.sampled_from(["analyze", "lattice", "classify", "verify"]))
    argv = [verb, "-"]
    if verb == "lattice":
        argv += ["--format", draw(st.sampled_from(["json", "dot"]))]
    elif verb == "classify":
        argv.append("--vector=" + draw(VECTORS))
    elif verb == "verify":
        argv += ["--prime", draw(st.sampled_from(["1", "2", "3", "4"])), "--cap", "2000"]
    return argv, draw(TEXTS)


@given(invocations())
@settings(deadline=None, max_examples=300)
def test_malformed_input_ends_in_a_result_or_one_error_line(invocation):
    argv, text = invocation
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert err.getvalue().endswith("\n") and "Traceback" not in err.getvalue()
