"""The chain reader: rows read one at a time give what a plain parse gives.

``load_chain`` reads a chain's ``rows`` one row at a time into one float64
matrix (``jsonio._scan_matrix``).  The plain route is ``json.loads`` on the
whole file, which ``_load_json`` takes when it is given no value scanner:
for every file the two routes must build the same matrix bit for bit, or
raise the same error with the same message.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoscale.markov  # noqa: F401  (imported before any memory is traced)
from infoscale import jsonio
from infoscale.errors import InfoscaleError
from infoscale.jsonio import load_chain

ENTRIES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1e308, -1e308]),
)
LAYOUTS = st.sampled_from([
    {"separators": (",", ":")},
    {},
    {"indent": 2},
])


def _rows_read_by_rows(path) -> np.ndarray:
    return jsonio._load_json(path, jsonio._scan_matrix)["rows"]


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    data=st.data(),
    layout=LAYOUTS,
    labels=st.booleans(),
)
def test_rows_match_a_plain_parse_bit_for_bit(tmp_path_factory, shape, data, layout, labels):
    rows = data.draw(st.lists(
        st.lists(ENTRIES, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    ))
    doc = {"labels": list(range(shape[0])), "rows": rows} if labels else {"rows": rows}
    path = tmp_path_factory.mktemp("chain") / "chain.json"
    path.write_text(json.dumps(doc, **layout))
    expected = np.array(json.loads(path.read_text())["rows"], dtype=float)
    got = _rows_read_by_rows(path)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_non_finite_and_integer_entries_match_a_plain_parse(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text('{"rows": [[NaN, Infinity, -Infinity], [-0, 9007199254740993, '
                    '18446744073709551617], [1e400, -1e400, -0.0]]}')
    expected = np.array(json.loads(path.read_text())["rows"], dtype=float)
    assert _rows_read_by_rows(path).tobytes() == expected.tobytes()


def _outcome(load, path):
    """What ``load(path)`` gives: its matrix and labels, or its error."""
    try:
        chain = load(path)
    except InfoscaleError as exc:
        return type(exc), str(exc)
    return chain.rows.tobytes(), chain.rows.shape, chain.labels


ROW_CASES = {
    "ragged-short": '{"rows": [[0.5, 0.5], [1.0]]}',
    "ragged-long": '{"rows": [[1.0], [0.5, 0.5]]}',
    "deeper": '{"rows": [[[0.5, 0.5]], [[0.5, 0.5]]]}',
    "deeper-later": '{"rows": [[0.5, 0.5], [0.5, [0.5]]]}',
    "boolean": '{"rows": [[true, false], [0.5, 0.5]]}',
    "boolean-later": '{"rows": [[0.5, 0.5], [0.5, true]]}',
    "null": '{"rows": [[0.5, null], [0.5, 0.5]]}',
    "string": '{"rows": [["0.5", 0.5], [0.5, 0.5]]}',
    "nan": '{"rows": [[NaN, 0.5], [0.5, 0.5]]}',
    "no-rows": '{"rows": []}',
    "empty-row": '{"rows": [[]]}',
    "empty-rows": '{"rows": [[], []]}',
    "scalar": '{"rows": 0.5}',
    "flat": '{"rows": [0.5, 0.5]}',
    "row-then-scalar": '{"rows": [[1.0], 1.0]}',
    "beyond-float-range": '{"rows": [[0.5, 0.5], [1' + "0" * 400 + ', 0]]}',
    "not-stochastic": '{"rows": [[0.5, 0.4], [0.4, 0.6]]}',
    "not-square": '{"rows": [[0.5, 0.5]]}',
    "labels-as-matrix": '{"rows": [[0.5, 0.5], [0.5, 0.5]], "labels": [[1, 2], [3, 4]]}',
    "duplicate-last-valid": '{"rows": [[0.5, 0.4]], "rows": [[0.7, 0.3], [0.4, 0.6]]}',
    "duplicate-last-invalid": '{"rows": [[0.7, 0.3], [0.4, 0.6]], "rows": [[true]]}',
    "trailing-data": '{"rows": [[1.0]]} [',
    "trailing-comma-row": '{"rows": [[0.5, 0.5],]}',
    "trailing-comma-object": '{"rows": [[1.0]],}',
    "missing-comma": '{"rows": [[0.5 0.5]]}',
    "missing-row-comma": '{"rows": [[1.0] [1.0]]}',
    "truncated": '{"rows": [[0.5, 0.5], [0.5',
    "truncated-object": '{"rows": [[1.0]]',
    "unclosed-row": '{"rows": [[0.5, 0.5}',
    "missing-colon": '{"rows" [[1.0]]}',
    "top-level-array": '[[1.0]]',
    "empty-file": '',
    "byte-order-mark": '\ufeff{"rows": [[1.0]]}',
    "multi-line": '{\n  "rows": [\n    [0.5, 0.5],\n    [0.5, 0.5,]\n  ]\n}',
    "valid": ' \n{"labels": ["a", 2], "rows": [[0.7, 0.3], [0.4, 0.6]]}\n ',
}


@pytest.mark.parametrize("text", ROW_CASES.values(), ids=ROW_CASES.keys())
def test_rows_fail_as_a_plain_parse_fails(tmp_path, monkeypatch, text):
    path = tmp_path / "chain.json"
    path.write_text(text)
    read_by_rows = _outcome(load_chain, path)
    monkeypatch.setattr(jsonio, "_scan_matrix", None)  # load_chain then runs json.loads
    assert read_by_rows == _outcome(load_chain, path)
    if isinstance(read_by_rows[1], str):
        assert read_by_rows[1].startswith(f"{path}: ")


def test_invalid_json_in_rows_reports_its_line_and_column(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(ROW_CASES["multi-line"])
    message = "invalid JSON at line 4, column 15: Expecting value"
    with pytest.raises(InfoscaleError, match=f"^{re.escape(str(path))}: {message}$"):
        load_chain(path)


def test_chain_rows_are_not_held_as_python_floats(tmp_path):
    # 400 x 400 entries "0.0025": a parse to lists holds a Python float and a
    # list slot per entry (32 bytes) next to the text (8), or next to the
    # matrix (8), a peak of about 42 bytes per entry; read by rows, the text
    # and the matrix read, or that matrix and the chain's copy, about 18.
    n = 400
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"rows": [[0.0025] * n] * n}))
    tracemalloc.start()
    try:
        chain = load_chain(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.size == n
    assert peak < 30 * n * n, f"{peak / n**2:.1f} bytes per entry"
