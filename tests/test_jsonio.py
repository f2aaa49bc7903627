"""The streamed reader gives what a plain parse of the whole file gives.

``_load_json`` parses a file as it reads it in pieces of ``jsonio._CHUNK``
characters, and ``load_chain`` reads a chain's ``rows`` one row at a time
into one float64 matrix.  The plain route is ``json.loads`` on the whole
file, which ``_load_json`` falls back to on input the streamed reader does
not take; the tests reach it for every input by making the streamed reader
(``jsonio._read_object``) give up at once.  For every file the two routes
must build the same matrix bit for bit, or raise the same error with the
same message, wherever the pieces end.
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
    """The streamed ``rows`` as a float64 matrix; a square matrix of numbers
    is read by rows, anything else is left to the plain route (a list)."""
    rows = jsonio._load_json(path, "rows")["rows"]
    assert isinstance(rows, np.ndarray) == (len(rows) == len(rows[0]))
    return np.asarray(rows, dtype=float)


def _give_up(stream, matrix):
    raise jsonio._Fallback


# A piece of one character, and pieces that end inside keys, rows and numbers.
CHUNKS = [1, 3, 7]


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    data=st.data(),
    layout=LAYOUTS,
    labels=st.booleans(),
    chunk=st.sampled_from(CHUNKS + [jsonio._CHUNK]),
)
def test_rows_match_a_plain_parse_bit_for_bit(tmp_path_factory, shape, data, layout, labels,
                                              chunk):
    rows = data.draw(st.lists(
        st.lists(ENTRIES, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    ))
    doc = {"labels": list(range(shape[0])), "rows": rows} if labels else {"rows": rows}
    path = tmp_path_factory.mktemp("chain") / "chain.json"
    path.write_text(json.dumps(doc, **layout))
    expected = np.array(json.loads(path.read_text())["rows"], dtype=float)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jsonio, "_CHUNK", chunk)
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
    streamed = {}
    for chunk in CHUNKS + [jsonio._CHUNK]:
        monkeypatch.setattr(jsonio, "_CHUNK", chunk)
        streamed[chunk] = _outcome(load_chain, path)
    monkeypatch.setattr(jsonio, "_read_object", _give_up)  # load_chain then runs json.loads
    plain = _outcome(load_chain, path)
    assert streamed == dict.fromkeys(streamed, plain)
    if isinstance(plain[1], str):
        assert plain[1].startswith(f"{path}: ")


@pytest.mark.parametrize("chunk", [1, 4, 8, 9])
def test_a_number_cut_mid_digit_reads_on(tmp_path, monkeypatch, chunk):
    # A first piece of 8 characters is '{"d": 12', which ends inside 12345
    # at a valid number; pieces of 1 and 4 end there too, and one of 9 later.
    path = tmp_path / "model.json"
    path.write_text('{"d": 12345, "rows": [[0.25, 0.75], [0.5, 0.5]]}')
    monkeypatch.setattr(jsonio, "_CHUNK", chunk)
    data = jsonio._load_json(path, "rows")
    assert data["d"] == 12345
    assert data["rows"].tolist() == [[0.25, 0.75], [0.5, 0.5]]


def test_the_file_is_closed_on_every_route(tmp_path):
    # A file left open warns (ResourceWarning), which the test settings
    # make an error; this checks the streamed route and each fallback.
    path = tmp_path / "chain.json"
    for text in ('{"rows": [[1.0]]}', '{"rows": [[true]]}', '{"rows": [[1.0]]',
                 b'{"rows": [[1.0]]}\xff'):
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        _outcome(load_chain, path)


def test_one_long_row_is_not_a_square_matrix(tmp_path):
    # A square matrix of its length would be 8 TB: the reader leaves the
    # file to the plain route, whose matrix the chain rejects as not square.
    path = tmp_path / "chain.json"
    path.write_text('{"rows": [[' + "0," * (10**6 - 1) + "1]]}")
    with pytest.raises(InfoscaleError, match="must be square"):
        load_chain(path)


def test_invalid_json_in_rows_reports_its_line_and_column(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(ROW_CASES["multi-line"])
    message = "invalid JSON at line 4, column 15: Expecting value"
    with pytest.raises(InfoscaleError, match=f"^{re.escape(str(path))}: {message}$"):
        load_chain(path)


def test_chain_rows_are_not_held_as_python_floats(tmp_path):
    # 400 x 400 entries "0.0025": a parse to lists holds a Python float and a
    # list slot per entry (32 bytes) next to the text (8), or next to the
    # matrix (8), a peak of about 42 bytes per entry.  Streamed, only the
    # matrix (8) and one piece of the file are held, and the chain takes the
    # matrix without a copy: about 10, with the checks' boolean arrays.
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
    assert peak < 12 * n * n, f"{peak / n**2:.1f} bytes per entry"
