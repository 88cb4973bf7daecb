"""The one-pass writers of ``graphfix.serialize`` against the writers they
replaced, kept here verbatim as the oracle.

Where no string holds a character the old writers mishandled (a control
character U+0000-U+001F in JSON; a comma, a double quote or a line break
in a CSV cell), the output bytes must be equal.  Where one does, the new
output must read back, through ``json.loads`` and ``csv.reader``, to the
values the old output meant.  Tables whose cells are all floats take
``write_table``'s whole-table path; they must also match the reference,
and be byte for byte what the per-cell path (``json_dumps`` of the
records, ``csv_cell`` of each cell) writes.
"""

import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphfix.errors import InputError
from graphfix.serialize import csv_cell, json_dumps, write_table


# --- the old writers ---------------------------------------------------------

def _reference_format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _reference_atom(obj):
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return _reference_format_float(x)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    return None


def _reference_json_dumps(obj, indent: int = 2, _level: int = 0) -> str:
    """JSON text with 17-significant-digit floats."""
    atom = _reference_atom(obj)
    if atom is not None:
        return atom
    pad = " " * (indent * (_level + 1))
    close_pad = " " * (indent * _level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{_reference_atom(str(k))}: {_reference_json_dumps(v, indent, _level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{close_pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}{_reference_json_dumps(v, indent, _level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{close_pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reference_json_dump(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(_reference_json_dumps(obj))
        fh.write("\n")


def _reference_csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return _reference_format_float(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _reference_write_table(path, header, rows, fmt: str = "csv") -> None:
    """Write tabular output as CSV or as a JSON array of records."""
    if fmt == "json":
        records = [dict(zip(header, row)) for row in rows]
        _reference_json_dump(records, path)
        return
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_reference_csv_cell(v) for v in row) + "\n")


# --- inputs -------------------------------------------------------------------

# the characters the old writers mishandled, and a few they always handled
_SPECIAL = ["\x00", "\x01", "\x0b", "\x0c", "\x1f", ",", '"', "\n", "\r", "\r\n", "\t", "\\"]
_CONTROL = re.compile(r"[\x00-\x09\x0b-\x1f]")  # a raw "\n" in the old JSON is layout
_CSV_SPECIAL = re.compile(r'[",\r\n]')

_texts = st.one_of(
    st.text(max_size=6),
    st.lists(st.sampled_from(_SPECIAL + ["a", "b", "é", " "]), max_size=5).map("".join),
)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 1e300, 5e-324]),
)
_ints = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1, 10**30]),
)
_scalars = st.one_of(
    _floats,
    _ints,
    _texts,
    st.none(),
    st.booleans(),
    _floats.map(np.float64),
    st.floats(width=32, allow_nan=True).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.int64, np.bool_]),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
)
_documents = st.recursive(
    _scalars | _arrays,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_texts, children, max_size=4),
    ),
    max_leaves=20,
)
_headers = st.lists(st.one_of(st.sampled_from(["b", "u_star", "a,b", "x\x0cy"]), _texts), max_size=4)
_rows = st.lists(st.lists(_scalars | st.lists(_scalars, max_size=2), max_size=5), max_size=5)


# --- properties ---------------------------------------------------------------

def _assert_same_json(new: str, old: str) -> None:
    """Equal bytes, or, where the old text holds a raw control character
    inside a string, the same values read back from valid JSON."""
    assert json.loads(new) == json.loads(old, strict=False)
    if not _CONTROL.search(old):
        assert new == old


@settings(max_examples=100, deadline=None)
@given(_documents)
def test_json_dumps_matches_reference(doc):
    _assert_same_json(json_dumps(doc), _reference_json_dumps(doc))


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@settings(max_examples=150, deadline=None)
@given(_headers, _rows)
def test_json_table_matches_reference(table_dir, header, rows):
    new, old = table_dir / "new.json", table_dir / "old.json"
    write_table(new, header, rows, "json")
    _reference_write_table(old, header, rows, "json")
    _assert_same_json(new.read_text(), old.read_text())


@settings(max_examples=150, deadline=None)
@given(_headers, _rows)
def test_csv_table_matches_reference(table_dir, header, rows):
    new, old = table_dir / "new.csv", table_dir / "old.csv"
    write_table(new, header, rows, "csv")
    _reference_write_table(old, header, rows, "csv")
    cells = [list(header)] + [[_reference_csv_cell(v) for v in row] for row in rows]
    if not any(_CSV_SPECIAL.search(cell) for row in cells for cell in row):
        assert new.read_bytes() == old.read_bytes()
    with open(new, newline="") as fh:
        back = list(csv.reader(fh))
    # a line holding one empty cell reads back as no cells
    assert back == [row if row != [""] else [] for row in cells]


def test_writers_refuse_what_the_old_ones_refused():
    for bad in (object(), 1j, np.array(1.0), {"a": {1, 2}}):
        with pytest.raises(TypeError):
            _reference_json_dumps(bad)
        with pytest.raises(TypeError):
            json_dumps(bad)


# --- tables of floats -----------------------------------------------------------

_FLOAT_CELLS = [0.0, -0.0, 5e-324, -5e-324, 0.1, 1e308, -1e308, 1.7976931348623157e308]
_NONFINITE = [math.nan, -math.nan, math.inf, -math.inf]
_NOT_FLOATS = [[v] for v in (1, True, 2**64 + 1, None, "x", np.float64(0.1), np.float32(0.1))]
# equal keys (1 == 1.0 == True), keys a CSV header must quote or JSON must
# escape, "%" for the row template, and lone surrogates
_KEYS = [1, 1.0, True, "1", "b", "u_star", "a,b", 'say "x"', "x\x0cy", "100%", "%s", "\udcff", "a\ud800b"]


@st.composite
def _float_tables(draw):
    width = draw(st.integers(1, 5))
    header = draw(st.lists(st.sampled_from(_KEYS) | _texts, min_size=width, max_size=width))
    cells = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_FLOAT_CELLS)
    if draw(st.integers(0, 3)) == 0:
        cells |= st.sampled_from(_NONFINITE)
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=50))
    if rows and draw(st.integers(0, 3)) == 0:
        # one cell that is not exactly a float, or one row of another width
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
        rows[i][j:j + 1] = draw(st.sampled_from(_NOT_FLOATS + [[], [0.5, 0.5]]))
    return header, rows


def _reference_table_text(path, header, rows, fmt):
    """What the reference writes, or, for a JSON key with a lone surrogate
    (which it cannot encode), its text with the escape ``json_dumps`` writes."""
    try:
        _reference_write_table(path, header, rows, fmt)
    except UnicodeEncodeError:
        if fmt == "csv":
            raise
        text = _reference_json_dumps([dict(zip(header, row)) for row in rows]) + "\n"
        return text.encode("utf-8", "backslashreplace").decode("utf-8")
    return path.read_text()


@settings(max_examples=300, deadline=None)
@given(_float_tables())
def test_float_tables_match_reference(table_dir, table):
    header, rows = table
    new, old = table_dir / "new.json", table_dir / "old.json"
    write_table(new, header, rows, "json")
    _assert_same_json(new.read_text(), _reference_table_text(old, header, rows, "json"))
    records = [dict(zip(header, row)) for row in rows]
    assert new.read_bytes() == (json_dumps(records) + "\n").encode()

    new, old = table_dir / "new.csv", table_dir / "old.csv"
    try:
        _reference_write_table(old, header, rows, "csv")
    except (TypeError, UnicodeEncodeError) as exc:  # a key that is no str, a lone surrogate
        with pytest.raises(type(exc)):
            write_table(new, header, rows, "csv")
        return
    write_table(new, header, rows, "csv")
    text = "".join(line + "\n" for line in [",".join(map(csv_cell, header))] +
                   [",".join(map(csv_cell, row)) for row in rows])
    assert new.read_bytes() == text.encode()
    if not any(_CSV_SPECIAL.search(key) for key in header):
        assert new.read_bytes() == old.read_bytes()
    with open(new, newline="") as fh:
        assert next(csv.reader(fh)) == (header if header != [""] else [])


def test_write_table_refuses_an_unknown_format(tmp_path):
    for fmt in ("JSON", "xml", ""):
        with pytest.raises(InputError, match="csv or json"):
            write_table(tmp_path / "t.json", ["a"], [[1.0]], fmt)
    assert not (tmp_path / "t.json").exists()
