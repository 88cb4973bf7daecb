"""Report serialization with full-precision numeric output, and the one
reader of JSON input files.

Every float is written with 17 significant decimal digits, which is
always enough to round-trip an IEEE double exactly; NaN and inf, legal
nowhere in JSON, become null there (CSV writes nan and inf).  The stdlib
encoder cannot format floats this way, so both writers are our own, and
each makes one pass: it appends string pieces to one list and joins them
once.  ``_encode`` tests a value's exact type (float, str, int, None,
dict, list) before subclasses and numpy scalars, so the common cases
cost one or two comparisons; a JSON table is the array of its records,
written by the same encoder.  JSON strings are escaped by the stdlib's
``encode_basestring`` (every control character U+0000-U+001F among
them), lone surrogates as ``\\udcXX``, and a CSV cell that holds a
comma, a double quote or a line break is quoted as RFC 4180 says.

``write_table`` has a second path for the common table of floats (the
FBVP solution, the q-Bernstein limit).  When every row is a list as long
as the header and every cell has type exactly ``float`` (and, for JSON,
the header keys are distinct, so no record merges two of them, and every
cell is finite, so none is written as null), the whole table is one
``%`` format: a per-row template, repeated once per row, over all its
cells.  It writes the bytes the per-cell path would.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from json.encoder import encode_basestring as _json_string
from typing import Any

import numpy as np

from .errors import InputError

_CSV_SPECIAL = re.compile(r'[",\r\n]')


def _encode(obj: Any, out: list[str], pad: str, step: str) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``pad`` is the newline
    and indent of its own line, ``step`` one more level of indent."""
    kind = type(obj)
    if kind is float:
        out.append(f"{obj:.17g}" if obj - obj == 0.0 else "null")  # x - x is NaN for NaN, inf
    elif kind is str:
        out.append(_json_string(obj))
    elif kind is int:
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif kind is dict or isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + step
        sep = "{" + inner
        for key, value in obj.items():
            out.append(sep + _json_string(str(key)) + ": ")
            _encode(value, out, inner, step)
            sep = "," + inner
        out.append(pad + "}")
    elif kind is list or isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        inner = pad + step
        sep = "[" + inner
        for value in seq:
            out.append(sep)
            _encode(value, out, inner, step)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        _encode(float(obj), out, pad, step)
    elif isinstance(obj, str):
        out.append(_json_string(obj))
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")


def json_dumps(obj: Any) -> str:
    """JSON text, indented by two spaces a level, with 17-significant-digit
    floats.  A lone surrogate, which UTF-8 cannot encode (``os.fsdecode``
    makes them of the bytes of a file name that are not UTF-8), is written
    as its ``\\udcXX`` escape."""
    out: list[str] = []
    _encode(obj, out, "\n", "  ")
    return _escape_surrogates("".join(out))


def _escape_surrogates(text: str) -> str:
    if text.isascii():
        return text
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def load_json(path) -> Any:
    """Parse a UTF-8 JSON input file; unreadable, undecodable or malformed
    files raise InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def json_dump(obj: Any, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_dumps(obj) + "\n")


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with its quotes doubled, when it
    holds a comma, a double quote or a line break (RFC 4180)."""
    if _CSV_SPECIAL.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def csv_cell(value: Any) -> str:
    if type(value) is float or isinstance(value, np.floating):
        return f"{value:.17g}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    return _csv_field(str(value))


def _float_cells(header: list, rows: list) -> list[float] | None:
    """The cells of a non-empty table of float cells in row order, or None.

    Each row must be a list as long as the header, and each cell exactly a
    float (a subclass, a numpy scalar or an int takes the per-cell path).
    """
    if type(rows) is not list or not rows or not header:
        return None
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {len(header)}:
        return None
    cells = list(chain.from_iterable(rows))
    return cells if set(map(type, cells)) == {float} else None


def write_table(path, header: list[str], rows: list[list], fmt: str = "csv") -> None:
    """Write tabular output as CSV or as a JSON array of records."""
    if fmt not in ("csv", "json"):
        raise InputError(f"unknown table format {fmt!r}; use csv or json")
    cells = _float_cells(header, rows)
    if fmt == "json":
        # distinct keys, and all cells finite (a sum that overflows falls back)
        if cells is not None and len(set(header)) == len(header) and (s := sum(cells)) - s == 0.0:
            keys = [_escape_surrogates(_json_string(str(k))).replace("%", "%%") for k in header]
            record = "{\n    " + ",\n    ".join(key + ": %.17g" for key in keys) + "\n  }"
            text = "[\n  " + ",\n  ".join([record] * len(rows)) % tuple(cells) + "\n]\n"
        else:
            text = json_dumps([dict(zip(header, row)) for row in rows]) + "\n"
    else:
        lines = [",".join(map(_csv_field, header))]
        if cells is None:
            lines.extend(",".join(map(csv_cell, row)) for row in rows)
        else:
            lines.append("\n".join([",".join(["%.17g"] * len(header))] * len(rows)) % tuple(cells))
        text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
