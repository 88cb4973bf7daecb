"""Report serialization with full-precision numeric output, and the one
reader of JSON input files.

Every float is written with 17 significant decimal digits, which is
always enough to round-trip an IEEE double exactly.  The JSON emitter is
hand-rolled because the stdlib encoder offers no hook for float
formatting; NaN/inf (legal nowhere in JSON) become null.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import InputError


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _atom(obj: Any) -> str | None:
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
        return format_float(x)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    return None


def json_dumps(obj: Any, indent: int = 2, _level: int = 0) -> str:
    """JSON text with 17-significant-digit floats."""
    atom = _atom(obj)
    if atom is not None:
        return atom
    pad = " " * (indent * (_level + 1))
    close_pad = " " * (indent * _level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{_atom(str(k))}: {json_dumps(v, indent, _level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{close_pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}{json_dumps(v, indent, _level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{close_pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def load_json(path) -> Any:
    """Parse a JSON input file; unreadable or malformed files raise InputError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def json_dump(obj: Any, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_dumps(obj))
        fh.write("\n")


def csv_cell(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def write_table(path, header: list[str], rows: list[list], fmt: str = "csv") -> None:
    """Write tabular output as CSV or as a JSON array of records."""
    if fmt == "json":
        records = [dict(zip(header, row)) for row in rows]
        json_dump(records, path)
        return
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(csv_cell(v) for v in row) + "\n")
