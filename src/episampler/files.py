"""Artifact files: written whole or not at all, and read back with checks.

Every artifact the package writes goes through ``write_text``: the text is
written to a temporary file beside the target and then renamed over it
with ``os.replace``, which is atomic on POSIX file systems. A run that dies
or fails mid-write leaves the previous file (or none), never a truncated
one. The temporary file is not fsynced, so this guards against a failing
or killed process, not against a power loss.

CSV tables are written by ``write_table``. Artifacts read back are JSON
manifests (``read_manifest``) and CSV tables of numbers (``read_table``).
Each reader takes the caller's exception class, and its errors name the
file and the line or field at fault; a file that is missing or cannot be
read raises that class too.

The field rules here (``of_type``, ``integer``, ``positive``, ``number``,
``list_of``, ``or_none``) are the package's one set of value predicates: the
config, both manifests and ``result.json`` are checked with tables of them,
a table's own ranges and choices written on top. A bool is not an integer
and a number is finite. ``check_fields`` checks a record against a table.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np


def write_text(path, text: str) -> None:
    """Replace ``path`` with ``text``; on failure remove the temporary file
    and leave ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_table(path, header: str, rows) -> None:
    """``header`` and a line per row of ``rows``, fields joined by commas: a
    float as ``repr(float(v))``, the shortest text that reads back to its
    bits, ``None`` as an empty field and anything else with ``str``."""
    lines = [header]
    for row in rows:
        lines.append(",".join(map(_field, row)))
    write_text(path, "\n".join(lines) + "\n")


def _field(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)


def _read_text(path, error: type[Exception]) -> str:
    """The text of ``path``; a file that cannot be read, a missing one
    included, raises ``error`` naming it."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None


def of_type(kind: type):
    """The values whose type is exactly ``kind``."""
    return lambda v: type(v) is kind


integer = of_type(int)


def positive(v) -> bool:
    return integer(v) and v > 0


def number(v) -> bool:
    """A finite int or float; not a bool."""
    return integer(v) or (type(v) is float and math.isfinite(v))


def list_of(rule):
    return lambda v: isinstance(v, list) and all(map(rule, v))


def or_none(rule):
    return lambda v: v is None or rule(v)


def check_fields(record: dict, fields: dict, error: type[Exception], where) -> None:
    """Each key of ``fields`` must be in ``record`` and hold a value its rule
    accepts; otherwise raises ``error`` naming ``where`` and the key."""
    for key, rule in fields.items():
        if key not in record:
            raise error(f"{where} has no field {key!r}")
        if not rule(record[key]):
            raise error(f"{where} field {key!r}: invalid value {record[key]!r}")


def read_manifest(path, fields: dict, error: type[Exception]) -> dict:
    """The JSON object in ``path``, checked by ``check_fields``."""
    try:
        manifest = json.loads(_read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise error(f"{path} is not a JSON object")
    check_fields(manifest, fields, error, path)
    return manifest


def _parse_lines(text: str, width: int) -> np.ndarray | None:
    """The lines of ``text`` as one ``(lines, width)`` float64 array, from
    one parse of all fields; None unless every line holds ``width`` finite
    numbers and ends in a newline.

    With each newline made a field of its own, the fields run line by line,
    each line's numbers then "\n". Dropping every ``width + 1``-th field
    leaves only numbers exactly when every line holds ``width`` of them; a
    line of another width leaves a "\n", which no parse reads as a number.
    That checks every line's field count at once (a short line and a long
    one could add up to the right total).
    """
    fields = text.replace("\n", ",\n,").split(",")
    if fields.pop() != "" or len(fields) != text.count("\n") * (width + 1):
        return None
    del fields[width :: width + 1]
    try:
        table = np.array(fields, dtype=np.float64).reshape(-1, width)
    except ValueError:
        return None
    return table if np.isfinite(table).all() else None


def read_table(path, header: str, error: type[Exception]) -> tuple[np.ndarray, list[int]]:
    """The rows below the ``header`` line of a CSV file as a ``(rows,
    columns)`` float64 array, and the file line of each row. Blank lines are
    skipped. A different header, a wrong field count or a non-numeric or
    non-finite field raises ``error`` naming the file, line and field."""
    first, _, body = _read_text(path, error).partition("\n")
    if first != header:
        raise error(f"{path} line 1: header {first!r}, expected {header!r}")
    names = header.split(",")
    table = _parse_lines(body, len(names))
    if table is not None:
        return table, list(range(2, len(table) + 2))
    # Only a file with a blank line, no final newline or a bad field gets here.
    lines = body.split("\n")
    numbers = [number for number, line in enumerate(lines, start=2) if line.strip()]
    rows = [lines[number - 2] for number in numbers]
    table = _parse_lines("\n".join(rows + [""]), len(names))
    if table is not None:
        return table, numbers
    for number, row in zip(numbers, rows):
        fields = row.split(",")
        if len(fields) != len(names):
            raise error(f"{path} line {number}: {len(fields)} fields, expected {len(names)}")
        for name, text in zip(names, fields):
            try:
                problem = None if math.isfinite(float(text)) else "non-finite"
            except ValueError:
                problem = "non-numeric"
            if problem:
                raise error(f"{path} line {number} field {name!r}: {problem} value {text.strip()!r}")
    raise AssertionError(f"{path}: no bad field found")
