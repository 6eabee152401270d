"""Artifact files: written whole or not at all, and read back with checks.

Every artifact the package writes goes through ``write_text``: the text is
written to a temporary file beside the target and then renamed over it
with ``os.replace``, which is atomic on POSIX file systems. A run that dies
or fails mid-write leaves the previous file (or none), never a truncated
one. The temporary file is not fsynced, so this guards against a failing
or killed process, not against a power loss.

Artifacts read back are JSON manifests (``read_manifest``) and CSV tables
of numbers (``read_table``). Each reader takes the caller's exception
class, and its errors name the file and the line or field at fault; a file
that is missing or cannot be read raises that class too.
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


def _read_text(path, error: type[Exception]) -> str:
    """The text of ``path``; a file that cannot be read, a missing one
    included, raises ``error`` naming it."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None


def read_manifest(path, fields: dict, error: type[Exception]) -> dict:
    """The JSON object in ``path``. Each key of ``fields`` must be present
    and hold a value its predicate accepts; otherwise raises ``error``."""
    try:
        manifest = json.loads(_read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise error(f"{path} is not a JSON object")
    for key, valid in fields.items():
        if key not in manifest:
            raise error(f"{path} has no field {key!r}")
        if not valid(manifest[key]):
            raise error(f"{path} field {key!r}: invalid value {manifest[key]!r}")
    return manifest


def read_table(path, header: str, error: type[Exception]) -> tuple[np.ndarray, list[int]]:
    """The rows below the ``header`` line of a CSV file as a ``(rows,
    columns)`` float64 array, and the file line of each row. Blank lines are
    skipped. A different header, a wrong field count or a non-numeric or
    non-finite field raises ``error`` naming the file, line and field."""
    first, *lines = _read_text(path, error).split("\n")
    if first != header:
        raise error(f"{path} line 1: header {first!r}, expected {header!r}")
    names = header.split(",")
    numbers = [number for number, line in enumerate(lines, start=2) if line.strip()]
    rows = [lines[number - 2] for number in numbers]
    # Each row is counted first (a short row and a long one could add up to
    # the right total), then all rows are split at once.
    if all(row.count(",") == len(names) - 1 for row in rows):
        try:
            fields = ",".join(rows).split(",") if rows else []
            table = np.array(fields, dtype=np.float64).reshape(len(rows), len(names))
            if np.isfinite(table).all():
                return table, numbers
        except ValueError:
            pass
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
