"""Artifact files that are either whole or absent.

Every artifact the package writes goes through ``write_text``: the text is
written to a temporary file beside the target and then renamed over it
with ``os.replace``, which is atomic on POSIX file systems. A run that dies
or fails mid-write leaves the previous file (or none), never a truncated
one. The temporary file is not fsynced, so this guards against a failing
or killed process, not against a power loss.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


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
