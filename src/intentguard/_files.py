"""The file boundary: one JSON decoder that every loader calls, and atomic
replacement of a text file that every writer calls."""

from __future__ import annotations

import json
import os
from pathlib import Path


def parse_json(text: str) -> object:
    """Decode JSON ``text``.  Every decoder failure, an integer or nesting past
    Python's limits included, is a ``ValueError`` with the decoder's message."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` so that a reader sees either the
    old file or the whole new one.

    The text goes to a fresh file in the target's directory, is flushed to
    disk, and is then renamed over the target.  The fresh file is created with
    mode 0o666 less the umask, as a plain write would create a new file.  On
    any error the fresh file is removed and the target is left as it was.
    """
    target = Path(path)
    temporary = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
