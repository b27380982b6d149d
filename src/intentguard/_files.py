"""Atomic replacement of a text file."""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` so that a reader sees either the
    old file or the whole new one.

    The text goes to a fresh file in the target's directory, is flushed to
    disk, and is then renamed over the target.  The fresh file is created with
    mode 0o666 less the umask, as a plain write would create a new file.  On
    any error the fresh file is removed and the target is left as it was.
    """
    target = Path(path)
    temporary = target.with_name(f".{target.name}.{secrets.token_hex(8)}.tmp")
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
