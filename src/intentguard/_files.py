"""The file boundary: one reader and one JSON decoder that every loader
calls, atomic replacement of a text file that every writer calls, and the
reason an error message gives for a file that failed."""

from __future__ import annotations

import json
import os
from pathlib import Path


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at ``path``, with no newline translated.

    Spec and trace lines end at ``\\n`` and take a ``\\r`` before it as a
    blank, and JSON takes ``\\r`` as a blank, so a ``\\r\\n`` file reads the
    same as a ``\\n`` one, while a lone ``\\r`` stays the ordinary character it
    is in a Text constant.  An unreadable file raises its ``OSError``, and text
    that is not UTF-8 a ``UnicodeDecodeError``.  The file is read in one
    unbuffered call, past the buffer and newline layers of a text-mode read,
    which cost more than the read itself on the small files a loader reads.
    """
    with open(path, "rb", buffering=0) as handle:
        data = handle.read()
    return data.decode("utf-8")


#: The json module's own scanner (its C one where built), and its blank run.
#: The scanner keeps no state between calls: it clears its key memo on return.
_scan_once = json.decoder.JSONDecoder().scan_once
_blanks = json.decoder.WHITESPACE.match


def parse_json(text: str) -> object:
    """Decode JSON ``text``.  Every decoder failure, an integer or nesting past
    Python's limits included, is a ``ValueError`` with the decoder's message.

    Text that starts with a value and ends with nothing but JSON blanks after
    it, as a trace line does, is decoded by one call of the scanner that
    ``json.loads`` itself calls, past the wrappers ``json.loads`` adds around
    it.  Everything else goes to ``json.loads``: a leading blank, a byte order
    mark, data after the value, or any failure, so that ``json.loads`` alone
    decides every error and its message.
    """
    try:
        value, end = _scan_once(text, 0)
        if _blanks(text, end).end() == len(text):
            return value
    except Exception:
        pass
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def failure_reason(exc: BaseException) -> str:
    """The reason to print for a file that could not be read, decoded or
    written: an ``OSError``'s ``strerror`` (``No such file or directory``,
    without the errno and the path it repeats), else the exception's text."""
    return getattr(exc, "strerror", None) or str(exc)


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
