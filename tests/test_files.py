"""Every file the library writes is replaced atomically: a write that fails
leaves the old bytes and no temporary file behind.  Every file it reads is
read by ``_files.read_text``: UTF-8, with no newline translated, and failing
as a text-mode read fails."""

from __future__ import annotations

import os

import pytest

from intentguard import PredicateMemory, load_schema, load_trace, save_schema, write_trace
from intentguard._files import read_text

from conftest import FIXTURES

SCHEMA = load_schema(FIXTURES / "restaurant" / "schema.json")

WRITERS = {
    "memory": lambda path: PredicateMemory().save(path),
    "schema": lambda path: save_schema(SCHEMA, path),
    "trace": lambda path: write_trace(load_trace(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl", SCHEMA), path),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch, write):
    target = tmp_path / "out.json"
    target.write_bytes(b"old bytes")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write(target)
    assert target.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_write_replaces_the_old_file(tmp_path, write):
    target = tmp_path / "out.json"
    target.write_bytes(b"old bytes")
    write(target)
    assert target.read_bytes() != b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_new_file_mode_follows_the_umask(tmp_path):
    previous = os.umask(0o022)
    try:
        PredicateMemory().save(tmp_path / "memory.json")
    finally:
        os.umask(previous)
    assert (tmp_path / "memory.json").stat().st_mode & 0o777 == 0o644


def text_mode_read(path):
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "raw",
    [b"", b"one\ntwo\n", "caf\u00e9 \u6c49 \u2028 \x0c\n".encode(), b"no final newline"],
    ids=["empty", "lf", "unicode", "unterminated"],
)
def test_lf_text_reads_as_a_text_mode_read_does(tmp_path, raw):
    path = tmp_path / "in.txt"
    path.write_bytes(raw)
    assert read_text(path) == text_mode_read(path) == raw.decode("utf-8")


def test_crlf_text_keeps_its_carriage_returns(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"a\r\nb\r\n\r\nlone\rcr\n")
    assert read_text(path) == "a\r\nb\r\n\r\nlone\rcr\n"
    # the kept \r is the only difference from a text-mode read
    assert text_mode_read(path) == "a\nb\n\nlone\ncr\n"
    assert read_text(path).replace("\r\n", "\n").replace("\r", "\n") == text_mode_read(path)


def test_a_byte_order_mark_is_kept(tmp_path):
    path = tmp_path / "in.json"
    path.write_bytes(b"\xef\xbb\xbf{}")
    assert read_text(path) == text_mode_read(path) == "\ufeff{}"


@pytest.mark.parametrize("raw", [b"\xff", b"ok \xc3", b"\xed\xa0\x80", b"line\r\n\xe2\x82"],
                         ids=["bad-start", "truncated", "surrogate", "after-crlf"])
def test_invalid_utf8_fails_with_the_same_message(tmp_path, raw):
    path = tmp_path / "in.txt"
    path.write_bytes(raw)
    with pytest.raises(UnicodeDecodeError) as ours:
        read_text(path)
    with pytest.raises(UnicodeDecodeError) as theirs:
        text_mode_read(path)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("name", ["directory", "missing", "missing/child"])
def test_an_unreadable_path_fails_with_the_same_os_error(tmp_path, name):
    (tmp_path / "directory").mkdir()
    path = tmp_path / name
    with pytest.raises(OSError) as ours:
        read_text(path)
    with pytest.raises(OSError) as theirs:
        text_mode_read(path)
    assert type(ours.value) is type(theirs.value)
    assert (ours.value.errno, ours.value.strerror) == (theirs.value.errno, theirs.value.strerror)
