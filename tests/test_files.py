"""Every file the library writes is replaced atomically: a write that fails
leaves the old bytes and no temporary file behind."""

from __future__ import annotations

import os

import pytest

from intentguard import PredicateMemory, load_schema, load_trace, save_schema, write_trace

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
