"""Every file the library writes is replaced atomically: a write that fails
leaves the old bytes and no temporary file behind.  Every file it reads is
read by ``_files.read_text``: UTF-8, with no newline translated, and failing
as a text-mode read fails.  Every JSON text is decoded by
``_files.parse_json``, which gives what ``json.loads`` gives."""

from __future__ import annotations

import json
import os

import pytest

from intentguard import PredicateMemory, load_schema, load_specification, load_trace, save_schema, write_trace
from intentguard._files import failure_reason, parse_json, read_text

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


def test_a_spec_file_keeps_a_lone_carriage_return_in_a_text_constant(tmp_path):
    # a text-mode read would end the line at the \r, inside the string
    path = tmp_path / "spec.vsa"
    path.write_bytes(b'RestaurantInfo(name = "A\rB") -> Done\r\n')
    (constraint,) = load_specification(path).rules[0].predicates[0].constraints
    assert constraint.constant.value == "A\rB"


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


def test_a_failure_is_named_by_its_reason(tmp_path):
    with pytest.raises(OSError) as missing:
        read_text(tmp_path / "missing")
    assert failure_reason(missing.value) == "No such file or directory"
    (tmp_path / "latin1").write_bytes(b"caf\xe9")
    with pytest.raises(UnicodeDecodeError) as undecodable:
        read_text(tmp_path / "latin1")
    # an error with no strerror, or an empty one, gives its own text
    for exc in (undecodable.value, OSError("no reason given"), ValueError("bad value")):
        assert failure_reason(exc) == str(exc)


def decoded(decode, text):
    """``("value", repr)`` of what ``decode(text)`` returns, or the type and
    message of what it raises; a ``RecursionError`` counts as the
    ``ValueError`` that :func:`parse_json` turns it into."""
    try:
        return "value", repr(decode(text))
    except RecursionError as exc:
        return ValueError, str(exc)
    except Exception as exc:
        return type(exc), str(exc)


BLANKS = {"space": " ", "tab": "\t", "cr": "\r", "lf": "\n", "mixed": " \r\n\t"}
VALUES = {"object": '{"a": [1, 2.5, "x"]}', "list": "[]", "string": '"text"', "minus-zero": "-0", "huge-float": "1e400",
          "true": "true", "null": "null", "repeated-key": '{"k": 1, "k": 2}'}
EDGES = {
    "bom-object": "\ufeff{}", "bom-number": "\ufeff1", "object-then-word": "{} x", "two-numbers": "1 2",
    "two-objects": '{"a": 1}{}', "extra-bracket": "[1] ]", "empty": "", "blank": " ", "blanks": " \t\r\n",
    "nan": "NaN", "minus-infinity": "-Infinity", "infinity": "Infinity", "non-finite-list": "[NaN, -Infinity]",
    "5000-digits": "1" * 5000, "minus-5000-digits": "-" + "9" * 5000,
    "nested-100000": "[" * 100_000 + "]" * 100_000, "open-objects-100000": '{"a": ' * 100_000,
    "missing-value": '{"a": }', "trailing-comma": "[1,]", "unterminated": '"unterminated',
    "bad-escape": '"bad \\x escape"', "truncated-literal": "tru", "raw-tab": '"a\tb"', "single-quotes": "{'a': 1}",
    "lone-surrogate": '"\\ud800"', "leading-zero": "0123", "bare-point": "1.", "bare-minus": "-",
}


def json_inputs() -> dict[str, str]:
    """Every text the differential test decodes, by a short name: each line
    of the fixture ``.jsonl`` files, each fixture ``.json`` file, the values
    above bare and with blanks around them, and the edge cases."""
    found = {}
    for path in sorted(FIXTURES.rglob("*.json*")):
        name, text = path.relative_to(FIXTURES).as_posix(), read_text(path)
        if path.suffix == ".jsonl":
            found.update((f"{name}:{n}", line) for n, line in enumerate(text.split("\n"), start=1))
        else:
            found[name] = text
    for value_name, value in VALUES.items():
        found[value_name] = value
        for blank_name, blank in BLANKS.items():
            found[f"{blank_name}-{value_name}"] = blank + value
            found[f"{value_name}-{blank_name}"] = value + blank
            found[f"{blank_name}-{value_name}-{blank_name}"] = blank + value + blank
    return found | EDGES


JSON_INPUTS = json_inputs()


def test_json_inputs_hold_every_fixture():
    files = sorted(FIXTURES.rglob("*.json"))
    lines = [name for name in JSON_INPUTS if ".jsonl:" in name]
    assert len(files) >= 8 and all(path.relative_to(FIXTURES).as_posix() in JSON_INPUTS for path in files)
    assert len(lines) >= 20 and "" in (JSON_INPUTS[name] for name in lines)  # each file's final newline


@pytest.mark.parametrize("text", JSON_INPUTS.values(), ids=JSON_INPUTS.keys())
def test_parse_json_decodes_as_json_loads_does(text):
    assert decoded(parse_json, text) == decoded(json.loads, text)
