"""Seeded mutation fuzzing of the CLI over the restaurant fixtures.

Each case mutates one input (schema, spec, trace, mock script, predicate
memory file or case manifest), as text or as a JSON value, and runs the
command that reads it.  Whatever the input, the command must end in exit code
0, 1 or 2, never in an escaped exception or a printed traceback.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timezone

from click.testing import CliRunner

from intentguard.cli import main
from intentguard.dsl import parse_specification
from intentguard.memory import PredicateMemory

from conftest import FIXTURES

SEED = 4
CASES = 300
INSTRUCTION = "Reserve restaurant R before 7 PM. If the restaurant is not available at that time, do nothing."

ORIGINALS = {
    "schema": (FIXTURES / "restaurant" / "schema.json").read_text(encoding="utf-8"),
    "spec": (FIXTURES / "restaurant" / "reservation.vsa").read_text(encoding="utf-8"),
    "trace": (FIXTURES / "restaurant" / "traces" / "happy_path.jsonl").read_text(encoding="utf-8"),
    "fixture": (FIXTURES / "mock" / "encode_repair.json").read_text(encoding="utf-8"),
}
MEMORY_CASES = 100
MANIFEST_CASES = 100
COMMANDS = {
    "schema": ("verify", "check", "lint"),
    "spec": ("verify", "check"),
    "trace": ("verify",),
    "fixture": ("encode",),
}
FRAGMENTS = (
    '"', "\\", "#", "{", "}", "[", "]", ",", ":", "null", "true", "-1", "1e999", "NaN", "²", "٣", " ",
    "\n", "->", "&", "(", ")", "=", "~=", "not in", "Today", "25:00", "2025-13-40", "\x00", "é",
)
JSON_VALUES = (None, True, 0, -1, 1.5, 1e999, "", "x", "²", "Today", "19:00", [], {}, [1], {"a": 1})


def mutate_text(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        action = rng.random()
        if action < 0.4:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at:]
        elif action < 0.7:
            text = text[:at] + text[at + rng.randint(1, 8):]
        elif action < 0.9:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at + rng.randint(1, 4):]
        else:
            lines = text.splitlines(keepends=True)
            lines.insert(rng.randint(0, len(lines)), rng.choice(lines))
            text = "".join(lines)
    return text


def mutate_json_value(rng: random.Random, value):
    """Replace one randomly chosen node of a parsed JSON document."""
    if isinstance(value, dict) and value and rng.random() < 0.8:
        key = rng.choice(list(value))
        return {**value, key: mutate_json_value(rng, value[key])}
    if isinstance(value, list) and value and rng.random() < 0.8:
        at = rng.randrange(len(value))
        return value[:at] + [mutate_json_value(rng, value[at])] + value[at + 1 :]
    if isinstance(value, str) and rng.random() < 0.5:
        return mutate_text(rng, value)
    return rng.choice(JSON_VALUES)


def mutate(rng: random.Random, target: str, text: str) -> str:
    if target == "spec" or rng.random() < 0.4:
        return mutate_text(rng, text)
    if target == "trace":
        lines = text.splitlines()
        at = rng.randrange(len(lines))
        lines[at] = json.dumps(mutate_json_value(rng, json.loads(lines[at])), ensure_ascii=False)
        return "\n".join(lines) + "\n"
    return json.dumps(mutate_json_value(rng, json.loads(text)), ensure_ascii=False)


def command_args(command: str, paths: dict[str, str]) -> list[str]:
    if command == "lint":
        return ["schema", "lint", paths["schema"]]
    if command == "check":
        return ["check", "--spec", paths["spec"], "--schema", paths["schema"]]
    if command == "verify":
        return ["verify", "--spec", paths["spec"], "--schema", paths["schema"], "--trace", paths["trace"]]
    memory = ["--memory", paths["memory"]] if "memory" in paths else []
    return ["encode", "--instruction", INSTRUCTION, "--schema", paths["schema"],
            "--backend", "mock", "--fixture", paths["fixture"], *memory]


def assert_clean_exit(result, where: str) -> None:
    assert result.exit_code in (0, 1, 2), where
    assert result.exception is None or isinstance(result.exception, SystemExit), f"{where}\n{result.exception!r}"
    assert "Traceback" not in result.output, where


def test_mutated_inputs_never_escape_as_exceptions(tmp_path):
    rng = random.Random(SEED)
    runner = CliRunner()
    exit_codes = []
    for case in range(CASES):
        target = rng.choice(list(ORIGINALS))
        command = rng.choice(COMMANDS[target])
        texts = dict(ORIGINALS, **{target: mutate(rng, target, ORIGINALS[target])})
        paths = {}
        for name, text in texts.items():
            path = tmp_path / f"{case}_{name}"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        result = runner.invoke(main, command_args(command, paths))
        assert_clean_exit(result, f"case {case}: {command} with mutated {target}:\n{texts[target]!r}")
        exit_codes.append(result.exit_code)
    assert {0, 1, 2} <= set(exit_codes)


def test_mutated_memory_files_never_escape_as_exceptions(tmp_path):
    memory = PredicateMemory()
    memory.record_success(
        "restaurant_demo", INSTRUCTION, parse_specification(ORIGINALS["spec"]),
        now=datetime(2025, 3, 14, tzinfo=timezone.utc),
    )
    original = json.dumps(memory.to_dict())
    rng = random.Random(SEED)
    runner = CliRunner()
    exit_codes = []
    for case in range(MEMORY_CASES):
        text = mutate(rng, "memory", original)
        paths = {"schema": str(FIXTURES / "restaurant" / "schema.json"),
                 "fixture": str(FIXTURES / "mock" / "encode_repair.json"),
                 "memory": str(tmp_path / f"{case}_memory.json")}
        (tmp_path / f"{case}_memory.json").write_text(text, encoding="utf-8")
        result = runner.invoke(main, command_args("encode", paths))
        assert_clean_exit(result, f"case {case}: encode with mutated memory:\n{text!r}")
        exit_codes.append(result.exit_code)
    assert {0, 1} <= set(exit_codes)


def test_mutated_case_manifests_never_escape_as_exceptions(tmp_path):
    shipped = FIXTURES / "eval_cases" / "01_reservation_happy.json"
    manifest = json.loads(shipped.read_text(encoding="utf-8"))
    for key in ("schema", "trace", "spec"):
        manifest[key] = str((shipped.parent / manifest[key]).resolve())
    original = json.dumps(manifest, indent=2)
    rng = random.Random(SEED)
    runner = CliRunner()
    exit_codes = []
    for case in range(MANIFEST_CASES):
        text = mutate(rng, "manifest", original)
        cases_dir = tmp_path / str(case)
        cases_dir.mkdir()
        (cases_dir / "case.json").write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["eval", "--cases", str(cases_dir)])
        assert_clean_exit(result, f"case {case}: eval with mutated manifest:\n{text!r}")
        exit_codes.append(result.exit_code)
    assert {0, 1} <= set(exit_codes)
