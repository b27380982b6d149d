from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from intentguard import __version__, parse_specification
from intentguard._files import read_text, write_text_atomic
from intentguard.cli import main

from conftest import FIXTURES

RESTAURANT = FIXTURES / "restaurant"
SPEC = str(RESTAURANT / "reservation.vsa")
SCHEMA = str(RESTAURANT / "schema.json")
INSTRUCTION = "Reserve restaurant R before 7 PM. If the restaurant is not available at that time, do nothing."
# JSON values that json.loads cannot read although the text is well formed:
# an integer past Python's integer digit limit (a plain ValueError) and
# nesting past the recursion limit (a RecursionError)
PAST_PYTHON_LIMITS = [
    pytest.param(
        "1" + "0" * 5000, "Exceeds the limit", id="digits",
        marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no integer digit limit"
        ),
    ),
    pytest.param("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded", id="nesting"),
]


@pytest.fixture
def runner():
    return CliRunner()


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = [
    ("restaurant", "reservation.vsa", "happy_path", 0),
    ("restaurant", "reservation.vsa", "unavailable_branch", 0),
    ("restaurant", "reservation.vsa", "wrong_time", 2),
    ("groceries", "apples.vsa", "increment", 0),
    ("groceries", "apples.vsa", "short_count", 2),
]


def verify_fixture(runner, app, spec, trace):
    base = FIXTURES / app
    return runner.invoke(
        main,
        [
            "verify", "--spec", str(base / spec), "--schema", str(base / "schema.json"),
            "--trace", str(base / "traces" / f"{trace}.jsonl"),
        ],
    )


def verdict_kinds(output: str) -> list[str]:
    return [json.loads(line)["kind"] for line in output.splitlines() if line.strip()]


def assert_clean_failure(result):
    """Exit 1 with an ``error:`` line, and no exception escaped the command."""
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "error:" in result.stderr
    assert "Traceback" not in result.output


class TestVerify:
    def test_happy_path_exits_zero(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--spec", SPEC, "--schema", SCHEMA, "--trace", str(RESTAURANT / "traces" / "happy_path.jsonl")],
        )
        assert result.exit_code == 0, result.output
        assert verdict_kinds(result.output) == ["allow", "allow", "allow", "task_done"]

    def test_blocked_trace_exits_two(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--spec", SPEC, "--schema", SCHEMA, "--trace", str(RESTAURANT / "traces" / "wrong_time.jsonl")],
        )
        assert result.exit_code == 2
        kinds = verdict_kinds(result.output)
        assert "hard_block" in kinds
        hard = next(json.loads(l) for l in result.output.splitlines() if json.loads(l)["kind"] == "hard_block")
        assert "'time' less than 19:00" in hard["feedback"]["hard"]

    def test_branch_trace_completes(self, runner):
        result = runner.invoke(
            main,
            [
                "verify", "--spec", SPEC, "--schema", SCHEMA,
                "--trace", str(RESTAURANT / "traces" / "unavailable_branch.jsonl"),
            ],
        )
        assert result.exit_code == 0
        assert verdict_kinds(result.output)[-1] == "task_done"

    @pytest.mark.parametrize("kind", ["spec", "schema", "trace", "fixture"])
    def test_missing_file_exits_one(self, runner, tmp_path, kind):
        # the error line names the path once and gives the system's reason
        missing = tmp_path / f"no.{kind}"
        if kind == "fixture":
            args = ENCODE_HAPPY[:-1] + [str(missing)]
        else:
            paths = {"spec": SPEC, "schema": SCHEMA, "trace": str(RESTAURANT / "traces" / "happy_path.jsonl")}
            paths[kind] = str(missing)
            args = ["verify", "--spec", paths["spec"], "--schema", paths["schema"], "--trace", paths["trace"]]
        result = runner.invoke(main, args)
        assert_clean_failure(result)
        assert f"error: {kind} {missing}: No such file or directory\n" in result.stderr
        assert result.stderr.count(str(missing)) == 1

    def test_critical_event_for_an_unknown_objective_exits_one(self, runner, tmp_path):
        lines = (RESTAURANT / "traces" / "happy_path.jsonl").read_text(encoding="utf-8").splitlines()
        event = json.loads(lines[1])
        lines[1] = json.dumps(dict(event, critical="Nope"))
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["verify", "--spec", SPEC, "--schema", SCHEMA, "--trace", str(trace)])
        assert_clean_failure(result)
        assert result.stderr == "error: no rule concludes objective 'Nope'\n"

    def test_spec_schema_mismatch_exits_one(self, runner, tmp_path):
        bad = tmp_path / "bad.vsa"
        bad.write_text("Nowhere(x = 1) -> Done\n")
        result = runner.invoke(
            main,
            ["verify", "--spec", str(bad), "--schema", SCHEMA, "--trace", str(RESTAURANT / "traces" / "happy_path.jsonl")],
        )
        assert_clean_failure(result)
        assert "spec does not check against schema: " in result.stderr

    def test_verdict_stream_is_byte_identical(self, runner):
        args = ["verify", "--spec", SPEC, "--schema", SCHEMA, "--trace", str(RESTAURANT / "traces" / "happy_path.jsonl")]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_crlf_inputs_give_the_same_verdict_stream(self, runner, tmp_path):
        # every input is read with no newline translation; a \r before \n is a
        # blank to the spec reader, the trace reader and JSON alike
        trace = RESTAURANT / "traces" / "happy_path.jsonl"
        copies = []
        for original in (Path(SPEC), Path(SCHEMA), trace):
            copy = tmp_path / original.name
            copy.write_bytes(original.read_bytes().replace(b"\n", b"\r\n"))
            assert b"\r\n" in copy.read_bytes()
            copies.append(str(copy))
        lf = runner.invoke(main, ["verify", "--spec", SPEC, "--schema", SCHEMA, "--trace", str(trace)])
        crlf = runner.invoke(main, ["verify", "--spec", copies[0], "--schema", copies[1], "--trace", copies[2]])
        assert (crlf.exit_code, lf.exit_code) == (0, 0)
        assert crlf.stdout_bytes == lf.stdout_bytes

    @pytest.mark.parametrize("app, spec, trace, exit_code", GOLDEN_CASES)
    def test_verdict_stream_matches_golden(self, runner, app, spec, trace, exit_code):
        """``tests/golden/<app>_<trace>.jsonl`` holds the stdout recorded
        before the engine's validation was consolidated; any change to it must
        be deliberate and explained."""
        result = verify_fixture(runner, app, spec, trace)
        assert result.exit_code == exit_code
        assert result.stdout_bytes == (GOLDEN / f"{app}_{trace}.jsonl").read_bytes()

    def test_verify_calls_no_backend(self, runner, no_backend):
        for app, spec, trace, exit_code in GOLDEN_CASES:
            result = verify_fixture(runner, app, spec, trace)
            assert result.exit_code == exit_code, result.output
            assert result.stdout_bytes == (GOLDEN / f"{app}_{trace}.jsonl").read_bytes()

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_trace_number_exits_one(self, runner, tmp_path, raw):
        groceries = FIXTURES / "groceries"
        spec = tmp_path / "cart.vsa"
        spec.write_text("Cart(quantity < 5) -> Done\n")
        header = (groceries / "traces" / "increment.jsonl").read_text().splitlines()[0]
        trace = tmp_path / "bad.jsonl"
        trace.write_text(
            header + '\n{"action_id": "a1", "updates": [{"state": "Cart", "values": {"quantity": %s}}]}\n' % raw
        )
        result = runner.invoke(
            main,
            ["verify", "--spec", str(spec), "--schema", str(groceries / "schema.json"), "--trace", str(trace)],
        )
        assert_clean_failure(result)
        assert "line 2: Cart.quantity" in result.stderr
        assert "not a finite number" in result.stderr

    def test_trace_for_another_app_exits_one(self, runner, tmp_path):
        # the same states under another app id: the spec checks, the trace must not verify
        other = json.loads(Path(SCHEMA).read_text(encoding="utf-8"))
        other["app_id"] = "other_demo"
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(other), encoding="utf-8")
        result = runner.invoke(
            main,
            ["verify", "--spec", SPEC, "--schema", str(schema), "--trace", str(RESTAURANT / "traces" / "happy_path.jsonl")],
        )
        assert_clean_failure(result)
        assert result.stdout == ""
        assert "trace is for app 'restaurant_demo' but the schema is for 'other_demo'" in result.stderr

    def test_trace_header_with_a_non_string_schema_path_exits_one(self, runner, tmp_path):
        header, *events = (RESTAURANT / "traces" / "happy_path.jsonl").read_text(encoding="utf-8").splitlines()
        raw = json.loads(header)
        raw["schema_path"] = {"a": [1]}
        trace = tmp_path / "bad.jsonl"
        trace.write_text("\n".join([json.dumps(raw), *events]) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["verify", "--spec", SPEC, "--schema", SCHEMA, "--trace", str(trace)])
        assert_clean_failure(result)
        assert result.stdout == ""
        assert result.stderr == f"error: trace {trace}: line 1: header 'schema_path' must be a string\n"

    @pytest.mark.parametrize("kind", ["schema", "spec", "trace"])
    def test_non_utf8_input_file_exits_one(self, runner, tmp_path, kind):
        paths = {"schema": SCHEMA, "spec": SPEC, "trace": str(RESTAURANT / "traces" / "happy_path.jsonl")}
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(b"\xff\xfe\x00")
        paths[kind] = str(bad)
        result = runner.invoke(
            main, ["verify", "--spec", paths["spec"], "--schema", paths["schema"], "--trace", paths["trace"]]
        )
        assert_clean_failure(result)
        assert f"error: {kind} {bad}: " in result.stderr

    @pytest.mark.parametrize("value, message", PAST_PYTHON_LIMITS)
    @pytest.mark.parametrize("where", ["schema", "header", "event"])
    def test_json_past_python_limits_exits_one(self, runner, tmp_path, where, value, message):
        schema_text = Path(SCHEMA).read_text(encoding="utf-8")
        trace_lines = (RESTAURANT / "traces" / "happy_path.jsonl").read_text(encoding="utf-8").splitlines()
        if where == "schema":
            schema_text = schema_text.rstrip()[:-1] + f', "n": {value}}}'
        else:
            k = 0 if where == "header" else 1
            trace_lines[k] = trace_lines[k][:-1] + f', "n": {value}}}'
        schema, trace = tmp_path / "schema.json", tmp_path / "trace.jsonl"
        schema.write_text(schema_text, encoding="utf-8")
        trace.write_text("\n".join(trace_lines) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["verify", "--spec", SPEC, "--schema", str(schema), "--trace", str(trace)])
        assert_clean_failure(result)
        assert result.stdout == ""
        expected = {
            "schema": f"error: schema {schema}: BAD_JSON at $: {message}",
            "header": f"error: trace {trace}: line 1: header is not valid JSON: {message}",
            "event": f"error: trace {trace}: line 2: not valid JSON: {message}",
        }[where]
        assert expected in result.stderr


class TestVersion:
    def test_version_comes_from_the_package(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.output == f"intentguard, version {__version__}\n"


class TestCheck:
    def test_clean_spec(self, runner):
        result = runner.invoke(main, ["check", "--spec", SPEC, "--schema", SCHEMA])
        assert result.exit_code == 0
        assert "no findings" in result.output

    def test_a_lone_carriage_return_in_a_text_constant_is_kept(self, runner, tmp_path):
        # a lone \r is an ordinary character, so it stays inside the string
        # literal; a newline-translating read would end the line there
        text = 'RestaurantInfo(name = "A\rB") -> Done\n'
        spec = tmp_path / "cr.vsa"
        write_text_atomic(spec, text)
        assert spec.read_bytes() == text.encode()
        result = runner.invoke(main, ["check", "--spec", str(spec), "--schema", SCHEMA])
        assert (result.exit_code, result.output) == (0, "no findings\n")
        assert parse_specification(read_text(spec)) == parse_specification(text)
        assert parse_specification(text).rules[0].predicates[0].constraints[0].constant.value == "A\rB"

    def test_findings_exit_two(self, runner, tmp_path):
        bad = tmp_path / "bad.vsa"
        bad.write_text("RestaurantInfo(name >= 100) -> Done\n")
        result = runner.invoke(main, ["check", "--spec", str(bad), "--schema", SCHEMA])
        assert result.exit_code == 2
        assert "TYPE_MISMATCH" in result.output

    def test_unparseable_spec_exits_one(self, runner, tmp_path):
        bad = tmp_path / "broken.vsa"
        bad.write_text("this is not a spec\n")
        result = runner.invoke(main, ["check", "--spec", str(bad), "--schema", SCHEMA])
        assert result.exit_code == 1

    def test_non_decimal_digit_in_spec_exits_one(self, runner, tmp_path):
        bad = tmp_path / "superscript.vsa"
        bad.write_text("RestaurantInfo(name = ²) -> Done\n", encoding="utf-8")
        result = runner.invoke(main, ["check", "--spec", str(bad), "--schema", SCHEMA])
        assert_clean_failure(result)
        assert f"error: spec {bad}: line 1, column 23: unexpected character '²'" in result.stderr


class TestSchemaLint:
    def test_valid_schema(self, runner):
        result = runner.invoke(main, ["schema", "lint", SCHEMA])
        assert result.exit_code == 0
        assert "3 state(s)" in result.output

    def test_invalid_schema_lists_issues(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"app_id": "demo", "states": [
            {"name": "S", "variables": [{"x": "Float"}]},
            {"name": "S", "variables": [{"y": "Text"}]},
        ]}))
        result = runner.invoke(main, ["schema", "lint", str(bad)])
        assert result.exit_code == 2
        assert "UNKNOWN_TYPE" in result.output
        assert "DUPLICATE_STATE" in result.output

    def test_operator_words_as_names_are_listed(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"app_id": "demo", "states": [
            {"name": "not", "variables": [{"x": "Text"}]},
            {"name": "S", "variables": [{"in": "Text"}, {"y": "Text"}]},
        ]}))
        result = runner.invoke(main, ["schema", "lint", str(bad)])
        assert result.exit_code == 2
        assert result.output == (
            "BAD_STATE at states[0].name: state name 'not' is not an identifier\n"
            "BAD_VARIABLE at states[1].variables.in: variable name 'in' is not an identifier\n"
        )

    def test_a_multi_line_description_and_an_unwritable_variant_are_listed(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"app_id": "demo", "states": [
            {"name": "S", "description": "The cart\n- Fake: a state that is not declared", "variables": [{"x": "Text"}]},
            {"name": "T", "variables": [{"pay": "Enum[Card, Gift card]"}, {"y": "Text"}]},
        ]}))
        result = runner.invoke(main, ["schema", "lint", str(bad)])
        assert result.exit_code == 2
        assert result.output == (
            "BAD_STATE at states[0].description: description must be one line\n"
            "BAD_VARIANT at states[1].variables.pay: not a word a spec can write: 'Gift card'; a variant starts "
            "with a letter or '_', holds only letters, digits and '_', and is not in, not, true, false or Today\n"
        )

    @pytest.mark.parametrize("value, message", PAST_PYTHON_LIMITS)
    def test_json_past_python_limits_is_bad_json(self, runner, tmp_path, value, message):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"app_id": "demo", "n": {value}, "states": []}}', encoding="utf-8")
        result = runner.invoke(main, ["schema", "lint", str(bad)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
        assert result.output.startswith(f"BAD_JSON at $: {message}")


class TestEncode:
    def test_mock_encode_to_stdout(self, runner):
        result = runner.invoke(
            main,
            [
                "encode", "--instruction", INSTRUCTION, "--schema", SCHEMA,
                "--backend", "mock", "--fixture", str(FIXTURES / "mock" / "encode_happy.json"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert 'RestaurantInfo(name = "R")' in result.output

    def test_encode_writes_spec_and_transcript(self, runner, tmp_path):
        out = tmp_path / "encoded.vsa"
        log = tmp_path / "transcript.jsonl"
        result = runner.invoke(
            main,
            [
                "encode", "--instruction", INSTRUCTION, "--schema", SCHEMA,
                "--backend", "mock", "--fixture", str(FIXTURES / "mock" / "encode_repair.json"),
                "--out", str(out), "--log", str(log),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "2 iteration(s)" in result.output
        assert 'ReserveInfo(date = Today, time < 19:00, available = true)' in out.read_text()
        roles = [json.loads(line)["role"] for line in log.read_text().splitlines()]
        assert roles == ["encoder", "encoder", "decoder", "checker"]

    def test_hopeless_script_exits_one(self, runner, tmp_path):
        log = tmp_path / "transcript.jsonl"
        result = runner.invoke(
            main,
            [
                "encode", "--instruction", "x", "--schema", SCHEMA,
                "--backend", "mock", "--fixture", str(FIXTURES / "mock" / "encode_hopeless.json"),
                "--log", str(log),
            ],
        )
        assert result.exit_code == 1
        assert "3 iterations" in result.output
        # the transcript of a failed encoding is written all the same
        roles = [json.loads(line)["role"] for line in log.read_text(encoding="utf-8").splitlines()]
        assert roles == ["encoder"] * 3

    def test_http_reply_nested_past_the_recursion_limit_exits_one(self, runner, monkeypatch):
        import helpers
        import requests

        monkeypatch.setenv("OPENAI_API_KEY", "k")
        reply = helpers.FakeResponse(text="[" * 100_000 + "]" * 100_000)
        monkeypatch.setattr(requests, "post", lambda *args, **kwargs: reply)
        result = runner.invoke(main, ["encode", "--instruction", INSTRUCTION, "--schema", SCHEMA, "--backend", "http"])
        assert_clean_failure(result)
        assert result.stderr == "error: backend: response body is not JSON\n"

    def test_even_majority_exits_one(self, runner):
        result = runner.invoke(main, ENCODE_HAPPY + ["--majority", "2"])
        assert_clean_failure(result)
        assert result.stderr == "error: majority_n must be odd and >= 1\n"

    def test_blank_instruction_exits_one(self, runner):
        result = runner.invoke(
            main,
            [
                "encode", "--instruction", "  ", "--schema", SCHEMA,
                "--backend", "mock", "--fixture", str(FIXTURES / "mock" / "encode_happy.json"),
            ],
        )
        assert_clean_failure(result)
        assert "non-empty instruction" in result.stderr

    def test_blank_decoder_reply_exits_one(self, runner, tmp_path):
        import helpers

        fixture = tmp_path / "blank_decoder.json"
        turns = [{"role": "encoder", "response": helpers.GOOD_DRAFT}, {"role": "decoder", "response": "   "}]
        fixture.write_text(json.dumps(turns))
        result = runner.invoke(
            main,
            ["encode", "--instruction", INSTRUCTION, "--schema", SCHEMA, "--backend", "mock", "--fixture", str(fixture)],
        )
        assert_clean_failure(result)
        assert "error: backend: decoder" in result.stderr

    def test_mock_without_fixture_exits_one(self, runner):
        result = runner.invoke(main, ["encode", "--instruction", "x", "--schema", SCHEMA, "--backend", "mock"])
        assert result.exit_code == 1
        assert "error: mock backend needs a fixture file" in result.output

    def test_majority_encode_keeps_modal_spec(self, runner, tmp_path):
        import helpers

        fixture = tmp_path / "three_runs.json"
        fixture.write_text(
            json.dumps(helpers.clean_run() + helpers.clean_run(helpers.FAULTY_DRAFT) + helpers.clean_run())
        )
        result = runner.invoke(
            main,
            [
                "encode", "--instruction", INSTRUCTION, "--schema", SCHEMA,
                "--backend", "mock", "--fixture", str(fixture), "--majority", "3",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "time < 19:00" in result.output
        assert "time < 17:00" not in result.output

    def test_malformed_mock_fixture_exits_one(self, runner, tmp_path):
        fixture = tmp_path / "no_role.json"
        fixture.write_text(json.dumps([{"response": "x"}]))
        result = runner.invoke(
            main,
            ["encode", "--instruction", "x", "--schema", SCHEMA, "--backend", "mock", "--fixture", str(fixture)],
        )
        assert_clean_failure(result)
        assert "'role'" in result.stderr

    def test_encode_reads_memory_for_warm_start(self, runner, tmp_path):
        from intentguard.dsl import parse_specification
        from intentguard.memory import PredicateMemory

        memory = PredicateMemory()
        memory.record_success(
            "restaurant_demo", INSTRUCTION, parse_specification((RESTAURANT / "reservation.vsa").read_text())
        )
        memory_path = tmp_path / "memory.json"
        memory.save(memory_path)
        result = runner.invoke(
            main,
            [
                "encode", "--instruction", "Reserve restaurant R tonight", "--schema", SCHEMA,
                "--backend", "mock", "--fixture", str(FIXTURES / "mock" / "encode_happy.json"),
                "--memory", str(memory_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "warm-started from memory" in result.output

    @pytest.mark.parametrize(
        "field, value, fragment",
        [
            ("instruction", 5, "'instruction' must be a string"),
            ("used_predicates", [["A"]], "'used_predicates' must be a list"),
            ("used_predicates", [[1, {}, 2]], "'used_predicates' must be a list"),
        ],
        ids=["instruction-not-text", "short-triple", "unhashable-triple"],
    )
    def test_malformed_memory_entry_exits_one(self, runner, tmp_path, field, value, fragment):
        entry = {"instruction": "x", "spec": "S(a = 1) -> Done", "used_predicates": [], "timestamp": "t"}
        memory_path = tmp_path / "memory.json"
        memory_path.write_text(json.dumps({"entries": {"restaurant_demo": [{**entry, field: value}]}}))
        result = runner.invoke(
            main,
            [
                "encode", "--instruction", INSTRUCTION, "--schema", SCHEMA,
                "--backend", "mock", "--fixture", str(FIXTURES / "mock" / "encode_happy.json"),
                "--memory", str(memory_path),
            ],
        )
        assert_clean_failure(result)
        assert f"error: memory {memory_path}: memory entry field {fragment}" in result.stderr


class TestEval:
    def test_shipped_cases_table_and_report(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["eval", "--cases", str(FIXTURES / "eval_cases"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "TP=2 FP=0 TN=2 FN=0" in result.output
        report = json.loads(out.read_text())
        assert report["counts"] == {"TP": 2, "FP": 0, "TN": 2, "FN": 0, "errors": 0}
        assert report["positive_is_task_completed"]["accuracy"] == 1.0
        assert report["positive_is_flagged_error"]["accuracy"] == 1.0

    def test_eval_with_memory_persists_successes(self, runner, tmp_path):
        memory_path = tmp_path / "memory.json"
        result = runner.invoke(
            main, ["eval", "--cases", str(FIXTURES / "eval_cases"), "--memory", str(memory_path)]
        )
        assert result.exit_code == 0
        stored = json.loads(memory_path.read_text())
        assert stored["entries"]["restaurant_demo"]

    def test_malformed_mock_fixture_exits_one(self, runner, tmp_path):
        fixture = tmp_path / "no_role.json"
        fixture.write_text(json.dumps([{"response": "x"}]))
        result = runner.invoke(main, ["eval", "--cases", str(FIXTURES / "eval_cases"), "--fixture", str(fixture)])
        assert_clean_failure(result)

    def test_empty_cases_dir_exits_one(self, runner, tmp_path):
        result = runner.invoke(main, ["eval", "--cases", str(tmp_path)])
        assert result.exit_code == 1

    def test_even_majority_exits_one(self, runner):
        result = runner.invoke(main, EVAL_SHIPPED + ["--majority", "2"])
        assert_clean_failure(result)
        assert result.stderr == "error: majority_n must be odd and >= 1\n"

    def test_case_manifest_that_cannot_be_read_is_named_once(self, runner, tmp_path):
        manifest = tmp_path / "case.json"
        manifest.mkdir()
        result = runner.invoke(main, ["eval", "--cases", str(tmp_path)])
        assert_clean_failure(result)
        assert result.stderr == f"error: cases {tmp_path}: {manifest}: Is a directory\n"

    def test_case_manifest_not_an_object_exits_one(self, runner, tmp_path):
        (tmp_path / "case.json").write_text("[1]")
        result = runner.invoke(main, ["eval", "--cases", str(tmp_path)])
        assert_clean_failure(result)
        assert "case manifest must be a JSON object" in result.stderr


MALFORMED_MEMORY = {
    "missing_spec": json.dumps(
        {"entries": {"restaurant_demo": [{"instruction": "x", "used_predicates": [], "timestamp": "t"}]}}
    ),
    "not_json": "{entries",
}


@pytest.mark.parametrize("content", MALFORMED_MEMORY.values(), ids=MALFORMED_MEMORY.keys())
@pytest.mark.parametrize("command", ["encode", "eval"])
def test_malformed_memory_file_exits_one(runner, tmp_path, command, content):
    memory_path = tmp_path / "memory.json"
    memory_path.write_text(content)
    if command == "encode":
        args = [
            "encode", "--instruction", INSTRUCTION, "--schema", SCHEMA,
            "--backend", "mock", "--fixture", str(FIXTURES / "mock" / "encode_happy.json"),
        ]
    else:
        args = ["eval", "--cases", str(FIXTURES / "eval_cases")]
    result = runner.invoke(main, args + ["--memory", str(memory_path)])
    assert_clean_failure(result)
    assert f"memory {memory_path}" in result.stderr


ENCODE_HAPPY = [
    "encode", "--instruction", INSTRUCTION, "--schema", SCHEMA,
    "--backend", "mock", "--fixture", str(FIXTURES / "mock" / "encode_happy.json"),
]
EVAL_SHIPPED = ["eval", "--cases", str(FIXTURES / "eval_cases")]


@pytest.mark.parametrize("command", [ENCODE_HAPPY, EVAL_SHIPPED], ids=["encode", "eval"])
def test_memory_path_that_is_a_directory_is_named_once(runner, tmp_path, command):
    # judged by the loader, as an unreadable input, not by a usage error
    result = runner.invoke(main, command + ["--memory", str(tmp_path)])
    assert_clean_failure(result)
    assert "Is a directory" in result.stderr
    assert result.stderr.count(str(tmp_path)) == 1


VERIFY_HAPPY = [
    "verify", "--spec", SPEC, "--schema", SCHEMA, "--trace", str(RESTAURANT / "traces" / "happy_path.jsonl"),
]
CHECK = ["check", "--spec", SPEC, "--schema", SCHEMA]
# every input path option or argument: (command, option, kind in the error line)
INPUTS = {
    "verify-spec": (VERIFY_HAPPY, "--spec", "spec"),
    "verify-schema": (VERIFY_HAPPY, "--schema", "schema"),
    "verify-trace": (VERIFY_HAPPY, "--trace", "trace"),
    "check-spec": (CHECK, "--spec", "spec"),
    "check-schema": (CHECK, "--schema", "schema"),
    "encode-schema": (ENCODE_HAPPY, "--schema", "schema"),
    "encode-fixture": (ENCODE_HAPPY, "--fixture", "fixture"),
    "encode-memory": (ENCODE_HAPPY, "--memory", "memory"),
    "eval-fixture": (EVAL_SHIPPED, "--fixture", "fixture"),
    "eval-memory": (EVAL_SHIPPED, "--memory", "memory"),
    "schema-lint": (["schema", "lint"], None, "schema"),
}


def reading(name: str, path: Path) -> tuple[list[str], str]:
    """The command of input ``name`` with ``path`` as that input, and the
    start of the ``error:`` line it prints when ``path`` cannot be read."""
    command, option, kind = INPUTS[name]
    args = list(command)
    if option is None:  # the argument of schema lint
        args.append(str(path))
    elif option in args:
        args[args.index(option) + 1] = str(path)
    else:
        args += [option, str(path)]
    return args, f"error: {kind} {path}: "


@pytest.mark.parametrize("name", INPUTS)
def test_input_that_is_a_directory_exits_one(runner, tmp_path, name):
    args, error = reading(name, tmp_path)
    result = runner.invoke(main, args)
    assert_clean_failure(result)
    assert result.stderr == f"{error}Is a directory\n"


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root reads a mode-000 file")
@pytest.mark.parametrize("name", INPUTS)
def test_input_without_read_permission_exits_one(runner, tmp_path, name):
    path = tmp_path / "locked.json"
    path.write_text("{}", encoding="utf-8")
    path.chmod(0)
    args, error = reading(name, path)
    result = runner.invoke(main, args)
    assert_clean_failure(result)
    assert result.stderr == f"{error}Permission denied\n"


@pytest.mark.parametrize(
    "args, expected",
    [
        (VERIFY_HAPPY, '"kind": "task_done"'),
        (CHECK, "no findings"),
        (["schema", "lint", SCHEMA], "ok: app 'restaurant_demo'"),
        (ENCODE_HAPPY + ["--memory", "MEMORY", "--out", "OUT", "--log", "LOG"], "encoded in 1 iteration(s)"),
        (EVAL_SHIPPED + ["--memory", "MEMORY", "--out", "OUT"], "TP=2 FP=0 TN=2 FN=0"),
    ],
    ids=["verify", "check", "schema-lint", "encode", "eval"],
)
def test_files_that_os_access_calls_unreadable_are_still_read(runner, tmp_path, monkeypatch, args, expected):
    # os.access asks about the real, not the effective, user and can disagree
    # with open(); only opening a file decides whether it can be read
    files = {name: tmp_path / name.lower() for name in ("MEMORY", "OUT", "LOG")}
    files["MEMORY"].write_text('{"entries": {}}', encoding="utf-8")
    files["OUT"].write_text("old", encoding="utf-8")
    files["LOG"].write_text("old", encoding="utf-8")
    args = [str(files[arg]) if arg in files else arg for arg in args]
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert expected in result.output
    for name in ("OUT", "LOG"):
        if str(files[name]) in args:
            assert files[name].read_text(encoding="utf-8") != "old"


@pytest.mark.parametrize("make", ["missing", "file"])
def test_cases_path_that_is_not_a_directory_exits_one(runner, tmp_path, make):
    path = tmp_path / "cases"
    if make == "file":
        path.write_text("{}", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--cases", str(path)])
    assert_clean_failure(result)
    reason = "No such file or directory" if make == "missing" else "Not a directory"
    assert result.stderr == f"error: cases {path}: {reason}\n"


@pytest.mark.parametrize(
    "args, option, other",
    [(ENCODE_HAPPY, "--out", "--log"), (ENCODE_HAPPY, "--log", "--out"), (EVAL_SHIPPED, "--out", "--memory")],
    ids=["encode-out", "encode-log", "eval-out"],
)
def test_output_path_that_is_a_directory_is_a_usage_error(runner, tmp_path, args, option, other):
    # refused before a paid encode or a whole eval run, so nothing is written
    written = tmp_path / "written.json"
    result = runner.invoke(main, args + [other, str(written), option, str(tmp_path)])
    assert result.exit_code == 2
    assert "is a directory" in result.stderr
    assert not written.exists()


@pytest.mark.parametrize(
    "args, option",
    [(ENCODE_HAPPY, "--out"), (ENCODE_HAPPY, "--log"), (EVAL_SHIPPED, "--out"), (EVAL_SHIPPED, "--memory")],
    ids=["encode-out", "encode-log", "eval-out", "eval-memory"],
)
def test_unwritable_target_exits_one(runner, tmp_path, args, option):
    target = tmp_path / "missing" / "file.txt"
    result = runner.invoke(main, args + [option, str(target)])
    assert_clean_failure(result)
    assert f"error: cannot write {target}: No such file or directory" in result.stderr


def test_unwritable_memory_still_prints_and_writes_the_report(runner, tmp_path):
    target = tmp_path / "missing" / "memory.json"
    out = tmp_path / "report.json"
    result = runner.invoke(main, EVAL_SHIPPED + ["--memory", str(target), "--out", str(out)])
    assert_clean_failure(result)
    assert f"error: cannot write {target}: No such file or directory" in result.stderr
    assert "counts: TP=" in result.stdout
    assert json.loads(out.read_text(encoding="utf-8"))["cases"]


def input_command(name: str, path: Path) -> tuple[list[str], str]:
    """A command that reads ``path`` as its JSON input ``name`` (the inputs
    of ``verify`` are covered by ``TestVerify``), and the start of the
    ``error:`` line it prints when that input cannot be read."""
    if name == "fixture":
        return ENCODE_HAPPY[:-1] + [str(path)], f"error: fixture {path}: "
    if name == "cases":
        # a case manifest is named after the directory it was read from
        return ["eval", "--cases", str(path.parent)], f"error: cases {path.parent}: {path}: "
    command = ENCODE_HAPPY if name == "encode-memory" else EVAL_SHIPPED
    return command + ["--memory", str(path)], f"error: memory {path}: "


JSON_INPUTS = ["fixture", "encode-memory", "eval-memory", "cases"]


@pytest.mark.parametrize("value, message", PAST_PYTHON_LIMITS)
@pytest.mark.parametrize("name", JSON_INPUTS)
def test_json_past_python_limits_in_any_json_input_exits_one(runner, tmp_path, name, value, message):
    document = {
        "fixture": f'[{{"role": "encoder", "response": "x", "n": {value}}}]',
        "cases": f'{{"expected": "pass", "n": {value}}}',
    }.get(name, f'{{"entries": {{}}, "n": {value}}}')
    path = tmp_path / "input.json"
    path.write_text(document, encoding="utf-8")
    args, error = input_command(name, path)
    result = runner.invoke(main, args)
    assert_clean_failure(result)
    assert error in result.stderr
    assert message in result.stderr


def test_case_manifest_that_is_not_json_is_named(runner, tmp_path):
    manifest = tmp_path / "case.json"
    manifest.write_text("{nope", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--cases", str(tmp_path)])
    assert_clean_failure(result)
    assert f"error: cases {tmp_path}: {manifest}: " in result.stderr


@pytest.mark.parametrize("name", JSON_INPUTS)
def test_json_input_that_is_not_utf8_names_its_file(runner, tmp_path, name):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe not text")
    args, error = input_command(name, path)
    result = runner.invoke(main, args)
    assert_clean_failure(result)
    assert f"{error}'utf-8' codec can't decode" in result.stderr
    assert "not valid JSON" not in result.stderr
