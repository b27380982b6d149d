from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from intentguard import __version__
from intentguard.cli import main

from conftest import FIXTURES

RESTAURANT = FIXTURES / "restaurant"
SPEC = str(RESTAURANT / "reservation.vsa")
SCHEMA = str(RESTAURANT / "schema.json")
INSTRUCTION = "Reserve restaurant R before 7 PM. If the restaurant is not available at that time, do nothing."


@pytest.fixture
def runner():
    return CliRunner()


GOLDEN = Path(__file__).resolve().parent / "golden"


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

    def test_missing_file_exits_one(self, runner):
        result = runner.invoke(main, ["verify", "--spec", "no.vsa", "--schema", SCHEMA, "--trace", "no.jsonl"])
        assert result.exit_code == 1

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

    @pytest.mark.parametrize(
        "app, spec, trace, exit_code",
        [
            ("restaurant", "reservation.vsa", "happy_path", 0),
            ("restaurant", "reservation.vsa", "unavailable_branch", 0),
            ("restaurant", "reservation.vsa", "wrong_time", 2),
            ("groceries", "apples.vsa", "increment", 0),
            ("groceries", "apples.vsa", "short_count", 2),
        ],
    )
    def test_verdict_stream_matches_golden(self, runner, app, spec, trace, exit_code):
        """``tests/golden/<app>_<trace>.jsonl`` holds the stdout recorded
        before the engine's validation was consolidated; any change to it must
        be deliberate and explained."""
        base = FIXTURES / app
        result = runner.invoke(
            main,
            [
                "verify", "--spec", str(base / spec), "--schema", str(base / "schema.json"),
                "--trace", str(base / "traces" / f"{trace}.jsonl"),
            ],
        )
        assert result.exit_code == exit_code
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

    def test_hopeless_script_exits_one(self, runner):
        result = runner.invoke(
            main,
            [
                "encode", "--instruction", "x", "--schema", SCHEMA,
                "--backend", "mock", "--fixture", str(FIXTURES / "mock" / "encode_hopeless.json"),
            ],
        )
        assert result.exit_code == 1
        assert "3 iterations" in result.output

    def test_mock_without_fixture_exits_one(self, runner):
        result = runner.invoke(main, ["encode", "--instruction", "x", "--schema", SCHEMA, "--backend", "mock"])
        assert result.exit_code == 1

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
