"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and count is pinned here, not configurable.
"""

from __future__ import annotations

import json
import os
import random
import time as time_mod
from datetime import datetime
from decimal import Decimal

import pytest
from click.testing import CliRunner

from intentguard.backend import MockBackend, SimilarityScorer
from intentguard.cli import main as cli_main
from intentguard.dsl import (
    Constant,
    ConstKind,
    DiagnosticCode,
    Operator,
    check_specification,
    evaluate_constraint,
    parse_specification,
    render_specification,
)
from intentguard.encoder import EncodeConfig, EncodeFailed, diff_specifications, encode, majority_verify
from intentguard.engine import ActionEvent, Session, StateUpdate, VerdictKind
from intentguard.schema import schema_from_dict
from intentguard.trace import Trace, TraceHeader, load_trace, replay

import generators
import helpers
from conftest import CLOCK, FIXTURES, TODAY
from test_dsl_eval import c as constraint_of

RESTAURANT = FIXTURES / "restaurant"
INSTRUCTION = "Reserve restaurant R before 7 PM. If the restaurant is not available at that time, do nothing."


def passed(criterion: int, summary: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {summary}")


def test_c01_running_example_replay(reservation_spec, restaurant_schema):
    started = time_mod.monotonic()
    happy = load_trace(RESTAURANT / "traces" / "happy_path.jsonl", restaurant_schema)
    result = replay(reservation_spec, restaurant_schema, happy)
    kinds = [v.kind for v in result.verdicts]
    assert kinds == [VerdictKind.ALLOW, VerdictKind.ALLOW, VerdictKind.ALLOW, VerdictKind.TASK_DONE]
    assert result.verdicts[2].achieved == ("Reserve",)

    wrong = load_trace(RESTAURANT / "traces" / "wrong_time.jsonl", restaurant_schema)
    wrong_result = replay(reservation_spec, restaurant_schema, wrong)
    assert wrong_result.done is False
    hard = next(v for v in wrong_result.verdicts if v.kind is VerdictKind.HARD_BLOCK)
    assert "'time' less than 19:00" in hard.feedback.hard
    elapsed = time_mod.monotonic() - started
    assert elapsed < 1.0
    passed(1, f"happy-path verdicts + wrong-time HardBlock naming 'time' in {elapsed * 1000:.0f} ms")


def test_c02_branch_completion_without_critical_actions(reservation_spec, restaurant_schema):
    trace = load_trace(RESTAURANT / "traces" / "unavailable_branch.jsonl", restaurant_schema)
    assert all(event.critical is None for event in trace.events)
    result = replay(reservation_spec, restaurant_schema, trace)
    assert result.done is True
    assert [v.kind for v in result.verdicts] == [
        VerdictKind.ALLOW,
        VerdictKind.ALLOW,
        VerdictKind.TASK_DONE,
    ]
    passed(2, "unavailable branch reaches TaskDone with zero critical actions")


def test_c03_soft_semantics_on_incremental_updates(apples_spec, groceries_schema):
    session = Session(apples_spec, groceries_schema, CLOCK)
    trace = load_trace(FIXTURES / "groceries" / "traces" / "increment.jsonl", groceries_schema)
    kinds = []
    for event in trace.events:
        before = session.world_view()
        verdict = session.submit_action(event)
        kinds.append(verdict.kind)
        if verdict.kind is VerdictKind.SOFT_BLOCK:
            assert session.world_view() == before, "a warned update must be reverted bit-for-bit"
    assert kinds == [
        VerdictKind.SOFT_BLOCK,
        VerdictKind.ALLOW,
        VerdictKind.SOFT_BLOCK,
        VerdictKind.ALLOW,
        VerdictKind.ALLOW,  # the final quantity=3 update is never blocked
        VerdictKind.TASK_DONE,
    ]
    assert session.value_of("Cart", "quantity") == Constant.number(3)
    passed(3, "quantity 1/2 warned then permitted on resubmission; quantity 3 sails through")


def test_c04_hard_gate_persists_for_identical_resubmissions(reservation_spec, restaurant_schema):
    session = Session(reservation_spec, restaurant_schema, CLOCK)
    session.submit_action(
        ActionEvent("a1", "pre", (StateUpdate("RestaurantInfo", {"name": Constant.text("R")}),))
    )
    first = session.submit_action(ActionEvent("x1", "pre", (), critical="Reserve"))
    second = session.submit_action(ActionEvent("x2", "pre", (), critical="Reserve"))
    third = session.submit_action(ActionEvent("x3", "pre", (), critical="Reserve"))
    assert first.kind is second.kind is third.kind is VerdictKind.HARD_BLOCK
    assert session.achieved_objectives == set()
    passed(4, "an identical blocked critical action stays HardBlocked on every resubmission")


def test_c05_property_suite_undefined_negation_trichotomy(ctx):
    rng = random.Random(20250501)
    for _ in range(1000):
        assert evaluate_constraint(generators.constraint(rng), None, ctx) is False

    pair_kinds = [ConstKind.TEXT, ConstKind.NUMBER, ConstKind.BOOLEAN, ConstKind.ENUM]
    for _ in range(10_000):
        kind = rng.choice(pair_kinds)
        const = generators.constant(rng, kind)
        value = generators.constant(rng, kind)
        eq = evaluate_constraint(constraint_of("x", Operator.EQ, const), value, ctx)
        neq = evaluate_constraint(constraint_of("x", Operator.NEQ, const), value, ctx)
        assert eq != neq

    ordered_kinds = [ConstKind.NUMBER, ConstKind.DATE, ConstKind.TIME]
    for _ in range(10_000):
        kind = rng.choice(ordered_kinds)
        const = generators.constant(rng, kind)
        value = generators.constant(rng, kind)
        outcomes = [
            evaluate_constraint(constraint_of("x", op, const), value, ctx)
            for op in (Operator.LT, Operator.EQ, Operator.GT)
        ]
        assert sum(outcomes) == 1
    passed(5, "1,000 undefined cases all false; 10,000-case negation pairing and trichotomy hold")


def test_c06_round_trip_over_500_generated_specs():
    rng = random.Random(20250606)
    failures = 0
    for _ in range(500):
        spec = generators.specification(rng)
        if parse_specification(render_specification(spec)) != spec:
            failures += 1
    assert failures == 0
    passed(6, "parse/render identity over 500 generated specifications, zero failures")


def test_c07_type_checking_single_diagnostic(restaurant_schema):
    spec = parse_specification("RestaurantInfo(name >= 100) -> Done")
    diagnostics = check_specification(spec, restaurant_schema)
    assert len(diagnostics) == 1
    assert diagnostics[0].code is DiagnosticCode.TYPE_MISMATCH
    passed(7, "the name >= 100 fixture yields exactly one TYPE_MISMATCH diagnostic")


def test_c08_self_corrective_loop(restaurant_schema):
    repair_backend = MockBackend(
        [{"role": "encoder", "response": helpers.TYPE_ERROR_DRAFT}] + helpers.clean_run()
    )
    result = encode(INSTRUCTION, restaurant_schema, repair_backend)
    assert result.iterations_used == 2
    assert any("TYPE_MISMATCH" in entry.prompt for entry in result.transcript)

    for budget in (2, 3):
        hopeless = MockBackend(helpers.failing_encode_run(budget))
        with pytest.raises(EncodeFailed):
            encode(INSTRUCTION, restaurant_schema, hopeless, EncodeConfig(max_repair_iterations=budget))
        assert hopeless.complete_calls == budget
    passed(8, "bad draft repaired on turn 2 with diagnostic in transcript; hopeless scripts fail at the budget")


def test_c09_majority_at_n(restaurant_schema):
    trace = load_trace(RESTAURANT / "traces" / "happy_path.jsonl", restaurant_schema)
    for seed in range(20):
        faulty = set(random.Random(seed).sample(range(5), 2))
        backend = helpers.majority_backend(faulty, runs=5)
        final = majority_verify(
            INSTRUCTION, restaurant_schema, trace, backend, EncodeConfig(majority_n=5)
        )
        assert final.passed is True, f"seed {seed} with faulty runs {faulty}"
        assert final.pass_count == 3

    # N=1 picks up whatever the single scripted sample happens to be
    degraded = majority_verify(
        INSTRUCTION, restaurant_schema, trace, helpers.majority_backend({0}, runs=1),
        EncodeConfig(majority_n=1),
    )
    assert degraded.passed is False
    passed(9, "2-faulty-of-5 voting recovers the ground truth on all 20 seeds; N=1 degrades as scripted")


def test_c10_diff_taxonomy(reservation_spec, restaurant_schema):
    identical = diff_specifications(reservation_spec, reservation_spec, restaurant_schema)
    assert identical.missing_predicates == ()
    assert identical.critical_missing == ()
    assert identical.superfluous_predicates == ()
    assert identical.constraint_mismatches == ()

    candidate = parse_specification(
        'RestaurantInfo(name = "R") & ReserveInfo(date = Today, available = true) -> Reserve\n'
        "Reserve & ReserveResult(success = true) -> Done\n"
        'RestaurantInfo(name = "R") & ReserveInfo(date = Today, available != true) -> Done'
    )
    wrong_trace = load_trace(RESTAURANT / "traces" / "wrong_time.jsonl", restaurant_schema)
    report = diff_specifications(candidate, reservation_spec, restaurant_schema, wrong_trace)
    assert len(report.missing_predicates) == 1
    assert report.missing_predicates[0].slot == ("ReserveInfo", "time")
    assert len(report.critical_missing) == 1
    assert report.critical_missing[0].slot == ("ReserveInfo", "time")
    passed(10, "dropped time constraint: missing=1 and critical_missing=1 under the wrong-time trace")


def _forty_step_trace() -> tuple:
    schema = schema_from_dict(
        {
            "app_id": "long_demo",
            "states": [
                {"name": "Step", "description": "navigation progress", "variables": [{"index": "Number"}]},
                {"name": "Finish", "description": "final submit", "variables": [{"done": "Boolean"}]},
            ],
        }
    )
    spec = parse_specification("Finish(done = true) -> Done")
    events = [
        ActionEvent(f"s{i}", "pre", (StateUpdate("Step", {"index": Constant.number(Decimal(i))}),))
        for i in range(1, 40)
    ]
    events.append(ActionEvent("finish", "pre", (StateUpdate("Finish", {"done": Constant.boolean(True)}),)))
    trace = Trace(
        header=TraceHeader("long_demo", "", "walk forty steps", datetime(2025, 3, 14, 12, 0)),
        events=tuple(events),
    )
    return spec, schema, trace


def test_c11_cost_profile():
    spec, schema, trace = _forty_step_trace()
    assert len(trace.events) == 40

    backend = MockBackend([])
    scorer = SimilarityScorer(mode="lexical", backend=backend)
    started = time_mod.monotonic()
    result = replay(spec, schema, trace, similarity=scorer)
    elapsed = time_mod.monotonic() - started
    assert result.done is True
    assert backend.complete_calls == 0, "replay must never call the completion backend"
    per_event = elapsed / len(trace.events)
    assert per_event < 0.050

    # the command-line path over the same 40 events
    import tempfile
    from intentguard.schema import save_schema
    from intentguard.trace import write_trace

    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "long.vsa")
        schema_path = os.path.join(tmp, "schema.json")
        trace_path = os.path.join(tmp, "long.jsonl")
        with open(spec_path, "w") as fh:
            fh.write(render_specification(spec))
        save_schema(schema, schema_path)
        write_trace(trace, trace_path)
        cli = CliRunner().invoke(
            cli_main, ["verify", "--spec", spec_path, "--schema", schema_path, "--trace", trace_path]
        )
        assert cli.exit_code == 0, cli.output
        assert len(cli.output.strip().splitlines()) == 40

    # encoding cost is bounded by the repair loop: one completion per role per iteration
    one_shot = MockBackend(helpers.clean_run())
    encode(INSTRUCTION, schema_from_dict(json.loads((RESTAURANT / "schema.json").read_text())), one_shot)
    assert one_shot.complete_calls == 3

    repair = MockBackend([{"role": "encoder", "response": helpers.TYPE_ERROR_DRAFT}] + helpers.clean_run())
    encode(INSTRUCTION, schema_from_dict(json.loads((RESTAURANT / "schema.json").read_text())), repair)
    assert repair.complete_calls == 4
    passed(11, f"40-step replay: 0 completions, {per_event * 1000:.2f} ms/event; encode used 3 and 4 calls")


@pytest.mark.skipif(
    not os.environ.get("INTENTGUARD_LIVE_EVAL"),
    reason="optional live smoke test; set INTENTGUARD_LIVE_EVAL=1 with API access to run",
)
def test_c12_optional_live_eval():
    cli = CliRunner().invoke(
        cli_main,
        ["eval", "--cases", str(FIXTURES / "eval_cases"), "--backend", "http"],
    )
    print(cli.output)
    assert cli.exit_code == 0
    passed(12, "live eval completed; compare the printed metrics manually")
