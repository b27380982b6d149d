from __future__ import annotations

import random

import pytest

from intentguard.backend import MockBackend, ScriptExhausted
from intentguard.dsl import Specification, parse_specification, render_rule
from intentguard.encoder import (
    EncodeConfig,
    EncodeFailed,
    SchemaMismatch,
    decode_spec,
    diff_specifications,
    encode,
    majority_encode,
    majority_verify,
    parse_checker_verdict,
    semantic_check,
)
from intentguard.memory import PredicateMemory
from intentguard.schema import schema_from_dict

import helpers
from conftest import trace_fixture

INSTRUCTION = "Reserve restaurant R before 7 PM. If the restaurant is not available at that time, do nothing."


class TestEncode:
    def test_first_draft_accepted(self, restaurant_schema, reservation_spec):
        backend = MockBackend(helpers.clean_run())
        result = encode(INSTRUCTION, restaurant_schema, backend)
        assert result.iterations_used == 1
        assert result.from_memory is False
        assert result.spec == reservation_spec
        assert [entry.role for entry in result.transcript] == ["encoder", "decoder", "checker"]

    def test_type_error_draft_is_repaired(self, restaurant_schema):
        backend = MockBackend(
            [{"role": "encoder", "response": helpers.TYPE_ERROR_DRAFT}] + helpers.clean_run()
        )
        result = encode(INSTRUCTION, restaurant_schema, backend)
        assert result.iterations_used == 2
        # the second encoder prompt carries the structured diagnostic back
        assert "TYPE_MISMATCH" in result.transcript[1].prompt
        assert "name" in result.transcript[1].prompt

    def test_semantic_failure_is_repaired(self, restaurant_schema):
        backend = MockBackend(
            [
                {"role": "encoder", "response": helpers.FAULTY_DRAFT},
                {"role": "decoder", "response": "Reserve before 17:00."},
                {"role": "checker", "response": "FAIL: the instruction says before 7 PM, not 5 PM"},
            ]
            + helpers.clean_run()
        )
        result = encode(INSTRUCTION, restaurant_schema, backend)
        assert result.iterations_used == 2
        assert "before 7 PM, not 5 PM" in result.transcript[3].prompt

    def test_unparseable_drafts_exhaust_budget(self, restaurant_schema):
        backend = MockBackend(helpers.failing_encode_run(3))
        with pytest.raises(EncodeFailed) as exc_info:
            encode(INSTRUCTION, restaurant_schema, backend)
        assert backend.complete_calls == 3
        assert exc_info.value.diagnostics
        assert len(exc_info.value.transcript) == 3

    def test_budget_is_configurable(self, restaurant_schema):
        backend = MockBackend(helpers.failing_encode_run(2))
        with pytest.raises(EncodeFailed):
            encode(INSTRUCTION, restaurant_schema, backend, EncodeConfig(max_repair_iterations=2))
        assert backend.complete_calls == 2

    def test_memory_candidates_enter_the_prompt(self, restaurant_schema, reservation_spec):
        memory = PredicateMemory()
        memory.record_success(restaurant_schema.app_id, INSTRUCTION, reservation_spec)
        backend = helpers.RecordingBackend(MockBackend(helpers.clean_run()))
        result = encode("Reserve restaurant R tonight", restaurant_schema, backend, memory=memory)
        assert result.from_memory is True
        first_prompt = backend.requests[0][1]
        assert "ReserveInfo.time <" in first_prompt

    def test_empty_memory_keeps_cold_path(self, restaurant_schema):
        backend = helpers.RecordingBackend(MockBackend(helpers.clean_run()))
        result = encode(INSTRUCTION, restaurant_schema, backend, memory=PredicateMemory())
        assert result.from_memory is False
        assert "similar past instructions" not in backend.requests[0][1]

    def test_script_exhaustion_propagates(self, restaurant_schema):
        backend = MockBackend(helpers.failing_encode_run(1))
        with pytest.raises(ScriptExhausted):
            encode(INSTRUCTION, restaurant_schema, backend)

    def test_encode_is_reproducible_with_a_fixed_script(self, restaurant_schema):
        results = [
            encode(INSTRUCTION, restaurant_schema, MockBackend(helpers.clean_run()))
            for _ in range(2)
        ]
        assert results[0].spec == results[1].spec
        assert results[0].transcript == results[1].transcript

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncodeConfig(max_repair_iterations=0)
        with pytest.raises(ValueError):
            EncodeConfig(majority_n=2)


class TestDecode:
    def test_prompt_contains_every_rule(self, restaurant_schema, reservation_spec):
        backend = helpers.RecordingBackend(
            MockBackend([{"role": "decoder", "response": "a description"}])
        )
        text = decode_spec(reservation_spec, backend)
        assert text == "a description"
        role, prompt = backend.requests[0]
        assert role == "decoder"
        for rule in reservation_spec.rules:
            assert render_rule(rule) in prompt

    def test_empty_spec_rejected_before_backend_call(self):
        backend = MockBackend([])
        with pytest.raises(ValueError):
            decode_spec(Specification(rules=()), backend)
        assert backend.complete_calls == 0


class TestSemanticCheck:
    def test_pass(self):
        backend = MockBackend([{"role": "checker", "response": "PASS"}])
        assert semantic_check("do x", "it does x", backend) == (True, "")

    def test_fail_with_cause(self):
        backend = MockBackend([{"role": "checker", "response": "FAIL: time constraint missing"}])
        assert semantic_check("do x", "it does y", backend) == (False, "time constraint missing")

    def test_malformed_then_valid_uses_the_reask(self):
        backend = MockBackend(
            [
                {"role": "checker", "response": "well, it looks fine to me"},
                {"role": "checker", "response": "PASS"},
            ]
        )
        assert semantic_check("do x", "it does x", backend) == (True, "")
        assert backend.complete_calls == 2

    def test_twice_malformed_counts_as_unparseable_fail(self):
        backend = MockBackend(
            [
                {"role": "checker", "response": "hmm"},
                {"role": "checker", "response": "shrug"},
            ]
        )
        assert semantic_check("do x", "it does x", backend) == (False, "unparseable")

    def test_empty_inputs_rejected(self):
        backend = MockBackend([])
        with pytest.raises(ValueError):
            semantic_check("", "desc", backend)
        with pytest.raises(ValueError):
            semantic_check("instr", "   ", backend)

    @pytest.mark.parametrize(
        "reply, expected",
        [
            ("PASS", (True, "")),
            ("pass", (True, "")),
            ("  PASS  ", (True, "")),
            ("FAIL: missing branch", (False, "missing branch")),
            ("fail: x", (False, "x")),
            ("FAIL:", (False, "no cause given")),
        ],
    )
    def test_verdict_grammar(self, reply, expected):
        assert parse_checker_verdict(reply) == expected


class TestMajority:
    def test_majority_encode_keeps_modal_spec(self, restaurant_schema):
        good = parse_specification(helpers.GOOD_DRAFT.strip("`\n"))
        backend = helpers.majority_backend({0}, runs=3)
        result = majority_encode(INSTRUCTION, restaurant_schema, backend, EncodeConfig(majority_n=3))
        assert result.spec == good
        assert len(result.transcript) == 9  # encoder, decoder, checker for each of three runs
        assert backend.complete_calls == 9

    def test_majority_encode_tie_goes_to_first_seen(self, restaurant_schema):
        drafts = [helpers.FAULTY_DRAFT, helpers.GOOD_DRAFT, helpers.FAULTY_DRAFT.replace("17:00", "16:00")]
        turns = [turn for draft in drafts for turn in helpers.clean_run(draft)]
        result = majority_encode(INSTRUCTION, restaurant_schema, MockBackend(turns), EncodeConfig(majority_n=3))
        assert result.spec == parse_specification(helpers.FAULTY_DRAFT.strip("`\n"))

    def test_majority_encode_of_one_is_encode(self, restaurant_schema):
        once = encode(INSTRUCTION, restaurant_schema, MockBackend(helpers.clean_run()))
        voted = majority_encode(INSTRUCTION, restaurant_schema, MockBackend(helpers.clean_run()))
        assert voted == once

    def test_three_runs_majority_pass(self, restaurant_schema):
        trace = trace_fixture("restaurant", "traces", "happy_path.jsonl", schema=restaurant_schema)
        backend = helpers.majority_backend({1}, runs=3)
        final = majority_verify(
            INSTRUCTION, restaurant_schema, trace, backend, EncodeConfig(majority_n=3)
        )
        assert final.passed is True
        assert [vote.passed for vote in final.votes] == [True, False, True]

    def test_single_run_equals_one_encode_replay(self, restaurant_schema):
        trace = trace_fixture("restaurant", "traces", "happy_path.jsonl", schema=restaurant_schema)
        good = majority_verify(
            INSTRUCTION, restaurant_schema, trace, helpers.majority_backend(set(), runs=1),
            EncodeConfig(majority_n=1),
        )
        bad = majority_verify(
            INSTRUCTION, restaurant_schema, trace, helpers.majority_backend({0}, runs=1),
            EncodeConfig(majority_n=1),
        )
        assert good.passed is True
        assert bad.passed is False

    def test_encode_failures_vote_fail(self, restaurant_schema):
        trace = trace_fixture("restaurant", "traces", "happy_path.jsonl", schema=restaurant_schema)
        turns = helpers.clean_run() + helpers.failing_encode_run(3) + helpers.clean_run()
        final = majority_verify(
            INSTRUCTION, restaurant_schema, trace, MockBackend(turns), EncodeConfig(majority_n=3)
        )
        assert final.passed is True
        assert [vote.passed for vote in final.votes] == [True, False, True]
        assert final.votes[1].encode_error is not None

    def test_seeded_two_of_five_faulty_always_recovers(self, restaurant_schema):
        trace = trace_fixture("restaurant", "traces", "happy_path.jsonl", schema=restaurant_schema)
        for seed in range(5):
            faulty = set(random.Random(seed).sample(range(5), 2))
            backend = helpers.majority_backend(faulty, runs=5)
            final = majority_verify(
                INSTRUCTION, restaurant_schema, trace, backend, EncodeConfig(majority_n=5)
            )
            assert final.passed is True
            assert final.pass_count == 3


class TestDiff:
    def test_identical_specs_are_clean(self, reservation_spec, restaurant_schema):
        report = diff_specifications(reservation_spec, reservation_spec, restaurant_schema)
        assert report.is_clean()

    def test_missing_time_constraint(self, reservation_spec, restaurant_schema):
        candidate = parse_specification(
            'RestaurantInfo(name = "R") & ReserveInfo(date = Today, available = true) -> Reserve\n'
            "Reserve & ReserveResult(success = true) -> Done\n"
            'RestaurantInfo(name = "R") & ReserveInfo(date = Today, available != true) -> Done'
        )
        report = diff_specifications(candidate, reservation_spec, restaurant_schema)
        assert len(report.missing_predicates) == 1
        assert report.missing_predicates[0].slot == ("ReserveInfo", "time")
        assert report.critical_missing == ()

        wrong_trace = trace_fixture("restaurant", "traces", "wrong_time.jsonl", schema=restaurant_schema)
        with_trace = diff_specifications(candidate, reservation_spec, restaurant_schema, wrong_trace)
        assert len(with_trace.missing_predicates) == 1
        assert len(with_trace.critical_missing) == 1
        assert with_trace.critical_missing[0].slot == ("ReserveInfo", "time")

    def test_superfluous_constraint(self):
        schema = schema_from_dict(
            {
                "app_id": "demo",
                "states": [
                    {"name": "Cart", "description": "", "variables": [{"item": "Text"}, {"quantity": "Number"}]},
                    {"name": "Checkout", "description": "", "variables": [{"placed": "Boolean"}]},
                ],
            }
        )
        truth = parse_specification("Cart(quantity = 3) & Checkout(placed = true) -> Done")
        candidate = parse_specification('Cart(quantity = 3, item = "apples") & Checkout(placed = true) -> Done')
        report = diff_specifications(candidate, truth, schema)
        assert len(report.superfluous_predicates) == 1
        assert report.superfluous_predicates[0].slot == ("Cart", "item")
        assert report.missing_predicates == ()

    def test_constraint_mismatch(self, reservation_spec, restaurant_schema):
        candidate = parse_specification(
            'RestaurantInfo(name = "R") & ReserveInfo(date = Today, time < 20:00, available = true) -> Reserve\n'
            "Reserve & ReserveResult(success = true) -> Done\n"
            'RestaurantInfo(name = "R") & ReserveInfo(date = Today, time < 20:00, available != true) -> Done'
        )
        report = diff_specifications(candidate, reservation_spec, restaurant_schema)
        assert len(report.constraint_mismatches) == 1
        assert report.constraint_mismatches[0].slot == ("ReserveInfo", "time")
        assert report.missing_predicates == ()

    def test_schema_mismatch_raises(self, reservation_spec, restaurant_schema):
        candidate = parse_specification("Nowhere(x = 1) -> Done")
        with pytest.raises(SchemaMismatch):
            diff_specifications(candidate, reservation_spec, restaurant_schema)
