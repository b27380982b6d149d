from __future__ import annotations

import json
from datetime import date, datetime, time
from decimal import Decimal

import pytest

from intentguard.backend import MockBackend, SimilarityScorer
from intentguard.dsl import Constant
from intentguard.schema import schema_from_dict
from intentguard.trace import (
    Trace,
    TraceHeader,
    TraceParseError,
    load_trace,
    parse_trace,
    replay,
    write_trace,
)
from intentguard.engine import ActionEvent, StateUpdate

from conftest import FIXTURES

HEADER = (
    '{"app_id": "restaurant_demo", "schema_path": "s.json", '
    '"instruction": "reserve", "clock": "2025-03-14T12:00:00"}'
)


def trace_text(*event_lines: str) -> str:
    return "\n".join([HEADER, *event_lines]) + "\n"


class TestParse:
    def test_happy_path_fixture(self, restaurant_schema):
        trace = load_trace(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl", restaurant_schema)
        assert trace.header.clock == datetime(2025, 3, 14, 12, 0)
        assert len(trace.events) == 4
        a2 = trace.events[1]
        assert a2.updates[0].values["date"] == Constant.today()
        assert a2.updates[0].values["time"] == Constant.clock(time(18, 0))
        assert a2.updates[0].values["available"] == Constant.boolean(True)
        assert trace.events[2].critical == "Reserve"

    def test_number_and_date_coercions(self):
        schema = schema_from_dict(
            {
                "app_id": "demo",
                "states": [
                    {"name": "S", "description": "", "variables": [{"n": "Number"}, {"d": "Date"}, {"txt": "Text"}]}
                ],
            }
        )
        trace = parse_trace(
            trace_text(
                '{"action_id": "e1", "phase": "pre", "updates": '
                '[{"state": "S", "values": {"n": 3.5, "d": "2025-12-31", "txt": "Today"}}]}'
            ),
            schema,
        )
        values = trace.events[0].updates[0].values
        assert values["n"] == Constant.number(Decimal("3.5"))
        assert values["d"] == Constant.calendar(date(2025, 12, 31))
        # "Today" on a Text variable stays plain text
        assert values["txt"] == Constant.text("Today")

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ('{"action_id": "", "phase": "pre", "updates": []}', "action_id"),
            ('{"action_id": "x", "phase": "mid", "updates": []}', "phase"),
            ('{"action_id": "x", "phase": "pre", "updates": []}', "neither updates nor"),
            (
                '{"action_id": "x", "phase": "pre", "updates": [{"state": "Nope", "values": {"a": 1}}]}',
                "not declared",
            ),
            (
                '{"action_id": "x", "phase": "pre", "updates": [{"state": "RestaurantInfo", "values": {}}]}',
                "non-empty",
            ),
            (
                '{"action_id": "x", "phase": "pre", "updates": [{"state": "RestaurantInfo", "values": {"name": 3}}]}',
                "expected a string",
            ),
            (
                '{"action_id": "x", "phase": "pre", "updates": [{"state": "ReserveInfo", "values": {"available": "yes"}}]}',
                "true or false",
            ),
            (
                '{"action_id": "x", "phase": "pre", "updates": [{"state": "ReserveInfo", "values": {"time": "25:99"}}]}',
                "not a valid time",
            ),
            ("not json", "not valid JSON"),
        ],
    )
    def test_malformed_events(self, restaurant_schema, line, fragment):
        with pytest.raises(TraceParseError, match=fragment):
            parse_trace(trace_text(line), restaurant_schema)

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1e999", '"nan"', '"Infinity"'])
    def test_non_finite_numbers_rejected(self, groceries_schema, raw):
        line = '{"action_id": "x", "updates": [{"state": "Cart", "values": {"quantity": %s}}]}' % raw
        with pytest.raises(TraceParseError, match=r"^line 2: Cart\.quantity: .* is not a finite number"):
            parse_trace(trace_text(line), groceries_schema)

    @pytest.mark.parametrize("line", ["[1, 2]", '"event"', "3"])
    def test_event_line_must_be_an_object(self, restaurant_schema, line):
        with pytest.raises(TraceParseError, match="line 2: an event must be a JSON object"):
            parse_trace(trace_text(line), restaurant_schema)

    def test_header_must_be_an_object(self, restaurant_schema):
        with pytest.raises(TraceParseError, match="line 1: header must be a JSON object"):
            parse_trace("[]\n", restaurant_schema)

    def test_duplicate_action_ids(self, restaurant_schema):
        line = '{"action_id": "dup", "phase": "pre", "updates": [{"state": "RestaurantInfo", "values": {"name": "R"}}]}'
        with pytest.raises(TraceParseError, match="duplicate action_id"):
            parse_trace(trace_text(line, line), restaurant_schema)

    def test_header_requires_clock(self, restaurant_schema):
        headerless = '{"app_id": "demo", "instruction": "x"}'
        with pytest.raises(TraceParseError, match="clock"):
            parse_trace(headerless + "\n", restaurant_schema)

    def test_empty_file(self, restaurant_schema):
        with pytest.raises(TraceParseError, match="empty"):
            parse_trace("\n\n", restaurant_schema)


class TestWrite:
    def test_round_trip(self, restaurant_schema, tmp_path):
        original = load_trace(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl", restaurant_schema)
        path = tmp_path / "copy.jsonl"
        write_trace(original, path)
        assert load_trace(path, restaurant_schema) == original

    def test_text_with_quotes_round_trips(self, tmp_path):
        schema = schema_from_dict(
            {"app_id": "demo", "states": [{"name": "S", "description": "", "variables": [{"msg": "Text"}]}]}
        )
        tricky = 'say "hi" \\ there'
        trace = Trace(
            header=TraceHeader("demo", "", "echo", datetime(2025, 3, 14)),
            events=(ActionEvent("e1", "pre", (StateUpdate("S", {"msg": Constant.text(tricky)}),)),),
        )
        path = tmp_path / "quotes.jsonl"
        write_trace(trace, path)
        reloaded = load_trace(path, schema)
        assert reloaded.events[0].updates[0].values["msg"] == Constant.text(tricky)

    def test_numbers_round_trip(self, tmp_path):
        schema = schema_from_dict(
            {"app_id": "demo", "states": [{"name": "S", "description": "", "variables": [{"n": "Number"}]}]}
        )
        trace = Trace(
            header=TraceHeader("demo", "", "count", datetime(2025, 3, 14)),
            events=(
                ActionEvent("e1", "pre", (StateUpdate("S", {"n": Constant.number(Decimal("2.5"))}),)),
                ActionEvent("e2", "pre", (StateUpdate("S", {"n": Constant.number(3)}),)),
            ),
        )
        path = tmp_path / "numbers.jsonl"
        write_trace(trace, path)
        assert load_trace(path, schema) == trace


class TestReplay:
    def test_determinism_byte_identical_verdicts(self, reservation_spec, restaurant_schema):
        trace = load_trace(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl", restaurant_schema)
        runs = []
        for _ in range(2):
            result = replay(reservation_spec, restaurant_schema, trace)
            runs.append([json.dumps(v.to_json_dict(), sort_keys=True) for v in result.verdicts])
        assert runs[0] == runs[1]

    def test_stops_at_task_done(self, reservation_spec, restaurant_schema, tmp_path):
        source = (FIXTURES / "restaurant" / "traces" / "happy_path.jsonl").read_text()
        extra = '{"action_id": "late", "phase": "pre", "updates": [{"state": "RestaurantInfo", "values": {"name": "R"}}]}'
        path = tmp_path / "long.jsonl"
        path.write_text(source + extra + "\n")
        trace = load_trace(path, restaurant_schema)
        result = replay(reservation_spec, restaurant_schema, trace)
        assert result.done is True
        assert len(result.verdicts) == 4  # trailing event after completion is not executed

    def test_replay_makes_zero_backend_completions(self, reservation_spec, restaurant_schema):
        trace = load_trace(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl", restaurant_schema)
        backend = MockBackend([])
        scorer = SimilarityScorer(mode="lexical", backend=backend)
        result = replay(reservation_spec, restaurant_schema, trace, similarity=scorer)
        assert result.done is True
        assert backend.complete_calls == 0
