from __future__ import annotations

import json
import random
from datetime import date, datetime, time, timedelta, timezone
from decimal import Decimal

import pytest

from intentguard.dsl import Constant, ConstKind, parse_specification
from intentguard.schema import StateSchema, schema_from_dict
from intentguard.trace import (
    Trace,
    TraceHeader,
    TraceParseError,
    event_to_dict,
    load_trace,
    parse_trace,
    replay,
    write_trace,
)
from intentguard.engine import ActionEvent, StateUpdate, event_fingerprint, validate_event

import generators
from conftest import FIXTURES

HEADER = (
    '{"app_id": "restaurant_demo", "schema_path": "s.json", '
    '"instruction": "reserve", "clock": "2025-03-14T12:00:00"}'
)


def trace_text(*event_lines: str, app_id: str = "restaurant_demo") -> str:
    header = HEADER.replace('"restaurant_demo"', json.dumps(app_id))
    return "\n".join([header, *event_lines]) + "\n"


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
                '[{"state": "S", "values": {"n": 3.5, "d": "2025-12-31", "txt": "Today"}}]}',
                app_id="demo",
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
            ('{"action_id": "x", "updates": [], "critical": 3}', "critical must be an objective name"),
            ('{"action_id": "x", "updates": [], "critical": ""}', "critical must be an objective name"),
            ('{"action_id": "x", "updates": [{"values": {"name": "R"}}]}', "each update needs a 'state' name"),
            (
                '{"action_id": "x", "updates": [{"state": "RestaurantInfo", "values": ["R"]}]}',
                "update for 'RestaurantInfo' needs a 'values' object",
            ),
            ("not json", "not valid JSON"),
        ],
    )
    def test_malformed_events(self, restaurant_schema, line, fragment):
        with pytest.raises(TraceParseError, match=fragment):
            parse_trace(trace_text(line), restaurant_schema)

    @pytest.mark.parametrize(
        "variable, raw, problem",
        [
            ("date", "20250314", "'20250314' is not a date"),
            ("date", "2025-W11-5", "'2025-W11-5' is not a date"),
            ("date", "2025-02-29", "'2025-02-29' is not a date"),
            ("date", 20250314, "expected 'YYYY-MM-DD' or 'Today', got 20250314"),
            ("time", "+1:30", "'+1:30' is not a valid time"),
            ("time", "1_0:30", "'1_0:30' is not a valid time"),
            ("time", "19:5", "'19:5' is not a valid time"),
            ("time", " 9:5", "' 9:5' is not a valid time"),
            ("time", "24:00", "'24:00' is not a valid time"),
            ("time", "19:30:00", "expected 'HH:MM', got '19:30:00'"),
            ("time", 1930, "expected 'HH:MM', got 1930"),
        ],
        ids=[
            "basic-format-date", "week-date", "no-such-day", "date-not-text", "signed-hour",
            "underscored-hour", "one-digit-minute", "blank-before-hour", "hour-24", "seconds", "time-not-text",
        ],
    )
    def test_dates_and_times_take_only_the_rule_language_spellings(self, restaurant_schema, variable, raw, problem):
        line = json.dumps({"action_id": "x", "updates": [{"state": "ReserveInfo", "values": {variable: raw}}]})
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(trace_text(line), restaurant_schema)
        assert str(excinfo.value) == f"line 2: ReserveInfo.{variable}: {problem}"

    def test_arabic_indic_date_and_time_read_the_same_in_spec_and_trace(self, restaurant_schema):
        spec = parse_specification("ReserveInfo(date = ٢٠٢٥-٠٣-١٤, time = ١٩:٣٠) -> Done")
        constants = {c.variable: c.constant for c in spec.rules[0].predicates[0].constraints}
        line = json.dumps(
            {"action_id": "x", "updates": [{"state": "ReserveInfo", "values": {"date": "٢٠٢٥-٠٣-١٤", "time": "١٩:٣٠"}}]},
            ensure_ascii=False,
        )
        trace = parse_trace(trace_text(line), restaurant_schema)
        assert trace.events[0].updates[0].values == constants == {
            "date": Constant.calendar(date(2025, 3, 14)),
            "time": Constant.clock(time(19, 30)),
        }
        assert replay(spec, restaurant_schema, trace).done is True

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1e999", '"nan"', '"Infinity"'])
    def test_non_finite_numbers_rejected(self, groceries_schema, raw):
        line = '{"action_id": "x", "updates": [{"state": "Cart", "values": {"quantity": %s}}]}' % raw
        with pytest.raises(TraceParseError, match=r"^line 2: Cart\.quantity: .* is not a finite number"):
            parse_trace(trace_text(line, app_id="groceries_demo"), groceries_schema)

    @pytest.mark.parametrize(
        "raw, problem",
        [("true", "expected a number, got True"), ("[1]", "expected a number, got [1]"), ('"abc"', "'abc' is not a number")],
    )
    def test_numbers_must_be_json_numbers_or_numeric_text(self, groceries_schema, raw, problem):
        line = '{"action_id": "x", "updates": [{"state": "Cart", "values": {"quantity": %s}}]}' % raw
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(trace_text(line, app_id="groceries_demo"), groceries_schema)
        assert str(excinfo.value) == f"line 2: Cart.quantity: {problem}"

    @pytest.mark.parametrize("raw", ["-1e100000000", "1e3", "1E-2", " 1", "1.", ".5", "+1", "1_000", "0x10"])
    def test_numeric_text_is_spelled_like_a_spec_number(self, groceries_schema, raw):
        # an exponent is no literal spelling; an event's fingerprint renders
        # its number digit by digit, which for 1e100000000 takes a third of
        # a second and grows with the exponent
        line = '{"action_id": "x", "updates": [{"state": "Cart", "values": {"quantity": %s}}]}' % json.dumps(raw)
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(trace_text(line, app_id="groceries_demo"), groceries_schema)
        assert str(excinfo.value) == f"line 2: Cart.quantity: {raw!r} is not a number"

    @pytest.mark.parametrize("raw, number", [('"-12.50"', "-12.50"), ('"\u0664\u0662"', "42"), ("1e3", "1000")])
    def test_numeric_text_and_json_numbers_are_read_exactly(self, groceries_schema, raw, number):
        line = '{"action_id": "x", "updates": [{"state": "Cart", "values": {"quantity": %s}}]}' % raw
        trace = parse_trace(trace_text(line, app_id="groceries_demo"), groceries_schema)
        value = trace.events[0].updates[0].values["quantity"]
        assert value == Constant.number(Decimal(number))

    @pytest.mark.parametrize(
        "raw, problem",
        [("Bogus", "Order.status (Enum[Open, Paid]) has no variant 'Bogus'"), (1, "Order.status: expected one of ['Open', 'Paid'], got 1")],
    )
    def test_enum_values_must_be_declared_variants(self, raw, problem):
        schema = schema_from_dict(
            {"app_id": "shop", "states": [{"name": "Order", "description": "", "variables": [{"status": "Enum[Open, Paid]"}]}]}
        )
        line = json.dumps({"action_id": "x", "updates": [{"state": "Order", "values": {"status": raw}}]})
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(trace_text(line, app_id="shop"), schema)
        assert str(excinfo.value) == f"line 2: {problem}"

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

    @pytest.mark.parametrize(
        "clock, expected",
        [
            ("2025-03-14T12:00:00", datetime(2025, 3, 14, 12, 0)),
            ("2025-03-14", datetime(2025, 3, 14)),
            ("2025-03-14T12:00", datetime(2025, 3, 14, 12, 0)),
            ("2025-03-14T12:00:00.123456", datetime(2025, 3, 14, 12, 0, 0, 123456)),
        ],
    )
    def test_clock_takes_the_naive_iso_spellings(self, restaurant_schema, clock, expected):
        header = HEADER.replace("2025-03-14T12:00:00", clock)
        assert parse_trace(header + "\n", restaurant_schema).header.clock == expected

    @pytest.mark.parametrize(
        "clock",
        [
            "20250314T1200",
            "2025-W11-5",
            "2025-03-14T12:00:00Z",
            "2025-03-14T12:00:00+05:30",
            "2025-03-14 12:00:00",
            "2025-03-14T12:00:00.123",
            "2025-03-14T24:00",
        ],
    )
    def test_clock_refuses_other_spellings(self, restaurant_schema, clock):
        header = HEADER.replace("2025-03-14T12:00:00", clock)
        with pytest.raises(TraceParseError) as info:
            parse_trace(header + "\n", restaurant_schema)
        assert str(info.value) == f"line 1: clock {clock!r} is not ISO format"

    def test_header_must_name_the_schemas_app(self, restaurant_schema, groceries_schema):
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(trace_text(app_id="groceries_demo"), restaurant_schema)
        assert str(excinfo.value) == (
            "line 1: trace is for app 'groceries_demo' but the schema is for 'restaurant_demo'"
        )
        with pytest.raises(TraceParseError, match="but the schema is for 'groceries_demo'"):
            load_trace(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl", groceries_schema)

    @pytest.mark.parametrize("value", ['{"a": [1]}', "7", "null", "true"])
    def test_header_schema_path_must_be_a_string(self, restaurant_schema, value):
        header = HEADER.replace('"s.json"', value)
        with pytest.raises(TraceParseError) as info:
            parse_trace(header + "\n", restaurant_schema)
        assert str(info.value) == "line 1: header 'schema_path' must be a string"

    def test_a_missing_schema_path_reads_as_empty(self, restaurant_schema):
        header = HEADER.replace('"schema_path": "s.json", ', "")
        assert parse_trace(header + "\n", restaurant_schema).header.schema_path == ""

    def test_empty_file(self, restaurant_schema):
        with pytest.raises(TraceParseError, match="empty"):
            parse_trace("\n\n", restaurant_schema)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_lines_end_at_newline_only(self, separator):
        """JSON lets these stand raw in a string; ``str.splitlines`` broke the
        line at them."""
        schema = schema_from_dict(
            {"app_id": "demo", "states": [{"name": "S", "description": "", "variables": [{"msg": "Text"}]}]}
        )
        line = json.dumps({"action_id": "e1", "updates": [{"state": "S", "values": {"msg": f"a{separator}b"}}]},
                          ensure_ascii=False)
        trace = parse_trace(trace_text(line, app_id="demo"), schema)
        assert trace.events[0].updates[0].values["msg"] == Constant.text(f"a{separator}b")

    def test_crlf_lines_keep_their_numbers(self, restaurant_schema):
        event = '{"action_id": "a1", "phase": "pre", "updates": [], "critical": "Reserve"}'
        with pytest.raises(TraceParseError, match="^line 4: duplicate action_id 'a1'$"):
            parse_trace("\r\n".join([HEADER, event, "", event]) + "\r\n", restaurant_schema)

    @pytest.mark.parametrize("n_events, n_values", [(1, 1), (5, 4), (3, 9)])
    def test_each_update_asks_the_schema_for_its_state_once(self, monkeypatch, n_events, n_values):
        # one lookup per update when values are coerced and one when they are
        # validated, however many values the update carries
        schema = schema_from_dict({
            "app_id": "demo",
            "states": [{"name": "S", "description": "", "variables": [{f"v{i}": "Text"} for i in range(n_values)]}],
        })
        values = json.dumps({f"v{i}": "x" for i in range(n_values)})
        lines = [f'{{"action_id": "e{k}", "updates": [{{"state": "S", "values": {values}}}]}}' for k in range(n_events)]
        asked = []
        lookup = StateSchema.state
        monkeypatch.setattr(StateSchema, "state", lambda self, name: asked.append(name) or lookup(self, name))
        trace = parse_trace(trace_text(*lines, app_id="demo"), schema)
        assert asked == ["S"] * (2 * n_events)
        asked.clear()
        for event in trace.events:
            validate_event(event, schema)
        assert asked == ["S"] * n_events


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


    def test_every_constant_kind_round_trips(self, tmp_path):
        schema = schema_from_dict(
            {
                "app_id": "demo",
                "states": [
                    {
                        "name": "S",
                        "description": "",
                        "variables": [
                            {"txt": "Text"}, {"n": "Number"}, {"flag": "Boolean"},
                            {"d": "Date"}, {"t": "Time"}, {"pay": "Enum[Card, Cash]"},
                        ],
                    }
                ],
            }
        )
        exact = Decimal("0.1000000000000000000001")  # no binary float holds it
        values = [
            {
                "txt": Constant.text("Today"),
                "n": Constant.number(7),
                "flag": Constant.boolean(False),
                "d": Constant.calendar(date(987, 1, 2)),
                "t": Constant.clock(time(9, 5)),
                "pay": Constant.enum("Cash"),
            },
            {"n": Constant.number(Decimal("2.5")), "d": Constant.today(), "t": Constant.clock(time(23, 59))},
            {"n": Constant.number(exact)},
        ]
        trace = Trace(
            header=TraceHeader("demo", "", "all kinds", datetime(2025, 3, 14)),
            events=tuple(ActionEvent(f"e{i}", "pre", (StateUpdate("S", v),)) for i, v in enumerate(values)),
        )
        written = [event_to_dict(e)["updates"][0]["values"] for e in trace.events]
        assert written[0] == {"txt": "Today", "n": 7, "flag": False, "d": "0987-01-02", "t": "09:05", "pay": "Cash"}
        assert written[1] == {"n": 2.5, "d": "Today", "t": "23:59"}
        assert written[2] == {"n": "0.1000000000000000000001"}
        path = tmp_path / "kinds.jsonl"
        write_trace(trace, path)
        assert parse_trace(path.read_text(encoding="utf-8"), schema) == trace

    def test_seeded_constants_keep_their_spelling(self, tmp_path):
        # == on Decimal would pass 1 for 1.0; the event identity reads the spelling
        schema = schema_from_dict(
            {
                "app_id": "demo",
                "states": [
                    {
                        "name": "S",
                        "description": "",
                        "variables": [
                            {"txt": "Text"}, {"n": "Number"}, {"flag": "Boolean"}, {"d": "Date"}, {"t": "Time"},
                        ],
                    }
                ],
            }
        )
        rng = random.Random(1717)
        kinds = {"txt": ConstKind.TEXT, "n": ConstKind.NUMBER, "flag": ConstKind.BOOLEAN,
                 "d": ConstKind.DATE, "t": ConstKind.TIME}
        values = [{var: generators.constant(rng, kind) for var, kind in kinds.items()} for _ in range(500)]
        literals = ["-0", "0.0", "-0.0", "1.0", "2.50", "100", "-7.000", "0.1000000000000000000001"]
        values += [{"n": Constant.number(Decimal(literal))} for literal in literals]
        events = tuple(ActionEvent(f"e{i}", "pre", (StateUpdate("S", v),)) for i, v in enumerate(values))
        trace = Trace(header=TraceHeader("demo", "", "seeded", datetime(2025, 3, 14)), events=events)
        path = tmp_path / "seeded.jsonl"
        write_trace(trace, path)
        reloaded = parse_trace(path.read_text(encoding="utf-8"), schema)
        assert [event_fingerprint(e) for e in reloaded.events] == [event_fingerprint(e) for e in events]

    def test_round_trip_keeps_the_verdicts(self, apples_spec, groceries_schema, tmp_path):
        # 1.0 and 1 are different events, so the resubmitted 1 is checked again
        lines = [
            '{"action_id": "g1", "updates": [{"state": "Cart", "values": {"quantity": 1.0}}]}',
            '{"action_id": "g2", "updates": [{"state": "Cart", "values": {"quantity": 1}}]}',
            '{"action_id": "g3", "updates": [{"state": "Cart", "values": {"quantity": "2.50"}}]}',
        ]
        trace = parse_trace(trace_text(*lines, app_id="groceries_demo"), groceries_schema)
        path = tmp_path / "copy.jsonl"
        write_trace(trace, path)

        def verdict_lines(trace):
            verdicts = replay(apples_spec, groceries_schema, trace).verdicts
            return [json.dumps(v.to_json_dict(), sort_keys=True) for v in verdicts]

        assert [json.loads(line)["kind"] for line in verdict_lines(trace)] == ["soft_block"] * 3
        assert verdict_lines(load_trace(path, groceries_schema)) == verdict_lines(trace)

    def test_clock_with_microseconds_round_trips(self, restaurant_schema, tmp_path):
        trace = Trace(header=TraceHeader("restaurant_demo", "", "x", datetime(2025, 3, 14, 12, 0, 5, 7)), events=())
        path = tmp_path / "clock.jsonl"
        write_trace(trace, path)
        assert load_trace(path, restaurant_schema) == trace

    def test_aware_clock_is_not_written(self, tmp_path):
        aware = datetime(2025, 3, 14, 12, 0, tzinfo=timezone(timedelta(hours=5, minutes=30)))
        path = tmp_path / "aware.jsonl"
        with pytest.raises(ValueError, match="UTC offset"):
            write_trace(Trace(header=TraceHeader("demo", "", "x", aware), events=()), path)
        assert not path.exists()

    def test_number_longer_than_python_converts_round_trips(self, tmp_path):
        """Past 4,300 digits the JSON decoder refuses an integer, so it is
        written as its literal text, which ``load_trace`` reads back."""
        schema = schema_from_dict(
            {"app_id": "demo", "states": [{"name": "S", "description": "", "variables": [{"n": "Number"}]}]}
        )
        trace = Trace(
            header=TraceHeader("demo", "", "count", datetime(2025, 3, 14)),
            events=(ActionEvent("e1", "pre", (StateUpdate("S", {"n": Constant.number(Decimal("1" * 5000))}),)),),
        )
        path = tmp_path / "long.jsonl"
        write_trace(trace, path)
        assert load_trace(path, schema) == trace

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_number_is_not_written(self, value):
        event = ActionEvent("e1", "pre", (StateUpdate("Cart", {"quantity": Constant.number(Decimal(value))}),))
        with pytest.raises(ValueError) as info:
            event_to_dict(event)
        assert str(info.value) == f"Cart.quantity: {value} is not a finite number"

    def test_text_list_value_is_not_written(self):
        # a list is only ever a constant; no variable is declared as one
        event = ActionEvent("e1", "pre", (StateUpdate("Cart", {"items": Constant.text_list(["a", "b"])}),))
        with pytest.raises(ValueError, match="^TextList values cannot appear in trace events$"):
            event_to_dict(event)


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

    def test_replay_makes_zero_backend_completions(self, reservation_spec, restaurant_schema, no_backend):
        trace = load_trace(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl", restaurant_schema)
        result = replay(reservation_spec, restaurant_schema, trace)
        assert result.done is True
