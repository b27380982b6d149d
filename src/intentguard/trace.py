"""JSONL trace files: one header line, then one action event per line.

The header fixes everything replay needs for determinism::

    {"app_id": "...", "schema_path": "schema.json", "instruction": "...",
     "clock": "2025-03-14T12:00:00"}

The clock is naive: ``Today`` resolves on its calendar date, and the rule
language has no time zones.

Each event line mirrors one state-update trigger firing::

    {"action_id": "a1", "phase": "pre",
     "updates": [{"state": "ReserveInfo", "values": {"time": "18:00"}}],
     "critical": "Reserve"}

Raw JSON values are coerced into typed constants using the schema's variable
declarations, so `"Today"` is a date for a Date variable and plain text for a
Text variable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime
from decimal import Decimal, InvalidOperation
from pathlib import Path

from ._files import parse_json, read_text, write_text_atomic
from .dsl import TODAY, Constant, Specification, read_literal, render_constant
from .engine import (
    _TASK_DONE,
    ActionEvent,
    Session,
    StateUpdate,
    TraceError,
    Verdict,
    declared_type,
    validate_event,
)
from .schema import _BOOLEAN, _DATE, _ENUM, _NUMBER, _TEXT, _TEXT_LIST, _TIME, StateSchema, VarType


class TraceParseError(ValueError):
    """Trace file is malformed (bad JSON, missing header fields, bad values)."""


@dataclass(frozen=True)
class TraceHeader:
    app_id: str
    schema_path: str
    instruction: str
    clock: datetime


@dataclass(frozen=True)
class Trace:
    header: TraceHeader
    events: tuple[ActionEvent, ...]


def coerce_value(var_type: VarType, raw: object, state: str, variable: str) -> Constant:
    """Turn a raw JSON value for ``state.variable`` into a typed constant per
    the declared type.

    Only the JSON shape and the spelling of a text value are checked here;
    :func:`validate_event` owns the rules about the value itself (finite
    numbers, declared Enum variants).  The ``state.variable`` label that
    begins a :class:`TraceParseError` is built only when one is raised."""
    kind = var_type.kind
    if kind is _TEXT:
        if isinstance(raw, str):
            return Constant.text(raw)
        problem = f"expected a string, got {raw!r}"
    elif kind is _NUMBER:
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            problem = f"expected a number, got {raw!r}"
        else:
            try:
                number = Decimal(str(raw))
                # finite text is spelled as in a spec; NaN and the infinities
                # are left for validate_event to reject as non-finite
                if isinstance(raw, str) and number.is_finite():
                    return read_literal(_NUMBER, raw)
            except (InvalidOperation, ValueError):
                problem = f"{raw!r} is not a number"
            else:
                return Constant.number(number)
    elif kind is _BOOLEAN:
        if isinstance(raw, bool):
            return Constant.boolean(raw)
        problem = f"expected true or false, got {raw!r}"
    elif kind is _DATE:
        if not isinstance(raw, str):
            problem = f"expected 'YYYY-MM-DD' or 'Today', got {raw!r}"
        elif raw.lower() == TODAY.lower():
            return Constant.today()
        else:
            try:
                return read_literal(_DATE, raw)
            except ValueError:
                problem = f"{raw!r} is not a date"
    elif kind is _TIME:
        if not isinstance(raw, str) or raw.count(":") != 1:
            problem = f"expected 'HH:MM', got {raw!r}"
        else:
            try:
                return read_literal(_TIME, raw)
            except ValueError:
                problem = f"{raw!r} is not a valid time"
    elif kind is _ENUM:
        if isinstance(raw, str):
            return Constant.enum(raw)
        problem = f"expected one of {list(var_type.variants)}, got {raw!r}"
    else:
        raise AssertionError(f"unhandled type {kind}")
    raise TraceParseError(f"{state}.{variable}: {problem}")


_CLOCK_TIME = re.compile(r"(\d\d):(\d\d)(?::(\d\d)(?:\.(\d{6}))?)?")


def _read_clock(text: str) -> datetime:
    """The naive clock ``text`` spells: a ``YYYY-MM-DD`` date read as the rule
    language reads it, alone or followed by ``THH:MM``, ``THH:MM:SS`` or
    ``THH:MM:SS.ffffff`` as ``datetime.isoformat()`` writes them.
    ``ValueError`` for any other spelling, including a UTC offset."""
    day_text, sep, time_text = text.partition("T")
    day = read_literal(_DATE, day_text).value
    if not sep:
        return datetime(day.year, day.month, day.day)
    match = _CLOCK_TIME.fullmatch(time_text)
    if match is None:
        raise ValueError(f"not a naive ISO time: {time_text!r}")
    hour, minute, second, micro = (int(part or 0) for part in match.groups())
    return datetime(day.year, day.month, day.day, hour, minute, second, micro)


def _event_from_dict(data: object, schema: StateSchema) -> ActionEvent:
    """Check field shapes, coerce raw values by their declared types, then
    apply the engine's event rules.  The schema is asked for each update's
    state once; :func:`declared_type` is called only to raise its
    :class:`TraceError` for an undeclared state or variable."""
    if not isinstance(data, dict):
        raise TraceParseError("an event must be a JSON object")
    action_id = data.get("action_id")
    if not isinstance(action_id, str) or not action_id:
        raise TraceParseError("action_id must be a non-empty string")
    critical = data.get("critical")
    if critical is not None and (not isinstance(critical, str) or not critical):
        raise TraceParseError("critical must be an objective name")
    raw_updates = data.get("updates", [])
    if not isinstance(raw_updates, list):
        raise TraceParseError("updates must be a list")

    updates: list[StateUpdate] = []
    for raw in raw_updates:
        if not isinstance(raw, dict) or not isinstance(raw.get("state"), str):
            raise TraceParseError("each update needs a 'state' name")
        state_name = raw["state"]
        values_raw = raw.get("values")
        if not isinstance(values_raw, dict):
            raise TraceParseError(f"update for '{state_name}' needs a 'values' object")
        state = schema.state(state_name)
        variables = state.variables if state is not None else {}
        values = {}
        for var, raw_value in values_raw.items():
            if var not in variables:
                declared_type(schema, state_name, var)
            values[var] = coerce_value(variables[var], raw_value, state_name, var)
        updates.append(StateUpdate(state_name, values))

    event = ActionEvent(action_id, data.get("phase", "pre"), tuple(updates), critical)
    validate_event(event, schema)
    return event


def parse_trace(text: str, schema: StateSchema) -> Trace:
    """Read a trace: lines end at ``\\n``, and blank lines are skipped."""
    non_empty = [(i + 1, line) for i, line in enumerate(text.split("\n")) if line.strip()]
    if not non_empty:
        raise TraceParseError("trace file is empty")

    header_no, header_line = non_empty[0]
    try:
        header_raw = parse_json(header_line)
    except ValueError as exc:
        raise TraceParseError(f"line {header_no}: header is not valid JSON: {exc}") from exc
    if not isinstance(header_raw, dict):
        raise TraceParseError(f"line {header_no}: header must be a JSON object")
    for key in ("app_id", "instruction", "clock"):
        if not isinstance(header_raw.get(key), str) or not header_raw[key]:
            raise TraceParseError(f"line {header_no}: header needs a non-empty '{key}'")
    if header_raw["app_id"] != schema.app_id:
        raise TraceParseError(
            f"line {header_no}: trace is for app '{header_raw['app_id']}' but the schema is for '{schema.app_id}'"
        )
    schema_path = header_raw.get("schema_path", "")
    if not isinstance(schema_path, str):
        raise TraceParseError(f"line {header_no}: header 'schema_path' must be a string")
    try:
        clock = _read_clock(header_raw["clock"])
    except ValueError as exc:
        raise TraceParseError(f"line {header_no}: clock {header_raw['clock']!r} is not ISO format") from exc
    header = TraceHeader(
        app_id=header_raw["app_id"],
        schema_path=schema_path,
        instruction=header_raw["instruction"],
        clock=clock,
    )

    events: list[ActionEvent] = []
    seen_ids: set[str] = set()
    for line_no, line in non_empty[1:]:
        try:
            data = parse_json(line)
        except ValueError as exc:
            raise TraceParseError(f"line {line_no}: not valid JSON: {exc}") from exc
        try:
            event = _event_from_dict(data, schema)
        except (TraceError, TraceParseError) as exc:
            raise TraceParseError(f"line {line_no}: {exc}") from None
        if event.action_id in seen_ids:
            raise TraceParseError(f"line {line_no}: duplicate action_id '{event.action_id}'")
        seen_ids.add(event.action_id)
        events.append(event)
    return Trace(header=header, events=tuple(events))


def load_trace(path: str | Path, schema: StateSchema) -> Trace:
    return parse_trace(read_text(path), schema)


def event_to_dict(event: ActionEvent) -> dict:
    def raw(value: Constant, where: str) -> object:
        """JSON booleans, numbers and text; the literal spelling otherwise."""
        kind = value.kind
        if kind is _BOOLEAN:
            return bool(value.value)
        if kind is _TEXT:
            return str(value.value)
        if kind is _TEXT_LIST:
            raise ValueError(f"{kind.value} values cannot appear in trace events")
        literal = render_constant(value)
        if kind is _NUMBER:
            if not value.value.is_finite():
                raise ValueError(f"{where}: {literal} is not a finite number")
            # a JSON number only where coerce_value spells it back the same
            # (7, 2.5, 1.0); otherwise the literal ("2.50", "-0")
            try:
                number = parse_json(literal)
            except ValueError:  # an integer too long for Python to convert
                return literal
            if format(Decimal(str(number)), "f") == literal:
                return number
        return literal

    data: dict = {
        "action_id": event.action_id,
        "phase": event.phase,
        "updates": [
            {"state": u.state, "values": {var: raw(val, f"{u.state}.{var}") for var, val in u.values.items()}}
            for u in event.updates
        ],
    }
    if event.critical is not None:
        data["critical"] = event.critical
    return data


def write_trace(trace: Trace, path: str | Path) -> None:
    if trace.header.clock.utcoffset() is not None:
        # ``Today`` resolves on the clock's calendar date and rules have no
        # zones, so an offset could not be read back
        raise ValueError(f"clock {trace.header.clock.isoformat()} has a UTC offset; trace clocks are naive")
    header = {
        "app_id": trace.header.app_id,
        "schema_path": trace.header.schema_path,
        "instruction": trace.header.instruction,
        "clock": trace.header.clock.isoformat(),
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(event_to_dict(e), sort_keys=True) for e in trace.events)
    write_text_atomic(path, "\n".join(lines) + "\n")


@dataclass
class ReplayResult:
    verdicts: list[Verdict] = field(default_factory=list)
    done: bool = False


def replay(spec: Specification, schema: StateSchema, trace: Trace) -> ReplayResult:
    """Run every event through a fresh session; stop at task completion.

    Pure rule evaluation: no model completions happen here, which is the whole
    point of encoding the instruction up front.
    """
    session = Session(spec, schema, trace.header.clock)
    result = ReplayResult()
    for event in trace.events:
        verdict = session.submit_action(event)
        result.verdicts.append(verdict)
        if verdict.kind is _TASK_DONE:
            result.done = True
            break
    return result
