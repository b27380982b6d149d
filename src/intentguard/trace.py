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

from ._files import write_text_atomic
from .dsl import TODAY, Constant, ConstKind, Specification, read_literal, render_constant
from .engine import (
    ActionEvent,
    Session,
    StateUpdate,
    TraceError,
    Verdict,
    VerdictKind,
    declared_type,
    validate_event,
)
from .schema import StateSchema, VarType


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


def coerce_value(var_type: VarType, raw: object, where: str) -> Constant:
    """Turn a raw JSON value into a typed constant per the declared type.

    Only the JSON shape and the spelling of a text value are checked here;
    :func:`validate_event` owns the rules about the value itself (finite
    numbers, declared Enum variants)."""
    kind = var_type.kind
    if kind is ConstKind.TEXT:
        if not isinstance(raw, str):
            raise TraceParseError(f"{where}: expected a string, got {raw!r}")
        return Constant.text(raw)
    if kind is ConstKind.NUMBER:
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            raise TraceParseError(f"{where}: expected a number, got {raw!r}")
        try:
            number = Decimal(str(raw))
            # finite text is spelled as in a spec; NaN and the infinities are
            # left for validate_event to reject as non-finite
            if isinstance(raw, str) and number.is_finite():
                return read_literal(ConstKind.NUMBER, raw)
        except (InvalidOperation, ValueError):
            raise TraceParseError(f"{where}: {raw!r} is not a number") from None
        return Constant.number(number)
    if kind is ConstKind.BOOLEAN:
        if not isinstance(raw, bool):
            raise TraceParseError(f"{where}: expected true or false, got {raw!r}")
        return Constant.boolean(raw)
    if kind is ConstKind.DATE:
        if not isinstance(raw, str):
            raise TraceParseError(f"{where}: expected 'YYYY-MM-DD' or 'Today', got {raw!r}")
        if raw.lower() == TODAY.lower():
            return Constant.today()
        try:
            return read_literal(ConstKind.DATE, raw)
        except ValueError:
            raise TraceParseError(f"{where}: {raw!r} is not a date") from None
    if kind is ConstKind.TIME:
        if not isinstance(raw, str) or raw.count(":") != 1:
            raise TraceParseError(f"{where}: expected 'HH:MM', got {raw!r}")
        try:
            return read_literal(ConstKind.TIME, raw)
        except ValueError:
            raise TraceParseError(f"{where}: {raw!r} is not a valid time") from None
    if kind is ConstKind.ENUM:
        if not isinstance(raw, str):
            raise TraceParseError(
                f"{where}: expected one of {list(var_type.variants)}, got {raw!r}"
            )
        return Constant.enum(raw)
    raise AssertionError(f"unhandled type {kind}")


_CLOCK_TIME = re.compile(r"(\d\d):(\d\d)(?::(\d\d)(?:\.(\d{6}))?)?")


def _read_clock(text: str) -> datetime:
    """The naive clock ``text`` spells: a ``YYYY-MM-DD`` date read as the rule
    language reads it, alone or followed by ``THH:MM``, ``THH:MM:SS`` or
    ``THH:MM:SS.ffffff`` as ``datetime.isoformat()`` writes them.
    ``ValueError`` for any other spelling, including a UTC offset."""
    day_text, sep, time_text = text.partition("T")
    day = read_literal(ConstKind.DATE, day_text).value
    if not sep:
        return datetime(day.year, day.month, day.day)
    match = _CLOCK_TIME.fullmatch(time_text)
    if match is None:
        raise ValueError(f"not a naive ISO time: {time_text!r}")
    hour, minute, second, micro = (int(part or 0) for part in match.groups())
    return datetime(day.year, day.month, day.day, hour, minute, second, micro)


def _event_from_dict(data: object, schema: StateSchema) -> ActionEvent:
    """Check field shapes, coerce raw values by their declared types, then
    apply the engine's event rules."""
    if not isinstance(data, dict):
        raise TraceParseError("an event must be a JSON object")
    action_id = data.get("action_id")
    if not isinstance(action_id, str) or not action_id:
        raise TraceParseError("action_id must be a non-empty string")
    critical = data.get("critical")
    if critical is not None and not isinstance(critical, str):
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
        values = {
            var: coerce_value(declared_type(schema, state_name, var), raw_value, f"{state_name}.{var}")
            for var, raw_value in values_raw.items()
        }
        updates.append(StateUpdate(state=state_name, values=values))

    event = ActionEvent(
        action_id=action_id, phase=data.get("phase", "pre"), updates=tuple(updates), critical=critical
    )
    validate_event(event, schema)
    return event


def parse_trace(text: str, schema: StateSchema) -> Trace:
    lines = [line for line in text.splitlines()]
    non_empty = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if not non_empty:
        raise TraceParseError("trace file is empty")

    header_no, header_line = non_empty[0]
    try:
        header_raw = json.loads(header_line)
    except json.JSONDecodeError as exc:
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
    try:
        clock = _read_clock(header_raw["clock"])
    except ValueError as exc:
        raise TraceParseError(f"line {header_no}: clock {header_raw['clock']!r} is not ISO format") from exc
    header = TraceHeader(
        app_id=header_raw["app_id"],
        schema_path=header_raw.get("schema_path", ""),
        instruction=header_raw["instruction"],
        clock=clock,
    )

    events: list[ActionEvent] = []
    seen_ids: set[str] = set()
    for line_no, line in non_empty[1:]:
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
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
    return parse_trace(Path(path).read_text(encoding="utf-8"), schema)


def event_to_dict(event: ActionEvent) -> dict:
    def raw(value: Constant, where: str) -> object:
        """JSON booleans, numbers and text; the literal spelling otherwise."""
        if value.kind is ConstKind.BOOLEAN:
            return bool(value.value)
        if value.kind is ConstKind.TEXT:
            return str(value.value)
        if value.kind is ConstKind.TEXT_LIST:
            raise ValueError(f"{value.kind.value} values cannot appear in trace events")
        if value.kind is ConstKind.NUMBER:
            as_decimal = value.value
            if not as_decimal.is_finite():
                raise ValueError(f"{where}: {as_decimal} is not a finite number")
            if as_decimal == as_decimal.to_integral_value():
                return int(as_decimal)
            as_float = float(as_decimal)
            # keep the exact literal when binary floats would corrupt it
            if Decimal(str(as_float)) == as_decimal:
                return as_float
        return render_constant(value)

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
        if verdict.kind is VerdictKind.TASK_DONE:
            result.done = True
            break
    return result
