from __future__ import annotations

from datetime import date, datetime
from pathlib import Path

import pytest
import requests

from intentguard import (
    EvalContext,
    HttpBackend,
    MockBackend,
    Session,
    engine,
    lexical_similarity,
    load_schema,
    load_trace,
    parse_specification,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CLOCK = datetime(2025, 3, 14, 12, 0, 0)
TODAY = date(2025, 3, 14)


@pytest.fixture
def restaurant_schema():
    return load_schema(FIXTURES / "restaurant" / "schema.json")


@pytest.fixture
def reservation_spec():
    return parse_specification((FIXTURES / "restaurant" / "reservation.vsa").read_text(encoding="utf-8"))


@pytest.fixture
def groceries_schema():
    return load_schema(FIXTURES / "groceries" / "schema.json")


@pytest.fixture
def apples_spec():
    return parse_specification((FIXTURES / "groceries" / "apples.vsa").read_text(encoding="utf-8"))


@pytest.fixture
def ctx():
    return EvalContext(today=TODAY, similarity=lexical_similarity)


@pytest.fixture
def make_session(restaurant_schema, reservation_spec):
    def factory(spec=None, schema=None, **kwargs):
        return Session(spec or reservation_spec, schema or restaurant_schema, CLOCK, **kwargs)

    return factory


def refuse_backends(monkeypatch) -> None:
    """Make every way of reaching a model fail loudly, so code that still
    succeeds has shown that it calls none."""

    def refuse(*args, **kwargs):
        raise AssertionError("a backend was called")

    monkeypatch.setattr(requests, "post", refuse)
    monkeypatch.setattr(MockBackend, "complete", refuse)
    monkeypatch.setattr(HttpBackend, "complete", refuse)


@pytest.fixture
def no_backend(monkeypatch):
    refuse_backends(monkeypatch)


@pytest.fixture
def check_calls(monkeypatch):
    """The ``(spec, schema)`` of each static check a session makes; it looks
    the check up in ``engine``."""
    calls = []
    original = engine.check_specification

    def counted(spec, schema):
        calls.append((spec, schema))
        return original(spec, schema)

    monkeypatch.setattr(engine, "check_specification", counted)
    return calls


def trace_fixture(*parts, schema):
    return load_trace(FIXTURES.joinpath(*parts), schema)
