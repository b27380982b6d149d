"""Per-app cache of previously successful encodings.

Once an instruction's specification has passed both encoding gates and its
replay completed the task, it may be recorded here.  Later encodings of
similar instructions for the same app retrieve a ranked list of (state,
variable, operator) candidates, shrinking the search space the model has to
cover.  Scoring is deliberately simple and offline: how often a predicate
occurs across stored entries, weighted up by word overlap between the new
instruction and the instructions it came from.
"""

from __future__ import annotations

import json
import re
import sys
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from ._files import parse_json, read_text, write_text_atomic
from .dsl import Specification, StatePredicate, render_specification


@dataclass(frozen=True)
class MemoryEntry:
    instruction: str
    spec_text: str
    used_predicates: tuple[tuple[str, str, str], ...]  # (state, variable, operator)
    timestamp: str
    #: the instruction's distinct words, read by every retrieval; derived, so
    #: not stored.  Interned, so that entries share the words they have in common.
    words: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(map(sys.intern, _tokens(self.instruction))))


@dataclass(frozen=True)
class ScoredPredicate:
    state: str
    variable: str
    operator: str
    score: float


# letters and digits of any script, and apostrophes; "_" is replaced first, faster than a class that leaves it out
_WORD_RE = re.compile(r"[\w']+")


def _tokens(text: str) -> set[str]:
    return set(_WORD_RE.findall(unicodedata.normalize("NFC", text.casefold()).replace("_", " ")))


def _jaccard(a: set[str], b: tuple[str, ...]) -> float:
    """Jaccard index of two word sets; ``b`` holds no word twice."""
    if not a or not b:
        return 0.0
    shared = len(a.intersection(b))
    return shared / (len(a) + len(b) - shared)


def used_predicates(spec: Specification) -> tuple[tuple[str, str, str], ...]:
    """Distinct (state, variable, operator) triples appearing in a spec, in
    first-appearance order."""
    seen: dict[tuple[str, str, str], None] = {}
    for rule in spec.rules:
        for pred in rule.predicates:
            if not isinstance(pred, StatePredicate):
                continue
            for constraint in pred.constraints:
                seen.setdefault((pred.state_name, constraint.variable, constraint.operator.value), None)
    return tuple(seen)


def _entry_from_dict(item: dict) -> MemoryEntry:
    instruction, spec_text, triples, timestamp = (
        item[name] for name in ("instruction", "spec", "used_predicates", "timestamp")
    )
    for name, value in (("instruction", instruction), ("spec", spec_text), ("timestamp", timestamp)):
        if not isinstance(value, str):
            raise ValueError(f"memory entry field '{name}' must be a string, got {value!r}")
    if not isinstance(triples, list) or not all(
        isinstance(t, list) and len(t) == 3 and all(isinstance(part, str) for part in t) for t in triples
    ):
        raise ValueError(f"memory entry field 'used_predicates' must be a list of 3-string lists, got {triples!r}")
    return MemoryEntry(instruction, spec_text, tuple(tuple(t) for t in triples), timestamp)


class PredicateMemory:
    """Mutable in-process view of one memory file (single writer)."""

    def __init__(self, entries: dict[str, list[MemoryEntry]] | None = None):
        self.entries: dict[str, list[MemoryEntry]] = entries or {}

    # -- recording -----------------------------------------------------------

    def record_success(
        self,
        app_id: str,
        instruction: str,
        spec: Specification,
        now: datetime | None = None,
    ) -> bool:
        """Append one verified encoding; returns False on a content duplicate.

        Callers are responsible for the precondition: only record specs whose
        replay actually reached task completion.
        """
        stamp = (now or datetime.now(timezone.utc)).isoformat()
        entry = MemoryEntry(
            instruction=instruction,
            spec_text=render_specification(spec),
            used_predicates=used_predicates(spec),
            timestamp=stamp,
        )
        bucket = self.entries.setdefault(app_id, [])
        if any((e.instruction, e.spec_text) == (instruction, entry.spec_text) for e in bucket):
            return False
        bucket.append(entry)
        return True

    # -- retrieval -----------------------------------------------------------

    def retrieve_candidates(self, app_id: str, instruction: str) -> list[ScoredPredicate]:
        """Rank stored predicates for a new instruction.

        score(p) = count of entries containing p, plus the word-set Jaccard
        between the new instruction and each such entry's instruction.  Ties
        break lexicographically, so insertion order never matters.
        """
        words = _tokens(instruction)
        scores: dict[tuple[str, str, str], float] = {}
        for entry in self.entries.get(app_id, []):
            overlap = _jaccard(words, entry.words)
            for triple in entry.used_predicates:
                scores[triple] = scores.get(triple, 0.0) + 1.0 + overlap
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [ScoredPredicate(state, var, op, score) for (state, var, op), score in ranked]

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "entries": {
                app_id: [
                    {
                        "instruction": e.instruction,
                        "spec": e.spec_text,
                        "used_predicates": [list(t) for t in e.used_predicates],
                        "timestamp": e.timestamp,
                    }
                    for e in bucket
                ]
                for app_id, bucket in self.entries.items()
            }
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PredicateMemory":
        """Raises ``ValueError`` when an entry lacks a field or has the wrong shape."""
        entries: dict[str, list[MemoryEntry]] = {}
        try:
            for app_id, bucket in data.get("entries", {}).items():
                entries[app_id] = [_entry_from_dict(item) for item in bucket]
        except KeyError as exc:
            raise ValueError(f"a memory entry lacks the field {exc}") from None
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"malformed memory file: {exc}") from None
        return cls(entries)

    def save(self, path: str | Path) -> None:
        write_text_atomic(path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PredicateMemory":
        text = read_text(path)
        try:
            data = parse_json(text)
        except ValueError as exc:
            raise ValueError(f"not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load_or_empty(cls, path: str | Path) -> "PredicateMemory":
        p = Path(path)
        return cls.load(p) if p.exists() else cls()
