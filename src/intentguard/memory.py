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

import hashlib
import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .dsl import Specification, StatePredicate, parse_specification, render_specification


@dataclass(frozen=True)
class MemoryEntry:
    instruction: str
    spec_text: str
    used_predicates: tuple[tuple[str, str, str], ...]  # (state, variable, operator)
    timestamp: str

    def content_hash(self) -> str:
        key = json.dumps([self.instruction, self.spec_text])
        return hashlib.sha256(key.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScoredPredicate:
    state: str
    variable: str
    operator: str
    score: float


_WORD_RE = re.compile(r"[a-z0-9']+")


def _tokens(text: str) -> set[str]:
    return set(_WORD_RE.findall(text.lower()))


def _token_jaccard(a: str, b: str) -> float:
    ta, tb = _tokens(a), _tokens(b)
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


def used_predicates(spec: Specification) -> tuple[tuple[str, str, str], ...]:
    """Distinct (state, variable, operator) triples appearing in a spec, in
    first-appearance order."""
    seen: dict[tuple[str, str, str], None] = {}
    for rule in spec.rules:
        for pred in rule.predicates:
            if not isinstance(pred, StatePredicate):
                continue
            for constraint in pred.constraints:
                seen.setdefault((pred.state_name, constraint.variable, constraint.operator.symbol), None)
    return tuple(seen)


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
        if any(existing.content_hash() == entry.content_hash() for existing in bucket):
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
        scores: dict[tuple[str, str, str], float] = {}
        for entry in self.entries.get(app_id, []):
            overlap = _token_jaccard(instruction, entry.instruction)
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
                entries[app_id] = [
                    MemoryEntry(
                        instruction=item["instruction"],
                        spec_text=item["spec"],
                        used_predicates=tuple(tuple(t) for t in item["used_predicates"]),
                        timestamp=item["timestamp"],
                    )
                    for item in bucket
                ]
        except KeyError as exc:
            raise ValueError(f"a memory entry lacks the field {exc}") from None
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"malformed memory file: {exc}") from None
        return cls(entries)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PredicateMemory":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load_or_empty(cls, path: str | Path) -> "PredicateMemory":
        p = Path(path)
        return cls.load(p) if p.exists() else cls()

    def specs_for(self, app_id: str) -> list[Specification]:
        return [parse_specification(e.spec_text) for e in self.entries.get(app_id, [])]
