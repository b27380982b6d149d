"""Text-completion backends and the string-similarity facility.

Two backends share one duck-typed contract: ``complete(role, system_prompt,
user_prompt) -> str`` and ``embed(text) -> list[float]``.  The scripted mock
replays fixture files and keeps tests fully offline; the HTTP client speaks
the common chat-completions JSON shape.  Similarity scoring for the ``~=``
operator lives here too, in an embedding-backed and a lexical flavor that are
interchangeable as long as they agree on the 0.7 threshold test.
"""

from __future__ import annotations

import json
import math
import os
import threading
import unicodedata
from pathlib import Path
from typing import Protocol

import requests


class BackendError(Exception):
    """Backend call failed; ``category`` is one of config|network|timeout|http|protocol."""

    def __init__(self, message: str, category: str = "network"):
        self.category = category
        super().__init__(message)


class ScriptExhausted(BackendError):
    """The mock fixture has no further response scripted for the requested role."""

    def __init__(self, role: str, turn: int):
        super().__init__(f"mock script exhausted: no response #{turn} for role '{role}'", category="protocol")


class Backend(Protocol):
    def complete(self, role: str, system_prompt: str, user_prompt: str) -> str: ...

    def embed(self, text: str) -> list[float]: ...


def make_backend(kind: str, fixture_path: str | None = None, **http_options) -> "Backend":
    """Build the backend the CLI selected; ``http_options`` are passed to
    :class:`HttpBackend` as they are."""
    if kind == "mock":
        if fixture_path is None:
            raise BackendError("mock backend needs a fixture file", category="config")
        return MockBackend.from_fixture(fixture_path)
    if kind == "http":
        return HttpBackend(**http_options)
    raise BackendError(f"unknown backend kind {kind!r}", category="config")


class MockBackend:
    """Deterministic scripted backend.

    The fixture is either a JSON list of ``{"role": ..., "response": ...}``
    turns, or an object ``{"turns": [...], "embeddings": {text: vector}}``.
    Each ``complete`` call pops the next scripted turn for its role; order
    within a role is the script order regardless of interleaving, and a lock
    keeps that deterministic under concurrent use.
    """

    def __init__(self, turns: list[dict], embeddings: dict[str, list[float]] | None = None):
        self._queues: dict[str, list[str]] = {}
        for turn in turns:
            if not (
                isinstance(turn, dict) and isinstance(turn.get("role"), str) and isinstance(turn.get("response"), str)
            ):
                raise BackendError(f"mock turn needs a 'role' and a 'response' string: {turn!r}", category="config")
            self._queues.setdefault(turn["role"], []).append(turn["response"])
        self._cursors: dict[str, int] = {}
        self._embeddings = embeddings or {}
        self._lock = threading.Lock()
        self.complete_calls = 0
        self.embed_calls = 0

    @classmethod
    def from_fixture(cls, path: str | Path) -> "MockBackend":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise BackendError(f"mock fixture {path} is not valid JSON: {exc}", category="config") from None
        if isinstance(data, list):
            return cls(data)
        if not isinstance(data, dict) or not isinstance(data.get("turns", []), list):
            raise BackendError(f"mock fixture {path} needs a list of turns", category="config")
        return cls(data.get("turns", []), embeddings=data.get("embeddings"))

    def complete(self, role: str, system_prompt: str, user_prompt: str) -> str:
        with self._lock:
            self.complete_calls += 1
            cursor = self._cursors.get(role, 0)
            queue = self._queues.get(role, [])
            if cursor >= len(queue):
                raise ScriptExhausted(role, cursor + 1)
            self._cursors[role] = cursor + 1
            return queue[cursor]

    def embed(self, text: str) -> list[float]:
        with self._lock:
            self.embed_calls += 1
            if text not in self._embeddings:
                raise BackendError(f"mock fixture has no embedding for {text!r}", category="protocol")
            return list(self._embeddings[text])


class HttpBackend:
    """Chat-completions client for any endpoint speaking the common JSON shape."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "OPENAI_API_KEY",
        embedding_model: str = "text-embedding-3-small",
        timeout_s: float = 60.0,
        seed: int | None = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.embedding_model = embedding_model
        self.timeout_s = timeout_s
        self.seed = seed
        self.complete_calls = 0
        self.embed_calls = 0

    def _headers(self) -> dict[str, str]:
        key = os.environ.get(self.api_key_env)
        if not key:
            raise BackendError(f"environment variable {self.api_key_env} is not set", category="config")
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def _post(self, path: str, payload: dict) -> dict:
        try:
            response = requests.post(
                f"{self.endpoint}{path}", headers=self._headers(), json=payload, timeout=self.timeout_s
            )
        except requests.Timeout as exc:
            raise BackendError(f"request timed out after {self.timeout_s}s", category="timeout") from exc
        except requests.RequestException as exc:
            raise BackendError(str(exc), category="network") from exc
        if response.status_code != 200:
            raise BackendError(f"HTTP {response.status_code}: {response.text[:300]}", category="http")
        try:
            return response.json()
        except ValueError as exc:
            raise BackendError("response body is not JSON", category="protocol") from exc

    def complete(self, role: str, system_prompt: str, user_prompt: str) -> str:
        self.complete_calls += 1
        payload: dict = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        data = self._post("/chat/completions", payload)
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError("response is missing choices[0].message.content", category="protocol") from exc

    def embed(self, text: str) -> list[float]:
        self.embed_calls += 1
        data = self._post("/embeddings", {"model": self.embedding_model, "input": text})
        try:
            return list(data["data"][0]["embedding"])
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError("response is missing data[0].embedding", category="protocol") from exc


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------


def _cache_key(a: str, b: str) -> tuple[str, str]:
    na = unicodedata.normalize("NFC", a)
    nb = unicodedata.normalize("NFC", b)
    return (na, nb) if na <= nb else (nb, na)


def _lexical_normalize(text: str) -> str:
    folded = unicodedata.normalize("NFC", text).casefold()
    kept = "".join(ch if (ch.isalnum() or ch.isspace()) else "" for ch in folded)
    return " ".join(kept.split())


def _trigrams(text: str) -> set[str]:
    if len(text) < 3:
        return {text}
    return {text[i : i + 3] for i in range(len(text) - 2)}


def lexical_similarity(a: str, b: str) -> float:
    """Character-trigram Jaccard over punctuation-stripped, casefolded text.

    Punctuation is dropped before trigramming so spellings like "Joe's" and
    "Joes" coincide; without that, near-identical names score well under the
    equivalence threshold.
    """
    na, nb = _lexical_normalize(a), _lexical_normalize(b)
    if na == nb:
        return 1.0
    if not na or not nb:
        return 0.0
    ga, gb = _trigrams(na), _trigrams(nb)
    return len(ga & gb) / len(ga | gb)


def cosine_similarity(a: list[float], b: list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    norm = math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
    if norm == 0.0:
        return 0.0
    return dot / norm


class SimilarityScorer:
    """Callable similarity that caches every scored pair.

    Lexical mode needs no backend; embedding mode fetches one embedding per
    distinct text through the backend and compares by cosine.
    """

    def __init__(self, mode: str = "lexical", backend: Backend | None = None):
        if mode == "embedding" and backend is None:
            raise BackendError("embedding similarity needs a backend", category="config")
        self.mode = mode
        self.backend = backend
        self._pairs: dict[tuple[str, str], float] = {}
        self._vectors: dict[str, list[float]] = {}

    def _vector(self, text: str) -> list[float]:
        if text not in self._vectors:
            assert self.backend is not None
            self._vectors[text] = self.backend.embed(text)
        return self._vectors[text]

    def __call__(self, a: str, b: str) -> float:
        key = _cache_key(a, b)
        if key not in self._pairs:
            if self.mode == "embedding":
                self._pairs[key] = cosine_similarity(self._vector(a), self._vector(b))
            else:
                self._pairs[key] = lexical_similarity(a, b)
        return self._pairs[key]
