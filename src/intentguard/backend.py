"""Text-completion clients for the encoder.

Two backends share one duck-typed contract: ``complete(role, system_prompt,
user_prompt) -> str``.  The scripted mock replays fixture files and keeps
tests fully offline; the HTTP client speaks the common chat-completions JSON
shape.  Only encoding calls a backend: verification is pure rule evaluation.
``requests`` is imported only when the HTTP backend sends its first request:
``verify``, ``schema lint``, the mock backend and the library's verify path
never load it.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Protocol

from ._files import parse_json


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


class MockBackend:
    """Deterministic scripted backend.

    The fixture is a JSON list of ``{"role": ..., "response": ...}`` turns.
    Each ``complete`` call pops the next scripted turn for its role; order
    within a role is the script order regardless of interleaving, and a lock
    keeps that deterministic under concurrent use.
    """

    def __init__(self, turns: list[dict]):
        self._queues: dict[str, list[str]] = {}
        for turn in turns:
            if not (
                isinstance(turn, dict) and isinstance(turn.get("role"), str) and isinstance(turn.get("response"), str)
            ):
                raise BackendError(f"mock turn needs a 'role' and a 'response' string: {turn!r}", category="config")
            self._queues.setdefault(turn["role"], []).append(turn["response"])
        self._cursors: dict[str, int] = {}
        self._lock = threading.Lock()
        self.complete_calls = 0

    @classmethod
    def from_fixture(cls, path: str | Path) -> "MockBackend":
        text = Path(path).read_text(encoding="utf-8")
        try:
            data = parse_json(text)
        except ValueError as exc:
            raise BackendError(f"not valid JSON: {exc}", category="config") from None
        if not isinstance(data, list):
            raise BackendError("a mock fixture needs a list of turns", category="config")
        return cls(data)

    def complete(self, role: str, system_prompt: str, user_prompt: str) -> str:
        with self._lock:
            self.complete_calls += 1
            cursor = self._cursors.get(role, 0)
            queue = self._queues.get(role, [])
            if cursor >= len(queue):
                raise ScriptExhausted(role, cursor + 1)
            self._cursors[role] = cursor + 1
            return queue[cursor]


#: Further attempts after a 429 or 5xx reply; the waits between attempts are
#: ``RETRY_DELAY_S``, then twice that, and so on.
HTTP_RETRIES = 3
RETRY_DELAY_S = 0.5
_sleep = time.sleep


class HttpBackend:
    """Chat-completions client for any endpoint speaking the common JSON shape.

    A reply of 429 or 5xx is retried up to ``HTTP_RETRIES`` times with
    exponential backoff; any other failure ends the call at once."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "OPENAI_API_KEY",
        timeout_s: float = 60.0,
        seed: int | None = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout_s = timeout_s
        self.seed = seed
        self.complete_calls = 0

    def _headers(self) -> dict[str, str]:
        key = os.environ.get(self.api_key_env)
        if not key:
            raise BackendError(f"environment variable {self.api_key_env} is not set", category="config")
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

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
        headers = self._headers()
        import requests

        for attempt in range(HTTP_RETRIES + 1):
            if attempt:
                _sleep(RETRY_DELAY_S * 2 ** (attempt - 1))
            try:
                response = requests.post(
                    f"{self.endpoint}/chat/completions", headers=headers, json=payload, timeout=self.timeout_s
                )
            except requests.Timeout as exc:
                raise BackendError(f"request timed out after {self.timeout_s}s", category="timeout") from exc
            except requests.RequestException as exc:
                raise BackendError(str(exc), category="network") from exc
            if response.status_code != 429 and response.status_code < 500:
                break
        if response.status_code != 200:
            raise BackendError(f"HTTP {response.status_code}: {response.text[:300]}", category="http")
        try:
            data = parse_json(response.content.decode("utf-8"))
        except ValueError as exc:
            raise BackendError("response body is not JSON", category="protocol") from exc
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError("response is missing choices[0].message.content", category="protocol") from exc
        # a refusal or a tool call comes back with content null
        if not isinstance(content, str):
            raise BackendError("choices[0].message.content is not a string", category="protocol")
        return content
