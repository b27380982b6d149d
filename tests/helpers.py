"""Shared scripted-backend builders for encoder and acceptance tests."""

from __future__ import annotations

from intentguard.backend import MockBackend

GOOD_DRAFT = """```
RestaurantInfo(name = "R") & ReserveInfo(date = Today, time < 19:00, available = true) -> Reserve
Reserve & ReserveResult(success = true) -> Done
RestaurantInfo(name = "R") & ReserveInfo(date = Today, time < 19:00, available != true) -> Done
```"""

# plausible but wrong: the deadline constraint is two hours too strict, so the
# correct 18:00 execution gets blocked and the replay never completes
FAULTY_DRAFT = """```
RestaurantInfo(name = "R") & ReserveInfo(date = Today, time < 17:00, available = true) -> Reserve
Reserve & ReserveResult(success = true) -> Done
RestaurantInfo(name = "R") & ReserveInfo(date = Today, time < 17:00, available != true) -> Done
```"""

TYPE_ERROR_DRAFT = """```
RestaurantInfo(name >= 100) & ReserveInfo(date = Today, time < 19:00, available = true) -> Reserve
Reserve & ReserveResult(success = true) -> Done
```"""

DECODED_DESCRIPTION = (
    "Reserve restaurant R today before 19:00 when it is available; the task "
    "completes on a successful reservation, or without reserving when no slot "
    "before 19:00 is available today."
)


def clean_run(draft: str = GOOD_DRAFT) -> list[dict]:
    """One encode run that passes both gates on the first draft."""
    return [
        {"role": "encoder", "response": draft},
        {"role": "decoder", "response": DECODED_DESCRIPTION},
        {"role": "checker", "response": "PASS"},
    ]


def failing_encode_run(iterations: int = 3) -> list[dict]:
    """One encode run whose drafts never parse; consumes the whole budget."""
    return [{"role": "encoder", "response": "cannot help with that"} for _ in range(iterations)]


def majority_backend(faulty_positions: set[int], runs: int = 5) -> MockBackend:
    """Scripted backend for ``runs`` sequential encode+replay runs, with the
    runs at ``faulty_positions`` producing a plausible-but-wrong spec."""
    turns: list[dict] = []
    for position in range(runs):
        turns.extend(clean_run(FAULTY_DRAFT if position in faulty_positions else GOOD_DRAFT))
    return MockBackend(turns)


class RecordingBackend:
    """Wraps a backend and keeps every (role, user_prompt) it sees."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[tuple[str, str]] = []

    def complete(self, role, system_prompt, user_prompt):
        self.requests.append((role, user_prompt))
        return self.inner.complete(role, system_prompt, user_prompt)

    def embed(self, text):
        return self.inner.embed(text)
