"""Deterministic natural-language feedback rendered from verification reports.

Three kinds: a roadmap paragraph per rule describing what must hold and which
steps are already achieved, an advisory warning for reverted updates, and a
prohibitive message for blocked critical actions.  All three are pure string
functions of their inputs, so identical sessions produce byte-identical text.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .dsl import (
    _SATISFIED,
    DONE,
    TODAY,
    Constant,
    Constraint,
    ObjectiveRef,
    PredicateStatus,
    Rule,
    Specification,
    _node,
    render_constant,
)
from .schema import _BOOLEAN, _DATE, _TEXT, _TEXT_LIST, StateSchema, _shown_description

if TYPE_CHECKING:
    from .engine import HardCheckResult, RuleProgress, Violation


@_node
class FeedbackBundle:
    """Feedback attached to every verdict: the roadmap is always present, and
    at most one of the warning/blocking texts accompanies it.  Slotted and
    frozen."""

    roadmap: tuple[str, ...]
    soft: str | None = None
    hard: str | None = None

    def to_json_dict(self) -> dict:
        return {"roadmap": list(self.roadmap), "soft": self.soft, "hard": self.hard}


def feedback_constant(constant: Constant) -> str:
    """Constant spelling used inside feedback sentences: text, ``"Today"`` and
    list items quoted without escapes, booleans capitalized, every other
    constant as its rule-language literal (:func:`~intentguard.dsl.render_constant`)."""
    kind, value = constant.kind, constant.value
    if kind is _TEXT:
        return f'"{value}"'
    if kind is _BOOLEAN:
        return "True" if value else "False"
    if kind is _DATE and value == TODAY:
        return '"Today"'
    if kind is _TEXT_LIST:
        return "[" + ", ".join([f'"{item}"' for item in value]) + "]"
    return render_constant(constant)


def constraint_phrase(constraint: Constraint) -> str:
    return (
        f"'{constraint.variable}' {constraint.operator.phrase} "
        f"{feedback_constant(constraint.constant)}"
    )


def _join_phrases(phrases: Sequence[str]) -> str:
    if len(phrases) == 1:
        return phrases[0]
    if len(phrases) == 2:
        return f"{phrases[0]} and {phrases[1]}"
    return " and ".join(phrases[:-1]) + ", and " + phrases[-1]


def _join_steps(numbers: Sequence[int]) -> str:
    if len(numbers) == 1:
        return f"step {numbers[0]}"
    listed = ", ".join(str(n) for n in numbers[:-1]) + f" and {numbers[-1]}"
    return f"steps {listed}"


def _goal_clause(conclusion: str) -> str:
    return "To complete the task" if conclusion == DONE else f"To perform {conclusion}"


def _state_description(schema: StateSchema, state_name: str) -> str:
    state = schema.state(state_name)
    return _shown_description(state.description if state is not None else "").rstrip(".")


def _numbered(items: Iterable[str]) -> str:
    """``1. a; 2. b``: the item list of every feedback text."""
    return "; ".join([f"{n}. {item}" for n, item in enumerate(items, start=1)])


def _should_have(subject: str, constraints: Iterable[Constraint]) -> str:
    """``<subject> should have <phrases>``: how every feedback text states a
    predicate's constraints."""
    return f"{subject} should have {_join_phrases([constraint_phrase(c) for c in constraints])}"


def _predicate_step(predicate, schema: StateSchema) -> str:
    if isinstance(predicate, ObjectiveRef):
        return f"perform {predicate.objective_name}"
    name = predicate.state_name
    return _should_have(f"{name} that represents {_state_description(schema, name)}", predicate.constraints)


def roadmap_sentence(rule: Rule, schema: StateSchema) -> str:
    """The fixed part of a rule's roadmap paragraph: its goal and its
    numbered steps."""
    steps = _numbered([_predicate_step(pred, schema) for pred in rule.predicates])
    return f"{_goal_clause(rule.conclusion)}, {steps}."


def achieved_suffix(statuses: Iterable["PredicateStatus"]) -> str:
    """The changing part of a roadmap paragraph: which steps are already
    achieved, or nothing while none are."""
    achieved = [k for k, status in enumerate(statuses, start=1) if status is _SATISFIED]
    return f" So far, you have achieved {_join_steps(achieved)}." if achieved else ""


def render_roadmap_lines(
    report: Iterable["RuleProgress"], spec: Specification, schema: StateSchema
) -> list[str]:
    """One roadmap paragraph per rule: its goal, its numbered steps, and which
    of them are already achieved (omitted while none are)."""
    return [
        roadmap_sentence(spec.rules[progress.rule_index], schema) + achieved_suffix(progress.statuses)
        for progress in report
    ]


def render_soft(violations: Sequence["Violation"]) -> str:
    """Advisory warning for a reverted update.

    Lists the desired constraints of every contradicted predicate in rule
    order; the same action may be resubmitted if it really is an intermediate
    step.
    """
    if not violations:
        raise ValueError("soft feedback needs at least one violation")
    items = _numbered([
        f"{_should_have(v.predicate.state_name, v.predicate.constraints)} (rule {v.rule_index + 1})"
        for v in violations
    ])
    return (
        f"This update may be incorrect and was not applied. The desired state is: {items}. "
        "If this update is an intermediate step toward the desired state, submit the same action again."
    )


def render_hard(report: "HardCheckResult") -> str:
    """Prohibitive message for a blocked critical action: names the objective
    and enumerates every unmet predicate of the closest rule, with the exact
    constraints that are not satisfied."""
    items = _numbered([
        f"perform {unmet.predicate.objective_name}"
        if isinstance(unmet.predicate, ObjectiveRef)
        else _should_have(unmet.predicate.state_name, unmet.failed_constraints)
        for unmet in report.unmet
    ])
    return (
        f"This critical action is blocked and will not be executed. "
        f"{_goal_clause(report.objective)}, the following conditions must first be satisfied: {items}. "
        "Resubmitting the same action will not be allowed until they hold."
    )
