"""Deterministic natural-language feedback rendered from verification reports.

Three kinds: a roadmap paragraph per rule describing what must hold and which
steps are already achieved, an advisory warning for reverted updates, and a
prohibitive message for blocked critical actions.  All three are pure string
functions of their inputs, so identical sessions produce byte-identical text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .dsl import (
    ConstKind,
    Constant,
    Constraint,
    ObjectiveRef,
    Operator,
    Specification,
    StatePredicate,
)
from .schema import StateSchema

if TYPE_CHECKING:
    from .engine import HardCheckResult, RuleProgress, Violation

OPERATOR_PHRASES = {
    Operator.EQ: "equal to",
    Operator.NEQ: "not equal to",
    Operator.APPROX: "similar to",
    Operator.GT: "greater than",
    Operator.GE: "greater than or equal to",
    Operator.LT: "less than",
    Operator.LE: "less than or equal to",
    Operator.IN: "one of",
    Operator.NOT_IN: "not one of",
}


@dataclass(frozen=True)
class FeedbackBundle:
    """Feedback attached to every verdict: the roadmap is always present, and
    at most one of the warning/blocking texts accompanies it."""

    roadmap: tuple[str, ...]
    soft: str | None = None
    hard: str | None = None

    def to_json_dict(self) -> dict:
        return {"roadmap": list(self.roadmap), "soft": self.soft, "hard": self.hard}


def feedback_constant(constant: Constant) -> str:
    """Constant spelling used inside feedback sentences (quotes on text-like
    values, bare capitalized booleans)."""
    kind, value = constant.kind, constant.value
    if kind is ConstKind.TEXT:
        return f'"{value}"'
    if kind is ConstKind.BOOLEAN:
        return "True" if value else "False"
    if kind is ConstKind.NUMBER:
        return format(value, "f")
    if kind is ConstKind.DATE:
        return '"Today"' if constant.is_today else value.isoformat()
    if kind is ConstKind.TIME:
        return value.strftime("%H:%M")
    if kind is ConstKind.ENUM:
        return str(value)
    return "[" + ", ".join(f'"{item}"' for item in value) + "]"


def constraint_phrase(constraint: Constraint) -> str:
    return (
        f"'{constraint.variable}' {OPERATOR_PHRASES[constraint.operator]} "
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
    return "To complete the task" if conclusion == "Done" else f"To perform {conclusion}"


def _state_description(schema: StateSchema, state_name: str) -> str:
    state = schema.state(state_name)
    if state is None or not state.description.strip():
        return "(no description)"
    return state.description.strip().rstrip(".")


def _predicate_step(predicate, schema: StateSchema) -> str:
    if isinstance(predicate, ObjectiveRef):
        return f"perform {predicate.objective_name}"
    phrases = [constraint_phrase(c) for c in predicate.constraints]
    return (
        f"{predicate.state_name} that represents {_state_description(schema, predicate.state_name)} "
        f"should have {_join_phrases(phrases)}"
    )


def render_rule_roadmap(progress: "RuleProgress", spec: Specification, schema: StateSchema) -> str:
    """One roadmap paragraph: the rule's goal, its numbered steps, and which
    of them are already achieved (omitted while none are)."""
    rule = spec.rules[progress.rule_index]
    steps = [
        f"{k}. {_predicate_step(pred, schema)}"
        for k, pred in enumerate(rule.predicates, start=1)
    ]
    text = f"{_goal_clause(rule.conclusion)}, " + "; ".join(steps) + "."
    achieved = [
        k for k, status in enumerate(progress.statuses, start=1) if status.value == "satisfied"
    ]
    if achieved:
        text += f" So far, you have achieved {_join_steps(achieved)}."
    return text


def render_roadmap_lines(
    report: Iterable["RuleProgress"], spec: Specification, schema: StateSchema
) -> list[str]:
    return [render_rule_roadmap(progress, spec, schema) for progress in report]


def render_soft(violations: Sequence["Violation"]) -> str:
    """Advisory warning for a reverted update.

    Lists the desired constraints of every contradicted predicate in rule
    order; the same action may be resubmitted if it really is an intermediate
    step.
    """
    if not violations:
        raise ValueError("soft feedback needs at least one violation")
    items = []
    for n, violation in enumerate(violations, start=1):
        phrases = [constraint_phrase(c) for c in violation.predicate.constraints]
        items.append(
            f"{n}. {violation.predicate.state_name} should have {_join_phrases(phrases)} "
            f"(rule {violation.rule_index + 1})"
        )
    return (
        "This update may be incorrect and was not applied. The desired state is: "
        + "; ".join(items)
        + ". If this update is an intermediate step toward the desired state, submit the same action again."
    )


def render_hard(report: "HardCheckResult") -> str:
    """Prohibitive message for a blocked critical action: names the objective
    and enumerates every unmet predicate of the closest rule, with the exact
    constraints that are not satisfied."""
    items = []
    for n, unmet in enumerate(report.unmet, start=1):
        if isinstance(unmet.predicate, ObjectiveRef):
            items.append(f"{n}. perform {unmet.predicate.objective_name}")
            continue
        assert isinstance(unmet.predicate, StatePredicate)
        phrases = [constraint_phrase(c) for c in unmet.failed_constraints]
        items.append(
            f"{n}. {unmet.predicate.state_name} should have {_join_phrases(phrases)}"
        )
    return (
        f"This critical action is blocked and will not be executed. "
        f"{_goal_clause(report.objective)}, the following conditions must first be satisfied: "
        + "; ".join(items)
        + ". Resubmitting the same action will not be allowed until they hold."
    )
