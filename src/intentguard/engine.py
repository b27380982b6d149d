"""Runtime verification of agent state updates against a specification.

A :class:`Session` holds the world valuation (all variables start unobserved)
and consumes :class:`ActionEvent` objects one at a time.  Ordinary updates go
through predicate-level checking: if every predicate over every touched state
is contradicted by the update, the update is reverted and a warning verdict is
returned; resubmitting the identical event immediately afterwards is permitted
on the grounds that it may be a legitimate intermediate step (identical by
:func:`event_fingerprint`, down to each value's literal spelling).  Events
flagged ``critical`` name an objective and pass only when a full rule
concluding that objective is satisfied; a blocked critical event stays
blocked no matter how often it is resubmitted.

A blocking verdict of either kind leaves the world untouched.  After every
applied update the rules concluding ``Done`` are evaluated, and the first
fully satisfied one terminates the session.

A session compiles its specification on first use, into one record per
rule and one per predicate.  Each constraint becomes a step of its
predicate's record: the ``(state, variable)`` slot it reads and a test with
its constant already normalized (:func:`~intentguard.dsl.compile_constraint`).
A predicate's record also keeps its status and each step's last truth, in
the manner of Rete's alpha memories; a rule's record keeps its count of
unmet predicates, as TREAT keeps match counts, and its fixed roadmap
sentence.  A slot's plan lists the records of the predicates that read it.
The compiled spec also holds the number of ``Done`` rules with none unmet
and every rule's roadmap line.  A predicate's record names its rule by
index, not by record, so the records form no reference cycle.

An event then costs what it writes: it walks the plans of the slots it
writes and re-tests only the steps on those slots, reading every other
step's stored truth, since that slot has not changed since it was last
committed; the soft check reads that evaluation.  Only an allowed event
commits its values and the new truths and statuses, which move the unmet
counts of the touched rules and re-render their roadmap lines when one of
their predicates becomes or stops being satisfied, so an event that raises
changes nothing.  The ``Done`` check reads one number and the hard check the
counts of the candidate rules and the closest rule's stored truths, so
neither walks every rule or calls a test.  A similarity function must
therefore be pure: the built-in one scores each distinct pair of texts once
per session, and an injected one is called once per ``~=`` on a written
slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from typing import Callable, Iterable

from . import feedback as feedback_mod
from .dsl import (
    _INDETERMINATE,
    _SATISFIED,
    _UNSATISFIED,
    DONE,
    Constant,
    EvalContext,
    ObjectiveRef,
    Predicate,
    PredicateStatus,
    Specification,
    _node,
    check_specification,
    compile_constraint,
    evaluate_constraint,  # noqa: F401 -- not called here; perfbench/spans.py wraps this name
    lexical_similarity,
    render_constant,
)
from .schema import _ENUM, _NUMBER, StateSchema, VarType


class EngineError(Exception):
    """Base for verification-time failures."""


class InvalidSpecification(EngineError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__(
            "specification failed static checks: " + "; ".join(str(d) for d in self.diagnostics)
        )


class SessionDone(EngineError):
    """An event arrived after the task already completed."""


class TraceError(EngineError):
    """An event refers to states/variables the schema does not declare, or
    carries values of the wrong type."""


class UnknownObjective(EngineError):
    def __init__(self, objective: str):
        self.objective = objective
        super().__init__(f"no rule concludes objective '{objective}'")


@_node
class StateUpdate:
    """One state's new variable values.  Slotted and frozen; it cannot be
    hashed, since ``values`` is a dict."""

    state: str
    values: dict[str, Constant]


@_node
class ActionEvent:
    """One agent action's proposed effect: pre-action expectation or
    post-action observation, plus an optional critical objective.  Slotted
    and frozen; one that carries updates cannot be hashed."""

    action_id: str
    phase: str  # pre | post
    updates: tuple[StateUpdate, ...]
    critical: str | None = None


class VerdictKind(str, Enum):
    ALLOW = "allow"
    SOFT_BLOCK = "soft_block"
    HARD_BLOCK = "hard_block"
    TASK_DONE = "task_done"


@_node
class Verdict:
    """The verdict on one event, with the feedback it carries.  Slotted and
    frozen."""

    action_id: str
    kind: VerdictKind
    feedback: "feedback_mod.FeedbackBundle"
    achieved: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "action_id": self.action_id,
            "kind": self.kind._value_,  # a plain attribute; ``.value`` is a descriptor
            "achieved": list(self.achieved),
            "feedback": self.feedback.to_json_dict(),
        }


@dataclass(frozen=True)
class RuleProgress:
    rule_index: int
    conclusion: str
    statuses: tuple[PredicateStatus, ...]


@dataclass(frozen=True)
class Violation:
    """One predicate that does not hold, with its false constraints (none for
    an objective not yet achieved)."""

    rule_index: int
    predicate: Predicate
    failed_constraints: tuple = ()


@dataclass(frozen=True)
class SoftCheckResult:
    passed: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class HardCheckResult:
    objective: str
    satisfied: bool
    rule_index: int
    unmet: tuple[Violation, ...] = ()


_PASSED = SoftCheckResult(passed=True)

#: Bound once, as the kinds are in ``schema``; ``trace`` imports ``_TASK_DONE``.
_ALLOW, _SOFT_BLOCK, _HARD_BLOCK, _TASK_DONE = (
    VerdictKind.ALLOW, VerdictKind.SOFT_BLOCK, VerdictKind.HARD_BLOCK, VerdictKind.TASK_DONE
)


class _Predicate:
    """One predicate of a compiled rule: its rule's index, its syntax-tree
    node, its steps, each step's last truth and its current status.

    Each step is a constraint's ``(slot, compiled test, constraint)``, where
    the slot is the ``(state, variable)`` it reads; an objective reference
    has none.  ``truths`` holds each step's truth under the committed world,
    ``False`` until its slot is first written, since an unobserved value is
    false; a commit replaces the list.  The record holds its rule's index,
    not the rule's record, so that the two form no reference cycle and a
    dropped session is freed by reference counting alone.
    """

    __slots__ = ("rule", "node", "steps", "truths", "status")

    def __init__(self, rule: int, node: Predicate, steps: tuple) -> None:
        self.rule, self.node, self.steps = rule, node, steps
        self.truths = [False] * len(steps)
        self.status = _INDETERMINATE


class _Rule:
    """One compiled rule: its index, whether it concludes ``Done``, its fixed
    roadmap sentence, its predicates' records in order and its number of
    predicates not satisfied."""

    __slots__ = ("index", "done", "sentence", "predicates", "unmet")

    def __init__(self, index: int, done: bool, sentence: str, predicates: list[_Predicate]) -> None:
        self.index, self.done, self.sentence, self.predicates = index, done, sentence, predicates
        self.unmet = len(predicates)


@dataclass
class _CompiledSpec:
    """A session's compiled spec, in the manner of Rete's alpha memories and
    TREAT's per-rule match counts: one record per rule and per predicate,
    with the predicates indexed by what they read.

    ``rules`` holds the :class:`_Rule` records in rule order.  ``plans`` maps
    a slot to the :class:`_Predicate` records that read it, ``by_state`` a
    state to those over it, for :meth:`Session.soft_check`, and
    ``by_objective`` an objective to those that reference it, each in rule
    order; ``by_conclusion`` maps an objective to the records of the rules
    concluding it.  ``done_met`` is the number of rules concluding ``Done``
    with no predicate unmet.  ``lines`` holds each rule's roadmap line, its
    sentence and its current "achieved" suffix, and ``bundle`` is the
    feedback of an allowed event: ``lines`` as a tuple, with no warning.
    """

    rules: list[_Rule] = field(default_factory=list)
    plans: dict[tuple[str, str], list[_Predicate]] = field(default_factory=dict)
    by_state: dict[str, list[_Predicate]] = field(default_factory=dict)
    by_objective: dict[str, list[_Predicate]] = field(default_factory=dict)
    by_conclusion: dict[str, list[_Rule]] = field(default_factory=dict)
    done_met: int = 0
    lines: list[str] = field(default_factory=list)
    bundle: feedback_mod.FeedbackBundle = feedback_mod.FeedbackBundle(())


def declared_type(schema: StateSchema, state_name: str, variable: str) -> VarType:
    """The schema's type for ``state_name.variable``; raises :class:`TraceError`
    when either is undeclared."""
    state = schema.state(state_name)
    if state is None:
        raise TraceError(f"state '{state_name}' is not declared in the schema")
    try:
        return state.variables[variable]
    except KeyError:
        raise TraceError(f"'{state_name}' has no variable '{variable}'") from None


def validate_event(event: ActionEvent, schema: StateSchema) -> None:
    """The one check of what an event may contain; raises :class:`TraceError`.

    The phase is ``pre`` or ``post``; the event carries updates or a critical
    flag; no update is empty; every state and variable is declared; every value
    has its variable's declared kind, numbers are finite, and Enum values are
    declared variants.
    """
    if event.phase not in ("pre", "post"):
        raise TraceError(f"phase must be 'pre' or 'post', got {event.phase!r}")
    if not event.updates and event.critical is None:
        raise TraceError("event has neither updates nor a critical flag")
    _validate_updates(event.updates, schema)


def _validate_updates(updates: Iterable[StateUpdate], schema: StateSchema) -> None:
    """:func:`validate_event`'s rules for each update, which
    :meth:`Session.soft_check` applies on their own.

    The schema is asked for each update's state once, and the state for each
    value's variable; :func:`declared_type` is called only to raise its
    :class:`TraceError` for a state or variable the schema does not declare."""
    state_of = schema.state
    for update in updates:
        values = update.values
        if not values:
            raise TraceError(f"update for '{update.state}' needs non-empty 'values'")
        state = state_of(update.state)
        variables = state.variables if state is not None else {}
        for var, value in values.items():
            if var not in variables:
                declared_type(schema, update.state, var)
            declared = variables[var]
            kind = value.kind
            if kind is not declared.kind:
                raise TraceError(f"{update.state}.{var} ({declared.describe()}) cannot hold a {kind.value} value")
            if kind is _NUMBER and not value.value.is_finite():
                raise TraceError(f"{update.state}.{var}: {value.value} is not a finite number")
            if kind is _ENUM and value.value not in declared.variants:
                raise TraceError(f"{update.state}.{var} ({declared.describe()}) has no variant '{value.value}'")


def event_fingerprint(event: ActionEvent) -> tuple:
    """Content identity of an event: the tuple of its phase, its critical
    flag, and each updated state's sorted ``(variable, literal)`` pairs,
    sorted by state.

    A value counts by its literal spelling, so ``1`` and ``1.0`` are
    different events.  The action id is deliberately excluded; "the same
    action" resubmitted under a fresh id must land on the same identity.
    """
    updates = sorted(
        (update.state, tuple(sorted((var, render_constant(value)) for var, value in update.values.items())))
        for update in event.updates
    )
    return event.phase, event.critical, tuple(updates)


def _memoized_lexical_similarity() -> Callable[[str, str], float]:
    """:func:`~intentguard.dsl.lexical_similarity` with a memo of its own, for
    one session: a score depends on nothing but the two texts."""
    memo: dict[tuple[str, str], float] = {}

    def similarity(a: str, b: str) -> float:
        score = memo.get((a, b))
        if score is None:
            score = memo[a, b] = lexical_similarity(a, b)
        return score

    return similarity


class _built_on_first_read:
    """A method whose result stands in for it: the first read of its name on
    an instance runs it and stores the result in the instance's ``__dict__``.
    The descriptor defines no ``__set__``, so each later read is a plain
    instance attribute hit.  Unlike ``functools.cached_property`` on CPython
    3.10 and 3.11 it takes no lock: there, one lock per descriptor, shared by
    every instance, makes first reads on different sessions wait for each
    other.  A session is used from one thread at a time, so none is needed."""

    def __init__(self, build: Callable):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.build(instance)
        return value


class Session:
    """Sequential verification session for one instruction.

    The spec is statically checked against the schema unless
    :func:`~intentguard.dsl.check_specification` has already found this very
    spec clean against this very schema object; an equal schema is checked
    again.  Events must be submitted one at a time; sessions share nothing, so
    distinct sessions are free to live on distinct threads.  ``world`` and
    ``achieved_objectives`` are read-only outside the session: the compiled
    statuses follow them only through :meth:`submit_action`.
    """

    def __init__(
        self,
        spec: Specification,
        schema: StateSchema,
        clock: datetime | date,
        similarity: Callable[[str, str], float] | None = None,
    ):
        if spec._checked_against is not schema:
            diagnostics = check_specification(spec, schema)
            if diagnostics:
                raise InvalidSpecification(diagnostics)
        self.spec = spec
        self.schema = schema
        today = clock.date() if isinstance(clock, datetime) else clock
        self.ctx = EvalContext(
            today=today,
            similarity=similarity if similarity is not None else _memoized_lexical_similarity(),
        )
        self.world: dict[tuple[str, str], Constant] = {}
        self.achieved_objectives: set[str] = set()
        self.pending_soft: tuple | None = None
        self.done = False

    @_built_on_first_read
    def _compiled(self) -> _CompiledSpec:
        """The spec's compiled form, built on first use so that constructing a
        session costs at most the static check.  It evaluates nothing: no
        event has been committed yet, so every step is false, every predicate
        is indeterminate, every rule has all its predicates unmet and every
        roadmap line is its rule's bare sentence."""
        compiled = _CompiledSpec()
        plans, state_of = compiled.plans, self.schema.state
        for r, rule in enumerate(self.spec.rules):
            predicates: list[_Predicate] = []
            for node in rule.predicates:
                if isinstance(node, ObjectiveRef):
                    pred = _Predicate(r, node, ())
                    compiled.by_objective.setdefault(node.objective_name, []).append(pred)
                else:
                    state = node.state_name
                    variables = state_of(state).variables
                    pred = _Predicate(r, node, tuple([
                        ((state, c.variable), compile_constraint(c, variables[c.variable].kind), c)
                        for c in node.constraints
                    ]))
                    compiled.by_state.setdefault(state, []).append(pred)
                    for slot in {step[0] for step in pred.steps}:
                        plans.setdefault(slot, []).append(pred)
                predicates.append(pred)
            record = _Rule(r, rule.conclusion == DONE, feedback_mod.roadmap_sentence(rule, self.schema), predicates)
            compiled.rules.append(record)
            compiled.lines.append(record.sentence)
            compiled.by_conclusion.setdefault(rule.conclusion, []).append(record)
        compiled.bundle = feedback_mod.FeedbackBundle(tuple(compiled.lines))
        return compiled

    def _evaluate(self, updates: Iterable[StateUpdate]) -> tuple[dict, dict, dict]:
        """The one evaluation of an update, which commits nothing.

        Returns the slots it writes; for each predicate that reads one of
        them, its new status and step truths under the world with those
        slots overlaid; and, for each such predicate with any, its false
        constraints on written slots.  Only the steps on written slots are
        tested, each once; every other step keeps its stored truth, since
        its slot holds what it held at the last commit.
        """
        written = {(update.state, var): value for update in updates for var, value in update.values.items()}
        plans, ctx = self._compiled.plans, self.ctx
        evaluated: dict[_Predicate, tuple[PredicateStatus, list[bool]]] = {}
        failures: dict[_Predicate, tuple] = {}
        for slot in written:
            for pred in plans.get(slot, ()):
                if pred in evaluated:
                    continue
                failed, truths, holds = [], [], True
                for (step_slot, test, constraint), truth in zip(pred.steps, pred.truths):
                    if step_slot in written:
                        truth = test(written[step_slot], ctx)
                        if not truth:
                            failed.append(constraint)
                            holds = False
                    elif not truth:
                        holds = False
                    truths.append(truth)
                evaluated[pred] = (_SATISFIED if holds else _UNSATISFIED, truths)
                if failed:
                    failures[pred] = tuple(failed)
        return written, evaluated, failures

    def _commit(self, written: dict, evaluated: dict) -> None:
        """Write ``written`` into the world and give each ``evaluated``
        predicate its new status and step truths, keeping each rule's unmet
        count and the number of met ``Done`` rules.  A rule's roadmap line,
        and with it the roadmap and the shared feedback bundle, is
        re-rendered only when one of its predicates becomes or stops being
        satisfied, the one change its "achieved" suffix shows."""
        self.world.update(written)
        compiled = self._compiled
        rules = compiled.rules
        changed: set[_Rule] = set()
        for pred, (status, truths) in evaluated.items():
            pred.truths = truths
            old = pred.status
            if status is old:
                continue
            pred.status = status
            rule = rules[pred.rule]
            if status is _SATISFIED:
                rule.unmet -= 1
                if not rule.unmet and rule.done:
                    compiled.done_met += 1
            elif old is _SATISFIED:
                if not rule.unmet and rule.done:
                    compiled.done_met -= 1
                rule.unmet += 1
            else:  # indeterminate <-> unsatisfied: no count or line moves
                continue
            changed.add(rule)
        if changed:
            lines = compiled.lines
            for rule in changed:
                lines[rule.index] = rule.sentence + feedback_mod.achieved_suffix([p.status for p in rule.predicates])
            compiled.bundle = feedback_mod.FeedbackBundle(tuple(lines))

    def _achieve(self, objective: str) -> None:
        self.achieved_objectives.add(objective)
        self._commit({}, dict.fromkeys(self._compiled.by_objective.get(objective, ()), (_SATISFIED, ())))

    # -- checks ------------------------------------------------------------

    def soft_check(self, updates: tuple[StateUpdate, ...] | list[StateUpdate]) -> SoftCheckResult:
        """Predicate-level check of a hypothetical update; never mutates.

        Fails only when, for every touched state that the specification
        constrains at all, every predicate over that state has at least one
        constraint on an updated variable evaluating false under the
        post-update valuation.  Constraints on variables the update does not
        touch are treated as not-yet-violated.  A touched state no predicate
        mentions keeps the update consistent, and so does an empty update.
        Raises :class:`TraceError` for an update that :func:`validate_event`
        would refuse.
        """
        _validate_updates(updates, self.schema)
        return self._soft_result(updates, self._evaluate(updates)[2])

    def _soft_result(self, updates: Iterable[StateUpdate], failures: dict) -> SoftCheckResult:
        """The soft check's verdict from the ``failures`` of the update's
        evaluation, read state by state and rule by rule; it is settled at
        the first predicate over a touched state with no false constraint."""
        by_state = self._compiled.by_state
        violations: list[Violation] = []
        for state_name in dict.fromkeys(update.state for update in updates):
            predicates = by_state.get(state_name)
            if not predicates:
                return _PASSED
            for pred in predicates:
                failed = failures.get(pred)
                if failed is None:
                    return _PASSED
                violations.append(Violation(pred.rule, pred.node, failed))

        if not violations:
            return _PASSED
        violations.sort(key=lambda v: v.rule_index)
        return SoftCheckResult(passed=False, violations=tuple(violations))

    def hard_check(self, objective: str) -> HardCheckResult:
        """Rule-level check: is some rule concluding ``objective`` fully
        satisfied right now?

        The rules' unmet counts decide, and the first satisfied rule settles
        it.  When none is, the report covers only the closest rule (most
        satisfied predicates, ties to the earliest) and lists each unmet
        predicate with its false constraints, read from that rule's stored
        truths; the check calls no test.
        """
        candidates = self._compiled.by_conclusion.get(objective)
        if not candidates:
            raise UnknownObjective(objective)
        for rule in candidates:
            if self._holds(rule.index):
                return HardCheckResult(objective, satisfied=True, rule_index=rule.index)

        closest = max(candidates, key=lambda rule: (len(rule.predicates) - rule.unmet, -rule.index))
        unmet: list[Violation] = []
        for pred in closest.predicates:
            if pred.status is not _SATISFIED:
                failed = tuple(c for (slot, test, c), truth in zip(pred.steps, pred.truths) if not truth)
                unmet.append(Violation(closest.index, pred.node, failed))
        return HardCheckResult(objective, satisfied=False, rule_index=closest.index, unmet=tuple(unmet))

    def _holds(self, rule_index: int) -> bool:
        """Every predicate of the rule is satisfied."""
        return not self._compiled.rules[rule_index].unmet

    def progress_report(self) -> list[RuleProgress]:
        """Snapshot of every rule's predicate statuses.

        A state predicate none of whose variables have been observed is
        indeterminate rather than unsatisfied; an objective reference is
        indeterminate until achieved.  The statuses are maintained
        incrementally: an allowed update re-evaluates only the predicates over
        the slots it wrote, and an achieved objective marks only the
        references to it satisfied.
        """
        return [
            RuleProgress(record.index, rule.conclusion, tuple([pred.status for pred in record.predicates]))
            for record, rule in zip(self._compiled.rules, self.spec.rules)
        ]

    # -- main entry point ----------------------------------------------------

    def submit_action(self, event: ActionEvent) -> Verdict:
        """Verify one event and return the verdict with feedback attached.

        Only an allowed event changes the session; one that raises, say from
        an injected similarity function, leaves it as it was."""
        if self.done:
            raise SessionDone("the task already completed; no further events are accepted")
        validate_event(event, self.schema)

        if event.critical is not None:
            result = self.hard_check(event.critical)
            if not result.satisfied:
                self.pending_soft = None
                return self._blocked(event, _HARD_BLOCK, hard=feedback_mod.render_hard(result))
        written, evaluated, failures = self._evaluate(event.updates)
        # with no false constraint on a written slot, the soft check passes
        if failures and event.critical is None and (
            self.pending_soft is None or event_fingerprint(event) != self.pending_soft
        ):
            result = self._soft_result(event.updates, failures)
            if not result.passed:
                self.pending_soft = event_fingerprint(event)
                return self._blocked(event, _SOFT_BLOCK, soft=feedback_mod.render_soft(result.violations))

        self.pending_soft = None
        self._commit(written, evaluated)
        newly: tuple[str, ...] = ()
        if event.critical is not None and event.critical not in self.achieved_objectives:
            newly = (event.critical,)
            self._achieve(event.critical)
        compiled = self._compiled
        if compiled.done_met:
            self.done = True
            return Verdict(event.action_id, _TASK_DONE, compiled.bundle, newly + (DONE,))
        return Verdict(event.action_id, _ALLOW, compiled.bundle, newly)

    def _blocked(self, event: ActionEvent, kind: VerdictKind, soft: str | None = None,
                 hard: str | None = None) -> Verdict:
        """A blocking verdict: the current roadmap with its warning or its
        blocking text.  An allowed event's verdict shares the session's
        bundle instead, until the roadmap changes."""
        bundle = feedback_mod.FeedbackBundle(self._compiled.bundle.roadmap, soft, hard)
        return Verdict(event.action_id, kind, bundle)
