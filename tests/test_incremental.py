"""The session's incrementally maintained statuses against a full recomputation.

``Session`` compiles its spec once and, after each event, re-evaluates only
the predicates that read a written slot or a newly achieved objective.  The
reference here re-derives every status from the world and the achieved
objectives on every event, the way the engine itself once did, judging each
constraint with the reference evaluator in ``reference_eval``.  Likewise the
soft and hard checks, which stop as soon as their verdict is settled, are
held against naive versions that evaluate every predicate of every touched
state and every candidate rule.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import generators
import reference_eval
from intentguard import engine
from intentguard.dsl import DONE, Constant, ObjectiveRef, parse_specification
from intentguard.engine import (
    ActionEvent,
    HardCheckResult,
    PredicateStatus,
    RuleProgress,
    Session,
    SoftCheckResult,
    StateUpdate,
    UnknownObjective,
    VerdictKind,
    Violation,
    event_fingerprint,
)
from intentguard.feedback import render_roadmap_lines
from intentguard.schema import schema_from_dict

from conftest import CLOCK, TODAY


def full_walk_report(session: Session) -> list[RuleProgress]:
    """Every rule's statuses, re-derived from scratch."""
    report = []
    for idx, rule in enumerate(session.spec.rules):
        statuses = []
        for pred in rule.predicates:
            if isinstance(pred, ObjectiveRef):
                achieved = pred.objective_name in session.achieved_objectives
                statuses.append(PredicateStatus.SATISFIED if achieved else PredicateStatus.INDETERMINATE)
                continue
            values = [session.world.get((pred.state_name, c.variable)) for c in pred.constraints]
            if all(value is None for value in values):
                statuses.append(PredicateStatus.INDETERMINATE)
                continue
            failed = [c for c, value in zip(pred.constraints, values) if not reference_eval.holds(c, value, session.ctx)]
            statuses.append(PredicateStatus.UNSATISFIED if failed else PredicateStatus.SATISFIED)
        report.append(RuleProgress(idx, rule.conclusion, tuple(statuses)))
    return report


def naive_soft_check(session: Session, updates) -> SoftCheckResult:
    """The soft check evaluating every predicate over every touched state: the
    update fails when some touched state is constrained and every touched
    state has each of its predicates contradicted on a written variable."""
    touched: dict[str, dict] = {}
    for update in updates:
        touched.setdefault(update.state, {}).update(update.values)
    violations = []
    any_predicate_seen = False
    all_states_contradicted = True
    for state_name, written in touched.items():
        predicates = [
            (idx, pred)
            for idx, rule in enumerate(session.spec.rules)
            for pred in rule.predicates
            if not isinstance(pred, ObjectiveRef) and pred.state_name == state_name
        ]
        any_predicate_seen = any_predicate_seen or bool(predicates)
        state_violations = []
        for idx, pred in predicates:
            failed = tuple(
                c for c in pred.constraints
                if c.variable in written and not reference_eval.holds(c, written[c.variable], session.ctx)
            )
            if failed:
                state_violations.append(Violation(idx, pred, failed))
        if predicates and len(state_violations) == len(predicates):
            violations.extend(state_violations)
        else:
            all_states_contradicted = False
    if any_predicate_seen and all_states_contradicted:
        return SoftCheckResult(False, tuple(sorted(violations, key=lambda v: v.rule_index)))
    return SoftCheckResult(True)


def naive_hard_check(session: Session, objective: str) -> HardCheckResult:
    """The hard check evaluating every rule concluding ``objective`` from
    scratch; the report covers the rule with the most satisfied predicates,
    ties to the earliest."""
    best = None
    for progress in full_walk_report(session):
        if progress.conclusion != objective:
            continue
        unmet = []
        for pred, status in zip(session.spec.rules[progress.rule_index].predicates, progress.statuses):
            if status is PredicateStatus.SATISFIED:
                continue
            failed = () if isinstance(pred, ObjectiveRef) else tuple(
                c for c in pred.constraints
                if not reference_eval.holds(c, session.world.get((pred.state_name, c.variable)), session.ctx)
            )
            unmet.append(Violation(progress.rule_index, pred, failed))
        if not unmet:
            return HardCheckResult(objective, True, progress.rule_index)
        score = len(progress.statuses) - len(unmet)
        if best is None or score > best[0]:
            best = (score, HardCheckResult(objective, False, progress.rule_index, tuple(unmet)))
    if best is None:
        raise UnknownObjective(objective)
    return best[1]


def done_rule_holds(report: list[RuleProgress]) -> bool:
    return any(
        all(s is PredicateStatus.SATISFIED for s in progress.statuses)
        for progress in report
        if progress.conclusion == DONE
    )


def test_cache_matches_full_recomputation_after_every_event():
    seen: Counter = Counter()
    for seed in range(150):
        rng = random.Random(seed)
        schema, spec, events = generators.verification_session(rng, TODAY)
        session = Session(spec, schema, CLOCK)
        previous_kind = previous_fingerprint = None
        for event in events:
            where = f"seed {seed}, event {event.action_id}"
            if event.critical is None:
                assert session.soft_check(event.updates) == naive_soft_check(session, event.updates), where
            else:
                assert session.hard_check(event.critical) == naive_hard_check(session, event.critical), where
            achieved_before = set(session.achieved_objectives)
            verdict = session.submit_action(event)
            expected = full_walk_report(session)
            assert session.progress_report() == expected, where
            assert verdict.feedback.roadmap == tuple(render_roadmap_lines(expected, spec, schema)), where
            assert (verdict.kind is VerdictKind.TASK_DONE) == done_rule_holds(expected), where

            seen[verdict.kind] += 1
            seen.update(s for progress in expected for s in progress.statuses)
            fingerprint = event_fingerprint(event)
            if previous_kind is VerdictKind.SOFT_BLOCK and fingerprint == previous_fingerprint:
                assert verdict.kind is not VerdictKind.SOFT_BLOCK, where
                seen["soft_block_then_resubmitted"] += 1
            if event.critical not in (None, DONE) and event.critical not in achieved_before and verdict.achieved:
                seen["critical_allow_newly_achieved"] += 1
            previous_kind, previous_fingerprint = verdict.kind, fingerprint
            if session.done:
                break
    # the streams reach every case the cache must follow
    for case in (
        VerdictKind.SOFT_BLOCK,
        VerdictKind.HARD_BLOCK,
        VerdictKind.TASK_DONE,
        "soft_block_then_resubmitted",
        "critical_allow_newly_achieved",
        PredicateStatus.SATISFIED,
        PredicateStatus.UNSATISFIED,
    ):
        assert seen[case] >= 10, (case, seen)


WIDE_SCHEMA = schema_from_dict(
    {
        "app_id": "wide",
        "states": [
            {"name": f"S{i}", "description": f"state {i}", "variables": [{"x": "Number"}, {"flag": "Boolean"}]}
            for i in range(40)
        ],
    }
)


def wide_spec(n_rules: int):
    """Rules concluding ``Done`` spread over ``S0``-``S3`` first; rules past
    the twentieth are over ``S4``-``S39`` only.  One last rule concludes
    ``Open``."""
    lines = []
    for i in range(n_rules):
        if i < 20:
            a, b = i % 4, (i + 1) % 4
        else:
            a, b = 4 + i % 36, 4 + (i + 7) % 36
        lines.append(f"S{a}(x >= {i % 5}) & S{b}(flag = true, x < {i % 7 + 1}) -> Done")
    lines.append("S0(x >= 0) -> Open")
    return parse_specification("\n".join(lines))


def test_single_slot_update_cost_does_not_grow_with_unrelated_rules(monkeypatch):
    calls = Counter()
    real = engine.compile_constraint
    real_suffix = engine.feedback_mod.achieved_suffix

    def compile_counting(constraint, kind):
        test = real(constraint, kind)

        def counting(value, ctx):
            calls["eval"] += 1
            return test(value, ctx)

        return counting

    def suffix_counting(statuses):
        calls["suffix"] += 1
        return real_suffix(statuses)

    class Walked(list):
        """A rule's predicate records, counting each walk over them."""

        def __iter__(self):
            calls["walk"] += 1
            return super().__iter__()

    # the session evaluates constraints only through the tests it compiles;
    # the Done check re-renders the roadmap line of each rule it reads, and
    # a walk over a rule's predicates shows that a check read that rule
    monkeypatch.setattr(engine, "compile_constraint", compile_counting)
    monkeypatch.setattr(engine.feedback_mod, "achieved_suffix", suffix_counting)
    stream = [
        ActionEvent("a0", "pre", (StateUpdate("S0", {"x": Constant.number(3)}),)),
        ActionEvent("a1", "pre", (StateUpdate("S1", {"flag": Constant.boolean(True)}),)),
        ActionEvent("a2", "pre", (StateUpdate("S0", {"x": Constant.number(0)}),)),
        ActionEvent("a3", "pre", (StateUpdate("S2", {"x": Constant.number(9)}),)),
        ActionEvent("a4", "pre", (StateUpdate("S1", {"x": Constant.number(1)}),)),
        ActionEvent("a5", "pre", (StateUpdate("S3", {"flag": Constant.boolean(True)}),), critical="Open"),
    ]

    def work_per_event(spec) -> list[tuple[int, int, int]]:
        session = Session(spec, WIDE_SCHEMA, CLOCK)
        session.progress_report()  # compile outside the count
        for rule in session._compiled.rules:
            rule.predicates = Walked(rule.predicates)
        counts = []
        for event in stream:
            calls.clear()
            verdict = session.submit_action(event)
            assert verdict.kind is VerdictKind.ALLOW
            counts.append((calls["eval"], calls["suffix"], calls["walk"]))
        return counts

    # every rule of a wide spec but the last concludes Done, so neither the
    # Done check after each allowed event nor the hard check of the critical
    # one may look at every rule
    small = work_per_event(wide_spec(20))
    wide = work_per_event(wide_spec(200))
    assert all(evals > 0 for evals, _, _ in small)
    assert small[-1][1:] == (0, 1)  # the hard check reads the one rule concluding Open
    assert wide == small


@pytest.mark.parametrize("critical", [None, "Open"])
def test_an_event_whose_similarity_function_raises_changes_nothing(critical):
    schema = schema_from_dict(
        {"app_id": "fuzzy", "states": [{"name": "Shop", "description": "", "variables": [{"name": "Text"}, {"open": "Boolean"}]}]}
    )
    spec = parse_specification('Shop(name ~= "apples") & Shop(open = true) -> Done\nShop(open = true) -> Open')
    available = False

    def flaky(a, b):
        if not available:
            raise RuntimeError("similarity backend unavailable")
        return 1.0 if a == b else 0.0

    session = Session(spec, schema, CLOCK, similarity=flaky)
    session.submit_action(ActionEvent("a1", "pre", (StateUpdate("Shop", {"open": Constant.boolean(True)}),)))
    world, achieved, report = dict(session.world), set(session.achieved_objectives), session.progress_report()
    # a critical event passes its hard check on ``open`` alone, then fails
    # while evaluating the predicate over the ``name`` it writes
    name = ActionEvent("a2", "pre", (StateUpdate("Shop", {"name": Constant.text("apples")}),), critical=critical)
    with pytest.raises(RuntimeError, match="similarity backend unavailable"):
        session.submit_action(name)
    assert dict(session.world) == world
    assert session.achieved_objectives == achieved
    assert session.progress_report() == report == full_walk_report(session)

    available = True
    verdict = session.submit_action(name)
    assert verdict.kind is VerdictKind.TASK_DONE
    assert verdict.achieved == (() if critical is None else (critical,)) + (DONE,)
    assert session.progress_report() == full_walk_report(session)


def test_an_event_re_tests_only_the_steps_on_the_slots_it_writes(monkeypatch):
    schema = schema_from_dict(
        {
            "app_id": "fuzzy",
            "states": [
                {"name": "Shop", "description": "", "variables": [{"name": "Text"}, {"open": "Boolean"}, {"n": "Number"}]}
            ],
        }
    )
    spec = parse_specification('Shop(name ~= "x", open = true, n = 1) -> Done')
    calls = Counter()
    real = engine.compile_constraint

    def compile_counting(constraint, kind):
        test = real(constraint, kind)

        def counting(value, ctx):
            calls["test"] += 1
            return test(value, ctx)

        return counting

    def scorer(a, b):
        calls["scorer"] += 1
        return 1.0 if a == b else 0.0

    # the session tests constraints only through the tests it compiles
    monkeypatch.setattr(engine, "compile_constraint", compile_counting)
    session = Session(spec, schema, CLOCK, similarity=scorer)
    # ``n = 2`` contradicts the one predicate, so the update is soft-blocked
    # and its resubmission allowed: all three slots are then written
    first = StateUpdate("Shop", {"name": Constant.text("x"), "open": Constant.boolean(True), "n": Constant.number(2)})
    kinds = [session.submit_action(ActionEvent(f"a{k}", "pre", (first,))).kind for k in range(2)]
    assert kinds == [VerdictKind.SOFT_BLOCK, VerdictKind.ALLOW]

    calls.clear()
    verdict = session.submit_action(ActionEvent("a2", "pre", (StateUpdate("Shop", {"open": Constant.boolean(True)}),)))
    # the ``~=`` and ``n`` steps keep their stored truths; only ``open`` is tested
    assert (verdict.kind, calls["test"], calls["scorer"]) == (VerdictKind.ALLOW, 1, 0)

    calls.clear()
    result = session.hard_check(DONE)
    # the closest rule's false constraints come from the stored truths
    assert (calls["test"], calls["scorer"]) == (0, 0)
    assert result == naive_hard_check(session, DONE)
    assert [c.variable for violation in result.unmet for c in violation.failed_constraints] == ["n"]
    assert session.progress_report() == full_walk_report(session)
