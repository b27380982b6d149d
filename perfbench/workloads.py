"""Seeded generators for the benchmark's workloads.

Every generator takes a ``random.Random`` and returns plain data: schema
documents, rule-program text, trace events and mock scripts, together with
the verdict kind each event must receive.  Nothing here imports intentguard;
the expected verdicts follow from how the inputs are built, not from running
the library's evaluator:

* every constrained (state, variable) slot has a *target* value that
  satisfies every constraint ever placed on the slot, and a *poison* value
  that violates every one of them;
* updates that write target values are allowed, because a soft check only
  fails when a constraint on an updated variable turns false;
* a soft block writes poison to every variable of one constrained state, so
  every predicate over that state fails; the identical event resubmitted
  right after it is allowed;
* each intermediate objective is concluded by exactly one rule over a gate
  state that only its own block writes, so its critical event is blocked
  before that block and allowed after it;
* every rule concluding ``Done`` needs ``Finish(closed = true)``, which only
  the final event writes, so the task completes exactly at the final event.
"""

from __future__ import annotations

import json
import random
from collections import Counter
import unicodedata
from dataclasses import dataclass, field
from datetime import date
from decimal import Decimal

ALLOW = "allow"
SOFT_BLOCK = "soft_block"
HARD_BLOCK = "hard_block"
TASK_DONE = "task_done"

CLOCK = "2025-03-14T12:00:00"
FINISH = "Finish"

_STATE_WORDS = [
    "Basket", "Ticket", "Parcel", "Ledger", "Folder", "Wallet", "Budget", "Escrow",
    "Refund", "Coupon", "Bundle", "Filter", "Outbox", "Device", "Report", "Member",
    "Policy", "Quotas", "Signup", "Rental", "Review", "Search", "Travel", "Upload",
]
_ADJECTIVES = ["pending", "current", "primary", "shared", "draft", "linked", "active", "stored"]
_NOUNS = ["order", "account", "booking", "request", "payment", "profile", "message", "invoice"]
_OBJECTIVES = [
    "Reserve", "Purchase", "Send", "Approve", "Publish", "Transfer", "Book", "Submit",
    "Confirm", "Release", "Archive", "Refund",
]
_TIERS = ["Bronze", "Silver", "Gold", "Platinum", "Basic", "Trial"]
_FIRST = [
    "Renée", "José", "Zoë", "Søren", "Anaïs", "François", "Björn", "Inès", "Mikaël", "Chloé",
    "Raúl", "Noémie", "Jürgen", "Élodie", "Łukasz", "Maëlle", "Andrés", "Océane", "Dušan", "Hélène",
]
_LAST = [
    "Lefèvre", "Álvarez", "Brontë", "Kierkegård", "Dubois", "Müller", "Gonçalves", "Nuñez",
    "Østergaard", "Castaño", "Kovačević", "Prévost", "Hernández", "Šimůnek", "Jørgensen",
    "Bélanger", "Fernández", "Lindqvist", "Morales", "Żelazny",
]
_SUFFIXES = [" Jr", " Sr", " III", " PhD"]
_PUNCTUATION = ".,'!-"

# Margins for ~= constants: a value meant to match scores at least
# _MATCH_FLOOR and a poison value at most _MISS_CEILING under a plain
# character-trigram Jaccard, well clear of the library's 0.7 threshold.
_MATCH_FLOOR = 0.75
_MISS_CEILING = 0.5

SCHEMA_TYPES = {"number": "Number", "boolean": "Boolean", "date": "Date", "time": "Time", "text": "Text"}
# Shares of the Text slot families, dealt exactly rather than drawn, so that
# the mix of comparisons (and with it the cost of an event) does not depend
# on the seed.
TEXT_FAMILIES = {"fuzzy": 55, "exact": 20, "set": 25}


@dataclass
class Slot:
    """One (state, variable) pair with its construction values.

    ``variants`` are JSON values every constraint in ``constraints`` accepts
    (the target and its equivalent spellings); ``poison`` is rejected by all
    of them.  ``kind`` is the value type, or the family of a Text slot.
    """

    state: str
    var: str
    type_text: str
    variants: list
    poison: object
    constraints: list[str]
    kind: str
    uses: int = 0

    def next_constraint(self, turns: Counter) -> str:
        """Slots of one kind take their constraints in turn across the
        schema, so each comparison appears in a fixed share of the rules."""
        turn = turns[self.kind]
        turns[self.kind] += 1
        self.uses += 1
        return self.constraints[turn % len(self.constraints)]


@dataclass
class AppSchema:
    app_id: str
    states: list[str]
    descriptions: dict[str, str]
    slots: dict[str, list[Slot]]
    turns: Counter = field(default_factory=Counter)

    def document(self) -> dict:
        return {
            "app_id": self.app_id,
            "states": [
                {
                    "name": name,
                    "description": self.descriptions[name],
                    "variables": [{slot.var: slot.type_text} for slot in self.slots[name]],
                }
                for name in self.states
            ],
        }

    def text(self) -> str:
        return json.dumps(self.document(), indent=1, ensure_ascii=False) + "\n"


@dataclass
class Task:
    """One instruction on one app: its rule program, trace and answers."""

    schema: AppSchema
    instruction: str
    rules: list[str]
    events: list[dict]
    expected: list[str]
    n_constraints: int
    script_kind: str = "clean"
    turns: list[dict] = field(default_factory=list)
    expected_roles: tuple[str, ...] = ()
    expected_rejects: tuple[str, ...] = ()

    @property
    def spec_text(self) -> str:
        return "\n".join(self.rules) + "\n"

    def trace_text(self) -> str:
        header = {"app_id": self.schema.app_id, "schema_path": "schema.json",
                  "instruction": self.instruction, "clock": CLOCK}
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(event, sort_keys=True) for event in self.events)
        return "\n".join(lines) + "\n"

    def sizes(self) -> dict:
        return {
            "states": len(self.schema.states),
            "rules": len(self.rules),
            "constraints": self.n_constraints,
            "events": len(self.events),
        }


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _list_literal(items) -> str:
    return "[" + ", ".join(_quote(item) for item in items) + "]"


def _number_literal(quarters: int) -> str:
    return format(Decimal(quarters) / 4, "f")


def _number_json(quarters: int):
    return quarters // 4 if quarters % 4 == 0 else quarters / 4


def _date_literal(ordinal: int) -> str:
    return date.fromordinal(ordinal).isoformat()


def _time_literal(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


_NUMERIC_FORMS = {
    "number": (_number_literal, _number_json),
    "date": (_date_literal, _date_literal),
    "time": (_time_literal, _time_literal),
}


# ---------------------------------------------------------------------------
# Slots
# ---------------------------------------------------------------------------


def _numeric_slot(rng: random.Random, state: str, var: str, kind: str) -> Slot:
    """Target t and poison p on an integer scale; every constant c keeps
    t on the accepted side and p on the rejected side."""
    if kind == "number":
        t, gap = rng.randint(40, 2000), rng.randint(80, 800)
    elif kind == "date":
        t, gap = date(2025, 1, 1).toordinal() + rng.randint(0, 330), rng.randint(20, 200)
    else:
        t, gap = rng.randint(300, 1140), rng.randint(30, 240)
    up = rng.random() < 0.5
    p = t + gap if up else t - gap
    literal, as_json = _NUMERIC_FORMS[kind]
    constraints = [f"{var} = {literal(t)}", f"{var} != {literal(p)}"]
    for _ in range(2):
        if up:
            op, c = rng.choice([("<", rng.randint(t + 1, p)), ("<=", rng.randint(t, p - 1))])
            assert t <= c <= p and (c > t if op == "<" else c < p)
        else:
            op, c = rng.choice([(">", rng.randint(p, t - 1)), (">=", rng.randint(p + 1, t))])
            assert p <= c <= t and (c < t if op == ">" else c > p)
        constraints.append(f"{var} {op} {literal(c)}")
    return Slot(state, var, SCHEMA_TYPES[kind], [as_json(t)], as_json(p), constraints, kind)


def _boolean_slot(rng: random.Random, state: str, var: str) -> Slot:
    t = rng.random() < 0.5
    word = "true" if t else "false"
    other = "false" if t else "true"
    return Slot(state, var, "Boolean", [t], not t, [f"{var} = {word}", f"{var} != {other}"], "boolean")


def _enum_slot(rng: random.Random, state: str, var: str) -> Slot:
    variants = rng.sample(_TIERS, 5)
    t, p, x, y, _ = variants
    type_text = "Enum[" + ", ".join(sorted(variants)) + "]"
    constraints = [
        f"{var} = {t}",
        f"{var} != {p}",
        f"{var} in {_list_literal([t, x])}",
        f"{var} not in {_list_literal([p, y])}",
    ]
    return Slot(state, var, type_text, [t], p, constraints, "enum")


def _trigram_jaccard(a: str, b: str) -> float:
    """Margin check for ~= constants: trigram Jaccard over casefolded text
    with punctuation dropped."""

    def norm(text: str) -> str:
        folded = unicodedata.normalize("NFC", text).casefold()
        return " ".join("".join(ch for ch in folded if ch.isalnum() or ch.isspace()).split())

    na, nb = norm(a), norm(b)
    if na == nb:
        return 1.0
    ga = {na[i:i + 3] for i in range(len(na) - 2)} or {na}
    gb = {nb[i:i + 3] for i in range(len(nb) - 2)} or {nb}
    return len(ga & gb) / len(ga | gb)


def _case_variant(rng: random.Random, text: str) -> str:
    return rng.choice([str.upper, str.lower, str.title, str.swapcase])(text)


def _punctuated(rng: random.Random, text: str) -> str:
    i = rng.randint(1, len(text))
    return text[:i] + rng.choice(_PUNCTUATION) + text[i:]


def _spaced(rng: random.Random, text: str) -> str:
    return rng.choice([" " + text, text + " ", " " + text + "  "])


def _nfd(text: str) -> str:
    return unicodedata.normalize("NFD", text)


def _text_slot(rng: random.Random, state: str, var: str, names: list[str], family: str) -> Slot | None:
    """A Text slot in one of three families, each with its own spellings.

    ``=`` compares NFC-normalised, trimmed text, so its values differ from the
    constant only in Unicode composition and outer spaces.  ``in`` and
    ``not in`` also fold case.  ``~=`` drops punctuation and repeated spaces
    as well, and admits longer spellings that stay above the match margin.
    A fuzzy slot always has one suffixed constant and one suffixed value, so
    every fuzzy slot mixes equal and merely similar spellings alike; None if
    the base name is too short for any suffix to stay above the margin.
    """
    base, poison, other_in, other_out = names
    exact_forms = [base, _nfd(base), _spaced(rng, base), _spaced(rng, _nfd(base))]
    if family == "exact":
        variants = exact_forms
        constraints = [f"{var} = {_quote(base)}", f"{var} ~= {_quote(_case_variant(rng, base))}"]
    elif family == "set":
        variants = exact_forms + [_case_variant(rng, base), _nfd(_case_variant(rng, base))]
        constraints = [
            f"{var} in {_list_literal([_case_variant(rng, base), other_in])}",
            f"{var} not in {_list_literal([_case_variant(rng, poison), other_out])}",
            f"{var} ~= {_quote(_case_variant(rng, base))}",
        ]
    else:
        suffixes = [s for s in _SUFFIXES if _trigram_jaccard(base + s, base) >= _MATCH_FLOOR]
        if not suffixes:
            return None
        suffix = rng.choice(suffixes)
        approx = [_case_variant(rng, base), _punctuated(rng, base), base + suffix]
        variants = exact_forms + [
            _case_variant(rng, base),
            _punctuated(rng, _case_variant(rng, base)),
            base.replace(" ", "  "),
            _case_variant(rng, base) + suffix,
        ]
        constraints = [f"{var} ~= {_quote(c)}" for c in approx]
        assert all(_trigram_jaccard(v, c) >= _MATCH_FLOOR for v in variants for c in approx)
        assert all(_trigram_jaccard(poison, c) <= _MISS_CEILING for c in approx)
    return Slot(state, var, "Text", variants, poison, constraints, family)


def _distinct_names(rng: random.Random, count: int) -> list[str]:
    """``count`` full names, pairwise sharing neither first nor last name and
    scoring under the miss margin against each other."""
    while True:
        firsts = rng.sample(_FIRST, count)
        lasts = rng.sample(_LAST, count)
        names = [f"{f} {l}" for f, l in zip(firsts, lasts)]
        if all(
            _trigram_jaccard(a + s, b) <= _MISS_CEILING
            for a in names for b in names if a != b for s in [""] + _SUFFIXES
        ):
            return names


def _dealt(rng: random.Random, shares: dict, count: int) -> list:
    """``count`` labels in the given shares (largest remainder), shuffled."""
    total = sum(shares.values())
    exact = {label: count * share / total for label, share in shares.items()}
    counts = {label: int(value) for label, value in exact.items()}
    for label in sorted(exact, key=lambda label: counts[label] - exact[label])[:count - sum(counts.values())]:
        counts[label] += 1
    labels = [label for label in shares for _ in range(counts[label])]
    rng.shuffle(labels)
    return labels


def build_schema(rng: random.Random, app_id: str, state_vars: list[list[tuple[str, str]]],
                 families: list[str] | None = None) -> AppSchema:
    """One generated state per entry of ``state_vars``, a (variable, kind)
    list, plus the ``Finish`` state.  Text slots take their family from the
    end of ``families``, by default dealt for this schema alone.
    """
    words = rng.sample(_STATE_WORDS, len(_STATE_WORDS))
    states = [f"{words[i % len(words)]}{i:02d}" for i in range(len(state_vars))]
    descriptions = {
        name: f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)} details" for name in states
    }
    if families is None:
        families = _dealt(rng, TEXT_FAMILIES, sum(kind == "text" for pairs in state_vars for _, kind in pairs))
    slots: dict[str, list[Slot]] = {}
    for name, pairs in zip(states, state_vars):
        slots[name] = []
        for var, kind in pairs:
            if kind == "text":
                family = families.pop()
                slot = None
                while slot is None:
                    slot = _text_slot(rng, name, var, _distinct_names(rng, 4), family)
            elif kind == "boolean":
                slot = _boolean_slot(rng, name, var)
            elif kind == "enum":
                slot = _enum_slot(rng, name, var)
            else:
                slot = _numeric_slot(rng, name, var, kind)
            slots[name].append(slot)
    states.append(FINISH)
    descriptions[FINISH] = "whether the task has been wrapped up"
    slots[FINISH] = [Slot(FINISH, "closed", "Boolean", [True], False, ["closed = true"], "finish")]
    return AppSchema(app_id, states, descriptions, slots)


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


def _predicate(rng: random.Random, schema: AppSchema, state: str, n_constraints: int) -> tuple[str, list[Slot]]:
    """Constraints on the state's least used slots, so that every slot kind
    appears in its share whatever the seed."""
    by_use = sorted(schema.slots[state], key=lambda slot: (slot.uses, rng.random()))
    chosen = by_use[:min(n_constraints, len(by_use))]
    parts = [slot.next_constraint(schema.turns) for slot in chosen]
    return f"{state}({', '.join(parts)})", chosen


def build_task(
    rng: random.Random,
    schema: AppSchema,
    *,
    n_rules: int,
    n_objectives: int,
    n_poison: int,
    rounds: int = 1,
    max_predicates: int = 2,
    max_constraints: int = 3,
    ref_share: float = 0.2,
    done_share: float = 0.1,
) -> Task:
    """One rule program over ``schema`` and a trace whose verdicts are known.

    Rules: one per objective over its own gate state, one main ``Done`` rule
    needing ``Finish`` and every objective, and ``n_rules - n_objectives - 1``
    further rules over the other states, with 1, 2, ... ``max_predicates``
    predicates of 1, 2, ... ``max_constraints`` constraints in turn, over the
    least used states; ``ref_share`` of them (rounded) also need an objective
    and ``done_share`` conclude ``Done``, so sizes do not depend on the seed.
    Trace: gate blocks (blocked critical, gate
    writes, allowed critical) spread among ``rounds`` passes of single-slot
    target writes over the other states, ``n_poison`` soft blocks with their
    resubmission and later repair, and the final ``Finish`` write.
    """
    regular = schema.states[:-1]
    objectives = [
        _OBJECTIVES[i % len(_OBJECTIVES)] + ("" if i < len(_OBJECTIVES) else str(i)) for i in range(n_objectives)
    ]
    gates = rng.sample(regular, n_objectives)
    others = [s for s in regular if s not in gates] or list(regular)

    rules: list[str] = []
    gate_slots: list[list[Slot]] = []
    used: dict[tuple[str, str], Slot] = {}
    n_constraints = 0
    for i, (objective, gate) in enumerate(zip(objectives, gates)):
        text, chosen = _predicate(rng, schema, gate, max_constraints)
        n_constraints += len(chosen)
        gate_slots.append(chosen)
        parts = [text]
        if i > 0 and rng.random() < 0.5:
            parts.append(objectives[i - 1])
        rules.append(" & ".join(parts) + f" -> {objective}")
    rules.append(" & ".join(["Finish(closed = true)"] + objectives) + " -> Done")
    n_constraints += 1

    turn = 0
    n_extra = n_rules - n_objectives - 1
    with_ref = set(rng.sample(range(n_extra), round(ref_share * n_extra))) if objectives else set()
    with_done = set(rng.sample(range(n_extra), round(done_share * n_extra)))
    state_uses = dict.fromkeys(others, 0)
    for k in range(n_extra):
        by_use = sorted(others, key=lambda state: (state_uses[state], rng.random()))
        states = by_use[:min(len(others), 1 + k % max_predicates)]
        parts = []
        for state in states:
            state_uses[state] += 1
            turn += 1
            text, chosen = _predicate(rng, schema, state, 1 + turn % max_constraints)
            n_constraints += len(chosen)
            parts.append(text)
            for slot in chosen:
                used[(slot.state, slot.var)] = slot
        if k in with_ref:
            parts.append(rng.choice(objectives))
        if k in with_done:
            parts.insert(rng.randint(0, len(parts)), "Finish(closed = true)")
            n_constraints += 1
            conclusion = "Done"
        else:
            conclusion = f"Goal{k:03d}"
        rules.append(" & ".join(parts) + f" -> {conclusion}")

    gate_names = set(gates)
    if not objectives:
        state = rng.choice(others)
        text, chosen = _predicate(rng, schema, state, max_constraints)
        n_constraints += len(chosen)
        rules[n_objectives] = text + " & " + rules[n_objectives]
        used.update(((slot.state, slot.var), slot) for slot in chosen)
    bulk = [slot for state in others if state not in gate_names for slot in schema.slots[state]]
    constrained_states = sorted({state for state, _ in used if state not in gate_names})

    def update(slots: list[Slot], values: list) -> dict:
        return {"phase": rng.choice(["pre", "post"]),
                "updates": [{"state": slots[0].state, "values": {s.var: v for s, v in zip(slots, values)}}]}

    # Units are inserted whole, so nothing lands between a soft block and
    # its resubmission or inside a gate block.
    units: list[list[tuple[dict, str]]] = []
    for _ in range(rounds):
        for slot in rng.sample(bulk, len(bulk)):
            units.append([(update([slot], [rng.choice(slot.variants)]), ALLOW)])

    for state in rng.sample(constrained_states, min(n_poison, len(constrained_states))):
        slots = schema.slots[state]
        poison = update(slots, [s.poison for s in slots])
        at = rng.randint(0, len(units))
        units.insert(at, [(poison, SOFT_BLOCK), (poison, ALLOW)])
        for slot in slots:
            units.insert(rng.randint(at + 1, len(units)), [(update([slot], [rng.choice(slot.variants)]), ALLOW)])

    positions = sorted(rng.randint(0, len(units)) for _ in objectives)
    for i in reversed(range(len(objectives))):
        block = [({"phase": "pre", "updates": [], "critical": objectives[i]}, HARD_BLOCK)]
        block += [(update([slot], [rng.choice(slot.variants)]), ALLOW) for slot in gate_slots[i]]
        block.append(({"phase": "pre", "updates": [], "critical": objectives[i]}, ALLOW))
        units.insert(positions[i], block)

    units.append([(update(schema.slots[FINISH], [True]), TASK_DONE)])
    steps = [step for unit in units for step in unit]

    events, expected = [], []
    for n, (event, kind) in enumerate(steps):
        events.append({"action_id": f"e{n:05d}", **event})
        expected.append(kind)
    instruction = (
        f"In {schema.app_id}, complete the task over {len(regular)} states"
        + (f", performing {', '.join(objectives)} only once their conditions hold" if objectives else "")
        + ", and finish when everything is wrapped up."
    )
    return Task(schema, instruction, rules, events, expected, n_constraints)


# ---------------------------------------------------------------------------
# Workload shapes
# ---------------------------------------------------------------------------


_WIDE_VARS = [("amount", "number"), ("active", "boolean"), ("due_on", "date"), ("slot_at", "time"), ("tier", "enum")]
_TEXT_VARS = [("owner", "text"), ("venue", "text"), ("contact", "text"), ("verified", "boolean")]
_SMALL_VARS = [("amount", "number"), ("active", "boolean"), ("due_on", "date"), ("slot_at", "time"),
               ("tier", "enum"), ("owner", "text")]
# (objectives, soft blocks) of an encode-verify task, in equal shares.
_SMALL_SHAPES = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}


def _small_state_vars(rng: random.Random, n_states: list[int]) -> list[list[list[tuple[str, str]]]]:
    """Variables of every regular state of every small app: states have one
    and two variables in turn, whose kinds come in turn from one seeded order
    of all six, so each kind has the same share whatever the seed."""
    order = rng.sample(_SMALL_VARS, len(_SMALL_VARS))
    turn = state = 0
    apps = []
    for count in n_states:
        app = []
        for _ in range(count - 1):
            width = 1 + state % 2
            app.append([order[(turn + j) % len(order)] for j in range(width)])
            state += 1
            turn += width
        apps.append(app)
    return apps


def replay_wide(rng: random.Random, n_states: int = 40, n_rules: int = 200) -> Task:
    """One long session: every event re-walks all rules in progress report
    and roadmap rendering, while ``~=`` never occurs."""
    schema = build_schema(rng, "wide_app", [_WIDE_VARS] * (n_states - 1))
    return build_task(rng, schema, n_rules=n_rules, n_objectives=max(1, n_states // 5),
                      n_poison=max(1, n_states // 7))


def fuzzy_text(rng: random.Random, n_states: int = 10, n_rules: int = 20, rounds: int = 20) -> Task:
    """One long session whose constraints are mostly Text comparisons; the
    same (value, constant) pairs recur on every event."""
    schema = build_schema(rng, "text_app", [_TEXT_VARS] * (n_states - 1))
    return build_task(rng, schema, n_rules=n_rules, n_objectives=2, n_poison=max(1, n_states // 3),
                      rounds=rounds)


SCRIPT_KINDS = ("clean", "syntax", "static", "semantic")
_REJECT_OF = {"clean": (), "syntax": ("syntax",), "static": ("static",), "semantic": ("semantic",)}


def script(task: Task, kind: str) -> None:
    """Scripted mock turns that first draft the given kind of error."""
    good = "```\n" + task.spec_text + "```"
    accept = [
        {"role": "encoder", "response": good},
        {"role": "decoder", "response": f"The program verifies: {task.instruction}"},
        {"role": "checker", "response": "PASS"},
    ]
    roles = ("encoder", "decoder", "checker")
    if kind == "syntax":
        broken = task.rules[0].rsplit(" -> ", 1)[0]
        first = [{"role": "encoder", "response": "```\n" + "\n".join([broken] + task.rules[1:]) + "\n```"}]
        roles = ("encoder",) + roles
    elif kind == "static":
        first = [{"role": "encoder", "response": good.replace(FINISH + "(", "Nowhere(", 1)}]
        roles = ("encoder",) + roles
    elif kind == "semantic":
        reordered = "```\n" + "\n".join(reversed(task.rules)) + "\n```"
        first = [
            {"role": "encoder", "response": reordered},
            {"role": "decoder", "response": "The program completes the task without any precondition."},
            {"role": "checker", "response": "FAIL: the description drops the conditions of the instruction"},
        ]
        roles = ("encoder", "decoder", "checker") + roles
    else:
        first = []
    task.script_kind = kind
    task.turns = first + accept
    task.expected_roles = roles
    task.expected_rejects = _REJECT_OF[kind]


def encode_verify(rng: random.Random, n_tasks: int = 192, n_apps: int = 16, memory_per_app: int = 12):
    """Many short tasks on small apps (2-4 states, 1-4 rules, 4-8 events),
    each with a mock script; a fixed share of scripts first draft a syntax
    error, a static-check error or a semantically rejected program.  State
    and rule counts cycle with the task index, and variable kinds, Text
    families and task shapes (objective or not, soft block or not) are dealt
    in fixed shares, so the mix does not depend on the seed.

    Returns ``(tasks, memory_entries)`` where ``memory_entries`` are
    ``(app_id, instruction, spec_text)`` triples of other tasks on the same
    apps, used to pre-build the predicate memory.
    """
    state_vars = _small_state_vars(rng, [2 + i % 3 for i in range(n_apps)])
    families = _dealt(rng, TEXT_FAMILIES, sum(kind == "text" for app in state_vars for pairs in app for _, kind in pairs))
    apps = [build_schema(rng, f"app{i}", state_vars[i], families) for i in range(n_apps)]

    def small_task(schema: AppSchema, n_rules: int, shape: tuple[int, int]) -> Task:
        """A task of the given shape within 4-8 events; a shape the app
        cannot fit there gives way to random ones after 500 tries."""
        regular = len(schema.states) - 1
        for attempt in range(1000):
            objectives, poison = shape if attempt < 500 else (rng.randint(0, 1), rng.randint(0, 1))
            task = build_task(rng, schema, n_rules=n_rules, n_objectives=min(regular, n_rules - 1, objectives),
                              n_poison=poison)
            if 4 <= len(task.events) <= 8:
                return task
        raise ValueError(f"no task of {n_rules} rules with 4-8 events on {schema.app_id}")

    kinds = [SCRIPT_KINDS[i % len(SCRIPT_KINDS)] for i in range(n_tasks)]
    rng.shuffle(kinds)
    shapes = _dealt(rng, _SMALL_SHAPES, n_tasks)
    tasks = []
    for i, kind in enumerate(kinds):
        task = small_task(apps[i % n_apps], 1 + i // n_apps % 4, shapes[i])
        script(task, kind)
        tasks.append(task)
    all_shapes = list(_SMALL_SHAPES)
    memory = [
        (app.app_id, task.instruction, task.spec_text)
        for app in apps
        for task in (small_task(app, 1 + k % 4, all_shapes[k % len(all_shapes)]) for k in range(memory_per_app))
    ]
    return tasks, memory
