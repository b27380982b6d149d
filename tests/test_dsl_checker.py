from __future__ import annotations

import random

import pytest

from intentguard.dsl import DiagnosticCode, _find_objective_cycle, check_specification, parse_specification
from intentguard.schema import ConstKind, StateDef, StateSchema, VarType, schema_from_dict

ENUM_SCHEMA = schema_from_dict(
    {
        "app_id": "checker_demo",
        "states": [
            {
                "name": "Payment",
                "description": "how the order is paid",
                "variables": [{"method": "Enum[Card, Cash]"}, {"amount": "Number"}, {"confirmed": "Boolean"}],
            }
        ],
    }
)


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestCheck:
    def test_reservation_is_clean(self, reservation_spec, restaurant_schema):
        assert check_specification(reservation_spec, restaurant_schema) == []

    def test_ordering_operator_on_text_variable(self, restaurant_schema):
        spec = parse_specification("RestaurantInfo(name >= 100) -> Done")
        diagnostics = check_specification(spec, restaurant_schema)
        assert codes(diagnostics) == [DiagnosticCode.TYPE_MISMATCH]
        assert "name" in diagnostics[0].message and ">=" in diagnostics[0].message

    def test_wrong_constant_kind_is_a_single_type_mismatch(self, restaurant_schema):
        spec = parse_specification('RestaurantInfo(name = 100) -> Done')
        diagnostics = check_specification(spec, restaurant_schema)
        assert codes(diagnostics) == [DiagnosticCode.TYPE_MISMATCH]
        assert "100" in diagnostics[0].message

    def test_unknown_state_and_variable(self, restaurant_schema):
        spec = parse_specification('Nowhere(x = 1) & RestaurantInfo(rating = 5) -> Done')
        diagnostics = check_specification(spec, restaurant_schema)
        assert codes(diagnostics) == [DiagnosticCode.UNKNOWN_STATE, DiagnosticCode.UNKNOWN_VARIABLE]
        assert "Nowhere" in diagnostics[0].message
        assert "rating" in diagnostics[1].message

    def test_a_state_declared_twice_resolves_to_its_first_declaration(self):
        # the engine reads the first declaration, so the checker must too
        number = VarType(ConstKind.NUMBER)
        schema = StateSchema("twice", (StateDef("S", "", {"x": number}), StateDef("S", "", {"y": number})))
        diagnostics = check_specification(parse_specification("S(y = 1) -> Done"), schema)
        assert codes(diagnostics) == [DiagnosticCode.UNKNOWN_VARIABLE]
        assert check_specification(parse_specification("S(x = 1) -> Done"), schema) == []

    def test_two_cycle_between_objectives(self, restaurant_schema):
        spec = parse_specification(
            "B -> A\nA -> B\nRestaurantInfo(name = \"R\") -> Done"
        )
        diagnostics = check_specification(spec, restaurant_schema)
        assert codes(diagnostics) == [DiagnosticCode.CYCLE]
        assert "A -> B -> A" in diagnostics[0].message or "B -> A -> B" in diagnostics[0].message

    def test_cycle_message_names_the_first_cycle_found(self, restaurant_schema):
        # depth-first from A, dependencies in sorted order: B's cycle before Y's
        spec = parse_specification(
            "B & Y -> A\nC -> B\nB -> C\nA -> Y\nRestaurantInfo(name = \"R\") -> Done"
        )
        [diagnostic] = check_specification(spec, restaurant_schema)
        assert diagnostic.message == "objective precedence is cyclic: B -> C -> B"

    def test_deep_objective_chain_checks_clean(self, restaurant_schema):
        depth = 1100
        lines = ['RestaurantInfo(name = "R") -> O0']
        lines += [f"O{i} -> O{i + 1}" for i in range(depth)]
        lines.append(f"O{depth} -> Done")
        assert check_specification(parse_specification("\n".join(lines)), restaurant_schema) == []

    def test_self_cycle(self, restaurant_schema):
        spec = parse_specification("A -> A\nRestaurantInfo(name = \"R\") -> Done")
        assert DiagnosticCode.CYCLE in codes(check_specification(spec, restaurant_schema))

    def test_undefined_objective(self, restaurant_schema):
        spec = parse_specification("Missing & RestaurantInfo(name = \"R\") -> Done")
        diagnostics = check_specification(spec, restaurant_schema)
        assert codes(diagnostics) == [DiagnosticCode.UNDEFINED_OBJECTIVE]
        assert "Missing" in diagnostics[0].message

    def test_no_done_rule(self, restaurant_schema):
        spec = parse_specification('RestaurantInfo(name = "R") -> Reserve')
        assert codes(check_specification(spec, restaurant_schema)) == [DiagnosticCode.NO_DONE_RULE]

    def test_done_as_predicate_is_reserved(self, restaurant_schema):
        spec = parse_specification('Done & RestaurantInfo(name = "R") -> Done')
        assert DiagnosticCode.RESERVED_OBJECTIVE in codes(check_specification(spec, restaurant_schema))

    def test_duplicate_predicate_in_rule(self, restaurant_schema):
        spec = parse_specification('RestaurantInfo(name = "R") & RestaurantInfo(name = "R") -> Done')
        assert DiagnosticCode.DUPLICATE_PREDICATE in codes(check_specification(spec, restaurant_schema))

    @staticmethod
    def duplicates(source):
        return [
            d
            for d in check_specification(parse_specification(source), ENUM_SCHEMA)
            if d.code is DiagnosticCode.DUPLICATE_PREDICATE
        ]

    def test_same_state_with_different_constraints_is_not_a_duplicate(self):
        assert self.duplicates("Payment(amount = 1) & Payment(amount = 2) -> Done") == []

    def test_objective_reference_beside_same_named_state_is_not_a_duplicate(self):
        assert self.duplicates("Payment & Payment(amount = 1) -> Done") == []

    def test_numbers_in_duplicates_compare_by_value(self):
        (found,) = self.duplicates("Payment(amount = 1) & Payment(amount = 1.0) -> Done")
        assert found.message == "predicate Payment(amount = 1.0) appears more than once in the rule"

    def test_every_further_copy_is_reported_at_its_rule(self):
        found = self.duplicates(
            "Payment(amount = 2) -> Done\n"
            "Payment(amount = 1) & Payment(amount = 1) & Payment(amount = 1) -> Done"
        )
        assert [(d.rule_index, d.line) for d in found] == [(1, 2), (1, 2)]

    def test_multiple_rules_for_one_objective_are_allowed(self, restaurant_schema):
        spec = parse_specification(
            'RestaurantInfo(name = "R") -> Reserve\n'
            'RestaurantInfo(name ~= "R") -> Reserve\n'
            "Reserve -> Done"
        )
        assert check_specification(spec, restaurant_schema) == []

    def test_unknown_enum_variant(self):
        spec = parse_specification("Payment(method = Paypal) -> Done")
        diagnostics = check_specification(spec, ENUM_SCHEMA)
        assert codes(diagnostics) == [DiagnosticCode.TYPE_MISMATCH]
        assert "Paypal" in diagnostics[0].message

    def test_enum_variant_accepted(self):
        spec = parse_specification("Payment(method = Card, amount <= 50) -> Done")
        assert check_specification(spec, ENUM_SCHEMA) == []

    def test_set_operator_needs_list_constant(self):
        spec = parse_specification('Payment(method in ["Card"]) -> Done')
        assert check_specification(spec, ENUM_SCHEMA) == []
        bad = parse_specification('Payment(method in ["Card", "Bitcoin"]) -> Done')
        assert codes(check_specification(bad, ENUM_SCHEMA)) == [DiagnosticCode.TYPE_MISMATCH]

    def test_set_operator_on_a_non_list_constant(self):
        [diagnostic] = check_specification(parse_specification("Payment(method in Card) -> Done"), ENUM_SCHEMA)
        assert diagnostic.code is DiagnosticCode.TYPE_MISMATCH
        assert diagnostic.message == 'operator \'in\' on variable \'method\' requires a list constant such as ["a", "b"]'

    def test_ordering_on_boolean(self):
        spec = parse_specification("Payment(confirmed > 1) -> Done")
        diagnostics = check_specification(spec, ENUM_SCHEMA)
        assert codes(diagnostics) == [DiagnosticCode.TYPE_MISMATCH]

    def test_approx_on_number_variable(self):
        spec = parse_specification('Payment(amount ~= "3") -> Done')
        assert codes(check_specification(spec, ENUM_SCHEMA)) == [DiagnosticCode.TYPE_MISMATCH]

    def test_check_is_deterministic_and_pure(self, restaurant_schema):
        spec = parse_specification('Nowhere(x = 1) & RestaurantInfo(name ≥ 100) -> Reserve')
        first = check_specification(spec, restaurant_schema)
        second = check_specification(spec, restaurant_schema)
        assert first == second

    def test_diagnostics_carry_rule_position(self, restaurant_schema):
        spec = parse_specification('\nRestaurantInfo(name = "R") -> Done\nNowhere(x = 1) -> Done\n')
        diagnostics = check_specification(spec, restaurant_schema)
        assert diagnostics[0].line == 3
        assert diagnostics[0].rule_index == 1

    def test_every_code_in_one_spec(self):
        # each finding's code, message, line and rule index, in reporting order
        spec = parse_specification(
            "Payment(amount = 1) & Payment(amount = 1) -> A\n"
            "# a comment line shifts the line numbers\n"
            "Nowhere(x = 1) & Payment(tip = 2, method in Card) & Done & Gone -> B\n"
            "Missing & B -> C\n"
            "C & A & Missing -> B\n"
        )
        found = [(d.code, d.message, d.line, d.rule_index) for d in check_specification(spec, ENUM_SCHEMA)]
        assert found == [
            (DiagnosticCode.DUPLICATE_PREDICATE, "predicate Payment(amount = 1) appears more than once in the rule", 1, 0),
            (DiagnosticCode.UNKNOWN_STATE, "state 'Nowhere' is not declared; declared states: Payment", 3, 1),
            (
                DiagnosticCode.UNKNOWN_VARIABLE,
                "state 'Payment' has no variable 'tip'; declared variables: amount, confirmed, method",
                3,
                1,
            ),
            (
                DiagnosticCode.TYPE_MISMATCH,
                'operator \'in\' on variable \'method\' requires a list constant such as ["a", "b"]',
                3,
                1,
            ),
            (
                DiagnosticCode.RESERVED_OBJECTIVE,
                "'Done' is reserved for rule conclusions and cannot be used as a predicate",
                3,
                1,
            ),
            (DiagnosticCode.UNDEFINED_OBJECTIVE, "objective 'Gone' is used as a predicate but no rule concludes it", 3, 1),
            (
                DiagnosticCode.UNDEFINED_OBJECTIVE,
                "objective 'Missing' is used as a predicate but no rule concludes it",
                4,
                2,
            ),
            (DiagnosticCode.NO_DONE_RULE, "no rule concludes the reserved objective 'Done'", None, None),
            (DiagnosticCode.CYCLE, "objective precedence is cyclic: B -> C -> B", None, None),
        ]
        assert {code for code, *_ in found} == set(DiagnosticCode)


def reference_objective_cycle(edges):
    """The cycle search as it was before it started only from objectives with
    a prerequisite: a depth-first search from every concluded objective."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name in edges}
    for root in sorted(edges):
        if color[root] != WHITE:
            continue
        color[root] = GREY
        path = [root]
        pending = [iter(sorted(edges[root]))]
        while pending:
            for dep in pending[-1]:
                state = color.get(dep, BLACK)
                if state == GREY:
                    return path[path.index(dep) :] + [dep]
                if state == WHITE:
                    color[dep] = GREY
                    path.append(dep)
                    pending.append(iter(sorted(edges[dep])))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


def precedence_graph(rng):
    """Concluded objectives in shuffled order, most with no prerequisite; the
    rest reference other objectives, themselves, or names no rule concludes,
    and some hold a planted 2- or 3-cycle."""
    names = rng.sample("ABCDEFGHIJKLMNOP", rng.randint(1, 12))
    edges = {name: set() for name in names}
    for name in names:
        if rng.random() < 0.25:
            edges[name].update(rng.sample(names + ["Unconcluded", "Zed"], rng.randint(1, 2)))
    for _ in range(rng.choice((0, 0, 1, 2))):
        loop = rng.sample(names, min(len(names), rng.choice((1, 2, 3))))
        for name, dep in zip(loop, loop[1:] + loop[:1]):
            edges[name].add(dep)
    return edges


def test_cycle_search_matches_the_search_from_every_objective():
    rng = random.Random(26)
    found = {True: 0, False: 0}
    for _ in range(4000):
        edges = precedence_graph(rng)
        expected = reference_objective_cycle(edges)
        assert _find_objective_cycle(edges) == expected, edges
        found[expected is not None] += 1
    # both outcomes are common, so neither branch is checked vacuously
    assert min(found.values()) > 1000, found
