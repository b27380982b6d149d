from __future__ import annotations

import copy
import json
import pickle

import pytest

from intentguard.schema import (
    ConstKind,
    SchemaError,
    StateDef,
    VarType,
    describe_states,
    load_schema,
    save_schema,
    schema_from_dict,
)


def issue_codes(exc_info):
    return [issue.code for issue in exc_info.value.issues]


class TestLoad:
    def test_single_text_variable_listing(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(
            json.dumps(
                {
                    "app_id": "demo",
                    "states": [
                        {
                            "name": "RestaurantInfo",
                            "description": "Information about the restaurant you want to reserve.",
                            "variables": [{"name": "String"}],
                        }
                    ],
                }
            )
        )
        schema = load_schema(path)
        assert len(schema.states) == 1
        assert schema.states[0].variables == {"name": schema.states[0].variables["name"]}
        assert schema.states[0].variables["name"].kind is ConstKind.TEXT

    def test_variables_refuse_item_assignment(self, restaurant_schema):
        variables = restaurant_schema.state("ReserveInfo").variables
        with pytest.raises(TypeError):
            variables["time"] = VarType(ConstKind.TEXT)
        assert variables["time"].kind is ConstKind.TIME

    def test_a_state_keeps_a_copy_of_the_variables_it_was_given(self):
        given = {"name": VarType(ConstKind.TEXT)}
        state = StateDef("S", "", given)
        given["name"] = VarType(ConstKind.NUMBER)
        given["extra"] = VarType(ConstKind.TEXT)
        assert dict(state.variables) == {"name": VarType(ConstKind.TEXT)}

    def test_a_schema_still_pickles_and_deep_copies(self, restaurant_schema):
        for copied in (pickle.loads(pickle.dumps(restaurant_schema)), copy.deepcopy(restaurant_schema)):
            assert copied == restaurant_schema
            with pytest.raises(TypeError):
                copied.state("ReserveInfo").variables["time"] = VarType(ConstKind.TEXT)

    def test_running_example_has_three_states_five_variables(self, restaurant_schema):
        assert len(restaurant_schema.states) == 3
        assert sum(len(s.variables) for s in restaurant_schema.states) == 5
        reserve_info = restaurant_schema.state("ReserveInfo")
        assert reserve_info.variables["date"].kind is ConstKind.DATE
        assert reserve_info.variables["time"].kind is ConstKind.TIME
        assert reserve_info.variables["available"].kind is ConstKind.BOOLEAN

    def test_duplicate_state_names(self):
        with pytest.raises(SchemaError) as exc_info:
            schema_from_dict(
                {
                    "app_id": "demo",
                    "states": [
                        {"name": "S", "description": "", "variables": [{"x": "Text"}]},
                        {"name": "S", "description": "", "variables": [{"y": "Text"}]},
                    ],
                }
            )
        assert "DUPLICATE_STATE" in issue_codes(exc_info)

    def test_duplicate_variable_names(self):
        with pytest.raises(SchemaError) as exc_info:
            schema_from_dict(
                {
                    "app_id": "demo",
                    "states": [{"name": "S", "description": "", "variables": [{"x": "Text"}, {"x": "Number"}]}],
                }
            )
        assert "DUPLICATE_VARIABLE" in issue_codes(exc_info)

    def test_unknown_type_reports_field_path(self):
        with pytest.raises(SchemaError) as exc_info:
            schema_from_dict(
                {"app_id": "demo", "states": [{"name": "S", "description": "", "variables": [{"x": "Float"}]}]}
            )
        issue = exc_info.value.issues[0]
        assert issue.code == "UNKNOWN_TYPE"
        assert issue.path == "states[0].variables.x"

    @pytest.mark.parametrize(
        "variables, path, code",
        [
            (["x"], "states[0].variables[0]", "BAD_VARIABLE"),
            ([{"x": "Text", "y": "Text"}], "states[0].variables[0]", "BAD_VARIABLE"),
            ("x: Text", "states[0].variables", "BAD_VARIABLE"),
            ([{"x": 3}], "states[0].variables.x", "UNKNOWN_TYPE"),
        ],
        ids=["item-not-object", "two-key-item", "neither-list-nor-object", "type-not-text"],
    )
    def test_malformed_variables_report_field_path(self, variables, path, code):
        with pytest.raises(SchemaError) as exc_info:
            schema_from_dict({"app_id": "demo", "states": [{"name": "S", "description": "", "variables": variables}]})
        issue = exc_info.value.issues[0]
        assert (issue.path, issue.code) == (path, code)

    # a pattern ending in ``$`` also matches before one final ``\n``
    def test_state_name_with_a_trailing_newline_is_not_an_identifier(self):
        with pytest.raises(SchemaError) as exc_info:
            schema_from_dict({"app_id": "a", "states": [{"name": "S\n", "variables": [{"x": "Text"}]}]})
        [issue] = exc_info.value.issues
        assert (issue.path, issue.code) == ("states[0].name", "BAD_STATE")
        assert issue.message == "state name 'S\\n' is not an identifier"

    def test_variable_name_with_a_trailing_newline_is_not_an_identifier(self):
        with pytest.raises(SchemaError) as exc_info:
            schema_from_dict({"app_id": "a", "states": [{"name": "S", "variables": [{"x\n": "Text"}, {"y": "Text"}]}]})
        [issue] = exc_info.value.issues
        assert (issue.path, issue.code) == ("states[0].variables.x\n", "BAD_VARIABLE")
        assert issue.message == "variable name 'x\\n' is not an identifier"

    # ``in`` and ``not`` are operator words, so no spec could name them
    @pytest.mark.parametrize("word", ["in", "not"])
    def test_operator_word_as_a_state_name_is_not_an_identifier(self, word):
        with pytest.raises(SchemaError) as exc_info:
            schema_from_dict({"app_id": "a", "states": [{"name": word, "variables": [{"x": "Text"}]}]})
        [issue] = exc_info.value.issues
        assert (issue.path, issue.code) == ("states[0].name", "BAD_STATE")
        assert issue.message == f"state name '{word}' is not an identifier"

    @pytest.mark.parametrize("word", ["in", "not"])
    def test_operator_word_as_a_variable_name_is_not_an_identifier(self, word):
        with pytest.raises(SchemaError) as exc_info:
            schema_from_dict({"app_id": "a", "states": [{"name": "S", "variables": [{word: "Text"}, {"y": "Text"}]}]})
        [issue] = exc_info.value.issues
        assert (issue.path, issue.code) == (f"states[0].variables.{word}", "BAD_VARIABLE")
        assert issue.message == f"variable name '{word}' is not an identifier"

    @pytest.mark.parametrize("name", ["inx", "notes", "_in", "in_", "not_in", "IN", "Not"])
    def test_names_that_only_start_like_an_operator_word_load(self, name):
        schema = schema_from_dict({"app_id": "a", "states": [{"name": name, "variables": [{name: "Text"}]}]})
        assert list(schema.state(name).variables) == [name]

    def test_enum_type_with_variants(self):
        schema = schema_from_dict(
            {"app_id": "demo", "states": [{"name": "S", "description": "", "variables": [{"pay": "Enum[Card, Cash]"}]}]}
        )
        var = schema.states[0].variables["pay"]
        assert var.kind is ConstKind.ENUM
        assert var.variants == ("Card", "Cash")
        assert var.describe() == "Enum[Card, Cash]"

    def test_empty_enum_rejected(self):
        with pytest.raises(SchemaError) as exc_info:
            schema_from_dict(
                {"app_id": "demo", "states": [{"name": "S", "description": "", "variables": [{"pay": "Enum[]"}]}]}
            )
        assert "EMPTY_ENUM" in issue_codes(exc_info)

    def test_enum_variant_listed_twice_rejected(self):
        # variants are compared as written, after stripping: "a" and "A" differ
        variables = [{"pay": "Enum[Card, Cash,  Card ]"}, {"mode": "Enum[a, A]"}]
        with pytest.raises(SchemaError) as exc_info:
            schema_from_dict({"app_id": "demo", "states": [{"name": "S", "description": "", "variables": variables}]})
        [issue] = exc_info.value.issues
        assert (issue.path, issue.code) == ("states[0].variables.pay", "DUPLICATE_VARIANT")
        assert issue.message == "variant 'Card' listed twice"

    def test_flat_variable_map_accepted(self):
        schema = schema_from_dict(
            {"app_id": "demo", "states": [{"name": "S", "description": "", "variables": {"x": "Number", "y": "Time"}}]}
        )
        assert set(schema.states[0].variables) == {"x", "y"}

    def test_missing_app_id_and_states(self):
        with pytest.raises(SchemaError) as exc_info:
            schema_from_dict({"states": []})
        assert {"BAD_APP_ID", "NO_STATES"} <= set(issue_codes(exc_info))

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError) as exc_info:
            load_schema(path)
        assert issue_codes(exc_info) == ["BAD_JSON"]

    def test_save_load_identity(self, restaurant_schema, tmp_path):
        path = tmp_path / "roundtrip.json"
        save_schema(restaurant_schema, path)
        assert load_schema(path) == restaurant_schema


class TestDescribe:
    def test_mentions_every_state_and_variable(self, restaurant_schema):
        text = describe_states(restaurant_schema)
        for state in ("RestaurantInfo", "ReserveInfo", "ReserveResult"):
            assert state in text
        for variable in ("name", "date", "time", "available", "success"):
            assert variable in text

    def test_order_invariant_under_permutation(self, restaurant_schema):
        from intentguard.schema import StateSchema

        permuted = StateSchema(restaurant_schema.app_id, tuple(reversed(restaurant_schema.states)))
        assert describe_states(permuted) == describe_states(restaurant_schema)

    def test_empty_description_placeholder(self):
        # a description of only periods and blanks says nothing, in the prompt as in the roadmap
        for described in ({}, {"description": ""}, {"description": " \t"}, {"description": "..."},
                          {"description": " . . "}):
            schema = schema_from_dict(
                {"app_id": "demo", "states": [{"name": "S", **described, "variables": [{"x": "Text"}]}]}
            )
            assert describe_states(schema) == "- S: (no description)\n    x: Text\n", described

    def test_a_description_is_trimmed_and_keeps_its_period(self):
        schema = schema_from_dict(
            {"app_id": "demo", "states": [{"name": "S", "description": " The cart. ", "variables": [{"x": "Text"}]}]}
        )
        assert describe_states(schema) == "- S: The cart.\n    x: Text\n"
