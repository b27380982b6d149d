from __future__ import annotations

from datetime import datetime, timezone

import pytest

from intentguard.dsl import parse_specification
from intentguard.memory import PredicateMemory, used_predicates

FIXED_NOW = datetime(2025, 3, 14, 12, 0, tzinfo=timezone.utc)

INSTRUCTION = "Reserve restaurant R before 7 PM. If the restaurant is not available at that time, do nothing."

OTHER_SPEC = parse_specification(
    'Playlist(title = "Focus") -> Queue\nQueue & Player(playing = true) -> Done'
)


class TestRecord:
    def test_reservation_predicates_extracted(self, reservation_spec):
        memory = PredicateMemory()
        assert memory.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW) is True
        entry = memory.entries["app"][0]
        pairs = {(state, var) for state, var, _ in entry.used_predicates}
        assert pairs == {
            ("RestaurantInfo", "name"),
            ("ReserveInfo", "date"),
            ("ReserveInfo", "time"),
            ("ReserveInfo", "available"),
            ("ReserveResult", "success"),
        }
        # `available` appears under both = and !=
        operators = {op for state, var, op in entry.used_predicates if var == "available"}
        assert operators == {"=", "!="}

    def test_duplicate_content_is_kept_once(self, reservation_spec):
        memory = PredicateMemory()
        assert memory.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW) is True
        assert memory.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW) is False
        assert len(memory.entries["app"]) == 1

    def test_apps_are_isolated(self, reservation_spec):
        memory = PredicateMemory()
        memory.record_success("app_a", INSTRUCTION, reservation_spec, now=FIXED_NOW)
        memory.record_success("app_b", "queue focus playlist", OTHER_SPEC, now=FIXED_NOW)
        assert memory.retrieve_candidates("app_b", "anything")
        b_states = {c.state for c in memory.retrieve_candidates("app_b", "anything")}
        assert "RestaurantInfo" not in b_states


class TestRetrieve:
    def test_empty_memory_returns_nothing(self):
        assert PredicateMemory().retrieve_candidates("app", "whatever") == []

    def test_similar_instruction_ranks_matching_predicates_first(self, reservation_spec):
        memory = PredicateMemory()
        memory.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW)
        memory.record_success("app", "queue the focus playlist and start playback", OTHER_SPEC, now=FIXED_NOW)
        ranked = memory.retrieve_candidates("app", "Reserve restaurant R tonight before 7 pm")
        # the reservation spec contributes six triples; all outrank the playlist ones
        top_states = {c.state for c in ranked[:6]}
        assert top_states == {"RestaurantInfo", "ReserveInfo", "ReserveResult"}
        assert {c.state for c in ranked[6:]} == {"Playlist", "Player"}

    def test_scores_combine_frequency_and_overlap(self, reservation_spec):
        memory = PredicateMemory()
        memory.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW)
        ranked = memory.retrieve_candidates("app", INSTRUCTION)
        # single entry, full overlap: every candidate scores 1 + 1
        assert all(c.score == pytest.approx(2.0) for c in ranked)

    def test_ranking_invariant_under_insertion_order(self, reservation_spec):
        forward = PredicateMemory()
        forward.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW)
        forward.record_success("app", "play focus music", OTHER_SPEC, now=FIXED_NOW)
        backward = PredicateMemory()
        backward.record_success("app", "play focus music", OTHER_SPEC, now=FIXED_NOW)
        backward.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW)
        query = "reserve a table at restaurant R"
        assert forward.retrieve_candidates("app", query) == backward.retrieve_candidates("app", query)

    def test_candidates_never_invented(self, reservation_spec):
        memory = PredicateMemory()
        memory.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW)
        stored = set(used_predicates(reservation_spec))
        for candidate in memory.retrieve_candidates("app", "a totally unrelated query"):
            assert (candidate.state, candidate.variable, candidate.operator) in stored


class TestPersistence:
    def test_save_load_identity(self, reservation_spec, tmp_path):
        memory = PredicateMemory()
        memory.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW)
        memory.record_success("other", "play focus music", OTHER_SPEC, now=FIXED_NOW)
        path = tmp_path / "memory.json"
        memory.save(path)
        loaded = PredicateMemory.load(path)
        assert loaded.entries == memory.entries

    def test_load_or_empty_on_missing_file(self, tmp_path):
        memory = PredicateMemory.load_or_empty(tmp_path / "absent.json")
        assert memory.entries == {}

    def test_stored_specs_reparse(self, reservation_spec, tmp_path):
        memory = PredicateMemory()
        memory.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW)
        path = tmp_path / "memory.json"
        memory.save(path)
        assert PredicateMemory.load(path).specs_for("app") == [reservation_spec]


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"entries": {"app": [{"instruction": "x", "used_predicates": [], "timestamp": "t"}]}}, "'spec'"),
            ({"entries": {"app": [7]}}, "malformed"),
            ({"entries": []}, "malformed"),
            ([], "malformed"),
        ],
    )
    def test_from_dict_raises_value_error(self, data, fragment):
        with pytest.raises(ValueError, match=fragment):
            PredicateMemory.from_dict(data)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "memory.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            PredicateMemory.load(path)
