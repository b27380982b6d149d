from __future__ import annotations

import json
import re
import unicodedata
from datetime import datetime, timezone

import pytest

import intentguard.memory as memory_mod
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

    def test_stored_instructions_are_not_tokenized_again(self, reservation_spec, monkeypatch):
        memory = PredicateMemory()
        memory.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW)
        memory.record_success("app", "play focus music", OTHER_SPEC, now=FIXED_NOW)
        seen = []
        tokens = memory_mod._tokens
        monkeypatch.setattr(memory_mod, "_tokens", lambda text: seen.append(text) or tokens(text))
        memory.retrieve_candidates("app", "reserve a table")
        memory.retrieve_candidates("app", "play some music")
        assert seen == ["reserve a table", "play some music"]

    def test_ranking_follows_the_documented_score(self, reservation_spec):
        entries = [
            (INSTRUCTION, reservation_spec),
            ("play focus music", OTHER_SPEC),
            ("queue the focus playlist, then reserve", parse_specification('Playlist(title = "Focus") -> Done')),
        ]
        memory = PredicateMemory()
        for instruction, spec in entries:
            memory.record_success("app", instruction, spec, now=FIXED_NOW)
        query = "Queue focus music, then reserve restaurant R"

        def words(text):
            return set(re.findall(r"[a-z0-9']+", text.lower()))

        expected = {}
        for instruction, spec in entries:
            a, b = words(query), words(instruction)
            for triple in used_predicates(spec):
                expected[triple] = expected.get(triple, 0.0) + 1.0 + len(a & b) / len(a | b)
        ranked = memory.retrieve_candidates("app", query)
        assert [(c.state, c.variable, c.operator) for c in ranked] == sorted(expected, key=lambda t: (-expected[t], t))
        assert [c.score for c in ranked] == [pytest.approx(expected[(c.state, c.variable, c.operator)]) for c in ranked]

    @pytest.mark.parametrize(
        "stored, query, overlap",
        [
            ("레스토랑 R 예약", "레스토랑 예약", 2 / 3),
            # upper case, decomposed accents and ß read as the stored words
            ("Réserve le café, Straße 5", unicodedata.normalize("NFD", "RÉSERVE LE CAFÉ, STRASSE 5"), 1.0),
            # "_" separates words, as it did when words were ASCII only
            ("restaurant_R booking", "restaurant R", 2 / 3),
            # a query of no words overlaps nothing: each triple scores its entry count alone
            ("restaurant R booking", "!!!", 0.0),
        ],
        ids=["korean", "accented", "underscore", "no-words"],
    )
    def test_words_of_any_script_overlap(self, reservation_spec, stored, query, overlap):
        memory = PredicateMemory()
        memory.record_success("app", stored, reservation_spec, now=FIXED_NOW)
        memory.record_success("app", "재생목록 재생, écoute", OTHER_SPEC, now=FIXED_NOW)
        scores = {c.state: c.score for c in memory.retrieve_candidates("app", query)}
        assert scores == {
            "RestaurantInfo": pytest.approx(1 + overlap),
            "ReserveInfo": pytest.approx(1 + overlap),
            "ReserveResult": pytest.approx(1 + overlap),
            "Playlist": 1.0,
            "Player": 1.0,
        }

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

    def test_save_writes_only_the_stored_fields(self, tmp_path):
        memory = PredicateMemory()
        memory.record_success("app", "Play focus music", OTHER_SPEC, now=FIXED_NOW)
        entry = memory.entries["app"][0]
        assert "words" not in repr(entry)
        path = tmp_path / "memory.json"
        memory.save(path)
        stored = {
            "instruction": "Play focus music",
            "spec": 'Playlist(title = "Focus") -> Queue\nQueue & Player(playing = true) -> Done\n',
            "timestamp": "2025-03-14T12:00:00+00:00",
            "used_predicates": [["Playlist", "title", "="], ["Player", "playing", "="]],
        }
        expected = json.dumps({"entries": {"app": [stored]}}, indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == expected
        assert sorted(PredicateMemory.load(path).entries["app"][0].words) == ["focus", "music", "play"]

    def test_load_or_empty_on_missing_file(self, tmp_path):
        memory = PredicateMemory.load_or_empty(tmp_path / "absent.json")
        assert memory.entries == {}

    def test_stored_specs_reparse(self, reservation_spec, tmp_path):
        memory = PredicateMemory()
        memory.record_success("app", INSTRUCTION, reservation_spec, now=FIXED_NOW)
        path = tmp_path / "memory.json"
        memory.save(path)
        stored = PredicateMemory.load(path).entries["app"]
        assert [parse_specification(entry.spec_text) for entry in stored] == [reservation_spec]


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("instruction", 5),
            ("spec", None),
            ("timestamp", ["t"]),
            ("used_predicates", "A.b.="),
            ("used_predicates", [["A"]]),
            ("used_predicates", [[1, {}, 2]]),
            ("used_predicates", [["A", "b", "=", "x"]]),
        ],
    )
    def test_wrong_field_type_raises_value_error(self, field, value):
        entry = {"instruction": "x", "spec": "S(a = 1) -> Done", "used_predicates": [["S", "a", "="]], "timestamp": "t"}
        with pytest.raises(ValueError, match=f"memory entry field '{field}' must be"):
            PredicateMemory.from_dict({"entries": {"app": [{**entry, field: value}]}})

    def test_well_typed_entry_loads(self):
        entry = {"instruction": "x", "spec": "S(a = 1) -> Done", "used_predicates": [["S", "a", "="]], "timestamp": "t"}
        memory = PredicateMemory.from_dict({"entries": {"app": [entry]}})
        assert [c.state for c in memory.retrieve_candidates("app", "x")] == ["S"]

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "memory.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            PredicateMemory.load(path)
