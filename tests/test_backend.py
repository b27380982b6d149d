from __future__ import annotations

import json

import pytest
import requests

import intentguard.backend as backend_mod
from intentguard.backend import (
    BackendError,
    HttpBackend,
    MockBackend,
    ScriptExhausted,
    SimilarityScorer,
    cosine_similarity,
    lexical_similarity,
    make_backend,
)


class TestMockBackend:
    def test_per_role_script_order(self):
        mock = MockBackend(
            [
                {"role": "encoder", "response": "first"},
                {"role": "decoder", "response": "description"},
                {"role": "encoder", "response": "second"},
            ]
        )
        assert mock.complete("encoder", "", "") == "first"
        assert mock.complete("decoder", "", "") == "description"
        assert mock.complete("encoder", "", "") == "second"
        assert mock.complete_calls == 3

    def test_exhausted_script(self):
        mock = MockBackend([{"role": "encoder", "response": "only"}])
        mock.complete("encoder", "", "")
        with pytest.raises(ScriptExhausted):
            mock.complete("encoder", "", "")
        with pytest.raises(ScriptExhausted):
            mock.complete("checker", "", "")

    def test_fixture_forms(self, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps([{"role": "encoder", "response": "a"}]))
        assert MockBackend.from_fixture(flat).complete("encoder", "", "") == "a"

        rich = tmp_path / "rich.json"
        rich.write_text(
            json.dumps({"turns": [{"role": "encoder", "response": "b"}], "embeddings": {"x": [1.0, 0.0]}})
        )
        backend = MockBackend.from_fixture(rich)
        assert backend.complete("encoder", "", "") == "b"
        assert backend.embed("x") == [1.0, 0.0]

    @pytest.mark.parametrize(
        "turns",
        [[{"response": "x"}], [{"role": "encoder"}], [{"role": 1, "response": "x"}], ["encoder"]],
    )
    def test_malformed_turn_is_a_config_error(self, turns):
        with pytest.raises(BackendError) as info:
            MockBackend(turns)
        assert info.value.category == "config"

    @pytest.mark.parametrize("text", ["{not json", "3", '{"turns": {"role": "encoder"}}', '{"turns": 5}'])
    def test_malformed_fixture_file_is_a_config_error(self, tmp_path, text):
        path = tmp_path / "fixture.json"
        path.write_text(text)
        with pytest.raises(BackendError) as info:
            MockBackend.from_fixture(path)
        assert info.value.category == "config"

    def test_missing_embedding(self):
        mock = MockBackend([], embeddings={"known": [1.0]})
        with pytest.raises(BackendError):
            mock.embed("unknown")

    def test_make_backend_requires_fixture(self):
        with pytest.raises(BackendError):
            make_backend("mock")


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class TestHttpBackend:
    def make(self):
        return HttpBackend(endpoint="https://llm.example/v1", model="m", api_key_env="FAKE_KEY", timeout_s=5)

    def test_complete_parses_choice(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "k")
        captured = {}

        def fake_post(url, headers=None, json=None, timeout=None):
            captured.update(url=url, headers=headers, payload=json, timeout=timeout)
            return FakeResponse(payload={"choices": [{"message": {"content": "hello"}}]})

        monkeypatch.setattr(backend_mod.requests, "post", fake_post)
        backend = self.make()
        assert backend.complete("encoder", "sys", "user") == "hello"
        assert captured["url"].endswith("/chat/completions")
        assert captured["headers"]["Authorization"] == "Bearer k"
        assert captured["payload"]["messages"][0] == {"role": "system", "content": "sys"}

    def test_timeout_category(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "k")
        def raise_timeout(*args, **kwargs):
            raise requests.Timeout("too slow")
        monkeypatch.setattr(backend_mod.requests, "post", raise_timeout)
        with pytest.raises(BackendError) as exc_info:
            self.make().complete("encoder", "", "")
        assert exc_info.value.category == "timeout"

    def test_http_error_category(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "k")
        monkeypatch.setattr(
            backend_mod.requests, "post", lambda *a, **k: FakeResponse(status_code=500, text="boom")
        )
        with pytest.raises(BackendError) as exc_info:
            self.make().complete("encoder", "", "")
        assert exc_info.value.category == "http"

    def test_missing_api_key_is_config_error(self, monkeypatch):
        monkeypatch.delenv("FAKE_KEY", raising=False)
        with pytest.raises(BackendError) as exc_info:
            self.make().complete("encoder", "", "")
        assert exc_info.value.category == "config"

    def test_embed_parses_vector(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "k")
        monkeypatch.setattr(
            backend_mod.requests,
            "post",
            lambda *a, **k: FakeResponse(payload={"data": [{"embedding": [0.5, 0.5]}]}),
        )
        assert self.make().embed("x") == [0.5, 0.5]


class TestSimilarity:
    def test_identity_and_symmetry(self):
        assert lexical_similarity("Joes Pizza", "Joes Pizza") == 1.0
        assert lexical_similarity("alpha", "omega") == lexical_similarity("omega", "alpha")

    def test_apostrophe_variants_coincide(self):
        # frozen hand-oracle: punctuation-stripped forms are identical
        assert lexical_similarity("Joes Pizza", "Joe's Pizza") == 1.0
        assert lexical_similarity("Joes Pizza", "Joe's Pizza") >= 0.7

    def test_near_miss_scores_frozen_value(self):
        # frozen hand-oracle: trigrams 5 shared / 6 union
        assert lexical_similarity("Settings", "Setting") == pytest.approx(5 / 6)

    def test_unrelated_strings_score_zero(self):
        assert lexical_similarity("alpha", "omega") == 0.0

    def test_range(self):
        for a, b in (("a", "b"), ("short", "shorter"), ("Joe's", "Joes")):
            assert 0.0 <= lexical_similarity(a, b) <= 1.0

    def test_cosine(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
        assert cosine_similarity([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)
        assert cosine_similarity([0.0], [0.0]) == 0.0

    def test_scorer_caches_pairs(self):
        mock = MockBackend([], embeddings={"a": [1.0, 0.0], "b": [1.0, 0.0]})
        scorer = SimilarityScorer(mode="embedding", backend=mock)
        first = scorer("a", "b")
        second = scorer("b", "a")
        assert first == second == pytest.approx(1.0)
        assert mock.embed_calls == 2  # one embedding per distinct text, cached pair after

    def test_embedding_mode_needs_backend(self):
        with pytest.raises(BackendError):
            SimilarityScorer(mode="embedding")

    def test_lexical_scorer_never_touches_backend(self):
        mock = MockBackend([])
        scorer = SimilarityScorer(mode="lexical", backend=mock)
        assert scorer("Settings", "Setting") == pytest.approx(5 / 6)
        assert mock.complete_calls == 0 and mock.embed_calls == 0

