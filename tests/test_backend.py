from __future__ import annotations

import json

import pytest
import requests

import intentguard.backend as backend_mod
from intentguard import lexical_similarity
from intentguard.backend import BackendError, HttpBackend, MockBackend, ScriptExhausted

from helpers import FakeResponse


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

        # a list of turns is the only form: any object is refused, whatever its keys
        turns = [{"role": "encoder", "response": "b"}]
        for obj in ({"turns": turns, "embeddings": {"x": [1.0, 0.0]}}, {"turns": turns}, {"embeddings": {}}, {}):
            rich = tmp_path / "rich.json"
            rich.write_text(json.dumps(obj))
            with pytest.raises(BackendError) as info:
                MockBackend.from_fixture(rich)
            assert info.value.category == "config"
            # the caller names the file; the message gives only the reason
            assert str(info.value) == "a mock fixture needs a list of turns"

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


class TestHttpBackend:
    @pytest.fixture(autouse=True)
    def sleeps(self, monkeypatch):
        """Backoff waits, recorded instead of slept."""
        waits = []
        monkeypatch.setattr(backend_mod, "_sleep", waits.append)
        return waits

    def make(self):
        return HttpBackend(endpoint="https://llm.example/v1", model="m", api_key_env="FAKE_KEY", timeout_s=5)

    def scripted(self, monkeypatch, *replies):
        """Stub ``requests.post`` to answer with ``replies`` in turn (the last
        one repeats); returns the list of posted URLs."""
        monkeypatch.setenv("FAKE_KEY", "k")
        posts = []

        def fake_post(url, **kwargs):
            posts.append(url)
            reply = replies[min(len(posts), len(replies)) - 1]
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setattr(requests, "post", fake_post)
        return posts

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_success_after_one_retryable_reply(self, monkeypatch, sleeps, status):
        ok = FakeResponse(payload={"choices": [{"message": {"content": "hello"}}]})
        posts = self.scripted(monkeypatch, FakeResponse(status_code=status, text="busy"), ok)
        backend = self.make()
        assert backend.complete("encoder", "", "") == "hello"
        assert len(posts) == 2
        assert sleeps == [backend_mod.RETRY_DELAY_S]
        assert backend.complete_calls == 1

    def test_gives_up_after_the_retry_limit(self, monkeypatch, sleeps):
        posts = self.scripted(monkeypatch, FakeResponse(status_code=503, text="down"))
        backend = self.make()
        with pytest.raises(BackendError) as exc_info:
            backend.complete("encoder", "", "")
        assert exc_info.value.category == "http"
        assert str(exc_info.value) == "HTTP 503: down"
        assert len(posts) == backend_mod.HTTP_RETRIES + 1
        assert sleeps == [backend_mod.RETRY_DELAY_S * 2**k for k in range(backend_mod.HTTP_RETRIES)]
        assert backend.complete_calls == 1

    @pytest.mark.parametrize(
        "reply, category",
        [
            (FakeResponse(status_code=400, text="bad request"), "http"),
            (FakeResponse(status_code=404, text="no such model"), "http"),
            (FakeResponse(payload=None), "protocol"),
            (requests.Timeout("too slow"), "timeout"),
            (requests.ConnectionError("refused"), "network"),
            (FakeResponse(payload={"choices": [{"message": {"content": None}}]}), "protocol"),
            # nested past the recursion limit: malformed, not a RecursionError
            (FakeResponse(text="[" * 100_000 + "]" * 100_000), "protocol"),
        ],
    )
    def test_other_failures_are_not_retried(self, monkeypatch, sleeps, reply, category):
        posts = self.scripted(monkeypatch, reply, FakeResponse(payload={"choices": [{"message": {"content": "x"}}]}))
        with pytest.raises(BackendError) as exc_info:
            self.make().complete("encoder", "", "")
        assert exc_info.value.category == category
        assert len(posts) == 1
        assert sleeps == []

    def test_reply_body_is_decoded_as_utf8(self, monkeypatch, sleeps):
        # the bytes are read as UTF-8 whatever charset requests would guess
        # for .text; bytes that are not UTF-8 are a malformed reply
        reply = FakeResponse(payload={"choices": [{"message": {"content": "café ☕"}}]})
        reply.text = reply.content.decode("latin-1")
        self.scripted(monkeypatch, reply)
        assert self.make().complete("encoder", "", "") == "café ☕"
        reply.content = b'{"choices": "\xff"}'
        with pytest.raises(BackendError) as exc_info:
            self.make().complete("encoder", "", "")
        assert exc_info.value.category == "protocol"
        assert str(exc_info.value) == "response body is not JSON"

    def test_complete_parses_choice(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "k")
        captured = {}

        def fake_post(url, headers=None, json=None, timeout=None):
            captured.update(url=url, headers=headers, payload=json, timeout=timeout)
            return FakeResponse(payload={"choices": [{"message": {"content": "hello"}}]})

        monkeypatch.setattr(requests, "post", fake_post)
        backend = self.make()
        assert backend.complete("encoder", "sys", "user") == "hello"
        assert captured["url"].endswith("/chat/completions")
        assert captured["headers"]["Authorization"] == "Bearer k"
        assert captured["payload"]["messages"][0] == {"role": "system", "content": "sys"}

    def test_timeout_category(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "k")
        def raise_timeout(*args, **kwargs):
            raise requests.Timeout("too slow")
        monkeypatch.setattr(requests, "post", raise_timeout)
        with pytest.raises(BackendError) as exc_info:
            self.make().complete("encoder", "", "")
        assert exc_info.value.category == "timeout"

    def test_http_error_category(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "k")
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(status_code=500, text="boom"))
        with pytest.raises(BackendError) as exc_info:
            self.make().complete("encoder", "", "")
        assert exc_info.value.category == "http"

    def test_missing_api_key_is_config_error(self, monkeypatch):
        monkeypatch.delenv("FAKE_KEY", raising=False)
        with pytest.raises(BackendError) as exc_info:
            self.make().complete("encoder", "", "")
        assert exc_info.value.category == "config"


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
