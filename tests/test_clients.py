from __future__ import annotations

import json

import pytest

from aspectsum.clients import OpenAiCompatClient
from aspectsum.errors import TransportError


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or json.dumps(payload)

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        return self.responses.pop(0)


def client_with(responses, monkeypatch):
    monkeypatch.setenv("ASPECTSUM_API_KEY", "test-key")
    session = FakeSession(responses)
    client = OpenAiCompatClient(
        "https://example.test/v1", "model-x", "embed-y", session=session
    )
    return client, session


def test_complete_parses_payload(monkeypatch):
    payload = {"choices": [{"message": {"content": "hello"}}]}
    client, session = client_with([FakeResponse(payload=payload)], monkeypatch)
    assert client.complete("prompt text") == "hello"
    req = session.requests[0]
    assert req["url"] == "https://example.test/v1/chat/completions"
    assert req["json"]["model"] == "model-x"
    assert req["json"]["messages"][0]["content"] == "prompt text"
    assert req["headers"]["Authorization"] == "Bearer test-key"


def test_missing_credential(monkeypatch):
    monkeypatch.delenv("ASPECTSUM_API_KEY", raising=False)
    client = OpenAiCompatClient(
        "https://example.test/v1", "m", "e", session=FakeSession([])
    )
    with pytest.raises(TransportError, match="ASPECTSUM_API_KEY"):
        client.complete("x")


def test_http_error_and_bad_payload(monkeypatch):
    client, _ = client_with(
        [
            FakeResponse(status_code=500, payload={"error": "x"}),
            FakeResponse(payload={"unexpected": True}),
            FakeResponse(payload=None, text="not json"),
        ],
        monkeypatch,
    )
    with pytest.raises(TransportError, match="HTTP 500"):
        client.complete("x")
    with pytest.raises(TransportError, match="malformed completion"):
        client.complete("x")
    with pytest.raises(TransportError, match="non-JSON"):
        client.complete("x")


def test_embed_dimension_contract(monkeypatch):
    client, session = client_with(
        [
            FakeResponse(payload={"data": [{"embedding": [1.0, 2.0, 3.0]}]}),
            FakeResponse(payload={"data": [{"embedding": [4.0, 5.0, 6.0]}]}),
            FakeResponse(payload={"data": [{"embedding": [1.0]}]}),
        ],
        monkeypatch,
    )
    vec = client.embed("text one")
    assert list(vec) == [1.0, 2.0, 3.0]
    client.embed("text two")
    with pytest.raises(TransportError, match="dimension"):
        client.embed("text three")
    assert session.requests[0]["url"] == "https://example.test/v1/embeddings"
    assert session.requests[0]["json"]["model"] == "embed-y"


def test_transport_exception_wrapped(monkeypatch):
    import requests

    class RaisingSession:
        def post(self, *args, **kwargs):
            raise requests.ConnectionError("refused")

    monkeypatch.setenv("ASPECTSUM_API_KEY", "k")
    client = OpenAiCompatClient("https://down.test", "m", "e", session=RaisingSession())
    with pytest.raises(TransportError, match="failed"):
        client.complete("x")
