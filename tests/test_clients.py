from __future__ import annotations

import json
import math

import pytest

from aspectsum.clients import OpenAiCompatClient
from aspectsum.errors import TransportError
from aspectsum.probe import ProbeConfig, probe_rationales


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


def test_cache_namespace_names_the_chat_model():
    a, b = (
        OpenAiCompatClient("https://example.test/v1", model, "embed-y", session=FakeSession([]))
        for model in ("model-x", "model-z")
    )
    assert a.cache_namespace != b.cache_namespace


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


def test_null_content_is_a_discarded_sample(monkeypatch, sample_document):
    # OpenAI-style APIs send content null on a refusal; probe retries that slot.
    good = "Aspects: a\nTriples: [x | y | z]\nSummary: fine"
    client, session = client_with(
        [
            FakeResponse(payload={"choices": [{"message": {"content": None}}]}),
            FakeResponse(payload={"choices": [{"message": {"content": good}}]}),
        ],
        monkeypatch,
    )
    discards = []
    cs = probe_rationales(
        client, sample_document, ProbeConfig(n_samples=1, max_retries=1), discards=discards
    )
    assert len(cs.candidates) == 1
    assert [(d.sample_index, d.attempt, d.response) for d in discards] == [(0, 0, "")]
    assert len(session.requests) == 2


def test_embed_dimension_contract(monkeypatch):
    client, session = client_with(
        [
            FakeResponse(payload={"data": [{"index": 0, "embedding": [1.0, 2.0, 3.0]}]}),
            FakeResponse(payload={"data": [{"index": 0, "embedding": [4.0, 5.0, 6.0]}]}),
            FakeResponse(payload={"data": [{"index": 0, "embedding": [1.0]}]}),
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


def embeddings(vectors: dict[int, list[float]]) -> FakeResponse:
    """An /embeddings response whose items come in the dict's order."""
    items = [{"index": i, "embedding": vector} for i, vector in vectors.items()]
    return FakeResponse(payload={"data": items})


def test_embed_many_sends_one_request_per_batch_and_orders_by_index(monkeypatch):
    from aspectsum.clients import EMBED_BATCH_INPUTS as cap

    texts = [f"text {i}" for i in range(2 * cap + 3)]
    batches = [texts[:cap], texts[cap : 2 * cap], texts[2 * cap :]]
    responses = []
    for start, batch in zip((0, cap, 2 * cap), batches):
        # The provider lists the items backwards; their index says where each goes.
        responses.append(embeddings({i: [start + i, 1.0] for i in reversed(range(len(batch)))}))
    client, session = client_with(responses, monkeypatch)
    vectors = list(client.embed_many(texts))
    assert [v[0] for v in vectors] == list(range(len(texts)))
    assert len(session.requests) == math.ceil(len(texts) / cap) == 3
    assert [r["json"]["input"] for r in session.requests] == batches
    assert {r["url"] for r in session.requests} == {"https://example.test/v1/embeddings"}


def test_embed_is_one_request_with_a_one_text_list(monkeypatch):
    client, session = client_with([embeddings({0: [0.5, 2.0]})], monkeypatch)
    assert list(client.embed("only text")) == [0.5, 2.0]
    assert [r["json"]["input"] for r in session.requests] == [["only text"]]


@pytest.mark.parametrize(
    "payload, match",
    [
        ({"data": [{"index": 0, "embedding": [1.0]}]}, "2 inputs with 1 embeddings"),
        ({"data": [{"index": 0, "embedding": [1.0]}, {"embedding": [2.0]}]}, "malformed"),
        (
            {"data": [{"index": 0, "embedding": [1.0]}, {"index": 0, "embedding": [2.0]}]},
            "indices",
        ),
        ({"data": [{"index": 0, "embedding": [1.0]}, {"index": 1, "embedding": [2.0, 3.0]}]},
         "dimension"),
    ],
    ids=["count", "missing-index", "repeated-index", "dimension"],
)
def test_embed_many_rejects_a_response_that_does_not_match_its_inputs(monkeypatch, payload, match):
    client, _ = client_with([FakeResponse(payload=payload)], monkeypatch)
    with pytest.raises(TransportError, match=match):
        list(client.embed_many(["one", "two"]))


def test_transport_exception_wrapped(monkeypatch):
    import requests

    class RaisingSession:
        def post(self, *args, **kwargs):
            raise requests.ConnectionError("refused")

    monkeypatch.setenv("ASPECTSUM_API_KEY", "k")
    client = OpenAiCompatClient("https://down.test", "m", "e", session=RaisingSession())
    with pytest.raises(TransportError, match="failed"):
        client.complete("x")


def test_map_ordered_keeps_order_with_a_bounded_window():
    from aspectsum.clients import map_ordered

    taken = []

    def items():
        for i in range(40):
            taken.append(i)
            yield i

    for jobs in (1, 3):
        taken.clear()
        for i, result in enumerate(map_ordered(lambda x: x * x, items(), jobs)):
            assert result == i * i
            # Items are taken only as calls can start: at most 2 x jobs ahead.
            assert len(taken) <= i + 1 + 2 * jobs


def test_map_ordered_raises_in_order_and_starts_no_more_calls():
    import threading

    from aspectsum.clients import map_ordered

    started = []
    lock = threading.Lock()

    def call(x):
        with lock:
            started.append(x)
        if x == 5:
            raise TransportError("provider down")
        return x

    results = map_ordered(call, range(1000), 2)
    assert [next(results) for _ in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(TransportError):
        next(results)
    assert len(started) <= 5 + 1 + 2 * 2
