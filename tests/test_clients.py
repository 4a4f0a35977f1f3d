from __future__ import annotations

import json
import math
import sys
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from aspectsum.clients import (
    REQUEST_ATTEMPTS,
    RETRY_BASE_DELAY_S,
    RETRY_MAX_DELAY_S,
    OpenAiCompatClient,
)
from aspectsum.errors import TransportError
from aspectsum.probe import ProbeConfig, ResponseCache, probe_rationales
from aspectsum.rationale import Document
from conftest import cache_rows, probe_with_cache


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text or json.dumps(payload)
        self.headers = headers or {}

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


def client_with(responses, monkeypatch, sleep=None):
    monkeypatch.setenv("ASPECTSUM_API_KEY", "test-key")
    session = FakeSession(responses)
    client = OpenAiCompatClient(
        "https://example.test/v1", "model-x", "embed-y", session=session,
        sleep=sleep if sleep is not None else no_sleep,
    )
    return client, session


def no_sleep(seconds):
    raise AssertionError(f"slept {seconds} s before a retry the test did not expect")


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
            FakeResponse(status_code=400, payload={"error": "x"}),
            FakeResponse(payload={"unexpected": True}),
            FakeResponse(payload=None, text="not json"),
        ],
        monkeypatch,
    )
    with pytest.raises(TransportError, match="HTTP 400"):
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


def chat(contents, prompt_tokens=0, completion_tokens=0, order=None):
    """A /chat/completions response: one choice per content, listed in `order` of their indices."""
    choices = [{"index": i, "message": {"content": c}} for i, c in enumerate(contents)]
    usage = {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens}
    return FakeResponse(payload={"choices": [choices[i] for i in order or range(len(choices))],
                                 "usage": usage})


def good(i) -> str:
    return f"Aspects: aspect {i}\nTriples: [x{i} | y | z]\nSummary: summary {i}"


def documents(n):
    return [Document(f"doc-{i}", f"text of document {i}", f"summary {i}") for i in range(n)]


def test_one_request_carries_a_documents_samples(monkeypatch):
    answers = [chat([good(i) for i in range(4)], order=[3, 1, 0, 2]) for _ in range(3)]
    client, session = client_with(answers, monkeypatch)
    for doc in documents(3):
        cs = probe_rationales(client, doc, ProbeConfig(n_samples=4))
        # The provider listed the choices out of order; their index puts each in its slot.
        assert [c.summary for c in cs.candidates] == [f"summary {i}" for i in range(4)]
    assert [r["json"]["n"] for r in session.requests] == [4, 4, 4]
    assert {r["url"] for r in session.requests} == {"https://example.test/v1/chat/completions"}
    assert (client.requests, client.retries) == (3, 0)


def test_a_provider_that_returns_fewer_choices_is_asked_for_the_rest(monkeypatch):
    client, session = client_with(
        [chat([good(0), good(1)]), chat([good(2), good(3)])], monkeypatch
    )
    (doc,) = documents(1)
    cs = probe_rationales(client, doc, ProbeConfig(n_samples=4, max_retries=0))
    assert [c.summary for c in cs.candidates] == [f"summary {i}" for i in range(4)]
    assert [r["json"]["n"] for r in session.requests] == [4, 2]


def test_a_response_with_no_choices_is_a_transport_error(monkeypatch):
    client, _ = client_with([FakeResponse(payload={"choices": []})], monkeypatch)
    with pytest.raises(TransportError, match="no choices"):
        client.complete_many("prompt", 2)


def test_a_null_choice_is_a_discard_and_its_slot_alone_is_asked_again(monkeypatch):
    client, session = client_with(
        [chat([good(0), None, good(2)]), chat([good(1)])], monkeypatch
    )
    (doc,) = documents(1)
    discards = []
    cs = probe_rationales(client, doc, ProbeConfig(n_samples=3), discards=discards)
    assert [c.summary for c in cs.candidates] == [f"summary {i}" for i in range(3)]
    assert [(d.sample_index, d.attempt, d.response) for d in discards] == [(1, 0, "")]
    assert [r["json"]["n"] for r in session.requests] == [3, 1]


def test_a_429_counts_one_retry(monkeypatch):
    sleeps = []
    client, session = client_with(
        [FakeResponse(429, {"error": "slow down"}), chat([good(0), good(1)], 40, 30)],
        monkeypatch,
        sleep=sleeps.append,
    )
    assert client.complete_many("prompt", 2) == [good(0), good(1)]
    assert (client.requests, client.retries, len(sleeps)) == (2, 1, 1)
    assert (client.prompt_tokens, client.completion_tokens) == (40, 30)


def test_token_counts_are_the_sums_of_the_usage_sent(monkeypatch):
    # 15 samples over 4 documents with no discard: one request per document,
    # each prompt counted once (one sample a request would send 60).
    usage = [(120, 900), (95, 870), (130, 910), (101, 880)]
    answers = [chat([good(i) for i in range(15)], p, c) for p, c in usage]
    client, session = client_with(answers, monkeypatch)
    for doc in documents(4):
        probe_rationales(client, doc, ProbeConfig(n_samples=15))
    assert client.requests == len(session.requests) == 4
    assert client.prompt_tokens == sum(p for p, _ in usage)
    assert client.completion_tokens == sum(c for _, c in usage)


def test_counts_lose_no_update_under_concurrent_requests(monkeypatch):
    class ConcurrentSession:
        def __init__(self):
            self.lock = threading.Lock()
            self.sent = 0
            self.refused: set[str] = set()

        def post(self, url, json=None, headers=None, timeout=None):
            prompt = json["messages"][0]["content"]
            with self.lock:
                self.sent += 1
                refuse = int(prompt[1:]) % 2 == 0 and prompt not in self.refused
                self.refused.add(prompt)
            if refuse:  # the first request for every other prompt is answered 429
                return FakeResponse(429, {"error": "slow down"}, headers={"Retry-After": "0"})
            return chat(["ok"] * json["n"], prompt_tokens=7, completion_tokens=json["n"])

    monkeypatch.setenv("ASPECTSUM_API_KEY", "k")
    session = ConcurrentSession()
    client = OpenAiCompatClient("https://x.test", "m", "e", session=session, sleep=lambda s: None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(client.complete_many, f"p{i}", 3) for i in range(1000)]
            assert all(f.result(timeout=30) == ["ok"] * 3 for f in futures)
    finally:
        sys.setswitchinterval(interval)
    assert (client.requests, client.retries) == (session.sent, 500) == (1500, 500)
    assert (client.prompt_tokens, client.completion_tokens) == (7 * 1000, 3 * 1000)


def test_more_samples_ask_only_for_the_new_slots_and_rewrite_the_row(monkeypatch, tmp_path):
    client, session = client_with(
        [chat([good(0), good(1)]), chat([good(2), good(3)])], monkeypatch
    )
    (doc,) = documents(1)
    for n_samples in (2, 4):
        with ResponseCache(tmp_path) as cache:
            cs = probe_with_cache(client, doc, ProbeConfig(n_samples=n_samples), cache)
        assert [c.summary for c in cs.candidates] == [f"summary {i}" for i in range(n_samples)]
    assert [r["json"]["n"] for r in session.requests] == [2, 2]
    (value,) = cache_rows(tmp_path, "responses").values()
    assert json.loads(zlib.decompress(value)) == [good(i) for i in range(4)]


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
    sleeps = []
    client = OpenAiCompatClient(
        "https://down.test", "m", "e", session=RaisingSession(), sleep=sleeps.append
    )
    with pytest.raises(TransportError, match="failed"):
        client.complete("x")
    assert len(sleeps) == REQUEST_ATTEMPTS - 1  # a refused connection is retried


def completion(content="ok"):
    return FakeResponse(payload={"choices": [{"message": {"content": content}}]})


def test_429_waits_its_retry_after_then_succeeds(monkeypatch):
    sleeps = []
    client, session = client_with(
        [FakeResponse(429, {"error": "slow down"}, headers={"Retry-After": "2"}), completion()],
        monkeypatch,
        sleep=sleeps.append,
    )
    assert client.complete("x") == "ok"
    assert len(session.requests) == 2
    assert session.requests[0] == session.requests[1]
    assert sleeps == [2]


def test_retry_after_is_capped_and_a_date_falls_back_to_backoff(monkeypatch):
    sleeps = []
    date = "Wed, 21 Oct 2015 07:28:00 GMT"
    client, session = client_with(
        [
            FakeResponse(429, {}, headers={"Retry-After": "3600"}),
            FakeResponse(503, {}, headers={"Retry-After": date}),
            # A latin-1 header decodes byte 0xB2 to this non-ASCII digit.
            FakeResponse(429, {}, headers={"Retry-After": "\u00b2"}),
            completion(),
        ],
        monkeypatch,
        sleep=sleeps.append,
    )
    assert client.complete("x") == "ok"
    assert sleeps == [RETRY_MAX_DELAY_S, 2 * RETRY_BASE_DELAY_S, 4 * RETRY_BASE_DELAY_S]


def test_a_persistent_503_stops_at_the_attempt_bound(monkeypatch):
    sleeps = []
    client, session = client_with(
        [FakeResponse(503, {"error": "down"})] * (REQUEST_ATTEMPTS + 1),
        monkeypatch,
        sleep=sleeps.append,
    )
    with pytest.raises(TransportError, match="HTTP 503"):
        list(client.embed_many(["a"]))
    assert len(session.requests) == REQUEST_ATTEMPTS
    assert sleeps == [
        min(RETRY_BASE_DELAY_S * 2**n, RETRY_MAX_DELAY_S) for n in range(REQUEST_ATTEMPTS - 1)
    ]


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_a_client_error_is_sent_once(monkeypatch, status):
    client, session = client_with([FakeResponse(status, {"error": "bad"}), completion()],
                                  monkeypatch)
    with pytest.raises(TransportError, match=f"HTTP {status}"):
        client.complete("x")
    assert len(session.requests) == 1


def test_a_timeout_is_retried(monkeypatch):
    import requests

    class TimingOutOnce(FakeSession):
        def post(self, url, json=None, headers=None, timeout=None):
            if not self.requests:
                self.requests.append({"url": url})
                raise requests.Timeout("read timed out")
            return super().post(url, json=json, headers=headers, timeout=timeout)

    monkeypatch.setenv("ASPECTSUM_API_KEY", "k")
    sleeps = []
    session = TimingOutOnce([completion()])
    client = OpenAiCompatClient("https://x.test", "m", "e", session=session, sleep=sleeps.append)
    assert client.complete("x") == "ok"
    assert len(session.requests) == 2 and sleeps == [RETRY_BASE_DELAY_S]


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
