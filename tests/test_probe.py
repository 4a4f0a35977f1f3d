from __future__ import annotations

import hashlib
import json
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np
import pytest

from aspectsum.clients import LlmClient
from aspectsum.errors import (
    EmptyField,
    InsufficientValidSamples,
    SchemaError,
    TransportError,
)
from aspectsum.mock import MockLlmClient
from aspectsum.probe import (
    EmbeddingCache,
    ProbeConfig,
    PromptTemplate,
    ResponseCache,
    probe_rationales,
    render_probe_prompt,
)
from aspectsum.rationale import Document, parse_rationale, serialize_rationale
from conftest import (
    cache_rows,
    probe_with_cache,
    user_version,
    write_cache_rows,
    write_legacy_cache,
)


class ScriptedClient(LlmClient):
    """Returns canned responses in order; counts calls."""

    cache_namespace = "scripted"

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if not self.responses:
            raise AssertionError("script exhausted")
        return self.responses.pop(0)

    def embed(self, text):
        raise NotImplementedError


GOOD = "Aspects: a; b\nTriples: [x | y | z]\nSummary: fine summary"
BAD = "no structure here"


def test_template_placeholder_contract():
    PromptTemplate("body {document} {ground_truth_summary}")
    with pytest.raises(ValueError):
        PromptTemplate("no placeholder")
    with pytest.raises(ValueError):
        PromptTemplate("{document} {document} {ground_truth_summary}")
    with pytest.raises(ValueError):
        PromptTemplate("{document} only")


def test_bundled_templates_load():
    template = PromptTemplate.load()
    assert template.body
    assert PromptTemplate.load() is template  # read once per process
    bundled = resources.files("aspectsum.templates").iterdir()
    assert [p.name for p in bundled if p.name.endswith(".txt")] == ["rationale_probe.txt"]


def test_render_probe_prompt(sample_document):
    prompt = render_probe_prompt(sample_document)
    assert sample_document.text in prompt
    assert sample_document.ground_truth_summary in prompt
    assert "{document}" not in prompt and "{ground_truth_summary}" not in prompt
    assert prompt == render_probe_prompt(sample_document)  # deterministic


def test_render_probe_prompt_empty_fields():
    with pytest.raises(EmptyField):
        render_probe_prompt(Document("d", "", "s"))
    with pytest.raises(EmptyField):
        render_probe_prompt(Document("d", "text", ""))


def test_render_does_not_rescan_substituted_text():
    d = Document("d", "evil {ground_truth_summary} text", "secret {document} note")
    prompt = render_probe_prompt(d)
    # Placeholder-looking document and summary content must pass through
    # untouched, each substituted exactly once.
    assert prompt.count("evil {ground_truth_summary} text") == 1
    assert prompt.count("secret {document} note") == 1
    assert prompt.count("evil") == 1 and prompt.count("secret") == 1


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(n_samples=0)
    with pytest.raises(ValueError):
        ProbeConfig(n_samples=1, max_retries=-1)
    assert ProbeConfig(n_samples=15).n_samples == 15  # CNNDM-scale run value


def test_probe_mock_determinism(sample_document):
    cfg = ProbeConfig(n_samples=3)
    cs1 = probe_rationales(MockLlmClient(seed=7), sample_document, cfg)
    cs2 = probe_rationales(MockLlmClient(seed=7), sample_document, cfg)
    assert cs1 == cs2
    assert [c.index for c in cs1.candidates] == [0, 1, 2]
    for c in cs1.candidates:
        # every candidate re-parses under the canonical grammar
        assert parse_rationale(serialize_rationale(c.rationale)) == c.rationale
        assert c.summary


def test_probe_fifteen_samples(sample_document):
    cs = probe_rationales(MockLlmClient(seed=1), sample_document, ProbeConfig(n_samples=15))
    assert len(cs.candidates) == 15


def test_probe_garbage_client(sample_document):
    client = ScriptedClient([BAD] * 30)
    with pytest.raises(InsufficientValidSamples):
        probe_rationales(client, sample_document, ProbeConfig(n_samples=2, max_retries=2))
    # Each of the 1 + max_retries rounds asks for both open slots, then the document stops.
    assert client.calls == 2 * 3


def test_probe_retry_then_success(sample_document):
    client = ScriptedClient([BAD, BAD, GOOD, GOOD])
    discards = []
    cs = probe_rationales(
        client, sample_document, ProbeConfig(n_samples=2, max_retries=2), discards=discards
    )
    assert len(cs.candidates) == 2
    assert len(discards) == 2
    assert discards[0].sample_index == 0 and discards[0].attempt == 0
    assert discards[0].response == BAD


def test_probe_no_retry_budget(sample_document):
    client = ScriptedClient([BAD, GOOD])
    with pytest.raises(InsufficientValidSamples):
        probe_rationales(client, sample_document, ProbeConfig(n_samples=2, max_retries=0))


def test_probe_transport_error_propagates(sample_document):
    class Failing(ScriptedClient):
        def complete(self, prompt):
            raise TransportError("boom")

    with pytest.raises(TransportError):
        probe_rationales(Failing([]), sample_document, ProbeConfig(n_samples=1))


def row_slots(cache_dir) -> list[list]:
    """The slots of each committed response row, by key: a zlib-compressed JSON array."""
    return [json.loads(zlib.decompress(v)) for v in cache_rows(cache_dir, "responses").values()]


def test_cache_round_trip(tmp_path):
    with ResponseCache(tmp_path) as cache:
        assert cache.lookup("ns", "prompt", 3) is None
        cache.store("ns", "prompt", ["first", None, "payload\nlines", None])
        # A gap below the last slot; the row has at least n_samples slots.
        assert cache.lookup("ns", "prompt", 4) == ["first", None, "payload\nlines", None]
        assert cache.lookup("ns", "prompt", 2) == ["first", None, "payload\nlines"]
        # namespace and prompt each split the key
        assert cache.lookup("other", "prompt", 3) is None
        assert cache.lookup("ns", "prompt2", 3) is None
    # One file, with no journal left once closed, and one row of `responses`
    # for the prompt. Its key is the sha256 of the NUL-joined kind, namespace
    # and prompt; its value the zlib-compressed JSON array of the slots, null
    # for a gap and none for the empty slots after the last response.
    assert [p.name for p in tmp_path.iterdir()] == ["cache.sqlite"]
    key = hashlib.sha256("responses\x00ns\x00prompt".encode()).digest()
    assert not cache_rows(tmp_path, "entries")  # the embeddings' table
    (row,) = cache_rows(tmp_path, "responses").items()
    assert row[0] == key
    assert zlib.decompress(row[1]) == b'["first",null,"payload\\nlines"]'
    with ResponseCache(tmp_path) as cache, EmbeddingCache(tmp_path) as vectors:
        assert cache.lookup("ns", "prompt", 3) == ["first", None, "payload\nlines"]  # persisted
        assert vectors.lookup("ns", "prompt") is None  # the kind splits the key too


def test_cache_entries_are_durable_only_once_committed(tmp_path):
    cache = ResponseCache(tmp_path)
    cache.store("ns", "p", ["kept"])
    cache.commit()
    cache.store("ns", "p", ["kept", "in flight"])
    assert cache.lookup("ns", "p", 2) == ["kept", "in flight"]  # its own connection sees it
    assert row_slots(tmp_path) == [["kept"]]  # another connection sees only the commit
    cache.close()  # close commits whatever was stored
    assert row_slots(tmp_path) == [["kept", "in flight"]]


@pytest.mark.parametrize("damage", [b"", b"x", b"not zlib at all", "trunc"])
def test_damaged_cache_value_is_a_miss_and_store_overwrites_it(tmp_path, damage):
    vector = np.arange(5, dtype=np.float64) / 3
    with ResponseCache(tmp_path) as cache:
        cache.store("ns", "p", ["whole response"])
    with EmbeddingCache(tmp_path) as vectors:
        vectors.store("ns", "text", vector)
    # Each row cut to half its bytes, or replaced by bytes that are not zlib.
    for table in ("responses", "entries"):
        damaged = {k: v[: len(v) // 2] if damage == "trunc" else damage
                   for k, v in cache_rows(tmp_path, table).items()}
        write_cache_rows(tmp_path, damaged, table)
    with ResponseCache(tmp_path) as cache:
        assert cache.lookup("ns", "p", 1) is None
        cache.store("ns", "p", ["whole response"])
        assert cache.lookup("ns", "p", 1) == ["whole response"]
    with EmbeddingCache(tmp_path) as vectors:
        assert vectors.lookup("ns", "text") is None
        vectors.store("ns", "text", vector)
        assert np.array_equal(vectors.lookup("ns", "text"), vector)


def test_embedding_value_of_a_wrong_length_is_a_miss(tmp_path):
    with EmbeddingCache(tmp_path) as vectors:
        vectors.store("ns", "text", np.ones(4))
    (key,) = cache_rows(tmp_path)
    write_cache_rows(tmp_path, {key: zlib.compress(np.ones(4).tobytes()[:-3])})  # 29 bytes
    with EmbeddingCache(tmp_path) as vectors:
        assert vectors.lookup("ns", "text") is None


def test_a_store_replaces_a_row_read_ahead(tmp_path):
    with EmbeddingCache(tmp_path) as vectors:
        vectors.store("ns", "a", np.ones(3))
        vectors.read_ahead("ns", ["a", "b", "c"])
        assert np.array_equal(vectors.lookup("ns", "a"), np.ones(3))  # reads all three rows
        vectors.store("ns", "b", np.full(3, 2.0))
        assert np.array_equal(vectors.lookup("ns", "b"), np.full(3, 2.0))
        assert vectors.lookup("ns", "c") is None


def test_a_file_that_is_not_a_database_names_itself(tmp_path):
    (tmp_path / "cache.sqlite").write_bytes(b"not a database " * 40)
    with pytest.raises(SchemaError, match=str(tmp_path / "cache.sqlite")):
        ResponseCache(tmp_path)


def test_concurrent_use_of_one_key_sees_whole_responses(tmp_path):
    # Documents with equal text and summary share keys, so under --jobs two
    # workers can read and write one entry at once.
    cache = ResponseCache(tmp_path)
    rows = [[f"response {i}:" + "x" * (i * 397 % 6000)] for i in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            for _ in range(50):
                futures = [pool.submit(cache.store, "ns", "p", row) for row in rows]
                futures += [pool.submit(cache.lookup, "ns", "p", 1) for _ in rows]
                for future in futures:
                    assert future.result(timeout=10) in rows + [None]
                assert cache.lookup("ns", "p", 1) in rows
    finally:
        sys.setswitchinterval(interval)


def test_template_edit_invalidates_cache(tmp_path, sample_document, monkeypatch):
    cache = ResponseCache(tmp_path)
    cfg = ProbeConfig(n_samples=2)
    probe_with_cache(MockLlmClient(seed=3), sample_document, cfg, cache)
    edited = PromptTemplate(PromptTemplate.load().body + "\nextra instruction")
    monkeypatch.setattr(PromptTemplate, "load", classmethod(lambda cls: edited))
    client = MockLlmClient(seed=3)
    probe_with_cache(client, sample_document, cfg, cache)
    assert client.completion_calls == 2


def test_probe_cache_is_keyed_by_provider(tmp_path, sample_document):
    cache = ResponseCache(tmp_path)
    cfg = ProbeConfig(n_samples=2)
    first = probe_with_cache(MockLlmClient(seed=5), sample_document, cfg, cache)
    client = MockLlmClient(seed=6)
    second = probe_with_cache(client, sample_document, cfg, cache)
    assert client.completion_calls == 2  # another seed is another provider
    assert first != second


def test_probe_uses_cache(tmp_path, sample_document):
    cache = ResponseCache(tmp_path)
    cfg = ProbeConfig(n_samples=3)
    client = MockLlmClient(seed=3)
    first = probe_with_cache(client, sample_document, cfg, cache)
    assert client.completion_calls == 3
    client2 = MockLlmClient(seed=3)
    second = probe_with_cache(client2, sample_document, cfg, cache)
    assert client2.completion_calls == 0  # fully warm
    assert first == second


def test_probe_fills_and_keeps_the_row_it_is_given(sample_document):
    row = [None, GOOD, BAD]
    client = ScriptedClient([GOOD, BAD, GOOD])
    cs = probe_rationales(client, sample_document, ProbeConfig(n_samples=3), row=row)
    assert len(cs.candidates) == 3
    # Slot 1 came from the row; slots 0 and 2 hold the fresh responses that parsed.
    assert (client.calls, row) == (3, [GOOD, GOOD, GOOD])


def test_probe_refetches_only_missing_cache_entries(tmp_path, sample_document):
    cfg = ProbeConfig(n_samples=4)
    with ResponseCache(tmp_path) as cache:
        probe_with_cache(MockLlmClient(seed=3), sample_document, cfg, cache)
    (key,) = cache_rows(tmp_path, "responses")
    (full,) = row_slots(tmp_path)
    assert len(full) == 4
    gaps = [full[0], None, full[2], None]  # slots 1 and 3 lost
    write_cache_rows(tmp_path, {key: zlib.compress(json.dumps(gaps).encode())}, "responses")
    client = MockLlmClient(seed=3)
    with ResponseCache(tmp_path) as cache:
        probe_with_cache(client, sample_document, cfg, cache)
    assert client.completion_calls == 2
    # The fresh client's first two samples fill the gaps, and the row is rewritten whole.
    assert row_slots(tmp_path) == [[full[0], full[0], full[2], full[1]]]


@pytest.mark.parametrize(
    "value",
    [
        "cut",
        zlib.compress(b'{"0": "a response"}'),
        zlib.compress(b'"a response"'),
        zlib.compress(b'["a response", 7]'),
        zlib.compress(b'["a response", ["nested"]]'),
        zlib.compress(b"\xff\xfe not UTF-8"),
    ],
    ids=["cut-zlib", "object", "string", "number-slot", "list-slot", "not-utf8"],
)
def test_damaged_response_row_is_a_miss_for_each_slot_and_is_overwritten(tmp_path, value):
    with ResponseCache(tmp_path) as cache:
        cache.store("ns", "p", ["zero", "one"])
    ((key, whole),) = cache_rows(tmp_path, "responses").items()
    damaged = whole[: len(whole) // 2] if value == "cut" else value
    write_cache_rows(tmp_path, {key: damaged}, "responses")
    with ResponseCache(tmp_path) as cache:
        assert cache.lookup("ns", "p", 3) is None  # a miss for every slot
        cache.store("ns", "p", [None, "fresh", None])
        assert cache.lookup("ns", "p", 3) == [None, "fresh", None]
    assert row_slots(tmp_path) == [[None, "fresh"]]


def test_a_fresh_file_reads_no_legacy_row(tmp_path):
    selects = []
    with ResponseCache(tmp_path) as cache:
        cache._db.set_trace_callback(lambda sql: selects.append(sql.startswith("SELECT")))
        assert cache.lookup("ns", "p", 4) is None
        assert cache.lookup("ns", "q", 4) is None
        cache._db.set_trace_callback(None)
    assert sum(selects) == 2  # one SELECT per lookup of a prompt, for all its slots
    assert user_version(tmp_path) == 1


def test_a_legacy_file_is_read_but_its_rows_are_never_written(tmp_path):
    old = {("ns", "p", 0): "zero", ("ns", "p", 1): "one", ("ns", "q", 0): "other"}
    write_legacy_cache(tmp_path, old)
    legacy_rows = cache_rows(tmp_path)
    with ResponseCache(tmp_path) as cache:
        row = cache.lookup("ns", "p", 3)
        assert row == ["zero", "one", None]
        row[2] = "two"  # a third slot, as when n_samples grows
        cache.store("ns", "p", row)
    assert user_version(tmp_path) == 0
    assert cache_rows(tmp_path) == legacy_rows
    # The new row holds the old responses that the lookup found.
    ((key, value),) = cache_rows(tmp_path, "responses").items()
    assert key == hashlib.sha256(b"responses\x00ns\x00p").digest()
    assert json.loads(zlib.decompress(value)) == ["zero", "one", "two"]
    with ResponseCache(tmp_path) as cache:
        assert cache.lookup("ns", "p", 3) == ["zero", "one", "two"]
        assert cache.lookup("ns", "q", 1) == ["other"]


def test_unparseable_cache_entry_is_refetched(tmp_path, sample_document):
    cache = ResponseCache(tmp_path)
    prompt = render_probe_prompt(sample_document)
    cache.store(ScriptedClient.cache_namespace, prompt, [BAD])
    client = ScriptedClient([GOOD])
    discards = []
    cs = probe_with_cache(
        client, sample_document, ProbeConfig(n_samples=1), cache, discards=discards
    )
    assert len(cs.candidates) == 1
    assert client.calls == 1
    # the bad entry was recorded and replaced by the fresh response
    assert discards[0].attempt == -1
    assert cache.lookup(ScriptedClient.cache_namespace, prompt, 1) == [GOOD]


def test_unparseable_cache_entry_uses_no_retry(tmp_path, sample_document):
    cache = ResponseCache(tmp_path)
    prompt = render_probe_prompt(sample_document)
    cache.store(ScriptedClient.cache_namespace, prompt, [BAD])
    client = ScriptedClient([GOOD])
    cs = probe_with_cache(client, sample_document, ProbeConfig(n_samples=1, max_retries=0), cache)
    assert len(cs.candidates) == 1
    assert client.calls == 1


def test_cached_and_fresh_discards_are_one_attempt_sequence(tmp_path, sample_document):
    cache = ResponseCache(tmp_path)
    prompt = render_probe_prompt(sample_document)
    cache.store(ScriptedClient.cache_namespace, prompt, [BAD])
    client = ScriptedClient([BAD, GOOD])
    discards = []
    cfg = ProbeConfig(n_samples=1, max_retries=1)
    probe_with_cache(client, sample_document, cfg, cache, discards=discards)
    assert [d.attempt for d in discards] == [-1, 0]
    assert client.calls == 2
    assert cache.lookup(ScriptedClient.cache_namespace, prompt, 1) == [GOOD]


@pytest.mark.parametrize(
    "reserved,token",
    [
        ("Aspects: a; b <article>\nTriples: [x | y | z]\nSummary: s", "<article>"),
        ("Aspects: a; b\nTriples: [x | <SumGen> | z]\nSummary: s", "<SumGen>"),
    ],
    ids=["aspect", "triple"],
)
def test_reserved_token_in_a_rationale_is_a_discard(tmp_path, sample_document, reserved, token):
    cache = ResponseCache(tmp_path)
    prompt = render_probe_prompt(sample_document)
    cache.store(ScriptedClient.cache_namespace, prompt, [reserved])
    client = ScriptedClient([reserved, GOOD])
    discards = []
    cfg = ProbeConfig(n_samples=1, max_retries=1)
    cs = probe_with_cache(client, sample_document, cfg, cache, discards=discards)
    # The cached response is attempt -1, and the slot retries.
    assert [(d.sample_index, d.attempt) for d in discards] == [(0, -1), (0, 0)]
    assert {d.reason for d in discards} == {f"rationale contains reserved token {token}"}
    assert cs.candidates[0].summary == "fine summary"
    assert cache.lookup(ScriptedClient.cache_namespace, prompt, 1) == [GOOD]
    cache.close()


def test_mock_embed_contract():
    client = MockLlmClient(seed=0, dimension=32)
    a = client.embed("storm flood rain")
    b = client.embed("storm flood rain")
    assert (a == b).all()
    assert a.shape == (32,)
    assert client.embed("").shape == (32,)  # degenerate text still embeds nonzero
    assert client.embed("").any()
