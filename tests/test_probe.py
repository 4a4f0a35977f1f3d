from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import pytest

from aspectsum.clients import LlmClient
from aspectsum.errors import (
    EmptyField,
    InsufficientValidSamples,
    TransportError,
)
from aspectsum.mock import MockLlmClient
from aspectsum.probe import (
    ProbeConfig,
    PromptTemplate,
    ResponseCache,
    probe_rationales,
    render_probe_prompt,
)
from aspectsum.rationale import Document, parse_rationale, serialize_rationale


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
    assert client.calls == 2 * 3  # (1 + max_retries) per slot


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


def test_cache_round_trip(tmp_path):
    cache = ResponseCache(tmp_path)
    assert cache.lookup("ns", "prompt", 0) is None
    cache.store("ns", "prompt", 0, "payload\nlines")
    assert cache.lookup("ns", "prompt", 0) == "payload\nlines"
    # namespace, prompt and slot each split the key
    assert cache.lookup("other", "prompt", 0) is None
    assert cache.lookup("ns", "prompt2", 0) is None
    assert cache.lookup("ns", "prompt", 1) is None
    # one file per entry, fanned out by the first two hex digits of its key
    (entry,) = [p for p in (tmp_path / "responses").rglob("*") if p.is_file()]
    assert entry.parent.name == entry.name[:2] and entry.suffix == ".txt"


def test_concurrent_use_of_one_key_sees_whole_responses(tmp_path):
    # Documents with equal text and summary share keys, so under --jobs two
    # workers can read and write one entry at once.
    cache = ResponseCache(tmp_path)
    responses = [f"response {i}:" + "x" * (i * 397 % 6000) for i in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            for _ in range(50):
                futures = [pool.submit(cache.store, "ns", "p", 0, r) for r in responses]
                futures += [pool.submit(cache.lookup, "ns", "p", 0) for _ in responses]
                for future in futures:
                    assert future.result(timeout=10) in responses + [None]
                assert cache.lookup("ns", "p", 0) in responses
    finally:
        sys.setswitchinterval(interval)


def test_template_edit_invalidates_cache(tmp_path, sample_document, monkeypatch):
    cache = ResponseCache(tmp_path)
    cfg = ProbeConfig(n_samples=2)
    probe_rationales(MockLlmClient(seed=3), sample_document, cfg, cache=cache)
    edited = PromptTemplate(PromptTemplate.load().body + "\nextra instruction")
    monkeypatch.setattr(PromptTemplate, "load", classmethod(lambda cls: edited))
    client = MockLlmClient(seed=3)
    probe_rationales(client, sample_document, cfg, cache=cache)
    assert client.completion_calls == 2


def test_probe_cache_is_keyed_by_provider(tmp_path, sample_document):
    cache = ResponseCache(tmp_path)
    cfg = ProbeConfig(n_samples=2)
    first = probe_rationales(MockLlmClient(seed=5), sample_document, cfg, cache=cache)
    client = MockLlmClient(seed=6)
    second = probe_rationales(client, sample_document, cfg, cache=cache)
    assert client.completion_calls == 2  # another seed is another provider
    assert first != second


def test_probe_uses_cache(tmp_path, sample_document):
    cache = ResponseCache(tmp_path)
    cfg = ProbeConfig(n_samples=3)
    client = MockLlmClient(seed=3)
    first = probe_rationales(client, sample_document, cfg, cache=cache)
    assert client.completion_calls == 3
    client2 = MockLlmClient(seed=3)
    second = probe_rationales(client2, sample_document, cfg, cache=cache)
    assert client2.completion_calls == 0  # fully warm
    assert first == second


def test_probe_refetches_only_missing_cache_entries(tmp_path, sample_document):
    cache = ResponseCache(tmp_path)
    cfg = ProbeConfig(n_samples=4)
    probe_rationales(MockLlmClient(seed=3), sample_document, cfg, cache=cache)
    entries = sorted(p for p in cache.root.rglob("*") if p.is_file())
    assert len(entries) == 4
    for path in entries[1::2]:
        path.unlink()
    client = MockLlmClient(seed=3)
    probe_rationales(client, sample_document, cfg, cache=cache)
    assert client.completion_calls == 2


def test_unparseable_cache_entry_is_refetched(tmp_path, sample_document):
    cache = ResponseCache(tmp_path)
    prompt = render_probe_prompt(sample_document)
    cache.store(ScriptedClient.cache_namespace, prompt, 0, BAD)
    client = ScriptedClient([GOOD])
    discards = []
    cs = probe_rationales(
        client, sample_document, ProbeConfig(n_samples=1), cache=cache, discards=discards
    )
    assert len(cs.candidates) == 1
    assert client.calls == 1
    # the bad entry was recorded and replaced by the fresh response
    assert discards[0].attempt == -1
    assert cache.lookup(ScriptedClient.cache_namespace, prompt, 0) == GOOD


def test_mock_embed_contract():
    client = MockLlmClient(seed=0, dimension=32)
    a = client.embed("storm flood rain")
    b = client.embed("storm flood rain")
    assert (a == b).all()
    assert a.shape == (32,)
    assert client.embed("").shape == (32,)  # degenerate text still embeds nonzero
    assert client.embed("").any()
