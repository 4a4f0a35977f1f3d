"""The probe prompt template, n-sample rationale probing, and on-disk caches.

The template ships as an editable text asset under ``aspectsum/templates/``;
its named placeholders are substituted in a single pass, so
placeholder-looking text inside a document can never be re-substituted.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .clients import LlmClient
from .errors import EmptyField, InsufficientValidSamples, MalformedRationale
from .rationale import (
    Candidate,
    CandidateSet,
    Document,
    Rationale,
    parse_probe_response,
)

_PLACEHOLDER_RE = re.compile(r"\{(document|ground_truth_summary)\}")


@dataclass(frozen=True)
class PromptTemplate:
    body: str

    def __post_init__(self):
        for placeholder in ("{document}", "{ground_truth_summary}"):
            count = self.body.count(placeholder)
            if count != 1:
                raise ValueError(
                    f"probe template must contain {placeholder} exactly once, found {count}"
                )

    def render(self, values: dict[str, str]) -> str:
        # Single pass over the template: substituted text is never rescanned.
        return _PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], self.body)

    @classmethod
    @functools.cache
    def load(cls) -> "PromptTemplate":
        """The bundled probe template, read once per process."""
        body = (
            resources.files("aspectsum.templates")
            .joinpath("rationale_probe.txt")
            .read_text(encoding="utf-8")
        )
        return cls(body)


def render_probe_prompt(d: Document) -> str:
    """The three-step aspects/triples/summary probing prompt."""
    if not d.text:
        raise EmptyField("document text is empty")
    if not d.ground_truth_summary:
        raise EmptyField("ground-truth summary is empty")
    return PromptTemplate.load().render(
        {"document": d.text, "ground_truth_summary": d.ground_truth_summary}
    )


@dataclass(frozen=True)
class ProbeConfig:
    n_samples: int
    max_retries: int = 2

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


def _entry_path(root: Path, suffix: str, namespace: str, *key: str) -> Path:
    """<root>/<aa>/<sha256 of the NUL-joined namespace and key parts><suffix>."""
    digest = hashlib.sha256("\x00".join((namespace, *key)).encode("utf-8")).hexdigest()
    return root / digest[:2] / f"{digest}{suffix}"


def _write_entry(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class ResponseCache:
    """Verbatim responses keyed by (provider namespace, rendered prompt, sample slot).

    A response is reused only for the prompt and provider that produced it,
    so an edited document, summary or template misses. The workspace lock
    keeps other processes out, so no cross-process locking is needed. I/O
    failures propagate as OSError.
    """

    def __init__(self, root: Path):
        self.root = Path(root) / "responses"
        # Documents with the same text and summary share keys, so two workers
        # may read and write one entry at once; each sees it whole.
        self._lock = threading.Lock()

    def lookup(self, namespace: str, prompt: str, slot: int) -> str | None:
        path = _entry_path(self.root, ".txt", namespace, prompt, str(slot))
        with self._lock:
            if not path.exists():
                return None
            return path.read_text(encoding="utf-8")

    def store(self, namespace: str, prompt: str, slot: int, response: str) -> None:
        path = _entry_path(self.root, ".txt", namespace, prompt, str(slot))
        with self._lock:
            _write_entry(path, response)


class EmbeddingCache:
    """Embedding vectors keyed by (provider namespace, text), next to responses."""

    def __init__(self, root: Path):
        self.root = Path(root) / "embeddings"

    def lookup(self, namespace: str, text: str) -> np.ndarray | None:
        path = _entry_path(self.root, ".json", namespace, text)
        if not path.exists():
            return None
        try:
            return np.asarray(json.loads(path.read_text(encoding="utf-8")), dtype=np.float64)
        except ValueError:
            # A truncated or corrupt entry is a miss; the caller re-embeds
            # the text and store() overwrites the entry.
            return None

    def store(self, namespace: str, text: str, vector: np.ndarray) -> None:
        path = _entry_path(self.root, ".json", namespace, text)
        _write_entry(path, json.dumps([float(x) for x in vector]))


@dataclass(frozen=True)
class DiscardRecord:
    """One unparseable probe response, kept for the audit trail."""

    document_id: str
    sample_index: int
    attempt: int
    reason: str
    response: str


def probe_rationales(
    client: LlmClient,
    document: Document,
    config: ProbeConfig,
    cache: ResponseCache | None = None,
    discards: list[DiscardRecord] | None = None,
) -> CandidateSet:
    """Collect exactly config.n_samples parseable (rationale, summary) pairs.

    Each sample slot consults the cache first; a cached but unparseable
    response does not consume the retry budget. Unparseable completions are
    retried up to config.max_retries times and recorded as discarded, never
    silently repaired. Transport failures propagate immediately.
    """
    prompt = render_probe_prompt(document)
    namespace = client.cache_namespace

    accepted: list[tuple[Rationale, str]] = []
    for slot in range(config.n_samples):
        parsed = None
        cached = cache.lookup(namespace, prompt, slot) if cache else None
        if cached is not None:
            try:
                parsed = parse_probe_response(cached)
            except MalformedRationale as exc:
                if discards is not None:
                    discards.append(DiscardRecord(document.id, slot, -1, str(exc), cached))

        if parsed is None:
            for attempt in range(1 + config.max_retries):
                response = client.complete(prompt)
                try:
                    parsed = parse_probe_response(response)
                except MalformedRationale as exc:
                    if discards is not None:
                        discards.append(
                            DiscardRecord(document.id, slot, attempt, str(exc), response)
                        )
                    continue
                if cache is not None:
                    cache.store(namespace, prompt, slot, response)
                break

        if parsed is not None:
            accepted.append(parsed)

    if len(accepted) < config.n_samples:
        raise InsufficientValidSamples(
            f"document {document.id}: {len(accepted)} of {config.n_samples} samples "
            f"parsed after {config.max_retries} retries per slot"
        )
    return CandidateSet(
        document_id=document.id,
        candidates=tuple(
            Candidate(index=i, rationale=r, summary=s) for i, (r, s) in enumerate(accepted)
        ),
    )
