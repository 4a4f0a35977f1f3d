"""Prompt templates, n-sample rationale probing, and on-disk response caching.

Templates ship as editable text assets under ``aspectsum/templates/``; each
one carries named placeholders that are substituted in a single pass, so
placeholder-looking text inside a document can never be re-substituted.
"""

from __future__ import annotations

import enum
import hashlib
import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from urllib.parse import quote

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


class TemplateName(enum.Enum):
    RATIONALE_PROBE = "rationale_probe"


_REQUIRED_PLACEHOLDERS = {
    TemplateName.RATIONALE_PROBE: ("{document}", "{ground_truth_summary}"),
}

_PLACEHOLDER_RE = re.compile(r"\{(document|ground_truth_summary)\}")


@dataclass(frozen=True)
class PromptTemplate:
    name: TemplateName
    body: str

    def __post_init__(self):
        for placeholder in _REQUIRED_PLACEHOLDERS[self.name]:
            count = self.body.count(placeholder)
            if count != 1:
                raise ValueError(
                    f"template {self.name.value} must contain {placeholder} exactly once, "
                    f"found {count}"
                )

    @property
    def content_hash(self) -> str:
        """Content address of the body; editing the template invalidates caches."""
        return hashlib.sha256(self.body.encode("utf-8")).hexdigest()[:16]

    def render(self, values: dict[str, str]) -> str:
        # Single pass over the template: substituted text is never rescanned.
        return _PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], self.body)

    @classmethod
    def load(cls, name: TemplateName, path: Path | None = None) -> "PromptTemplate":
        if path is not None:
            body = Path(path).read_text(encoding="utf-8")
        else:
            body = (
                resources.files("aspectsum.templates")
                .joinpath(f"{name.value}.txt")
                .read_text(encoding="utf-8")
            )
        return cls(name, body)


def render_probe_prompt(d: Document, template: PromptTemplate | None = None) -> str:
    """The three-step aspects/triples/summary probing prompt."""
    if not d.text:
        raise EmptyField("document text is empty")
    if not d.ground_truth_summary:
        raise EmptyField("ground-truth summary is empty")
    template = template or PromptTemplate.load(TemplateName.RATIONALE_PROBE)
    return template.render({"document": d.text, "ground_truth_summary": d.ground_truth_summary})


@dataclass(frozen=True)
class ProbeConfig:
    n_samples: int
    max_retries: int = 2

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class ResponseCache:
    """Verbatim response store at <root>/<document_id>/<template_hash>/<index>.txt.

    Document ids are percent-encoded in paths so opaque ids stay filesystem
    safe. Writes for one key always come from the worker that owns the
    document, so no cross-process locking is needed. I/O failures propagate
    as OSError.
    """

    def __init__(self, root: Path):
        self.root = Path(root)

    def _path(self, document_id: str, template_hash: str, sample_index: int) -> Path:
        return self.root / quote(document_id, safe="") / template_hash / f"{sample_index}.txt"

    def lookup(self, document_id: str, template_hash: str, sample_index: int) -> str | None:
        path = self._path(document_id, template_hash, sample_index)
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8")

    def store(self, document_id: str, template_hash: str, sample_index: int, response: str) -> None:
        path = self._path(document_id, template_hash, sample_index)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(response, encoding="utf-8")


class EmbeddingCache:
    """Embedding store keyed by (provider namespace, text), next to responses."""

    def __init__(self, root: Path):
        self.root = Path(root) / "embeddings"

    def _path(self, namespace: str, text: str) -> Path:
        digest = hashlib.sha256(f"{namespace}\x00{text}".encode("utf-8")).hexdigest()
        return self.root / digest[:2] / f"{digest}.json"

    def lookup(self, namespace: str, text: str) -> np.ndarray | None:
        path = self._path(namespace, text)
        if not path.exists():
            return None
        try:
            return np.asarray(json.loads(path.read_text(encoding="utf-8")), dtype=np.float64)
        except ValueError:
            # A truncated or corrupt entry is a miss; the caller re-embeds
            # the text and store() overwrites the entry.
            return None

    def store(self, namespace: str, text: str, vector: np.ndarray) -> None:
        path = self._path(namespace, text)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([float(x) for x in vector]), encoding="utf-8")


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
    template: PromptTemplate | None = None,
    discards: list[DiscardRecord] | None = None,
) -> CandidateSet:
    """Collect exactly config.n_samples parseable (rationale, summary) pairs.

    Each sample slot consults the cache first; a cached but unparseable
    response does not consume the retry budget. Unparseable completions are
    retried up to config.max_retries times and recorded as discarded, never
    silently repaired. Transport failures propagate immediately.
    """
    template = template or PromptTemplate.load(TemplateName.RATIONALE_PROBE)
    prompt = render_probe_prompt(document, template)
    template_hash = template.content_hash

    accepted: list[tuple[Rationale, str]] = []
    for slot in range(config.n_samples):
        parsed = None
        cached = cache.lookup(document.id, template_hash, slot) if cache else None
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
                    cache.store(document.id, template_hash, slot, response)
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
