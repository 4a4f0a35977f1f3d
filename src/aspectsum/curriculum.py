"""Staged training-manifest construction and the trainer-adapter contract.

Every training input starts with its task prefix token and carries segment
markers in the fixed order article -> aspects -> triples. Manifests are the
interface external seq2seq trainers consume: JSON Lines of examples plus a
sidecar of stage metadata and loss weights. A builder makes each input
without its article, the form a manifest line carries, and with_article joins
it with the text of the document the example names. No gradients live here.
"""

from __future__ import annotations

import enum
import functools
import hashlib
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import DecodeFailure, MissingRationale, ReservedTokenCollision
from .rationale import (
    Document,
    Rationale,
    parse_rationale,
    serialize_aspects,
    serialize_rationale,
    serialize_triples,
)
from .workspace import jsonl_text


class TaskKind(enum.Enum):
    ASP_EXT = "AspExt"
    TRI_EXT = "TriExt"
    SUM_GEN = "SumGen"
    RAT_GEN = "RatGen"

    @property
    def prefix(self) -> str:
        return f"<{self.value}>"


ARTICLE_TOKEN = "<article>"
ASPECTS_TOKEN = "<aspects>"
TRIPLES_TOKEN = "<triples>"
SUMMARY_TOKEN = "<summary>"

SEGMENT_TOKENS = (ARTICLE_TOKEN, ASPECTS_TOKEN, TRIPLES_TOKEN, SUMMARY_TOKEN)
RESERVED_TOKENS = tuple(t.prefix for t in TaskKind) + SEGMENT_TOKENS

PROVENANCE_GOLDEN = "golden"
PROVENANCE_MODEL = "model"


def find_reserved_token(text: str) -> str | None:
    """First reserved token occurring in the text, or None."""
    for token in RESERVED_TOKENS:
        if token in text:
            return token
    return None


class Stage(enum.Enum):
    SINGULAR_ASPECT = "singular_aspect"
    SINGULAR_TRIPLE = "singular_triple"
    SINGULAR_SUMMARY = "singular_summary"
    CONCURRENT_EARLY = "concurrent_early"
    CONCURRENT_LATE = "concurrent_late"
    JOINT = "joint"


CANONICAL_STAGE_ORDER = tuple(Stage)


@dataclass(frozen=True)
class TrainingExample:
    task: TaskKind
    input_without_article: str
    target: str
    document: Document
    loss_weight: float = 1.0
    provenance: str = PROVENANCE_GOLDEN

    def __post_init__(self):
        compact = self.input_without_article
        if not compact.startswith(self.task.prefix):
            raise ValueError(f"input must begin with {self.task.prefix}")
        if self.loss_weight <= 0:
            raise ValueError("loss_weight must be positive")
        positions = [compact.find(tok) for tok in (ARTICLE_TOKEN, ASPECTS_TOKEN, TRIPLES_TOKEN)]
        present = [p for p in positions if p >= 0]
        if positions[0] < 0:
            raise ValueError(f"input must contain {ARTICLE_TOKEN}")
        if present != sorted(present):
            raise ValueError("segment markers out of canonical order")

    @property
    def input(self) -> str:
        """The full input, joined each time it is read: no example holds its article."""
        return with_article(self.input_without_article, self.document.text)

    @property
    def document_id(self) -> str:
        return self.document.id


@dataclass(frozen=True)
class SkipRecord:
    document_id: str
    reason: str


@dataclass(frozen=True)
class StageManifest:
    stage: Stage
    examples: tuple[TrainingExample, ...]
    loss_config: dict[str, float] = field(default_factory=dict)
    skipped: tuple[SkipRecord, ...] = ()

    def to_jsonl(self) -> str:
        return self._jsonl

    @functools.cached_property
    def _jsonl(self) -> str:
        # Built once: the write, the sidecar digest and the report digest share it.
        # The article is written once, in the corpus, not in each of a document's examples.
        records = (
            {"stage": self.stage.value, "task": ex.task.value,
             "input_without_article": ex.input_without_article,
             "target": ex.target, "loss_weight": ex.loss_weight,
             "document_id": ex.document_id, "provenance": ex.provenance}
            for ex in self.examples
        )
        return jsonl_text(records)

    def digest(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    def meta(self) -> dict:
        return {
            "stage": self.stage.value,
            "example_count": len(self.examples),
            "loss_config": self.loss_config,
            "digest": self.digest(),
            "skipped": [{"document_id": s.document_id, "reason": s.reason} for s in self.skipped],
        }


class TrainerAdapter(ABC):
    """What an external trainer must provide to participate in the curriculum."""

    @abstractmethod
    def train(self, manifest: StageManifest) -> dict:
        """Consume one stage manifest; return a metrics mapping."""

    @abstractmethod
    def greedy_decode(self, task: TaskKind, input: str) -> str:
        """Deterministic decode for a fixed trained state."""


Pair = tuple[Document, Rationale]


def _check_pair(d: Document, r: Rationale | None) -> Rationale:
    if r is None:
        raise MissingRationale(f"document {d.id} has no golden rationale")
    # Ingest and probe reject reserved tokens, but library callers can bypass them;
    # a collision here would make segment boundaries ambiguous.
    for label, text in (
        ("document text", d.text),
        ("ground-truth summary", d.ground_truth_summary),
        ("rationale", serialize_rationale(r)),
    ):
        token = find_reserved_token(text)
        if token is not None:
            raise ReservedTokenCollision(
                f"{label} of document {d.id} contains reserved token {token}"
            )
    return r


# The inputs as a manifest line holds them: with_article(input, d.text) is the full input.
_ASPEXT_INPUT = f"{TaskKind.ASP_EXT.prefix} {ARTICLE_TOKEN}"
_RATGEN_INPUT = f"{TaskKind.RAT_GEN.prefix} {ARTICLE_TOKEN}"


def _triext_input(aspects_segment: str) -> str:
    return f"{TaskKind.TRI_EXT.prefix} {ARTICLE_TOKEN} {ASPECTS_TOKEN} {aspects_segment}"


def _document_examples(
    d: Document,
    r: Rationale,
    aspects_segment: str,
    triples_segment: str,
    provenance: str,
) -> tuple[TrainingExample, TrainingExample, TrainingExample]:
    """The AspExt, TriExt and SumGen examples of one document.

    Targets always come from the golden rationale and summary; the caller
    picks the conditioning segments and the provenance they carry.
    """
    sumgen_input = (
        f"{TaskKind.SUM_GEN.prefix} {ARTICLE_TOKEN} "
        f"{ASPECTS_TOKEN} {aspects_segment} {TRIPLES_TOKEN} {triples_segment}"
    )
    return (
        TrainingExample(
            TaskKind.ASP_EXT, _ASPEXT_INPUT, serialize_aspects(r.aspects), d, provenance=provenance
        ),
        TrainingExample(
            TaskKind.TRI_EXT, _triext_input(aspects_segment), serialize_triples(r.triples), d,
            provenance=provenance,
        ),
        TrainingExample(
            TaskKind.SUM_GEN, sumgen_input, d.ground_truth_summary, d, provenance=provenance
        ),
    )


def _checked(pairs: list[Pair]) -> list[Pair]:
    return [(d, _check_pair(d, r)) for d, r in pairs]


def check_loss_weights(lambda_rationale: float, lambda_summary: float) -> None:
    for name, value in (("lambda_rationale", lambda_rationale), ("lambda_summary", lambda_summary)):
        if not 0.0 < value < float("inf"):  # also false for NaN
            raise ValueError(f"{name} must be positive and finite")


def _stage_manifests(
    pairs: list[Pair],
    adapter: TrainerAdapter,
    lambda_rationale: float,
    lambda_summary: float,
):
    """The six stage manifests in CANONICAL_STAGE_ORDER, each built when asked for:
    the loss weights are checked before the first, so a bad one fails before
    anything trains, and concurrent_late decodes with the adapter trained so far."""
    check_loss_weights(lambda_rationale, lambda_summary)
    yield from build_singular_manifests(pairs)
    yield build_concurrent_early_manifest(pairs)
    yield build_concurrent_late_manifest(pairs, adapter)
    yield build_joint_manifest(pairs, lambda_rationale, lambda_summary)


def build_singular_manifests(
    pairs: list[Pair],
) -> tuple[StageManifest, StageManifest, StageManifest]:
    """One manifest per singular task: aspects from D, triples from (D, A*),
    summary from (D, A*, T*)."""
    # Per document, its three examples conditioned on the golden rationale.
    forced = [
        _document_examples(
            d, r, serialize_aspects(r.aspects), serialize_triples(r.triples), PROVENANCE_GOLDEN
        )
        for d, r in _checked(pairs)
    ]
    return tuple(
        StageManifest(stage, tuple(examples[task] for examples in forced))
        for task, stage in enumerate(CANONICAL_STAGE_ORDER[:3])
    )


def build_concurrent_early_manifest(pairs: list[Pair]) -> StageManifest:
    """All three tasks per document, every conditioning segment teacher-forced
    from the golden rationale: the singular examples, document by document."""
    by_document = zip(*(m.examples for m in build_singular_manifests(pairs)))
    return StageManifest(Stage.CONCURRENT_EARLY, tuple(ex for exs in by_document for ex in exs))


def build_concurrent_late_manifest(pairs: list[Pair], adapter: TrainerAdapter) -> StageManifest:
    """Cascading self-guided construction.

    The adapter greedy-decodes aspects from the document and triples from the
    document plus its own aspects (exactly two decode calls per document);
    those outputs become conditioning segments verbatim, while targets stay
    golden. Documents whose decode fails are skipped with an audit entry.
    """
    examples = []
    skipped = []
    for d, r in _checked(pairs):
        try:
            decoded_aspects = adapter.greedy_decode(
                TaskKind.ASP_EXT, with_article(_ASPEXT_INPUT, d.text)
            )
            decoded_triples = adapter.greedy_decode(
                TaskKind.TRI_EXT, with_article(_triext_input(decoded_aspects), d.text)
            )
            for decoded in (decoded_aspects, decoded_triples):
                token = find_reserved_token(decoded)
                if token is not None:
                    raise DecodeFailure(f"decode output contains reserved token {token}")
        except DecodeFailure as exc:
            skipped.append(SkipRecord(d.id, str(exc)))
            continue
        examples.extend(
            _document_examples(d, r, decoded_aspects, decoded_triples, PROVENANCE_MODEL)
        )
    return StageManifest(Stage.CONCURRENT_LATE, tuple(examples), skipped=tuple(skipped))


def build_joint_manifest(
    pairs: list[Pair],
    lambda_rationale: float = 0.8,
    lambda_summary: float = 1.2,
) -> StageManifest:
    """One rationale-summary example per document; a single encode-decode pair."""
    check_loss_weights(lambda_rationale, lambda_summary)
    examples = []
    for d, r in _checked(pairs):
        target = f"{serialize_rationale(r)} {SUMMARY_TOKEN} {d.ground_truth_summary}"
        examples.append(TrainingExample(TaskKind.RAT_GEN, _RATGEN_INPUT, target, d))
    return StageManifest(
        Stage.JOINT,
        tuple(examples),
        loss_config={"rationale": lambda_rationale, "summary": lambda_summary},
    )


def split_joint_target(target: str) -> tuple[Rationale, str]:
    """Invert a joint-stage target back into (rationale, summary)."""
    marker = f" {SUMMARY_TOKEN} "
    head, sep, tail = target.partition(marker)
    if not sep:
        raise ValueError(f"target has no {SUMMARY_TOKEN} marker")
    return parse_rationale(head), tail


def article_segment(input: str) -> str:
    """The verbatim document text embedded in a training input."""
    start = input.find(ARTICLE_TOKEN)
    if start < 0:
        raise ValueError(f"input has no {ARTICLE_TOKEN} segment")
    start += len(ARTICLE_TOKEN) + 1
    ends = [
        p
        for p in (input.find(ASPECTS_TOKEN, start), input.find(TRIPLES_TOKEN, start))
        if p >= 0
    ]
    if not ends:
        return input[start:]
    # Builders join segments with exactly one space, so drop only that one.
    return input[start : min(ends) - 1]


def with_article(input_without_article: str, text: str) -> str:
    """The full input: the document text, after a space, right after the first
    ARTICLE_TOKEN. An input without that token raises ValueError."""
    head, token, tail = input_without_article.partition(ARTICLE_TOKEN)
    if not token:
        raise ValueError(f"input has no {ARTICLE_TOKEN}")
    return f"{head}{token} {text}{tail}"


def run_curriculum(
    pairs: list[Pair],
    adapter: TrainerAdapter,
    recorded: Sequence[dict] = (),
    on_manifest=None,
    on_stage=None,
    lambda_rationale: float = 0.8,
    lambda_summary: float = 1.2,
) -> list[dict]:
    """Build each stage's manifest in canonical order and train the adapter on it.

    Returns one entry {stage, digest, example_count, metrics} per stage.
    recorded holds the entries of an earlier run: each leading stage whose
    recorded digest equals that of the manifest built now keeps its entry
    untrained, and every stage from the first new or changed one is trained.
    on_manifest(manifest) is called before a stage trains and on_stage(entries)
    after it. The two lambdas weight the joint stage's rationale and summary
    losses; a bad one raises ValueError before any stage is built.
    """
    entries: list[dict] = []
    resuming = True
    manifests = _stage_manifests(pairs, adapter, lambda_rationale, lambda_summary)
    for i, manifest in enumerate(manifests):
        if on_manifest is not None:
            on_manifest(manifest)
        entry = {"stage": manifest.stage.value, "digest": manifest.digest()}
        resuming = resuming and i < len(recorded) and all(
            recorded[i].get(key) == value for key, value in entry.items()
        )
        entry["example_count"] = len(manifest.examples)
        entry["metrics"] = recorded[i]["metrics"] if resuming else adapter.train(manifest)
        entries.append(entry)
        if on_stage is not None:
            on_stage(entries)
    return entries
