"""Staged training-manifest construction and the trainer-adapter contract.

Every training input starts with its task prefix token and carries segment
markers in the fixed order article -> aspects -> triples. Manifests are the
interface external seq2seq trainers consume: JSON Lines of examples plus a
sidecar of stage metadata and loss weights. No gradients live here.
"""

from __future__ import annotations

import enum
import hashlib
import json
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import (
    DecodeFailure,
    MissingRationale,
    ReservedTokenCollision,
    StageOrderViolation,
)
from .rationale import (
    Document,
    Rationale,
    parse_rationale,
    serialize_aspects,
    serialize_rationale,
    serialize_triples,
)


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


CANONICAL_STAGE_ORDER = (
    Stage.SINGULAR_ASPECT,
    Stage.SINGULAR_TRIPLE,
    Stage.SINGULAR_SUMMARY,
    Stage.CONCURRENT_EARLY,
    Stage.CONCURRENT_LATE,
    Stage.JOINT,
)


@dataclass(frozen=True)
class TrainingExample:
    task: TaskKind
    input: str
    target: str
    document_id: str
    loss_weight: float = 1.0
    provenance: str = PROVENANCE_GOLDEN

    def __post_init__(self):
        if not self.input.startswith(self.task.prefix):
            raise ValueError(f"input must begin with {self.task.prefix}")
        if self.loss_weight <= 0:
            raise ValueError("loss_weight must be positive")
        positions = [
            self.input.find(tok) for tok in (ARTICLE_TOKEN, ASPECTS_TOKEN, TRIPLES_TOKEN)
        ]
        present = [p for p in positions if p >= 0]
        if positions[0] < 0:
            raise ValueError(f"input must contain {ARTICLE_TOKEN}")
        if present != sorted(present):
            raise ValueError("segment markers out of canonical order")


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
        lines = []
        for ex in self.examples:
            lines.append(
                json.dumps(
                    {
                        "stage": self.stage.value,
                        "task": ex.task.value,
                        "input": ex.input,
                        "target": ex.target,
                        "loss_weight": ex.loss_weight,
                        "document_id": ex.document_id,
                        "provenance": ex.provenance,
                    },
                    sort_keys=True,
                    ensure_ascii=False,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

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
    # Ingestion rejects reserved tokens, but library callers can bypass it;
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


def _aspext_input(d: Document) -> str:
    return f"{TaskKind.ASP_EXT.prefix} {ARTICLE_TOKEN} {d.text}"


def _triext_input(d: Document, aspects_segment: str) -> str:
    return f"{TaskKind.TRI_EXT.prefix} {ARTICLE_TOKEN} {d.text} {ASPECTS_TOKEN} {aspects_segment}"


def _ratgen_input(d: Document) -> str:
    return f"{TaskKind.RAT_GEN.prefix} {ARTICLE_TOKEN} {d.text}"


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
        f"{TaskKind.SUM_GEN.prefix} {ARTICLE_TOKEN} {d.text} "
        f"{ASPECTS_TOKEN} {aspects_segment} {TRIPLES_TOKEN} {triples_segment}"
    )
    return (
        TrainingExample(
            TaskKind.ASP_EXT, _aspext_input(d), serialize_aspects(r.aspects), d.id,
            provenance=provenance,
        ),
        TrainingExample(
            TaskKind.TRI_EXT, _triext_input(d, aspects_segment), serialize_triples(r.triples), d.id,
            provenance=provenance,
        ),
        TrainingExample(
            TaskKind.SUM_GEN, sumgen_input, d.ground_truth_summary, d.id, provenance=provenance
        ),
    )


def _teacher_forced_examples(pairs: list[Pair]):
    """Per document, its three examples conditioned on the golden rationale."""
    for d, r in pairs:
        r = _check_pair(d, r)
        yield _document_examples(
            d, r, serialize_aspects(r.aspects), serialize_triples(r.triples), PROVENANCE_GOLDEN
        )


_SINGULAR_STAGES = (Stage.SINGULAR_ASPECT, Stage.SINGULAR_TRIPLE, Stage.SINGULAR_SUMMARY)


def _singular_manifest(stage: Stage, pairs: list[Pair]) -> StageManifest:
    task = _SINGULAR_STAGES.index(stage)
    return StageManifest(
        stage, tuple(examples[task] for examples in _teacher_forced_examples(pairs))
    )


def build_singular_manifests(
    pairs: list[Pair],
) -> tuple[StageManifest, StageManifest, StageManifest]:
    """One manifest per singular task: aspects from D, triples from (D, A*),
    summary from (D, A*, T*)."""
    return tuple(_singular_manifest(stage, pairs) for stage in _SINGULAR_STAGES)


def build_concurrent_early_manifest(pairs: list[Pair]) -> StageManifest:
    """All three tasks per document, every conditioning segment teacher-forced
    from the golden rationale."""
    examples = [ex for per_doc in _teacher_forced_examples(pairs) for ex in per_doc]
    return StageManifest(Stage.CONCURRENT_EARLY, tuple(examples))


def build_concurrent_late_manifest(pairs: list[Pair], adapter: TrainerAdapter) -> StageManifest:
    """Cascading self-guided construction.

    The adapter greedy-decodes aspects from the document and triples from the
    document plus its own aspects (exactly two decode calls per document);
    those outputs become conditioning segments verbatim, while targets stay
    golden. Documents whose decode fails are skipped with an audit entry.
    """
    examples = []
    skipped = []
    for d, r in pairs:
        r = _check_pair(d, r)
        try:
            decoded_aspects = adapter.greedy_decode(TaskKind.ASP_EXT, _aspext_input(d))
            decoded_triples = adapter.greedy_decode(
                TaskKind.TRI_EXT, _triext_input(d, decoded_aspects)
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
    for name, value in (("lambda_rationale", lambda_rationale), ("lambda_summary", lambda_summary)):
        if not 0.0 < value < float("inf"):  # also false for NaN
            raise ValueError(f"{name} must be positive and finite")
    examples = []
    for d, r in pairs:
        r = _check_pair(d, r)
        target = f"{serialize_rationale(r)} {SUMMARY_TOKEN} {d.ground_truth_summary}"
        examples.append(TrainingExample(TaskKind.RAT_GEN, _ratgen_input(d), target, d.id))
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


def _validate_plan(stages: tuple[Stage, ...], override_stage_order: bool) -> None:
    if not stages:
        raise StageOrderViolation("plan has no stages")
    ranks = [CANONICAL_STAGE_ORDER.index(stage) for stage in stages]
    if ranks != sorted(set(ranks)):
        raise StageOrderViolation("stages must follow the canonical order without repeats")
    if not override_stage_order and ranks != list(range(len(ranks))):
        first_missing = next(i for i in range(len(CANONICAL_STAGE_ORDER)) if i not in ranks)
        raise StageOrderViolation(
            f"plan skips prerequisite stage {CANONICAL_STAGE_ORDER[first_missing].value}; "
            "pass the override flag to run anyway"
        )


def _build_stage(
    stage: Stage,
    pairs: list[Pair],
    adapter: TrainerAdapter,
    lambda_rationale: float,
    lambda_summary: float,
) -> StageManifest:
    if stage in _SINGULAR_STAGES:
        return _singular_manifest(stage, pairs)
    if stage is Stage.CONCURRENT_EARLY:
        return build_concurrent_early_manifest(pairs)
    if stage is Stage.CONCURRENT_LATE:
        return build_concurrent_late_manifest(pairs, adapter)
    return build_joint_manifest(pairs, lambda_rationale, lambda_summary)


def run_curriculum(
    pairs: list[Pair],
    adapter: TrainerAdapter,
    stages: tuple[Stage, ...] = CANONICAL_STAGE_ORDER,
    override_stage_order: bool = False,
    recorded: Sequence[dict] = (),
    on_manifest=None,
    on_stage=None,
    lambda_rationale: float = 0.8,
    lambda_summary: float = 1.2,
) -> list[dict]:
    """Build every planned stage's manifest in order and train the adapter on it.

    Returns one entry {stage, digest, example_count, metrics} per stage.
    recorded holds the entries of an earlier run of this plan: each leading
    stage whose recorded digest equals that of the manifest built now keeps
    its entry untrained, and every stage from the first new or changed one
    is trained. on_manifest(manifest) is called before a stage trains and
    on_stage(entries) after it. The two lambdas weight the joint stage's
    rationale and summary losses.
    """
    _validate_plan(stages, override_stage_order)
    entries: list[dict] = []
    resuming = True
    for i, stage in enumerate(stages):
        manifest = _build_stage(stage, pairs, adapter, lambda_rationale, lambda_summary)
        if on_manifest is not None:
            on_manifest(manifest)
        entry = {"stage": stage.value, "digest": manifest.digest()}
        resuming = resuming and i < len(recorded) and all(
            recorded[i].get(key) == value for key, value in entry.items()
        )
        entry["example_count"] = len(manifest.examples)
        entry["metrics"] = recorded[i]["metrics"] if resuming else adapter.train(manifest)
        entries.append(entry)
        if on_stage is not None:
            on_stage(entries)
    return entries
