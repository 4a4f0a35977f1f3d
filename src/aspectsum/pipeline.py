"""Stage orchestration over a workspace: ingest, probe, select, curriculum, eval.

Each stage reads its inputs from the workspace, writes its module's persisted
formats, and appends a ledger entry, the only record of the run. A current
stage, one whose config digest and inputs are unchanged, is a no-op (no LLM
calls, no rewrites), and a stage reads another stage's output only while that
stage is current. run_all chains the stages with fail-fast semantics: the
first failing stage raises and earlier artifacts stay intact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

from .clients import LlmClient, map_ordered
from .config import PipelineConfig
from .curriculum import (
    CANONICAL_STAGE_ORDER,
    Stage,
    StageManifest,
    TrainerAdapter,
    find_reserved_token,
    run_curriculum,
)
from .errors import DuplicateId, MissingPrerequisite, SchemaError
from .evaluation import evaluate_corpus
from .mock import EchoTrainerAdapter
from .probe import EmbeddingCache, ResponseCache, probe_rationales, render_probe_prompt
from .rationale import Document, rationale_from_json
from .selection import select_corpus, select_golden  # noqa: F401  (perfbench wraps select_golden)
from .textutil import stable_digest, token_count
from .topics import LdaModel, train_lda
from .workspace import Workspace, dump_json, dump_json_pretty, file_sha256


class _Protocol(NamedTuple):
    # Files are named by their Workspace `<name>_path` property.
    reads: tuple[str, ...]  # the inputs hashed into the stage digest, in order
    after: str | None  # the stage whose output this one reads; it must be current
    writes: tuple[str, ...]  # the outputs


_STAGES = {
    "ingest": _Protocol((), None, ("corpus", "ingest_report")),
    "probe": _Protocol(("corpus",), None, ("candidates", "discards")),
    "select": _Protocol(("corpus", "candidates"), "probe", ("selections", "lda_model")),
    "curriculum": _Protocol(("selections",), "select", ("curriculum_report",)),
    "eval": _Protocol(("selections", "candidates"), "select", ("eval_json", "eval_table")),
}


def _paths(ws: Workspace, names) -> list[Path]:
    return [getattr(ws, f"{name}_path") for name in names]


def _status(ws: Workspace, cfg: PipelineConfig, stage: str, extra=(), writes=()):
    """(digest, outputs, current) of the stage under this config and the files on disk.

    A stage is current when its recorded digest equals the one it would
    compute now and its outputs exist. The digest is None while an input is
    missing.
    """
    protocol = _STAGES[stage]
    reads = _paths(ws, protocol.reads)
    outputs = _paths(ws, protocol.writes) + list(writes)
    if not all(p.exists() for p in reads):
        return None, outputs, False
    digest = stable_digest(stage, cfg.digest(), *(file_sha256(p) for p in reads), *extra)[:16]
    recorded = ws.last_entry(stage).get("digest")
    return digest, outputs, recorded == digest and all(p.exists() for p in outputs)


def _run_stage(ws: Workspace, cfg: PipelineConfig, stage: str, work, extra=(), writes=()) -> dict:
    """Run work(digest), the stage's own work, unless the stage is current; record it.

    extra are digest parts hashed after the inputs; writes are outputs beyond
    the declared ones. A stage refuses, before writing anything, to read the
    output of an upstream stage that is not current.
    """
    protocol = _STAGES[stage]
    for name, path in zip(protocol.reads, _paths(ws, protocol.reads)):
        if not path.exists():
            raise MissingPrerequisite(name)
    after = protocol.after
    if after is not None and not _status(ws, cfg, after)[2]:
        raise MissingPrerequisite(
            f"{after} output matching this config and the current "
            f"{' and '.join(_STAGES[after].reads)}; re-run {after}"
        )
    digest, outputs, current = _status(ws, cfg, stage, extra, writes)
    recorded = ws.last_entry(stage).get("config_digest", cfg.digest())
    status = {"skipped": current, "config_changed": recorded != cfg.digest()}
    if current:
        return status
    result = work(digest)
    recorded_outputs = [p.relative_to(ws.root).as_posix() for p in outputs]
    ws.append_ledger(stage, digest, cfg.digest(), recorded_outputs)
    return dict(result, **status)


def stage_ingest(ws: Workspace, cfg: PipelineConfig, input_path: Path) -> dict:
    """Validate and persist JSONL records {id, document, summary}.

    A record is excluded (with a per-category count) when its document or
    summary has no tokens, it contains a reserved curriculum token, its
    document exceeds max_doc_tokens, or its summary exceeds
    max_summary_tokens; the first failing check wins.
    """
    input_path = Path(input_path)
    if not input_path.is_file():
        raise SchemaError(f"no input file at {input_path}")
    return _run_stage(
        ws, cfg, "ingest", lambda _: _ingest(ws, cfg, input_path), (file_sha256(input_path),)
    )


def _ingest(ws: Workspace, cfg: PipelineConfig, input_path: Path) -> dict:
    documents: list[Document] = []
    seen: set[str] = set()
    reasons = ("empty", "doc_too_long", "summary_too_long", "reserved_token")
    excluded_ids = {reason: [] for reason in reasons}
    total = 0
    with input_path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            total += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc.msg}", line=line_no) from exc
            if not isinstance(obj, dict):
                raise SchemaError("record is not a JSON object", line=line_no)
            for key in ("id", "document", "summary"):
                if key not in obj:
                    raise SchemaError(f"missing field {key!r}", line=line_no)
                if not isinstance(obj[key], str):
                    raise SchemaError(f"field {key!r} is not a string", line=line_no)
            doc_id = obj["id"]
            if not doc_id.strip():
                raise SchemaError("empty id", line=line_no)
            if doc_id in seen:
                raise DuplicateId(f"duplicate id {doc_id!r} at line {line_no}")
            seen.add(doc_id)

            text, summary = obj["document"], obj["summary"]
            if token_count(text) == 0 or token_count(summary) == 0:
                reason = "empty"
            elif find_reserved_token(text) or find_reserved_token(summary):
                reason = "reserved_token"
            elif token_count(text) > cfg.max_doc_tokens:
                reason = "doc_too_long"
            elif token_count(summary) > cfg.max_summary_tokens:
                reason = "summary_too_long"
            else:
                documents.append(Document(doc_id, text, summary))
                continue
            excluded_ids[reason].append(doc_id)

    if total == 0:
        raise SchemaError("input contains no records")

    ws.save_corpus(documents)
    report = {
        "total_records": total,
        "ingested": len(documents),
        "excluded": {reason: len(ids) for reason, ids in excluded_ids.items()},
        "excluded_ids": excluded_ids,
        "limits": {
            "max_doc_tokens": cfg.max_doc_tokens,
            "max_summary_tokens": cfg.max_summary_tokens,
        },
    }
    ws.write_text(ws.ingest_report_path, dump_json_pretty(report))
    return report


def stage_probe(ws: Workspace, cfg: PipelineConfig, client: LlmClient) -> dict:
    """Probe n rationale-summary candidates per document, with response caching."""
    return _run_stage(ws, cfg, "probe", lambda _: _probe(ws, cfg, client))


def _probe(ws: Workspace, cfg: PipelineConfig, client: LlmClient) -> dict:
    documents = ws.load_corpus()
    cache = ResponseCache(ws.cache_dir)
    probe_cfg = cfg.probe_config()
    # Records that render one prompt share its cached responses. Each prompt
    # is probed once, under its first id, and the others copy its candidates,
    # so the bytes do not depend on which worker reaches the cache first.
    prompts = [render_probe_prompt(doc) for doc in documents]
    first: dict[str, Document] = {}
    for prompt, doc in zip(prompts, documents):
        first.setdefault(prompt, doc)

    def work(doc: Document):
        discards = []
        candidate_set = probe_rationales(client, doc, probe_cfg, cache=cache, discards=discards)
        return candidate_set, discards

    results = dict(zip(first, map_ordered(work, list(first.values()), cfg.jobs)))
    sets = [replace(results[p][0], document_id=doc.id) for p, doc in zip(prompts, documents)]
    discards = [record for _, recs in results.values() for record in recs]

    ws.save_candidate_sets(sets)
    ws.write_text(
        ws.discards_path,
        "".join(dump_json(asdict(record)) + "\n" for record in discards),
    )
    return {
        "documents": len(documents),
        "candidates": sum(len(cs.candidates) for cs in sets),
        "discarded": len(discards),
    }


def _lda_model(ws: Workspace, cfg: PipelineConfig, documents: list[Document]) -> LdaModel:
    settings = dict(
        k=cfg.lda_k,
        alpha=cfg.lda_alpha,
        beta=cfg.lda_beta,
        iterations=cfg.lda_iterations,
        seed=cfg.lda_seed,
    )
    # "trainer" names the training method, so a model another method saved is retrained.
    key = dump_json(dict(settings, stopwords=cfg.stopwords, min_df=cfg.min_df, trainer="vb"))
    lda_digest = stable_digest("lda", key, file_sha256(ws.corpus_path))[:16]
    if ws.last_entry("lda").get("digest") == lda_digest and ws.lda_model_path.exists():
        return LdaModel.load(ws.lda_model_path)
    model = train_lda(documents, **settings, vocab_config=cfg.vocab_config())
    ws.lda_model_path.parent.mkdir(parents=True, exist_ok=True)
    model.save(ws.lda_model_path)
    ws.append_ledger("lda", lda_digest, cfg.digest(), ["lda/model.json"])
    return model


def stage_select(ws: Workspace, cfg: PipelineConfig, provider: LlmClient) -> dict:
    """Train/load the corpus LDA model and pick the golden rationale per document."""
    return _run_stage(ws, cfg, "select", lambda _: _select(ws, cfg, provider))


def _select(ws: Workspace, cfg: PipelineConfig, provider: LlmClient) -> dict:
    documents = ws.load_corpus()
    by_id = {d.id: d for d in documents}
    candidate_sets = ws.load_candidate_sets()
    for cs in candidate_sets:
        if cs.document_id not in by_id:
            raise MissingPrerequisite(f"corpus document {cs.document_id}")

    model = _lda_model(ws, cfg, documents)
    selection_cfg = cfg.selection_config()
    pairs = [(cs, by_id[cs.document_id]) for cs in candidate_sets]
    cache = EmbeddingCache(ws.cache_dir)
    results = select_corpus(pairs, model, provider, selection_cfg, cache, cfg.jobs)
    lines = [dump_json(result.to_json(selection_cfg)) for result in results]
    ws.write_text(ws.selections_path, "\n".join(lines) + ("\n" if lines else ""))
    return {"documents": len(results)}


def _manifest_filename(stage: Stage) -> str:
    return f"{CANONICAL_STAGE_ORDER.index(stage) + 1:02d}_{stage.value}"


def _golden_pairs(ws: Workspace) -> list:
    documents = {d.id: d for d in ws.load_corpus()}
    pairs = []
    for record in ws.load_selections():
        doc = documents.get(record["document_id"])
        if doc is None:
            raise MissingPrerequisite(f"corpus document {record['document_id']}")
        pairs.append((doc, rationale_from_json(record["golden_rationale"])))
    return pairs


def _recorded_stages(ws: Workspace, key: str) -> list[dict]:
    """The stage entries of the curriculum report, if it was written under this key."""
    try:
        report = json.loads(ws.curriculum_report_path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return []
    return report["stages"] if report.get("key") == key else []


def stage_curriculum(
    ws: Workspace,
    cfg: PipelineConfig,
    adapter: TrainerAdapter | None = None,
    stages: tuple[Stage, ...] | None = None,
    override_stage_order: bool = False,
) -> dict:
    """Build and write every stage manifest and train the adapter on each.

    The report, rewritten after each stage, is the resume point: a re-run
    under the same stage digest trains from the first stage whose manifest
    is new or changed.
    """
    stages = tuple(stages or CANONICAL_STAGE_ORDER)

    def work(digest: str) -> dict:
        pairs = _golden_pairs(ws)

        def on_manifest(manifest: StageManifest) -> None:
            name = _manifest_filename(manifest.stage)
            ws.write_text(ws.manifests_dir / f"{name}.jsonl", manifest.to_jsonl())
            meta = dump_json_pretty(manifest.meta())
            ws.write_text(ws.manifests_dir / f"{name}.meta.json", meta)

        def on_stage(entries: list[dict]) -> None:
            report = {"key": digest, "stages": entries}
            ws.write_text(ws.curriculum_report_path, dump_json_pretty(report))

        entries = run_curriculum(
            pairs,
            adapter or EchoTrainerAdapter(pairs),
            stages=stages,
            override_stage_order=override_stage_order,
            recorded=_recorded_stages(ws, digest),
            on_manifest=on_manifest,
            on_stage=on_stage,
            lambda_rationale=cfg.lambda_rationale,
            lambda_summary=cfg.lambda_summary,
        )
        return {"stages": [entry["stage"] for entry in entries], "documents": len(pairs)}

    plan_key = (",".join(s.value for s in stages), str(override_stage_order))
    manifests = [ws.manifests_dir / f"{_manifest_filename(s)}.jsonl" for s in stages]
    return _run_stage(ws, cfg, "curriculum", work, plan_key, manifests)


def stage_eval(
    ws: Workspace,
    cfg: PipelineConfig,
    external_scores: Path | None = None,
) -> dict:
    """ROUGE-score each document's golden candidate summary against the ground truth."""
    if external_scores is not None and not Path(external_scores).is_file():
        raise SchemaError(f"no external scores file at {external_scores}")
    external = file_sha256(str(external_scores)) if external_scores else ""
    return _run_stage(ws, cfg, "eval", lambda _: _eval(ws, external_scores), (external,))


def _eval(ws: Workspace, external_scores: Path | None) -> dict:
    documents = {d.id: d for d in ws.load_corpus()}
    candidate_sets = {cs.document_id: cs for cs in ws.load_candidate_sets()}
    ids = []
    pairs = []
    for record in ws.load_selections():
        doc_id, golden_index = record["document_id"], record["golden_index"]
        # Guards against a hand-edited selections file.
        if doc_id not in documents:
            raise MissingPrerequisite(f"corpus document {doc_id}")
        if doc_id not in candidate_sets:
            raise MissingPrerequisite(f"candidate set of document {doc_id}")
        candidates = candidate_sets[doc_id].candidates
        if not 0 <= golden_index < len(candidates):
            raise MissingPrerequisite(f"candidate {golden_index} of document {doc_id}")
        ids.append(doc_id)
        pairs.append((candidates[golden_index].summary, documents[doc_id].ground_truth_summary))

    report = evaluate_corpus(pairs)
    obj = report.to_json()
    obj["document_ids"] = ids
    if external_scores is not None:
        loaded = json.loads(Path(external_scores).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise SchemaError("external scores file must contain a JSON object")
        obj["external"] = loaded

    ws.write_text(ws.eval_json_path, dump_json_pretty(obj))
    ws.write_text(ws.eval_table_path, report.to_table())
    return {
        "documents": report.count,
        "mean_rouge1_f1": report.mean_rouge1.f1,
        "mean_rouge2_f1": report.mean_rouge2.f1,
        "mean_rougeL_f1": report.mean_rouge_l.f1,
    }


def run_all(
    ws: Workspace,
    cfg: PipelineConfig,
    input_path: Path,
    client: LlmClient,
    adapter: TrainerAdapter | None = None,
    external_scores: Path | None = None,
) -> dict:
    """Chain ingest -> probe -> select -> curriculum -> eval, fail-fast."""
    return {
        "ingest": stage_ingest(ws, cfg, input_path),
        "probe": stage_probe(ws, cfg, client),
        "select": stage_select(ws, cfg, client),
        "curriculum": stage_curriculum(ws, cfg, adapter=adapter),
        "eval": stage_eval(ws, cfg, external_scores=external_scores),
    }
