"""Stage orchestration over a workspace: ingest, probe, select, curriculum, eval.

Each stage reads its inputs from the workspace, writes its module's persisted
formats, and appends a ledger entry. A completed stage whose config digest
and inputs are unchanged is a no-op (no LLM calls, no rewrites). run_all
chains the stages with fail-fast semantics: the first failing stage raises
and earlier artifacts stay intact.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .clients import LlmClient
from .config import PipelineConfig
from .curriculum import (
    CANONICAL_STAGE_ORDER,
    CurriculumPlan,
    Stage,
    StageManifest,
    TrainerAdapter,
    find_reserved_token,
    run_curriculum,
)
from .errors import DuplicateId, MissingPrerequisite, SchemaError
from .evaluation import evaluate_corpus
from .mock import EchoTrainerAdapter
from .probe import EmbeddingCache, ResponseCache, probe_rationales
from .rationale import Document, rationale_from_json
from .selection import select_golden
from .textutil import stable_digest, token_count
from .topics import LdaModel, train_lda
from .workspace import Workspace, dump_json, dump_json_pretty, file_sha256


def _map_ordered(fn, items, jobs: int):
    """Apply fn to items, optionally on a bounded thread pool, keeping order."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _stage_status(ws: Workspace, stage: str, digest: str, outputs: list[Path]) -> dict:
    recorded = ws.stage_digest(stage)
    up_to_date = recorded == digest and all(p.exists() for p in outputs)
    return {
        "skipped": up_to_date,
        "config_changed": recorded is not None and recorded != digest,
    }


def stage_ingest(ws: Workspace, cfg: PipelineConfig, input_path: Path) -> dict:
    """Validate and persist JSONL records {id, document, summary}.

    A record is excluded (with a per-category count) when it contains a
    reserved curriculum token, its document exceeds max_doc_tokens, or its
    summary exceeds max_summary_tokens; the first failing check wins.
    """
    input_path = Path(input_path)
    if not input_path.exists():
        raise SchemaError(f"input file not found: {input_path}")
    digest = stable_digest("ingest", cfg.digest(), file_sha256(input_path))[:16]
    status = _stage_status(ws, "ingest", digest, [ws.corpus_path, ws.ingest_report_path])
    if status["skipped"]:
        report = json.loads(ws.ingest_report_path.read_text(encoding="utf-8"))
        report.update(status)
        return report

    documents: list[Document] = []
    seen: set[str] = set()
    excluded = {"doc_too_long": 0, "summary_too_long": 0, "reserved_token": 0}
    excluded_ids: dict[str, list[str]] = {k: [] for k in excluded}
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
            token = find_reserved_token(text) or find_reserved_token(summary)
            if token is not None:
                excluded["reserved_token"] += 1
                excluded_ids["reserved_token"].append(doc_id)
                continue
            if token_count(text) > cfg.max_doc_tokens:
                excluded["doc_too_long"] += 1
                excluded_ids["doc_too_long"].append(doc_id)
                continue
            if token_count(summary) > cfg.max_summary_tokens:
                excluded["summary_too_long"] += 1
                excluded_ids["summary_too_long"].append(doc_id)
                continue
            documents.append(Document.create(doc_id, text, summary))

    if total == 0:
        raise SchemaError("input contains no records")

    ws.save_corpus(documents)
    report = {
        "total_records": total,
        "ingested": len(documents),
        "excluded": excluded,
        "excluded_ids": excluded_ids,
        "limits": {
            "max_doc_tokens": cfg.max_doc_tokens,
            "max_summary_tokens": cfg.max_summary_tokens,
        },
    }
    ws.write_text(ws.ingest_report_path, dump_json_pretty(report))
    ws.mark_stage("ingest", digest)
    ws.append_ledger("ingest", cfg.digest(), ["corpus/documents.jsonl", "corpus/ingest_report.json"])
    report.update(status)
    return report


def stage_probe(ws: Workspace, cfg: PipelineConfig, client: LlmClient) -> dict:
    """Probe n rationale-summary candidates per document, with response caching."""
    if not ws.corpus_path.exists():
        raise MissingPrerequisite("corpus")
    digest = stable_digest("probe", cfg.digest(), file_sha256(ws.corpus_path))[:16]
    status = _stage_status(ws, "probe", digest, [ws.candidates_path])
    if status["skipped"]:
        return {"skipped": True, "config_changed": status["config_changed"]}

    documents = ws.load_corpus()
    cache = ResponseCache(ws.cache_dir)
    probe_cfg = cfg.probe_config()

    def work(doc: Document):
        discards = []
        candidate_set = probe_rationales(client, doc, probe_cfg, cache=cache, discards=discards)
        return candidate_set, discards

    results = _map_ordered(work, documents, cfg.jobs)
    sets = [cs for cs, _ in results]
    discards = [record for _, recs in results for record in recs]

    ws.save_candidate_sets(sets)
    ws.write_text(
        ws.discards_path,
        "".join(dump_json(asdict(record)) + "\n" for record in discards),
    )
    ws.mark_stage("probe", digest)
    ws.append_ledger(
        "probe", cfg.digest(), ["candidates/candidates.jsonl", "candidates/discards.jsonl"]
    )
    return {
        "documents": len(documents),
        "candidates": sum(len(cs.candidates) for cs in sets),
        "discarded": len(discards),
        "skipped": False,
        "config_changed": status["config_changed"],
    }


def _lda_model(ws: Workspace, cfg: PipelineConfig, documents: list[Document]) -> LdaModel:
    lda_digest = stable_digest(
        "lda",
        dump_json(
            {
                "k": cfg.lda_k,
                "alpha": cfg.lda_alpha,
                "beta": cfg.lda_beta,
                "iterations": cfg.lda_iterations,
                "seed": cfg.lda_seed,
                "stopwords": cfg.stopwords,
                "min_df": cfg.min_df,
            }
        ),
        file_sha256(ws.corpus_path),
    )[:16]
    if ws.stage_digest("lda") == lda_digest and ws.lda_model_path.exists():
        return LdaModel.load(ws.lda_model_path)
    model = train_lda(
        documents,
        k=cfg.lda_k,
        alpha=cfg.lda_alpha,
        beta=cfg.lda_beta,
        iterations=cfg.lda_iterations,
        seed=cfg.lda_seed,
        vocab_config=cfg.vocab_config(),
    )
    ws.lda_model_path.parent.mkdir(parents=True, exist_ok=True)
    model.save(ws.lda_model_path)
    ws.mark_stage("lda", lda_digest)
    return model


def stage_select(ws: Workspace, cfg: PipelineConfig, provider: LlmClient) -> dict:
    """Train/load the corpus LDA model and pick the golden rationale per document."""
    if not ws.corpus_path.exists():
        raise MissingPrerequisite("corpus")
    if not ws.candidates_path.exists():
        raise MissingPrerequisite("candidates")
    digest = stable_digest(
        "select", cfg.digest(), file_sha256(ws.corpus_path), file_sha256(ws.candidates_path)
    )[:16]
    status = _stage_status(ws, "select", digest, [ws.selections_path])
    if status["skipped"]:
        return {"skipped": True, "config_changed": status["config_changed"]}

    documents = ws.load_corpus()
    by_id = {d.id: d for d in documents}
    candidate_sets = ws.load_candidate_sets()
    for cs in candidate_sets:
        if cs.document_id not in by_id:
            raise MissingPrerequisite(f"corpus document {cs.document_id}")

    model = _lda_model(ws, cfg, documents)
    selection_cfg = cfg.selection_config()
    embedding_cache = EmbeddingCache(ws.cache_dir)

    def work(cs):
        return select_golden(
            cs, by_id[cs.document_id], model, provider, selection_cfg, cache=embedding_cache
        )

    results = _map_ordered(work, candidate_sets, cfg.jobs)
    lines = [dump_json(result.to_json(selection_cfg)) for result in results]
    ws.write_text(ws.selections_path, "\n".join(lines) + ("\n" if lines else ""))
    ws.mark_stage("select", digest)
    ws.append_ledger(
        "select", cfg.digest(), ["selection/selections.jsonl", "lda/model.json"]
    )
    return {
        "documents": len(results),
        "skipped": False,
        "config_changed": status["config_changed"],
    }


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


def stage_curriculum(
    ws: Workspace,
    cfg: PipelineConfig,
    adapter: TrainerAdapter | None = None,
    stages: tuple[Stage, ...] | None = None,
    override_stage_order: bool = False,
) -> dict:
    """Build stage manifests, run the curriculum, and persist the report."""
    if not ws.selections_path.exists():
        raise MissingPrerequisite("selections")
    plan = CurriculumPlan(tuple(stages or CANONICAL_STAGE_ORDER), override_stage_order)
    digest = stable_digest(
        "curriculum",
        cfg.digest(),
        file_sha256(ws.selections_path),
        ",".join(s.value for s in plan.stages),
        str(plan.override_stage_order),
    )[:16]
    status = _stage_status(ws, "curriculum", digest, [ws.curriculum_report_path])
    if status["skipped"]:
        return {"skipped": True, "config_changed": status["config_changed"]}

    pairs = _golden_pairs(ws)
    if adapter is None:
        adapter = EchoTrainerAdapter(pairs)

    def on_manifest(manifest: StageManifest) -> None:
        name = _manifest_filename(manifest.stage)
        ws.write_text(ws.manifests_dir / f"{name}.jsonl", manifest.to_jsonl())
        ws.write_text(ws.manifests_dir / f"{name}.meta.json", dump_json_pretty(manifest.meta()))

    report = run_curriculum(
        plan,
        pairs,
        adapter,
        on_manifest=on_manifest,
        checkpoint_path=ws.checkpoint_path,
        checkpoint_key=digest,
    )
    ws.write_text(ws.curriculum_report_path, dump_json_pretty(report.to_json()))
    outputs = [f"manifests/{_manifest_filename(s)}.jsonl" for s in plan.stages]
    ws.mark_stage("curriculum", digest)
    ws.append_ledger("curriculum", cfg.digest(), outputs + ["curriculum/report.json"])
    return {
        "stages": [run.stage.value for run in report.stages],
        "documents": len(pairs),
        "skipped": False,
        "config_changed": status["config_changed"],
    }


def stage_eval(
    ws: Workspace,
    cfg: PipelineConfig,
    external_scores: Path | None = None,
) -> dict:
    """ROUGE-score each document's golden candidate summary against the ground truth."""
    for path, name in (
        (ws.corpus_path, "corpus"),
        (ws.candidates_path, "candidates"),
        (ws.selections_path, "selections"),
    ):
        if not path.exists():
            raise MissingPrerequisite(name)
    digest = stable_digest(
        "eval",
        cfg.digest(),
        file_sha256(ws.selections_path),
        file_sha256(ws.candidates_path),
        file_sha256(str(external_scores)) if external_scores else "",
    )[:16]
    status = _stage_status(ws, "eval", digest, [ws.eval_json_path, ws.eval_table_path])
    if status["skipped"]:
        return {"skipped": True, "config_changed": status["config_changed"]}

    documents = {d.id: d for d in ws.load_corpus()}
    candidate_sets = {cs.document_id: cs for cs in ws.load_candidate_sets()}
    ids = []
    pairs = []
    for record in ws.load_selections():
        doc_id, golden_index = record["document_id"], record["golden_index"]
        # Selections can be stale against a later ingest or probe run.
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
    ws.mark_stage("eval", digest)
    ws.append_ledger("eval", cfg.digest(), ["eval/report.json", "eval/report.txt"])
    return {
        "documents": report.count,
        "mean_rouge1_f1": report.mean_rouge1.f1,
        "mean_rouge2_f1": report.mean_rouge2.f1,
        "mean_rougeL_f1": report.mean_rouge_l.f1,
        "skipped": False,
        "config_changed": status["config_changed"],
    }


def run_all(
    ws: Workspace,
    cfg: PipelineConfig,
    input_path: Path,
    client: LlmClient,
    adapter: TrainerAdapter | None = None,
    override_stage_order: bool = False,
    external_scores: Path | None = None,
) -> dict:
    """Chain ingest -> probe -> select -> curriculum -> eval, fail-fast."""
    return {
        "ingest": stage_ingest(ws, cfg, input_path),
        "probe": stage_probe(ws, cfg, client),
        "select": stage_select(ws, cfg, client),
        "curriculum": stage_curriculum(
            ws, cfg, adapter=adapter, override_stage_order=override_stage_order
        ),
        "eval": stage_eval(ws, cfg, external_scores=external_scores),
    }
