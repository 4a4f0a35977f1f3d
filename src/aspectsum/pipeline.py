"""Stage orchestration over a workspace: ingest, probe, select, curriculum, eval.

Each stage reads its inputs from the workspace, writes its module's persisted
formats, and appends a ledger line as it begins and one as it ends, the only
record of the run. A current stage, one whose config and inputs are unchanged,
is a no-op (no LLM calls, no rewrites), and a stage reads another stage's
output only while that stage is current. run_all chains the stages with
fail-fast semantics: the first failing stage raises and earlier artifacts stay intact.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from array import array
from collections import deque
from collections.abc import Iterator
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import NamedTuple

from .clients import LlmClient, batched, map_ordered
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
from .evaluation import EvalReport, evaluate_corpus
from .helpers import Helper, can_fork
from .mock import EchoTrainerAdapter
from .probe import (
    EmbeddingCache,
    ResponseCache,
    probe_rationales,
    render_probe_prompt,
)
from .rationale import Document, candidate_set_to_json, rationale_from_json
from .selection import select_each, select_golden  # noqa: F401  (perfbench wraps select_golden)
from .textutil import stable_digest, token_count
from .topics import LdaModel, fold_in_helpers, train_lda
from .workspace import (
    Workspace,
    checked,
    dump_json_pretty,
    dump_json_pretty_chunks,
    file_sha256,
    jsonl_lines,
    next_with_id,
    read_json_object,
)


# Pairs scored per evaluate_corpus call in eval. Batches bound memory to one
# batch of summaries, and each call gets a list, whose len perfbench's tracer reads.
_EVAL_BATCH = 128


class _Protocol(NamedTuple):
    # A file is named by its Workspace `<name>_path` property, or by its curriculum Stage.
    reads: tuple[str, ...]  # the inputs hashed into the stage digest, in order
    after: str | None  # the stage whose output this one reads; it must be current
    writes: tuple[str | Stage, ...]  # the outputs
    config: tuple[str, ...] | None = None  # the config fields hashed; None: all but jobs


_STAGES = {
    "ingest": _Protocol((), None, ("corpus", "ingest_report")),
    "probe": _Protocol(("corpus",), None, ("candidates", "discards")),
    "lda": _Protocol(  # runs in select, which lists lda_model too: deleting it re-runs both
        ("corpus",), None, ("lda_model",),
        ("lda_k", "lda_alpha", "lda_beta", "lda_iterations", "seed", "stopwords", "min_df"),
    ),
    "select": _Protocol(("corpus", "candidates"), "probe", ("selections", "lda_model")),
    "curriculum": _Protocol(  # the sidecars record the corpus that the manifests name
        ("selections", "corpus"), "select", ("curriculum_report", *CANONICAL_STAGE_ORDER)
    ),
    "eval": _Protocol(("selections", "candidates"), "select", ("eval_json", "eval_table")),
}


def _sha256(ws: Workspace, path: Path) -> str:
    """file_sha256(path), hashed once per Workspace while the file keeps its size,
    modification time and inode.

    An edit that keeps all three within one tick of the file system's clock
    goes unseen (cf. https://git-scm.com/docs/racy-git); a new Workspace,
    as in a new process, hashes every file afresh. file_sha256 is looked up
    at each call, so a tracer that wraps it sees each file actually read.
    """
    stat = os.stat(path)
    stamp = (stat.st_size, stat.st_mtime_ns, stat.st_ino)
    key = os.path.abspath(path)
    known = ws.file_hashes.get(key)
    if known is None or known[0] != stamp:
        known = ws.file_hashes[key] = (stamp, file_sha256(path))
    return known[1]


def _paths(ws: Workspace, names) -> list[Path]:
    paths = []
    for n in names:
        paths += ws.manifest_paths(n) if isinstance(n, Stage) else [getattr(ws, f"{n}_path")]
    return paths


def _status(ws: Workspace, cfg: PipelineConfig, stage: str, extra=()):
    """(digest, outputs, current) of the stage under this config and the files on disk.

    A stage is current when its recorded digest equals the one it would
    compute now and its outputs exist. The digest is None while an input is
    missing.
    """
    protocol = _STAGES[stage]
    reads = _paths(ws, protocol.reads)
    outputs = _paths(ws, protocol.writes)
    if not all(p.exists() for p in reads):
        return None, outputs, False
    config = cfg.digest(protocol.config)
    digest = stable_digest(stage, config, *(_sha256(ws, p) for p in reads), *extra)[:16]
    recorded = ws.last_entry(stage).get("digest")
    return digest, outputs, recorded == digest and all(p.exists() for p in outputs)


def _run_stage(ws: Workspace, cfg: PipelineConfig, stage: str, work, extra=()) -> dict:
    """Run work(digest), the stage's own work, unless the stage is current; record it.

    extra are digest parts hashed after the inputs: the hashes of input files
    outside the workspace. A stage refuses, before writing anything, to read
    the output of an upstream stage that is not current.
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
    digest, outputs, current = _status(ws, cfg, stage, extra)
    recorded = ws.last_entry(stage).get("config_digest", cfg.digest())
    status = {"skipped": current, "config_changed": recorded != cfg.digest()}
    if current:
        return status
    # Until the closing line lands the stage reads stale, so a killed run redoes it.
    ws.append_ledger(stage, None, cfg.digest(), [])
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
        ws, cfg, "ingest", lambda _: _ingest(ws, cfg, input_path), (_sha256(ws, input_path),)
    )


def _ingest(ws: Workspace, cfg: PipelineConfig, input_path: Path) -> dict:
    def record(obj: dict) -> tuple[str, Document | str]:
        """(id, the Document, or for an excluded record only the reason)."""
        checked(obj, id=str, document=str, summary=str)
        doc_id, text, summary = obj["id"], obj["document"], obj["summary"]
        if not doc_id.strip():
            raise SchemaError("empty id")
        if token_count(text) == 0 or token_count(summary) == 0:
            return doc_id, "empty"
        if find_reserved_token(text) or find_reserved_token(summary):
            return doc_id, "reserved_token"
        if token_count(text) > cfg.max_doc_tokens:
            return doc_id, "doc_too_long"
        if token_count(summary) > cfg.max_summary_tokens:
            return doc_id, "summary_too_long"
        return doc_id, Document(doc_id, text, summary)

    seen: set[str] = set()  # every id, for the duplicate check
    excluded_ids = {r: [] for r in ("empty", "doc_too_long", "summary_too_long", "reserved_token")}

    def documents():
        for doc_id, kept in ws.read_jsonl(input_path, record):
            if doc_id in seen:
                raise DuplicateId(f"duplicate id {doc_id!r} in {input_path}")
            seen.add(doc_id)
            if isinstance(kept, Document):
                yield asdict(kept)
            else:
                excluded_ids[kept].append(doc_id)
        if not seen:
            raise SchemaError(f"no records in {input_path}")

    # Each line is written as it is read; a bad record leaves the old corpus.
    ws.write_jsonl(ws.corpus_path, documents())
    excluded = {reason: len(ids) for reason, ids in excluded_ids.items()}
    report = {
        "total_records": len(seen),
        "ingested": len(seen) - sum(excluded.values()),
        "excluded": excluded,
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
    probe_cfg = cfg.probe_config()
    namespace = client.cache_namespace
    n = probe_cfg.n_samples
    # Per document handed to the workers and not yet written, in order: its
    # prompt, the cached row read for it and the copy a worker fills; or
    # None when a document in flight has its prompt. So each prompt is
    # probed once, under its first id, whichever worker finishes first; a
    # prompt written earlier finds every slot in the cache.
    unwritten: deque[tuple[str, list, list] | None] = deque()

    def read(prompt: str) -> tuple[str, list, list]:
        cached = cache.lookup(namespace, prompt, n) or [None] * n
        return prompt, cached, list(cached)

    def write(entry: tuple[str, list, list]) -> None:
        prompt, cached, row = entry
        if row != cached:
            cache.store(namespace, prompt, row)

    def handed_out(documents):  # on this thread, before a worker takes the document
        for doc in documents:
            prompt = render_probe_prompt(doc)  # the document's one render
            in_flight = any(entry is not None and entry[0] == prompt for entry in unwritten)
            entry = None if in_flight else read(prompt)
            unwritten.append(entry)
            yield doc, prompt, None if entry is None else entry[2]

    def work(item: tuple[Document, str, list | None]):
        # On a worker thread: completions, parsing and retries, and no cache.
        doc, prompt, row = item
        if row is None:
            return doc, prompt, None, []
        discards = []
        candidate_set = probe_rationales(
            client, doc, probe_cfg, row=row, discards=discards, prompt=prompt
        )
        return doc, prompt, candidate_set, discards

    counts = {"documents": 0, "candidates": 0, "discarded": 0}

    def candidate_lines(results, spool):
        for doc, prompt, candidate_set, discards in results:
            entry = unwritten.popleft()
            if entry is None:  # an earlier record's probe stored this prompt's responses
                entry = read(prompt)
                candidate_set = probe_rationales(
                    client, doc, probe_cfg, row=entry[2], prompt=prompt
                )
            write(entry)
            cache.commit()  # a killed run re-asks only for the documents not yet written
            spool.writelines(jsonl_lines(map(asdict, discards)))
            counts["documents"] += 1
            counts["candidates"] += len(candidate_set.candidates)
            counts["discarded"] += len(discards)
            yield candidate_set_to_json(candidate_set)

    # The discards, each with its whole response, wait in an unnamed
    # temporary file until candidates.jsonl is complete. The workers stop
    # before the cache closes, also when that write fails part way, and the
    # rows of the documents they finished are stored first.
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spool:
        with ResponseCache(ws.cache_dir) as cache:
            try:
                results = map_ordered(work, handed_out(ws.corpus()), cfg.jobs)
                with contextlib.closing(results):
                    ws.write_jsonl(ws.candidates_path, candidate_lines(results, spool))
            finally:
                for entry in filter(None, unwritten):
                    write(entry)
        spool.seek(0)
        ws.write_text(ws.discards_path, spool)
    return counts


class _Training(NamedTuple):
    """A helper training the LDA model for the lda stage digest it was started under."""

    digest: str
    helper: Helper


def _train(ws: Workspace, cfg: PipelineConfig) -> LdaModel:
    settings = dict(k=cfg.lda_k, alpha=cfg.lda_alpha, beta=cfg.lda_beta, seed=cfg.lda_seed)
    vocab = cfg.vocab_config()
    documents = ws.load_corpus()  # the one time a stage holds the whole corpus
    return train_lda(documents, iterations=cfg.lda_iterations, vocab_config=vocab, **settings)


def _start_training(ws: Workspace, cfg: PipelineConfig) -> _Training | None:
    """A helper that trains the LDA model, under --jobs 2 or more, if the lda
    stage is stale and a helper can be forked; else None."""
    if not can_fork(cfg.jobs):
        return None
    digest, _, current = _status(ws, cfg, "lda")
    if digest is None or current:
        return None
    helper = Helper(lambda _: _train(ws, cfg))
    helper.submit(None)
    return _Training(digest, helper)


def stage_select(
    ws: Workspace, cfg: PipelineConfig, provider: LlmClient, training: _Training | None = None
) -> dict:
    """Train/load the corpus LDA model and pick the golden rationale per document.

    training is the helper that run_all started on the model; select takes
    its model when it was started under the current lda digest.
    """
    return _run_stage(ws, cfg, "select", lambda _: _select(ws, cfg, provider, training))


def _select(
    ws: Workspace, cfg: PipelineConfig, provider: LlmClient, training: _Training | None
) -> dict:
    def train(digest: str) -> dict:
        compute = partial(_train, ws, cfg)
        if training is not None and training.digest == digest:
            model = training.helper.result(compute)
        else:
            model = compute()
        ws.write_text(ws.lda_model_path, model.dumps())
        return {"model": model}

    lda = _run_stage(ws, cfg, "lda", train)
    try:  # no digest covers the saved model, so its damage shows only here
        model = LdaModel.load(ws.lda_model_path) if lda["skipped"] else lda["model"]
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise SchemaError(
            f"damaged LDA model {ws.lda_model_path} ({reason}); delete it to retrain the model"
        ) from None
    selection_cfg = cfg.selection_config()
    pairs = _with_documents(ws, ws.candidate_sets(), lambda cs: cs.document_id)
    documents = 0

    def selection_lines():
        nonlocal documents
        for result in select_each(pairs, model, provider, selection_cfg, cache, helpers):
            documents += 1
            yield result.to_json(selection_cfg)

    # The helpers are forked before the cache opens, once probe's threads are joined.
    with (
        fold_in_helpers(model, selection_cfg.fold_in_iterations, cfg.jobs) as helpers,
        EmbeddingCache(ws.cache_dir) as cache,
    ):
        ws.write_jsonl(ws.selections_path, selection_lines())
    return {"documents": documents}


def _with_documents(ws: Workspace, records, document_id) -> Iterator[tuple]:
    """(record, its corpus Document) for each record, in one pass over the corpus."""
    documents = ws.corpus()
    for record in records:
        wanted = document_id(record)
        missing = f"corpus document {wanted}, in corpus order"
        yield record, next_with_id(documents, wanted, lambda doc: doc.id, missing)


def _selected(ws: Workspace) -> Iterator[tuple[dict, Document]]:
    """Each selection record with its corpus document, in selection order."""
    return _with_documents(ws, ws.selections(), lambda record: record["document_id"])


def _recorded_stages(ws: Workspace, key: str) -> list[dict]:
    """The stage entries of the curriculum report, if it was written under this key;
    none, so that every stage trains, if it is missing or damaged."""
    try:
        report = json.loads(ws.curriculum_report_path.read_text(encoding="utf-8"))
        stages = report["stages"] if report["key"] == key else []
    except (FileNotFoundError, ValueError, TypeError, KeyError):
        return []
    fields = {"stage", "digest", "metrics"}
    if isinstance(stages, list) and all(isinstance(e, dict) and fields <= e.keys() for e in stages):
        return stages
    return []


def stage_curriculum(
    ws: Workspace, cfg: PipelineConfig, adapter: TrainerAdapter | None = None
) -> dict:
    """Build and write the six stage manifests and train the adapter on each.

    The report, rewritten after each stage, is the resume point: a re-run
    under the same stage digest trains from the first stage whose manifest
    is new or changed.
    """

    def work(digest: str) -> dict:
        pairs = [(doc, rationale_from_json(r["golden_rationale"])) for r, doc in _selected(ws)]
        corpus_sha256 = _sha256(ws, ws.corpus_path)  # what manifest_examples checks

        def on_manifest(manifest: StageManifest) -> None:
            jsonl, meta = ws.manifest_paths(manifest.stage)
            ws.write_text(jsonl, manifest.to_jsonl())
            sidecar = dict(manifest.meta(), corpus_sha256=corpus_sha256)
            ws.write_text(meta, dump_json_pretty(sidecar))

        def on_stage(entries: list[dict]) -> None:
            report = {"key": digest, "stages": entries}
            ws.write_text(ws.curriculum_report_path, dump_json_pretty(report))

        entries = run_curriculum(
            pairs,
            adapter or EchoTrainerAdapter(pairs),
            recorded=_recorded_stages(ws, digest),
            on_manifest=on_manifest,
            on_stage=on_stage,
            lambda_rationale=cfg.lambda_rationale,
            lambda_summary=cfg.lambda_summary,
        )
        return {"stages": [entry["stage"] for entry in entries], "documents": len(pairs)}

    return _run_stage(ws, cfg, "curriculum", work)


def stage_eval(
    ws: Workspace,
    cfg: PipelineConfig,
    external_scores: Path | None = None,
) -> dict:
    """ROUGE-score each document's golden candidate summary against the ground truth."""
    external, extra = None, ()
    if external_scores is not None:
        external = read_json_object(external_scores, "external scores file")
        extra = (_sha256(ws, external_scores),)
    return _run_stage(ws, cfg, "eval", lambda _: _eval(ws, external), extra)


def _eval(ws: Workspace, external: dict | None) -> dict:
    def pairs():
        # select parsed these same bytes and is current, so the summaries suffice.
        candidate_sets = ws.read_jsonl(
            ws.candidates_path,
            lambda o: (o["document_id"], [c["summary"] for c in o["candidates"]]),
        )
        for record, doc in _selected(ws):
            doc_id, golden_index = doc.id, record["golden_index"]
            missing = f"candidate set of document {doc_id}"
            _, candidates = next_with_id(candidate_sets, doc_id, lambda cs: cs[0], missing)
            if not 0 <= golden_index < len(candidates):
                raise MissingPrerequisite(f"candidate {golden_index} of document {doc_id}")
            yield candidates[golden_index], doc.ground_truth_summary

    values = array("d")
    for batch in batched(pairs(), _EVAL_BATCH):
        values.extend(evaluate_corpus(batch).values)
    report = EvalReport(values)
    obj = report.to_json(lazy=True)
    # The ids are read again, after the count that the report lists first.
    obj["document_ids"] = ws.read_jsonl(ws.selections_path, lambda o: o["document_id"])
    if external is not None:
        obj["external"] = external

    ws.write_text(ws.eval_json_path, dump_json_pretty_chunks(obj))
    ws.write_text(ws.eval_table_path, report.table_lines())
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
    """Chain ingest -> probe -> select -> curriculum -> eval, fail-fast.

    Under --jobs 2 or more a helper forked after ingest, while one thread
    runs and no cache is open, trains the LDA model while probe runs.
    """
    results = {"ingest": stage_ingest(ws, cfg, input_path)}
    training = _start_training(ws, cfg)
    with training.helper if training else contextlib.nullcontext():
        results["probe"] = stage_probe(ws, cfg, client)
        results["select"] = stage_select(ws, cfg, client, training=training)
    results["curriculum"] = stage_curriculum(ws, cfg, adapter=adapter)
    results["eval"] = stage_eval(ws, cfg, external_scores=external_scores)
    return results
