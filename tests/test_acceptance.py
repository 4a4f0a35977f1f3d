"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Expected values are either frozen hand arithmetic or computed by independent
oracles implemented in this module (never by the code under test).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from functools import lru_cache
from pathlib import Path

from aspectsum.cli import main as cli_main
from aspectsum.curriculum import (
    ASPECTS_TOKEN,
    SUMMARY_TOKEN,
    TRIPLES_TOKEN,
    TaskKind,
    build_concurrent_early_manifest,
    build_concurrent_late_manifest,
    build_joint_manifest,
    split_joint_target,
)
from aspectsum.errors import MalformedRationale
from aspectsum.evaluation import rouge_l, rouge_n
from aspectsum.mock import EchoTrainerAdapter
from aspectsum.pipeline import stage_ingest
from aspectsum.rationale import (
    Aspect,
    Document,
    Rationale,
    Triple,
    parse_rationale,
    serialize_aspects,
    serialize_rationale,
    serialize_triples,
)
from aspectsum.selection import (
    ScoredCandidate,
    argmax_combined,
    coherence_score_from_kl,
    combine_scores,
    summary_score_from_sims,
)
from aspectsum.topics import TopicDistribution, infer_topics, kl_divergence, train_lda
from aspectsum.workspace import Workspace
from conftest import random_rationale, synthetic_records, write_jsonl


def _check(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- criterion 1: ROUGE oracle suite -------------------------------------------


def _oracle_tokens(text: str) -> list[str]:
    # Independent tokenizer: manual character scan.
    out, current = [], []
    for ch in text.lower():
        if ch.isalnum() and ch != "_":
            current.append(ch)
        elif current:
            out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return out


def _oracle_clipped_overlap(cand: list[tuple], ref: list[tuple]) -> int:
    used = [False] * len(ref)
    overlap = 0
    for gram in cand:
        for j, other in enumerate(ref):
            if not used[j] and other == gram:
                used[j] = True
                overlap += 1
                break
    return overlap


def _oracle_prf(overlap: int, n_cand: int, n_ref: int):
    if n_cand == 0 or n_ref == 0:
        return (0.0, 0.0, 0.0)
    p = overlap / n_cand
    r = overlap / n_ref
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return (p, r, f)


def _oracle_rouge_n(candidate: str, reference: str, n: int):
    cand = [tuple(w) for w in zip(*[_oracle_tokens(candidate)[i:] for i in range(n)])]
    ref = [tuple(w) for w in zip(*[_oracle_tokens(reference)[i:] for i in range(n)])]
    return _oracle_prf(_oracle_clipped_overlap(cand, ref), len(cand), len(ref))


def _oracle_rouge_l(candidate: str, reference: str):
    a = tuple(_oracle_tokens(candidate))
    b = tuple(_oracle_tokens(reference))

    @lru_cache(maxsize=None)
    def lcs(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return lcs(i - 1, j - 1) + 1
        return max(lcs(i - 1, j), lcs(i, j - 1))

    return _oracle_prf(lcs(len(a), len(b)), len(a), len(b))


ROUGE_PAIRS = [
    ("the cat sat", "the cat ran"),
    ("the cat sat on the mat", "the cat sat on the mat"),
    ("a a a", "a a b"),
    ("a b a b a", "b a b a b"),
    ("alpha beta gamma", "delta epsilon zeta"),
    ("", "nonempty reference"),
    ("nonempty candidate", ""),
    ("", ""),
    ("one", "one"),
    ("one two", "two one"),
    ("The CAT, sat!", "the cat sat"),
    ("punctuation... only ???", "!!!"),
    ("repeat repeat repeat word", "repeat word"),
    ("x y z x y z", "x y z"),
    ("the quick brown fox jumps over the lazy dog", "the lazy dog sleeps"),
    ("numbers 1 2 3 in text", "numbers 3 2 1 in text"),
    ("unicode café naïve words", "cafe naive words"),
    ("long " * 30 + "tail", "long tail"),
    ("interleaved a x b y c z", "a b c"),
    ("same same different", "same different different"),
    ("under_score splits here", "under score splits here"),
    ("crews contained an oil rig fire", "an oil rig fire was contained by crews"),
]

HAND_FROZEN = [
    # (candidate, reference, metric, expected P, R, F1) -- hand arithmetic
    ("the cat sat", "the cat ran", 1, 2 / 3, 2 / 3, 2 / 3),
    ("the cat sat", "the cat ran", 2, 0.5, 0.5, 0.5),
    ("the cat sat", "the cat ran", "L", 2 / 3, 2 / 3, 2 / 3),
    ("a a a", "a a b", 1, 2 / 3, 2 / 3, 2 / 3),
    ("one two", "two one", "L", 0.5, 0.5, 0.5),
]


def test_criterion_1_rouge_oracle_suite():
    start = time.monotonic()
    ok = len(ROUGE_PAIRS) >= 20
    for cand, ref in ROUGE_PAIRS:
        for n in (1, 2):
            got = rouge_n(cand, ref, n)
            exp = _oracle_rouge_n(cand, ref, n)
            ok &= (
                abs(got.precision - exp[0]) <= 1e-9
                and abs(got.recall - exp[1]) <= 1e-9
                and abs(got.f1 - exp[2]) <= 1e-9
            )
        got = rouge_l(cand, ref)
        exp = _oracle_rouge_l(cand, ref)
        ok &= all(abs(g - e) <= 1e-9 for g, e in zip((got.precision, got.recall, got.f1), exp))
    for cand, ref, metric, p, r, f in HAND_FROZEN:
        got = rouge_l(cand, ref) if metric == "L" else rouge_n(cand, ref, metric)
        ok &= (
            abs(got.precision - p) <= 1e-9
            and abs(got.recall - r) <= 1e-9
            and abs(got.f1 - f) <= 1e-9
        )
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _check(
        "criterion 1: ROUGE matches independent oracle on "
        f"{len(ROUGE_PAIRS)} pairs within 1e-9",
        ok,
        f"{elapsed:.2f}s < 1s",
    )


# -- criterion 2: scoring arithmetic --------------------------------------------

SUMMARY_TUPLES = [
    # (sim_to_ground_truth, sim_to_rationale, phi_alpha, hand value)
    (0.9, 0.5, 0.6, 1.20),
    (1.0, 0.0, 0.6, 1.0),
    (0.0, 1.0, 0.6, 0.6),
    (0.5, 0.5, 0.0, 0.5),
    (0.25, 0.5, 1.2, 0.85),
]

COHERENCE_TUPLES = [
    # (kl_doc_aspects, kl_doc_rationale, phi_beta, hand value)
    (0.8, 0.3, 1.3, 0.11),
    (0.8, 0.0, 1.3, 0.8),
    (0.0, 0.5, 1.0, -1.0),
    (1.5, 0.5, 0.4, 0.8),
    (2.0, 1.0, 1.3, -0.3),
]


def _brute_force_golden(table) -> int:
    best = max(sc.combined for sc in table)
    return min(sc.index for sc in table if sc.combined == best)


def _select_golden_matches_brute_force(rng: random.Random, runs: int) -> bool:
    from aspectsum.mock import MockLlmClient
    from aspectsum.rationale import Candidate, CandidateSet
    from aspectsum.selection import SelectionConfig, select_golden
    from aspectsum.topics import train_lda

    pool = ["storm", "flood", "rain", "river", "vote", "senate", "ballot", "poll"]
    corpus = [" ".join(rng.choice(pool) for _ in range(20)) for _ in range(16)]
    model = train_lda(corpus, k=2, iterations=30, seed=1)
    provider = MockLlmClient(seed=0)
    cfg = SelectionConfig(fold_in_iterations=10)

    ok = True
    for run in range(runs):
        n = rng.randint(1, 15)
        candidates = []
        for i in range(n):
            rationale = Rationale(
                aspects=tuple(
                    Aspect(" ".join(rng.choice(pool) for _ in range(2)))
                    for _ in range(rng.randint(1, 3))
                ),
                triples=tuple(
                    Triple(rng.choice(pool), rng.choice(pool), rng.choice(pool))
                    for _ in range(rng.randint(1, 3))
                ),
            )
            summary = " ".join(rng.choice(pool) for _ in range(rng.randint(4, 10)))
            candidates.append(Candidate(i, rationale, summary))
        doc = Document(
            f"bf-{run}",
            " ".join(rng.choice(pool) for _ in range(25)),
            " ".join(rng.choice(pool) for _ in range(8)),
        )
        result = select_golden(
            CandidateSet(doc.id, tuple(candidates)), doc, model, provider, cfg
        )
        ok &= result.golden_index == _brute_force_golden(result.table)
    return ok


def test_criterion_2_scoring_arithmetic():
    start = time.monotonic()
    ok = True
    for sim_gt, sim_rat, phi, expected in SUMMARY_TUPLES:
        ok &= abs(summary_score_from_sims(sim_gt, sim_rat, phi) - expected) <= 1e-12
    for kl_a, kl_r, phi, expected in COHERENCE_TUPLES:
        ok &= abs(coherence_score_from_kl(kl_a, kl_r, phi) - expected) <= 1e-12

    # combined worked example: {0: 1.365, 1: 1.10} -> golden 0
    table = [
        ScoredCandidate(0, 1.20, 0.11, combine_scores(1.20, 0.11, 1.5)),
        ScoredCandidate(1, 1.10, 0.0, combine_scores(1.10, 0.0, 1.5)),
    ]
    ok &= abs(table[0].combined - 1.365) <= 1e-12
    ok &= argmax_combined(table) == 0

    rng = random.Random(20240817)
    for _ in range(1000):
        size = rng.randint(1, 15)
        rows = []
        for i in range(size):
            s = rng.uniform(-2, 2)
            c = rng.uniform(-3, 3)
            rows.append(ScoredCandidate(i, s, c, combine_scores(s, c, 1.5)))
        if rng.random() < 0.2 and size > 1:  # force ties sometimes
            rows[size - 1] = ScoredCandidate(
                size - 1, rows[0].summary_score, rows[0].coherence_score, rows[0].combined
            )
        ok &= argmax_combined(rows) == _brute_force_golden(rows)

    # the same scan feeds select_golden end to end
    ok &= _select_golden_matches_brute_force(rng, runs=25)

    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    _check(
        "criterion 2: scoring arithmetic within 1e-12 and selection equals "
        "brute force on 1000 tables",
        ok,
        f"{elapsed:.2f}s < 5s",
    )


# -- criterion 3: KL and simplex properties --------------------------------------


def test_criterion_3_kl_simplex_properties():
    rng = random.Random(3)
    ok = True
    for _ in range(10_000):
        k = rng.randint(2, 20)
        raw_p = [rng.random() + 1e-9 for _ in range(k)]
        raw_q = [rng.random() + 1e-9 for _ in range(k)]
        p = TopicDistribution([x / sum(raw_p) for x in raw_p])
        q = TopicDistribution([x / sum(raw_q) for x in raw_q])
        ok &= kl_divergence(p, q) >= 0.0
        ok &= abs(kl_divergence(p, p)) <= 1e-12

    docs, _ = _planted_corpus(n_docs=60, seed=0)
    model = train_lda(docs, k=3, iterations=50, seed=1)
    terms = list(model.vocabulary.terms)
    texts = ["", "entirely out of vocabulary words", " ".join(terms[:7])]
    texts += [
        " ".join(rng.choice(terms + ["oov"]) for _ in range(rng.randint(1, 60)))
        for _ in range(200)
    ]
    for text in texts:
        dist = infer_topics(model, text, fold_in_iterations=15)
        ok &= abs(float(dist.probs.sum()) - 1.0) <= 1e-9
        ok &= bool((dist.probs > 0).all())
    _check(
        "criterion 3: KL >= 0 and KL(p,p)=0 over 10,000 simplex pairs; "
        "inferred distributions sum to 1 within 1e-9",
        ok,
    )


# -- criterion 4: planted-topic recovery -----------------------------------------


def _planted_corpus(n_docs: int, seed: int, doc_len: int = 30):
    rng = random.Random(seed)
    topics = [[f"t{t}w{i:02d}" for i in range(20)] for t in range(3)]
    docs = [
        " ".join(rng.choice(topics[d % 3]) for _ in range(doc_len)) for d in range(n_docs)
    ]
    return docs, [set(t) for t in topics]


def test_criterion_4_lda_planted_topic_recovery():
    start = time.monotonic()
    docs, planted = _planted_corpus(n_docs=300, seed=7)
    per_seed = []
    for seed in (1, 2, 3):
        model = train_lda(docs, k=3, iterations=200, seed=seed)
        overlaps = [
            max(len(set(model.top_terms(t, 10)) & p) / 10 for p in planted)
            for t in range(3)
        ]
        per_seed.append(sum(overlaps) / 3)
    mean_overlap = sum(per_seed) / len(per_seed)
    elapsed = time.monotonic() - start
    ok = mean_overlap >= 0.8 and elapsed < 60.0
    _check(
        "criterion 4: planted-topic recovery mean top-10 overlap >= 0.8 "
        "across seeds {1,2,3}",
        ok,
        f"overlap={mean_overlap:.3f}, {elapsed:.1f}s < 60s",
    )


# -- criterion 5: parser robustness ----------------------------------------------


def test_criterion_5_parser_robustness():
    rng = random.Random(55)
    ok = True
    for _ in range(10_000):
        r = random_rationale(rng)
        ok &= parse_rationale(serialize_rationale(r)) == r

    fragments = [
        "Aspects:", "Triples:", "Summary:", "[", "]", "|", ";", "\n", "\r\n",
        " ", "word", "[a | b | c]", "Aspects: x",
    ]
    outcomes = 0
    for i in range(100_000):
        if i % 4 == 0:
            text = "".join(rng.choice(fragments) for _ in range(rng.randint(0, 12)))
        else:
            text = bytes(rng.randrange(256) for _ in range(rng.randint(0, 80))).decode(
                "latin-1"
            )
        try:
            result = parse_rationale(text)
            ok &= isinstance(result, Rationale)
        except MalformedRationale:
            pass
        # any other exception propagates and fails the test
        outcomes += 1
    ok &= outcomes == 100_000
    _check(
        "criterion 5: 10,000 serialize/parse round trips and 100,000-string "
        "fuzz with no faults",
        ok,
    )


# -- criterion 6: end-to-end determinism ------------------------------------------


def _run_workspace(root: Path, corpus: Path) -> dict[str, str]:
    code = cli_main(
        [
            "run-all", "--workspace", str(root), "--input", str(corpus), "--mock-llm",
            "--n-samples", "3", "--lda-k", "3", "--lda-iterations", "80",
            "--fold-in-iterations", "15", "--seed", "11",
        ]
    )
    assert code == 0
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_6_end_to_end_determinism(tmp_path, capsys):
    start = time.monotonic()
    corpus = write_jsonl(tmp_path / "corpus50.jsonl", synthetic_records(50))
    hashes_a = _run_workspace(tmp_path / "ws_a", corpus)
    hashes_b = _run_workspace(tmp_path / "ws_b", corpus)
    capsys.readouterr()

    ok = hashes_a == hashes_b and len(hashes_a) > 0

    manifests = sorted(
        name for name in hashes_a if name.startswith("manifests/") and name.endswith(".jsonl")
    )
    ok &= manifests == [
        "manifests/01_singular_aspect.jsonl",
        "manifests/02_singular_triple.jsonl",
        "manifests/03_singular_summary.jsonl",
        "manifests/04_concurrent_early.jsonl",
        "manifests/05_concurrent_late.jsonl",
        "manifests/06_joint.jsonl",
    ]
    selections = (tmp_path / "ws_a" / "selection" / "selections.jsonl").read_text()
    ok &= len(selections.splitlines()) == 50
    ok &= (tmp_path / "ws_a" / "eval" / "report.json").exists()

    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    _check(
        "criterion 6: run-all twice on 50 docs is byte-identical "
        f"({len(hashes_a)} files), 6 manifests canonical, 50 selection records",
        ok,
        f"{elapsed:.1f}s < 120s",
    )


# -- criterion 7: curriculum contracts --------------------------------------------


def _segment(text: str, token: str, next_tokens: tuple[str, ...]) -> str:
    start = text.index(token) + len(token) + 1
    ends = [p for p in (text.find(t, start) for t in next_tokens) if p >= 0]
    return text[start : min(ends) - 1] if ends else text[start:]


def test_criterion_7_curriculum_contracts():
    rng = random.Random(77)
    pairs = []
    for i in range(10):
        d = Document(
            f"doc-{i}",
            " ".join(rng.choice(["storm", "river", "levee", "rain"]) for _ in range(25)),
            f"summary {i} of the storm",
        )
        r = Rationale(
            aspects=(Aspect(f"aspect {i} one"), Aspect("shared aspect")),
            triples=(Triple("storm", "hit", f"town {i}"), Triple("crews", "fixed", "levee")),
        )
        pairs.append((d, r))

    ok = True

    # (a) early conditioning byte-equals golden serializations
    early = build_concurrent_early_manifest(pairs)
    golden = {d.id: r for d, r in pairs}
    for ex in early.examples:
        r = golden[ex.document_id]
        if ex.task is TaskKind.TRI_EXT:
            ok &= _segment(ex.input, ASPECTS_TOKEN, (TRIPLES_TOKEN,)) == serialize_aspects(
                r.aspects
            )
        if ex.task is TaskKind.SUM_GEN:
            ok &= _segment(ex.input, ASPECTS_TOKEN, (TRIPLES_TOKEN,)) == serialize_aspects(
                r.aspects
            )
            ok &= _segment(ex.input, TRIPLES_TOKEN, ()) == serialize_triples(r.triples)

    # (b) late stage: exactly two decodes per document, outputs embedded as
    # conditioning, targets still golden
    class TaggingAdapter(EchoTrainerAdapter):
        def greedy_decode(self, task, input):
            return f"DECODED {task.value} :: {super().greedy_decode(task, input)}"

    adapter = TaggingAdapter(pairs)
    late = build_concurrent_late_manifest(pairs, adapter)
    ok &= adapter.decode_calls == 2 * len(pairs)
    ok &= adapter.decode_calls_by_task[TaskKind.ASP_EXT] == len(pairs)
    ok &= adapter.decode_calls_by_task[TaskKind.TRI_EXT] == len(pairs)
    for ex in late.examples:
        r = golden[ex.document_id]
        if ex.task is TaskKind.TRI_EXT:
            conditioning = _segment(ex.input, ASPECTS_TOKEN, (TRIPLES_TOKEN,))
            ok &= conditioning == f"DECODED AspExt :: {serialize_aspects(r.aspects)}"
            ok &= ex.target == serialize_triples(r.triples)
        if ex.task is TaskKind.SUM_GEN:
            conditioning = _segment(ex.input, TRIPLES_TOKEN, ())
            ok &= conditioning.startswith("DECODED TriExt :: ")
        ok &= ex.provenance == "model"

    # (c) joint targets split back into (golden rationale, ground truth)
    joint = build_joint_manifest(pairs)
    for ex, (d, r) in zip(joint.examples, pairs):
        recovered_r, recovered_s = split_joint_target(ex.target)
        ok &= recovered_r == r and recovered_s == d.ground_truth_summary
        ok &= ex.target.count(f" {SUMMARY_TOKEN} ") == 1

    # (d) default joint weights
    ok &= joint.loss_config == {"rationale": 0.8, "summary": 1.2}

    _check(
        "criterion 7: curriculum contracts (teacher forcing, 2 decodes/doc, "
        "joint split, weights 0.8/1.2)",
        ok,
    )


# -- criterion 8: ingestion filtering ---------------------------------------------


def test_criterion_8_ingestion_filtering(tmp_path):
    def words(n: int) -> str:
        return " ".join(f"w{i}" for i in range(n))

    records = [
        {"id": "keep-small", "document": words(10), "summary": words(5)},
        {"id": "keep-doc-1024", "document": words(1024), "summary": words(5)},
        {"id": "drop-doc-1025", "document": words(1025), "summary": words(5)},
        {"id": "drop-doc-1500", "document": words(1500), "summary": words(5)},
        {"id": "keep-sum-256", "document": words(10), "summary": words(256)},
        {"id": "drop-sum-257", "document": words(10), "summary": words(257)},
        {"id": "keep-both-max", "document": words(1024), "summary": words(256)},
        {"id": "drop-both-over", "document": words(1025), "summary": words(257)},
    ]
    path = write_jsonl(tmp_path / "fixture.jsonl", records)
    ws = Workspace(tmp_path / "ws")
    cfg_kwargs = dict(profile="custom")
    from aspectsum.config import build_config

    cfg = build_config(**cfg_kwargs, overrides={"n_samples": 1, "lda_k": 2})
    report = stage_ingest(ws, cfg, path)

    kept = [d.id for d in ws.load_corpus()]
    ok = kept == ["keep-small", "keep-doc-1024", "keep-sum-256", "keep-both-max"]
    ok &= report["excluded"]["doc_too_long"] == 3  # 1025, 1500, both-over
    ok &= report["excluded"]["summary_too_long"] == 1  # 257 only
    ok &= report["excluded_ids"]["doc_too_long"] == [
        "drop-doc-1025", "drop-doc-1500", "drop-both-over",
    ]
    ok &= report["excluded_ids"]["summary_too_long"] == ["drop-sum-257"]
    ok &= report["ingested"] == 4 and report["total_records"] == 8
    _check(
        "criterion 8: ingestion reproduces exact inclusion/exclusion sets "
        "under the 1024/256 limits",
        ok,
    )
