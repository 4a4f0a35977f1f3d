"""From-scratch ROUGE-1/2/L F1 scoring with corpus-level aggregation.

Tokenization is lowercase + non-alphanumeric splitting, no stemming and no
stopword removal; ROUGE-L runs over whole-text token sequences. Scores are
therefore comparable within this toolkit but not against reference toolkits
whose preprocessing differs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import AspectsumError
from .textutil import words


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, overlap: int, candidate_total: int, reference_total: int) -> "RougeScore":
        if candidate_total == 0 or reference_total == 0:
            return cls(0.0, 0.0, 0.0)
        p = overlap / candidate_total
        r = overlap / reference_total
        f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(p, r, f1)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram-multiset overlap F1; empty side yields all zeros."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cand = _ngrams(words(candidate), n)
    ref = _ngrams(words(reference), n)
    overlap = sum((cand & ref).values())
    return RougeScore.from_counts(overlap, sum(cand.values()), sum(ref.values()))


def _lcs_length(a: list[str], b: list[str]) -> int:
    # Two-row dynamic program; O(len(a) * len(b)) time, O(min) memory.
    if len(a) < len(b):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """Longest-common-subsequence F1 over token sequences."""
    cand = words(candidate)
    ref = words(reference)
    if not cand or not ref:
        return RougeScore(0.0, 0.0, 0.0)
    lcs = _lcs_length(cand, ref)
    return RougeScore.from_counts(lcs, len(cand), len(ref))


@dataclass(frozen=True)
class DocumentScores:
    rouge1: RougeScore
    rouge2: RougeScore
    rouge_l: RougeScore


@dataclass(frozen=True)
class EvalReport:
    scores: tuple[DocumentScores, ...]
    mean_rouge1: RougeScore
    mean_rouge2: RougeScore
    mean_rouge_l: RougeScore

    @property
    def count(self) -> int:
        return len(self.scores)

    def to_json(self) -> dict:
        def score(s: RougeScore) -> dict:
            return {"precision": s.precision, "recall": s.recall, "f1": s.f1}

        return {
            "count": self.count,
            "mean": {
                "rouge1": score(self.mean_rouge1),
                "rouge2": score(self.mean_rouge2),
                "rougeL": score(self.mean_rouge_l),
            },
            "documents": [
                {
                    "rouge1": score(d.rouge1),
                    "rouge2": score(d.rouge2),
                    "rougeL": score(d.rouge_l),
                }
                for d in self.scores
            ],
        }

    def to_table(self) -> str:
        """Aligned plain-text table of per-document and mean F1 values."""
        lines = [f"{'doc':>6}  {'R-1':>8}  {'R-2':>8}  {'R-L':>8}"]
        for i, d in enumerate(self.scores):
            lines.append(
                f"{i:>6}  {d.rouge1.f1:>8.4f}  {d.rouge2.f1:>8.4f}  {d.rouge_l.f1:>8.4f}"
            )
        lines.append(
            f"{'mean':>6}  {self.mean_rouge1.f1:>8.4f}  "
            f"{self.mean_rouge2.f1:>8.4f}  {self.mean_rouge_l.f1:>8.4f}"
        )
        return "\n".join(lines) + "\n"


class EmptyInput(AspectsumError):
    """evaluate_corpus received no pairs."""


def _mean_score(scores: list[RougeScore]) -> RougeScore:
    n = len(scores)
    return RougeScore(
        sum(s.precision for s in scores) / n,
        sum(s.recall for s in scores) / n,
        sum(s.f1 for s in scores) / n,
    )


def _score_pair(pair: tuple[str, str]) -> DocumentScores:
    cand, ref = pair
    return DocumentScores(
        rouge1=rouge_n(cand, ref, 1),
        rouge2=rouge_n(cand, ref, 2),
        rouge_l=rouge_l(cand, ref),
    )


def evaluate_corpus(pairs: list[tuple[str, str]]) -> EvalReport:
    """Score (candidate, reference) pairs and aggregate arithmetic means."""
    if not pairs:
        raise EmptyInput("no (candidate, reference) pairs to evaluate")
    per_doc = [_score_pair(pair) for pair in pairs]
    return EvalReport(
        scores=tuple(per_doc),
        mean_rouge1=_mean_score([d.rouge1 for d in per_doc]),
        mean_rouge2=_mean_score([d.rouge2 for d in per_doc]),
        mean_rouge_l=_mean_score([d.rouge_l for d in per_doc]),
    )
