"""From-scratch ROUGE-1/2/L F1 scoring with corpus-level aggregation.

Tokenization is lowercase + non-alphanumeric splitting, no stemming and no
stopword removal; ROUGE-L runs over whole-text token sequences. Scores are
therefore comparable within this toolkit but not against reference toolkits
whose preprocessing differs.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterator
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
    """Per-document ROUGE scores and their arithmetic means.

    values holds each document's nine scores, ROUGE-1, ROUGE-2 and ROUGE-L
    precision, recall and f1, as float64. Eval keeps every document's scores
    until its report is written: 72 bytes a document this way, where
    DocumentScores objects take about 500. No scores raise EmptyInput.
    """

    values: array

    def __post_init__(self):
        if not self.values:
            raise EmptyInput("no (candidate, reference) pairs to evaluate")

    def __hash__(self) -> int:
        return hash(tuple(self.values))

    @property
    def count(self) -> int:
        return len(self.values) // 9

    def _documents(self) -> Iterator[DocumentScores]:
        v = self.values
        for i in range(0, len(v), 9):
            yield DocumentScores(*(RougeScore(*v[j : j + 3]) for j in range(i, i + 9, 3)))

    @property
    def scores(self) -> tuple[DocumentScores, ...]:
        return tuple(self._documents())

    def _mean(self, offset: int) -> RougeScore:
        """The mean of the score at offset (0: ROUGE-1, 3: ROUGE-2, 6: ROUGE-L)."""
        return RougeScore(*(sum(self.values[offset + j :: 9]) / self.count for j in range(3)))

    mean_rouge1 = property(lambda self: self._mean(0))
    mean_rouge2 = property(lambda self: self._mean(3))
    mean_rouge_l = property(lambda self: self._mean(6))

    def to_json(self, lazy: bool = False) -> dict:
        """The report as JSON; lazy gives "documents" as an iterator, which
        workspace.dump_json_pretty_chunks writes without building the list."""

        def score(s: RougeScore) -> dict:
            return {"precision": s.precision, "recall": s.recall, "f1": s.f1}

        documents = (
            {"rouge1": score(d.rouge1), "rouge2": score(d.rouge2), "rougeL": score(d.rouge_l)}
            for d in self._documents()
        )
        return {
            "count": self.count,
            "mean": {
                "rouge1": score(self.mean_rouge1),
                "rouge2": score(self.mean_rouge2),
                "rougeL": score(self.mean_rouge_l),
            },
            "documents": documents if lazy else list(documents),
        }

    def table_lines(self) -> Iterator[str]:
        """Aligned plain-text table of per-document and mean F1 values, a line at a time."""
        yield f"{'doc':>6}  {'R-1':>8}  {'R-2':>8}  {'R-L':>8}\n"
        for i, d in enumerate(self._documents()):
            yield f"{i:>6}  {d.rouge1.f1:>8.4f}  {d.rouge2.f1:>8.4f}  {d.rouge_l.f1:>8.4f}\n"
        yield (
            f"{'mean':>6}  {self.mean_rouge1.f1:>8.4f}  "
            f"{self.mean_rouge2.f1:>8.4f}  {self.mean_rouge_l.f1:>8.4f}\n"
        )


class EmptyInput(AspectsumError):
    """evaluate_corpus received no pairs."""


def evaluate_corpus(pairs: list[tuple[str, str]]) -> EvalReport:
    """Score (candidate, reference) pairs and aggregate arithmetic means."""
    scores = (
        s
        for cand, ref in pairs
        for s in (rouge_n(cand, ref, 1), rouge_n(cand, ref, 2), rouge_l(cand, ref))
    )
    return EvalReport(array("d", (v for s in scores for v in (s.precision, s.recall, s.f1))))
