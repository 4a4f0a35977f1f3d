"""Aspect-triple rationale data model and its canonical text grammar.

The canonical form is line-oriented::

    Aspects: phrase; phrase; ...
    Triples: [subject | relation | object]
    [subject | relation | object]

Probe responses append a ``Summary:`` block after the triples; the parser
tolerates (and ignores) that tail so that whole responses can be parsed, and
``parse_probe_response`` extracts rationale and summary together.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MalformedRationale

_ASPECTS_RE = re.compile(r"^[ \t]*Aspects:", re.MULTILINE)
_TRIPLES_RE = re.compile(r"^[ \t]*Triples:", re.MULTILINE)
_SUMMARY_RE = re.compile(r"^[ \t]*Summary:", re.MULTILINE)

# Characters that would break the line- and delimiter-oriented grammar.
_ASPECT_FORBIDDEN = ";\n\r"
_TRIPLE_FORBIDDEN = "|[]\n\r"


@dataclass(frozen=True)
class Aspect:
    """A short phrase naming one distinct topic of a document."""

    phrase: str

    def __post_init__(self):
        phrase = self.phrase.strip()
        object.__setattr__(self, "phrase", phrase)
        if not phrase:
            raise ValueError("aspect phrase is empty")
        for ch in _ASPECT_FORBIDDEN:
            if ch in phrase:
                raise ValueError(f"aspect phrase contains forbidden character {ch!r}")


@dataclass(frozen=True)
class Triple:
    """A [subject | relation | object] structuring of free text."""

    subject: str
    relation: str
    object: str

    def __post_init__(self):
        for name in ("subject", "relation", "object"):
            value = getattr(self, name).strip()
            object.__setattr__(self, name, value)
            if not value:
                raise ValueError(f"triple {name} is empty")
            for ch in _TRIPLE_FORBIDDEN:
                if ch in value:
                    raise ValueError(f"triple {name} contains forbidden character {ch!r}")


@dataclass(frozen=True)
class Rationale:
    """Ordered aspects plus ordered triples; the structured intermediate."""

    aspects: tuple[Aspect, ...]
    triples: tuple[Triple, ...]

    def __post_init__(self):
        object.__setattr__(self, "aspects", tuple(self.aspects))
        object.__setattr__(self, "triples", tuple(self.triples))


@dataclass(frozen=True)
class Document:
    """Source text plus ground-truth summary; the unit flowing through every stage."""

    id: str
    text: str
    ground_truth_summary: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id is empty")


@dataclass(frozen=True)
class Candidate:
    """One probed (rationale, summary) pair awaiting selection."""

    index: int
    rationale: Rationale
    summary: str

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("candidate index must be nonnegative")


@dataclass(frozen=True)
class CandidateSet:
    document_id: str
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise ValueError("candidate set is empty")
        indices = [c.index for c in self.candidates]
        if indices != list(range(len(indices))):
            raise ValueError("candidate indices must be contiguous from 0")


def serialize_aspects(aspects) -> str:
    return "; ".join(a.phrase for a in aspects)


def serialize_triples(triples) -> str:
    return "\n".join(f"[{t.subject} | {t.relation} | {t.object}]" for t in triples)


def serialize_rationale(r: Rationale) -> str:
    """Canonical text form; ``parse_rationale`` inverts it exactly."""
    if not r.aspects or not r.triples:
        raise ValueError("rationale with empty aspects or triples is not serializable")
    return f"Aspects: {serialize_aspects(r.aspects)}\nTriples: {serialize_triples(r.triples)}"


def parse_rationale(text: str) -> Rationale:
    """Parse the canonical grammar, tolerating a preamble and a Summary tail.

    Raises MalformedRationale for anything that does not contain a nonempty
    ``Aspects:`` block followed by a ``Triples:`` block of well-formed
    3-field bracket lines. Never raises anything else for str input.
    """
    m_aspects = _ASPECTS_RE.search(text)
    if m_aspects is None:
        raise MalformedRationale("missing 'Aspects:' block")
    m_triples = _TRIPLES_RE.search(text, m_aspects.end())
    if m_triples is None:
        raise MalformedRationale("missing 'Triples:' block")

    aspects_src = text[m_aspects.end() : m_triples.start()]
    triples_src = text[m_triples.end() :]
    m_summary = _SUMMARY_RE.search(triples_src)
    if m_summary is not None:
        triples_src = triples_src[: m_summary.start()]

    aspects = []
    for segment in re.split(r"[;\n]", aspects_src):
        segment = segment.strip()
        if not segment:
            continue
        try:
            aspects.append(Aspect(segment))
        except ValueError as exc:
            raise MalformedRationale(str(exc)) from exc
    if not aspects:
        raise MalformedRationale("empty aspects block")

    triples = []
    for line in triples_src.split("\n"):
        line = line.strip()
        if not line:
            continue
        if not (line.startswith("[") and line.endswith("]")):
            raise MalformedRationale(f"triple line is not bracketed: {line[:60]!r}")
        parts = line[1:-1].split("|")
        if len(parts) != 3:
            raise MalformedRationale(f"triple has {len(parts)} fields, expected 3")
        try:
            triples.append(Triple(parts[0], parts[1], parts[2]))
        except ValueError as exc:
            raise MalformedRationale(str(exc)) from exc
    if not triples:
        raise MalformedRationale("empty triples block")

    return Rationale(tuple(aspects), tuple(triples))


def parse_probe_response(text: str) -> tuple[Rationale, str]:
    """Split a probe response into (rationale, summary).

    The summary is everything after the first line-initial ``Summary:`` label
    that follows the triples block.
    """
    rationale = parse_rationale(text)
    m_triples = _TRIPLES_RE.search(text)
    m_summary = _SUMMARY_RE.search(text, m_triples.end()) if m_triples else None
    if m_summary is None:
        raise MalformedRationale("missing 'Summary:' block")
    summary = text[m_summary.end() :].strip()
    if not summary:
        raise MalformedRationale("empty summary block")
    return rationale, summary


def aspects_text(r: Rationale) -> str:
    """Aspect phrases as one plain-text blob, for topic inference."""
    return " ".join(a.phrase for a in r.aspects)


def rationale_text(r: Rationale) -> str:
    """Aspect phrases plus all triple fields as one blob, for topic inference."""
    parts = [a.phrase for a in r.aspects]
    for t in r.triples:
        parts.extend((t.subject, t.relation, t.object))
    return " ".join(parts)


def rationale_to_json(r: Rationale) -> dict:
    return {
        "aspects": [a.phrase for a in r.aspects],
        "triples": [{"s": t.subject, "r": t.relation, "o": t.object} for t in r.triples],
    }


def rationale_from_json(obj: dict) -> Rationale:
    try:
        aspects = tuple(Aspect(p) for p in obj["aspects"])
        triples = tuple(Triple(t["s"], t["r"], t["o"]) for t in obj["triples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRationale(f"bad rationale record: {exc}") from exc
    if not aspects or not triples:
        raise MalformedRationale("rationale record has empty aspects or triples")
    return Rationale(aspects, triples)
