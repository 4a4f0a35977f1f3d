"""Tokenizers and stable hashing helpers used across modules.

Two tokenizers exist on purpose: token limits and token counts use plain
whitespace splitting, while word-level processing (vocabulary, ROUGE)
lowercases and splits on non-alphanumeric runs.
"""

from __future__ import annotations

import hashlib
import re

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def token_count(text: str) -> int:
    return len(text.split())


def words(text: str) -> list[str]:
    """Lowercased alphanumeric-run tokens (underscores excluded)."""
    return _WORD_RE.findall(text.lower())


def stable_digest(*parts: str) -> str:
    """Hex sha256 over parts; deterministic across processes and platforms."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def stable_seed(*parts: str) -> int:
    """Derive a 63-bit RNG seed from strings; never uses builtin hash()."""
    return int(stable_digest(*parts)[:15], 16)


# Compact English stopword list for vocabulary filtering. Deliberately small:
# topic quality only needs the closed-class words gone.
ENGLISH_STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are as at be because
    been before being below between both but by can did do does doing down
    during each few for from further had has have having he her here hers
    herself him himself his how i if in into is it its itself just me more
    most my myself no nor not now of off on once only or other our ours
    ourselves out over own s same she should so some such t than that the
    their theirs them themselves then there these they this those through to
    too under until up very was we were what when where which while who whom
    why will with you your yours yourself yourselves
    """.split()
)

STOPWORD_LISTS = {
    "english": ENGLISH_STOPWORDS,
    "none": frozenset(),
}
