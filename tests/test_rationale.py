from __future__ import annotations

import random

import pytest

from aspectsum.errors import MalformedRationale
from aspectsum.rationale import (
    Aspect,
    Candidate,
    CandidateSet,
    Document,
    Rationale,
    Triple,
    aspects_text,
    parse_probe_response,
    parse_rationale,
    rationale_from_json,
    rationale_text,
    rationale_to_json,
    serialize_rationale,
)
from conftest import random_rationale


def test_parse_minimal_rationale():
    r = parse_rationale("Aspects: rising sea levels\nTriples: [Cats | eat | fish]")
    assert r == Rationale(
        aspects=(Aspect("rising sea levels"),),
        triples=(Triple("Cats", "eat", "fish"),),
    )


def test_serialize_canonical_form():
    r = Rationale((Aspect("a"),), (Triple("x", "y", "z"),))
    assert serialize_rationale(r) == "Aspects: a\nTriples: [x | y | z]"


def test_two_field_triple_rejected():
    with pytest.raises(MalformedRationale):
        parse_rationale("Aspects: a\nTriples: [a | b]")


def test_four_field_triple_rejected():
    with pytest.raises(MalformedRationale):
        parse_rationale("Aspects: a\nTriples: [a | b | c | d]")


def test_empty_triple_field_rejected():
    with pytest.raises(MalformedRationale):
        parse_rationale("Aspects: a\nTriples: [ | b | c]")


def test_unbracketed_triple_line_rejected():
    with pytest.raises(MalformedRationale):
        parse_rationale("Aspects: a\nTriples: x | y | z")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "no labels at all",
        "Triples: [a | b | c]",
        "Aspects: a",  # no triples block
        "Aspects: \nTriples: [a | b | c]",  # empty aspects
        "Aspects: a\nTriples:\n",  # empty triples
    ],
)
def test_missing_or_empty_blocks(text):
    with pytest.raises(MalformedRationale):
        parse_rationale(text)


def test_preamble_and_summary_tail_tolerated():
    text = (
        "Sure, here is the result:\n"
        "Aspects: one; two\n"
        "Triples: [a | b | c]\n"
        "[d | e | f]\n"
        "Summary: something short."
    )
    r = parse_rationale(text)
    assert [a.phrase for a in r.aspects] == ["one", "two"]
    assert len(r.triples) == 2


def test_crlf_response_parses():
    text = "Aspects: a; b\r\nTriples: [x | y | z]\r\nSummary: s\r\n"
    r, summary = parse_probe_response(text)
    assert [a.phrase for a in r.aspects] == ["a", "b"]
    assert summary == "s"


def test_parse_probe_response_requires_summary():
    with pytest.raises(MalformedRationale):
        parse_probe_response("Aspects: a\nTriples: [x | y | z]")
    with pytest.raises(MalformedRationale):
        parse_probe_response("Aspects: a\nTriples: [x | y | z]\nSummary:   ")


def test_probe_response_multiline_summary():
    _, summary = parse_probe_response(
        "Aspects: a\nTriples: [x | y | z]\nSummary: first line\nsecond line"
    )
    assert summary == "first line\nsecond line"


def test_round_trip_small():
    r = Rationale(
        aspects=(Aspect("sea levels"), Aspect("ice melt")),
        triples=(Triple("ocean", "rises", "yearly"), Triple("ice", "melts", "fast")),
    )
    assert parse_rationale(serialize_rationale(r)) == r


def test_round_trip_label_lookalikes():
    # Labels embedded mid-field must not confuse the line-anchored parser.
    r = Rationale(
        aspects=(Aspect("see Triples: below"), Aspect("Aspects: nested")),
        triples=(Triple("a Summary: x", "has", "b"),),
    )
    assert parse_rationale(serialize_rationale(r)) == r


def test_round_trip_generated(n=2000):
    rng = random.Random(1234)
    for _ in range(n):
        r = random_rationale(rng)
        assert parse_rationale(serialize_rationale(r)) == r


def test_fuzz_parse_is_total(n=5000):
    rng = random.Random(99)
    fragments = ["Aspects:", "Triples:", "Summary:", "[", "]", "|", ";", "\n", "a", " "]
    for i in range(n):
        if i % 3 == 0:
            text = "".join(rng.choice(fragments) for _ in range(rng.randint(0, 40)))
        else:
            text = bytes(rng.randrange(256) for _ in range(rng.randint(0, 120))).decode(
                "latin-1"
            )
        try:
            result = parse_rationale(text)
            assert isinstance(result, Rationale)
            assert all(a.phrase for a in result.aspects)
            assert all(t.subject and t.relation and t.object for t in result.triples)
        except MalformedRationale:
            pass


def test_aspect_validation():
    assert Aspect("  padded  ").phrase == "padded"
    for bad in ("", "   ", "a;b", "a\nb", "a\rb"):
        with pytest.raises(ValueError):
            Aspect(bad)


def test_triple_validation():
    t = Triple(" s ", "r", "o")
    assert (t.subject, t.relation, t.object) == ("s", "r", "o")
    for bad in ("", "a|b", "a[b", "a]b", "a\nb"):
        with pytest.raises(ValueError):
            Triple(bad, "r", "o")


def test_document_rejects_empty_id():
    assert Document("d1", "one two", "s").text == "one two"
    with pytest.raises(ValueError):
        Document("", "text", "summary")


def test_candidate_set_indices():
    r = Rationale((Aspect("a"),), (Triple("x", "y", "z"),))
    good = CandidateSet("d", (Candidate(0, r, "s"), Candidate(1, r, "s")))
    assert len(good.candidates) == 2
    with pytest.raises(ValueError):
        CandidateSet("d", ())
    with pytest.raises(ValueError):
        CandidateSet("d", (Candidate(1, r, "s"),))
    with pytest.raises(ValueError):
        CandidateSet("d", (Candidate(0, r, "s"), Candidate(2, r, "s")))


def test_json_round_trip(sample_rationale):
    obj = rationale_to_json(sample_rationale)
    assert obj["triples"][0] == {"s": "fire", "r": "erupted on", "o": "oil rig"}
    assert rationale_from_json(obj) == sample_rationale
    with pytest.raises(MalformedRationale):
        rationale_from_json({"aspects": [], "triples": []})
    with pytest.raises(MalformedRationale):
        rationale_from_json({"aspects": ["a"]})


def test_text_views(sample_rationale):
    assert aspects_text(sample_rationale) == "oil rig fire containment effort"
    assert rationale_text(sample_rationale).startswith("oil rig fire containment effort fire")
    assert "blaze" in rationale_text(sample_rationale)
