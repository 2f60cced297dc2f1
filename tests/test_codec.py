import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import COURT_LABELS, COURT_MENTIONS, mention
from nestner.codec import (
    EOW,
    ComponentStreamError,
    DecodeError,
    EncodedSentence,
    contains_partial_crossing,
    decode,
    encode,
    enumerate_crossing_pairs,
    enumerate_nested_sentences,
    flatten,
    unflatten,
)
from nestner.core import Sentence, Token


def sentence_of(forms, mentions=()):
    return Sentence(tuple(Token(f) for f in forms), frozenset(mentions))


class TestEncode:
    def test_court_fixture(self, court_sentence):
        assert encode(court_sentence).strings() == list(COURT_LABELS)

    def test_outer_org_with_inner_unit(self):
        # manual application of the rules: ORG spans everything, GPE is token 1
        s = sentence_of(
            ["The", "Florida", "Supreme", "Court"],
            {mention("ORG", 0, 4), mention("GPE", 1, 2)},
        )
        assert encode(s).strings() == ["B-ORG", "I-ORG|U-GPE", "I-ORG", "L-ORG"]

    def test_no_mentions_all_outside(self):
        s = sentence_of(["a", "b", "c"])
        assert encode(s).strings() == ["O", "O", "O"]

    def test_same_span_two_types_lexicographic(self):
        s = sentence_of(["x", "y"], {mention("B", 0, 2), mention("A", 0, 2)})
        assert encode(s).strings() == ["B-A|B-B", "L-A|L-B"]

    def test_crossing_pair_warns(self, caplog):
        s = sentence_of(["a", "b", "c"], {mention("X", 0, 2), mention("X", 1, 3)})
        with caplog.at_level("WARNING", logger="nestner.codec"):
            encode(s)
        assert any("crossing" in r.message for r in caplog.records)
        assert contains_partial_crossing(s.mentions)

    def test_outside_never_a_component(self, court_sentence):
        for label in encode(court_sentence).labels:
            assert all(c.entity_type != "O" or c.tag in "BILU" for c in label)
            assert "O" not in str(label).split("|") or str(label) == "O"


class TestDecode:
    def test_court_fixture_inverse(self, court_sentence):
        encoded = EncodedSentence.from_strings(COURT_LABELS)
        assert decode(encoded, "strict") == COURT_MENTIONS

    def test_unit_mention(self):
        assert decode(EncodedSentence.from_strings(["U-PER"])) == {mention("PER", 0, 1)}

    def test_orphan_inside_repair_vs_strict(self):
        encoded = EncodedSentence.from_strings(["I-ORG", "L-ORG"])
        assert decode(encoded, "repair") == {mention("ORG", 0, 2)}
        with pytest.raises(DecodeError) as err:
            decode(encoded, "strict")
        assert err.value.token_index == 0

    def test_orphan_last_repair(self):
        encoded = EncodedSentence.from_strings(["O", "L-GPE"])
        assert decode(encoded, "repair") == {mention("GPE", 1, 2)}

    def test_unterminated_strict_vs_repair(self):
        encoded = EncodedSentence.from_strings(["B-ORG", "I-ORG"])
        with pytest.raises(DecodeError):
            decode(encoded, "strict")
        assert decode(encoded, "repair") == {mention("ORG", 0, 2)}

    def test_error_names_token_and_component(self):
        with pytest.raises(DecodeError) as err:
            decode(EncodedSentence.from_strings(["O", "I-GPE"]), "strict")
        assert "token 1" in str(err.value) and "I-GPE" in str(err.value)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            decode(EncodedSentence.from_strings(["O"]), "fix")

    def test_same_type_nesting_matches_in_order(self):
        encoded = EncodedSentence.from_strings(["B-X|B-X", "I-X|L-X", "L-X"])
        assert decode(encoded, "strict") == {mention("X", 0, 3), mention("X", 0, 2)}

    def test_sibling_after_closed_inner(self):
        # outer X over two inner siblings; the open list shifts when one closes
        s = sentence_of(
            ["a", "b", "c", "d"],
            {mention("X", 0, 4), mention("X", 0, 2), mention("X", 2, 4)},
        )
        assert decode(encode(s), "strict") == s.mentions

    @given(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from("BILU"), st.sampled_from("AB")),
                min_size=0,
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_repair_never_raises_and_stays_in_bounds(self, label_specs):
        labels = [
            "O" if not spec else "|".join(f"{t}-{e}" for t, e in spec)
            for spec in label_specs
        ]
        mentions = decode(EncodedSentence.from_strings(labels), "repair")
        n = len(labels)
        for m in mentions:
            assert 0 <= m.span.start < m.span.end <= n


class TestFlatten:
    def test_token_streams_from_court_fixture(self, court_sentence):
        stream = flatten(encode(court_sentence))
        per_token = []
        current = []
        for symbol in stream:
            if symbol == EOW:
                per_token.append(current + [EOW])
                current = []
            else:
                current.append(symbol)
        assert per_token[2] == ["I-ORG", "U-GPE", EOW]  # "US"
        assert per_token[0] == [EOW]  # outside token
        assert per_token[8] == ["L-ORG", "L-GPE", EOW]  # "Mexico"

    def test_unflatten_single_outside(self):
        assert unflatten([EOW], 1).strings() == ["O"]

    def test_round_trip_court(self, court_sentence):
        encoded = encode(court_sentence)
        assert unflatten(flatten(encoded), encoded.length) == encoded

    def test_wrong_eow_count(self):
        with pytest.raises(ComponentStreamError):
            unflatten([EOW, EOW], 3)

    def test_trailing_components(self):
        with pytest.raises(ComponentStreamError):
            unflatten([EOW, "I-ORG"], 1)


class TestEnumeration:
    def test_small_spot_check(self):
        sentences = list(enumerate_nested_sentences(3, 1, 2))
        # all unique mention sets, all properly nested, all round-trip
        seen = set()
        for s in sentences:
            key = (len(s.tokens), s.mentions)
            assert key not in seen
            seen.add(key)
            assert not contains_partial_crossing(s.mentions)
            assert decode(encode(s), "strict") == s.mentions

    def test_counts_for_length_two(self):
        # length 2, 1 type: spans {(0,1),(1,2),(0,2)}; nested subsets:
        # size 0: 1, size 1: 3, size 2: 3 (all pairs nested or disjoint)
        sentences = [s for s in enumerate_nested_sentences(2, 1, 2) if len(s.tokens) == 2]
        assert len(sentences) == 7

    def test_crossing_excluded(self):
        for s in enumerate_nested_sentences(4, 2, 3):
            spans = [(m.span.start, m.span.end) for m in s.mentions]
            for a, b in itertools.combinations(spans, 2):
                overlap = a[0] < b[1] and b[0] < a[1]
                nested = (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
                assert not overlap or nested


def crosses_pairwise(mentions):
    """The definition, over every pair: the oracle for the sweep."""
    return any(
        a.span.overlaps(b.span) and not a.span.contains(b.span) and not b.span.contains(a.span)
        for a, b in itertools.combinations(mentions, 2)
    )


@st.composite
def mention_sets(draw):
    """Mention sets over at most 12 tokens that mix random spans with the
    cases a sweep can get wrong: equal spans of different types, spans
    touching end to start, and chains of nested spans."""
    n = draw(st.integers(1, 12))
    span = st.tuples(st.integers(0, n - 1), st.integers(1, n)).filter(lambda se: se[0] < se[1])
    types = st.sampled_from("ABC")
    found = {mention(t, s, e) for t, (s, e) in draw(st.lists(st.tuples(types, span), max_size=8))}
    for s, e in draw(st.lists(span, max_size=2)):  # one span, two types
        found |= {mention("A", s, e), mention("B", s, e)}
    for s, e in draw(st.lists(span, max_size=2)):  # touching: (s, e) then (e, ...)
        found.add(mention(draw(types), s, e))
        if e < n:
            found.add(mention(draw(types), e, draw(st.integers(e + 1, n))))
    for s, e in draw(st.lists(span, max_size=2)):  # a chain nested inside (s, e)
        for _ in range(draw(st.integers(1, 4))):
            if s >= e:
                break
            found.add(mention(draw(types), s, e))
            s, e = s + draw(st.integers(0, 1)), e - draw(st.integers(0, 1))
    return frozenset(found)


class TestPartialCrossing:
    @settings(max_examples=400, deadline=None)
    @given(mention_sets())
    def test_sweep_agrees_with_every_pair(self, mentions):
        assert contains_partial_crossing(mentions) == crosses_pairwise(mentions)

    @pytest.mark.parametrize(
        "spans,crossing",
        [
            ([("A", 0, 3), ("B", 0, 3)], False),  # equal spans, different types
            ([("A", 0, 2), ("B", 2, 4)], False),  # touching
            ([("A", 0, 6), ("A", 1, 5), ("B", 2, 4), ("C", 2, 3)], False),  # a chain
            ([("A", 0, 6), ("A", 1, 5), ("B", 4, 7)], True),  # crosses the chain's top two
            ([("A", 0, 2), ("B", 1, 3)], True),
            ([("A", 1, 3), ("B", 0, 2), ("C", 5, 6)], True),
            ([("A", 0, 4), ("B", 0, 2), ("C", 1, 4)], True),  # equal starts are not enough
        ],
    )
    def test_cases(self, spans, crossing):
        mentions = frozenset(mention(t, s, e) for t, s, e in spans)
        assert contains_partial_crossing(mentions) is crossing
        assert crosses_pairwise(mentions) is crossing


class TestCrossingPairs:
    def test_one_crossing_pair_of_spans_at_length_three(self):
        # spans (0,2) and (1,3) are the only crossing pair; two types give 4 typings
        sentences = list(enumerate_crossing_pairs(3, 2))
        assert len(sentences) == 4
        for s in sentences:
            assert len(s.tokens) == 3 and len(s.mentions) == 2
            assert {(m.span.start, m.span.end) for m in s.mentions} == {(0, 2), (1, 3)}

    def test_every_crossing_pair_once(self):
        sentences = list(enumerate_crossing_pairs(5, 2))
        sets = [s.mentions for s in sentences]
        assert len(set(sets)) == len(sets) == 60
        assert all(contains_partial_crossing(m) for m in sets)
        assert not list(enumerate_crossing_pairs(2, 3))
