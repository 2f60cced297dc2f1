import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from conftest import COURT_LABELS, mention
from nestner import core
from nestner.core import (
    LabelComponent,
    LabelParseError,
    Mention,
    Multilabel,
    NestnerError,
    Sentence,
    Span,
    Token,
    build_alphabet,
    mention_precedes,
    mention_sort_key,
)


class TestToken:
    def test_plain(self):
        t = Token("Court", lemma="court", pos="NNP")
        assert (t.form, t.lemma, t.pos) == ("Court", "court", "NNP")

    @pytest.mark.parametrize("form", ["", "a b", "a\tb", "a\nb"])
    def test_rejects_whitespace(self, form):
        with pytest.raises(ValueError):
            Token(form)


class TestSpan:
    def test_half_open(self):
        assert len(Span(2, 3)) == 1

    @pytest.mark.parametrize("start,end", [(3, 3), (4, 2), (-1, 2)])
    def test_invalid(self, start, end):
        with pytest.raises(ValueError):
            Span(start, end)

    def test_contains_and_overlaps(self):
        assert Span(1, 9).contains(Span(2, 3))
        assert Span(1, 3).overlaps(Span(2, 5))
        assert not Span(1, 2).overlaps(Span(2, 3))


class TestMention:
    @pytest.mark.parametrize("bad", ["", "A|B", "-X", "A B"])
    def test_invalid_type(self, bad):
        with pytest.raises(ValueError):
            Mention(bad, Span(0, 1))

    def test_type_with_inner_dash_ok(self):
        assert Mention("work-of-art", Span(0, 1)).entity_type == "work-of-art"


class TestTupleBackedValues:
    """``Span`` is the tuple ``(start, end)`` and ``Mention`` the tuple
    ``(entity_type, span)``: their constructors check, and nothing changes
    them afterwards."""

    @pytest.mark.parametrize("start,end", [(3, 3), (4, 2), (-1, 2)])
    def test_invalid_span_message(self, start, end):
        with pytest.raises(ValueError) as err:
            Span(start, end)
        assert str(err.value) == f"invalid span: need 0 <= start < end, got ({start}, {end})"

    @pytest.mark.parametrize(
        "make",
        [lambda: Span._make((3, 3)), lambda: Span(1, 3)._replace(end=0),
         lambda: Mention._make(("A|B", Span(0, 1))),
         lambda: mention("X", 1, 3)._replace(entity_type="")],
    )
    def test_make_and_replace_check_like_the_constructor(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize(
        "value, attribute",
        [(Span(1, 3), "start"), (Span(1, 3), "end"), (Span(1, 3), "other"),
         (mention("X", 1, 3), "entity_type"), (mention("X", 1, 3), "span"),
         (mention("X", 1, 3), "other")],
    )
    def test_assignment_raises_attribute_error(self, value, attribute):
        with pytest.raises(AttributeError):
            setattr(value, attribute, 0)
        assert not hasattr(value, "__dict__")

    def test_fields_and_length(self):
        m = mention("ORG", 2, 7)
        assert (m.entity_type, m.span, m.start, m.end) == ("ORG", Span(2, 7), 2, 7)
        assert (m.span.start, m.span.end, len(m.span)) == (2, 7, 5)
        assert repr(m) == "Mention(entity_type='ORG', span=Span(start=2, end=7))"

    def test_equal_to_plain_tuples(self):
        assert Span(0, 2) == (0, 2) and hash(Span(0, 2)) == hash((0, 2))
        assert mention("X", 0, 2) == ("X", (0, 2))
        assert hash(mention("X", 0, 2)) == hash(("X", (0, 2)))
        assert mention("X", 0, 2) in {("X", (0, 2))}
        assert mention("X", 0, 2) != ("X", (0, 3)) and mention("X", 0, 2) != ("Y", (0, 2))

    @given(st.lists(st.tuples(st.sampled_from("ABC"), st.integers(0, 4), st.integers(1, 3))))
    @settings(deadline=None)
    def test_hash_agrees_with_equality(self, raw):
        made = [mention(t, s, s + n) for t, s, n in raw]
        again = [mention(t, s, s + n) for t, s, n in raw]
        for a, b in zip(made, again):
            assert a == b and hash(a) == hash(b) and a is not b
        for a in made:
            for b in made:
                same = (a.entity_type, a.start, a.end) == (b.entity_type, b.start, b.end)
                assert (a == b) == same
                assert a != b or hash(a) == hash(b)
        assert len(frozenset(made)) == len(set(map(tuple, raw)))

    @pytest.mark.parametrize("value", [Span(0, 1), Span(0, 10**12), mention("work-of-art", 3, 9)])
    def test_pickle_and_copy_round_trip(self, value):
        for back in (pickle.loads(pickle.dumps(value, protocol)) for protocol in (2, 5)):
            assert back == value and type(back) is type(value)
            if isinstance(back, Mention):
                assert type(back.span) is Span
        assert copy.deepcopy(value) == value and copy.copy(value) == value

    def test_span_order_is_start_then_end(self):
        spans = [Span(2, 3), Span(0, 5), Span(0, 1), Span(1, 4)]
        assert sorted(spans) == [Span(0, 1), Span(0, 5), Span(1, 4), Span(2, 3)]
        assert Span(0, 1) < Span(0, 2) < Span(1, 2)

    def test_mention_sort_key_order_unchanged(self):
        mentions = [mention("Y", 2, 4), mention("B", 0, 1), mention("X", 2, 4),
                    mention("A", 0, 3), mention("C", 3, 4), mention("A", 2, 3)]
        assert [mention_sort_key(m) for m in sorted(mentions, key=mention_sort_key)] == [
            (0, -3, "A"), (0, -1, "B"), (2, -4, "X"), (2, -4, "Y"), (2, -3, "A"), (3, -4, "C")
        ]


def _raised(make):
    try:
        make()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


class TestEntityTypeMemo:
    """Each distinct valid type is checked once; an invalid one, or a value
    that is not a ``str``, is checked again on every call."""

    @pytest.mark.parametrize(
        "bad,raised",
        [
            ("", (ValueError, "entity type must be non-empty")),
            ("A|B", (ValueError, "entity type may not contain '|' or whitespace: 'A|B'")),
            ("A B", (ValueError, "entity type may not contain '|' or whitespace: 'A B'")),
            ("A\tB", (ValueError, "entity type may not contain '|' or whitespace: 'A\\tB'")),
            ("-X", (ValueError, "entity type may not start with '-': '-X'")),
            (None, (ValueError, "entity type must be non-empty")),
            (7, (TypeError, "argument of type 'int' is not iterable")),
            (b"X", (TypeError, "a bytes-like object is required, not 'str'")),
            (["X"], (TypeError, "expected string or bytes-like object, got 'list'")),
        ],
    )
    def test_invalid_type_raises_alike_on_every_call(self, bad, raised):
        makers = [
            lambda: Mention(bad, Span(0, 1)),
            lambda: LabelComponent("B", bad),
        ]
        for make in makers:
            assert _raised(make) == raised
            assert _raised(make) == raised
        Mention("VALID", Span(0, 1))
        for make in makers:
            assert _raised(make) == raised

    def test_a_valid_type_is_checked_once(self):
        memo = core._check_entity_type_memo
        memo.cache_clear()
        for start in range(5):
            Mention("ORG", Span(start, start + 1))
            LabelComponent("I", "ORG")
        assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 9)

    def test_invalid_types_are_never_cached(self):
        memo = core._check_entity_type_memo
        assert memo.cache_info().maxsize is not None  # the memo is bounded
        hits = memo.cache_info().hits
        for _ in range(3):
            with pytest.raises(ValueError):
                core._check_entity_type("A|B")
        assert memo.cache_info().hits == hits  # checked again each time


class TestMentionPriority:
    def test_earlier_start_wins(self):
        # the ORG opening before the unit GPE keeps the first slot on "US"
        assert mention_precedes(mention("ORG", 1, 9), mention("GPE", 2, 3))

    def test_longer_wins_on_same_start(self):
        assert mention_precedes(mention("X", 0, 3), mention("Y", 0, 1))

    def test_equal_spans_break_lexicographically(self):
        a, b = mention("X", 2, 4), mention("Y", 2, 4)
        assert mention_precedes(a, b)
        assert sorted([b, a], key=mention_sort_key) == [a, b]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "C"]),
                st.integers(0, 5),
                st.integers(1, 6),
            ),
            min_size=2,
            max_size=8,
        )
    )
    @settings(deadline=None)
    def test_strict_total_order(self, raw):
        mentions = [mention(t, s, max(s + 1, e)) for t, s, e in raw]
        for a in mentions:
            for b in mentions:
                if (a.entity_type, a.span) == (b.entity_type, b.span):
                    assert not mention_precedes(a, b) or not mention_precedes(b, a)
                else:
                    assert mention_precedes(a, b) != mention_precedes(b, a)
        for a in mentions:
            for b in mentions:
                for c in mentions:
                    if mention_precedes(a, b) and mention_precedes(b, c):
                        assert mention_precedes(a, c)

    @given(st.permutations(list(range(6))), st.data())
    def test_sorting_permutation_invariant(self, perm, data):
        base = [mention("T" + str(i % 2), i % 3, i % 3 + 1 + i % 2) for i in range(6)]
        shuffled = [base[i] for i in perm]
        assert sorted(shuffled, key=mention_sort_key) == sorted(base, key=mention_sort_key)


class TestMultilabelParse:
    def test_two_components(self):
        ml = Multilabel.parse("I-ORG|U-GPE")
        assert [str(c) for c in ml] == ["I-ORG", "U-GPE"]

    def test_outside(self):
        assert Multilabel.parse("O").is_outside
        assert str(Multilabel()) == "O"

    def test_double_last(self):
        assert str(Multilabel.parse("L-ORG|L-GPE")) == "L-ORG|L-GPE"

    @pytest.mark.parametrize(
        "bad", ["", "X-ORG", "ORG", "I-", "I-ORG|", "|I-ORG", "O|I-ORG", "I-ORG||U-GPE"]
    )
    def test_parse_errors_name_content(self, bad):
        with pytest.raises(LabelParseError) as err:
            Multilabel.parse(bad)
        if bad:
            assert bad in str(err.value) or bad.split("|")[0] in str(err.value)

    def test_component_rejects_bare_o(self):
        with pytest.raises(LabelParseError):
            LabelComponent.parse("O")

    @given(
        st.lists(
            st.tuples(st.sampled_from("BILU"), st.sampled_from(["ORG", "GPE", "per"])),
            min_size=0,
            max_size=4,
        )
    )
    def test_round_trip(self, parts):
        text = "O" if not parts else "|".join(f"{t}-{e}" for t, e in parts)
        assert str(Multilabel.parse(text)) == text


class TestSentence:
    def test_mention_bounds_checked(self):
        with pytest.raises(ValueError):
            Sentence((Token("a"),), frozenset({mention("X", 0, 2)}))

    def test_coerces_collections(self):
        s = Sentence([Token("a"), Token("b")], {mention("X", 0, 1)})
        assert isinstance(s.tokens, tuple)
        assert isinstance(s.mentions, frozenset)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sentence(())


class TestAlphabet:
    def test_first_occurrence_order(self):
        alpha = build_alphabet(["O", "B-ORG", "O"])
        assert alpha.strings == ("O", "B-ORG")
        assert alpha.id_of("B-ORG") == 1 and alpha.id_of("O") == 0

    def test_court_labels_have_six_distinct(self):
        alpha = build_alphabet(COURT_LABELS)
        assert len(alpha) == 6

    def test_empty_input_keeps_reserved(self):
        alpha = build_alphabet([], reserved="<eow>")
        assert alpha.strings == ("<eow>",)

    def test_unseen_label_raises(self):
        alpha = build_alphabet(["O", "B-ORG"])
        with pytest.raises(NestnerError, match="'B-LOC' is not in the model's alphabet"):
            alpha.id_of("B-LOC")

    def test_bijective(self):
        alpha = build_alphabet(["O", "A", "B"])
        for i, s in enumerate(alpha.strings):
            assert alpha.string_of(i) == s
            assert alpha.id_of(s) == i

    def test_duplicate_strings_rejected(self):
        from nestner.core import LabelAlphabet

        with pytest.raises(ValueError):
            LabelAlphabet(("O", "O"))
