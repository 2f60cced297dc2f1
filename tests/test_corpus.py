from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import synthgrammar
from conftest import COURT_MENTIONS, mention
from nestner.codec import decode, encode, EncodedSentence
from nestner.core import LabelComponent, Multilabel, Sentence, Token
from nestner.corpus import (
    PAD,
    UNK,
    ColumnSpec,
    ContextualError,
    CorpusError,
    TaggedCorpus,
    attach_contextual,
    bilou_to_bio,
    bio_to_bilou,
    build_vocabulary,
    merge,
    read_conll,
    read_contextual,
    read_spans,
    write_conll,
    write_spans,
)
from nestner.embeddings import PretrainedFormatError, load_pretrained


def corpus_of(*sentences):
    return TaggedCorpus(tuple(sentences))


class TestColumnSpec:
    def test_parse(self):
        spec = ColumnSpec.parse("form,lemma,pos,label")
        assert spec.index("pos") == 2 and spec.has_label

    @pytest.mark.parametrize("bad", ["lemma,label", "form,form", "form,colour"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            ColumnSpec.parse(bad)


class TestReadConll:
    def test_court_file(self, tmp_path, court_conll_text):
        path = tmp_path / "court.conll"
        path.write_text(court_conll_text, encoding="utf-8")
        corpus = read_conll(path)
        assert len(corpus) == 1
        assert corpus.sentences[0].mentions == COURT_MENTIONS

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.conll"
        path.write_text("", encoding="utf-8")
        assert len(read_conll(path)) == 0

    def test_all_outside(self, tmp_path):
        path = tmp_path / "o.conll"
        path.write_text("a\tO\nb\tO\n\nc\tO\n", encoding="utf-8")
        corpus = read_conll(path)
        assert len(corpus) == 2
        assert all(not s.mentions for s in corpus)

    def test_malformed_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("a\tO\nb\tZ-ORG\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            read_conll(path)
        assert "Z-ORG" in str(err.value) and ":2" in str(err.value)

    @pytest.mark.parametrize("scheme", ["bilou", "bio"])
    @pytest.mark.parametrize("label", ["B--X", "B-X Y"])
    def test_bad_entity_type_reports_file_and_line(self, tmp_path, scheme, label):
        path = tmp_path / "bad.conll"
        path.write_text(f"a\tO\nb\t{label}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=rf"bad\.conll:2: bad component"):
            read_conll(path, scheme=scheme)

    def test_strict_decode_failure_reports_sentence(self, tmp_path):
        path = tmp_path / "orphan.conll"
        path.write_text("a\tO\n\nb\tI-ORG\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            read_conll(path)
        assert "sentence 1" in str(err.value)

    def test_repair_policy_reads_model_output(self, tmp_path):
        path = tmp_path / "orphan.conll"
        path.write_text("b\tI-ORG\nc\tL-ORG\n", encoding="utf-8")
        corpus = read_conll(path, policy="repair")
        assert corpus.sentences[0].mentions == {mention("ORG", 0, 2)}

    def test_short_line_reports_line_number(self, tmp_path):
        path = tmp_path / "short.conll"
        path.write_text("a\tO\nb\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            read_conll(path)
        assert ":2" in str(err.value)

    @pytest.mark.parametrize("line", ["\tO", "a b\tO", " \tO"])
    def test_empty_or_whitespace_form_reports_line(self, tmp_path, line):
        path = tmp_path / "form.conll"
        path.write_text(f"a\tO\n{line}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"form\.conll:2: token form must be non-empty"):
            read_conll(path)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xff\tO\n", 1),
            (b"a\tO\n\n\xc3\xa9\tO\nb\xc3\tO\n", 4),  # a cut two-byte character
            (b"a\tO\rb\tO\r\n\r\nc\tO\nd\xff\tO\n", 5),  # \r, \r\n and \n end lines
            (b"a\tO\n" * 5000 + b"\xed\xa0\x80\tO\n", 5001),  # a surrogate, past the first read
        ],
    )
    def test_bytes_not_utf8_report_file_and_line(self, tmp_path, data, line):
        path = tmp_path / "bytes.conll"
        path.write_bytes(data)
        with pytest.raises(CorpusError, match=rf"bytes\.conll:{line}: not valid UTF-8$"):
            read_conll(path)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "extra.conll"
        path.write_text("a\tO\textra\n", encoding="utf-8")
        assert len(read_conll(path)) == 1



def reference_read(path, columns, scheme, policy):
    """``read_conll`` without its tables: every line's token and label is
    parsed anew."""
    spec = ColumnSpec.parse(columns)
    form_i, lemma_i, pos_i = spec.token_indices
    label_i = spec.index("label")
    sentences = []
    for chunk in path.read_text(encoding="utf-8").split("\n\n"):
        rows = [line.split("\t") for line in chunk.split("\n") if line]
        tokens = tuple(
            Token(
                row[form_i],
                lemma=row[lemma_i] if lemma_i is not None else None,
                pos=row[pos_i] if pos_i is not None else None,
            )
            for row in rows
        )
        if label_i is None:
            sentences.append(Sentence(tokens))
            continue
        labels = [row[label_i] for row in rows]
        if scheme == "bio":
            labels = bio_to_bilou(labels)
        parsed = EncodedSentence(tuple(Multilabel.parse(label) for label in labels))
        sentences.append(Sentence(tokens, decode(parsed, policy)))
    return tuple(sentences)


def labeled_rows(scheme, damaged, seed):
    """Sentences of (form, lemma, pos, label) rows over small vocabularies, so
    that labels and token lines repeat. BILOU rows are the synth grammar's
    nested labels, some replaced by another label seen in the file when
    ``damaged``; BIO rows are flat mentions."""
    rng = np.random.default_rng(seed)
    corpus = synthgrammar.generate(40, seed=seed)
    out = []
    for sentence in corpus.sentences:
        if scheme == "bilou":
            labels = encode(sentence).strings()
        else:
            labels, open_type = [], None
            for _ in sentence.tokens:
                roll = rng.random()
                if open_type is not None and roll < 0.4:
                    labels.append(f"I-{open_type}")
                    continue
                open_type = str(rng.choice(["PER", "ORG"])) if roll < 0.7 else None
                labels.append("O" if open_type is None else f"B-{open_type}")
        out.append([
            (t.form, t.form[:3], str(rng.choice(["N", "V"])), label)
            for t, label in zip(sentence.tokens, labels)
        ])
    if damaged:
        pool = sorted({row[3] for rows in out for row in rows})
        for rows in out:
            for i in range(len(rows)):
                if rng.random() < 0.2:
                    rows[i] = rows[i][:3] + (str(rng.choice(pool)),)
    return out


class TestInterning:
    @pytest.mark.parametrize("columns", ["form,label", "pos,label,form,lemma"])
    @pytest.mark.parametrize(
        "scheme, policy, damaged",
        [("bilou", "strict", False), ("bilou", "repair", True), ("bio", "strict", False),
         ("bio", "repair", False)],
    )
    def test_equals_a_parse_of_every_line(self, tmp_path, columns, scheme, policy, damaged):
        rows = labeled_rows(scheme, damaged, seed=7)

        def write(path, names):
            order = [("form", "lemma", "pos", "label").index(name) for name in names]
            path.write_text(
                "\n".join(
                    "".join("\t".join(row[i] for i in order) + "\n" for row in sentence)
                    for sentence in rows
                ),
                encoding="utf-8",
            )
            return path

        conll = write(tmp_path / "in.conll", columns.split(","))
        read = read_conll(conll, columns=columns, scheme=scheme, policy=policy)
        assert read.sentences == reference_read(conll, columns, scheme, policy)
        token_names = [name for name in columns.split(",") if name != "label"]
        spans = write(tmp_path / "in.spans", token_names)
        assert read_spans(spans, columns=",".join(token_names)).sentences == tuple(
            Sentence(s.tokens) for s in read.sentences
        )

    def test_repeated_lines_share_one_token_within_a_read_only(self, tmp_path):
        for reader, text in ((read_conll, "a\tO\nb\tU-X\n\na\tO\n"), (read_spans, "a\nb\n\na\n")):
            path = tmp_path / "in.txt"
            path.write_text(text, encoding="utf-8")
            first, second = reader(path).sentences, reader(path).sentences
            assert first[0].tokens[0] is first[1].tokens[0]
            assert not {id(t) for s in first for t in s.tokens} & {
                id(t) for s in second for t in s.tokens
            }

    def test_each_label_built_once_per_process(self, tmp_path, labels_built):
        """Reading a label builds it once, in the label table: a second read of
        the file builds none, and encoding the mentions read gives the very
        labels that parsing their text gives."""
        path = tmp_path / "in.conll"
        path.write_text(
            "a\tB-RD1|B-RD2\nb\tI-RD1|L-RD2\nc\tL-RD1\n\nd\tB-RD1|U-RD2\ne\tL-RD1\n", "utf-8"
        )
        first = read_conll(path)
        assert sorted(str(c) for c in labels_built if isinstance(c, LabelComponent)) == [
            "B-RD1", "B-RD2", "I-RD1", "L-RD1", "L-RD2", "U-RD2"
        ]
        assert sorted(str(m) for m in labels_built if isinstance(m, Multilabel)) == [
            "B-RD1|B-RD2", "B-RD1|U-RD2", "I-RD1|L-RD2", "L-RD1"
        ]
        labels_built.clear()
        assert read_conll(path).sentences == first.sentences
        encoded = [encode(sentence) for sentence in first]
        assert labels_built == []
        assert encoded[0].labels[0] is Multilabel.parse("B-RD1|B-RD2")
        assert encoded[1].labels[0].components[1] is LabelComponent.parse("U-RD2")

    @pytest.mark.parametrize("scheme", ["bilou", "bio"])
    def test_a_repeated_bad_label_is_reported_at_its_first_line(self, tmp_path, scheme):
        path = tmp_path / "bad.conll"
        path.write_text("a\tO\nb\tB--X\n\nc\tB--X\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"bad\.conll:2: bad component"):
            read_conll(path, scheme=scheme)

    @pytest.mark.parametrize(
        "reader, text", [(read_conll, "a\tO\nb c\tO\n\nb c\tO\n"), (read_spans, "a\nb c\n\nb c\n")]
    )
    def test_a_repeated_bad_form_is_reported_at_its_first_line(self, tmp_path, reader, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError, match=r"bad\.txt:2: token form must be non-empty"):
            reader(path)

class TestWriteConll:
    def test_round_trip_byte_identical(self, tmp_path, court_conll_text):
        src = tmp_path / "in.conll"
        src.write_text(court_conll_text, encoding="utf-8")
        corpus = read_conll(src)
        out = tmp_path / "out.conll"
        write_conll(corpus, out)
        assert out.read_text(encoding="utf-8") == court_conll_text

    def test_empty_corpus_empty_file(self, tmp_path):
        out = tmp_path / "empty.conll"
        write_conll(TaggedCorpus(()), out)
        assert out.read_text(encoding="utf-8") == ""

    def test_four_columns_tab_separated(self, tmp_path):
        s = Sentence(
            (Token("Court", lemma="court", pos="NNP"),),
            frozenset({mention("ORG", 0, 1)}),
        )
        out = tmp_path / "four.conll"
        write_conll(corpus_of(s), out, columns="form,lemma,pos,label")
        assert out.read_text(encoding="utf-8") == "Court\tcourt\tNNP\tU-ORG\n"

    def test_columns_in_any_order_with_placeholders(self, tmp_path):
        s = Sentence((Token("Court", pos="NNP"), Token("x", lemma="ex")), frozenset({mention("ORG", 0, 1)}))
        out = tmp_path / "mixed.conll"
        write_conll(corpus_of(s), out, columns="pos,label,form,lemma")
        assert out.read_text(encoding="utf-8") == "NNP\tU-ORG\tCourt\t_\n_\tO\tx\tex\n"
        tokens = read_conll(out, columns="pos,label,form,lemma").sentences[0].tokens
        assert tokens == (Token("Court", lemma="_", pos="NNP"), Token("x", lemma="ex", pos="_"))
        assert read_conll(out, columns="lemma,label,form").sentences[0].tokens[1] == Token("x", lemma="_")

    def test_write_then_read_identity(self, tmp_path, court_sentence):
        out = tmp_path / "c.conll"
        write_conll(corpus_of(court_sentence), out)
        corpus = read_conll(out)
        assert corpus.sentences[0].mentions == court_sentence.mentions
        assert [t.form for t in corpus.sentences[0].tokens] == list(court_sentence.forms())

    def test_canonicalization_idempotent(self, tmp_path):
        # components in non-priority order still decode; one write canonicalizes
        src = tmp_path / "raw.conll"
        src.write_text("a\tB-ORG\nb\tU-GPE|I-ORG\nc\tL-ORG\n", encoding="utf-8")
        once = tmp_path / "once.conll"
        write_conll(read_conll(src), once)
        assert once.read_text(encoding="utf-8") == "a\tB-ORG\nb\tI-ORG|U-GPE\nc\tL-ORG\n"
        twice = tmp_path / "twice.conll"
        write_conll(read_conll(once), twice)
        assert twice.read_text(encoding="utf-8") == once.read_text(encoding="utf-8")


class TestSchemeConversion:
    def test_two_token_mention(self):
        assert bio_to_bilou(["B-PER", "I-PER"]) == ["B-PER", "L-PER"]

    def test_unit_mention(self):
        assert bio_to_bilou(["B-PER"]) == ["U-PER"]

    def test_adjacent_mentions_both_become_units(self):
        bilou = bio_to_bilou(["B-PER", "B-ORG"])
        assert bilou == ["U-PER", "U-ORG"]
        before = decode(EncodedSentence.from_strings(bilou), "strict")
        assert before == {mention("PER", 0, 1), mention("ORG", 1, 2)}

    def test_bilou_to_bio(self):
        assert bilou_to_bio(["U-PER", "O", "B-ORG", "I-ORG", "L-ORG"]) == [
            "B-PER",
            "O",
            "B-ORG",
            "I-ORG",
            "I-ORG",
        ]

    def test_nested_rejected(self):
        with pytest.raises(CorpusError):
            bio_to_bilou(["B-PER|B-ORG"])
        with pytest.raises(CorpusError):
            bilou_to_bio(["U-PER|U-ORG"])

    def test_invalid_bio_rejected(self):
        with pytest.raises(CorpusError):
            bio_to_bilou(["I-PER"])

    def test_invalid_bilou_rejected(self):
        with pytest.raises(CorpusError):
            bilou_to_bio(["B-PER", "O"])

    @given(
        st.lists(
            st.tuples(st.sampled_from(["PER", "ORG"]), st.integers(1, 3)),
            min_size=0,
            max_size=4,
        )
    )
    def test_conversion_preserves_mentions_and_round_trips(self, chunks):
        # build a valid flat BIO sequence: mentions separated by one O
        bio = []
        for entity_type, length in chunks:
            bio.append(f"B-{entity_type}")
            bio.extend(f"I-{entity_type}" for _ in range(length - 1))
            bio.append("O")
        if not bio:
            bio = ["O"]
        bilou = bio_to_bilou(bio)
        assert bilou_to_bio(bilou) == bio
        converted = decode(EncodedSentence.from_strings(bilou), "strict")
        # independent reference: scan the BIO runs directly
        expected = set()
        start = None
        for i, label in enumerate(bio + ["O"]):
            if label.startswith("B-"):
                if start is not None:
                    expected.add(mention(bio[start][2:], start, i))
                start = i
            elif label == "O" and start is not None:
                expected.add(mention(bio[start][2:], start, i))
                start = None
        assert converted == expected


class TestVocabulary:
    def test_all_forms_present_at_threshold_one(self):
        corpus = corpus_of(Sentence((Token("a"), Token("b"), Token("a"))))
        vocab = build_vocabulary(corpus, min_freq=1)
        assert vocab.form_id("a") == 2  # most frequent gets the first free id
        assert vocab.form_id("b") == 3
        assert vocab.form_id("zzz") == 1  # unk

    def test_threshold_two_all_unique_leaves_reserved_only(self):
        corpus = corpus_of(Sentence((Token("a"), Token("b"))))
        vocab = build_vocabulary(corpus, min_freq=2)
        assert vocab.n_forms == 2  # pad + unk

    @pytest.mark.parametrize("min_freq", [0, -5])
    def test_min_freq_below_one_rejected(self, min_freq):
        corpus = corpus_of(Sentence((Token("a"),)))
        with pytest.raises(ValueError, match="min_freq"):
            build_vocabulary(corpus, min_freq=min_freq)

    def test_shuffled_corpus_same_vocabulary(self):
        sents = [
            Sentence((Token("x"), Token("y"))),
            Sentence((Token("y"), Token("z"))),
            Sentence((Token("w"),)),
        ]
        v1 = build_vocabulary(corpus_of(*sents))
        v2 = build_vocabulary(corpus_of(*reversed(sents)))
        assert v1.forms == v2.forms and v1.chars == v2.chars

    def test_pos_tags_sorted(self):
        corpus = corpus_of(Sentence((Token("a", pos="V"), Token("b", pos="N"))))
        vocab = build_vocabulary(corpus)
        assert vocab.pos_tags == ("N", "V")
        assert vocab.pos_index("Q") is None

    def test_char_ids_unk_for_unseen(self):
        corpus = corpus_of(Sentence((Token("ab"),)))
        vocab = build_vocabulary(corpus)
        assert 1 in vocab.char_ids("aq")

    def test_chars_ranked_by_their_count_over_every_token(self):
        corpus = synthgrammar.generate(40, seed=5)
        per_token = Counter()  # the reference: every token's characters, in turn
        for sentence in corpus.sentences:
            for token in sentence.tokens:
                per_token.update(token.form)
        ranked = sorted(per_token.items(), key=lambda kv: (-kv[1], kv[0]))
        expected = {PAD: 0, UNK: 1, **{c: i for i, (c, _) in enumerate(ranked, start=2)}}
        assert build_vocabulary(corpus).chars == expected


class TestSpanFiles:
    def test_round_trip(self, tmp_path, court_sentence):
        path = tmp_path / "spans.tsv"
        write_spans(corpus_of(court_sentence), path)
        corpus = read_spans(path)
        assert corpus.sentences[0].mentions == court_sentence.mentions
        assert corpus.sentences[0].forms() == court_sentence.forms()

    def test_mentions_listed_on_start_line(self, tmp_path):
        s = Sentence(
            (Token("a"), Token("b")),
            frozenset({mention("X", 0, 2), mention("Y", 0, 1)}),
        )
        path = tmp_path / "spans.tsv"
        write_spans(corpus_of(s), path)
        assert path.read_text(encoding="utf-8") == "a\tX 0 2;Y 0 1\nb\n"

    def test_token_columns_with_placeholders(self, tmp_path):
        s = Sentence((Token("a", pos="N"), Token("b")), frozenset({mention("X", 0, 2)}))
        path = tmp_path / "spans.tsv"
        write_spans(corpus_of(s), path, columns="pos,form")
        assert path.read_text(encoding="utf-8") == "N\ta\tX 0 2\n_\tb\n"
        tokens = read_spans(path, columns="pos,form").sentences[0].tokens
        assert tokens == (Token("a", pos="N"), Token("b", pos="_"))
        with pytest.raises(ValueError):
            write_spans(corpus_of(s), path, columns="form,label")

    def test_duplicate_mentions_deduplicated_with_warning(self, tmp_path, caplog):
        path = tmp_path / "dup.tsv"
        path.write_text("a\tX 0 1;X 0 1\n", encoding="utf-8")
        with caplog.at_level("WARNING", logger="nestner.corpus"):
            corpus = read_spans(path)
        assert corpus.sentences[0].mentions == {mention("X", 0, 1)}
        assert any("duplicate" in r.message for r in caplog.records)

    def test_bad_span_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tX zero 1\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            read_spans(path)
        assert ":1" in str(err.value)

    def test_empty_form_reports_line(self, tmp_path):
        path = tmp_path / "form.tsv"
        path.write_text("a\tX 0 2\n\tY 0 1\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"form\.tsv:2: token form must be non-empty"):
            read_spans(path)

    def test_out_of_bounds_mention_rejected(self, tmp_path):
        path = tmp_path / "oob.tsv"
        path.write_text("a\tX 0 2\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            read_spans(path)


class TestContextual:
    def test_read_sidecar(self, tmp_path):
        path = tmp_path / "ctx.vec"
        path.write_text("1 2\n3 4\n\n5 6\n", encoding="utf-8")
        mats = read_contextual(path)
        assert len(mats) == 2
        np.testing.assert_array_equal(mats[0], [[1.0, 2.0], [3.0, 4.0]])

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "ctx.vec"
        path.write_text("1 2 3\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            read_contextual(path, dim=2)

    @pytest.mark.parametrize(
        "text, line",
        [("1 2\n3 4 5\n", 2), ("1 2\n3 4\n\n5 6 7\n8 9 10\n", 4), ("1 2 3\n\n4 5\n", 3)],
    )
    def test_first_row_fixes_the_file_width(self, tmp_path, text, line):
        path = tmp_path / "ctx.vec"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError, match=rf"ctx\.vec:{line}: expected \d values, found \d"):
            read_contextual(path)

    def test_attach_validates_token_counts(self, tmp_path):
        corpus = corpus_of(Sentence((Token("a"), Token("b"))))
        with pytest.raises(CorpusError):
            attach_contextual(corpus, [np.zeros((3, 2))])
        attached = attach_contextual(corpus, [np.zeros((2, 2))])
        assert attached.contextual[0].shape == (2, 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "ctx.vec"
        path.write_text(f"1 2\n\n3 {value}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"ctx\.vec:3: non-finite"):
            read_contextual(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "ctx.vec"
        path.write_text("1 x\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            read_contextual(path)


def test_merge_concatenates():
    a = corpus_of(Sentence((Token("a"),)))
    b = corpus_of(Sentence((Token("b"),)), Sentence((Token("c"),)))
    assert len(merge(a, b)) == 3


def test_merge_refuses_contextual_vectors_on_one_side_only():
    a = corpus_of(Sentence((Token("a"),)))
    b = corpus_of(Sentence((Token("b"), Token("c"))))
    with_vectors = attach_contextual(a, [np.zeros((1, 2))])
    for pair in ((with_vectors, b), (b, with_vectors)):
        with pytest.raises(ContextualError, match="contextual vectors and one without"):
            merge(*pair)
    both = merge(with_vectors, attach_contextual(b, [np.ones((2, 2))]))
    assert [m.shape for m in both.contextual] == [(1, 2), (2, 2)]


def test_merge_refuses_contextual_vectors_of_two_widths():
    a = attach_contextual(corpus_of(Sentence((Token("a"),))), [np.zeros((1, 2))])
    b = attach_contextual(corpus_of(Sentence((Token("b"), Token("c")))), [np.ones((2, 3))])
    with pytest.raises(ContextualError, match="sentence 1: contextual vectors have width 3, "
                                              "expected 2"):
        merge(a, b)


@pytest.mark.parametrize("shape", [(2,), (2, 2, 1)])
def test_contextual_vectors_must_be_matrices(shape):
    corpus = corpus_of(Sentence((Token("a"), Token("b"))))
    with pytest.raises(CorpusError, match=r"sentence 0: .* 2-d \(tokens, width\) matrix"):
        attach_contextual(corpus, [np.zeros(shape)])


def _pretrained_values(path):
    table = load_pretrained(path)
    return table.index, table.matrix.tolist()


# Each reader's result as plain values, and a file it reads.
TEXT_READERS = {
    "conll": (lambda p: read_conll(p).sentences, "é\tB-X\nb\tL-X\n\nc\tO\n"),
    "spans": (lambda p: read_spans(p).sentences, "é\tX 0 2\nb\n\nc\n"),
    "contextual": (lambda p: [m.tolist() for m in read_contextual(p)], "1 2\n3 4\n\n5 6\n"),
    "pretrained": (_pretrained_values, "2 2\né 1 2\nb 3 4\n"),
}


@pytest.mark.parametrize("reader", sorted(TEXT_READERS))
def test_a_byte_order_mark_is_not_part_of_the_first_line(tmp_path, reader):
    read, text = TEXT_READERS[reader]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read(marked) == read(plain)


class TestBlankLineRule:
    """A line that is empty once its line end is removed ends a block, in
    every format; a whitespace-only line is a line like any other."""

    def test_conll(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_bytes(b"\na\tO\r\n\r\n\n\rb\tO\n\n")
        assert [[t.form for t in s.tokens] for s in read_conll(path)] == [["a"], ["b"]]
        path.write_text("a\tO\n \nb\tO\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"f\.conll:2: expected at least 2"):
            read_conll(path)

    def test_spans(self, tmp_path):
        path = tmp_path / "f.spans"
        path.write_bytes(b"\na\tX 0 1\r\n\r\n\n\rb\n\n")
        assert [len(s.mentions) for s in read_spans(path)] == [1, 0]
        path.write_text("a\n \nb\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"f\.spans:2: token form must be non-empty"):
            read_spans(path)

    def test_contextual(self, tmp_path):
        path = tmp_path / "f.vec"
        path.write_bytes(b"\n1 2\r\n\r\n\n\r3 4\n\n")
        assert [m.tolist() for m in read_contextual(path)] == [[[1.0, 2.0]], [[3.0, 4.0]]]
        path.write_text("1 2\n \t\n3 4\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"f\.vec:2: whitespace-only line, no values"):
            read_contextual(path)

    def test_pretrained_skips_blank_and_whitespace_only_lines(self, tmp_path):
        path = tmp_path / "f.vec"
        path.write_bytes(b"\r\n \n2 2\r\n\r\n \na 1 2\n  \rb 3 4\n\n")
        table = load_pretrained(path)
        assert table.index == {"a": 0, "b": 1} and table.dim == 2
        path.write_text("\n2 2\n\n \na 1 2 3\n", encoding="utf-8")
        with pytest.raises(PretrainedFormatError, match=r"f\.vec:5: expected 2 values, found 3"):
            load_pretrained(path)
