import numpy as np
import pytest

from nestner.autodiff import Parameters, Tape
from nestner.core import Sentence, Token
from nestner.corpus import UNK, TaggedCorpus, build_vocabulary
from nestner.embeddings import (
    EmbeddingConfig,
    PretrainedFormatError,
    PretrainedTable,
    TokenEmbedder,
    load_pretrained,
)
from test_autodiff import _reference_gru


@pytest.fixture
def vocab():
    corpus = TaggedCorpus(
        (
            Sentence((Token("Court", pos="N"), Token("us", pos="N"), Token("ab"))),
            Sentence((Token("Court", pos="N"),)),
        )
    )
    return build_vocabulary(corpus)


def make_embedder(vocab, config, pretrained=None, seed=0):
    embedder = TokenEmbedder(config, vocab, pretrained)
    params = Parameters()
    embedder.register(params, np.random.default_rng(seed))
    return embedder, params


class TestLoadPretrained:
    def test_plain_rows(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb 3.0 4.0\n", encoding="utf-8")
        table = load_pretrained(path)
        assert len(table) == 2
        np.testing.assert_array_equal(table.vector("b"), [3.0, 4.0])

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\na 1.0 2.0\nb 3.0 4.0\n", encoding="utf-8")
        table = load_pretrained(path)
        assert len(table) == 2
        np.testing.assert_array_equal(table.vector("a"), [1.0, 2.0])

    def test_wrong_width_reports_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb 1.0 2.0 3.0\n", encoding="utf-8")
        with pytest.raises(PretrainedFormatError) as err:
            load_pretrained(path)
        assert ":2" in str(err.value)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a x y\n", encoding="utf-8")
        with pytest.raises(PretrainedFormatError):
            load_pretrained(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"a 1.0 2.0\nb {value} 2.0\n", encoding="utf-8")
        with pytest.raises(PretrainedFormatError, match=r"vec\.txt:2: non-finite"):
            load_pretrained(path)

    def test_header_sets_the_width(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("5 3\na 1.0 2.0 3.0\nb 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(PretrainedFormatError, match=r"vec\.txt:3: expected 3 values, found 2"):
            load_pretrained(path)

    def test_first_row_sets_the_width(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0 3.0\nb 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(PretrainedFormatError, match=r"vec\.txt:2: expected 3 values, found 2"):
            load_pretrained(path)
        path.write_text("a\nb 1.0\n", encoding="utf-8")
        with pytest.raises(PretrainedFormatError, match=r"vec\.txt:1: no values"):
            load_pretrained(path)

    def test_a_signed_pair_is_a_row_not_a_header(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("5 -1\na 2.0\n", encoding="utf-8")
        table = load_pretrained(path)
        assert table.index == {"5": 0, "a": 1} and table.dim == 1

    def test_header_alone_is_an_empty_table_of_its_width(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("0 2\n", encoding="utf-8")
        table = load_pretrained(path)
        assert len(table) == 0 and table.matrix.shape == (0, 2)

    @pytest.mark.parametrize("text", ["5 0\n", "\n5 00\na 1.0\n"], ids=["zero", "00"])
    def test_header_width_below_one(self, tmp_path, text):
        path = tmp_path / "vec.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(PretrainedFormatError, match=r"vec\.txt:\d: header declares width"):
            load_pretrained(path)

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank"])
    def test_no_header_and_no_row_has_no_width(self, tmp_path, text):
        path = tmp_path / "vec.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(PretrainedFormatError, match=r"vec\.txt: no header and no rows"):
            load_pretrained(path)

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\na 9.0 9.0\n", encoding="utf-8")
        table = load_pretrained(path)
        np.testing.assert_array_equal(table.vector("a"), [1.0, 2.0])


class TestPretrainedTable:
    def test_unknown_form_is_zero(self):
        table = PretrainedTable({"a": 0}, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(table.vector("nope"), [0.0, 0.0])

    def test_lowercase_fallback(self):
        table = PretrainedTable({"court": 0}, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(table.vector("Court"), [1.0, 2.0])

    def test_unk_sentinel_is_zero_even_if_present(self):
        table = PretrainedTable({UNK: 0}, np.array([[5.0]]))
        np.testing.assert_array_equal(table.vector(UNK), [0.0])

    def test_matrix_frozen(self):
        table = PretrainedTable({"a": 0}, np.array([[1.0]]))
        assert not table.matrix.flags.writeable
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 2.0


class TestEmbeddingConfig:
    def test_token_dim_is_sum_of_enabled_parts(self):
        config = EmbeddingConfig(
            pretrained_dim=300, trainable_dim=256, char_dim=128, char_rnn_dim=128
        )
        assert config.token_dim == 300 + 256 + 256

    def test_pos_requires_resolved_width(self):
        config = EmbeddingConfig(trainable_dim=4, char_dim=0, char_rnn_dim=0, use_pos_onehot=True)
        with pytest.raises(ValueError):
            config.token_dim

    def test_char_dims_enabled_together(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(char_dim=8, char_rnn_dim=0)

    def test_needs_one_source(self):
        with pytest.raises(ValueError, match="trainable_dim"):
            EmbeddingConfig(trainable_dim=0, char_dim=0, char_rnn_dim=0)
        # a POS one-hot alone is a source
        EmbeddingConfig(trainable_dim=0, char_dim=0, char_rnn_dim=0, use_pos_onehot=True)


class TestTokenVector:
    def test_full_width_812(self, vocab, tmp_path):
        path = tmp_path / "vec.txt"
        rng = np.random.default_rng(0)
        rows = "\n".join(
            w + " " + " ".join(f"{x:.4f}" for x in rng.standard_normal(300))
            for w in ("court", "us")
        )
        path.write_text(rows + "\n", encoding="utf-8")
        table = load_pretrained(path)
        config = EmbeddingConfig(
            pretrained_dim=300, trainable_dim=256, char_dim=128, char_rnn_dim=128
        )
        embedder, params = make_embedder(vocab, config, table)
        vec = embedder.token_vector(Tape(params), [Token("Court")])
        assert vec.shape == (1, 812)

    def test_unknown_form_pretrained_slice_is_zero(self, vocab):
        table = PretrainedTable({"court": 0}, np.ones((1, 4)))
        config = EmbeddingConfig(pretrained_dim=4, trainable_dim=3, char_dim=0, char_rnn_dim=0)
        embedder, params = make_embedder(vocab, config, table)
        vec = embedder.token_vector(Tape(params), [Token("martian")])
        np.testing.assert_array_equal(vec.value[0, :4], np.zeros(4))

    def test_eval_mode_deterministic(self, vocab):
        config = EmbeddingConfig(trainable_dim=5, char_dim=4, char_rnn_dim=4)
        embedder, params = make_embedder(vocab, config)
        one = embedder.token_vector(Tape(params), [Token("Court")]).value
        two = embedder.token_vector(Tape(params), [Token("Court")]).value
        np.testing.assert_array_equal(one, two)

    def test_depends_only_on_token_attributes(self, vocab):
        # the same token yields the same vector no matter the surrounding sentence
        config = EmbeddingConfig(trainable_dim=5, char_dim=4, char_rnn_dim=4)
        embedder, params = make_embedder(vocab, config)
        token = Token("us", pos="N")
        alone = embedder.token_vector(Tape(params), [token]).value[0]
        for sentence, i in (([Token("Court"), token], 1), ([token, Token("ab"), token], 2)):
            np.testing.assert_allclose(
                embedder.token_vector(Tape(params), sentence).value[i], alone, rtol=0, atol=1e-15
            )

    def test_pos_onehot_and_unknown_pos(self, vocab):
        config = EmbeddingConfig(
            trainable_dim=2, char_dim=0, char_rnn_dim=0,
            use_pos_onehot=True, pos_dim=vocab.n_pos,
        )
        embedder, params = make_embedder(vocab, config)
        known = embedder.token_vector(Tape(params), [Token("Court", pos="N")]).value
        assert known[0, 2:].tolist() == [1.0]
        unknown = embedder.token_vector(Tape(params), [Token("Court", pos="XYZ")]).value
        assert unknown[0, 2:].tolist() == [0.0]

    def test_lookup_form_overrides_tables_not_chars(self, vocab):
        config = EmbeddingConfig(trainable_dim=3, char_dim=4, char_rnn_dim=4)
        embedder, params = make_embedder(vocab, config)
        raw = embedder.token_vector(Tape(params), [Token("Court")]).value[0]
        dropped = embedder.token_vector(Tape(params), [Token("Court")], [UNK]).value[0]
        # the trainable slice moved to the unk row, the char slice is unchanged
        assert not np.array_equal(raw[:3], dropped[:3])
        np.testing.assert_array_equal(raw[3:], dropped[3:])

    def test_lookup_form_also_blanks_pretrained_slice(self, vocab):
        table = PretrainedTable({"court": 0}, np.ones((1, 2)))
        config = EmbeddingConfig(pretrained_dim=2, trainable_dim=2, char_dim=0, char_rnn_dim=0)
        embedder, params = make_embedder(vocab, config, table)
        raw = embedder.token_vector(Tape(params), [Token("Court")]).value[0]
        dropped = embedder.token_vector(Tape(params), [Token("Court")], [UNK]).value[0]
        np.testing.assert_array_equal(raw[:2], [1.0, 1.0])
        np.testing.assert_array_equal(dropped[:2], [0.0, 0.0])

    def test_lemma_slice_uses_lemma_table(self):
        corpus = TaggedCorpus((Sentence((Token("walks", lemma="walk"),)),))
        vocab = build_vocabulary(corpus)
        config = EmbeddingConfig(trainable_dim=2, lemma_dim=3, char_dim=0, char_rnn_dim=0)
        embedder, params = make_embedder(vocab, config)
        vec = embedder.token_vector(Tape(params), [Token("walks", lemma="walk")])
        np.testing.assert_array_equal(
            vec.value[0, 2:], params["embed.lemma"][vocab.lemma_id("walk")]
        )

    def test_contextual_slice_appended(self, vocab):
        config = EmbeddingConfig(trainable_dim=2, char_dim=0, char_rnn_dim=0, contextual_dim=3)
        embedder, params = make_embedder(vocab, config)
        rows = np.array([[7.0, 8.0, 9.0]])
        vec = embedder.token_vector(Tape(params), [Token("Court")], contextual=rows)
        np.testing.assert_array_equal(vec.value[:, 2:], rows)
        # without them the vectors end before the contextual columns
        alone = embedder.token_vector(Tape(params), [Token("Court")])
        np.testing.assert_array_equal(alone.value, vec.value[:, :2])


class TestSentenceVectors:
    """A sentence's (T, d) matrix is its token vectors stacked, built from one
    lookup per table and one packed char BiGRU over the distinct forms."""

    TOKENS = (
        Token("Court", lemma="court", pos="N"),
        Token("us", lemma="we", pos="N"),
        Token("Court", lemma="court", pos="N"),
        Token("ab"),
        Token("zz", pos="XYZ"),
    )
    # word dropout: the repeated form is looked up once as itself and once as UNK
    LOOKUP = ("Court", UNK, UNK, "ab", "zz")

    @pytest.fixture
    def setup(self):
        vocab = build_vocabulary(TaggedCorpus((Sentence(self.TOKENS[:4]),)))
        table = PretrainedTable({"court": 0, "us": 1}, np.arange(6.0).reshape(2, 3))
        config = EmbeddingConfig(
            pretrained_dim=3, trainable_dim=4, lemma_dim=2, char_dim=3, char_rnn_dim=2,
            use_pos_onehot=True, pos_dim=vocab.n_pos, contextual_dim=2,
        )
        embedder, params = make_embedder(vocab, config, table, seed=3)
        contextual = np.random.default_rng(1).standard_normal((len(self.TOKENS), 2))
        return embedder, params, contextual

    def _token_by_token(self, embedder, tape, contextual):
        """Each token's (1, d) vector as a one-token sentence."""
        return [
            embedder.token_vector(tape, [token], [form], row[None])
            for token, form, row in zip(self.TOKENS, self.LOOKUP, contextual)
        ]

    def test_matrix_equals_stacked_token_vectors(self, setup):
        embedder, params, contextual = setup
        tape = Tape(params)
        matrix = embedder.token_vector(tape, self.TOKENS, self.LOOKUP, contextual)
        rows = self._token_by_token(embedder, tape, contextual)
        assert matrix.shape == (len(self.TOKENS), embedder.config.token_dim)
        np.testing.assert_allclose(
            matrix.value, np.concatenate([r.value for r in rows]), rtol=0, atol=1e-12
        )

    def test_gradients_equal_token_by_token(self, setup):
        embedder, params, contextual = setup
        n = len(self.TOKENS)
        weights = np.random.default_rng(2).standard_normal((1, n * embedder.config.token_dim))

        def loss(tape, rows):
            # the (1, token_dim) token vectors end to end, so every entry reaches the loss
            x = tape.dropout(tape.concat(rows), weights)
            return tape.softmax_cross_entropy(tape.tanh(x), [3])

        tape = Tape(params)
        matrix = embedder.token_vector(tape, self.TOKENS, self.LOOKUP, contextual)
        by_matrix = tape.backward(loss(tape, [tape.gather(matrix, [i]) for i in range(n)]))
        tape = Tape(params)
        by_rows = tape.backward(loss(tape, self._token_by_token(embedder, tape, contextual)))
        assert set(by_matrix.rows) == set(by_rows.rows)
        assert set(by_matrix.dense) == set(by_rows.dense)
        for name, arr in params.items():
            np.testing.assert_allclose(
                by_matrix.materialize(name, arr.shape), by_rows.materialize(name, arr.shape),
                rtol=0, atol=1e-12, err_msg=name,
            )

    def test_char_lookup_holds_each_distinct_form_once(self, setup):
        embedder, params, contextual = setup
        tape = Tape(params)
        embedder.token_vector(tape, self.TOKENS, self.LOOKUP, contextual)
        char_ids = [ids for name, ids, _ in tape._lookups if name == TokenEmbedder.CHAR_TABLE]
        distinct = ("Court", "us", "ab", "zz")
        expected = [c for form in distinct for c in embedder.vocab.char_ids(form)]
        assert len(char_ids) == 1
        np.testing.assert_array_equal(char_ids[0], expected)

    def test_contextual_shape_checked(self, setup):
        embedder, params, contextual = setup
        for bad in (contextual[:, :1], contextual[:3], contextual[0]):
            with pytest.raises(ValueError, match="contextual vectors have shape"):
                embedder.token_vector(Tape(params), self.TOKENS, self.LOOKUP, bad)


class TestCharBiGru:
    def test_direction_symmetry(self, vocab):
        """Reversing characters and swapping direction parameters swaps the halves."""
        config = EmbeddingConfig(trainable_dim=0, char_dim=4, char_rnn_dim=3)
        embedder, params = make_embedder(vocab, config, seed=2)
        before = embedder.token_vector(Tape(params), [Token("ab")]).value[0].copy()

        swapped = Parameters()
        for fw_name, bw_name in zip(TokenEmbedder.CHAR_FW, TokenEmbedder.CHAR_BW):
            swapped.add(fw_name, params[bw_name])
            swapped.add(bw_name, params[fw_name])
        swapped.add(TokenEmbedder.CHAR_TABLE, params[TokenEmbedder.CHAR_TABLE])
        after = embedder.token_vector(Tape(swapped), [Token("ba")]).value[0]

        np.testing.assert_array_equal(after[:3], before[3:])
        np.testing.assert_array_equal(after[3:], before[:3])

    def test_each_token_reads_its_forms_final_states(self, vocab):
        """A token's char slice is the forward GRU's state after its form's
        last character and the backward GRU's after its first, as a
        step-by-step GRU over that form alone gives them."""
        config = EmbeddingConfig(trainable_dim=0, char_dim=4, char_rnn_dim=3)
        embedder, params = make_embedder(vocab, config, seed=3)
        tokens = [Token(form) for form in ("Court", "us", "Court", "ab", "x")]
        vectors = embedder.token_vector(Tape(params), tokens).value
        for token, vector in zip(tokens, vectors):
            chars = params[TokenEmbedder.CHAR_TABLE][vocab.char_ids(token.form)]
            for (wx, wh, b), half, xs in (
                (TokenEmbedder.CHAR_FW, vector[:3], chars),
                (TokenEmbedder.CHAR_BW, vector[3:], chars[::-1]),
            ):
                states = _reference_gru(xs, params[wx], params[wh], params[b], np.zeros(3))
                np.testing.assert_allclose(half, states[-1], rtol=0, atol=1e-12)

    def test_pretrained_rows_receive_no_gradient(self, vocab):
        """The pretrained slice is a frozen constant: nothing to train, nothing trained."""
        table = PretrainedTable({"court": 0}, np.full((1, 2), 3.0))
        config = EmbeddingConfig(pretrained_dim=2, trainable_dim=2, char_dim=0, char_rnn_dim=0)
        embedder, params = make_embedder(vocab, config, table)
        snapshot = table.matrix.copy()
        tape = Tape(params)
        vec = embedder.token_vector(tape, [Token("Court")])
        grads = tape.backward(tape.softmax_cross_entropy(vec, [0]))
        assert all(not name.startswith("pretrained") for name in params.names())
        assert set(grads.dense) | set(grads.rows) <= set(params.names())
        np.testing.assert_array_equal(table.matrix, snapshot)

    def test_register_requires_table_when_enabled(self, vocab):
        config = EmbeddingConfig(pretrained_dim=4, trainable_dim=2, char_dim=0, char_rnn_dim=0)
        with pytest.raises(ValueError):
            TokenEmbedder(config, vocab, None)
