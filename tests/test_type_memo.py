"""Read-only loaded models and their input memo: each token type's encoder
input projection is computed once and read back by later calls."""

import numpy as np
import pytest

import synthgrammar
from nestner import models, training
from nestner.autodiff import ForwardTape
from nestner.core import NestnerError, Sentence, Token
from nestner.embeddings import EmbeddingConfig, TokenEmbedder
from nestner.models import ContextualError, Example

EMBEDDING = EmbeddingConfig(trainable_dim=4, char_dim=3, char_rnn_dim=2)


def build(kind, embedding=EMBEDDING, dtype=np.float64, corpus=None):
    return training.build_model(
        kind, corpus or synthgrammar.generate(10, seed=6), embedding=embedding, hidden_dim=4,
        decoder_dim=4, label_embed_dim=3, seed=2, dtype=dtype,
    )


@pytest.fixture(scope="module", params=["crf", "seq2seq"])
def loaded(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("memo") / f"{request.param}.model"
    models.save_model(build(request.param), path)
    return models.load_model(path)


def n_values(model) -> int:
    return sum(arr.size for _, arr in model.params.items())


@pytest.mark.parametrize("source", ["load_model", "saved_copy"])
def test_every_parameter_rejects_a_write(loaded, source):
    model = loaded if source == "load_model" else models.saved_copy(build(loaded.kind))
    assert model.params.names()
    for name, arr in model.params.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            arr += 1.0


def test_second_predict_of_a_sentence_makes_no_token_vector_call(loaded, monkeypatch):
    calls = []
    original = TokenEmbedder.token_vector

    def counting(self, tape, tokens, *args, **kwargs):
        calls.append(list(tokens))
        return original(self, tape, tokens, *args, **kwargs)

    monkeypatch.setattr(TokenEmbedder, "token_vector", counting)
    sentence = Sentence(tuple(Token(f) for f in ("never", "seen", "forms", "seen")))
    first = loaded.predict(sentence)
    assert calls == [[Token("never"), Token("seen"), Token("forms")]]
    assert loaded.predict(sentence) == first
    assert len(calls) == 1


def test_memo_holds_no_more_values_than_the_model_has_parameters(loaded):
    width = 2 * 4 * loaded.hidden_dim  # both directions' rows of one type
    limit = n_values(loaded)
    rng = np.random.default_rng(4)
    seen = set()
    for _ in range(60):
        forms = {"".join(rng.choice(list("abcdefgh"), 6)) for _ in range(rng.integers(1, 9))}
        sentence = Sentence(tuple(Token(f) for f in sorted(forms)))
        loaded.predict(sentence)
        seen |= forms
        assert len(loaded._memo) * width <= limit or len(loaded._memo) == len(forms)
        assert set(sentence.tokens) <= set(loaded._memo.rows)
    assert len(loaded._memo) < len(seen)  # the bound was reached and the memo emptied


def test_one_call_with_more_types_than_the_bound_keeps_them_all(loaded):
    sentence = Sentence(tuple(Token(f"w{i}") for i in range(loaded._memo.max_rows + 5)))
    before = loaded.predict(sentence)
    assert len(loaded._memo) == len(sentence.tokens)
    assert loaded.predict(sentence) == before


def test_saved_copy_starts_with_an_empty_memo(loaded):
    loaded.predict(synthgrammar.generate(2, seed=1).sentences[0])
    assert len(loaded._memo)
    copied = models.saved_copy(loaded)
    assert copied._memo is not loaded._memo
    assert len(copied._memo) == 0
    assert models.saved_copy(copied)._memo is not copied._memo


def test_built_model_has_no_memo():
    assert build("crf")._memo is None


@pytest.mark.parametrize("kind", ["crf", "seq2seq"])
@pytest.mark.parametrize(
    "embedding",
    [
        EmbeddingConfig(trainable_dim=4, char_dim=3, char_rnn_dim=2, contextual_dim=3),
        EmbeddingConfig(trainable_dim=0, char_dim=0, char_rnn_dim=0, contextual_dim=3),
    ],
    ids=["types-and-sidecar", "sidecar-only"],
)
def test_sidecar_model_matches_its_unmemoized_twin(kind, embedding):
    """The memo projects the token-type columns and adds the sidecar
    columns' projection per call: the encoder outputs equal those of the
    built model with the same values, which has no memo."""
    corpus = synthgrammar.generate(8, seed=3)
    twin = build(kind, embedding, np.float32, corpus)
    memoized = models.saved_copy(twin)
    rng = np.random.default_rng(1)
    examples = [Example(s, rng.standard_normal((len(s.tokens), 3))) for s in corpus]
    for block in (examples[:3], examples[3:], examples):  # later blocks reuse rows
        got = memoized._encode(ForwardTape(memoized.params), block)[0].value
        want = twin._encode(ForwardTape(twin.params), block)[0].value
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
    contextual = [ex.contextual for ex in examples]
    assert memoized.predict_batch(corpus.sentences, contextual) == twin.predict_batch(
        corpus.sentences, contextual
    )


class TestContextualChecks:
    """``predict_batch`` checks its sidecar blocks before encoding, and names
    the sentence."""

    SENTENCES = synthgrammar.generate(3, seed=5).sentences

    def blocks(self, width):
        return [np.zeros((len(s.tokens), width)) for s in self.SENTENCES]

    @pytest.fixture(scope="class")
    def sidecar_model(self):
        embedding = EmbeddingConfig(trainable_dim=4, char_dim=0, char_rnn_dim=0, contextual_dim=2)
        return build("crf", embedding, corpus=synthgrammar.generate(10, seed=6))

    def test_blocks_for_a_model_trained_without_them(self):
        with pytest.raises(ContextualError, match="sentence 0: .* trained without them") as err:
            build("crf").predict_batch(self.SENTENCES, self.blocks(2))
        assert isinstance(err.value, NestnerError)

    def test_no_blocks_for_a_model_that_needs_them(self, sidecar_model):
        with pytest.raises(ContextualError, match="sentence 0: .* width 2; none given"):
            sidecar_model.predict_batch(self.SENTENCES)

    @pytest.mark.parametrize("count, index", [(2, 2), (4, 3)])
    def test_a_list_of_another_length(self, sidecar_model, count, index):
        blocks = (self.blocks(2) * 2)[:count]
        with pytest.raises(ContextualError, match=f"sentence {index}: {count} contextual blocks"):
            sidecar_model.predict_batch(self.SENTENCES, blocks)

    def test_blocks_for_no_sentences(self, sidecar_model):
        """As in ``TaggedCorpus``: no sentences take no blocks, and none."""
        with pytest.raises(ContextualError, match="sentence 0: 1 contextual blocks for 0"):
            sidecar_model.predict_batch([], self.blocks(2)[:1])
        assert sidecar_model.predict_batch([]) == sidecar_model.predict_batch([], []) == []

    def test_a_block_of_another_shape(self, sidecar_model):
        blocks = self.blocks(2)
        blocks[1] = blocks[1][:, :1]
        with pytest.raises(ContextualError, match="sentence 1: .* width 1, expected 2"):
            sidecar_model.predict_batch(self.SENTENCES, blocks)
