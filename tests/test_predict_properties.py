"""Properties of block prediction, drawn by hypothesis at width 4 in float64.

A block of sentences predicted in one packed pass, with the seq2seq decoder
running the block in lockstep on cached input projections, must give each
sentence what predicting it alone gives; the cached projections must give
the decoder step the input that teacher forcing records on a tape; and a
saved and loaded model must predict what ``saved_copy`` of the model
predicts.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import synthgrammar
from nestner import models, training
from nestner.autodiff import ForwardTape, Tape
from nestner.core import Mention, Sentence, Span, Token
from nestner.embeddings import EmbeddingConfig
from nestner.models import Example, Seq2seqTagger

WIDTH = 4
EMBEDDING = EmbeddingConfig(trainable_dim=WIDTH, char_dim=WIDTH, char_rnn_dim=WIDTH)
# the synth grammar's forms, plus two it never uses (unknown to the vocabulary)
FORMS = (*synthgrammar.CITIES, *synthgrammar.FILLER, "north", "council", "zyx", "qq")

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def sentences(draw):
    """A sentence of 1-12 tokens from a small pool of forms, so forms repeat,
    with no mention or one."""
    forms = draw(st.lists(st.sampled_from(FORMS), min_size=1, max_size=12))
    mentions = frozenset()
    if draw(st.booleans()):
        start = draw(st.integers(0, len(forms) - 1))
        end = draw(st.integers(start + 1, len(forms)))
        mentions = frozenset({Mention("GPE", Span(start, end))})
    return Sentence(tuple(Token(f) for f in forms), mentions)


blocks = st.lists(sentences(), min_size=1, max_size=6)


@pytest.fixture(scope="module")
def taggers():
    """An untrained tagger of each kind. Random weights give varied label
    paths; the decoder's output layer is scaled, and ``<eow>`` favoured a
    little, so that tokens get 0 to 3 components and the sentences of a
    block leave the lockstep at different steps."""
    corpus = synthgrammar.generate(12, seed=9)
    taggers = {
        kind: training.build_model(
            kind, corpus, embedding=EMBEDDING, hidden_dim=WIDTH, decoder_dim=WIDTH,
            label_embed_dim=WIDTH, max_components_per_token=3, seed=5,
        )
        for kind in ("crf", "seq2seq")
    }
    taggers["seq2seq"].params["dec.out.w"][:] *= 10.0
    taggers["seq2seq"].params["dec.out.b"][0] += 0.15
    return taggers


def _decoder_logits(model, monkeypatch, predict, starts):
    """The logits of every decoder step that ``predict()`` takes, grouped by
    sentence: a step's pointer lies in ``starts[i]:starts[i + 1]`` for
    sentence i."""
    steps = [[] for _ in starts[:-1]]
    original = Seq2seqTagger._step

    def recording(self, tape, state, t, prev_id, projections):
        logits, new_state = original(self, tape, state, t, prev_id, projections)
        for pointer, row in zip(t, logits.value):
            steps[int(np.searchsorted(starts, pointer, side="right")) - 1].append(row)
        return logits, new_state

    monkeypatch.setattr(Seq2seqTagger, "_step", recording)
    try:
        predict()
    finally:
        monkeypatch.undo()
    return [np.array(rows) for rows in steps]


@SETTINGS
@given(block=blocks)
def test_block_predict_equals_predict_per_sentence(taggers, monkeypatch, block):
    for kind, model in taggers.items():
        assert model.predict_batch(block) == [model.predict(s) for s in block], kind
    crf = taggers["crf"]
    packed = crf._emissions(ForwardTape(crf.params), [Example(s) for s in block]).value
    alone = [crf._emissions(ForwardTape(crf.params), [Example(s)]).value for s in block]
    np.testing.assert_allclose(packed, np.concatenate(alone), rtol=0, atol=1e-12)

    seq2seq = taggers["seq2seq"]
    lengths = [len(s.tokens) for s in block]
    starts = np.concatenate(([0], np.cumsum(lengths)))
    lockstep = _decoder_logits(seq2seq, monkeypatch, lambda: seq2seq.predict_batch(block), starts)
    for sentence, steps in zip(block, lockstep):
        [single] = _decoder_logits(
            seq2seq, monkeypatch, lambda: seq2seq.predict(sentence), [0, len(sentence.tokens)]
        )
        assert steps.shape == single.shape
        np.testing.assert_allclose(steps, single, rtol=0, atol=1e-12)


def test_inputs_longer_than_a_block_are_split_into_blocks(taggers, monkeypatch):
    block = synthgrammar.generate(5, seed=2).sentences
    for kind, model in taggers.items():
        alone = [model.predict(s) for s in block]
        monkeypatch.setattr(models, "PREDICT_BLOCK", 2)
        assert model.predict_batch(block) == alone, kind
        monkeypatch.undo()


@SETTINGS
@given(
    sentence=sentences(),
    walk=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 99)), min_size=1, max_size=6),
)
def test_cached_projection_step_equals_step_on_a_recording_tape(taggers, sentence, walk):
    """Along one walk of (pointer, previous label) pairs, the greedy decoder
    step's input, two rows of its cached projections, equals the
    teacher-forced input that training records on a tape, the encoder row
    and the label embedding projected through the whole of ``dec.wx``."""
    model = taggers["seq2seq"]
    tape = Tape(model.params)
    enc, _ = model._start(tape, [Example(sentence)])
    projections = model._projections(enc.value)
    wx, b = tape.param("dec.wx"), tape.param("dec.b")
    for t, prev in walk:
        t, prev = t % len(sentence.tokens), prev % (model.bos_id + 1)
        x = tape.concat([tape.gather(enc, [t]), tape.lookup("dec.labels", [prev])])
        np.testing.assert_allclose(
            projections.encoder[t] + projections.labels[prev], tape.affine(x, wx, b).value[0],
            rtol=0, atol=1e-12,
        )


def greedy_ids(model, sentence):
    """The component ids a seq2seq tagger decodes for one sentence."""
    return model._greedy_ids(ForwardTape(model.params), [Example(sentence)])[0]


@pytest.fixture(scope="module")
def loaded(taggers, tmp_path_factory):
    """Each tagger saved and loaded, next to its ``saved_copy``."""
    pairs = {}
    for kind, model in taggers.items():
        path = tmp_path_factory.mktemp("checkpoints") / f"{kind}.model"
        models.save_model(model, path)
        pairs[kind] = (models.load_model(path), models.saved_copy(model))
    return pairs


@SETTINGS
@given(block=blocks)
def test_loaded_checkpoint_predicts_what_saved_copy_predicts(loaded, block):
    for kind, (from_file, copied) in loaded.items():
        assert from_file.predict_batch(block) == copied.predict_batch(block), kind
        assert [from_file.predict(s) for s in block] == [copied.predict(s) for s in block], kind
    (crf, crf_copy), (seq2seq, seq2seq_copy) = loaded["crf"], loaded["seq2seq"]
    examples = [Example(s) for s in block]
    emissions = crf._emissions(ForwardTape(crf.params), examples).value
    copied = crf_copy._emissions(ForwardTape(crf_copy.params), examples).value
    assert emissions.tobytes() == copied.tobytes()
    for sentence in block:
        assert greedy_ids(seq2seq, sentence) == greedy_ids(seq2seq_copy, sentence)


@SETTINGS
@given(block=blocks)
def test_loaded_model_predicts_a_block_alike_in_any_order(loaded, block):
    """A loaded model's input memo carries rows from call to call: the
    block predicted a sentence at a time, in reverse order and as one
    block gives the same mentions, and emissions within float32 rounding."""
    for kind, (model, _) in loaded.items():
        one_by_one = [model.predict(s) for s in block]
        reverse = [model.predict(s) for s in reversed(block)][::-1]
        assert one_by_one == reverse == model.predict_batch(block), kind
    crf = loaded["crf"][0]
    alone = [crf._emissions(ForwardTape(crf.params), [Example(s)]).value for s in reversed(block)]
    packed = crf._emissions(ForwardTape(crf.params), [Example(s) for s in block]).value
    np.testing.assert_allclose(packed, np.concatenate(alone[::-1]), rtol=1e-5, atol=1e-6)
