"""The benchmark's tracer (``bench/tracer.py``) patches the program's entry
points by name. These tests read it, without editing it, and check that every
boundary still resolves and records spans, so ``bench/run.py --trace 1`` keeps
working as the program changes."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import synthgrammar
from nestner import autodiff, codec, models, training
from nestner.embeddings import EmbeddingConfig

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("nestner_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_boundary_resolves_as_install_does(tracer):
    for module_name, path, _, _ in tracer.BOUNDARIES:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module_name}.{path} no longer resolves"
        assert callable(owner.__dict__[attr])


def test_tape_node_hook_keeps_its_signature():
    # the tracer's counting tape overrides _new(self, value, back)
    assert list(inspect.signature(autodiff.Tape._new).parameters) == ["self", "value", "back"]


def test_traced_train_and_predict_record_every_model_layer(tracer, tmp_path):
    corpus = synthgrammar.generate(8, seed=4)
    embedding = EmbeddingConfig(trainable_dim=4, char_dim=2, char_rnn_dim=2)
    recorder = tracer.Tracer()
    patches = tracer.install(recorder)
    try:
        assert {target for target, _, _ in patches} >= {autodiff, models, training}
        for kind in ("crf", "seq2seq"):
            with recorder.phase(kind):
                model = training.build_model(
                    kind, corpus, embedding=embedding, hidden_dim=4, decoder_dim=4,
                    label_embed_dim=2,
                )
                checkpoint = tmp_path / f"{kind}.json"
                training.train(
                    model, corpus, training.TrainConfig(epochs=1, seed=1),
                    checkpoint_path=checkpoint,
                )
                loaded = models.load_model(checkpoint)
                for sentence in corpus.sentences[:2]:
                    loaded.predict(sentence)
    finally:
        tracer.restore(patches)
    names = {span.name for span in recorder.spans}
    assert names >= {
        "autodiff.backward", "embeddings.token_vector", "models.encode", "models.crf_nll",
        "models.viterbi", "models.seq2seq_step", "training.adam", "models.save_model",
        "models.load_model", "codec.encode", "codec.decode",
    }
    for kind in ("crf", "seq2seq"):
        assert recorder.counters[(kind, "autodiff.tape_nodes")] > 0
        assert recorder.counters[(kind, "training.adam_rows")] > 0
    # restore put every original back
    assert "CountingTape" not in autodiff.Tape.__name__
    assert models.crf_nll.__code__.co_name == "crf_nll"
    assert np.isfinite(recorder.spans[0].duration)


def test_adam_rows_counts_the_distinct_table_rows_of_a_batch(tracer):
    """One batch, no word dropout: the tracer's ``training.adam_rows`` is the
    number of distinct form, char and (seq2seq) previous-label rows the
    batch looked up, counted here from the ids themselves."""
    corpus = synthgrammar.generate(6, seed=7)
    embedding = EmbeddingConfig(trainable_dim=4, char_dim=2, char_rnn_dim=2)
    for kind in ("crf", "seq2seq"):
        model = training.build_model(
            kind, corpus, embedding=embedding, hidden_dim=4, decoder_dim=4, label_embed_dim=2,
        )
        forms = {model.vocab.form_id(t.form) for s in corpus for t in s.tokens}
        chars = {c for s in corpus for t in s.tokens for c in model.vocab.char_ids(t.form)}
        labels = set()
        if kind == "seq2seq":
            for sentence in corpus:
                stream = [model.components.id_of(x) for x in codec.flatten(codec.encode(sentence))]
                labels.update([model.bos_id, *stream[:-1]])
        recorder = tracer.Tracer()
        patches = tracer.install(recorder)
        try:
            with recorder.phase(kind):
                training.train(
                    model, corpus, training.TrainConfig(epochs=1, batch_size=8, seed=1),
                    regularization=training.RegularizationConfig(0.5, 0.0),
                )
        finally:
            tracer.restore(patches)
        expected = len(forms) + len(chars) + len(labels)
        assert recorder.counters[(kind, "training.adam_rows")] == expected, kind


def test_one_token_vector_span_per_predicted_sentence(tracer):
    """The char BiGRU and the table lookups run once per sentence, so a
    traced predict records one ``embeddings.token_vector`` span, and one
    call, per sentence, not per token."""
    corpus = synthgrammar.generate(5, seed=3)
    assert sum(len(s.tokens) for s in corpus) > len(corpus.sentences)
    embedding = EmbeddingConfig(trainable_dim=4, char_dim=2, char_rnn_dim=2)
    for kind in ("crf", "seq2seq"):
        model = training.build_model(
            kind, corpus, embedding=embedding, hidden_dim=4, decoder_dim=4, label_embed_dim=2,
        )
        recorder = tracer.Tracer()
        patches = tracer.install(recorder)
        try:
            with recorder.phase(kind):
                for sentence in corpus.sentences:
                    model.predict(sentence)
        finally:
            tracer.restore(patches)
        spans = [s for s in recorder.spans if s.name == "embeddings.token_vector"]
        assert len(spans) == len(corpus.sentences), kind
        assert recorder.counters[(kind, "embeddings.token_vector.calls")] == len(corpus.sentences)
