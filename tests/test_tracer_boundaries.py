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
from nestner import autodiff, models, training
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
