import collections
import gc
import re
import warnings
import weakref

import numpy as np
import pytest

import synthgrammar
from conftest import mention
from nestner import autodiff, codec, training
from nestner.autodiff import Gradients, Parameters, RowGradient, Tape, dropout_mask
from nestner.core import NestnerError, Sentence, Token
from nestner.corpus import UNK, TaggedCorpus, build_vocabulary, merge
from nestner.embeddings import EmbeddingConfig
from nestner.training import (
    LazyAdam,
    OptimizerConfig,
    OptimizerError,
    RegularizationConfig,
    TrainConfig,
    build_model,
    evaluate_model,
    train,
    word_dropout,
)

TINY = EmbeddingConfig(trainable_dim=8, char_dim=0, char_rnn_dim=0)
NO_REG = RegularizationConfig(0.0, 0.0)
BLOCK = LazyAdam.BLOCK


def small_corpus():
    return synthgrammar.generate(8, seed=11)


class TestConfigs:
    @pytest.mark.parametrize(
        "kwargs",
        [{"learning_rate": rate} for rate in (0.0, float("nan"), float("inf"), -float("inf"))],
    )
    def test_optimizer_validation(self, kwargs):
        with pytest.raises(ValueError, match="learning_rate"):
            OptimizerConfig(**kwargs)

    def test_optimizer_defaults_match_training_regimen(self):
        assert OptimizerConfig().learning_rate == 1e-3
        assert (LazyAdam.BETA1, LazyAdam.BETA2, LazyAdam.EPSILON) == (0.9, 0.98, 1e-8)

    @pytest.mark.parametrize("kwargs", [{"dropout_rate": 1.0}, {"word_dropout_rate": -0.2}])
    def test_regularization_validation(self, kwargs):
        with pytest.raises(ValueError):
            RegularizationConfig(**kwargs)

    def test_regularization_defaults(self):
        cfg = RegularizationConfig()
        assert (cfg.dropout_rate, cfg.word_dropout_rate) == (0.5, 0.2)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)
        assert TrainConfig(epochs=1).batch_size == 8


class TestLazyAdam:
    def _grads(self, **dense):
        grads = Gradients()
        for name, value in dense.items():
            grads.dense[name] = np.asarray(value, dtype=np.float64)
        return grads

    def test_first_step_closed_form(self):
        # g=1 at step 1: m_hat = 1, v_hat = 1, update = -lr / (1 + eps)
        params = Parameters()
        params.add("w", np.array([2.0]))
        adam = LazyAdam(params, OptimizerConfig(learning_rate=0.1))
        adam.step(self._grads(w=[1.0]))
        assert params["w"][0] == pytest.approx(2.0 - 0.1, abs=1e-8)

    def test_rejects_a_step_size_its_dtype_cannot_hold(self):
        # the first step moves a parameter by lr: the largest rate that
        # float32 holds takes that step without a numpy warning
        for dtype, held, too_large in ((np.float32, 2.4e38, 2.5e38), (np.float64, 1e300, 1.5e308)):
            params = Parameters(dtype)
            params.add("w", np.zeros(1))
            adam = LazyAdam(params, OptimizerConfig(learning_rate=held))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                adam.step(self._grads(w=[1.0]))
            assert params["w"][0] == pytest.approx(-held, rel=1e-6)
            with pytest.raises(ValueError, match=f"learning_rate.*{params.dtype.name}"):
                LazyAdam(params, OptimizerConfig(learning_rate=too_large))

    def test_zero_gradient_first_step_keeps_parameter(self):
        params = Parameters()
        params.add("w", np.array([1.5]))
        adam = LazyAdam(params)
        adam.step(self._grads(w=[0.0]))
        assert params["w"][0] == 1.5

    def test_untouched_rows_bit_identical_after_100_steps(self):
        params = Parameters()
        rng = np.random.default_rng(0)
        params.add("table", rng.standard_normal((4, 3)))
        frozen_row = params["table"][2].tobytes()
        adam = LazyAdam(params)
        for step in range(100):
            grads = Gradients()
            grads.rows["table"] = RowGradient(np.array([0, 3]), np.array([[1.0] * 3, [-0.5] * 3]))
            adam.step(grads)
        assert params["table"][2].tobytes() == frozen_row
        assert adam.m["table"][2].tobytes() == np.zeros(3).tobytes()
        assert params["table"][0].tobytes() != np.zeros(3).tobytes()

    def test_non_finite_gradient_rejected_naming_parameter(self):
        params = Parameters()
        params.add("bad", np.array([1.0]))
        snapshot = params["bad"].copy()
        adam = LazyAdam(params)
        with pytest.raises(OptimizerError) as err:
            adam.step(self._grads(bad=[np.nan]))
        assert "bad" in str(err.value)
        np.testing.assert_array_equal(params["bad"], snapshot)
        assert adam.step_count == 0

    def test_lazy_rows_update_in_sorted_order_deterministically(self):
        def run():
            params = Parameters()
            params.add("t", np.ones((3, 2)))
            adam = LazyAdam(params)
            grads = Gradients()
            grads.rows["t"] = RowGradient(np.array([0, 2]), np.ones((2, 2)))
            adam.step(grads)
            return params["t"].tobytes()

        assert run() == run()

    def test_row_block_matches_dense_update_of_its_rows(self):
        """A row block gets the dense arithmetic, element for element."""
        rng = np.random.default_rng(2)
        table = rng.standard_normal((5, 3))
        sparse_params, dense_params = Parameters(), Parameters()
        sparse_params.add("t", table)
        dense_params.add("t", table[[1, 4]])
        sparse, dense = LazyAdam(sparse_params), LazyAdam(dense_params)
        for _ in range(3):
            values = rng.standard_normal((2, 3))
            grads = Gradients()
            grads.rows["t"] = RowGradient(np.array([1, 4]), values)
            sparse.step(grads)
            dense.step(self._grads(t=values))
        assert sparse_params["t"][[1, 4]].tobytes() == dense_params["t"].tobytes()
        assert sparse.v["t"][[1, 4]].tobytes() == dense.v["t"].tobytes()
        assert sparse_params["t"][[0, 2, 3]].tobytes() == table[[0, 2, 3]].tobytes()

    @pytest.mark.parametrize(
        "shape, ids",
        [((n,), None) for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)]
        + [((400, 300), np.arange(0, 400, 2))],  # a row block of 60,000 values
    )
    def test_blocked_update_is_bit_equal_to_one_piece(self, shape, ids):
        """Updating in BLOCK-element pieces gives the bits of one ``_apply``
        over the whole parameter, or the whole row block."""
        rng = np.random.default_rng(len(shape) + shape[0])
        params = Parameters()
        params.add("w", rng.standard_normal(shape))
        adam = LazyAdam(params)
        w, m, v = params["w"].copy(), np.zeros(shape), np.zeros(shape)
        reference = LazyAdam(Parameters())
        reference._scratch = np.empty(w.size)
        for t in range(1, 4):
            grads = Gradients()
            if ids is None:
                g = grads.dense["w"] = rng.standard_normal(shape)
                rows = (w, m, v)
            else:
                g = rng.standard_normal((len(ids), shape[1]))
                grads.rows["w"] = RowGradient(ids, g)
                rows = (w[ids], m[ids], v[ids])
            adam.step(grads)
            reference.step_count = t
            reference._apply(*rows, g)
            if ids is not None:
                w[ids], m[ids], v[ids] = rows
        assert params["w"].tobytes() == w.tobytes()
        assert adam.m["w"].tobytes() == m.tobytes()
        assert adam.v["w"].tobytes() == v.tobytes()

    def test_matches_the_bias_corrected_textbook_update(self):
        """Folding the bias corrections into the step size and epsilon gives
        Kingma & Ba's Algorithm 1 up to rounding, over many steps."""
        rng = np.random.default_rng(4)
        w = rng.standard_normal((6, 5))
        params = Parameters()
        params.add("w", w)
        adam = LazyAdam(params, OptimizerConfig(learning_rate=0.01))
        b1, b2, eps = LazyAdam.BETA1, LazyAdam.BETA2, LazyAdam.EPSILON
        m, v = np.zeros_like(w), np.zeros_like(w)
        for t in range(1, 51):
            g = rng.standard_normal(w.shape) * (1e-6 if t % 7 == 0 else 1.0)
            adam.step(self._grads(w=g))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - 0.01 * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(params["w"], w, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(adam.m["w"], m, rtol=1e-12, atol=1e-18)
        np.testing.assert_allclose(adam.v["w"], v, rtol=1e-12, atol=1e-24)


class TestWordDropout:
    def test_rate_zero_is_identity(self):
        forms = ["a", "b", "c"]
        assert word_dropout(forms, 0.0, np.random.default_rng(0)) == forms

    def test_rate_one_replaces_everything(self):
        out = word_dropout(["a", "b"], 0.999999999, np.random.default_rng(0))
        assert out == [UNK, UNK]

    def test_rate_concentrates_around_mean(self):
        rng = np.random.default_rng(123)
        forms = ["w"] * 10_000
        replaced = word_dropout(forms, 0.2, rng).count(UNK)
        assert 0.18 <= replaced / 10_000 <= 0.22


class TestBuildModel:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_model("tagger", small_corpus())

    def test_nesting_depth_rejected_at_build(self):
        deep = Sentence(
            (Token("a"), Token("b")),
            frozenset({mention("X", 0, 2), mention("Y", 0, 2), mention("Z", 0, 2)}),
        )
        corpus = TaggedCorpus((deep,))
        with pytest.raises(NestnerError) as err:
            build_model("seq2seq", corpus, embedding=TINY, max_components_per_token=2)
        assert "depth" in str(err.value)

    @pytest.mark.parametrize("kind", ["crf", "seq2seq"])
    def test_each_sentence_encoded_once(self, kind, monkeypatch):
        """``build_model`` then ``train`` with a dev corpus, as ``nestner
        train`` calls them: one encoding per training sentence in the run."""
        corpus = small_corpus()
        counts = collections.Counter()
        encode = codec.encode

        def counting(sentence):
            counts[sentence] += 1
            return encode(sentence)

        monkeypatch.setattr(codec, "encode", counting)
        model = build_model(kind, corpus, embedding=TINY, hidden_dim=4, dtype=np.float32)
        assert counts == collections.Counter(corpus.sentences)
        train(model, corpus, TrainConfig(epochs=1), dev=synthgrammar.generate(3, seed=12))
        assert counts == collections.Counter(corpus.sentences)
        monkeypatch.undo()
        label_alphabet = model.alphabet if kind == "crf" else model.components
        public = (
            training.multilabel_alphabet if kind == "crf" else training.component_alphabet
        )
        assert label_alphabet.strings == public(TaggedCorpus(corpus.sentences)).strings

    def test_pos_dim_resolved_from_vocabulary(self):
        corpus = TaggedCorpus((Sentence((Token("a", pos="N"), Token("b", pos="V"))),))
        model = build_model(
            "crf",
            corpus,
            embedding=EmbeddingConfig(
                trainable_dim=4, char_dim=0, char_rnn_dim=0, use_pos_onehot=True
            ),
            hidden_dim=4,
        )
        assert model.config.embedding.pos_dim == 2


class TestTrainLoop:
    def test_empty_corpus_rejected(self):
        model = build_model("crf", small_corpus(), embedding=TINY, hidden_dim=8)
        with pytest.raises(NestnerError):
            train(model, TaggedCorpus(()), TrainConfig(epochs=1))

    @pytest.mark.parametrize("source", ["load_model", "saved_copy"])
    def test_read_only_model_refused_before_any_step(self, tmp_path, monkeypatch, source):
        corpus = small_corpus()
        model = build_model("crf", corpus, embedding=TINY, hidden_dim=4)
        if source == "load_model":
            training.models.save_model(model, tmp_path / "model.ckpt")
            model = training.models.load_model(tmp_path / "model.ckpt")
        else:
            model = training.models.saved_copy(model)
        steps = []
        monkeypatch.setattr(LazyAdam, "step", lambda self, grads: steps.append(grads))
        with pytest.raises(NestnerError, match="read-only.*start training from build_model"):
            train(model, corpus, TrainConfig(epochs=1), checkpoint_path=tmp_path / "out.ckpt")
        assert steps == []
        assert not (tmp_path / "out.ckpt").exists()

    def test_empty_dev_corpus_rejected(self):
        """No epoch could beat the first on an empty dev corpus."""
        corpus = small_corpus()
        model = build_model("crf", corpus, embedding=TINY, hidden_dim=8)
        before = model.params["crf.trans"].copy()
        with pytest.raises(NestnerError, match="dev corpus is empty"):
            train(model, corpus, TrainConfig(epochs=2), dev=TaggedCorpus(()))
        np.testing.assert_array_equal(model.params["crf.trans"], before)

    @pytest.mark.parametrize("kind", ["crf", "seq2seq"])
    def test_label_outside_the_alphabet_rejected_before_any_step(self, tmp_path, kind):
        """A corpus the model was not built from may hold a gold label its
        alphabet lacks: the run stops naming the sentence and the label,
        with the parameters untouched and no checkpoint written."""
        corpus = small_corpus()
        model = build_model(
            kind, corpus, embedding=TINY, hidden_dim=8, decoder_dim=8, label_embed_dim=4
        )
        before = {name: arr.copy() for name, arr in model.params.items()}
        unseen = Sentence((Token("q"),), frozenset({mention("Q", 0, 1)}))
        wider = merge(corpus, TaggedCorpus((unseen,)))
        checkpoint = tmp_path / "model.ckpt"
        message = f"sentence {len(corpus)}: label 'U-Q' is not in the model's alphabet"
        with pytest.raises(NestnerError, match=re.escape(message)):
            train(model, wider, TrainConfig(epochs=1), checkpoint_path=checkpoint)
        for name, arr in model.params.items():
            np.testing.assert_array_equal(arr, before[name])
        assert not checkpoint.exists()

    def test_same_seed_identical_runs(self):
        corpus = small_corpus()

        def run():
            model = build_model("crf", corpus, embedding=TINY, hidden_dim=8, seed=5)
            metrics = train(model, corpus, TrainConfig(epochs=3, seed=9))
            preds = [sorted((m.entity_type, m.start, m.end) for m in model.predict(s)) for s in corpus]
            return metrics, preds

        first, second = run(), run()
        assert first == second

    def test_loss_below_initial_after_ten_epochs_both_kinds(self):
        corpus = small_corpus()
        for kind in ("crf", "seq2seq"):
            model = build_model(
                kind, corpus, embedding=TINY, hidden_dim=8, decoder_dim=8,
                label_embed_dim=4, seed=1,
            )
            metrics = train(model, corpus, TrainConfig(epochs=10, seed=1), regularization=NO_REG)
            assert metrics[-1]["train_loss"] < metrics[0]["train_loss"], kind

    def test_rows_absent_from_all_batches_stay_put(self):
        corpus = small_corpus()
        vocab_corpus = merge(corpus, TaggedCorpus((Sentence((Token("zzz"),)),)))
        vocab = build_vocabulary(vocab_corpus)
        model = build_model("crf", corpus, embedding=TINY, hidden_dim=8, vocab=vocab)
        row = vocab.form_id("zzz")
        assert row > 1
        before = model.params["embed.form"][row].tobytes()
        train(model, corpus, TrainConfig(epochs=2, seed=3), regularization=NO_REG)
        assert model.params["embed.form"][row].tobytes() == before

    def test_eval_passes_are_identical(self):
        corpus = small_corpus()
        model = build_model("crf", corpus, embedding=TINY, hidden_dim=8)
        train(model, corpus, TrainConfig(epochs=2, seed=4))
        assert evaluate_model(model, corpus) == evaluate_model(model, corpus)

    def test_dev_tracking(self, tmp_path):
        corpus = small_corpus()
        dev = synthgrammar.generate(4, seed=99)
        model = build_model("crf", corpus, embedding=TINY, hidden_dim=8)
        metrics = train(
            model, corpus, TrainConfig(epochs=2, seed=5), dev=dev,
            checkpoint_path=tmp_path / "ckpt.json",
        )
        assert all("dev_f1" in record for record in metrics)
        assert (tmp_path / "ckpt.json").exists()

    def test_best_dev_parameters_restored(self):
        corpus = small_corpus()
        dev = synthgrammar.generate(4, seed=98)
        model = build_model("crf", corpus, embedding=TINY, hidden_dim=8)
        metrics = train(model, corpus, TrainConfig(epochs=4, seed=6), dev=dev)
        best = max(record["dev_f1"] for record in metrics)
        assert evaluate_model(model, dev) == pytest.approx(best)

    def test_dev_f1_is_scored_on_the_parameters_as_saved(self, tmp_path, monkeypatch):
        """Emission biases 1 and 1 + 1e-12 tag every token U-X in float64
        and O once rounded to float32 (a tie goes to the lower id). The
        logged dev F1, the returned model and the checkpoint must all be
        those of the rounded parameters."""
        corpus = TaggedCorpus(
            tuple(Sentence((Token(f),), frozenset({mention("X", 0, 1)})) for f in "abcd")
        )
        model = build_model("crf", corpus, embedding=TINY, hidden_dim=4)
        assert model.alphabet.strings == ("O", "U-X")
        model.params["crf.emit.w"][:] = 0.0
        model.params["crf.trans"][:] = 0.0
        model.params["crf.emit.b"][:] = [1.0, 1.0 + 1e-12]
        assert evaluate_model(model, corpus) == 1.0
        monkeypatch.setattr(LazyAdam, "step", lambda adam, grads: None)
        checkpoint = tmp_path / "ckpt.json"
        metrics = train(model, corpus, TrainConfig(epochs=1), dev=corpus,
                        checkpoint_path=checkpoint)
        assert metrics[0]["dev_f1"] == 0.0
        assert evaluate_model(model, corpus) == 0.0
        assert evaluate_model(training.models.load_model(checkpoint), corpus) == 0.0

    def test_rejected_step_names_epoch_and_batch_and_keeps_checkpoint(
        self, tmp_path, monkeypatch
    ):
        corpus = small_corpus()
        model = build_model("crf", corpus, embedding=TINY, hidden_dim=8)
        checkpoint = tmp_path / "ckpt.json"
        saved = []
        save = training.models.save_model

        def recording_save(m, path):
            save(m, path)
            saved.append(checkpoint.read_bytes())

        step = LazyAdam.step
        steps = []

        def poisoned_step(adam, grads):
            steps.append(None)
            if len(steps) == 4:  # two batches per epoch: epoch 2, batch 2
                grads.dense["crf.emit.b"] = np.full_like(grads.dense["crf.emit.b"], np.nan)
            step(adam, grads)

        monkeypatch.setattr(training.models, "save_model", recording_save)
        monkeypatch.setattr(LazyAdam, "step", poisoned_step)
        expected = r"^epoch 2, batch 2: non-finite gradient for parameter crf\.emit\.b"
        with pytest.raises(OptimizerError, match=expected):
            train(
                model, corpus, TrainConfig(epochs=3, seed=5, batch_size=4),
                dev=synthgrammar.generate(4, seed=99), checkpoint_path=checkpoint,
            )
        assert len(saved) == 1  # after epoch 1, the only finished epoch
        assert checkpoint.read_bytes() == saved[0]

    def test_word_dropout_trains_unk_row(self):
        corpus = small_corpus()
        model = build_model("crf", corpus, embedding=TINY, hidden_dim=8)
        before = model.params["embed.form"][1].copy()
        train(
            model, corpus, TrainConfig(epochs=2, seed=7),
            regularization=RegularizationConfig(0.0, 0.5),
        )
        assert not np.array_equal(model.params["embed.form"][1], before)


class TestTrainingArithmetic:
    def test_one_epoch_train_loss_pinned_with_dropout(self):
        """Two batches with dropout and word dropout on, from the char BiGRU
        up: the epoch loss is pinned, so a rewrite of the model code cannot
        change the training arithmetic or the random stream unnoticed."""
        corpus = synthgrammar.generate(16, seed=31)
        embedding = EmbeddingConfig(trainable_dim=8, char_dim=4, char_rnn_dim=4)
        expected = {"crf": 11.00265731365553, "seq2seq": 20.45105783903494}
        for kind, loss in expected.items():
            model = build_model(
                kind, corpus, embedding=embedding, hidden_dim=8, decoder_dim=8,
                label_embed_dim=4, seed=5,
            )
            metrics = train(
                model, corpus, TrainConfig(epochs=1, seed=9),
                regularization=RegularizationConfig(0.5, 0.2),
            )
            assert metrics[0]["train_loss"] == pytest.approx(loss, rel=1e-9), kind

    def test_one_epoch_train_loss_pinned_with_dropout_float32(self):
        """The float32 twin of the pinned loss above: the same corpus, seeds
        and random stream through a float32 model."""
        corpus = synthgrammar.generate(16, seed=31)
        embedding = EmbeddingConfig(trainable_dim=8, char_dim=4, char_rnn_dim=4)
        expected = {"crf": 11.002657413482666, "seq2seq": 20.45105743408203}
        for kind, loss in expected.items():
            model = build_model(
                kind, corpus, embedding=embedding, hidden_dim=8, decoder_dim=8,
                label_embed_dim=4, seed=5, dtype=np.float32,
            )
            metrics = train(
                model, corpus, TrainConfig(epochs=1, seed=9),
                regularization=RegularizationConfig(0.5, 0.2),
            )
            # rel 1e-5, about 170 float32 ulps: the loss sums 16 sentences
            # through LSTMs and CRFs across an Adam step, and a BLAS kernel or
            # thread count that sums in another order moves its last bits
            assert metrics[0]["train_loss"] == pytest.approx(loss, rel=1e-5), kind

    def test_finished_batch_graph_is_freed_without_gc(self, monkeypatch):
        """Each batch's tape is unreachable once its step is done, with the
        cyclic collector off: reference counting alone frees the graph."""
        refs: list = []
        alive_when_created: list = []

        class WatchedTape(training.Tape):
            def __init__(self, params):
                alive_when_created.append(sum(ref() is not None for ref in refs))
                super().__init__(params)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(training, "Tape", WatchedTape)
        corpus = synthgrammar.generate(24, seed=3)
        embedding = EmbeddingConfig(trainable_dim=4, char_dim=2, char_rnn_dim=2)
        for kind in ("crf", "seq2seq"):
            model = build_model(
                kind, corpus, embedding=embedding, hidden_dim=4, decoder_dim=4,
                label_embed_dim=2,
            )
            refs.clear()
            alive_when_created.clear()
            gc.disable()
            try:
                train(model, corpus, TrainConfig(epochs=1, seed=2))
                alive_after = [ref() is not None for ref in refs]
            finally:
                gc.enable()
            assert alive_when_created == [0, 0, 0], kind
            assert alive_after == [False, False, False], kind


class TestLearningGate:
    """Training must learn, in either dtype: on a fixed synth regime the dev
    F1 after a few epochs lies well inside (0, 1), where a trainer that
    stopped learning after the first epoch (0.014 for the CRF, 0.0 for
    seq2seq) falls below the bound, and float32 tracks float64."""

    @pytest.mark.parametrize("kind, epochs, low, high", [
        ("crf", 3, 0.5, 0.9),  # 0.730 when probed
        ("seq2seq", 6, 0.35, 0.7),  # 0.522 when probed
    ])
    def test_dev_f1_inside_bounds_in_both_dtypes(self, kind, epochs, low, high):
        corpus = synthgrammar.generate(80, seed=21)
        dev = synthgrammar.generate(40, seed=22)
        embedding = EmbeddingConfig(trainable_dim=8, char_dim=4, char_rnn_dim=4)
        f1 = {}
        for dtype in (np.float64, np.float32):
            model = build_model(
                kind, corpus, embedding=embedding, hidden_dim=8, decoder_dim=8,
                label_embed_dim=4, seed=3, dtype=dtype,
            )
            records = train(
                model, corpus, TrainConfig(epochs=epochs, seed=4),
                optimizer=OptimizerConfig(learning_rate=3e-2), dev=dev,
            )
            f1[dtype] = records[-1]["dev_f1"]
        assert low < f1[np.float32] < high, f1
        assert f1[np.float32] == pytest.approx(f1[np.float64], abs=0.02), f1


class TestPackedBatch:
    """A training batch runs through the network as one packed pass: the
    same loss and gradients as its sentences one at a time, from the same
    random stream."""

    @pytest.mark.parametrize("kind", ["crf", "seq2seq"])
    def test_batch_loss_equals_batches_of_one(self, kind):
        corpus = synthgrammar.generate(6, seed=17)
        lengths = [len(s.tokens) for s in corpus]
        assert len(set(lengths)) > 1
        forms = [[t.form for t in s.tokens] for s in corpus]
        assert any(set(a) & set(b) for a, b in zip(forms, forms[1:]))  # a repeated form
        rng = np.random.default_rng(4)
        contextual = [rng.standard_normal((n, 3)) for n in lengths]
        embedding = EmbeddingConfig(trainable_dim=4, char_dim=3, char_rnn_dim=2, contextual_dim=3)
        model = build_model(
            kind, corpus, embedding=embedding, hidden_dim=4, decoder_dim=4, label_embed_dim=3,
            seed=6,
        )
        dropout, word_rate = 0.5, 0.2

        # the packed pass, with every sentence's draws made first, in turn
        rng = np.random.default_rng(8)
        examples = []
        for sentence, ctx in zip(corpus, contextual):
            lookup_forms = word_dropout(sentence.forms(), word_rate, rng)
            target = model.gold_ids(codec.encode(sentence))
            examples.append(model.example(sentence, ctx, lookup_forms, dropout, rng, target))
        tape = Tape(model.params)
        loss = model.batch_loss(tape, examples)
        packed = tape.backward(loss)

        # the draws, sentence by sentence, in the order of a per-sentence
        # forward pass: word dropout, the token-vector mask, the encoder-output mask
        ref_rng = np.random.default_rng(8)
        for sentence, example in zip(corpus, examples):
            n = len(sentence.tokens)
            assert word_dropout(sentence.forms(), word_rate, ref_rng) == example.lookup_forms
            widths = (embedding.token_dim, 2 * model.hidden_dim)
            for mask, width in zip((example.input_mask, example.output_mask), widths):
                np.testing.assert_array_equal(mask, dropout_mask(ref_rng, (n, width), dropout))
        assert ref_rng.bit_generator.state == rng.bit_generator.state

        # the same examples as batches of one
        total, summed = 0.0, {name: 0.0 for name in model.params.names()}
        for example in examples:
            tape = Tape(model.params)
            one = model.batch_loss(tape, [example])
            grads = tape.backward(one)
            total += float(one.value)
            for name, arr in model.params.items():
                summed[name] = summed[name] + grads.materialize(name, arr.shape)
        assert float(loss.value) == pytest.approx(total, rel=0, abs=1e-12)
        for name, arr in model.params.items():
            np.testing.assert_allclose(
                packed.materialize(name, arr.shape), summed[name], rtol=0, atol=1e-12,
                err_msg=name,
            )

    @pytest.mark.parametrize("kind", ["crf", "seq2seq"])
    def test_one_weight_gradient_product_per_batch(self, kind, monkeypatch):
        """Every dense weight gets exactly one ``Xᵀ·G`` product in a training
        step, so ``Tape.backward`` has no products to merge; a layer that
        went back to one call per sentence would add three here."""
        corpus = synthgrammar.generate(3, seed=17)
        assert len({len(s.tokens) for s in corpus}) == 3
        forms = [t.form for s in corpus for t in s.tokens]
        assert len(set(forms)) < len(forms)  # a repeated form
        embedding = EmbeddingConfig(trainable_dim=4, char_dim=3, char_rnn_dim=2)
        model = build_model(
            kind, corpus, embedding=embedding, hidden_dim=4, decoder_dim=4, label_embed_dim=3,
        )
        names = {id(arr): name for name, arr in model.params.items()}
        calls: collections.Counter = collections.Counter()
        node_names: dict[int, str] = {}
        real = autodiff._acc_product

        def counting(grads, w, x, g):
            calls[w.idx] += 1
            node_names[w.idx] = names[id(w.value)]
            real(grads, w, x, g)

        monkeypatch.setattr(autodiff, "_acc_product", counting)
        batch = [(s, None, model.gold_ids(codec.encode(s))) for s in corpus]
        adam = LazyAdam(model.params)
        rng = np.random.default_rng(1)
        training._train_batch(model, adam, batch, RegularizationConfig(0.5, 0.2), rng)
        weights = {
            name for name, arr in model.params.items()
            if arr.ndim == 2 and name.endswith((".w", ".wx", ".wh"))
        }
        assert len(weights) == (9 if kind == "crf" else 13)
        assert sorted(node_names.values()) == sorted(weights)
        assert set(calls.values()) == {1}, {node_names[i]: n for i, n in calls.items()}
