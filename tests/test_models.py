import base64
import io
import itertools
import json
import math
import re
import struct
import time
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import synthgrammar
from conftest import mention, rewrite_checkpoint, set_label
from test_autodiff import _reference_lstm
from nestner import codec, models, training
from nestner.autodiff import ForwardTape, Parameters, Tape
from nestner.core import (
    LabelComponent,
    LabelParseError,
    Multilabel,
    NestnerError,
    Sentence,
    Token,
    build_alphabet,
)
from nestner.corpus import TaggedCorpus
from nestner.embeddings import EmbeddingConfig, PretrainedTable
from nestner.models import (
    CrfConfig,
    CrfTagger,
    Example,
    ModelFormatError,
    Seq2seqConfig,
    Seq2seqTagger,
    crf_log_partition,
    crf_nll,
    load_model,
    save_model,
    saved_copy,
    transition_bounds,
    viterbi,
)

TINY_EMBEDDING = EmbeddingConfig(trainable_dim=8, char_dim=0, char_rnn_dim=0)


def tiny_corpus():
    return TaggedCorpus(
        (
            Sentence(
                (Token("aa"), Token("bb"), Token("cc")),
                frozenset({mention("X", 0, 2), mention("Y", 1, 2)}),
            ),
            Sentence((Token("bb"), Token("dd")), frozenset({mention("Y", 0, 2)})),
        )
    )


def build(kind, corpus=None, seed=3, **kwargs):
    corpus = corpus or tiny_corpus()
    defaults = dict(
        embedding=TINY_EMBEDDING, hidden_dim=6, decoder_dim=6, label_embed_dim=4, seed=seed
    )
    defaults.update(kwargs)
    return training.build_model(kind, corpus, **defaults)


def greedy_stream(model, sentence):
    """The component strings a seq2seq tagger decodes for one sentence."""
    ids = model._greedy_ids(ForwardTape(model.params), [Example(sentence)])[0]
    return [model.components.string_of(i) for i in ids]


def step_distribution(model, tape, state, t, prev_id, projections):
    """The distribution over components plus ``<eow>`` of one greedy
    decoder step that reads encoder row ``t`` and the label ``prev_id``,
    with the new state: :meth:`Seq2seqTagger._step`'s logits, softmaxed."""
    logits, state = model._step(tape, state, [t], [prev_id], projections)
    e = np.exp(logits.value[0] - logits.value[0].max())
    return e / e.sum(), state


# ------------------------------------------------------- enumeration oracles


def path_score(emissions, trans, path):
    k = emissions.shape[1]
    total = trans[k, path[0]] + emissions[0, path[0]]
    for t in range(1, len(path)):
        total += trans[path[t - 1], path[t]] + emissions[t, path[t]]
    return total + trans[path[-1], k + 1]


def brute_log_partition(emissions, trans):
    n, k = emissions.shape
    scores = [path_score(emissions, trans, p) for p in itertools.product(range(k), repeat=n)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_argmax(emissions, trans):
    n, k = emissions.shape
    best_path, best_score = None, -math.inf
    for p in itertools.product(range(k), repeat=n):  # lexicographic: first max wins
        s = path_score(emissions, trans, p)
        if s > best_score:
            best_path, best_score = list(p), s
    return best_path


def reference_viterbi(emissions, trans):
    """Viterbi over ``[i, j]`` score tables, one fresh table per token."""
    n, k = emissions.shape
    delta = emissions[0] + trans[k, :k]
    backptr = []
    for t in range(1, n):
        scores = delta[:, None] + trans[:k, :k]
        best_prev = np.argmax(scores, axis=0)
        delta = scores[best_prev, np.arange(k)] + emissions[t]
        backptr.append(best_prev)
    delta = delta + trans[:k, k + 1]
    path = [int(np.argmax(delta))]
    for bp in reversed(backptr):
        path.append(int(bp[path[-1]]))
    path.reverse()
    return path


def random_instance(rng, n, k):
    emissions = rng.standard_normal((n, k))
    trans = rng.standard_normal((k + 2, k + 2))
    return emissions, trans


def viterbi_table(regime, seed, n, k, dtypes=(np.float64, np.float64)):
    """(n, k) emissions and (k+2, k+2) transitions of one scoring regime.

    ``ties``: integer grids where one to three labels per token lead by 4,
    so sums are exact in float32 and the leaders often tie; ``dominant``:
    normal scores with one label per token ahead by 4 to 16 and one strong
    transition out of each label, so the candidate test keeps one label, a
    few, or too many to prune, and a runner-up can win a column through its
    strong transition; ``flat``: normal scores, so it keeps most."""
    rng = np.random.default_rng(seed)
    if regime == "ties":
        emissions = rng.integers(-1, 2, (n, k)).astype(float)
        trans = rng.integers(-1, 2, (k + 2, k + 2)).astype(float)
        for t in range(n):
            emissions[t, rng.choice(k, int(rng.integers(1, min(k, 3) + 1)), replace=False)] += 4
    else:
        emissions, trans = random_instance(rng, n, k)
        if regime == "dominant":
            emissions[np.arange(n), rng.integers(0, k, n)] += rng.uniform(4, 16, n)
            trans[np.arange(k + 2), rng.integers(0, k + 2, k + 2)] += rng.uniform(0, 12, k + 2)
    return emissions.astype(dtypes[0]), trans.astype(dtypes[1])


def traced_viterbi(emissions, trans):
    """The path of ``viterbi`` and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        path = viterbi(emissions, trans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return path, peak


def run_log_partition(emissions, trans):
    params = Parameters()
    params.add("trans", trans)
    tape = Tape(params)
    e_vars = [tape.const(row) for row in emissions]
    return float(crf_log_partition(tape, e_vars, tape.param("trans"), emissions.shape[1]).value)


def run_nll(emissions, trans, path):
    params = Parameters()
    params.add("trans", trans)
    tape = Tape(params)
    e_vars = [tape.const(row) for row in emissions]
    return float(crf_nll(tape, e_vars, tape.param("trans"), emissions.shape[1], path).value)


class TestCrfLogPartition:
    def test_single_token_zero_transitions(self):
        emissions = np.array([[0.3, -1.0, 2.0]])
        trans = np.zeros((5, 5))
        expected = math.log(np.exp(emissions[0]).sum())
        assert run_log_partition(emissions, trans) == pytest.approx(expected, abs=1e-12)

    def test_all_zero_scores_give_t_log_k(self):
        for n, k in [(1, 2), (3, 2), (4, 3)]:
            value = run_log_partition(np.zeros((n, k)), np.zeros((k + 2, k + 2)))
            assert value == pytest.approx(n * math.log(k), abs=1e-10)

    def test_matches_enumeration_small(self):
        rng = np.random.default_rng(0)
        emissions, trans = random_instance(rng, 3, 2)
        assert run_log_partition(emissions, trans) == pytest.approx(
            brute_log_partition(emissions, trans), abs=1e-10
        )

    def test_matches_enumeration_100_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            emissions, trans = random_instance(rng, n, k)
            assert run_log_partition(emissions, trans) == pytest.approx(
                brute_log_partition(emissions, trans), abs=1e-8
            )


class TestCrfNll:
    def test_single_label_alphabet_is_certain(self):
        emissions = np.array([[1.7], [0.2]])
        trans = np.random.default_rng(1).standard_normal((3, 3))
        assert run_nll(emissions, trans, [0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_probability(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, k = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            emissions, trans = random_instance(rng, n, k)
            path = [int(rng.integers(k)) for _ in range(n)]
            log_p = path_score(emissions, trans, path) - brute_log_partition(emissions, trans)
            assert run_nll(emissions, trans, path) == pytest.approx(-log_p, abs=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            emissions, trans = random_instance(rng, 3, 3)
            path = [int(rng.integers(3)) for _ in range(3)]
            assert run_nll(emissions, trans, path) >= -1e-9

    def test_viterbi_path_minimizes_nll(self):
        rng = np.random.default_rng(4)
        emissions, trans = random_instance(rng, 3, 3)
        best = viterbi(emissions, trans)
        best_nll = run_nll(emissions, trans, best)
        for p in itertools.product(range(3), repeat=3):
            assert best_nll <= run_nll(emissions, trans, list(p)) + 1e-9

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(5)
        for n, k in [(2, 2), (3, 3)]:
            emissions, trans = random_instance(rng, n, k)
            total = sum(
                math.exp(-run_nll(emissions, trans, list(p)))
                for p in itertools.product(range(k), repeat=n)
            )
            assert total == pytest.approx(1.0, abs=1e-8)


class TestViterbi:
    def test_zero_transitions_reduce_to_argmax(self):
        rng = np.random.default_rng(6)
        emissions = rng.standard_normal((5, 4))
        trans = np.zeros((6, 6))
        assert viterbi(emissions, trans) == list(np.argmax(emissions, axis=1))

    def test_matches_enumeration_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            emissions, trans = random_instance(rng, n, k)
            assert viterbi(emissions, trans) == brute_argmax(emissions, trans)

    def test_constant_emission_shift_keeps_path(self):
        rng = np.random.default_rng(8)
        emissions, trans = random_instance(rng, 4, 3)
        before = viterbi(emissions, trans)
        shifted = emissions.copy()
        shifted[2] += 10.0
        assert viterbi(shifted, trans) == before

    def test_ties_break_toward_lower_id(self):
        assert viterbi(np.zeros((3, 3)), np.zeros((5, 5))) == [0, 0, 0]

    def test_integer_scores_with_ties_match_enumeration_and_reference(self):
        """On random and tie-heavy integer tables (exact sums) the path is
        the best path whose every argmax takes the first maximum: the lowest
        last label, then the lowest predecessor of each label, i.e. the
        smallest optimal path read right to left. It also equals the path of
        the step-by-step reference."""
        rng = np.random.default_rng(12)
        for case in range(150):
            n, k = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            high = 1 if case % 2 else 4  # every other table is mostly ties
            emissions = rng.integers(-high, high + 1, (n, k)).astype(float)
            trans = rng.integers(-high, high + 1, (k + 2, k + 2)).astype(float)
            paths = list(itertools.product(range(k), repeat=n))
            scores = [path_score(emissions, trans, p) for p in paths]
            best = max(scores)
            expected = min(p[::-1] for p, s in zip(paths, scores) if s == best)[::-1]
            assert viterbi(emissions, trans) == list(expected)
            assert viterbi(emissions, trans) == reference_viterbi(emissions, trans)


class TestPrunedViterbi:
    """The candidate test drops only labels that cannot win a column, so the
    path equals the dense reference's for every alphabet size, on both sides
    of ``PRUNE_MIN_LABELS``, and whether a step prunes or falls back."""

    DTYPES = [
        (np.float64, np.float64),
        (np.float32, np.float32),
        (np.float32, np.float64),
        (np.float64, np.float32),
    ]

    @pytest.mark.parametrize("regime", ["ties", "dominant", "flat"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        k=st.one_of(st.integers(1, 12), st.integers(80, 320)),
        dtypes=st.sampled_from(DTYPES),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_dense_reference(self, regime, seed, n, k, dtypes):
        emissions, trans = viterbi_table(regime, seed, n, k, dtypes)
        expected = reference_viterbi(emissions, trans)
        assert viterbi(emissions, trans) == expected
        assert viterbi(emissions, trans, transition_bounds(trans)) == expected

    def test_block_computes_bounds_once_and_equals_single_sentences(self, monkeypatch):
        """With every alphabet past the pruning threshold, a block's decode
        computes the transition bounds once and gives each sentence the path
        that decoding it alone gives."""
        monkeypatch.setattr(models, "PRUNE_MIN_LABELS", 1)
        corpus = synthgrammar.generate(12, seed=9)
        model = build("crf", corpus)
        calls = []

        def counting(trans):
            calls.append(trans)
            return transition_bounds(trans)

        monkeypatch.setattr(models, "transition_bounds", counting)
        batch = model.predict_batch(corpus.sentences)
        assert len(calls) == 1
        assert batch == [model.predict(sentence) for sentence in corpus]

    @staticmethod
    def _tested_steps(monkeypatch, emissions, trans) -> tuple[list[int], list[int]]:
        """The path of ``viterbi`` and, per candidate test, the labels it kept."""
        kept = []
        flatnonzero = np.flatnonzero

        def counted(a):
            ids = flatnonzero(a)
            kept.append(len(ids))
            return ids

        with monkeypatch.context() as patch:
            patch.setattr(np, "flatnonzero", counted)
            path = viterbi(emissions, trans)
        return path, kept

    @pytest.mark.parametrize("k", [96, 128, 300])
    @pytest.mark.parametrize("n", [2, 6, 20, 45])
    def test_tables_that_never_prune_take_the_dense_path(self, monkeypatch, k, n):
        """Random normal tables keep most labels at every step's test, so
        every step runs dense, and the path is the dense reference's."""
        emissions, trans = viterbi_table("flat", 7 * k + n, n, k)
        path, kept = self._tested_steps(monkeypatch, emissions, trans)
        assert path == reference_viterbi(emissions, trans)
        assert len(kept) == n - 1
        assert min(kept, default=k) > int(models.PRUNE_MAX_SHARE * k)

    def test_pruned_steps_build_no_square_buffer(self):
        """At k=300 with a dominant label per token every step prunes: the
        call allocates less than one (k, k) score buffer."""
        k = 300
        emissions, trans = viterbi_table("flat", 5, 30, k)
        emissions[np.arange(30), np.arange(0, 300, 10)] += 20.0
        path, peak = traced_viterbi(emissions, trans)
        assert path == reference_viterbi(emissions, trans)
        assert peak < k * k * 8 // 4

    def test_forbidden_transitions_and_labels(self):
        """``-inf`` emissions and transitions, as constrained decoding
        forbids labels and moves, give the reference path without a warning.
        Leading labels keep finite rows, so the candidate test still prunes."""
        rng = np.random.default_rng(9)
        for k in (5, 300):
            emissions, trans = viterbi_table("flat", int(rng.integers(1000)), 25, k)
            leaders = rng.integers(0, k, 25)
            emissions[rng.random(emissions.shape) < 0.2] = -np.inf
            emissions[np.arange(25), leaders] = 20.0
            forbidden = rng.random(trans.shape) < 0.05
            forbidden[leaders] = False
            trans[forbidden] = -np.inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                path, peak = traced_viterbi(emissions, trans)
                assert path == reference_viterbi(emissions, trans)
            if k == 300:
                assert peak < k * k * 8 // 4

    def test_nan_bound_takes_the_dense_step(self):
        """A ``+inf`` leader with a ``-inf`` transition makes the bound NaN:
        nothing is dropped, the dense step runs and the path, NaN scores and
        all, is the reference's."""
        k = 300
        emissions, trans = viterbi_table("dominant", 6, 6, k)
        emissions[0, 7] = np.inf
        trans[7, 11] = -np.inf
        with np.errstate(invalid="ignore"):
            path, peak = traced_viterbi(emissions, trans)
            assert path == reference_viterbi(emissions, trans)
        assert peak >= k * k * 8


class TestCrfTagger:
    def test_overfit_recovers_fixture_mentions(self):
        corpus = tiny_corpus()
        model = build("crf", corpus)
        training.train(
            model,
            corpus,
            training.TrainConfig(epochs=150, seed=1),
            optimizer=training.OptimizerConfig(learning_rate=5e-3),
            regularization=training.RegularizationConfig(0.0, 0.0),
        )
        for sentence in corpus:
            assert model.predict(sentence) == sentence.mentions

    def test_all_outside_prediction_is_empty(self):
        model = build("crf")
        # saturate the emission bias toward O and silence transitions
        model.params["crf.emit.w"][:] = 0.0
        model.params["crf.emit.b"][:] = 0.0
        model.params["crf.emit.b"][0] = 100.0
        model.params["crf.trans"][:] = 0.0
        assert model.predict(tiny_corpus().sentences[0]) == frozenset()

    def test_orphan_prediction_repaired_not_raised(self):
        model = build("crf")
        orphan_id = model.alphabet.id_of("L-Y")
        assert orphan_id != 0
        model.params["crf.emit.w"][:] = 0.0
        model.params["crf.emit.b"][:] = 0.0
        model.params["crf.emit.b"][orphan_id] = 100.0
        model.params["crf.trans"][:] = 0.0
        sentence = tiny_corpus().sentences[0]
        mentions = model.predict(sentence)  # every token claims to close X and Y
        assert all(m.span.end <= len(sentence.tokens) for m in mentions)

    def test_alphabet_parsed_into_the_label_table_when_built(self, labels_built):
        """Building a CRF tagger parses every label of its alphabet, so a label
        that does not parse fails the build, and decoding finds each label in
        the table instead of parsing it."""
        model = build("crf")
        with pytest.raises(LabelParseError, match="'X-L-ORG'"):
            CrfTagger(model.config, model.vocab, build_alphabet(["B-X", "B-X|X-L-ORG"]))
        alphabet = build_alphabet(["U-CT1", "B-CT1|U-CT2"])
        labels_built.clear()
        CrfTagger(model.config, model.vocab, alphabet)
        assert sorted(str(m) for m in labels_built if isinstance(m, Multilabel)) == [
            "B-CT1|U-CT2", "U-CT1"
        ]
        labels_built.clear()
        assert [str(Multilabel.parse(label)) for label in alphabet.strings] == list(alphabet.strings)
        assert labels_built == []

    def test_unseen_gold_label_raises(self):
        model = build("crf")
        other = Sentence((Token("aa"),), frozenset({mention("Z", 0, 1)}))
        with pytest.raises(NestnerError, match="'U-Z' is not in the model's alphabet"):
            model.gold_ids(codec.encode(other))

    def test_alphabet_must_reserve_outside(self):
        with pytest.raises(ValueError, match="reserve id 0 for 'O'"):
            CrfTagger(
                CrfConfig(embedding=TINY_EMBEDDING),
                training.build_vocabulary(tiny_corpus()),
                build_alphabet(["B-X"], reserved="<eow>"),
            )


class TestSeq2seqStep:
    def test_distribution_sums_to_one(self):
        model = build("seq2seq")
        tape = Tape(model.params)
        projections = model._projections(np.random.default_rng(0).standard_normal((2, 12)))
        state = model._init_state(tape, tape.const(np.zeros(6)), tape.const(np.zeros(6)))
        dist, _ = step_distribution(model, tape, state, 0, model.bos_id, projections)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert dist.shape == (len(model.components),)

    def test_same_inputs_same_distribution(self):
        model = build("seq2seq")
        rng = np.random.default_rng(1)
        enc_values = rng.standard_normal((3, 12))

        def run():
            tape = Tape(model.params)
            state = model._init_state(tape, tape.const(np.zeros(6)), tape.const(np.zeros(6)))
            projections = model._projections(enc_values)
            dist, _ = step_distribution(model, tape, state, 1, model.bos_id, projections)
            return dist

        np.testing.assert_array_equal(run(), run())

    def test_hard_attention_ignores_other_positions_bitwise(self):
        model = build("seq2seq")
        rng = np.random.default_rng(2)
        enc_values = rng.standard_normal((4, 12))

        def run(values):
            tape = Tape(model.params)
            state = model._init_state(tape, tape.const(np.zeros(6)), tape.const(np.zeros(6)))
            projections = model._projections(values)
            dist, _ = step_distribution(model, tape, state, 2, model.bos_id, projections)
            return dist

        baseline = run(enc_values)
        perturbed = enc_values + 17.0
        perturbed[2] = enc_values[2]
        assert run(perturbed).tobytes() == baseline.tobytes()


class TestSeq2seqDecode:
    def test_forced_eow_gives_empty_mentions(self):
        model = build("seq2seq")
        model.params["dec.out.w"][:] = 0.0
        model.params["dec.out.b"][:] = 0.0
        model.params["dec.out.b"][0] = 100.0
        sentence = tiny_corpus().sentences[0]
        assert model.predict(sentence) == frozenset()
        assert greedy_stream(model, sentence) == [codec.EOW] * 3

    def test_never_eow_terminates_at_bound(self):
        model = build("seq2seq", max_components_per_token=5)
        some_component = 1
        model.params["dec.out.w"][:] = 0.0
        model.params["dec.out.b"][:] = 0.0
        model.params["dec.out.b"][some_component] = 100.0
        sentence = tiny_corpus().sentences[1]
        stream = greedy_stream(model, sentence)
        n = len(sentence.tokens)
        assert len(stream) == n * (5 + 1)
        assert stream.count(codec.EOW) == n
        model.predict(sentence)  # decodes without raising

    def test_overfit_recovers_fixture_mentions(self):
        corpus = tiny_corpus()
        model = build("seq2seq", corpus)
        training.train(
            model,
            corpus,
            training.TrainConfig(epochs=300, seed=2),
            optimizer=training.OptimizerConfig(learning_rate=5e-3),
            regularization=training.RegularizationConfig(0.0, 0.0),
        )
        for sentence in corpus:
            assert model.predict(sentence) == sentence.mentions


class TestDecoderStart:
    def test_initial_state_reads_each_sentences_final_encoder_states(self):
        """The decoder of a batch starts from each sentence's forward encoder
        state after its last token and backward state after its first, as a
        step-by-step LSTM over that sentence alone gives them."""
        corpus = tiny_corpus()
        model = build("seq2seq", corpus)
        p = model.params
        _, (h0, c0) = model._start(Tape(p), [Example(s) for s in corpus])
        for sentence, h, c in zip(corpus, h0.value, c0.value):
            xs = model.embedder.token_vector(Tape(p), sentence.tokens).value
            finals = [
                _reference_lstm(
                    rows, p[f"{prefix}.wx"], p[f"{prefix}.wh"], p[f"{prefix}.b"],
                    np.zeros(6), np.zeros(6),
                )[0][-1]
                for prefix, rows in (("enc.fw", xs), ("enc.bw", xs[::-1]))
            ]
            cat = np.concatenate(finals)
            for state, name in ((h, "dec.init_h"), (c, "dec.init_c")):
                expected = np.tanh(cat @ p[f"{name}.w"] + p[f"{name}.b"])
                np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)


class TestSeq2seqLoss:
    def test_eow_only_vocabulary_has_zero_loss(self):
        corpus = TaggedCorpus((Sentence((Token("aa"), Token("bb"))),))
        model = build("seq2seq", corpus)
        assert len(model.components) == 1
        tape = Tape(model.params)
        loss = model.loss(tape, corpus.sentences[0])
        assert float(loss.value) == 0.0

    def test_matches_step_probability_product(self):
        corpus = tiny_corpus()
        model = build("seq2seq", corpus)
        sentence = corpus.sentences[1]  # two tokens
        tape = Tape(model.params)
        loss = float(model.loss(tape, sentence).value)

        # hand-rolled oracle: walk the gold stream multiplying step probabilities
        tape2 = Tape(model.params)
        enc, state = model._start(tape2, [Example(sentence)])
        projections = model._projections(enc.value)
        t, prev = 0, model.bos_id
        log_prob = 0.0
        for symbol in codec.flatten(codec.encode(sentence)):
            dist, state = step_distribution(model, tape2, state, t, prev, projections)
            sym_id = model.components.id_of(symbol)
            log_prob += math.log(dist[sym_id])
            prev = sym_id
            if symbol == codec.EOW:
                t += 1
        assert loss == pytest.approx(-log_prob, abs=1e-9)

    def test_loss_decreases_during_overfit(self):
        corpus = tiny_corpus()
        model = build("seq2seq", corpus)
        metrics = training.train(
            model,
            corpus,
            training.TrainConfig(epochs=10, seed=3),
            regularization=training.RegularizationConfig(0.0, 0.0),
        )
        assert metrics[-1]["train_loss"] < metrics[0]["train_loss"]


class TestOverfitCourtFixture:
    """Both taggers, trained on the nested court sentence alone, must read
    back exactly its four mentions."""

    @pytest.mark.parametrize("kind", ["crf", "seq2seq"])
    def test_recovers_all_four_mentions(self, kind, court_sentence):
        corpus = TaggedCorpus((court_sentence,))
        embedding = EmbeddingConfig(trainable_dim=16, char_dim=0, char_rnn_dim=0)
        model = training.build_model(
            kind, corpus, embedding=embedding, hidden_dim=16,
            decoder_dim=16, label_embed_dim=8, seed=1,
        )
        training.train(
            model, corpus, training.TrainConfig(epochs=200, seed=1),
            optimizer=training.OptimizerConfig(learning_rate=5e-3),
            regularization=training.RegularizationConfig(0.0, 0.0),
        )
        assert model.predict(court_sentence) == court_sentence.mentions


def _byte_range(name):
    """Where parameter ``name`` of ``build("crf")`` lies in its saved
    ``parameters.f32``: the (start, stop) of its float32 bytes."""
    start = 0
    for found, shape in build("crf").parameter_shapes().items():
        stop = start + 4 * math.prod(shape)
        if found == name:
            return start, stop
        start = stop
    raise KeyError(name)


def edit_parameter(name, replace):
    """A checkpoint damage of ``build("crf")``'s archive that puts
    ``replace(its float32 values)`` in place of parameter ``name``'s bytes."""

    def damage(envelope, members):
        start, stop = _byte_range(name)
        blob = members["parameters.f32"]
        values = np.frombuffer(blob[start:stop], dtype="<f4")
        members["parameters.f32"] = blob[:start] + replace(values) + blob[stop:]

    return damage


def remove_parameter(name):
    """A checkpoint damage that drops parameter ``name`` from the envelope's
    list and its bytes from ``parameters.f32``."""
    drop_bytes = edit_parameter(name, lambda values: b"")

    def damage(envelope, members):
        envelope["parameters"].remove(name)
        drop_bytes(envelope, members)

    return damage


def of_seq2seq(damage):
    """Mark ``damage`` as one to the archive of ``build("seq2seq")``."""
    damage.kind = "seq2seq"
    return damage


def swap_parameters(envelope, members):
    names = envelope["parameters"]
    names[0], names[1] = names[1], names[0]


def annotated_corpus():
    """``tiny_corpus`` with a lemma and a POS tag on every token."""
    return TaggedCorpus(tuple(
        Sentence(
            tuple(Token(t.form, lemma=t.form[0], pos="N" if i % 2 else "V")
                  for i, t in enumerate(s.tokens)),
            s.mentions,
        )
        for s in tiny_corpus()
    ))


class TestSerialization:
    def test_round_trip_predictions_identical(self, tmp_path):
        corpus = tiny_corpus()
        model = build("crf", corpus)
        training.train(
            model, corpus, training.TrainConfig(epochs=60, seed=4),
            optimizer=training.OptimizerConfig(learning_rate=5e-3),
            regularization=training.RegularizationConfig(0.0, 0.0),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, CrfTagger)
        assert loaded.alphabet.strings == model.alphabet.strings
        for sentence in corpus:
            assert loaded.predict(sentence) == model.predict(sentence)

    def test_seq2seq_round_trip(self, tmp_path):
        corpus = tiny_corpus()
        model = build("seq2seq", corpus)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, Seq2seqTagger)
        assert loaded.components.strings == model.components.strings
        sentence = corpus.sentences[0]
        assert greedy_stream(loaded, sentence) == greedy_stream(model, sentence)

    def test_parameters_stored_as_float32(self, tmp_path):
        model = build("crf")
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for name, arr in model.params.items():
            np.testing.assert_array_equal(
                loaded.params[name], arr.astype("<f4").astype(np.float64)
            )

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        kind=st.sampled_from(["crf", "seq2seq"]),
        dtype=st.sampled_from([np.float64, np.float32]),
        sources=st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(1, 3),
            st.booleans(), st.booleans(),
        ),
        widths=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**16),
    )
    def test_save_load_gives_each_parameter_rounded_to_float32(
        self, tmp_path, kind, dtype, sources, widths, seed
    ):
        """Whatever the widths, sources and dtype of the saved model, every
        loaded array is its original rounded to float32: ``parameters.f32``
        is split where the loaded model's registration says, and nothing
        lands in a neighbour."""
        trainable, lemma, char, char_rnn, pos_onehot, pretrained = sources
        assume(trainable or lemma or char or pos_onehot or pretrained)
        table = None
        if pretrained:
            table = PretrainedTable({"aa": 0, "bb": 1}, np.array([[0.5, 1.0], [2.0, -1.0]]))
        embedding = EmbeddingConfig(
            pretrained_dim=2 if pretrained else 0, trainable_dim=trainable, lemma_dim=lemma,
            char_dim=char, char_rnn_dim=char_rnn if char else 0, use_pos_onehot=pos_onehot,
        )
        hidden, decoder, label = widths
        model = build(
            kind, annotated_corpus(), seed=seed, embedding=embedding, pretrained=table,
            hidden_dim=hidden, decoder_dim=decoder, label_embed_dim=label, dtype=dtype,
        )
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path, pretrained=table)
        assert loaded.params.names() == model.params.names()
        for name, arr in model.params.items():
            assert loaded.params[name].dtype == np.float32
            np.testing.assert_array_equal(loaded.params[name], arr.astype("<f4"))

    def test_version_mismatch_rejected(self, tmp_path):
        """An archive claiming format 1 is rejected, and so is a JSON
        envelope, the container of format 1, claiming format 3."""
        model = build("crf")
        path = tmp_path / "model.json"
        save_model(model, path)
        rewrite_checkpoint(path, lambda env, members: env.update(format_version=1))
        with pytest.raises(ModelFormatError, match="format_version 1"):
            load_model(path)
        path.write_text(json.dumps({"format_version": 3, "model_kind": "crf"}), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="not a zip archive") as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_missing_pretrained_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(build("crf"), path)
        rewrite_checkpoint(
            path, lambda env, members: env["config"]["embedding"].update(pretrained_dim=4)
        )
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_other_pretrained_table_rejected(self, tmp_path):
        """A table of the right width but other rows or values is named, not
        silently used."""
        table = PretrainedTable({"aa": 0, "bb": 1}, np.array([[0.5, 1.0], [2.0, -1.0]]))
        embedding = EmbeddingConfig(pretrained_dim=2, trainable_dim=4, char_dim=0, char_rnn_dim=0)
        model = build("crf", embedding=embedding, pretrained=table)
        path = tmp_path / "model.json"
        save_model(model, path)
        same = PretrainedTable({"aa": 0, "bb": 1}, np.array([[0.5, 1.0], [2.0, -1.0]]))
        loaded = load_model(path, pretrained=same)
        sentence = tiny_corpus().sentences[0]
        assert loaded.predict(sentence) == saved_copy(model).predict(sentence)
        others = [
            PretrainedTable({"aa": 0, "bb": 1}, np.array([[0.5, 1.0], [2.0, -1.5]])),
            PretrainedTable({"bb": 0, "aa": 1}, np.array([[0.5, 1.0], [2.0, -1.0]])),
            PretrainedTable(
                {"aa": 0, "bb": 1, "cc": 2}, np.array([[0.5, 1.0], [2.0, -1.0], [0.0, 0.0]])
            ),
        ]
        for other in others:
            with pytest.raises(ModelFormatError, match="is not the one the model was trained"):
                load_model(path, pretrained=other)

    # Case ids kept from format v2 name the same lie told in format v3. Three
    # v2 cases are gone, as v3 has no field for them to lie in: "pickled"
    # and "float64" (a member's dtype) and "fortran-order" (its order). A
    # member that claims another shape ("shape") or is not an array
    # ("data") is now a parameters member of the wrong length.
    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda env, members: env.pop("alphabets"), "'alphabets'"),
            (lambda env, members: env["config"].pop("hidden_dim"),
             "parameter 'enc.fw.wx': parameters.f32 is too short"),
            (remove_parameter("enc.fw.wh"), "'parameters' is not this model's"),
            (lambda env, members: (env["parameters"].append("extra"),
                                   members.update({"parameters.f32": members["parameters.f32"]
                                                   + members["parameters.f32"][:12]})),
             "'parameters' is not this model's"),
            (swap_parameters, "'parameters' is not this model's"),
            (edit_parameter("crf.emit.b", lambda b: b[:1].tobytes()),
             "parameter 'crf.trans': parameters.f32 is too short"),
            (lambda env, members: members.update({"parameters.f32": b"AAAA"}),
             "parameters.f32 is too short"),
            (lambda env, members: env.update(parameters=5), "'parameters' is not this model's"),
            (lambda env, members: env.update(parameters=[1, 2]),
             "'parameters' is not this model's"),
            (lambda env, members: env["config"].update(hidden_dim="4"),
             "malformed checkpoint envelope"),
            (lambda env, members: env["config"].update(hidden_dim=-4),
             "hidden_dim must be >= 1, got -4"),
            # recording the shapes allocates nothing, so the member is short
            (lambda env, members: env["config"].update(hidden_dim=100_000_000),
             "parameter 'enc.fw.wx': parameters.f32 is too short"),
            (lambda env, members: env.update(format_version=1),
             "unsupported model format_version 1"),
            (lambda env, members: env.update(format_version=2),
             "unsupported model format_version 2"),
            (lambda env, members: env.update(model_kind=[1]), "unknown model_kind [1]"),
            (b"not json\n", "not a zip archive"),
            (b"\xff\xfe{}", "not a zip archive"),
            (lambda env, members: members.pop("parameters.f32"),
             "members ['envelope.json'] are not those of format 3"),
            (lambda env, members: members.update({"notes.txt": b"x"}),
             "members ['envelope.json', 'parameters.f32', 'notes.txt'] are not those of format 3"),
            (edit_parameter("crf.emit.b", lambda b: np.full_like(b, np.nan).tobytes()),
             "parameter 'crf.emit.b': non-finite values"),
            (lambda env, members: members.update({"parameters.f32": members["parameters.f32"]
                                                  + b"\0"}),
             "parameters.f32 holds bytes past the last parameter"),
            (lambda env, members: members.update({"parameters.f32": members["parameters.f32"]
                                                  [:-1]}),
             "parameter 'crf.trans': parameters.f32 is too short"),
            (lambda env, members: env.pop("pretrained"), "'pretrained'"),
            (lambda env, members: members.update({"envelope.json": b"{"}),
             "envelope.json is not JSON"),
            (lambda env, members: members.update({"envelope.json": b"\xff{}"}),
             "codec can't decode"),
            (set_label("labels", 7), "'int' object has no attribute 'split'"),
            (set_label("labels", "B-X|X-L-ORG"),
             "malformed component (want B-/I-/L-/U- prefix): 'X-L-ORG'"),
            (set_label("labels", "<eow>", index=0), "label alphabet must reserve id 0 for 'O'"),
            (of_seq2seq(set_label("components", "X-L-ORG")),
             "malformed component (want B-/I-/L-/U- prefix): 'X-L-ORG'"),
            (of_seq2seq(set_label("components", 7)), "'int' object has no attribute 'partition'"),
        ],
        ids=[
            "no-alphabets", "no-hidden-dim", "missing", "extra", "swapped", "shape", "data",
            "parameters-int", "parameters-list", "hidden-dim-str", "hidden-dim-negative",
            "hidden-dim-huge", "format-version", "format-version-2", "model-kind-list", "not-json", "not-utf8",
            "missing-member", "extra-member", "non-finite", "trailing-bytes", "short-member",
            "no-pretrained", "envelope-not-json", "envelope-not-utf8", "labels-int",
            "label-malformed", "crf-reserved", "component-malformed", "components-int",
        ],
    )
    def test_malformed_checkpoint_rejected(self, tmp_path, damage, message):
        """Every malformation is a ModelFormatError naming the file; ``damage``
        edits the saved archive's envelope and members (see
        ``rewrite_checkpoint``), or is the bytes of the whole file. The
        archive is ``build("crf")``'s unless ``damage`` is ``of_seq2seq``."""
        path = tmp_path / "model.json"
        save_model(build(getattr(damage, "kind", "crf")), path)
        if isinstance(damage, bytes):
            path.write_bytes(damage)
        else:
            rewrite_checkpoint(path, damage)
        with pytest.raises(ModelFormatError, match=re.escape(message)) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_signalling_nan_refused_without_a_warning(self, tmp_path):
        """A signalling NaN stored in a checkpoint is refused with no numpy
        warning on the way."""
        path = tmp_path / "model.ckpt"
        save_model(build("crf"), path)
        signalling = b"\x01\x00\x80\x7f"
        rewrite_checkpoint(path, edit_parameter("crf.emit.b", lambda b: signalling * len(b)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelFormatError, match="'crf.emit.b': non-finite") as err:
                load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_members_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(build("crf"), path)
        with zipfile.ZipFile(path) as archive:
            members = [(name, archive.read(name)) for name in archive.namelist()]
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in reversed(members):
                archive.writestr(name, data)
        with pytest.raises(ModelFormatError, match="are not those of format 3") as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_v2_checkpoint_rejected(self, tmp_path):
        """Format v2 (one ``.npy`` member per parameter) is no longer read."""
        model = build("crf")
        path = tmp_path / "model.json"
        save_model(model, path)
        with zipfile.ZipFile(path) as archive:
            envelope = json.loads(archive.read("envelope.json"))
        envelope.update(format_version=2)
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("envelope.json", json.dumps(envelope))
            for name, arr in model.params.items():
                member = io.BytesIO()
                np.save(member, arr.astype("<f4"))
                archive.writestr(f"{name}.npy", member.getvalue())
        with pytest.raises(ModelFormatError, match="are not those of format 3") as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda env: env.pop("alphabets"),
            lambda env: env["config"].pop("hidden_dim"),
            lambda env: env["parameters"].pop("enc.fw.wh"),
            lambda env: env["parameters"].update(extra=env["parameters"]["crf.emit.b"]),
            lambda env: env["parameters"]["crf.emit.b"].update(shape=[1, 1]),
            lambda env: env["parameters"]["crf.emit.b"].update(data="AAAA"),
            lambda env: env["parameters"]["crf.emit.b"].update(
                data=base64.b64encode(np.full(5, np.inf, "<f4").tobytes()).decode()),
            lambda env: env.update(parameters=5),
            lambda env: env.update(parameters=list(env["parameters"])),
            lambda env: env["config"].update(hidden_dim="4"),
            lambda env: env["config"].update(hidden_dim=-4),
            lambda env: env.update(format_version=2),
            lambda env: env.update(model_kind=[1]),
        ],
        ids=[
            "no-alphabets", "no-hidden-dim", "missing", "extra", "shape", "data", "non-finite",
            "parameters-int", "parameters-list", "hidden-dim-str", "hidden-dim-negative",
            "format-version", "model-kind-list",
        ],
    )
    def test_malformed_v1_checkpoint_rejected(self, tmp_path, damage):
        """Format v1 (one JSON envelope, each parameter as base64 of its
        float32 bytes) is no longer read: a v1 file, whatever ``damage`` did
        to its envelope, is rejected by the container check, naming the path,
        before any of its content is looked at."""
        model = build("crf")
        path = tmp_path / "model.json"
        save_model(model, path)
        with zipfile.ZipFile(path) as archive:
            envelope = json.loads(archive.read("envelope.json"))
        envelope["parameters"] = {
            name: {
                "shape": list(arr.shape),
                "data": base64.b64encode(arr.astype("<f4").tobytes()).decode("ascii"),
            }
            for name, arr in model.params.items()
        }
        envelope.update(format_version=1)
        envelope.pop("pretrained")
        damage(envelope)
        path.write_text(json.dumps(envelope), encoding="utf-8")
        with pytest.raises(
            ModelFormatError, match="not a zip archive; only checkpoint format 3 is read"
        ) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("damage", ["bad-crc", "cut-in-member", "cut-directory", "cut-end"])
    def test_damaged_archive_rejected(self, tmp_path, damage):
        path = tmp_path / "model.json"
        save_model(build("crf"), path)
        data = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("parameters.f32")
        member_end = info.header_offset + 30 + len(info.filename) + info.file_size
        if damage == "bad-crc":
            data[member_end - 1] ^= 0x01  # a float byte; the stored CRC no longer holds
        elif damage == "cut-in-member":
            del data[member_end - 1 :]
        elif damage == "cut-directory":
            del data[member_end + 10 :]
        else:
            del data[-1:]
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="damaged checkpoint archive") as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_member_size_beyond_the_file_rejected_before_reading(self, tmp_path):
        """A central directory that claims a 2 GB envelope is rejected before
        zipfile allocates a buffer of that size for the read."""
        path = tmp_path / "model.json"
        save_model(build("crf"), path)
        data = bytearray(path.read_bytes())
        record = data.find(b"PK\x01\x02")  # the envelope's directory entry
        struct.pack_into("<II", data, record + 20, 0x7FFFFFF0, 0x7FFFFFF0)
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match="'envelope.json' runs past the end"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_two_saves_are_byte_identical(self, tmp_path, monkeypatch):
        """Also an hour apart: no member records the time it was written."""
        model = build("seq2seq")
        save_model(model, tmp_path / "one.json")
        later = time.time() + 3600.0
        monkeypatch.setattr(zipfile.time, "time", lambda: later)
        save_model(model, tmp_path / "two.json")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    @pytest.mark.parametrize("kind", ["crf", "seq2seq"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_parameters_member_holds_float32_values_in_registration_order(
        self, tmp_path, kind, dtype
    ):
        model = build(kind, dtype=dtype)
        path = tmp_path / "model.json"
        save_model(model, path)
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == ["envelope.json", "parameters.f32"]
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
            envelope = json.loads(archive.read("envelope.json"))
            blob = archive.read("parameters.f32")
        assert envelope["format_version"] == 3
        assert envelope["parameters"] == list(model.parameter_shapes())
        assert blob == b"".join(arr.astype("<f4").tobytes() for _, arr in model.params.items())

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        first, second = build("crf", seed=3), build("crf", seed=4)
        path = tmp_path / "model.json"
        save_model(first, path)
        saved = path.read_bytes()
        write = zipfile._ZipWriteFile.write
        writes = []

        def broken_write(member, data):
            writes.append(len(data))
            if len(writes) == 3:  # the envelope, the first parameter, half the second
                write(member, bytes(data)[: len(data) // 2])
                raise OSError("disk full")
            return write(member, data)

        monkeypatch.setattr(zipfile._ZipWriteFile, "write", broken_write)
        with pytest.raises(OSError, match="disk full"):
            save_model(second, path)
        monkeypatch.undo()
        assert len(writes) == 3 < len(second.params.names()) + 1
        assert path.read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        loaded = load_model(path)
        for name, arr in first.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr.astype("<f4").astype(np.float64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bad", [1e300, -1e300, np.inf, np.nan])
    def test_value_not_finite_in_float32_refused_before_writing(self, tmp_path, dtype, bad):
        first, second = build("crf", seed=3, dtype=dtype), build("crf", seed=4, dtype=dtype)
        path = tmp_path / "model.json"
        save_model(first, path)
        saved = path.read_bytes()
        with np.errstate(over="ignore"):  # 1e300 is inf in a float32 model already
            second.params["enc.fw.wh"][1, 2] = bad
        with pytest.raises(ModelFormatError, match="parameter 'enc.fw.wh'"):
            save_model(second, path)
        assert path.read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_expected_shapes_match_a_trained_model(self):
        for kind in ("crf", "seq2seq"):
            model = build(kind)
            assert model.parameter_shapes() == {n: a.shape for n, a in model.params.items()}


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_model(build("crf"), path)
    return path.read_bytes()


def _loads_or_format_error(tmp_path, data: bytes) -> None:
    path = tmp_path / "fuzz.json"
    path.write_bytes(data)
    try:
        load_model(path)
    except ModelFormatError as exc:
        assert str(exc).startswith(f"{path}: ")


_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.parametrize("kind", ["crf", "seq2seq"])
def test_predict_after_load_builds_no_label_the_table_holds(tmp_path, kind, labels_built):
    """Loading a checkpoint parses its alphabet into the label table, and
    prediction then builds no component: the CRF builds no label at all, and
    the seq2seq decoder only a combination of components that the table has
    never held, once. A label that fails to parse raises on every call and
    is never stored."""
    path = tmp_path / "model.ckpt"
    save_model(build(kind), path)
    model = load_model(path)
    sentences = synthgrammar.generate(6, seed=2).sentences
    labels_built.clear()
    first = model.predict_batch(sentences)
    assert not any(isinstance(label, LabelComponent) for label in labels_built)
    assert len({label.text for label in labels_built}) == len(labels_built)
    if kind == "crf":
        assert labels_built == []
    labels_built.clear()
    assert model.predict_batch(sentences) == first
    assert labels_built == []
    for parse, bad in ((Multilabel.parse, "B-X|X-L-ORG"), (LabelComponent.parse, "X-L-ORG")):
        before = parse.cache_info()
        for _ in range(2):
            with pytest.raises(LabelParseError, match="malformed component"):
                parse(bad)
        after = parse.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)


class TestCheckpointFuzz:
    """Any bytes load to a model or fail with a ModelFormatError naming the
    file; no other exception escapes ``load_model``."""

    @_FUZZ
    @given(data=st.binary(max_size=512))
    def test_arbitrary_bytes(self, tmp_path, data):
        _loads_or_format_error(tmp_path, data)

    @_FUZZ
    @given(data=st.binary(max_size=256))
    def test_arbitrary_bytes_after_zip_magic(self, tmp_path, data):
        _loads_or_format_error(tmp_path, b"PK\x03\x04" + data)

    @_FUZZ
    @given(cut=st.integers(min_value=0))
    def test_truncations(self, tmp_path, tiny_checkpoint, cut):
        _loads_or_format_error(tmp_path, tiny_checkpoint[: cut % len(tiny_checkpoint)])

    @_FUZZ
    @given(flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)),
                          min_size=1, max_size=4))
    def test_byte_flips(self, tmp_path, tiny_checkpoint, flips):
        data = bytearray(tiny_checkpoint)
        for offset, mask in flips:
            data[offset % len(data)] ^= mask
        _loads_or_format_error(tmp_path, bytes(data))


class _RecordingTape(Tape):
    """A tape that notes the dtype of every value its ops make."""

    def __init__(self, params, dtypes):
        super().__init__(params)
        self.dtypes = dtypes

    def _new(self, value, back):
        self.dtypes.add(value.dtype)
        return super()._new(value, back)


class _RecordingForwardTape(_RecordingTape, ForwardTape):
    pass


@pytest.mark.parametrize("kind", ["crf", "seq2seq"])
def test_float32_model_makes_only_float32_values(kind):
    """A float32 model with every feature on computes in float32 throughout:
    float64 inputs (a pretrained table, contextual blocks, the POS one-hot)
    are converted where they enter, and no float64 scalar or ``np.zeros``
    default widens a token vector, an encoder state, the loss, a dense or
    row gradient, or a decoder logit."""
    float32 = np.dtype(np.float32)
    corpus = annotated_corpus()
    forms = sorted({t.form for s in corpus for t in s.tokens})
    rng = np.random.default_rng(3)
    table = PretrainedTable(
        {form: i for i, form in enumerate(forms[:-1])}, rng.standard_normal((len(forms) - 1, 3))
    )
    embedding = EmbeddingConfig(
        pretrained_dim=3, trainable_dim=4, lemma_dim=2, char_dim=3, char_rnn_dim=2,
        use_pos_onehot=True, contextual_dim=2,
    )
    model = build(kind, corpus, embedding=embedding, pretrained=table, dtype=np.float32)
    assert {arr.dtype for _, arr in model.params.items()} == {float32}
    contextual = [rng.standard_normal((len(s.tokens), 2)) for s in corpus]
    examples = [
        model.example(s, ctx, dropout=0.5, rng=rng, target=model.gold_ids(codec.encode(s)))
        for s, ctx in zip(corpus, contextual)
    ]
    dtypes = set()
    tape = _RecordingTape(model.params, dtypes)
    outputs, fw, bw = model._encode(tape, examples)
    assert {outputs.value.dtype, fw.value.dtype, bw.value.dtype} == {float32}
    loss = model.batch_loss(tape, examples)
    assert loss.value.dtype == float32
    grads = tape.backward(tape.scale(loss, 0.5))  # a Python float, as the trainer passes
    assert grads.rows and grads.dense
    gradients = [*grads.dense.values(), *(rows.values for rows in grads.rows.values())]
    assert {g.dtype for g in gradients} == {float32}
    assert dtypes == {float32}

    forward = _RecordingForwardTape(model.params, dtypes)
    plain = [Example(s, ctx) for s, ctx in zip(corpus, contextual)]
    if kind == "seq2seq":
        enc_outputs, _ = model._start(forward, plain)
        assert {a.dtype for a in model._projections(enc_outputs.value)} == {float32}
    model._decode_block(forward, plain)
    assert dtypes == {float32}


@pytest.mark.parametrize(
    "kind, field",
    [("crf", "hidden_dim")]
    + [("seq2seq", f) for f in
       ("hidden_dim", "decoder_dim", "label_embed_dim", "max_components_per_token")],
)
@pytest.mark.parametrize("value", [0, -1])
def test_config_width_below_one_rejected_naming_the_field(kind, field, value):
    config = CrfConfig if kind == "crf" else Seq2seqConfig
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
        config(embedding=TINY_EMBEDDING, **{field: value})


def test_component_alphabet_reserves_eow():
    with pytest.raises(ValueError):
        Seq2seqTagger(
            Seq2seqConfig(embedding=TINY_EMBEDDING),
            training.build_vocabulary(tiny_corpus()),
            build_alphabet(["B-X"], reserved="O"),
        )
