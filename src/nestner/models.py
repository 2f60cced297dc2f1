"""The two nested-NER taggers.

Both share a BiLSTM encoder over composed token vectors. The CRF tagger
scores whole multilabel sequences with emission and transition scores and
decodes with Viterbi. The seq2seq tagger emits one BILOU component at a time
from an LSTM decoder that attends to exactly one encoder position (the
current token) and moves on when it outputs ``<eow>``; a token's components
come out highest priority first.

Training runs each batch of sentences through every layer as one packed pass
on a :class:`~nestner.autodiff.Tape`. Prediction records no tape: it runs the
same ops on a :class:`~nestner.autodiff.ForwardTape`, over blocks of up to
:data:`PREDICT_BLOCK` consecutive sentences, each encoded in one packed pass,
and ``predict`` is a block of one. No caller branches on block size:
identity packings are read in place, so one sentence, or a decoder step
whose rows are sequences of one step each, costs no sort and no gather.
The CRF decodes each sentence's slice of the block's emissions with
:func:`viterbi`, whose steps score only the previous labels that a bound
on their transitions leaves able to win, and return exactly the dense
path. The seq2seq decoder's input projection is split and computed before
decoding starts, once per block: its encoder part for every encoder row,
its label part for every label. A greedy step is then one ``h @ dec.wh``
product plus two row gathers, and the sentences of a block decode in
lockstep, one product per step over those still running.

A model that :func:`load_model` returns or :func:`saved_copy` makes is
read-only, and training starts from ``training.build_model`` instead. It
keeps an input memo (:class:`_TypeMemo`): a token's BiLSTM input projection
depends only on its type (form, lemma, POS), so on a ``ForwardTape`` each
type's is computed once, with the char BiGRU, and later blocks read it with
one row gather; sidecar columns are projected per block and added. The memo
holds no more values than the model has parameters, and is emptied before
a block that would take it past that.

A model parses its alphabet's labels when it is built or loaded, into the
label table of :mod:`nestner.core`, so a bad label is an error then. Decoding
turns each label id into its alphabet string and takes the label the table
holds for it, so prediction builds no component, and builds a multilabel
only when the seq2seq decoder first emits a combination the table has never
held. Decoded label sequences from either model go through the repair
decoder, so any label sequence the models can emit yields a valid mention set.

:func:`save_model` writes a checkpoint as a zip archive of a JSON envelope
and one member of every parameter's float32 values in registration order
(format v3), and :func:`load_model` reads it into float32, the precision it stores.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import codec
from .autodiff import ForwardTape, Parameters, Tape, Var, dropout_mask
from .codec import EOW, EncodedSentence
from .core import (
    OUTSIDE,
    LabelAlphabet,
    LabelComponent,
    Mention,
    Multilabel,
    NestnerError,
    Sentence,
    Token,
)
from .corpus import Vocabulary
from .embeddings import EmbeddingConfig, PretrainedTable, TokenEmbedder


# sentences per packed inference pass, so memory stays bounded on large inputs
PREDICT_BLOCK = 32


class ModelFormatError(NestnerError):
    """A serialized model cannot be loaded."""


class UnusedTableError(ModelFormatError):
    """A pretrained table was given for a model trained without one."""


def _require_positive(config, names: Sequence[str]) -> None:
    for name in names:
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(config, name)}")


@dataclass(frozen=True)
class CrfConfig:
    embedding: EmbeddingConfig
    hidden_dim: int = 256

    def __post_init__(self) -> None:
        _require_positive(self, ("hidden_dim",))


@dataclass(frozen=True)
class Seq2seqConfig:
    embedding: EmbeddingConfig
    hidden_dim: int = 256
    decoder_dim: int = 256
    label_embed_dim: int = 128
    max_components_per_token: int = 16

    def __post_init__(self) -> None:
        _require_positive(
            self, ("hidden_dim", "decoder_dim", "label_embed_dim", "max_components_per_token")
        )


# ----------------------------------------------------------------- CRF layer


def _emission_matrix(tape: Tape, emissions: Var | Sequence[Var]) -> Var:
    """(T, k) emissions from a matrix Var or from a list of T row Vars."""
    return emissions if isinstance(emissions, Var) else tape.stack(emissions)


def crf_log_partition(tape: Tape, emissions: Var | Sequence[Var], trans: Var, k: int) -> Var:
    """log sum over all length-T label paths of exp(path score).

    ``emissions`` is a (T, k) Var or a list of T (k,) Vars. ``trans`` is
    (k+2, k+2); row k holds start transitions and column k+1 stop
    transitions. A path scores the sum of its emissions plus the transitions
    it crosses, including start and stop.
    """
    assert trans.shape == (k + 2, k + 2)
    return tape.crf_nll(_emission_matrix(tape, emissions), trans)


def crf_nll(
    tape: Tape,
    emissions: Var | Sequence[Var],
    trans: Var,
    k: int,
    path: Sequence[int],
    lengths: Sequence[int] | None = None,
) -> Var:
    """Negative log-likelihood of the gold path; non-negative. With
    ``lengths``, the summed NLL of the consecutive sentences they split the
    (L, k) emissions and the L gold labels into."""
    assert trans.shape == (k + 2, k + 2)
    return tape.crf_nll(_emission_matrix(tape, emissions), trans, path, lengths)


#: Below this many labels every Viterbi step is dense: the candidate test
#: costs more than it saves.
PRUNE_MIN_LABELS = 96
#: A Viterbi step with more candidates than this share of the labels is dense.
PRUNE_MAX_SHARE = 0.4


def transition_bounds(trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``best_out`` and ``worst_out`` of :func:`viterbi`: the largest and the
    smallest transition out of each label of a (k+2, k+2) ``trans``."""
    k = len(trans) - 2
    block = trans[:k, :k]
    return block.max(axis=1), block.min(axis=1)


def viterbi(
    emissions: np.ndarray,
    trans: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[int]:
    """Highest-scoring label path; ties break toward the lower label id.

    A step scores ``delta[i] + trans[i, j]`` for every previous label ``i``
    and next label ``j``, but only the candidates ``i`` that can still win a
    column. With ``best_out[i]`` and ``worst_out[i]`` the largest and
    smallest transition out of ``i``, and ``top`` the first argmax of
    ``delta``, a label is dropped when ``delta[i] + best_out[i] <
    delta[top] + worst_out[top]`` (Esposito & Radicioni 2009; Kaji et al.
    2010). Float rounding is monotone, so for every ``j`` its score
    ``delta[i] + trans[i, j]`` is then strictly below ``delta[top] +
    trans[top, j]``: it is neither a maximum nor NaN. Every maximiser of
    every column is kept (ties included), and the candidates are in
    ascending order, so the first-maximum argmax over them picks the same
    labels from the same sums as the dense step. A comparison with NaN is
    false, so a NaN bound or threshold drops nothing, and neither does a
    ``-inf`` transition out of ``top``.

    The dense step adds ``delta`` to every transition, with scores kept as
    ``scores[j, i]`` (previous label ``i`` into ``j``) in one buffer so each
    argmax runs over contiguous rows. It runs for alphabets below
    :data:`PRUNE_MIN_LABELS` and for steps whose candidates exceed
    :data:`PRUNE_MAX_SHARE` of the labels; its buffers are built on its
    first use. ``bounds`` is :func:`transition_bounds` of ``trans``, passed
    by a caller that decodes many sentences with one ``trans``; without it
    the bounds are computed here when a step may prune.
    """
    n, k = emissions.shape
    assert n >= 1 and trans.shape == (k + 2, k + 2)
    block = trans[:k, :k]
    backptr = np.empty((n, k), dtype=np.intp)
    labels = np.arange(k)
    delta = emissions[0] + trans[k, :k]
    prune = n > 1 and k >= PRUNE_MIN_LABELS
    if prune:
        best_out, worst_out = transition_bounds(trans) if bounds is None else bounds
        most = int(PRUNE_MAX_SHARE * k)
    into = None
    for t in range(1, n):
        if prune:
            top = np.argmax(delta)
            keep = np.flatnonzero(~(delta + best_out < delta[top] + worst_out[top]))
            if len(keep) <= most:
                # same dtype and the same additions as the dense buffer
                part = block[keep] + delta[keep, None]
                if len(keep) == 1:
                    backptr[t] = keep[0]
                    delta = part[0] + emissions[t]
                else:
                    pick = np.argmax(part, axis=0)
                    backptr[t] = keep[pick]
                    delta = part[pick, labels] + emissions[t]
                continue
        if into is None:
            into = np.ascontiguousarray(block.T)
            scores = np.empty((k, k), dtype=np.result_type(emissions, trans))
        np.add(into, delta, out=scores)
        np.argmax(scores, axis=1, out=backptr[t])
        delta = scores[labels, backptr[t]] + emissions[t]
    delta = delta + trans[:k, k + 1]
    path = [int(np.argmax(delta))]
    for t in range(n - 1, 0, -1):
        path.append(int(backptr[t, path[-1]]))
    path.reverse()
    return path


# ------------------------------------------------------------ shared encoder


class _Discard:
    """Stands in for a parameter array that registration writes to (a
    bias's forget-gate slice): the write goes nowhere."""

    def __setitem__(self, index, value) -> None:
        pass


class _ShapeRecorder:
    """Takes a model's parameter registration in place of :class:`Parameters`,
    keeping only each name and shape: it allocates no parameter and draws no
    random numbers."""

    def __init__(self):
        self.shapes: dict[str, tuple[int, ...]] = {}

    def zeros(self, name: str, shape: tuple[int, ...]) -> _Discard:
        self.shapes[name] = tuple(shape)
        return _Discard()

    def uniform(self, name: str, shape: tuple[int, ...], rng, fan_in: int | None = None):
        return self.zeros(name, shape)


@dataclass(frozen=True)
class Example:
    """One sentence as a forward pass reads it.

    ``contextual`` is its (T, contextual_dim) sidecar block. A training step
    draws the rest before the pass: ``lookup_forms`` replace the forms for
    the table lookups (word dropout), ``input_mask`` (T, token_dim) and
    ``output_mask`` (T, 2*hidden) are the scaled dropout masks of the token
    vectors and the encoder outputs, and ``target`` holds the gold ids that
    the model's ``gold_ids`` makes.
    """

    sentence: Sentence
    contextual: np.ndarray | None = None
    lookup_forms: Sequence[str] | None = None
    input_mask: np.ndarray | None = None
    output_mask: np.ndarray | None = None
    target: np.ndarray | None = None


def _stacked(blocks: Sequence[np.ndarray | None]) -> np.ndarray | None:
    """Per-sentence row blocks as one matrix, or None when they are None."""
    return None if blocks[0] is None else np.concatenate(blocks)


class ContextualError(NestnerError, ValueError):
    """Sidecar vectors given to ``predict_batch`` do not fit the model or
    the sentences."""


_DIRECTIONS = ("enc.fw", "enc.bw")


class _TypeMemo:
    """The encoder's input projection of each token type a read-only model
    has seen (the pre-computed hidden layer of Devlin et al. 2014).

    A token's input to the BiLSTM is a function of its type (form, lemma,
    POS), apart from sidecar columns, so its pre-activations ``x @
    enc.{fw,bw}.wx + enc.{fw,bw}.b`` over the type's columns of ``x`` are
    kept, one row per type in each direction's array. The memo holds at most
    ``max_rows`` types: a call whose unseen types would take it past that
    empties it first and then keeps all of its own types.
    """

    def __init__(self, max_rows: int):
        self.max_rows = max_rows
        self.rows: dict[Token, int] = {}
        self.values: list[np.ndarray] = []  # one (capacity, 4*hidden) array per direction

    def __len__(self) -> int:
        return len(self.rows)

    def gather(self, tokens: Sequence[Token], project) -> list[np.ndarray]:
        """Each direction's rows for ``tokens``. ``project`` maps a list of
        types the memo lacks to their rows, one array per direction."""
        new = list(dict.fromkeys(t for t in tokens if t not in self.rows))
        if new:
            if len(self.rows) + len(new) > self.max_rows:
                self.rows.clear()
                new = list(dict.fromkeys(tokens))
            self._add(new, project(new))
        ids = np.fromiter(map(self.rows.__getitem__, tokens), np.intp, len(tokens))
        return [arr.take(ids, axis=0) for arr in self.values]

    def _add(self, types: list[Token], blocks: list[np.ndarray]) -> None:
        start = len(self.rows)
        stop = start + len(types)
        if not self.values or stop > len(self.values[0]):
            capacity = max(stop, min(2 * stop, self.max_rows))
            grown = [np.empty((capacity, block.shape[1]), block.dtype) for block in blocks]
            for new, old in zip(grown, self.values):
                new[:start] = old[:start]
            self.values = grown
        for arr, block in zip(self.values, blocks):
            arr[start:stop] = block
        self.rows.update(zip(types, range(start, stop)))


def _read_only(model: CrfTagger | Seq2seqTagger) -> CrfTagger | Seq2seqTagger:
    """``model`` with every parameter array read-only and a new, empty
    :class:`_TypeMemo` that holds no more values than it has parameters."""
    size = 0
    for _, arr in model.params.items():
        arr.setflags(write=False)
        size += arr.size
    model._memo = _TypeMemo(size // (2 * 4 * model.hidden_dim))
    return model


class _NeuralTagger:
    """Embedding + BiLSTM encoder shared by both model kinds."""

    def __init__(
        self,
        vocab: Vocabulary,
        embedding: EmbeddingConfig,
        hidden_dim: int,
        pretrained: PretrainedTable | None,
        dtype,
    ):
        self.vocab = vocab
        self.hidden_dim = hidden_dim
        self.embedder = TokenEmbedder(embedding, vocab, pretrained)
        self.params = Parameters(dtype)
        self._memo: _TypeMemo | None = None  # a read-only model's, see _read_only

    def parameter_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name and shape of every parameter this model registers, in order."""
        recorder = _ShapeRecorder()
        self._register(recorder, None)
        return recorder.shapes

    def _register_encoder(self, params, rng: np.random.Generator | None) -> None:
        self.embedder.register(params, rng)
        input_dim = self.embedder.config.token_dim
        h = self.hidden_dim
        for prefix in _DIRECTIONS:
            params.uniform(f"{prefix}.wx", (input_dim, 4 * h), rng)
            params.uniform(f"{prefix}.wh", (h, 4 * h), rng)
            bias = params.zeros(f"{prefix}.b", (4 * h,))
            bias[h : 2 * h] = 1.0  # forget gate starts open

    def example(
        self,
        sentence: Sentence,
        contextual: np.ndarray | None = None,
        lookup_forms: Sequence[str] | None = None,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
        target: np.ndarray | None = None,
    ) -> Example:
        """``sentence`` ready for a forward pass, with dropout masks at rate
        ``dropout`` drawn from ``rng``, the input mask first."""
        if dropout <= 0.0:
            return Example(sentence, contextual, lookup_forms, target=target)
        assert rng is not None, "dropout needs a seeded generator"
        n, dtype = len(sentence.tokens), self.params.dtype
        input_mask = dropout_mask(rng, (n, self.embedder.config.token_dim), dropout, dtype)
        output_mask = dropout_mask(rng, (n, 2 * self.hidden_dim), dropout, dtype)
        return Example(sentence, contextual, lookup_forms, input_mask, output_mask, target)

    def _encode(self, tape: Tape, examples: Sequence[Example]) -> tuple[Var, Var, Var]:
        """Token vectors of a batch of sentences through the BiLSTM, as one
        packed pass; returns the (ΣT, 2*hidden) outputs, the sentences' rows
        one after another, and the (ΣT, hidden) states of each direction
        before dropout, in the same rows: a sentence's final forward state
        is at its last row and its final backward state at its first.

        A read-only model on a :class:`~nestner.autodiff.ForwardTape` reads
        each token's input projection from its memo, which computes token
        vectors only for the types it lacks; sidecar columns are projected
        per call and added."""
        tokens = [token for ex in examples for token in ex.sentence.tokens]
        contextual = None
        if self.embedder.config.contextual_dim:
            contextual = _stacked([ex.contextual for ex in examples])
            if contextual is None:
                raise ValueError("config enables contextual vectors but none were supplied")
        if self._memo is not None and isinstance(tape, ForwardTape):
            pres = [tape.const(pre) for pre in self._memoized_pre(tape, tokens, contextual)]
        else:
            lookup_forms = [
                form for ex in examples
                for form in (ex.sentence.forms() if ex.lookup_forms is None else ex.lookup_forms)
            ]
            xs = self.embedder.token_vector(tape, tokens, lookup_forms, contextual)
            input_mask = _stacked([ex.input_mask for ex in examples])
            if input_mask is not None:
                xs = tape.dropout(xs, input_mask)
            pres = [
                tape.affine(xs, tape.param(f"{prefix}.wx"), tape.param(f"{prefix}.b"))
                for prefix in _DIRECTIONS
            ]
        lengths = [len(ex.sentence.tokens) for ex in examples]
        states = [
            tape.lstm(pre, tape.param(f"{prefix}.wh"), reverse=prefix == "enc.bw",
                      lengths=lengths)[0]
            for prefix, pre in zip(_DIRECTIONS, pres)
        ]
        outputs = tape.concat(states)
        output_mask = _stacked([ex.output_mask for ex in examples])
        if output_mask is not None:
            outputs = tape.dropout(outputs, output_mask)
        return outputs, *states

    def _memoized_pre(
        self, tape: Tape, tokens: Sequence[Token], contextual: np.ndarray | None
    ) -> list[np.ndarray]:
        """Each direction's (ΣT, 4*hidden) encoder pre-activations of
        ``tokens``: their types' rows of the memo, plus the projection of
        ``contextual`` through the last ``contextual_dim`` rows of ``wx``."""

        def project(types: list[Token]) -> list[np.ndarray]:
            x = self.embedder.token_vector(tape, types).value
            return [
                x @ self.params[f"{prefix}.wx"][: x.shape[1]] + self.params[f"{prefix}.b"]
                for prefix in _DIRECTIONS
            ]

        pres = self._memo.gather(tokens, project)
        if contextual is not None:
            sidecar = tape.const(contextual).value
            for prefix, pre in zip(_DIRECTIONS, pres):
                pre += sidecar @ self.params[f"{prefix}.wx"][-sidecar.shape[1] :]
        return pres

    def loss(self, tape: Tape, sentence: Sentence) -> Var:
        """The loss of one sentence without dropout: :meth:`batch_loss` of a
        batch of one."""
        target = self.gold_ids(codec.encode(sentence))
        return self.batch_loss(tape, [Example(sentence, target=target)])

    def predict_batch(
        self, sentences: Sequence[Sentence], contextual: Sequence[np.ndarray] | None = None
    ) -> list[frozenset[Mention]]:
        """The mentions of each sentence. ``contextual`` holds each sentence's
        sidecar block. Blocks of up to :data:`PREDICT_BLOCK` consecutive
        sentences each go through the network as one packed pass on a tape
        that records nothing.

        Before any sentence is encoded, a :class:`ContextualError` naming a
        sentence index is raised for blocks given to a model trained
        without them, none given to a model trained with them, a list whose
        length is not the sentences', or a block that is not that
        sentence's (T, contextual_dim)."""
        self._check_contextual(sentences, contextual)
        examples = [
            Example(s, None if contextual is None else contextual[i])
            for i, s in enumerate(sentences)
        ]
        mentions = []
        for start in range(0, len(examples), PREDICT_BLOCK):
            block = examples[start : start + PREDICT_BLOCK]
            for encoded in self._decode_block(ForwardTape(self.params), block):
                mentions.append(codec.decode(encoded, policy="repair"))
        return mentions

    def _check_contextual(
        self, sentences: Sequence[Sentence], contextual: Sequence[np.ndarray] | None
    ) -> None:
        dim = self.embedder.config.contextual_dim
        if not sentences or (contextual is None and not dim):
            return
        if contextual is None:
            raise ContextualError(
                f"sentence 0: the model needs contextual vectors of width {dim}; none given"
            )
        if not dim:
            raise ContextualError(
                "sentence 0: contextual vectors given to a model trained without them"
            )
        if len(contextual) != len(sentences):
            raise ContextualError(
                f"sentence {min(len(contextual), len(sentences))}: {len(contextual)} "
                f"contextual blocks for {len(sentences)} sentences"
            )
        for i, (sentence, block) in enumerate(zip(sentences, contextual)):
            expected = (len(sentence.tokens), dim)
            if np.shape(block) != expected:
                raise ContextualError(
                    f"sentence {i}: contextual vectors have shape {np.shape(block)}, "
                    f"expected {expected}"
                )

    def predict(
        self, sentence: Sentence, contextual: np.ndarray | None = None
    ) -> frozenset[Mention]:
        """The mentions of one sentence: :meth:`predict_batch` of a block of one."""
        return self.predict_batch([sentence], None if contextual is None else [contextual])[0]


# ------------------------------------------------------------------ LSTM-CRF


class CrfTagger(_NeuralTagger):
    """BiLSTM encoder with a linear-chain CRF over the multilabel alphabet."""

    kind = "crf"

    def __init__(
        self,
        config: CrfConfig,
        vocab: Vocabulary,
        alphabet: LabelAlphabet,
        pretrained: PretrainedTable | None = None,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        if alphabet.reserved != OUTSIDE:
            raise ValueError(f"label alphabet must reserve id 0 for {OUTSIDE!r}")
        super().__init__(vocab, config.embedding, config.hidden_dim, pretrained, dtype)
        self.config = config
        self.alphabet = alphabet
        for label in alphabet.strings:  # into the label table, where decoding finds them
            Multilabel.parse(label)
        if rng is not None:
            self._register(self.params, rng)

    def _register(self, params, rng: np.random.Generator | None) -> None:
        self._register_encoder(params, rng)
        k = len(self.alphabet)
        params.uniform("crf.emit.w", (2 * self.hidden_dim, k), rng)
        params.zeros("crf.emit.b", (k,))
        params.uniform("crf.trans", (k + 2, k + 2), rng, fan_in=k + 2)

    def _emissions(self, tape: Tape, examples: Sequence[Example]) -> Var:
        """(ΣT, k) emission scores of a batch."""
        outputs, _, _ = self._encode(tape, examples)
        return tape.affine(outputs, tape.param("crf.emit.w"), tape.param("crf.emit.b"))

    def gold_ids(self, encoded: EncodedSentence) -> np.ndarray:
        """The gold path of an encoded sentence, as label ids."""
        return np.array([self.alphabet.id_of(s) for s in encoded.strings()], dtype=np.intp)

    def batch_loss(self, tape: Tape, examples: Sequence[Example]) -> Var:
        """Summed NLL of the examples' gold paths, in one packed pass."""
        emissions = self._emissions(tape, examples)
        paths = np.concatenate([ex.target for ex in examples])
        lengths = [len(ex.sentence.tokens) for ex in examples]
        trans = tape.param("crf.trans")
        return crf_nll(tape, emissions, trans, len(self.alphabet), paths, lengths)

    def _decode_block(self, tape: Tape, examples: Sequence[Example]) -> list[EncodedSentence]:
        """Viterbi labels of each sentence, on its slice of the block's
        emissions; the transition bounds are computed once for the block."""
        scores = self._emissions(tape, examples).value
        trans = self.params["crf.trans"]
        bounds = transition_bounds(trans)
        encoded = []
        start = 0
        for ex in examples:
            stop = start + len(ex.sentence.tokens)
            path = viterbi(scores[start:stop], trans, bounds)
            encoded.append(EncodedSentence.from_strings(map(self.alphabet.string_of, path)))
            start = stop
        return encoded


# -------------------------------------------------------------------- seq2seq


class _Projections(NamedTuple):
    """The two parts of the greedy decoder's gate pre-activations, computed
    before decoding: ``encoder`` is ``enc_outputs @ dec.wx[:2*hidden]``, one
    row per encoder row of a block, and ``labels`` is
    ``dec.labels @ dec.wx[2*hidden:] + dec.b``, one row per previous label."""

    encoder: np.ndarray
    labels: np.ndarray


class Seq2seqTagger(_NeuralTagger):
    """BiLSTM encoder with an LSTM decoder over single BILOU components.

    The decoder reads exactly one encoder position (hard attention on the
    current token) concatenated with the embedding of the previously emitted
    label, and advances to the next token when it emits ``<eow>``.
    """

    kind = "seq2seq"

    def __init__(
        self,
        config: Seq2seqConfig,
        vocab: Vocabulary,
        components: LabelAlphabet,
        pretrained: PretrainedTable | None = None,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        if components.reserved != EOW:
            raise ValueError(f"component alphabet must reserve id 0 for {EOW!r}")
        super().__init__(vocab, config.embedding, config.hidden_dim, pretrained, dtype)
        self.config = config
        self.components = components
        for component in components.strings[1:]:  # as in CrfTagger
            LabelComponent.parse(component)
        # extra label-table row embeds the beginning-of-sentence "previous label"
        self.bos_id = len(components)
        if rng is not None:
            self._register(self.params, rng)

    def _register(self, params, rng: np.random.Generator | None) -> None:
        self._register_encoder(params, rng)
        cfg = self.config
        n_out = len(self.components)
        enc_out = 2 * cfg.hidden_dim
        d = cfg.decoder_dim
        params.uniform("dec.labels", (n_out + 1, cfg.label_embed_dim), rng, cfg.label_embed_dim)
        params.uniform("dec.wx", (enc_out + cfg.label_embed_dim, 4 * d), rng)
        params.uniform("dec.wh", (d, 4 * d), rng)
        bias = params.zeros("dec.b", (4 * d,))
        bias[d : 2 * d] = 1.0
        params.uniform("dec.init_h.w", (enc_out, d), rng)
        params.zeros("dec.init_h.b", (d,))
        params.uniform("dec.init_c.w", (enc_out, d), rng)
        params.zeros("dec.init_c.b", (d,))
        params.uniform("dec.out.w", (d, n_out), rng)
        params.zeros("dec.out.b", (n_out,))

    def _init_state(self, tape: Tape, final_fw: Var, final_bw: Var) -> tuple[Var, Var]:
        """The decoder's initial ``(h, c)``: one per row of (N, hidden)
        encoder final states, or one vector from (hidden,) vectors."""
        cat = tape.concat([final_fw, final_bw])
        h0 = tape.tanh(tape.affine(cat, tape.param("dec.init_h.w"), tape.param("dec.init_h.b")))
        c0 = tape.tanh(tape.affine(cat, tape.param("dec.init_c.w"), tape.param("dec.init_c.b")))
        return h0, c0

    def _start(self, tape: Tape, examples: Sequence[Example]) -> tuple[Var, tuple[Var, Var]]:
        """The encoder outputs of a batch and the decoder's initial state,
        made from each sentence's final encoder states: the forward states
        at its last row and the backward states at its first, as
        (N, hidden) rows even for a batch of one."""
        enc_outputs, fw, bw = self._encode(tape, examples)
        lengths = np.array([len(ex.sentence.tokens) for ex in examples])
        ends = np.cumsum(lengths)
        final_fw, final_bw = tape.gather(fw, ends - 1), tape.gather(bw, ends - lengths)
        return enc_outputs, self._init_state(tape, final_fw, final_bw)

    def _step(
        self,
        tape: Tape,
        state: tuple[Var, Var],
        t: Sequence[int],
        prev_id: Sequence[int],
        projections: _Projections,
    ) -> tuple[Var, tuple[Var, Var]]:
        """One greedy decoder step over the rows of an (n, decoder_dim)
        state, each a sequence of one step: row i attends only to the
        block's encoder row ``t[i]`` and reads the previous label
        ``prev_id[i]``, and its input is those two rows of ``projections``.
        Returns the (n, n_components) logits and the new state."""
        pre = projections.encoder.take(t, axis=0) + projections.labels.take(prev_id, axis=0)
        hidden, cells = tape.lstm(
            tape.const(pre), tape.param("dec.wh"), *state, lengths=[1] * len(pre)
        )
        logits = tape.affine(hidden, tape.param("dec.out.w"), tape.param("dec.out.b"))
        return logits, (hidden, tape.const(cells))

    def step(
        self,
        tape: Tape,
        state: tuple[Var, Var],
        t: int,
        prev_id: int,
        enc_outputs: Var | Sequence[Var],
    ) -> tuple[np.ndarray, tuple[Var, Var]]:
        """Distribution over components plus ``<eow>`` for one decode step
        from a state of (1, decoder_dim) rows or (decoder_dim,) vectors:
        encoder row ``t`` of ``enc_outputs``, a (T, 2*hidden) Var or a list
        of row Vars, goes through :meth:`_projections` and :meth:`_step`.
        The acceptance gate's hard-attention criterion calls it."""
        row = enc_outputs.value[t] if isinstance(enc_outputs, Var) else enc_outputs[t].value
        logits, new_state = self._step(tape, state, [0], [prev_id], self._projections(row[None]))
        e = np.exp(logits.value[0] - logits.value[0].max())
        return e / e.sum(), new_state

    def gold_ids(self, encoded: EncodedSentence) -> np.ndarray:
        """The gold component stream of an encoded sentence, as ids."""
        return np.array(
            [self.components.id_of(s) for s in codec.flatten(encoded)], dtype=np.intp
        )

    def batch_loss(self, tape: Tape, examples: Sequence[Example]) -> Var:
        """Summed teacher-forced negative log-likelihood of the examples'
        gold component streams.

        Every decoder input (the encoder row under the pointer and the
        previous gold label's embedding) is known in advance, so the streams
        of the whole batch are one packed decoder LSTM call.
        """
        enc_outputs, state = self._start(tape, examples)
        pointers, prev_ids = [], []
        offset = 0
        for ex in examples:
            eow = ex.target == 0  # <eow> moves the pointer to the next token
            pointers.append(offset + np.cumsum(eow) - eow)
            prev_ids.append(np.concatenate(([self.bos_id], ex.target[:-1])))
            offset += len(ex.sentence.tokens)
        x = tape.concat([
            tape.gather(enc_outputs, np.concatenate(pointers)),
            tape.lookup("dec.labels", np.concatenate(prev_ids)),
        ])
        lengths = [len(ex.target) for ex in examples]
        pre = tape.affine(x, tape.param("dec.wx"), tape.param("dec.b"))
        hidden, _ = tape.lstm(pre, tape.param("dec.wh"), *state, lengths=lengths)
        logits = tape.affine(hidden, tape.param("dec.out.w"), tape.param("dec.out.b"))
        return tape.softmax_cross_entropy(logits, np.concatenate([ex.target for ex in examples]))

    def _projections(self, enc_outputs: np.ndarray) -> _Projections:
        """The greedy decoder's input projections for a block's encoder
        outputs. They are computed per block and never kept on the model,
        whose parameters training changes in place."""
        wx = self.params["dec.wx"]
        encoder = enc_outputs @ wx[: 2 * self.hidden_dim]
        labels = self.params["dec.labels"] @ wx[2 * self.hidden_dim :] + self.params["dec.b"]
        return _Projections(encoder, labels)

    def _greedy_ids(self, tape: Tape, examples: Sequence[Example]) -> list[list[int]]:
        """Greedy component ids of each sentence of a block, decoded in lockstep.

        Every :meth:`_step` call advances each sentence still running by one
        step, with its own pointer and previous label, as one row of the
        state; a sentence leaves the rows when its pointer passes its last
        token. A token's ``<eow>`` is forced after
        ``max_components_per_token`` components, so a sentence of n tokens
        takes at most n * (max_components_per_token + 1) steps.
        """
        enc_outputs, state = self._start(tape, examples)
        projections = self._projections(enc_outputs.value)
        limit = self.config.max_components_per_token
        ends = list(itertools.accumulate(len(ex.sentence.tokens) for ex in examples))
        streams: list[list[int]] = [[] for _ in examples]
        # one entry per state row: its sentence, its pointer into the block's
        # encoder rows, its previous id and the components its token has so far
        sentence = list(range(len(examples)))
        pointer = [end - len(ex.sentence.tokens) for ex, end in zip(examples, ends)]
        prev = [self.bos_id] * len(examples)
        emitted = [0] * len(examples)
        while sentence:
            logits, state = self._step(tape, state, pointer, prev, projections)
            symbols = logits.value.argmax(axis=1).tolist()
            keep = []
            for row, symbol in enumerate(symbols):
                if emitted[row] >= limit:
                    symbol = 0  # force <eow>: guarantees termination
                streams[sentence[row]].append(symbol)
                prev[row] = symbol
                emitted[row] = emitted[row] + 1 if symbol else 0
                pointer[row] += symbol == 0
                if pointer[row] < ends[sentence[row]]:
                    keep.append(row)
            if len(keep) < len(sentence):
                sentence, pointer, prev, emitted = (
                    [column[row] for row in keep] for column in (sentence, pointer, prev, emitted)
                )
                if keep:
                    state = tuple(tape.gather(s, keep) for s in state)
        return streams

    def _decode_block(self, tape: Tape, examples: Sequence[Example]) -> list[EncodedSentence]:
        strings = self.components.string_of
        return [
            codec.unflatten([strings(i) for i in ids], len(ex.sentence.tokens))
            for ex, ids in zip(examples, self._greedy_ids(tape, examples))
        ]


# -------------------------------------------------------------- serialization
#
# Format v3: a zip archive of two uncompressed members, ``envelope.json``
# (format_version, model_kind, config, alphabets, vocabulary, the
# pretrained-table fingerprint and the parameter names in registration
# order), then ``parameters.f32``, every parameter's little-endian float32
# values in C order, one after another in the order the model registers them.

FORMAT_VERSION = 3
_ZIP_MAGIC = b"PK\x03\x04"
_ENVELOPE_MEMBER = "envelope.json"
_PARAMETERS_MEMBER = "parameters.f32"
_STORED = np.dtype("<f4")


def _member_info(name: str) -> zipfile.ZipInfo:
    """Fixed date and attributes, so two saves of one model are byte-identical."""
    info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
    info.create_system = 3
    info.external_attr = 0o100644 << 16
    return info


def _vocab_to_dict(vocab: Vocabulary) -> dict:
    return {
        "forms": vocab.form_strings(),
        "chars": vocab.char_strings(),
        "lemmas": vocab.lemma_strings(),
        "pos": list(vocab.pos_tags),
    }


def _vocab_from_dict(d: dict) -> Vocabulary:
    return Vocabulary(
        forms={s: i for i, s in enumerate(d["forms"])},
        chars={s: i for i, s in enumerate(d["chars"])},
        lemmas={s: i for i, s in enumerate(d["lemmas"])},
        pos_tags=tuple(d["pos"]),
    )


def saved_copy(model: CrfTagger | Seq2seqTagger) -> CrfTagger | Seq2seqTagger:
    """The model that :func:`load_model` returns for ``model``'s checkpoint,
    whatever dtype ``model`` computes in: read-only float32 parameters
    holding its values as :func:`save_model` stores them, and a new, empty
    input memo (see :func:`load_model`). Everything else is shared with
    ``model``."""
    saved = copy.copy(model)
    saved.params = Parameters(np.float32)
    for name, arr in model.params.items():
        saved.params.add(name, arr)
    return _read_only(saved)


def save_model(model: CrfTagger | Seq2seqTagger, path: str | Path) -> None:
    """Write ``model`` to ``path`` in format v3.

    The archive is written beside the destination and renamed over it, so a
    failed write leaves the previous checkpoint whole. A parameter with a
    value that is not finite in float32 is a :class:`ModelFormatError`
    raised before anything is written.
    """
    with np.errstate(over="ignore"):
        stored = {
            name: np.ascontiguousarray(arr, dtype=_STORED) for name, arr in model.params.items()
        }
    for name, arr in stored.items():
        if not np.isfinite(arr).all():
            raise ModelFormatError(
                f"parameter {name!r}: values are not finite in float32; checkpoint not written"
            )
    if model.kind == "crf":
        alphabets = {"labels": list(model.alphabet.strings)}
    else:
        alphabets = {"components": list(model.components.strings)}
    pretrained = model.embedder.pretrained
    envelope = {
        "format_version": FORMAT_VERSION,
        "model_kind": model.kind,
        "config": asdict(model.config),
        "alphabets": alphabets,
        "vocabulary": _vocab_to_dict(model.vocab),
        "pretrained": pretrained.fingerprint if pretrained is not None else None,
        "parameters": model.params.names(),
    }
    partial = Path(f"{path}.partial")
    try:
        with zipfile.ZipFile(partial, "w") as archive:
            archive.writestr(_member_info(_ENVELOPE_MEMBER), json.dumps(envelope))
            with archive.open(_member_info(_PARAMETERS_MEMBER), "w") as member:
                for arr in stored.values():
                    member.write(memoryview(arr).cast("B"))  # the buffer itself: no copy
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


_ENVELOPE_KEYS = ("model_kind", "config", "alphabets", "vocabulary", "pretrained", "parameters")


def _unloaded_model(envelope: dict, pretrained: PretrainedTable | None):
    """The model an envelope describes, with no parameters registered yet."""
    kind = envelope["model_kind"]
    vocab = _vocab_from_dict(envelope["vocabulary"])
    config = dict(envelope["config"])
    config["embedding"] = EmbeddingConfig(**config["embedding"])
    if config["embedding"].pretrained_dim and pretrained is None:
        raise ModelFormatError(
            "model was trained with pretrained vectors; supply the same table to load it"
        )
    trained_with = envelope["pretrained"]
    if pretrained is not None:
        if trained_with is None:
            raise UnusedTableError("model was trained without pretrained vectors")
        if pretrained.fingerprint != trained_with:
            raise ModelFormatError(
                f"pretrained table {pretrained.fingerprint} is not the one the model "
                f"was trained with {trained_with}"
            )
    if kind == "crf":
        alphabet = LabelAlphabet(tuple(envelope["alphabets"]["labels"]))
        return CrfTagger(CrfConfig(**config), vocab, alphabet, pretrained, dtype=np.float32)
    if kind == "seq2seq":
        alphabet = LabelAlphabet(tuple(envelope["alphabets"]["components"]))
        return Seq2seqTagger(
            Seq2seqConfig(**config), vocab, alphabet, pretrained, dtype=np.float32
        )
    raise ModelFormatError(f"unknown model_kind {kind!r}")


def _load_zip(handle, pretrained: PretrainedTable | None):
    file_size = handle.seek(0, os.SEEK_END)
    with zipfile.ZipFile(handle) as archive:
        for info in archive.infolist():  # no read may be larger than the file
            if info.header_offset + info.compress_size > file_size:
                raise ModelFormatError(f"member {info.filename!r} runs past the end of the file")
        members = archive.namelist()
        if members != [_ENVELOPE_MEMBER, _PARAMETERS_MEMBER]:
            raise ModelFormatError(f"members {members} are not those of format {FORMAT_VERSION}")
        try:
            envelope = json.loads(archive.read(_ENVELOPE_MEMBER).decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ModelFormatError(f"{_ENVELOPE_MEMBER} is not JSON ({exc})") from exc
        if not isinstance(envelope, dict):
            raise ModelFormatError("not a model checkpoint")
        found = envelope.get("format_version")
        if found != FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model format_version {found!r}")
        for key in _ENVELOPE_KEYS:
            if key not in envelope:
                raise ModelFormatError(f"checkpoint has no {key!r}")
        try:
            model = _unloaded_model(envelope, pretrained)
            expected = model.parameter_shapes()
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ModelFormatError(f"malformed checkpoint envelope ({exc!r})") from exc
        if envelope["parameters"] != list(expected):
            raise ModelFormatError(f"'parameters' is not this model's {list(expected)}")
        with archive.open(_PARAMETERS_MEMBER) as member:
            for name, shape in expected.items():
                size = _STORED.itemsize * math.prod(shape)
                raw = member.read(size)
                if len(raw) != size:
                    raise ModelFormatError(f"parameter {name!r}: {_PARAMETERS_MEMBER} is too short")
                try:  # the one copy, out of the read-only buffer, checks finiteness
                    model.params.add(name, np.frombuffer(raw, _STORED).reshape(shape))
                except ValueError as exc:
                    raise ModelFormatError(f"parameter {name!r}: non-finite values") from exc
            if member.read(1):  # the read that reached the end checked the CRC
                raise ModelFormatError(f"{_PARAMETERS_MEMBER} holds bytes past the last parameter")
        return _read_only(model)


# what zipfile raises on a damaged archive: bad records or CRC, cut data,
# unknown compression, the encryption flag, impossible offsets
_ARCHIVE_ERRORS = (
    zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError, ValueError, OSError
)


def load_model(
    path: str | Path, pretrained: PretrainedTable | None = None
) -> CrfTagger | Seq2seqTagger:
    """Read a checkpoint written by :func:`save_model` (format v3) into a
    float32 model, the precision the checkpoint stores, so loading only
    copies the values out of the read buffer.

    The model is for prediction. Its parameter arrays are read-only, so
    :func:`~nestner.training.train` refuses it: training starts from
    :func:`~nestner.training.build_model`. Prediction fills an input memo:
    the encoder's input projection of each token type (form, lemma, POS)
    is computed once, with the char BiGRU and one product per direction
    over the types a call has not seen, and read back with one row gather.
    The memo holds no more values than the model has parameters; it is
    emptied before a call that would take it past that, and keeps that
    call's types. Since prediction writes to the memo, one model must not
    predict in two threads at once.

    The envelope must list exactly the parameters a fresh model of the
    stored kind and config registers, in registration order, and the
    parameters member must hold exactly their float32 values; a model
    trained with pretrained vectors needs the same table (by row count and
    content hash), and a table given for a model trained without one is an
    :class:`UnusedTableError`. A file that is not a zip archive, a damaged archive, any
    member but the two, a missing or malformed envelope key (an alphabet
    entry that is not a label among them), a parameters member too short
    or too long, or a non-finite value raises :class:`ModelFormatError`
    with a message that starts with ``path``.
    """
    with open(path, "rb") as handle:
        try:
            if handle.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
                raise ModelFormatError(
                    f"not a zip archive; only checkpoint format {FORMAT_VERSION} is read"
                )
            try:
                return _load_zip(handle, pretrained)
            except _ARCHIVE_ERRORS as exc:
                raise ModelFormatError(f"damaged checkpoint archive ({exc!r})") from exc
        except ModelFormatError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
