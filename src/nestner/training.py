"""Training loop: lazy Adam, mini-batches of 8, dropout, word dropout, seeding.

The optimizer applies Adam updates only to parameter rows whose gradient was
touched in the current batch; rows of untouched embedding entries (and their
moment accumulators) stay bit-identical. All randomness — initialization,
shuffling, dropout masks, word dropout — flows from one seeded generator, so
identical seeds give identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import codec, models
from .autodiff import Gradients, Parameters, Tape
from .codec import EOW
from .core import NestnerError, build_alphabet
from .corpus import UNK, ContextualError, TaggedCorpus, Vocabulary, build_vocabulary
from .embeddings import EmbeddingConfig, PretrainedTable
from .metrics import score_mentions


class OptimizerError(NestnerError):
    """An optimizer step was rejected (e.g. non-finite gradient)."""


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class RegularizationConfig:
    dropout_rate: float = 0.5
    word_dropout_rate: float = 0.2

    def __post_init__(self) -> None:
        for name in ("dropout_rate", "word_dropout_rate"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    seed: int = 1
    batch_size: int = 8

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


class LazyAdam:
    """Adam with bias correction by global step, skipping untouched rows.

    A table gradient's touched rows are read, updated and written back as
    one block; every other row and its moments stay bit-identical. Each
    dense parameter and each row block is updated in consecutive pieces of
    ``BLOCK`` elements, so that the update's passes over one piece of the
    parameter, its moments, its gradient and the scratch stay in cache;
    every element gets the same arithmetic as in a one-piece update.
    """

    BETA1 = 0.9
    BETA2 = 0.98
    EPSILON = 1e-8
    # five float64 pieces of 32k elements take 1.3 MB, inside a 4 MiB L2
    BLOCK = 1 << 15

    def __init__(self, params: Parameters, config: OptimizerConfig | None = None):
        self.params = params
        self.config = config or OptimizerConfig()
        # the first step, lr * sqrt(1 - b2) / (1 - b1), is Adam's largest
        first_step = self.config.learning_rate * (1.0 - self.BETA2) ** 0.5 / (1.0 - self.BETA1)
        if first_step > float(np.finfo(params.dtype).max):
            raise ValueError(
                f"learning_rate {self.config.learning_rate} gives a step size beyond "
                f"the range of {params.dtype.name}"
            )
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}
        self._scratch = np.empty(self.BLOCK, dtype=params.dtype)
        self.step_count = 0

    def _apply(self, target: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray) -> None:
        # m += (1 - b1)(g - m), v += (1 - b2)(g^2 - v), and the bias
        # corrections folded into the step size and epsilon (Kingma & Ba
        # 2015, section 2): target -= lr_t * m / (sqrt(v) + eps_t), equal to
        # lr * m_hat / (sqrt(v_hat) + eps) in real arithmetic
        b1, b2 = self.BETA1, self.BETA2
        t = self.step_count
        root = (1.0 - b2**t) ** 0.5
        lr_t = self.config.learning_rate * root / (1.0 - b1**t)
        scratch = self._scratch[: g.size].reshape(g.shape)
        np.subtract(g, m, out=scratch)
        scratch *= 1.0 - b1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch -= v
        scratch *= 1.0 - b2
        v += scratch
        np.sqrt(v, out=scratch)
        scratch += self.EPSILON * root
        np.divide(m, scratch, out=scratch)
        scratch *= lr_t
        target -= scratch

    def _apply_blocked(
        self, target: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray
    ) -> None:
        if g.size <= self.BLOCK:  # one piece, without the views' cost per call
            self._apply(target, m, v, g)
            return
        # target, m and v are C-contiguous (parameters, their moments and
        # gathered rows), so their flat pieces are views written in place
        flat = [a.reshape(-1) for a in (target, m, v, g)]
        for lo in range(0, g.size, self.BLOCK):
            self._apply(*(a[lo : lo + self.BLOCK] for a in flat))

    def step(self, grads: Gradients) -> None:
        """One update. Rejects the whole step if any gradient is non-finite."""
        bad = grads.nonfinite_names()
        if bad:
            raise OptimizerError(f"non-finite gradient for parameter {bad[0]}; step rejected")
        self.step_count += 1
        for name, g in grads.dense.items():
            self._apply_blocked(self.params[name], self.m[name], self.v[name], g)
        for name, block in grads.rows.items():
            arr, m, v, ids = self.params[name], self.m[name], self.v[name], block.ids
            rows, m_rows, v_rows = arr[ids], m[ids], v[ids]
            self._apply_blocked(rows, m_rows, v_rows, block.values)
            arr[ids], m[ids], v[ids] = rows, m_rows, v_rows


def word_dropout(forms: Sequence[str], rate: float, rng: np.random.Generator) -> list[str]:
    """Independently replace each form with the unknown token at ``rate``."""
    if rate <= 0.0:
        return list(forms)
    return [UNK if rng.random() < rate else form for form in forms]


# ---------------------------------------------------------------- model build


def _check_nesting_depth(encoded: Sequence[codec.EncodedSentence], limit: int) -> None:
    for i, sentence in enumerate(encoded):
        for t, label in enumerate(sentence.labels):
            if len(label) > limit:
                raise NestnerError(
                    f"sentence {i}, token {t}: nesting depth {len(label)} exceeds "
                    f"max_components_per_token={limit}"
                )


def multilabel_alphabet(corpus: TaggedCorpus):
    """Alphabet of whole multilabel strings observed in the corpus."""
    return build_alphabet((label for e in corpus.encoded for label in e.strings()), reserved="O")


def component_alphabet(corpus: TaggedCorpus):
    """Alphabet of single components observed in the corpus, with <eow> at 0."""
    symbols = (symbol for e in corpus.encoded for symbol in codec.flatten(e))
    return build_alphabet(symbols, reserved=EOW)


def build_model(
    kind: str,
    corpus: TaggedCorpus,
    embedding: EmbeddingConfig | None = None,
    hidden_dim: int = 256,
    decoder_dim: int = 256,
    label_embed_dim: int = 128,
    max_components_per_token: int = 16,
    pretrained: PretrainedTable | None = None,
    vocab: Vocabulary | None = None,
    min_freq: int = 1,
    seed: int = 1,
    dtype=np.float64,
):
    """Untrained tagger with vocabulary and label alphabet taken from
    ``corpus``, from the encodings it keeps (:attr:`TaggedCorpus.encoded`),
    which :func:`train` on the same corpus reuses."""
    if vocab is None:
        vocab = build_vocabulary(corpus, min_freq)
    if embedding is None:
        embedding = EmbeddingConfig()
    if embedding.use_pos_onehot and embedding.pos_dim == 0:
        if not vocab.n_pos:
            raise NestnerError("use_pos_onehot is set, but the training corpus has no POS tags")
        embedding = replace(embedding, pos_dim=vocab.n_pos)
    if kind == "crf":
        config = models.CrfConfig(embedding=embedding, hidden_dim=hidden_dim)
        model = models.CrfTagger(config, vocab, multilabel_alphabet(corpus), pretrained, dtype)
    elif kind == "seq2seq":
        _check_nesting_depth(corpus.encoded, max_components_per_token)
        config = models.Seq2seqConfig(
            embedding=embedding,
            hidden_dim=hidden_dim,
            decoder_dim=decoder_dim,
            label_embed_dim=label_embed_dim,
            max_components_per_token=max_components_per_token,
        )
        model = models.Seq2seqTagger(config, vocab, component_alphabet(corpus), pretrained, dtype)
    else:
        raise ValueError(f"unknown model kind {kind!r}; valid: crf, seq2seq")
    model.params.initialize(model.parameter_table(), np.random.default_rng(seed))
    return model


# --------------------------------------------------------------- training loop


def _batches(
    items: list, batch_size: int, rng: np.random.Generator
) -> list[list]:
    """Seeded shuffle, then stable sort by length so batches hold similar lengths,
    then shuffle the batch order."""
    order = rng.permutation(len(items))
    shuffled = [items[i] for i in order]
    shuffled.sort(key=lambda item: len(item[0].tokens))
    chunks = [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]
    chunk_order = rng.permutation(len(chunks))
    return [chunks[i] for i in chunk_order]


def _train_batch(
    model, adam: LazyAdam, batch: list, regularization: RegularizationConfig, rng
) -> float:
    """One optimizer step on the mean loss of ``batch``; returns the summed loss.

    Each sentence's word dropout and dropout masks are drawn in turn, then
    the whole batch runs through the network as one packed forward and
    backward pass. The batch's graph is local to this call, so it is freed
    on return, before the next batch's forward pass starts.
    """
    tape = Tape(model.params)
    examples = []
    for sentence, contextual, target in batch:
        lookup_forms = word_dropout(sentence.forms(), regularization.word_dropout_rate, rng)
        examples.append(model.example(
            sentence, contextual, lookup_forms, regularization.dropout_rate, rng, target
        ))
    loss = model.batch_loss(tape, examples)
    adam.step(tape.backward(tape.scale(loss, 1.0 / len(examples))))
    return float(loss.value)


def evaluate_model(model, corpus: TaggedCorpus) -> float:
    """Strict micro F1 of the model's predictions over a corpus, made in
    blocks by ``predict_batch`` as ``nestner predict`` makes them."""
    pred = model.predict_batch(corpus.sentences, corpus.contextual)
    overall, _ = score_mentions([sentence.mentions for sentence in corpus.sentences], pred)
    return overall.f1


def train(
    model,
    corpus: TaggedCorpus,
    config: TrainConfig,
    optimizer: OptimizerConfig | None = None,
    regularization: RegularizationConfig | None = None,
    dev: TaggedCorpus | None = None,
    checkpoint_path: str | Path | None = None,
) -> list[dict]:
    """Train in place; returns per-epoch records {epoch, train_loss, dev_f1}.

    With a dev corpus the model keeps its best-dev-F1 parameters at the end
    (and writes them to ``checkpoint_path`` whenever they improve). Dev is
    scored on :func:`models.saved_copy`, the float32 model that loading the
    checkpoint gives, whatever dtype ``model`` trains in: the logged
    ``dev_f1`` is the one ``nestner predict`` reproduces from the saved file,
    and the returned model holds the same values. An empty dev corpus is an
    error, as no epoch could beat the first on it. ``model`` must be built
    from ``corpus`` (to train on dev too, merge it in before
    :func:`build_model`): a gold label outside its alphabet stops the run
    before any step, as do sidecar blocks that the model cannot read
    (``model.check_contextual``; dev's message starts with ``dev:``). A
    rejected optimizer step stops the run with an :class:`OptimizerError`
    naming the epoch, the batch and the parameter, and leaves the last
    checkpoint written in place. A model with read-only parameters, as
    :func:`models.load_model` returns, is refused before any step: training
    starts from :func:`build_model`.
    """
    if not all(arr.flags.writeable for _, arr in model.params.items()):
        raise NestnerError(
            "model parameters are read-only (a loaded checkpoint or a saved copy); "
            "start training from build_model"
        )
    if not corpus.sentences:
        raise NestnerError("training corpus is empty")
    regularization = regularization or RegularizationConfig()
    if dev is not None and not dev.sentences:
        raise NestnerError("dev corpus is empty")
    model.check_contextual(corpus.sentences, corpus.contextual)
    if dev is not None:
        try:
            model.check_contextual(dev.sentences, dev.contextual)
        except ContextualError as exc:
            raise ContextualError(f"dev: {exc}") from exc
    encoded = corpus.encoded
    if model.kind == "seq2seq":
        _check_nesting_depth(encoded, model.config.max_components_per_token)
    targets = []
    for i, encoded_sentence in enumerate(encoded):
        try:
            targets.append(model.gold_ids(encoded_sentence))
        except NestnerError as exc:
            raise NestnerError(f"sentence {i}: {exc}") from exc
    items = list(zip(corpus.sentences, corpus.contextual or [None] * len(targets), targets))
    rng = np.random.default_rng(config.seed)
    adam = LazyAdam(model.params, optimizer)
    metrics: list[dict] = []
    best_f1 = -1.0
    best = None
    for epoch in range(1, config.epochs + 1):
        total_loss = 0.0
        for batch_no, batch in enumerate(_batches(items, config.batch_size, rng), start=1):
            try:
                total_loss += _train_batch(model, adam, batch, regularization, rng)
            except OptimizerError as exc:
                raise OptimizerError(f"epoch {epoch}, batch {batch_no}: {exc}") from exc
        record = {"epoch": epoch, "train_loss": total_loss / len(items)}
        if dev is not None:
            saved = models.saved_copy(model)
            f1 = evaluate_model(saved, dev)
            record["dev_f1"] = f1
            if f1 > best_f1:
                best_f1, best = f1, saved
                if checkpoint_path is not None:
                    models.save_model(saved, checkpoint_path)
        metrics.append(record)
    if best is not None:
        model.params.load_state(best.params)
    elif checkpoint_path is not None:
        models.save_model(model, checkpoint_path)
    return metrics
