"""The benchmark workloads, their seeded inputs, phases and output checks.

A run generates its inputs from the seed and writes them to files, so the
program sees only those files. It then makes the same public calls as
``nestner train``, ``predict`` and ``evaluate``:

- train: ``read_conll`` -> ``training.build_model`` -> ``training.train``
  (which writes the checkpoint with ``models.save_model``);
- predict: ``models.load_model`` -> ``model.predict`` per sentence ->
  ``write_conll``;
- evaluate: ``read_conll`` of the predictions -> ``score_mentions``;

plus two codec passes over a span file: a strict round trip and a repair
read of a copy with perturbed labels. Every workload runs every phase, so
each reports the same metrics; the workloads differ in their inputs, their
widths and how the run's time is split between the phases.

A run first trains each tagger for one epoch over the whole training file,
untimed; predict and set-up load that checkpoint. A timed run then repeats
each phase's unit until the phase's share of ``--seconds`` is spent (and at
least a minimum number of times). A throughput is a phase's tokens over
the total time of its units; ``setup_s`` is the median of its repeats. A
traced run runs each unit once untraced and once traced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import hashlib
import importlib.util
import itertools
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nestner import codec, corpus as corpus_io, metrics, models, training
from nestner.core import Sentence
from nestner.corpus import TaggedCorpus
from nestner.embeddings import EmbeddingConfig

import tracer as tracing
import widegrammar

REPO_ROOT = Path(__file__).resolve().parent.parent
KINDS = ("crf", "seq2seq")
EPOCHS = 1
BATCH = training.TrainConfig(1).batch_size
# The workload seed makes the inputs; the model and its training use the
# seed `nestner train` uses by default.
MODEL_SEED = 1
# fewest units a phase runs in a timed run
MIN_UNITS = 3
PERTURB_SHARE = 0.3


@dataclass(frozen=True)
class Widths:
    embed: int
    char: int
    char_rnn: int
    hidden: int
    decoder: int
    label: int

    def build_kwargs(self) -> dict:
        return {
            "embedding": EmbeddingConfig(
                trainable_dim=self.embed, char_dim=self.char, char_rnn_dim=self.char_rnn
            ),
            "hidden_dim": self.hidden,
            "decoder_dim": self.decoder,
            "label_embed_dim": self.label,
        }


PAPER = Widths(embed=256, char=128, char_rnn=128, hidden=256, decoder=256, label=128)
SMALL = Widths(embed=16, char=8, char_rnn=8, hidden=16, decoder=16, label=8)


@dataclass(frozen=True)
class Workload:
    name: str
    grammar: str  # corpus the taggers and the codec passes see: "synth" or "wide"
    widths: Widths
    # Sentence lengths of the training file, fixed so that every batch holds
    # as many tokens on every seed. The model's vocabulary and alphabets
    # come from the whole file; a training unit trains on its first batch.
    train_lengths: tuple
    # bounds on the training file's CRF alphabet k, which sets the cost and
    # the memory of crf_nll (both grow with k squared)
    crf_alphabet: tuple
    # bounds on the seq2seq decoder steps per token of the first batch (gold
    # components per token plus one), which set a seq2seq training unit's
    # decoder work
    unit_decoder_steps: tuple
    # sentence lengths of the held-out file
    heldout_lengths: tuple
    codec_tokens: int
    # After one epoch the seq2seq decoder is barely trained, and its greedy
    # decode emits anywhere from 1 to 16 components per token unless the
    # learning rate has settled it on emitting <eow> first; after the
    # pre-training epoch each workload's rate does so on every seed tried,
    # so predict time does not follow the seed.
    learning_rate: float
    # share of --seconds spent repeating each phase's unit
    budget: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-synth",
            grammar="synth",
            widths=PAPER,
            train_lengths=(2, 3, 4, 5, 5, 6, 7, 8) * 2,
            crf_alphabet=(1, 100),
            unit_decoder_steps=(1.9, 2.1),
            heldout_lengths=(2, 3, 4, 5, 5, 6, 7, 8) * 3,
            codec_tokens=3000,
            learning_rate=1e-3,
            budget={"crf.train": 0.2, "seq2seq.train": 0.3, "crf.predict": 0.15,
                    "seq2seq.predict": 0.15, "io": 0.12, "setup": 0.08},
        ),
        Workload(
            name="nested-wide",
            grammar="wide",
            widths=SMALL,
            # 15 to 40, each batch spread over the range
            train_lengths=tuple(15 + 7 * i % 26 for i in range(32)),
            crf_alphabet=(294, 306),
            unit_decoder_steps=(2.65, 2.85),
            heldout_lengths=(18, 22, 26, 30, 34, 38),
            codec_tokens=6000,
            learning_rate=3e-2,
            budget={"crf.train": 0.22, "seq2seq.train": 0.22, "crf.predict": 0.15,
                    "seq2seq.predict": 0.15, "io": 0.18, "setup": 0.08},
        ),
    )
}


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to an output check failing)."""


# --------------------------------------------------------------------- inputs


def _stream(grammar: str, seed: list):
    """An endless seeded stream of sentences from one grammar."""
    if grammar == "wide":
        yield from _widegrammar().sentences(seed)
    else:
        for chunk in itertools.count():
            yield from _synthgrammar().generate(64, [*seed, chunk]).sentences


def generate(grammar: str, seed: list, n_tokens: int) -> TaggedCorpus:
    """The first sentences of a seeded stream that hold ``n_tokens`` tokens."""
    sentences = []
    total = 0
    for sentence in _stream(grammar, seed):
        if total >= n_tokens:
            break
        sentences.append(sentence)
        total += len(sentence.tokens)
    return TaggedCorpus(tuple(sentences))


def corpus_of_lengths(grammar: str, seed: list, lengths: tuple) -> TaggedCorpus:
    """In each slot of ``lengths``, the next sentence of a seeded stream
    with that many tokens."""
    open_slots: dict[int, list[int]] = {}
    for slot, length in enumerate(lengths):
        open_slots.setdefault(length, []).append(slot)
    chosen: list = [None] * len(lengths)
    stream = _stream(grammar, seed)
    while open_slots:
        sentence = next(stream)
        slots = open_slots.get(len(sentence.tokens))
        if slots:
            chosen[slots.pop(0)] = sentence
            if not slots:
                del open_slots[len(sentence.tokens)]
    return TaggedCorpus(tuple(chosen))


def decoder_steps(sentences) -> float:
    """Teacher-forced seq2seq decoder steps per token: gold components plus ``<eow>``."""
    labels = [label for s in sentences for label in codec.encode(s).labels]
    return sum(len(label) + 1 for label in labels) / len(labels)


def training_corpus(workload: Workload, seed: list) -> TaggedCorpus:
    """The training file, of the lengths ``workload.train_lengths``. A draw
    whose CRF alphabet falls outside ``workload.crf_alphabet``, or whose
    first batch falls outside ``workload.unit_decoder_steps``, is made again
    from the next sub-seed."""
    low, high = workload.crf_alphabet
    steps_low, steps_high = workload.unit_decoder_steps
    for attempt in itertools.count():
        corpus = corpus_of_lengths(workload.grammar, [*seed, attempt], workload.train_lengths)
        if (
            low <= len(training.multilabel_alphabet(corpus)) <= high
            and steps_low <= decoder_steps(corpus.sentences[:BATCH]) <= steps_high
        ):
            return corpus


@functools.cache
def _widegrammar() -> widegrammar.WideGrammar:
    return widegrammar.WideGrammar()


@functools.cache
def _synthgrammar():
    """``tests/synthgrammar.py``, the grammar acceptance criteria 6-7 learn."""
    path = REPO_ROOT / "tests" / "synthgrammar.py"
    spec = importlib.util.spec_from_file_location("nestner_bench_synthgrammar", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _conll_text(corpus: TaggedCorpus, labels=None) -> str:
    blocks = []
    for i, sentence in enumerate(corpus.sentences):
        strings = labels[i] if labels is not None else codec.encode(sentence).strings()
        blocks.append("".join(f"{t.form}\t{l}\n" for t, l in zip(sentence.tokens, strings)))
    return "\n".join(blocks)


def _spans_text(corpus: TaggedCorpus) -> str:
    from nestner.core import mention_sort_key

    blocks = []
    for sentence in corpus.sentences:
        starts: dict[int, list] = {}
        for m in sorted(sentence.mentions, key=mention_sort_key):
            starts.setdefault(m.span.start, []).append(
                f"{m.entity_type} {m.span.start} {m.span.end}"
            )
        lines = []
        for t, token in enumerate(sentence.tokens):
            lines.append(token.form + ("\t" + ";".join(starts[t]) if t in starts else "") + "\n")
        blocks.append("".join(lines))
    return "\n".join(blocks)


def perturb(corpus: TaggedCorpus, rng: np.random.Generator) -> tuple[list[list[str]], list[bool]]:
    """Labels of every sentence, a share of them damaged the way raw model
    output can be: a component dropped or its tag changed."""
    all_labels = []
    damaged = []
    for sentence in corpus.sentences:
        labels = [list(str(c) for c in ml.components) for ml in codec.encode(sentence).labels]
        hit = False
        candidates = [t for t, comps in enumerate(labels) if comps]
        if candidates and rng.random() < PERTURB_SHARE:
            t = candidates[int(rng.integers(len(candidates)))]
            j = int(rng.integers(len(labels[t])))
            tag, _, entity_type = labels[t][j].partition("-")
            if rng.random() < 0.5:
                del labels[t][j]
            else:
                swap = {"B": "I", "I": "B", "L": "B", "U": "L"}[tag]
                labels[t][j] = f"{swap}-{entity_type}"
            hit = True
        all_labels.append(["|".join(c) if c else "O" for c in labels])
        damaged.append(hit)
    return all_labels, damaged


def corpus_stats(corpus: TaggedCorpus, path: Path) -> dict:
    """Shape of one generated input, and the sha256 of its file."""
    n_tokens = 0
    components = 0
    nested_tokens = 0
    multilabels = {"O"}
    symbols = {codec.EOW}
    forms: set[str] = set()
    for sentence in corpus.sentences:
        for token, label in zip(sentence.tokens, codec.encode(sentence).labels):
            n_tokens += 1
            components += len(label)
            nested_tokens += len(label) >= 2
            multilabels.add(str(label))
            symbols.update(str(c) for c in label.components)
            forms.add(token.form)
    return {
        "file": path.name,
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "sentences": len(corpus.sentences),
        "tokens": n_tokens,
        "crf_alphabet": len(multilabels),
        "component_alphabet": len(symbols),
        "mean_components_per_token": components / n_tokens,
        "share_tokens_in_2plus_mentions": nested_tokens / n_tokens,
        "distinct_forms": len(forms),
        "mean_chars_per_form": sum(map(len, forms)) / len(forms),
    }


@dataclass
class Inputs:
    train: Path
    heldout: Path
    spans: Path
    perturbed: Path
    train_tokens: int
    unit_tokens: int
    heldout_sentences: int
    heldout_tokens: int
    codec_tokens: int
    codec_gold: TaggedCorpus
    damaged: list[bool]
    stats: dict


def write_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    train = training_corpus(workload, [seed, 1])
    heldout = corpus_of_lengths(workload.grammar, [seed, 2], workload.heldout_lengths)
    codec_corpus = generate(workload.grammar, [seed, 3], workload.codec_tokens)
    labels, damaged = perturb(codec_corpus, np.random.default_rng([seed, 4]))
    paths = {
        "train": directory / "train.conll",
        "heldout": directory / "heldout.conll",
        "spans": directory / "codec.spans",
        "perturbed": directory / "codec-perturbed.conll",
    }
    paths["train"].write_text(_conll_text(train), encoding="utf-8")
    paths["heldout"].write_text(_conll_text(heldout), encoding="utf-8")
    paths["spans"].write_text(_spans_text(codec_corpus), encoding="utf-8")
    paths["perturbed"].write_text(_conll_text(codec_corpus, labels), encoding="utf-8")
    stats = {
        "train": corpus_stats(train, paths["train"]),
        "heldout": corpus_stats(heldout, paths["heldout"]),
        "codec": corpus_stats(codec_corpus, paths["spans"]),
        "codec_perturbed": {
            "file": paths["perturbed"].name,
            "sha256": hashlib.sha256(paths["perturbed"].read_bytes()).hexdigest(),
            "damaged_sentences": sum(damaged),
        },
    }
    return Inputs(
        train=paths["train"],
        heldout=paths["heldout"],
        spans=paths["spans"],
        perturbed=paths["perturbed"],
        train_tokens=sum(workload.train_lengths),
        unit_tokens=sum(workload.train_lengths[:BATCH]),
        heldout_sentences=len(heldout.sentences),
        heldout_tokens=stats["heldout"]["tokens"],
        codec_tokens=stats["codec"]["tokens"],
        codec_gold=codec_corpus,
        damaged=damaged,
        stats=stats,
    )


# ---------------------------------------------------------------------- runs


def _freeze_heap() -> None:
    """Collect, then move every object still alive (modules, the benchmark's
    inputs and records) out of the garbage collector's reach. Run before
    each unit, so that the collections inside it traverse only what the
    program allocates, as in a ``nestner`` process, and are not timed by a
    heap that the benchmark's own state and the seed make larger."""
    gc.collect()
    gc.freeze()


def _valid_mention_set(sentence: Sentence) -> bool:
    """Spans lie inside the sentence and, unless two of them cross, the set
    survives a strict encode/decode round trip."""
    try:
        checked = Sentence(sentence.tokens, sentence.mentions)
    except ValueError:
        return False
    if codec.contains_partial_crossing(checked.mentions):
        return True
    try:
        return codec.decode(codec.encode(checked), policy="strict") == checked.mentions
    except codec.DecodeError:
        return False


class Run:
    """One workload run: units of work, their output checks and op counts."""

    def __init__(self, workload: Workload, seed: int, directory: Path):
        self.workload = workload
        self.dir = directory
        self.inputs = write_inputs(workload, seed, directory)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.losses: dict[str, list] = {}
        self.pretrain_losses: dict[str, float] = {}
        self.predictions: dict[str, list] = {}
        self.quality: dict[str, dict] = {}

    # ---------------------------------------------------------- bookkeeping

    def _ops(self, attempted: int, failed: int, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem and len(self.problems) < 50:
            self.problems.append(problem)

    def checkpoint(self, kind: str) -> Path:
        """Where ``pretrain`` writes the model that predict and set-up load."""
        return self.dir / f"{kind}.model.json"

    @contextlib.contextmanager
    def _guard(self, what: str, ops: int):
        """A unit that raises fails its ``ops`` and stops the run."""
        try:
            yield
        except BenchmarkError:
            raise
        except Exception as exc:  # an op failure, reported in the result
            self._ops(ops, ops, f"{what} raised {exc!r}")
            raise BenchmarkError(f"{what} failed") from exc

    # --------------------------------------------------------------- units

    def build(self, kind: str):
        corpus = corpus_io.read_conll(self.inputs.train)
        model = training.build_model(
            kind, corpus, seed=MODEL_SEED, **self.workload.widths.build_kwargs()
        )
        return corpus, model

    def pretrain(self, kind: str) -> None:
        """The checkpoint predict and set-up load: one epoch over the whole
        training file, as ``nestner train`` makes it. Untimed."""
        ops = math.ceil(len(self.workload.train_lengths) / BATCH)
        _freeze_heap()
        with self._guard(f"{kind} pre-training", ops):
            corpus, model = self.build(kind)
            records = training.train(
                model,
                corpus,
                config=training.TrainConfig(epochs=1, seed=MODEL_SEED),
                optimizer=training.OptimizerConfig(learning_rate=self.workload.learning_rate),
                checkpoint_path=self.checkpoint(kind),
            )
        loss = records[-1]["train_loss"]
        problem = None if math.isfinite(loss) else f"{kind}: pre-training loss {loss}"
        self._ops(ops, ops if problem else 0, problem)
        self.pretrain_losses[kind] = loss

    def train(self, kind: str, phase) -> float:
        """Build from the training file, then train on its first batch; returns
        the wall time of ``training.train``."""
        ops = EPOCHS  # one batch an epoch
        _freeze_heap()
        with self._guard(f"{kind} training", ops):
            with phase(f"{kind}.setup"):
                corpus, model = self.build(kind)
                first_batch = dataclasses.replace(corpus, sentences=corpus.sentences[:BATCH])
            with phase(f"{kind}.train"):
                start = time.perf_counter()
                records = training.train(
                    model,
                    first_batch,
                    config=training.TrainConfig(epochs=EPOCHS, seed=MODEL_SEED),
                    optimizer=training.OptimizerConfig(
                        learning_rate=self.workload.learning_rate
                    ),
                    checkpoint_path=self.dir / f"{kind}.unit.model.json",
                )
                elapsed = time.perf_counter() - start
        problem = None
        losses = [r["train_loss"] for r in records]
        previous = self.losses.setdefault(kind, losses)
        if len(records) != EPOCHS or not all(math.isfinite(x) for x in losses):
            problem = f"{kind}: non-finite or missing train_loss {losses}"
        elif previous != losses:
            problem = f"{kind}: same seed gave train_loss {losses}, earlier {previous}"
        self._ops(ops, ops if problem else 0, problem)
        return elapsed

    def setup(self) -> float:
        """read_conll of the training set + build_model + load_model, both taggers."""
        _freeze_heap()
        with self._guard("set-up", 1):
            start = time.perf_counter()
            for kind in KINDS:
                self.build(kind)
                models.load_model(self.checkpoint(kind))
            return time.perf_counter() - start

    def predict(self, kind: str, phase) -> float:
        """Load the checkpoint, then time read + predict + write of the held-out file."""
        out_path = self.dir / f"{kind}.pred.conll"
        errors = []
        _freeze_heap()
        with self._guard(f"{kind} predict", self.inputs.heldout_sentences):
            with phase(f"{kind}.setup"):
                model = models.load_model(self.checkpoint(kind))
            with phase(f"{kind}.predict"):
                start = time.perf_counter()
                source = corpus_io.read_conll(self.inputs.heldout)
                predicted = []
                for sentence in source.sentences:
                    try:
                        mentions = model.predict(sentence)
                    except Exception as exc:  # counted as a failed op below
                        errors.append(repr(exc))
                        mentions = frozenset()
                    predicted.append(Sentence(sentence.tokens, mentions))
                corpus_io.write_conll(TaggedCorpus(tuple(predicted), scheme="bilou"), out_path)
                elapsed = time.perf_counter() - start
            self._check_predictions(kind, predicted, out_path, errors)
        return elapsed

    def _check_predictions(self, kind, predicted, out_path, errors) -> None:
        first = self.predictions.setdefault(kind, [s.mentions for s in predicted])
        reread = corpus_io.read_conll(out_path, policy="strict")
        bad = len(errors)
        for i, sentence in enumerate(predicted):
            if (
                i >= len(reread.sentences)
                or reread.sentences[i].mentions != sentence.mentions
                or first[i] != sentence.mentions
            ):
                bad += 1
        if len(reread.sentences) != len(predicted):
            bad = len(predicted)
        problem = None
        if bad:
            problem = (
                f"{kind}: {bad} predicted sentences raised, changed between runs "
                f"or did not re-read strictly to the same mentions {errors[:1]}"
            )
        self._ops(len(predicted), min(bad, len(predicted)), problem)

    def evaluate(self, kind: str, phase) -> None:
        """Strict micro F1 of the predictions read back."""
        with self._guard(f"{kind} evaluate", self.inputs.heldout_sentences), \
                phase(f"{kind}.evaluate"):
            gold = corpus_io.read_conll(self.inputs.heldout)
            pred = corpus_io.read_conll(self.dir / f"{kind}.pred.conll")
            overall, _ = metrics.score_mentions(
                [s.mentions for s in gold.sentences], [s.mentions for s in pred.sentences]
            )
        self.quality.setdefault(kind, {})["heldout_f1"] = overall.f1

    def roundtrip(self, phase) -> float:
        """span file -> read_spans -> write_conll -> read_conll(strict) ->
        write_spans -> score_mentions."""
        conll_path = self.dir / "roundtrip.conll"
        spans_path = self.dir / "roundtrip.spans"
        expected = self.inputs.codec_gold.sentences
        _freeze_heap()
        with self._guard("round trip", len(expected)), phase("io.roundtrip"):
            start = time.perf_counter()
            gold = corpus_io.read_spans(self.inputs.spans)
            corpus_io.write_conll(gold, conll_path)
            back = corpus_io.read_conll(conll_path, policy="strict")
            corpus_io.write_spans(back, spans_path)
            overall, _ = metrics.score_mentions(
                [s.mentions for s in gold.sentences], [s.mentions for s in back.sentences]
            )
            elapsed = time.perf_counter() - start
        bad = sum(
            1
            for i, s in enumerate(expected)
            if i >= len(back.sentences)
            or back.sentences[i].mentions != s.mentions
            or back.sentences[i].tokens != s.tokens
        )
        problem = None
        if spans_path.read_bytes() != self.inputs.spans.read_bytes():
            problem = "round trip did not reproduce the span file byte for byte"
            bad = bad or len(expected)
        elif overall.f1 != 1.0:
            problem = f"round trip F1 {overall.f1} != 1.0"
            bad = bad or len(expected)
        elif bad:
            problem = f"round trip changed {bad} sentences"
        self._ops(len(expected), bad, problem)
        return elapsed

    def repair(self, phase) -> float:
        """read_conll(policy="repair") of the perturbed copy."""
        expected = self.inputs.codec_gold.sentences
        _freeze_heap()
        with self._guard("repair read", len(expected)):
            with phase("io.repair"):
                start = time.perf_counter()
                repaired = corpus_io.read_conll(self.inputs.perturbed, policy="repair")
                elapsed = time.perf_counter() - start
            bad = 0
            for i, gold in enumerate(expected):
                if i >= len(repaired.sentences):
                    bad += 1
                    continue
                got = repaired.sentences[i]
                if got.tokens != gold.tokens:
                    bad += 1
                elif self.inputs.damaged[i]:
                    bad += not _valid_mention_set(got)
                else:
                    bad += got.mentions != gold.mentions
        problem = f"repair read gave {bad} invalid or changed sentences" if bad else None
        self._ops(len(expected), bad, problem)
        return elapsed


def _no_phase(name):
    return contextlib.nullcontext()


class _Task:
    """A phase's unit of work, repeated until it has run ``minimum`` times and
    spent ``budget_s``."""

    def __init__(self, budget_s: float, minimum: int, unit):
        self.budget_s = budget_s
        self.minimum = minimum
        self.unit = unit
        self.spent = 0.0
        self.results: list = []

    @property
    def done(self) -> bool:
        return len(self.results) >= self.minimum and self.spent >= self.budget_s

    @property
    def progress(self) -> float:
        return self.spent / self.budget_s

    def step(self) -> None:
        start = time.perf_counter()
        self.results.append(self.unit())
        self.spent += time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics as (value, unit), and every sample they come from.

    Each phase gets a share of ``seconds``. The next unit to run is always
    one of the phase furthest behind its share, so every phase's units are
    spread over the whole run. A throughput is the phase's tokens over the
    total time of all its units, so it follows the machine's average speed
    over the whole run rather than its fastest moment; ``setup_s`` is the
    median of its repeats.
    """
    w = run.workload
    inputs = run.inputs
    units = {
        "crf.train": lambda: run.train("crf", _no_phase),
        "seq2seq.train": lambda: run.train("seq2seq", _no_phase),
        "crf.predict": lambda: run.predict("crf", _no_phase),
        "seq2seq.predict": lambda: run.predict("seq2seq", _no_phase),
        "io": lambda: (run.roundtrip(_no_phase), run.repair(_no_phase)),
        "setup": run.setup,
    }
    tasks = {
        name: _Task(seconds * w.budget[name], MIN_UNITS, unit)
        for name, unit in units.items()
    }
    for kind in KINDS:
        run.pretrain(kind)
    while pending := [task for task in tasks.values() if not task.done]:
        min(pending, key=lambda task: task.progress).step()
    for kind in KINDS:
        run.evaluate(kind, _no_phase)
    samples = {name: task.results for name, task in tasks.items()}
    samples["roundtrip"] = [rt for rt, _ in samples["io"]]
    samples["repair"] = [rp for _, rp in samples.pop("io")]
    mean = {name: statistics.fmean(values) for name, values in samples.items()}
    out: dict[str, tuple[float, str]] = {}
    for kind in KINDS:
        out[f"{kind}.train_tok_s"] = (
            EPOCHS * inputs.unit_tokens / mean[f"{kind}.train"], "tok/s"
        )
        out[f"{kind}.predict_tok_s"] = (
            inputs.heldout_tokens / mean[f"{kind}.predict"], "tok/s"
        )
        per_sentence = run.pretrain_losses[kind]
        out[f"{kind}.train_loss"] = (per_sentence * len(w.train_lengths) / inputs.train_tokens,
                                     "nats/tok")
    out["roundtrip_tok_s"] = (inputs.codec_tokens / mean["roundtrip"], "tok/s")
    out["repair_tok_s"] = (inputs.codec_tokens / mean["repair"], "tok/s")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    out["setup_s"] = (statistics.median(samples["setup"]), "s")
    return out, samples


def _single_pass(run: Run, phase) -> None:
    run.roundtrip(phase)
    run.repair(phase)
    for kind in KINDS:
        run.train(kind, phase)
        run.predict(kind, phase)
        run.evaluate(kind, phase)


def traced_run(run: Run) -> tuple[dict, dict]:
    """Pre-training, one untraced pass to warm up, one untraced pass as the
    baseline of the tracing overhead, then one traced pass; per-layer metrics
    and detail."""
    for kind in KINDS:
        run.pretrain(kind)
    untraced: list[float] = []

    class _Timer:
        def __init__(self, name):
            pass

        def __enter__(self):
            self.start = time.perf_counter()

        def __exit__(self, *exc):
            untraced.append(time.perf_counter() - self.start)

    _single_pass(run, _no_phase)
    _single_pass(run, _Timer)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        _single_pass(run, tracer.phase)
    finally:
        tracing.restore(patches)
    values, detail = layer_metrics(tracer, run, sum(untraced))
    detail["spans"] = tracer.to_json()
    return values, detail


def _prefix(phase: str) -> str:
    head = phase.split(".")[0]
    return head if head in KINDS else ""


def layer_metrics(tracer: tracing.Tracer, run: Run, untraced_s: float) -> tuple[dict, dict]:
    spans = tracer.spans
    own = tracing.self_times(spans)
    roots = tracing.root_of(spans)
    traced_s = sum(p.duration for p in tracer.phases)
    by_prefix: dict[tuple[str, str], float] = {}
    by_layer: dict[str, float] = {name: 0.0 for name in tracing.LAYERS}
    by_phase: dict[str, dict[str, float]] = {}
    unattributed = 0.0
    for s in spans:
        phase = roots[s.id]
        table = by_phase.setdefault(phase, {})
        if s.parent is None:
            unattributed += own[s.id]
            table["unattributed"] = table.get("unattributed", 0.0) + own[s.id]
            table["wall_s"] = table.get("wall_s", 0.0) + s.duration
            continue
        key = (_prefix(phase), s.name)
        by_prefix[key] = by_prefix.get(key, 0.0) + own[s.id]
        by_layer[s.name] += own[s.id]
        table[s.name] = table.get(s.name, 0.0) + own[s.id]

    def count(prefix: str, key: str, phases=None) -> float:
        return sum(
            v
            for (phase, k), v in tracer.counters.items()
            if k == key and _prefix(phase) == prefix and (phases is None or phase in phases)
        )

    inputs = run.inputs
    out: dict[str, tuple[float, str]] = {}
    for p in KINDS:
        def self_s(layer):
            return (by_prefix.get((p, layer), 0.0), "s")

        out[f"{p}.autodiff.backward.self_s"] = self_s("autodiff.backward")
        out[f"{p}.autodiff.tape_nodes_per_token"] = (
            count(p, "autodiff.tape_nodes", {f"{p}.train"}) / (EPOCHS * inputs.unit_tokens),
            "1/tok",
        )
        out[f"{p}.autodiff.predict_tape_nodes_per_token"] = (
            count(p, "autodiff.tape_nodes", {f"{p}.predict"}) / inputs.heldout_tokens,
            "1/tok",
        )
        out[f"{p}.embeddings.token_vector.self_s"] = self_s("embeddings.token_vector")
        out[f"{p}.embeddings.token_vector.calls"] = (
            count(p, "embeddings.token_vector.calls"), "count"
        )
        out[f"{p}.models.encode.self_s"] = self_s("models.encode")
        if p == "crf":
            out["crf.models.crf_nll.self_s"] = self_s("models.crf_nll")
            out["crf.models.viterbi.self_s"] = self_s("models.viterbi")
        else:
            out["seq2seq.models.seq2seq_step.self_s"] = self_s("models.seq2seq_step")
            out["seq2seq.models.seq2seq_step.train_calls_per_token"] = (
                count(p, "models.seq2seq_step.calls", {"seq2seq.train"})
                / (EPOCHS * inputs.unit_tokens),
                "1/tok",
            )
            # greedy decode steps: 1 per token means <eow> came first
            out["seq2seq.models.seq2seq_step.predict_calls_per_token"] = (
                count(p, "models.seq2seq_step.calls", {"seq2seq.predict"})
                / inputs.heldout_tokens,
                "1/tok",
            )
        out[f"{p}.training.adam.self_s"] = self_s("training.adam")
        out[f"{p}.training.adam_rows"] = (count(p, "training.adam_rows"), "count")
        out[f"{p}.models.save_model.self_s"] = self_s("models.save_model")
        out[f"{p}.models.load_model.self_s"] = self_s("models.load_model")
        out[f"{p}.corpus.read_conll.self_s"] = self_s("corpus.read_conll")
        out[f"{p}.corpus.write_conll.self_s"] = self_s("corpus.write_conll")
        out[f"{p}.codec.encode.self_s"] = self_s("codec.encode")
        out[f"{p}.codec.decode.self_s"] = self_s("codec.decode")
        calls = count(p, "codec.repair_calls")
        rate = count(p, "codec.repaired") / calls if calls else 0.0
        out[f"{p}.codec.repair_rate"] = (rate, "share")
    for layer in ("corpus.read_spans", "corpus.read_conll", "corpus.write_conll",
                  "corpus.write_spans", "codec.encode", "codec.decode",
                  "metrics.score_mentions"):
        out[f"{layer}.self_s"] = (by_prefix.get(("", layer), 0.0), "s")
    calls = count("", "codec.repair_calls")
    out["codec.repair_rate"] = (count("", "codec.repaired") / calls if calls else 0.0, "share")
    for layer in tracing.LAYERS:
        out[f"{layer}.share"] = (by_layer[layer] / traced_s, "share")
    out["unattributed.share"] = (unattributed / traced_s, "share")
    out["trace.overhead"] = (traced_s / untraced_s - 1.0, "share")
    phases = {}
    for phase, table in by_phase.items():
        wall = table.pop("wall_s")
        ranked = sorted(table.items(), key=lambda kv: -kv[1])
        phases[phase] = {"wall_s": wall, "shares": {k: v / wall for k, v in ranked}}
    return out, {"traced_s": traced_s, "untraced_s": untraced_s, "phases": phases}


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload; returns the full record (result line plus detail)."""
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    directory = out_dir / f"run-{name}-{seed}-{os.getpid()}"
    directory.mkdir()
    try:
        started = time.perf_counter()
        run = Run(workload, seed, directory)
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "input_s": time.perf_counter() - started,
            "inputs": run.inputs.stats,
        }
        try:
            if trace:
                values, record["trace_detail"] = traced_run(run)
            else:
                values, record["samples"] = timed_run(run, seconds)
            metrics_out = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        except BenchmarkError as exc:
            run.problems.append(str(exc))
            metrics_out = {}
        record["wall_s"] = time.perf_counter() - started
        record["quality"] = run.quality
        record["problems"] = run.problems
        record["result"] = {
            "correct": not run.problems and run.failed == 0 and bool(metrics_out),
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics_out,
        }
        return record
    finally:
        gc.unfreeze()
        shutil.rmtree(directory, ignore_errors=True)

