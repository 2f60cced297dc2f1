"""Command-line interface.

Subcommands: encode, decode, convert, train, predict, evaluate, gradcheck,
roundtrip. Exit codes: 0 success, 1 validation/input error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import traceback

import numpy as np

from . import codec, corpus as corpus_io, models, training
from .autodiff import grad_check
from .core import Mention, NestnerError, Sentence, Span, Token
from .corpus import ColumnSpec, TaggedCorpus, read_conll, read_contextual, read_spans
from .embeddings import EmbeddingConfig, load_pretrained
from .metrics import format_report, report_records, score_mentions


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, not argparse's default 2
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _labeled_columns(text: str) -> str:
    """A ``--columns`` value for a command that reads gold or predicted labels."""
    if "label" not in (name.strip() for name in text.split(",")):
        raise argparse.ArgumentTypeError(f"{text!r} has no 'label' column")
    return text


def non_negative_int(text: str) -> int:
    """An integer flag value that may not be negative, such as ``--seed``."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="nestner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="span file (or strict label file) -> multilabel file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--columns",
        default="form",
        help="input columns; with a 'label' column the input is read as strict labels",
    )
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="multilabel file -> span file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--columns", type=_labeled_columns, default="form,label")
    p.add_argument("--policy", choices=["strict", "repair"], default="strict")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("convert", help="flat BIO <-> BILOU label conversion")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--columns", type=_labeled_columns, default="form,label")
    p.add_argument("--to", choices=["bilou", "bio"], required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train a tagger")
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--dev", dest="dev_path")
    p.add_argument("--model", choices=["crf", "seq2seq"], default="crf")
    p.add_argument("--save", required=True, help="checkpoint path")
    p.add_argument("--metrics", help="write per-epoch records to this file (JSON lines)")
    p.add_argument("--columns", type=_labeled_columns, default="form,label")
    p.add_argument("--scheme", choices=["bilou", "bio"], default="bilou")
    p.add_argument("--pretrained", help="text-format word vector file; it sets its own width")
    p.add_argument("--contextual", help="sidecar vector file for --train")
    p.add_argument("--dev-contextual", help="sidecar vector file for --dev")
    p.add_argument("--seed", type=non_negative_int, default=1)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--include-dev", action="store_true")
    p.add_argument("--hidden", type=int, default=256)
    p.add_argument("--embed-dim", type=int, default=256)
    p.add_argument("--lemma-dim", type=int, default=0)
    p.add_argument("--char-dim", type=int, default=128)
    p.add_argument("--char-rnn-dim", type=int, default=128)
    p.add_argument("--pos-onehot", action="store_true")
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--word-dropout", type=float, default=0.2)
    p.add_argument("--min-freq", type=int, default=1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write predicted labels next to input tokens")
    p.add_argument("--model-file", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--columns", default="form,label", help="columns of the input file")
    p.add_argument("--pretrained")
    p.add_argument("--contextual")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="strict mention-level scoring")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--columns", type=_labeled_columns, default="form,label")
    p.add_argument("--pred-policy", choices=["strict", "repair"], default="strict")
    p.add_argument("--json", action="store_true", help="line-delimited records instead of a table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of both model kinds")
    p.add_argument("--seed", type=non_negative_int, default=1)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("roundtrip", help="exhaustive encode/decode identity check")
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--types", type=int, default=2)
    p.add_argument("--max-mentions", type=int, default=4)
    p.add_argument("--include-crossing", action="store_true",
                   help="also try partially crossing pairs (reported, not failed)")
    p.set_defaults(func=cmd_roundtrip)

    return parser


# ------------------------------------------------------------------- commands


def cmd_encode(args) -> int:
    columns = ColumnSpec.parse(args.columns)
    if columns.has_label:
        corpus = read_conll(args.input, columns=columns)
        out_columns = columns
    else:
        corpus = read_spans(args.input, columns=columns)
        out_columns = ColumnSpec(columns.names + ("label",))
    corpus_io.write_conll(corpus, args.output, columns=out_columns)
    return 0


def cmd_decode(args) -> int:
    columns = ColumnSpec.parse(args.columns)
    corpus = read_conll(args.input, columns=columns, policy=args.policy)
    token_columns = ColumnSpec(tuple(n for n in columns.names if n != "label"))
    corpus_io.write_spans(corpus, args.output, columns=token_columns)
    return 0


def cmd_convert(args) -> int:
    source_scheme = "bio" if args.to == "bilou" else "bilou"
    corpus = read_conll(args.input, columns=args.columns, scheme=source_scheme)
    converted = TaggedCorpus(corpus.sentences, scheme=args.to)
    try:
        corpus_io.write_conll(converted, args.output, columns=args.columns)
    except corpus_io.CorpusError as exc:
        raise corpus_io.CorpusError(f"{args.input}: {exc}") from exc
    return 0


def _with_sidecar(corpus: TaggedCorpus, path: str, dim: int | None = None) -> TaggedCorpus:
    """``corpus`` with the contextual vectors of the sidecar file at ``path``
    attached; a count that does not match the corpus is an error naming the file."""
    vectors = read_contextual(path, dim=dim)
    try:
        return corpus_io.attach_contextual(corpus, vectors)
    except corpus_io.CorpusError as exc:
        raise corpus_io.CorpusError(f"{path}: {exc}") from exc


def cmd_train(args) -> int:
    if args.dev_contextual and not args.dev_path:
        raise NestnerError("--dev-contextual needs --dev")
    if args.include_dev and not args.dev_path:
        raise NestnerError("--include-dev needs --dev")
    if args.dev_path and bool(args.contextual) != bool(args.dev_contextual):
        raise NestnerError("with --dev, give both --contextual and --dev-contextual or neither")
    train_corpus = read_conll(args.train_path, columns=args.columns, scheme=args.scheme)
    if not train_corpus.sentences:
        raise NestnerError(f"{args.train_path}: training corpus is empty")
    contextual_dim = 0
    if args.contextual:
        train_corpus = _with_sidecar(train_corpus, args.contextual)
        contextual_dim = train_corpus.contextual[0].shape[1] if train_corpus.contextual else 0
    dev_corpus = None
    if args.dev_path:
        dev_corpus = read_conll(args.dev_path, columns=args.columns, scheme=args.scheme)
        if not dev_corpus.sentences and not args.include_dev:
            raise NestnerError(f"{args.dev_path}: dev corpus is empty")
        if args.dev_contextual:
            dev_corpus = _with_sidecar(dev_corpus, args.dev_contextual, contextual_dim)
    if args.include_dev:  # the vocabulary and alphabet come from train + dev
        train_corpus, dev_corpus = corpus_io.merge(train_corpus, dev_corpus), None
    pretrained = load_pretrained(args.pretrained) if args.pretrained else None
    embedding = EmbeddingConfig(
        pretrained_dim=pretrained.dim if pretrained else 0,
        trainable_dim=args.embed_dim,
        lemma_dim=args.lemma_dim,
        char_dim=args.char_dim,
        char_rnn_dim=args.char_rnn_dim,
        use_pos_onehot=args.pos_onehot,
        contextual_dim=contextual_dim,
    )
    model = training.build_model(
        args.model,
        train_corpus,
        embedding=embedding,
        hidden_dim=args.hidden,
        pretrained=pretrained,
        min_freq=args.min_freq,
        seed=args.seed,
        dtype=np.float32,
    )
    metrics = training.train(
        model,
        train_corpus,
        config=training.TrainConfig(epochs=args.epochs, seed=args.seed, batch_size=args.batch),
        optimizer=training.OptimizerConfig(learning_rate=args.lr),
        regularization=training.RegularizationConfig(
            dropout_rate=args.dropout, word_dropout_rate=args.word_dropout
        ),
        dev=dev_corpus,
        checkpoint_path=args.save,
    )
    lines = [json.dumps(record) for record in metrics]
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    return 0


def cmd_predict(args) -> int:
    pretrained = load_pretrained(args.pretrained) if args.pretrained else None
    try:
        model = models.load_model(args.model_file, pretrained=pretrained)
    except models.UnusedTableError as exc:
        raise NestnerError(
            f"--pretrained: {args.model_file} was trained without pretrained vectors"
        ) from exc
    columns = ColumnSpec.parse(args.columns)
    token_columns = ColumnSpec(tuple(n for n in columns.names if n != "label"))
    input_columns = columns if columns.has_label else token_columns
    corpus = read_conll(args.input, columns=input_columns) if columns.has_label else read_spans(
        args.input, columns=token_columns
    )
    contextual_dim = model.config.embedding.contextual_dim
    if args.contextual and not contextual_dim:
        raise NestnerError(
            f"--contextual: {args.model_file} was trained without contextual vectors"
        )
    if contextual_dim and not args.contextual:
        raise NestnerError(
            f"{args.model_file} needs --contextual vectors of width {contextual_dim}"
        )
    if args.contextual:
        corpus = _with_sidecar(corpus, args.contextual, contextual_dim)
    mentions = model.predict_batch(corpus.sentences, corpus.contextual)
    predicted = tuple(Sentence(s.tokens, m) for s, m in zip(corpus.sentences, mentions))
    out = TaggedCorpus(predicted, scheme="bilou")
    out_columns = ColumnSpec(token_columns.names + ("label",))
    corpus_io.write_conll(out, args.output, columns=out_columns)
    return 0


def cmd_evaluate(args) -> int:
    gold = read_conll(args.gold, columns=args.columns)
    pred = read_conll(args.pred, columns=args.columns, policy=args.pred_policy)
    if len(pred) != len(gold):
        raise NestnerError(
            f"{args.pred} has {len(pred)} sentences, {args.gold} has {len(gold)}"
        )
    for i, (gold_sentence, pred_sentence) in enumerate(zip(gold.sentences, pred.sentences)):
        if pred_sentence.forms() != gold_sentence.forms():
            raise NestnerError(
                f"{args.pred}: sentence {i} does not have the tokens of sentence {i} "
                f"of {args.gold}"
            )
    overall, per_type = score_mentions(
        [s.mentions for s in gold.sentences],
        [s.mentions for s in pred.sentences],
    )
    if args.json:
        for row in report_records(overall, per_type):
            print(json.dumps(row))
    else:
        print(format_report(overall, per_type))
    return 0


def _tiny_fixture_corpus() -> TaggedCorpus:
    sentences = (
        Sentence(
            (Token("alpha", pos="N"), Token("beta", pos="V"), Token("gamma", pos="N")),
            frozenset({Mention("X", Span(0, 2)), Mention("Y", Span(1, 2))}),
        ),
        Sentence(
            (Token("beta", pos="V"), Token("delta", pos="D")),
            frozenset({Mention("Y", Span(0, 2))}),
        ),
    )
    return TaggedCorpus(sentences)


def cmd_gradcheck(args) -> int:
    corpus = _tiny_fixture_corpus()
    embedding = EmbeddingConfig(
        trainable_dim=4, char_dim=4, char_rnn_dim=4, use_pos_onehot=True
    )
    sentence = corpus.sentences[0]
    failed = False
    for kind in ("crf", "seq2seq"):
        model = training.build_model(
            kind,
            corpus,
            embedding=embedding,
            hidden_dim=4,
            decoder_dim=4,
            label_embed_dim=4,
            seed=args.seed,
        )
        # the packed path: a batch of two sentences of different lengths
        batch = [
            model.example(s, target=model.gold_ids(codec.encode(s))) for s in corpus.sentences
        ]
        losses = {
            kind: lambda tape: model.loss(tape, sentence),
            f"{kind}, batch of {len(batch)}": lambda tape: model.batch_loss(tape, batch),
        }
        for name, loss_fn in losses.items():
            report = grad_check(loss_fn, model.params, epsilon=args.eps, tolerance=args.tolerance)
            print(f"== {name} ==")
            print(report)
            failed = failed or not report.passed
    return 1 if failed else 0


def cmd_roundtrip(args) -> int:
    failures = 0
    checked = 0
    for sentence in codec.enumerate_nested_sentences(
        args.max_len, args.types, args.max_mentions
    ):
        encoded = codec.encode(sentence)
        checked += 1
        if codec.decode(encoded, policy="strict") != sentence.mentions:
            failures += 1
            print(f"FAIL: {encoded.strings()}", file=sys.stderr)
    print(f"nested sets checked: {checked}, failures: {failures}")
    if args.include_crossing:
        # crossing pairs are encodable but outside the round-trip guarantee;
        # mismatches here count as warnings, not failures
        logging.disable(logging.WARNING)
        try:
            pairs = list(codec.enumerate_crossing_pairs(min(args.max_len, 5), args.types))
            warnings = sum(
                codec.decode(codec.encode(s), policy="repair") != s.mentions for s in pairs
            )
        finally:
            logging.disable(logging.NOTSET)
        print(
            f"crossing pairs tried: {len(pairs)}, not round-tripped: {warnings} "
            "(documented limitation)"
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (NestnerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
