"""CoNLL-style vertical file I/O, scheme conversion, and vocabulary building.

Files are UTF-8, tab-separated, one token per line, blank line between
sentences, final newline required. Corpus, span, sidecar and pretrained
files are all opened, decoded and split into blocks by :func:`text_blocks`
alone: a leading byte order mark is dropped, and a line that is empty once
its line end is removed ends a block. Which columns a file carries is
declared per call (e.g. ``"form,label"`` or ``"form,lemma,pos,label"``)
rather than sniffed. Gold label columns are BILOU multilabels and must
decode strictly; flat BIO corpora are converted on read.

Mention span files (for the encode/decode commands) use the token columns
plus one optional trailing column listing mentions that start at that token
as ``TYPE START END`` triples joined by ``;``.

Whether sidecar blocks of contextual vectors fit their sentences is
decided by :func:`check_contextual` alone, at the first block's width or
at a model's.
"""

from __future__ import annotations

import functools
import logging
import operator
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import codec
from .core import (
    Mention,
    Multilabel,
    NestnerError,
    Sentence,
    Span,
    Token,
    mention_sort_key,
)

log = logging.getLogger(__name__)

PAD = "<pad>"
UNK = "<unk>"

COLUMN_NAMES = ("form", "lemma", "pos", "label")
SCHEMES = ("bilou", "bio")


class CorpusError(NestnerError):
    """A corpus file is malformed; the message carries file/line coordinates."""


class ContextualError(CorpusError, ValueError):
    """Sidecar vectors do not fit their sentences (:func:`check_contextual`)
    or the model they are given to."""


@dataclass(frozen=True)
class ColumnSpec:
    """Declared column layout of a vertical file, e.g. form,lemma,pos,label."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        for name in self.names:
            if name not in COLUMN_NAMES:
                raise ValueError(f"unknown column {name!r}; valid: {COLUMN_NAMES}")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate column in spec: {self.names}")
        if "form" not in self.names:
            raise ValueError("column spec must include 'form'")

    @classmethod
    def parse(cls, text: str) -> "ColumnSpec":
        return cls(tuple(part.strip() for part in text.split(",")))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    @property
    def has_label(self) -> bool:
        return "label" in self.names

    @functools.cached_property
    def token_indices(self) -> tuple[int | None, int | None, int | None]:
        """Positions of the form, lemma and pos columns; None where absent."""
        return (self.index("form"), self.index("lemma"), self.index("pos"))


@dataclass(frozen=True)
class TaggedCorpus:
    sentences: tuple[Sentence, ...]
    scheme: str = "bilou"
    contextual: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; valid: {SCHEMES}")
        if self.contextual is not None:
            object.__setattr__(self, "contextual", tuple(self.contextual))
            check_contextual(self.sentences, self.contextual)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    @functools.cached_property
    def encoded(self) -> tuple[codec.EncodedSentence, ...]:
        """Each sentence's multilabels, encoded on first use and then kept, so
        a model built from this corpus and trained on it encodes it once."""
        return tuple(codec.encode(sentence) for sentence in self.sentences)


def check_contextual(
    sentences: Sequence[Sentence], blocks: Sequence[np.ndarray], width: int | None = None
) -> None:
    """The sidecar contract: one block per sentence, each a 2-d (tokens,
    width) matrix, all of one width, ``width`` if given, else the first
    block's. A :class:`ContextualError` names the first sentence that breaks
    it; a sentence without a block, or a block without a sentence, breaks it
    at the index where the shorter list ends."""
    for i, (sentence, block) in enumerate(zip(sentences, blocks)):
        shape = np.shape(block)
        if len(shape) != 2:
            raise ContextualError(
                f"sentence {i}: contextual vectors must be a 2-d (tokens, width) matrix, "
                f"got shape {shape}"
            )
        if width is None:
            width = shape[1]
        if shape[1] != width:
            raise ContextualError(
                f"sentence {i}: contextual vectors have width {shape[1]}, expected {width}"
            )
        if shape[0] != len(sentence.tokens):
            raise ContextualError(
                f"sentence {i}: {shape[0]} contextual rows for {len(sentence.tokens)} tokens"
            )
    if len(blocks) != len(sentences):
        raise ContextualError(
            f"sentence {min(len(blocks), len(sentences))}: {len(blocks)} contextual blocks "
            f"for {len(sentences)} sentences"
        )


def text_blocks(path: str | Path, error: type[NestnerError]) -> Iterator[tuple[int, list[str]]]:
    """Yield each block of a UTF-8 text file as the number of its first line
    and its lines, each with its line end. A line that is empty once its line
    end is removed ends a block and is in none. A leading byte order mark is
    not part of line 1, and a byte that is not UTF-8 raises ``error`` with
    ``<path>:<line>: not valid UTF-8``. Every reader of a text input reads
    through it."""
    lines: list[str] = []
    with open(path, encoding="utf-8-sig") as handle:
        try:
            # text mode has turned every \r\n and lone \r into \n
            for lineno, line in enumerate(handle, start=1):
                if line != "\n":
                    lines.append(line)
                elif lines:
                    yield lineno - len(lines), lines
                    lines = []
        except UnicodeDecodeError:
            raise error(_not_utf8(path)) from None
    if lines:
        yield lineno + 1 - len(lines), lines


def _not_utf8(path: str | Path) -> str:
    """The message for a file that failed to decode, naming the line of its
    first bad byte; the file is read again as bytes, on the error path only."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        # text mode ends a line at \n, \r\n or a lone \r
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return f"{path}:{line}: not valid UTF-8"
    return f"{path}: not valid UTF-8"


def vector_row(
    fields: Sequence[str], width: int | None, path: str | Path, lineno: int,
    error: type[NestnerError],
) -> np.ndarray:
    """The values of line ``lineno`` of a vector file: ``width`` fields (at
    least one if ``width`` is None, as on a file's first row), each a finite
    number, as float64. Both vector readers check every row here."""
    if width is None and not fields:
        raise error(f"{path}:{lineno}: no values")
    if width is not None and len(fields) != width:
        raise error(f"{path}:{lineno}: expected {width} values, found {len(fields)}")
    try:
        values = np.array([float(field) for field in fields])
    except ValueError as exc:
        raise error(f"{path}:{lineno}: non-numeric field") from exc
    if not np.isfinite(values).all():
        raise error(f"{path}:{lineno}: non-finite value")
    return values


def _read_blocks(
    path: str | Path, columns: ColumnSpec
) -> Iterator[tuple[int, list[Token], list[list[str]]]]:
    """Yield each sentence block of a vertical file as the number of its
    first line, its tokens and its lines' fields.

    Every line must fill the declared columns. A line whose token column
    values an earlier line of this read had gets that line's ``Token``; a
    bad form is reported at the first line holding it and never stored.
    """
    width = len(columns)
    form_i, lemma_i, pos_i = columns.token_indices
    token_key = operator.itemgetter(*(i for i in columns.token_indices if i is not None))
    seen: dict[object, Token] = {}
    for start, lines in text_blocks(path, CorpusError):
        tokens: list[Token] = []
        rows: list[list[str]] = []
        for lineno, line in enumerate(lines, start):
            fields = line.rstrip("\n").split("\t")
            if len(fields) < width:
                raise CorpusError(
                    f"{path}:{lineno}: expected at least {width} tab-separated "
                    f"columns, found {len(fields)}"
                )
            key = token_key(fields)
            token = seen.get(key)
            if token is None:
                try:
                    token = Token(
                        fields[form_i],
                        fields[lemma_i] if lemma_i is not None else None,
                        fields[pos_i] if pos_i is not None else None,
                    )
                except ValueError as exc:
                    raise CorpusError(f"{path}:{lineno}: {exc}") from exc
                seen[key] = token
            tokens.append(token)
            rows.append(fields)
        yield start, tokens, rows


def _lines(tokens: Sequence[Token], columns: ColumnSpec, labels: Sequence[str] = ()) -> list[str]:
    """Each token's line, without its newline: the declared columns in order,
    ``_`` for a missing lemma or POS, built one column at a time."""
    values = []
    for name in columns.names:
        if name == "label":
            values.append(labels)
        elif name == "form":
            values.append([token.form for token in tokens])
        else:
            column = [getattr(token, name) for token in tokens]
            values.append(["_" if value is None else value for value in column])
    return list(map("\t".join, zip(*values)))


def read_conll(
    path: str | Path,
    columns: ColumnSpec | str = "form,label",
    scheme: str = "bilou",
    policy: codec.RepairPolicy = "strict",
) -> TaggedCorpus:
    """Read a labeled vertical file; gold mentions are decoded from labels.

    Gold data should use the default strict policy so corpus errors surface
    loudly; ``repair`` is for reading raw model output.

    Each label comes from the process's label table (``core``) by its text,
    so a label string is parsed once while the table holds it, and every
    line that repeats it shares one ``Multilabel``. Each distinct set of
    token column values is parsed once per call into one ``Token`` shared by
    every line that repeats it; that table is dropped when the call returns.
    A bad label or form is reported at the first line holding it.
    """
    if isinstance(columns, str):
        columns = ColumnSpec.parse(columns)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; valid: {SCHEMES}")
    label_i = columns.index("label")
    parse = Multilabel.parse
    sentences = []
    for i, (start, tokens, rows) in enumerate(_read_blocks(path, columns)):
        if label_i is None:
            sentences.append(Sentence(tokens))
            continue
        labels = [fields[label_i] for fields in rows]
        if scheme == "bio":
            try:
                labels = bio_to_bilou(labels)
            except CorpusError as exc:
                raise CorpusError(f"{path}: sentence {i}: {exc}") from exc
        parsed = []
        for lineno, label in enumerate(labels, start):
            try:
                parsed.append(parse(label))
            except NestnerError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from exc
        try:
            mentions = codec.decode(codec.EncodedSentence(parsed), policy=policy)
        except codec.DecodeError as exc:
            raise CorpusError(f"{path}: sentence {i}: {exc}") from exc
        sentences.append(Sentence(tokens, mentions))
    return TaggedCorpus(tuple(sentences), scheme=scheme)


def write_conll(
    corpus: TaggedCorpus,
    path: str | Path,
    columns: ColumnSpec | str = "form,label",
) -> None:
    """Write sentences with labels freshly encoded from their mention sets,
    all made before ``path`` is opened: one the scheme cannot write (nested,
    in ``bio``) raises a :class:`CorpusError` and leaves ``path`` untouched."""
    if isinstance(columns, str):
        columns = ColumnSpec.parse(columns)
    labeled = []
    for i, sentence in enumerate(corpus.sentences):
        labels = codec.encode(sentence).strings()
        try:
            labeled.append(bilou_to_bio(labels) if corpus.scheme == "bio" else labels)
        except CorpusError as exc:
            raise CorpusError(f"sentence {i}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as handle:
        for i, (sentence, labels) in enumerate(zip(corpus.sentences, labeled)):
            if i:
                handle.write("\n")
            handle.write("\n".join(_lines(sentence.tokens, columns, labels)) + "\n")


def read_spans(path: str | Path, columns: ColumnSpec | str = "form") -> TaggedCorpus:
    """Read a span file: token columns plus optional trailing mention lists.

    As in :func:`read_conll`, each distinct set of token column values is
    parsed once per call into one shared ``Token``.
    """
    if isinstance(columns, str):
        columns = ColumnSpec.parse(columns)
    _check_span_columns(columns)
    spans_i = len(columns)  # the optional mention list follows the token columns
    sentences = []
    for start, tokens, rows in _read_blocks(path, columns):
        mentions: list[Mention] = []
        for lineno, fields in enumerate(rows, start):
            if len(fields) > spans_i and fields[spans_i]:
                mentions.extend(_parse_span_list(path, lineno, fields[spans_i]))
        unique = frozenset(mentions)
        if len(unique) < len(mentions):
            log.warning(
                "%s: duplicate mentions in sentence starting at line %d were dropped",
                path,
                start,
            )
        try:
            sentences.append(Sentence(tokens, unique))
        except ValueError as exc:
            raise CorpusError(f"{path}:{start}: {exc}") from exc
    return TaggedCorpus(tuple(sentences))


def _parse_span_list(path: str | Path, lineno: int, text: str) -> list[Mention]:
    mentions = []
    for chunk in text.split(";"):
        parts = chunk.split()
        if len(parts) == 3:
            entity_type, start, end = parts
            try:
                mentions.append(Mention(entity_type, Span(int(start), int(end))))
            except ValueError as exc:
                raise CorpusError(
                    f"{path}:{lineno}: bad mention {chunk.strip()!r}: {exc}"
                ) from exc
        elif parts:
            raise CorpusError(
                f"{path}:{lineno}: bad mention {chunk.strip()!r}, want 'TYPE START END'"
            )
    return mentions


def _check_span_columns(columns: ColumnSpec) -> None:
    if columns.has_label:
        raise ValueError("span files carry mention lists, not a label column")


def write_spans(
    corpus: TaggedCorpus,
    path: str | Path,
    columns: ColumnSpec | str = "form",
) -> None:
    if isinstance(columns, str):
        columns = ColumnSpec.parse(columns)
    _check_span_columns(columns)
    with open(path, "w", encoding="utf-8") as handle:
        for i, sentence in enumerate(corpus.sentences):
            if i:
                handle.write("\n")
            starts: dict[int, list[str]] = {}
            for entity_type, (start, end) in sorted(sentence.mentions, key=mention_sort_key):
                starts.setdefault(start, []).append(f"{entity_type} {start} {end}")
            lines = _lines(sentence.tokens, columns)
            for t, mentions in starts.items():
                lines[t] += "\t" + ";".join(mentions)
            handle.write("\n".join(lines) + "\n")


def _parse_flat(labels: Sequence[str], allowed: str) -> list[tuple[str, str] | None]:
    """Split flat labels into (tag, type) pairs; None for O. Multilabels rejected."""
    out: list[tuple[str, str] | None] = []
    for i, label in enumerate(labels):
        if label == "O":
            out.append(None)
            continue
        if "|" in label:
            raise CorpusError(
                f"label {i}: nested multilabel {label!r}; scheme conversion is flat-only"
            )
        tag, sep, entity_type = label.partition("-")
        if not sep or tag not in allowed or not entity_type:
            raise CorpusError(f"label {i}: malformed {label!r} (want one of {allowed})")
        out.append((tag, entity_type))
    return out


def bio_to_bilou(labels: Sequence[str]) -> list[str]:
    """Rewrite a flat BIO sequence as BILOU; mention boundaries are unchanged."""
    parsed = _parse_flat(labels, "BI")
    out = list(labels)
    runs: list[tuple[int, int]] = []
    for i, item in enumerate(parsed):
        if item is None:
            continue
        tag, entity_type = item
        if tag == "B":
            runs.append((i, i + 1))
        else:
            prev = parsed[i - 1] if i else None
            if prev is None or prev[1] != entity_type:
                raise CorpusError(f"label {i}: I-{entity_type} does not continue a mention")
            runs[-1] = (runs[-1][0], i + 1)
    for start, end in runs:
        if end - start == 1:
            out[start] = "U-" + parsed[start][1]
        else:
            out[start] = "B-" + parsed[start][1]
            out[end - 1] = "L-" + parsed[end - 1][1]
    return out


def bilou_to_bio(labels: Sequence[str]) -> list[str]:
    """Rewrite a flat BILOU sequence as BIO; mention boundaries are unchanged."""
    parsed = _parse_flat(labels, "BILU")
    out = []
    open_type: str | None = None
    for i, item in enumerate(parsed):
        if item is None:
            if open_type is not None:
                raise CorpusError(f"label {i}: mention of type {open_type} not closed")
            out.append("O")
            continue
        tag, entity_type = item
        if tag in ("B", "U"):
            if open_type is not None:
                raise CorpusError(f"label {i}: mention of type {open_type} not closed")
            out.append("B-" + entity_type)
            open_type = entity_type if tag == "B" else None
        else:  # I or L
            if open_type != entity_type:
                raise CorpusError(f"label {i}: {tag}-{entity_type} does not continue a mention")
            out.append("I-" + entity_type)
            if tag == "L":
                open_type = None
    if open_type is not None:
        raise CorpusError(f"label {len(labels)}: mention of type {open_type} not closed")
    return out


@dataclass(frozen=True)
class Vocabulary:
    """Dense ids for forms/chars/lemmas (pad=0, unk=1) and a POS one-hot order."""

    forms: dict[str, int]
    chars: dict[str, int]
    pos_tags: tuple[str, ...]
    lemmas: dict[str, int]

    @property
    def n_forms(self) -> int:
        return len(self.forms)

    @property
    def n_chars(self) -> int:
        return len(self.chars)

    @property
    def n_lemmas(self) -> int:
        return len(self.lemmas)

    @property
    def n_pos(self) -> int:
        return len(self.pos_tags)

    def form_id(self, form: str) -> int:
        return self.forms.get(form, 1)

    def lemma_id(self, lemma: str | None) -> int:
        if lemma is None:
            return 1
        return self.lemmas.get(lemma, 1)

    def char_ids(self, form: str) -> list[int]:
        return [self.chars.get(c, 1) for c in form]

    def pos_index(self, pos: str | None) -> int | None:
        if pos is None:
            return None
        try:
            return self.pos_tags.index(pos)
        except ValueError:
            return None

    def form_strings(self) -> list[str]:
        return _id_ordered(self.forms)

    def char_strings(self) -> list[str]:
        return _id_ordered(self.chars)

    def lemma_strings(self) -> list[str]:
        return _id_ordered(self.lemmas)


def _id_ordered(index: dict[str, int]) -> list[str]:
    return [s for s, _ in sorted(index.items(), key=lambda kv: kv[1])]


def _index_by_frequency(counts: Counter, min_freq: int) -> dict[str, int]:
    index = {PAD: 0, UNK: 1}
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for item, count in ranked:
        if count >= min_freq and item not in index:
            index[item] = len(index)
    return index


def build_vocabulary(corpus: TaggedCorpus, min_freq: int = 1) -> Vocabulary:
    """Deterministic vocabulary: frequency-then-lexicographic id order.

    Forms and lemmas below ``min_freq`` map to the unk id; characters of all
    training forms are kept.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    form_counts: Counter = Counter()
    lemma_counts: Counter = Counter()
    char_counts: Counter = Counter()
    pos_set: set[str] = set()
    for sentence in corpus.sentences:
        for token in sentence.tokens:
            form_counts[token.form] += 1
            if token.lemma is not None:
                lemma_counts[token.lemma] += 1
            if token.pos is not None:
                pos_set.add(token.pos)
    for form, count in form_counts.items():  # each distinct form's characters once
        for char in form:
            char_counts[char] += count
    return Vocabulary(
        forms=_index_by_frequency(form_counts, min_freq),
        chars=_index_by_frequency(char_counts, 1),
        pos_tags=tuple(sorted(pos_set)),
        lemmas=_index_by_frequency(lemma_counts, min_freq),
    )


def read_contextual(path: str | Path, dim: int | None = None) -> tuple[np.ndarray, ...]:
    """Read a sidecar file of per-token vectors: whitespace-separated floats
    per line, an empty line between sentences (the blank-line rule of every
    reader, :func:`text_blocks`). Returns one (n_tokens, dim) array per
    sentence.

    Every row has as many values as the first (:func:`vector_row`), and
    ``dim`` if given. A whitespace-only line is a row with no values, an
    error."""
    sentences: list[np.ndarray] = []
    for start, lines in text_blocks(path, CorpusError):
        rows: list[np.ndarray] = []
        for lineno, line in enumerate(lines, start):
            fields = line.split()
            if not fields:
                raise CorpusError(f"{path}:{lineno}: whitespace-only line, no values")
            rows.append(vector_row(fields, dim, path, lineno, CorpusError))
            dim = len(fields)
        sentences.append(np.asarray(rows, dtype=np.float64))
    return tuple(sentences)


def attach_contextual(corpus: TaggedCorpus, vectors: Sequence[np.ndarray]) -> TaggedCorpus:
    return TaggedCorpus(corpus.sentences, scheme=corpus.scheme, contextual=tuple(vectors))


def merge(a: TaggedCorpus, b: TaggedCorpus) -> TaggedCorpus:
    """Concatenate two corpora (e.g. train+dev for a final model). Either
    both carry contextual vectors or neither does: a corpus cannot have
    vectors for only some of its sentences."""
    if (a.contextual is None) != (b.contextual is None):
        raise ContextualError("cannot merge a corpus with contextual vectors and one without")
    contextual = None if a.contextual is None else a.contextual + b.contextual
    return TaggedCorpus(a.sentences + b.sentences, scheme=a.scheme, contextual=contextual)
