"""Linearization of nested mention sets into per-token BILOU multilabels.

``encode`` turns a sentence's mentions into one multilabel per token: every
mention intersecting a token contributes one component (U for a unit-length
mention, B at its first token, L at its last, I in between), listed in
mention priority order. ``decode`` inverts this by walking tokens left to
right and matching I-/L- components to open mentions of the same type by
order (first-fit over the ordered open list). Mention sets in which any two
mentions are disjoint or nested round-trip exactly; partially crossing
mentions are encodable but not guaranteed to decode back, so ``encode``
warns when it sees one.

``flatten``/``unflatten`` convert between per-token multilabels and the flat
component stream consumed by the seq2seq tagger, where each token's
components are followed by the ``<eow>`` sentinel.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

from .core import (
    LabelComponent,
    Mention,
    Multilabel,
    NestnerError,
    Sentence,
    Span,
    Token,
    mention_sort_key,
)

EOW = "<eow>"

_new_tuple = tuple.__new__

RepairPolicy = Literal["strict", "repair"]

log = logging.getLogger(__name__)


class DecodeError(NestnerError):
    """A label sequence cannot be strictly decoded into mentions."""

    def __init__(self, token_index: int, component: str | None, message: str):
        self.token_index = token_index
        self.component = component
        where = f"token {token_index}"
        if component is not None:
            where += f", component {component}"
        super().__init__(f"{message} ({where})")


class ComponentStreamError(NestnerError):
    """A component stream does not have the expected structure."""


@dataclass(frozen=True)
class EncodedSentence:
    """One multilabel per token."""

    labels: tuple[Multilabel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def length(self) -> int:
        return len(self.labels)

    def strings(self) -> list[str]:
        return [label.text for label in self.labels]

    @classmethod
    def from_strings(cls, labels: Iterable[str]) -> "EncodedSentence":
        return cls(tuple(Multilabel.parse(s) for s in labels))


def contains_partial_crossing(mentions: Iterable[Mention]) -> bool:
    """True if some pair of mentions overlaps without one containing the other.

    Equal spans of different types contain each other and touching spans
    are disjoint, so neither pair crosses. Decided by one sorted sweep over
    the spans, O(m log m) for m mentions (:func:`_spans_cross`), not by
    comparing every pair.
    """
    return _spans_cross(m.span for m in mentions)


def _spans_cross(spans: Iterable[tuple[int, int]]) -> bool:
    """True if two of the half-open ``(start, end)`` spans partially cross,
    decided by :func:`_ordered_spans_cross` after one sort, so O(m log m)
    for m spans."""
    return _ordered_spans_cross(sorted(spans, key=lambda span: (span[0], -span[1])))


def _ordered_spans_cross(spans: Iterable[tuple[int, int]]) -> bool:
    """True if two of the half-open ``(start, end)`` spans, given sorted by
    start and longer first among equal starts, partially cross.

    One sweep: a stack holds the ends of the spans still open at the current
    start; while no crossing has been seen they form a nested chain,
    innermost (smallest end) on top. A span crosses one of them iff it ends
    after the top's end: the top then starts earlier (an equal start would
    end no earlier) and ends inside it.
    """
    open_ends: list[int] = []
    for start, end in spans:
        while open_ends and open_ends[-1] <= start:
            open_ends.pop()
        if open_ends and open_ends[-1] < end:
            return True
        open_ends.append(end)
    return False


# Labels are interned like entity types are checked (``core``): a corpus has
# a few entity types and a few hundred distinct multilabels, so each
# component and multilabel is built, and its text formatted, once while it
# stays among the most recently used.


@functools.lru_cache(maxsize=1024)
def _component(tag: str, entity_type: str) -> LabelComponent:
    return LabelComponent(tag, entity_type)


@functools.lru_cache(maxsize=4096)
def _multilabel(keys: tuple[tuple[str, str], ...]) -> Multilabel:
    """The multilabel of the components with these ``(tag, type)`` keys."""
    return Multilabel(tuple(_component(tag, entity_type) for tag, entity_type in keys))


def encode(sentence: Sentence) -> EncodedSentence:
    """Per-token multilabels for a sentence's mention set.

    Components of each token are listed in mention priority order (earlier
    start first, then longer span, then lexicographic type). Every
    component and multilabel is an interned value shared by all tokens and
    sentences that hold it.
    """
    ordered = sorted(sentence.mentions, key=mention_sort_key)
    if _ordered_spans_cross(span for _, span in ordered):
        log.warning(
            "mention set contains partially crossing spans; encoding is not "
            "guaranteed to round-trip"
        )
    keys: list[list[tuple[str, str]]] = [[] for _ in sentence.tokens]
    for entity_type, (start, end) in ordered:
        if end - start == 1:
            keys[start].append(("U", entity_type))
            continue
        keys[start].append(("B", entity_type))
        inside = ("I", entity_type)
        for t in range(start + 1, end - 1):
            keys[t].append(inside)
        keys[end - 1].append(("L", entity_type))
    return EncodedSentence(tuple(map(_multilabel, map(tuple, keys))))


def _mention(entity_type: str, start: int, end: int) -> Mention:
    """``Mention(entity_type, Span(start, end))`` without the constructors'
    checks: :func:`decode` takes its types from components, which checked
    them, and its spans lie inside the sentence by construction."""
    return _new_tuple(Mention, (entity_type, _new_tuple(Span, (start, end))))


def decode(encoded: EncodedSentence, policy: RepairPolicy = "strict") -> frozenset[Mention]:
    """Recover the mention set from per-token multilabels.

    Walks tokens left to right keeping an ordered list of open mentions.
    B-/U- components open/emit mentions; each I-/L- component is matched to
    the first open mention of its type not yet matched at the current token;
    L- closes the match.

    Under ``strict``, an orphan I-/L- (nothing to match) or a mention still
    open at sentence end raises :class:`DecodeError`. Under ``repair`` an
    orphan opens a new mention at the current token (L- also closes it) and
    mentions still open at sentence end are closed at the last token.
    """
    if policy not in ("strict", "repair"):
        raise ValueError(f"unknown decode policy: {policy!r}")
    strict = policy == "strict"
    # open mentions in opening order, each [type, start, last token matched
    # at]; a mention opened at token t counts as matched at t, so no later
    # component of t continues it, and a closed one's type becomes None
    open_mentions: list[list] = []
    found: set[Mention] = set()
    for t, label in enumerate(encoded.labels):
        components = label.components
        if not components:  # outside every mention: nothing opens or closes
            continue
        closed = False
        for component in components:
            tag, entity_type = component.tag, component.entity_type
            if tag == "U":
                found.add(_mention(entity_type, t, t + 1))
            elif tag == "B":
                open_mentions.append([entity_type, t, t])
            else:  # I or L continue the first open mention of its type not matched at t
                for entry in open_mentions:
                    if entry[0] == entity_type and entry[2] != t:
                        entry[2] = t
                        if tag == "L":
                            found.add(_mention(entity_type, entry[1], t + 1))
                            entry[0] = None
                            closed = True
                        break
                else:
                    if strict:
                        raise DecodeError(t, str(component), "no open mention to continue")
                    if tag == "L":
                        found.add(_mention(entity_type, t, t + 1))
                    else:
                        open_mentions.append([entity_type, t, t])
        if closed:
            open_mentions = [entry for entry in open_mentions if entry[0] is not None]
    if open_mentions:
        if strict:
            entity_type, start, _ = open_mentions[0]
            raise DecodeError(start, f"B-{entity_type}", "mention still open at sentence end")
        for entity_type, start, _ in open_mentions:
            found.add(_mention(entity_type, start, encoded.length))
    return frozenset(found)


def flatten(encoded: EncodedSentence) -> tuple[str, ...]:
    """Flat component stream: each token's components in priority order, then <eow>."""
    stream: list[str] = []
    for label in encoded.labels:
        stream.extend(c.text for c in label.components)
        stream.append(EOW)
    return tuple(stream)


def unflatten(stream: Iterable[str], length: int) -> EncodedSentence:
    """Inverse of :func:`flatten`; ``stream`` must contain exactly ``length`` <eow>."""
    labels: list[Multilabel] = []
    pending: list[LabelComponent] = []
    for symbol in stream:
        if symbol == EOW:
            labels.append(Multilabel(tuple(pending)))
            pending = []
        else:
            pending.append(LabelComponent.parse(symbol))
    if pending:
        raise ComponentStreamError(
            f"stream has {len(pending)} trailing component(s) after the last {EOW}"
        )
    if len(labels) != length:
        raise ComponentStreamError(
            f"stream has {len(labels)} {EOW} marker(s), expected {length}"
        )
    return EncodedSentence(tuple(labels))


def _typed_spans(length: int, n_types: int) -> tuple[tuple[Token, ...], list[tuple[str, int, int]]]:
    """Tokens of a ``length``-token sentence and every (type, start, end) over them."""
    types = [chr(ord("A") + i) for i in range(n_types)]
    tokens = tuple(Token(f"w{i}") for i in range(length))
    spans = [(s, e) for s in range(length) for e in range(s + 1, length + 1)]
    return tokens, [(t, s, e) for s, e in spans for t in types]


def enumerate_nested_sentences(
    max_len: int,
    n_types: int = 2,
    max_mentions: int = 4,
) -> Iterator[Sentence]:
    """Every sentence of length <= max_len whose mentions are disjoint-or-nested.

    Mentions draw from ``n_types`` entity types over all spans of the
    sentence; mention sets of size 0 through ``max_mentions`` are produced.
    Exhaustive by construction, so suitable as a round-trip oracle. Each
    setting must be >= 1, so the check is never vacuous; a smaller one raises
    ``ValueError`` naming it.
    """
    for name, value in (("max_len", max_len), ("n_types", n_types), ("max_mentions", max_mentions)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    for length in range(1, max_len + 1):
        tokens, typed = _typed_spans(length, n_types)
        for size in range(0, max_mentions + 1):
            for combo in itertools.combinations(typed, size):
                if _spans_cross((s, e) for _, s, e in combo):
                    continue
                mentions = frozenset(Mention(t, Span(s, e)) for t, s, e in combo)
                yield Sentence(tokens, mentions)


def enumerate_crossing_pairs(length: int, n_types: int = 2) -> Iterator[Sentence]:
    """Every sentence of ``length`` tokens holding one partially crossing pair
    of mentions, drawn from ``n_types`` types over all spans. Such pairs are
    encodable but outside the round-trip guarantee."""
    tokens, typed = _typed_spans(length, n_types)
    for combo in itertools.combinations(typed, 2):
        mentions = frozenset(Mention(t, Span(s, e)) for t, s, e in combo)
        if contains_partial_crossing(mentions):
            yield Sentence(tokens, mentions)
