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
        return [str(label) for label in self.labels]

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
    return _spans_cross((m.span.start, m.span.end) for m in mentions)


def _spans_cross(spans: Iterable[tuple[int, int]]) -> bool:
    """True if two of the half-open ``(start, end)`` spans partially cross.

    One sweep over the spans sorted by start, longer first among equal
    starts, so O(m log m) for m spans. A stack holds the ends of the spans
    still open at the current start; while no crossing has been seen they
    form a nested chain, innermost (smallest end) on top. A span crosses one
    of them iff it ends after the top's end: the top then starts earlier (an
    equal start would end no earlier) and ends inside it.
    """
    open_ends: list[int] = []
    for start, neg_end in sorted((start, -end) for start, end in spans):
        while open_ends and open_ends[-1] <= start:
            open_ends.pop()
        if open_ends and open_ends[-1] < -neg_end:
            return True
        open_ends.append(-neg_end)
    return False


def encode(sentence: Sentence) -> EncodedSentence:
    """Per-token multilabels for a sentence's mention set.

    Components of each token are listed in mention priority order (earlier
    start first, then longer span, then lexicographic type). Each distinct
    (tag, type) component is built once per sentence and shared.
    """
    if contains_partial_crossing(sentence.mentions):
        log.warning(
            "mention set contains partially crossing spans; encoding is not "
            "guaranteed to round-trip"
        )
    components: list[list[LabelComponent]] = [[] for _ in sentence.tokens]
    made: dict[tuple[str, str], LabelComponent] = {}
    for mention in sorted(sentence.mentions, key=mention_sort_key):
        start, end = mention.span.start, mention.span.end
        for t in range(start, end):
            if end - start == 1:
                tag = "U"
            elif t == start:
                tag = "B"
            elif t == end - 1:
                tag = "L"
            else:
                tag = "I"
            key = (tag, mention.entity_type)
            component = made.get(key)
            if component is None:
                component = made[key] = LabelComponent(*key)
            components[t].append(component)
    return EncodedSentence(tuple(Multilabel(tuple(c)) for c in components))


class _Open:
    __slots__ = ("entity_type", "start")

    def __init__(self, entity_type: str, start: int):
        self.entity_type = entity_type
        self.start = start


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
    open_mentions: list[_Open] = []
    found: set[Mention] = set()
    for t, label in enumerate(encoded.labels):
        matched: set[int] = set()
        closed: set[int] = set()
        opened_here: list[_Open] = []
        for component in label.components:
            tag, entity_type = component.tag, component.entity_type
            if tag == "U":
                found.add(Mention(entity_type, Span(t, t + 1)))
            elif tag == "B":
                opened_here.append(_Open(entity_type, t))
            else:  # I or L continue an open mention of the same type
                target = None
                for i, open_mention in enumerate(open_mentions):
                    if i not in matched and open_mention.entity_type == entity_type:
                        target = i
                        break
                if target is None:
                    if policy == "strict":
                        raise DecodeError(t, str(component), "no open mention to continue")
                    if tag == "L":
                        found.add(Mention(entity_type, Span(t, t + 1)))
                    else:
                        opened_here.append(_Open(entity_type, t))
                else:
                    matched.add(target)
                    if tag == "L":
                        open_mention = open_mentions[target]
                        found.add(Mention(entity_type, Span(open_mention.start, t + 1)))
                        closed.add(target)
        if closed:
            open_mentions = [m for i, m in enumerate(open_mentions) if i not in closed]
        open_mentions.extend(opened_here)
    if open_mentions:
        if policy == "strict":
            unterminated = open_mentions[0]
            raise DecodeError(
                unterminated.start,
                f"B-{unterminated.entity_type}",
                "mention still open at sentence end",
            )
        for open_mention in open_mentions:
            found.add(Mention(open_mention.entity_type, Span(open_mention.start, encoded.length)))
    return frozenset(found)


def flatten(encoded: EncodedSentence) -> tuple[str, ...]:
    """Flat component stream: each token's components in priority order, then <eow>."""
    stream: list[str] = []
    for label in encoded.labels:
        stream.extend(str(c) for c in label.components)
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
