"""Shared domain types: tokens, spans, mentions, label components, multilabels.

Label string grammar (bit-exact):

    multilabel := "O" | component ("|" component)*
    component  := ("B"|"I"|"L"|"U") "-" type
    type       := [^|\\s]+

"O" marks a token outside every mention and is never a component of a
larger multilabel. All types here are immutable values after construction.
``Span`` and ``Mention`` are tuple-backed: a ``Span`` is the tuple
``(start, end)`` and a ``Mention`` the tuple ``(entity_type, span)``, so
they are built, hashed, compared and ordered as tuples (in C) and equal the
plain tuples with the same items. Their constructors check their values.
Label components and multilabels carry their label text, formatted once.
The package builds them only in its label table, which ``LabelComponent.parse``,
``Multilabel.parse`` and ``Multilabel.from_keys`` read.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import NamedTuple

COMPONENT_TAGS = ("B", "I", "L", "U")
OUTSIDE = "O"

_WHITESPACE = re.compile(r"\s")


class NestnerError(Exception):
    """Base class for errors raised by this package."""


class LabelParseError(NestnerError, ValueError):
    """A label string does not follow the multilabel grammar."""


def _check_entity_type_uncached(entity_type: str) -> None:
    if not entity_type:
        raise ValueError("entity type must be non-empty")
    if "|" in entity_type or _WHITESPACE.search(entity_type):
        raise ValueError(f"entity type may not contain '|' or whitespace: {entity_type!r}")
    if entity_type.startswith("-"):
        raise ValueError(f"entity type may not start with '-': {entity_type!r}")


# a corpus has a handful of entity types and every mention and component
# names one, so each distinct valid ``str`` is checked once; a check that
# raises is not cached, so an invalid type raises on every call
_check_entity_type_memo = functools.lru_cache(maxsize=1024)(_check_entity_type_uncached)


def _check_entity_type(entity_type: str) -> None:
    """Raise ``ValueError`` unless ``entity_type`` follows the label grammar.
    Only exact ``str`` values go through the memo: any other value, such as a
    ``str`` subclass or a non-string, is checked in full every time."""
    if type(entity_type) is str:
        _check_entity_type_memo(entity_type)
    else:
        _check_entity_type_uncached(entity_type)


@dataclass(frozen=True)
class Token:
    form: str
    lemma: str | None = None
    pos: str | None = None

    def __post_init__(self) -> None:
        if not self.form or _WHITESPACE.search(self.form):
            raise ValueError(f"token form must be non-empty and whitespace-free: {self.form!r}")


class _SpanFields(NamedTuple):
    start: int
    end: int


class Span(_SpanFields):
    """Half-open token range: ``start`` inclusive, ``end`` exclusive; the
    tuple ``(start, end)``, whose order is the spans' order."""

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> "Span":
        if not 0 <= start < end:
            raise ValueError(f"invalid span: need 0 <= start < end, got ({start}, {end})")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def _make(cls, iterable) -> "Span":  # and so ``_replace``: through the check
        return cls(*iterable)

    def __getnewargs__(self) -> tuple[int, int]:
        # tuple(self) would size its result by len(), the span's length
        return (self.start, self.end)

    def __len__(self) -> int:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end


class _MentionFields(NamedTuple):
    entity_type: str
    span: Span


class Mention(_MentionFields):
    """A typed token span, e.g. ``Mention("ORG", Span(1, 9))``; the tuple
    ``(entity_type, span)``."""

    __slots__ = ()

    def __new__(cls, entity_type: str, span: Span) -> "Mention":
        _check_entity_type(entity_type)
        return tuple.__new__(cls, (entity_type, span))

    @classmethod
    def _make(cls, iterable) -> "Mention":  # and so ``_replace``: through the check
        return cls(*iterable)

    @property
    def start(self) -> int:
        return self.span.start

    @property
    def end(self) -> int:
        return self.span.end


def mention_sort_key(mention: Mention) -> tuple[int, int, str]:
    """Sort key realizing mention priority.

    Mentions starting earlier come first; among equal starts the longer one
    comes first. Equal spans of different types are ordered lexicographically
    by type, which keeps the encoding deterministic.
    """
    entity_type, (start, end) = mention
    return (start, -end, entity_type)


def mention_precedes(a: Mention, b: Mention) -> bool:
    """True iff ``a`` has strictly higher priority than ``b``."""
    return mention_sort_key(a) < mention_sort_key(b)


# The label table. Every LabelComponent and Multilabel this package makes is
# made here, once per process while it stays among the most recently used: a
# corpus has a few entity types and a few hundred distinct multilabels.
# ``encode`` finds a multilabel by its components' ``(tag, type)`` keys and
# the parsers by its text, and both reach the same objects. A label that
# fails to parse is never stored, so it raises on every call.


@functools.lru_cache(maxsize=1024)
def _component(text: str) -> LabelComponent:
    """The component ``text`` spells, e.g. ``I-ORG``, from the label table;
    a malformed one is a :class:`LabelParseError`."""
    if text == OUTSIDE:
        raise LabelParseError(f"'O' is a full label, not a component: {text!r}")
    tag, sep, entity_type = text.partition("-")
    if not sep or tag not in COMPONENT_TAGS:
        raise LabelParseError(f"malformed component (want B-/I-/L-/U- prefix): {text!r}")
    if not entity_type:
        raise LabelParseError(f"component has empty entity type: {text!r}")
    try:
        return LabelComponent(tag, entity_type)
    except ValueError as exc:
        raise LabelParseError(f"bad component {text!r}: {exc}") from exc


@functools.lru_cache(maxsize=4096)
def _multilabel(keys: tuple[tuple[str, str], ...]) -> Multilabel:
    """The multilabel of the components with these ``(tag, type)`` keys,
    e.g. ``(("I", "ORG"), ("U", "GPE"))``, from the label table."""
    return Multilabel(tuple(_component(f"{tag}-{entity_type}") for tag, entity_type in keys))


@functools.lru_cache(maxsize=4096)
def _parsed_multilabel(text: str) -> Multilabel:
    """The multilabel ``text`` spells, e.g. ``I-ORG|U-GPE`` or ``O``; a
    malformed one is a :class:`LabelParseError`.

    The result comes from the label table: it is the object that parsing the
    same text, or encoding the same components, gives for as long as the
    table holds it. The table outlives every call and holds up to 4,096
    multilabels and 1,024 components, the most recently used.
    """
    if text == OUTSIDE:
        return _multilabel(())
    if not text:
        raise LabelParseError("empty label string")
    parts = text.split("|")
    if any(not p for p in parts):
        raise LabelParseError(f"stray '|' in label: {text!r}")
    return _multilabel(tuple((c.tag, c.entity_type) for c in map(_component, parts)))


@dataclass(frozen=True)
class LabelComponent:
    """One BILOU component of a multilabel, e.g. ``I-ORG``; ``text`` is its
    label text, formatted once."""

    tag: str
    entity_type: str
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tag not in COMPONENT_TAGS:
            raise ValueError(f"component tag must be one of {COMPONENT_TAGS}, got {self.tag!r}")
        _check_entity_type(self.entity_type)
        object.__setattr__(self, "text", f"{self.tag}-{self.entity_type}")

    def __str__(self) -> str:
        return self.text

    parse = staticmethod(_component)


@dataclass(frozen=True)
class Multilabel:
    """Priority-ordered BILOU components for one token; empty means outside.
    ``text`` is its label text, formatted once."""

    components: tuple[LabelComponent, ...] = ()
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        components = tuple(self.components)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "text", "|".join(map(str, components)) or OUTSIDE)

    @property
    def is_outside(self) -> bool:
        return not self.components

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        return self.text

    parse = staticmethod(_parsed_multilabel)
    from_keys = staticmethod(_multilabel)


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    mentions: frozenset[Mention] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "mentions", frozenset(self.mentions))
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")
        for m in self.mentions:
            if m.span.end > len(self.tokens):
                raise ValueError(
                    f"mention {m.entity_type}({m.span.start},{m.span.end}) "
                    f"exceeds sentence length {len(self.tokens)}"
                )

    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]


@dataclass
class LabelAlphabet:
    """Bidirectional map between label strings and dense ids.

    Id 0 is the reserved symbol ("O" for multilabel alphabets, "<eow>" for
    component alphabets). Looking up a string the alphabet does not hold is
    an error: a model predicts only over the labels it was built with.
    """

    strings: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.strings = tuple(self.strings)
        if not self.strings:
            raise ValueError("alphabet needs at least the reserved symbol")
        self.index = {s: i for i, s in enumerate(self.strings)}
        if len(self.index) != len(self.strings):
            raise ValueError("alphabet strings must be distinct")

    @property
    def reserved(self) -> str:
        return self.strings[0]

    def __len__(self) -> int:
        return len(self.strings)

    def id_of(self, label: str) -> int:
        """Dense id of ``label``; a label outside the alphabet is a :class:`NestnerError`."""
        try:
            return self.index[label]
        except KeyError:
            raise NestnerError(f"label {label!r} is not in the model's alphabet") from None

    def string_of(self, idx: int) -> str:
        return self.strings[idx]


def build_alphabet(labels, reserved: str = OUTSIDE) -> LabelAlphabet:
    """Alphabet with the reserved symbol at id 0, then first-occurrence order."""
    strings = [reserved]
    seen = {reserved}
    for label in labels:
        if label not in seen:
            seen.add(label)
            strings.append(label)
    return LabelAlphabet(tuple(strings))
