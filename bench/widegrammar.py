"""Seeded generator of wide, deeply nested corpora for the ``nested-wide`` workload.

Sentences hold 15 to 40 tokens. Seven ACE-style entity types (PER, ORG,
GPE, LOC, FAC, VEH, WEA) nest up to depth 4, as in "minister of north
calder council" (a PER over an ORG over two GPEs). Filler words come from a
Zipf-distributed vocabulary of about 8k pseudo-words. Every label follows
from the surface words: names come from per-type lexicons with their own
spelling patterns, and each construction has fixed head words, so a model
can learn the labels from the forms and characters.

The lexicons are built from a fixed internal seed, so every workload seed
shares one "language"; the workload seed only drives which sentences are
drawn from it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from nestner.core import Mention, Sentence, Span, Token

MIN_LEN = 15
MAX_LEN = 40
FILLER_FORMS = 8000
ZIPF_EXPONENT = 1.1
_LEXICON_SEED = 20190823

ENTITY_TYPES = ("PER", "ORG", "GPE", "LOC", "FAC", "VEH", "WEA")
MAX_DEPTH = 4
FILLER_SHARE = 0.4
WRAP_PROBABILITY = 0.6
PAIR_PROBABILITY = 0.25

# Name lexicon size and spelling patterns of each type.
NAME_LEXICONS = {
    "PER": (600, ("son", "ez", "ski", "berg", "ina", "us")),
    "ORG": (200, ("corp", "tex", "com")),
    "GPE": (300, ("ford", "ton", "ham", "wick", "by")),
    "LOC": (150, ("mere", "dale", "moor")),
    "FAC": (150, ("hall", "gate", "yard")),
    "VEH": (120, ("x", "zor", "jet")),
    "WEA": (120, ("ite", "ax", "mk")),
}
# Which types a construction of each type may wrap, and its head words.
INNER_TYPES = {
    "PER": ("ORG", "GPE", "FAC"),
    "ORG": ("GPE", "PER", "LOC", "ORG"),
    "GPE": ("GPE", "LOC"),
    "LOC": ("GPE", "PER"),
    "FAC": ("PER", "GPE", "ORG"),
    "VEH": ("ORG", "PER"),
    "WEA": ("ORG", "GPE"),
}
PREFIXES = {
    "PER": (
        ("minister", "of"), ("president", "of"), ("mayor", "of"), ("director", "of"), (),
    ),
    "ORG": (("the", "council", "of"), ("bank", "of"), ("the", "ministry", "of"), ()),
    "GPE": (("north",), ("south",), ("east",), ("west",), ("upper",)),
    "LOC": (("river",), ("mount",), ("lake",), ()),
    "FAC": (("the",), ()),
    "VEH": ((), ("the",)),
    "WEA": ((),),
}
SUFFIXES = {
    "PER": ((),),
    "ORG": (("council",), ("party",), ("agency",), ("union",), ()),
    "GPE": ((), ("province",), ("district",)),
    "LOC": (("valley",), ("basin",), ()),
    "FAC": (("airport",), ("bridge",), ("stadium",), ("station",), ("tower",)),
    "VEH": (("sedan",), ("frigate",), ("tractor",)),
    "WEA": (("rifle",), ("missile",), ("cannon",)),
}
FUNCTION_WORDS = ("of", "the", "and") + tuple(
    word
    for table in (PREFIXES, SUFFIXES)
    for options in table.values()
    for option in options
    for word in option
)

_ONSETS = (
    "b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
    "br", "dr", "st", "tr", "gl", "pl",
)
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")


def _pseudo_words(
    rng: np.random.Generator,
    n: int,
    suffixes: tuple[str, ...],
    syllables: tuple[int, int],
    taken: set[str],
) -> tuple[str, ...]:
    """``n`` new words of ``syllables`` consonant-vowel syllables plus a suffix."""
    words: list[str] = []
    while len(words) < n:
        k = int(rng.integers(syllables[0], syllables[1] + 1))
        stem = "".join(
            _ONSETS[int(rng.integers(len(_ONSETS)))] + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(k)
        )
        word = stem + suffixes[int(rng.integers(len(suffixes)))]
        if word not in taken:
            taken.add(word)
            words.append(word)
    return tuple(words)


class WideGrammar:
    """The fixed lexicons plus the seeded sentence sampler."""

    def __init__(self) -> None:
        rng = np.random.default_rng(_LEXICON_SEED)
        taken = set(FUNCTION_WORDS)
        self.names = {
            entity_type: _pseudo_words(rng, count, suffixes, (1, 2), taken)
            for entity_type, (count, suffixes) in NAME_LEXICONS.items()
        }
        # frequent words are short, as in natural text
        self.filler = tuple(sorted(
            _pseudo_words(rng, FILLER_FORMS, ("", "s", "ed", "ing", "ly", "er"), (1, 3), taken),
            key=len,
        ))
        weights = np.arange(1, FILLER_FORMS + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self._filler_cdf = np.cumsum(weights / weights.sum())

    # An entity is a name from its type's lexicon or a construction of head
    # words around one or two inner entities. Each returns its words and its
    # mentions as (type, start, end) relative to its first word.

    def _name(self, rng, entity_type):
        lexicon = self.names[entity_type]
        n_words = 1 + int(rng.random() < 0.35) + int(rng.random() < 0.1)
        words = [_pick(rng, lexicon) for _ in range(n_words)]
        return words, [(entity_type, 0, n_words)]

    def _entity(self, rng, depth: int, types=ENTITY_TYPES):
        entity_type = _pick(rng, types)
        if depth >= MAX_DEPTH or rng.random() >= WRAP_PROBABILITY:
            return self._name(rng, entity_type)
        inner_types = INNER_TYPES[entity_type]
        prefix = list(_pick(rng, PREFIXES[entity_type]))
        suffix = list(_pick(rng, SUFFIXES[entity_type]))
        words, mentions = self._entity(rng, depth + 1, inner_types)
        if rng.random() < PAIR_PROBABILITY and len(words) < 4:
            more_words, more_mentions = self._entity(rng, depth + 1, inner_types)
            mentions = mentions + _shift(more_mentions, len(words) + 1)
            words = words + ["and"] + more_words
        mentions = _shift(mentions, len(prefix))
        words = prefix + words + suffix
        return words, [(entity_type, 0, len(words))] + mentions

    def _chunk(self, rng):
        if rng.random() < FILLER_SHARE:
            return [self._filler(rng)], []
        return self._entity(rng, 1)

    def _filler(self, rng) -> str:
        return self.filler[int(np.searchsorted(self._filler_cdf, rng.random()))]

    def sentence(self, rng: np.random.Generator) -> Sentence:
        target = int(rng.integers(MIN_LEN, MAX_LEN + 1))
        words: list[str] = []
        mentions: list[Mention] = []
        while len(words) < target:
            chunk_words, chunk_mentions = self._chunk(rng)
            if len(words) + len(chunk_words) > MAX_LEN:
                chunk_words, chunk_mentions = [self._filler(rng)], []
            base = len(words)
            words.extend(chunk_words)
            mentions.extend(Mention(t, Span(base + s, base + e)) for t, s, e in chunk_mentions)
        return Sentence(tuple(Token(w) for w in words), frozenset(mentions))

    def sentences(self, seed) -> Iterator[Sentence]:
        """An endless seeded stream of sentences."""
        rng = np.random.default_rng(seed)
        while True:
            yield self.sentence(rng)


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(len(items)))]


def _shift(mentions, offset: int):
    return [(t, s + offset, e + offset) for t, s, e in mentions]
