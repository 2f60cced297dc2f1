import json
import zipfile

import pytest

from nestner.core import LabelComponent, Mention, Multilabel, Sentence, Span, Token

# Nested court sentence: an ORG stretching over three GPEs, the standard
# worked example for the encoding.
COURT_FORMS = ("in", "the", "US", "Federal", "District", "Court", "of", "New", "Mexico", ".")
COURT_MENTIONS = frozenset(
    {
        Mention("ORG", Span(1, 9)),
        Mention("GPE", Span(2, 3)),
        Mention("GPE", Span(4, 5)),
        Mention("GPE", Span(7, 9)),
    }
)
COURT_LABELS = (
    "O",
    "B-ORG",
    "I-ORG|U-GPE",
    "I-ORG",
    "I-ORG|U-GPE",
    "I-ORG",
    "I-ORG",
    "I-ORG|B-GPE",
    "L-ORG|L-GPE",
    "O",
)


def mention(entity_type: str, start: int, end: int) -> Mention:
    return Mention(entity_type, Span(start, end))


@pytest.fixture
def court_sentence() -> Sentence:
    return Sentence(tuple(Token(f) for f in COURT_FORMS), COURT_MENTIONS)


@pytest.fixture
def court_conll_text() -> str:
    return "".join(f"{f}\t{l}\n" for f, l in zip(COURT_FORMS, COURT_LABELS))


@pytest.fixture
def labels_built(monkeypatch) -> list:
    """Every ``LabelComponent`` and ``Multilabel`` built while the test runs,
    in the order they were built."""
    built = []
    for cls in (LabelComponent, Multilabel):

        def counting(self, original=cls.__post_init__):
            original(self)
            built.append(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return built


# ------------------------------------------------------------- checkpoints


def rewrite_checkpoint(path, damage) -> None:
    """Rewrite the format-v3 checkpoint at ``path`` after
    ``damage(envelope, members)``, which edits in place the parsed
    ``envelope.json`` and ``members``, the bytes of every other member by
    name (``"parameters.f32"`` holds every parameter's float32 values).
    Bytes that ``damage`` puts under ``"envelope.json"`` are written in
    place of the envelope."""
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    envelope = json.loads(members.pop("envelope.json"))
    damage(envelope, members)
    raw_envelope = members.pop("envelope.json", None) or json.dumps(envelope).encode("utf-8")
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("envelope.json", raw_envelope)
        for name, data in members.items():
            archive.writestr(name, data)


def set_label(key, value, index=-1):
    """A checkpoint damage that puts ``value`` in place of string ``index``
    of the envelope's alphabet ``key`` ("labels" or "components")."""

    def damage(envelope, members):
        envelope["alphabets"][key][index] = value

    return damage
