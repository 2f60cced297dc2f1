"""The text readers on arbitrary bytes, and on valid files with bytes flipped
or cut off: each read gives a result or a ``NestnerError`` whose message
starts with the file's path."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import synthgrammar
from nestner.core import NestnerError
from nestner.corpus import read_conll, read_contextual, read_spans, write_conll, write_spans
from nestner.embeddings import load_pretrained

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

READERS = {
    "conll-bilou-strict": read_conll,
    "conll-bilou-repair": lambda p: read_conll(p, policy="repair"),
    "conll-bio-strict": lambda p: read_conll(p, scheme="bio"),
    "conll-bio-repair": lambda p: read_conll(p, scheme="bio", policy="repair"),
    "conll-four-columns": lambda p: read_conll(p, columns="form,lemma,pos,label"),
    "spans": read_spans,
    "contextual": read_contextual,
    "pretrained": load_pretrained,
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file per reader, as bytes, plain and behind a UTF-8 byte
    order mark, by (reader, with mark); each reads without error."""
    directory = tmp_path_factory.mktemp("valid")
    corpus = synthgrammar.generate(3, seed=5)
    write_conll(corpus, directory / "nested.conll")
    write_spans(corpus, directory / "nested.spans")
    conll = (directory / "nested.conll").read_bytes()
    bio = "a\tB-PER\nb\tI-PER\nc\tO\n\nd\tB-ORG\né\tB-PER\n".encode("utf-8")
    files = {
        "conll-bilou-strict": conll,
        "conll-bilou-repair": conll,
        "conll-bio-strict": bio,
        "conll-bio-repair": bio,
        "conll-four-columns": b"Court\tcourt\tNNP\tU-ORG\nof\t_\tIN\tO\n\nx\tx\tNN\tO\n",
        "spans": (directory / "nested.spans").read_bytes(),
        "contextual": b"0.5 -1e3\n2 3\n\n4.25 5\n",
        "pretrained": b"2 2\ncourt 0.1 0.2\nof -3 4e-2\n",
    }
    marked = {}
    for reader, data in files.items():
        for bom, content in ((False, data), (True, b"\xef\xbb\xbf" + data)):
            path = directory / f"{reader}-{bom}"
            path.write_bytes(content)
            READERS[reader](path)
            marked[reader, bom] = content
    return marked


def check(reader, path):
    try:
        READERS[reader](path)
    except NestnerError as exc:
        assert str(exc).startswith(str(path)), str(exc)


@FUZZ
@given(
    data=st.binary(max_size=120)
    | st.text(alphabet="\t\n\r |-;_0123456789BILUOXé\x85", max_size=80).map(str.encode)
)
def test_arbitrary_bytes(tmp_path, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    for reader in READERS:
        check(reader, path)


@FUZZ
@given(
    reader=st.sampled_from(sorted(READERS)),
    bom=st.booleans(),
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
    cut=st.none() | st.integers(0, 10**6),
)
def test_valid_files_with_flipped_or_cut_bytes(tmp_path, valid, reader, bom, flips, cut):
    data = bytearray(valid[reader, bom])
    for position, value in flips:
        data[position % len(data)] = value
    if cut is not None:
        data = data[: cut % (len(data) + 1)]
    path = tmp_path / "input.txt"
    path.write_bytes(bytes(data))
    check(reader, path)
