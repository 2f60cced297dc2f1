"""Byte-level pins of what the codec and corpus I/O write, and of the
parameters a fresh model draws.

Each test writes a seeded corpus through a public writer or command, or
builds a seeded model, and compares the sha256 of the bytes with a digest
recorded from an earlier version of the code, so a rewrite of ``core``,
``codec``, ``corpus`` or ``metrics`` that changes a single output byte, or
of the models that changes a single drawn value or the order of the draws,
fails here.
"""

import hashlib

import numpy as np
import pytest

import synthgrammar
from nestner import codec, training
from nestner.cli import main
from nestner.core import Sentence, Token
from nestner.corpus import TaggedCorpus, read_conll, write_conll, write_spans
from nestner.embeddings import EmbeddingConfig, PretrainedTable

DIGESTS = {
    "synth.conll": "66417c41971f3aef35cf26d974b777ef9edb3c709b5c332e0e24d43926ca2c00",
    "synth.spans": "be634a9a1ffce4f73605721b9e49a8d8a42aa9677d705100e4b2733994f07675",
    "enumerated.conll": "60d365befa93cfa5e573bf6f2d8167dc6e23bb317843190fc078327225737264",
    "enumerated.spans": "d4638955931b31b41eff364af2d56388502213d6acdd76b73b07f37f6a4c6148",
    "repaired.spans": "7e89346322b16f3e2ce1acac1af9b9d8086487e4f79bf8c9ab58c924fb7e19b3",
    "evaluate.jsonl": "5036515ddc3e63aae5c48b92b01c8f46977249458a4802af95b40a1f020164ed",
    "crf.float64": "c00913bc17cb072ade70813a27bf6006d17e7868759ee7f36b586ca228de6309",
    "crf.float32": "e3a41687d1a94266b0bbd26d56f2b762c79086b98d74d64f6cbd03bb476dda65",
    "seq2seq.float64": "b462f9d9324a9d625b77ca917bed498a569d3c32ea80eee67c494af7bef4a50b",
    "seq2seq.float32": "55869ad68b6e243e48c698dcc033f2df26c7a9f36ef61960b17e7474776e5cca",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def synth_corpus() -> TaggedCorpus:
    return synthgrammar.generate(120, seed=7)


def enumerated_corpus() -> TaggedCorpus:
    """Every disjoint-or-nested set of up to 3 mentions of 3 types over
    sentences of up to 3 tokens."""
    return TaggedCorpus(tuple(codec.enumerate_nested_sentences(3, n_types=3, max_mentions=3)))


def perturbed_labels(path, seed: int = 9) -> str:
    """The label file at ``path`` with a third of its sentences damaged the
    way raw model output can be: one component dropped or its tag changed."""
    rng = np.random.default_rng(seed)
    swap = {"B": "I", "I": "B", "L": "B", "U": "L"}
    blocks = []
    for block in path.read_text(encoding="utf-8").split("\n\n"):
        lines = [line.split("\t") for line in block.strip("\n").split("\n")]
        labelled = [i for i, (_, label) in enumerate(lines) if label != "O"]
        if labelled and rng.random() < 1 / 3:
            i = labelled[int(rng.integers(len(labelled)))]
            parts = lines[i][1].split("|")
            j = int(rng.integers(len(parts)))
            if rng.random() < 0.5:
                del parts[j]
            else:
                parts[j] = swap[parts[j][0]] + parts[j][1:]
            lines[i][1] = "|".join(parts) or "O"
        blocks.append("".join(f"{form}\t{label}\n" for form, label in lines))
    return "\n".join(blocks)


@pytest.mark.parametrize("name,make", [("synth", synth_corpus), ("enumerated", enumerated_corpus)])
def test_writers(tmp_path, name, make):
    corpus = make()
    write_conll(corpus, tmp_path / "out.conll")
    write_spans(corpus, tmp_path / "out.spans")
    assert sha256((tmp_path / "out.conll").read_bytes()) == DIGESTS[f"{name}.conll"]
    assert sha256((tmp_path / "out.spans").read_bytes()) == DIGESTS[f"{name}.spans"]


@pytest.fixture
def gold_and_perturbed(tmp_path):
    gold = tmp_path / "gold.conll"
    write_conll(synth_corpus(), gold)
    perturbed = tmp_path / "perturbed.conll"
    perturbed.write_text(perturbed_labels(gold), encoding="utf-8")
    return gold, perturbed


def test_repair_read(tmp_path, gold_and_perturbed):
    _, perturbed = gold_and_perturbed
    write_spans(read_conll(perturbed, policy="repair"), tmp_path / "repaired.spans")
    assert sha256((tmp_path / "repaired.spans").read_bytes()) == DIGESTS["repaired.spans"]


def test_evaluate_json(gold_and_perturbed, capsys):
    gold, perturbed = gold_and_perturbed
    argv = ["evaluate", "--gold", str(gold), "--pred", str(perturbed), "--pred-policy", "repair"]
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert '"type": "ALL"' in out and '"f1": 1.0' not in out.splitlines()[0]
    assert sha256(out.encode("utf-8")) == DIGESTS["evaluate.jsonl"]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kind", ["crf", "seq2seq"])
def test_build_model_draws(kind, dtype):
    """Every parameter's name, dtype and bytes, in order, as ``build_model``
    draws them with every token-vector source on."""
    corpus = TaggedCorpus(tuple(
        Sentence(
            tuple(Token(t.form, lemma=t.form[:3], pos="C" if t.form in synthgrammar.CITIES else "W")
                  for t in s.tokens),
            s.mentions,
        )
        for s in synthgrammar.generate(12, seed=5).sentences
    ))
    words = ["north", "calder", "council", "the"]
    pretrained = PretrainedTable(
        {w: i for i, w in enumerate(words)},
        np.random.default_rng(2).standard_normal((len(words), 3)),
    )
    embedding = EmbeddingConfig(
        pretrained_dim=3, trainable_dim=5, lemma_dim=4, char_dim=3, char_rnn_dim=2,
        use_pos_onehot=True, contextual_dim=2,
    )
    model = training.build_model(
        kind, corpus, embedding=embedding, hidden_dim=4, decoder_dim=5, label_embed_dim=3,
        pretrained=pretrained, seed=13, dtype=dtype,
    )
    digest = hashlib.sha256()
    for name, arr in model.params.items():
        digest.update(f"{name} {arr.dtype.str} {arr.shape}".encode("utf-8"))
        digest.update(arr.tobytes())
    assert digest.hexdigest() == DIGESTS[f"{kind}.{dtype}"]
