"""Byte-level pins of what the codec and corpus I/O write.

Each test writes a seeded corpus through a public writer or command and
compares the sha256 of the bytes with a digest recorded from an earlier
version of the code, so a rewrite of ``core``, ``codec``, ``corpus`` or
``metrics`` that changes a single output byte fails here.
"""

import hashlib

import numpy as np
import pytest

import synthgrammar
from nestner import codec
from nestner.cli import main
from nestner.corpus import TaggedCorpus, read_conll, write_conll, write_spans

DIGESTS = {
    "synth.conll": "66417c41971f3aef35cf26d974b777ef9edb3c709b5c332e0e24d43926ca2c00",
    "synth.spans": "be634a9a1ffce4f73605721b9e49a8d8a42aa9677d705100e4b2733994f07675",
    "enumerated.conll": "60d365befa93cfa5e573bf6f2d8167dc6e23bb317843190fc078327225737264",
    "enumerated.spans": "d4638955931b31b41eff364af2d56388502213d6acdd76b73b07f37f6a4c6148",
    "repaired.spans": "7e89346322b16f3e2ce1acac1af9b9d8086487e4f79bf8c9ab58c924fb7e19b3",
    "evaluate.jsonl": "5036515ddc3e63aae5c48b92b01c8f46977249458a4802af95b40a1f020164ed",
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
