"""Tests of the benchmark itself: ``python -m pytest bench`` from the repository root."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import widegrammar  # noqa: E402
import workloads  # noqa: E402
from nestner import codec, training  # noqa: E402

TINY = workloads.Widths(embed=4, char=2, char_rnn=2, hidden=4, decoder=4, label=2)


def _tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(
        w, widths=TINY, train_lengths=w.train_lengths[:8], crf_alphabet=(1, 10**6),
        unit_decoder_steps=(0, 10**6),
        heldout_lengths=w.heldout_lengths[:3],
        codec_tokens=300,
    )


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_constructed_span_tree():
    # phase [0, 10] > a [1, 6] > b [2, 4]; phase > c [7, 9]
    tracer = tracing.Tracer(FakeClock([0, 1, 2, 4, 6, 7, 9, 10]))
    with tracer.phase("crf.train"):
        a = tracer.open("a")
        b = tracer.open("b")
        tracer.close(b)
        tracer.close(a)
        c = tracer.open("c")
        tracer.close(c)
    own = tracing.self_times(tracer.spans)
    by_name = {s.name: own[s.id] for s in tracer.spans}
    assert by_name == {"crf.train": 3, "a": 3, "b": 2, "c": 2}
    assert sum(own.values()) == tracer.phases[0].duration
    assert set(tracing.root_of(tracer.spans).values()) == {"crf.train"}


def test_spans_close_in_order_only():
    tracer = tracing.Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def _bindings() -> dict:
    """Every attribute a boundary patches, as (owner, attribute) -> object."""
    import importlib

    found = {}
    for module_name, path, _, _ in tracing.BOUNDARIES:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        found[(id(owner), attr)] = owner.__dict__[attr]
        if not outer:
            for key, module in sys.modules.items():
                if key.split(".")[0] == "nestner" and attr in vars(module):
                    found[(id(module), attr)] = vars(module)[attr]
    return found


def test_traced_run_restores_every_original(tmp_path):
    before = _bindings()
    run = workloads.Run(_tiny("nested-wide"), 3, tmp_path)
    values, detail = workloads.traced_run(run)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not run.problems and run.failed == 0
    assert values["crf.models.crf_nll.self_s"][0] > 0
    assert values["seq2seq.models.seq2seq_step.predict_calls_per_token"][0] >= 1
    assert values["crf.autodiff.tape_nodes_per_token"][0] > 0
    assert values["crf.autodiff.predict_tape_nodes_per_token"][0] > 0
    shares = [v for k, (v, _) in values.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0)
    assert set(values) == {m["name"] for m in _spec()["per_layer"]}


def test_install_restores_on_failure(monkeypatch):
    before = _bindings()

    def broken(tracer, name, original):
        raise RuntimeError("boom")

    boundaries = tracing.BOUNDARIES[:3] + (("nestner.codec", "encode", "x", broken),)
    monkeypatch.setattr(tracing, "BOUNDARIES", boundaries)
    with pytest.raises(RuntimeError):
        tracing.install(tracing.Tracer())
    monkeypatch.undo()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_wide_generator_is_deterministic_and_sized():
    w = workloads.WORKLOADS["nested-wide"]
    first = workloads.training_corpus(w, [7, 1])
    again = workloads.training_corpus(w, [7, 1])
    other = workloads.training_corpus(w, [8, 1])
    assert first == again
    assert first != other
    for corpus in (first, other):
        assert tuple(len(s.tokens) for s in corpus) == w.train_lengths
        low, high = w.crf_alphabet
        assert low <= len(training.multilabel_alphabet(corpus)) <= high
        low, high = w.unit_decoder_steps
        assert low <= workloads.decoder_steps(corpus.sentences[:workloads.BATCH]) <= high
    lengths = [len(s.tokens) for s in first]
    assert min(lengths) >= widegrammar.MIN_LEN and max(lengths) <= widegrammar.MAX_LEN
    depth = max(len(label) for s in first for label in codec.encode(s).labels)
    assert depth == widegrammar.MAX_DEPTH
    big = workloads.generate("wide", [7, 3], 20000)
    assert {m.entity_type for s in big for m in s.mentions} == set(widegrammar.ENTITY_TYPES)
    assert len({t.form for s in big for t in s.tokens}) > 2000


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    run = workloads.Run(_tiny(name), 5, tmp_path)
    values, samples = workloads.timed_run(run, seconds=0.01)
    assert not run.problems, run.problems
    assert run.failed == 0 and run.attempted > 0
    assert values == {m["name"]: (values[m["name"]][0], m["unit"])
                      for m in _spec()["end_to_end"]}
    assert all(v > 0 for v, _ in values.values())
    assert all(len(samples[name]) == workloads.MIN_UNITS for name in samples)


def test_failed_check_is_reported(tmp_path, monkeypatch):
    from nestner import corpus

    original = corpus.write_spans

    def lossy(corpus_, path, columns="form"):
        original(corpus_, path, columns)
        Path(path).write_text(Path(path).read_text()[:-2] + "\n")

    run = workloads.Run(_tiny("nested-wide"), 5, tmp_path)
    monkeypatch.setattr(corpus, "write_spans", lossy)
    run.roundtrip(workloads._no_phase)
    assert run.failed > 0
    assert any("byte for byte" in p for p in run.problems)


def test_inputs_follow_the_seed(tmp_path):
    made = {}
    for name, seed in (("a", 11), ("b", 11), ("c", 12)):
        (tmp_path / name).mkdir()
        made[name] = workloads.write_inputs(_tiny("paper-synth"), seed, tmp_path / name)
    a, b, c = made["a"], made["b"], made["c"]
    assert a.stats == b.stats
    assert a.stats["train"]["sha256"] != c.stats["train"]["sha256"]
    assert a.stats["train"]["crf_alphabet"] <= 8


def test_raising_unit_fails_the_run(tmp_path, monkeypatch):
    from nestner import corpus

    original = corpus.read_conll

    def strict_raises(path, *args, **kwargs):
        # only the strict re-reads name the policy
        if kwargs.get("policy") == "strict":
            raise codec.DecodeError(0, None, "injected")
        return original(path, *args, **kwargs)

    monkeypatch.setitem(workloads.WORKLOADS, "nested-wide", _tiny("nested-wide"))
    monkeypatch.setattr(corpus, "read_conll", strict_raises)
    record = workloads.run_workload("nested-wide", 5, 0.01, False, tmp_path)
    result = record["result"]
    assert result["correct"] is False
    assert result["failed"] > 0 and result["attempted"] >= result["failed"]
    assert any("injected" in p for p in record["problems"]), record["problems"]
