import json
import warnings

import numpy as np
import pytest

import synthgrammar
from conftest import COURT_MENTIONS, mention, rewrite_checkpoint, set_label
from nestner import codec, models, training
from nestner.cli import main
from nestner.core import Sentence, Token
from nestner.corpus import TaggedCorpus, read_conll, read_spans, write_conll, write_spans


def run(*argv):
    return main(list(argv))


@pytest.fixture
def court_span_file(tmp_path, court_sentence):
    path = tmp_path / "court.spans"
    write_spans(TaggedCorpus((court_sentence,)), path)
    return path


class TestEncodeDecode:
    def test_encode_matches_reference_labels_byte_exact(self, tmp_path, court_span_file, court_conll_text):
        out = tmp_path / "out.conll"
        assert run("encode", "--input", str(court_span_file), "--output", str(out)) == 0
        assert out.read_text(encoding="utf-8") == court_conll_text

    def test_encode_accepts_strict_labels(self, tmp_path, court_conll_text):
        src = tmp_path / "labels.conll"
        src.write_text(court_conll_text, encoding="utf-8")
        out = tmp_path / "out.conll"
        assert run(
            "encode", "--input", str(src), "--output", str(out), "--columns", "form,label"
        ) == 0
        assert out.read_text(encoding="utf-8") == court_conll_text

    def test_decode_inverts_encode(self, tmp_path, court_span_file):
        encoded = tmp_path / "labels.conll"
        spans = tmp_path / "back.spans"
        run("encode", "--input", str(court_span_file), "--output", str(encoded))
        assert run("decode", "--input", str(encoded), "--output", str(spans)) == 0
        corpus = read_spans(spans)
        assert corpus.sentences[0].mentions == COURT_MENTIONS

    def test_round_trip_on_generated_corpora(self, tmp_path):
        corpus = synthgrammar.generate(20, seed=3)
        spans_in = tmp_path / "in.spans"
        write_spans(corpus, spans_in)
        labels = tmp_path / "mid.conll"
        spans_out = tmp_path / "out.spans"
        assert run("encode", "--input", str(spans_in), "--output", str(labels)) == 0
        assert run("decode", "--input", str(labels), "--output", str(spans_out)) == 0
        before = [s.mentions for s in read_spans(spans_in)]
        after = [s.mentions for s in read_spans(spans_out)]
        assert before == after

    def test_strict_decode_failure_exits_1_with_coordinates(self, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("a\tO\n\nb\tI-ORG\n", encoding="utf-8")
        out = tmp_path / "never.spans"
        assert run("decode", "--input", str(bad), "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert "sentence 1" in err and "token 0" in err

    def test_repair_policy_accepts_malformed(self, tmp_path):
        bad = tmp_path / "bad.conll"
        bad.write_text("b\tI-ORG\nc\tL-ORG\n", encoding="utf-8")
        out = tmp_path / "fixed.spans"
        assert run("decode", "--input", str(bad), "--output", str(out), "--policy", "repair") == 0
        assert out.read_text(encoding="utf-8") == "b\tORG 0 2\nc\n"


class TestConvert:
    def test_bio_to_bilou(self, tmp_path):
        src = tmp_path / "bio.conll"
        src.write_text("a\tB-PER\nb\tI-PER\nc\tO\n", encoding="utf-8")
        out = tmp_path / "bilou.conll"
        assert run("convert", "--input", str(src), "--output", str(out), "--to", "bilou") == 0
        assert out.read_text(encoding="utf-8") == "a\tB-PER\nb\tL-PER\nc\tO\n"

    def test_nested_input_to_bio_exits_1_and_writes_nothing(self, tmp_path, capsys):
        flat = "a\tU-PER\nb\tO\n"
        src = tmp_path / "nested.conll"
        src.write_text("\n".join([flat] * 3 + ["c\tU-ORG|U-GPE\n"]), encoding="utf-8")
        out = tmp_path / "bio.conll"
        assert run("convert", "--input", str(src), "--output", str(out), "--to", "bio") == 1
        err = capsys.readouterr().err
        assert f"error: {src}: sentence 3: label 0: nested multilabel" in err
        assert not out.exists()

    def test_bilou_to_bio_round_trips(self, tmp_path):
        src = tmp_path / "bilou.conll"
        src.write_text("a\tU-PER\nb\tO\n", encoding="utf-8")
        mid = tmp_path / "bio.conll"
        back = tmp_path / "bilou2.conll"
        assert run("convert", "--input", str(src), "--output", str(mid), "--to", "bio") == 0
        assert mid.read_text(encoding="utf-8") == "a\tB-PER\nb\tO\n"
        assert run("convert", "--input", str(mid), "--output", str(back), "--to", "bilou") == 0
        assert back.read_text(encoding="utf-8") == src.read_text(encoding="utf-8")


class TestPipeline:
    def _train(self, tmp_path, kind, train_file, seed=1, epochs=25):
        model_file = tmp_path / f"{kind}.model.json"
        metrics_file = tmp_path / f"{kind}.metrics.jsonl"
        code = run(
            "train", "--train", str(train_file), "--model", kind,
            "--save", str(model_file), "--metrics", str(metrics_file),
            "--epochs", str(epochs), "--seed", str(seed), "--lr", "2e-3",
            "--hidden", "16", "--embed-dim", "12", "--char-dim", "0",
            "--char-rnn-dim", "0", "--dropout", "0", "--word-dropout", "0",
        )
        assert code == 0
        return model_file, metrics_file

    def test_train_predict_evaluate(self, tmp_path, capsys):
        corpus = synthgrammar.generate(16, seed=21)
        train_file = tmp_path / "train.conll"
        write_conll(corpus, train_file)
        model_file, metrics_file = self._train(tmp_path, "crf", train_file)

        lines = metrics_file.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 25
        assert all({"epoch", "train_loss"} <= set(r) for r in records)

        pred_file = tmp_path / "pred.conll"
        assert run(
            "predict", "--model-file", str(model_file),
            "--input", str(train_file), "--output", str(pred_file),
        ) == 0
        assert run("evaluate", "--gold", str(train_file), "--pred", str(pred_file)) == 0
        table = capsys.readouterr().out
        assert "ALL" in table

    def test_evaluate_json_records(self, tmp_path, capsys):
        corpus = synthgrammar.generate(4, seed=2)
        gold = tmp_path / "gold.conll"
        write_conll(corpus, gold)
        assert run("evaluate", "--gold", str(gold), "--pred", str(gold), "--json") == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows[0]["type"] == "ALL" and rows[0]["f1"] == 1.0

    @pytest.mark.parametrize(
        "pred_text, message",
        [
            # the same forms and labels, split into sentences of 2 and 2 tokens
            ("a\tB-X\nb\tL-X\n\nc\tO\nd\tU-Y\n", "pred.conll: sentence 0 does not have the tokens"),
            ("a\tB-X\nb\tL-X\nc\tO\n\ne\tU-Y\n", "pred.conll: sentence 1 does not have the tokens"),
            ("a\tB-X\nb\tL-X\nc\tO\n", "pred.conll has 1 sentences"),
        ],
    )
    def test_evaluate_misaligned_files_exit_1(self, tmp_path, capsys, pred_text, message):
        gold = tmp_path / "gold.conll"
        gold.write_text("a\tB-X\nb\tL-X\nc\tO\n\nd\tU-Y\n", encoding="utf-8")
        pred = tmp_path / "pred.conll"
        pred.write_text(pred_text, encoding="utf-8")
        assert run("evaluate", "--gold", str(gold), "--pred", str(pred)) == 1
        err = capsys.readouterr().err
        assert message in err and str(gold) in err and "Traceback" not in err

    def test_identical_seeds_identical_outputs(self, tmp_path):
        corpus = synthgrammar.generate(10, seed=5)
        train_file = tmp_path / "train.conll"
        write_conll(corpus, train_file)
        outputs = []
        for tag in ("one", "two"):
            sub = tmp_path / tag
            sub.mkdir()
            model_file, metrics_file = self._train(sub, "crf", train_file, epochs=6)
            pred_file = sub / "pred.conll"
            run("predict", "--model-file", str(model_file), "--input", str(train_file),
                "--output", str(pred_file))
            outputs.append((metrics_file.read_bytes(), pred_file.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_pretrained_vectors_flow_through_train_and_predict(self, tmp_path):
        corpus = synthgrammar.generate(6, seed=9)
        train_file = tmp_path / "train.conll"
        write_conll(corpus, train_file)
        forms = sorted({t.form for s in corpus for t in s.tokens})
        vec_file = tmp_path / "vectors.txt"
        vec_file.write_text(
            "".join(f"{form} {i}.0 1.0\n" for i, form in enumerate(forms)),
            encoding="utf-8",
        )
        model_file = tmp_path / "model.json"
        assert run(
            "train", "--train", str(train_file), "--model", "crf",
            "--save", str(model_file), "--epochs", "2",
            "--pretrained", str(vec_file),
            "--hidden", "8", "--embed-dim", "8", "--char-dim", "0", "--char-rnn-dim", "0",
        ) == 0
        pred_file = tmp_path / "pred.conll"
        # without the table the model must refuse to load
        assert run(
            "predict", "--model-file", str(model_file),
            "--input", str(train_file), "--output", str(pred_file),
        ) == 1
        assert run(
            "predict", "--model-file", str(model_file),
            "--input", str(train_file), "--output", str(pred_file),
            "--pretrained", str(vec_file),
        ) == 0

    def test_other_pretrained_table_exits_1(self, tmp_path, capsys):
        corpus = synthgrammar.generate(4, seed=9)
        train_file = tmp_path / "train.conll"
        write_conll(corpus, train_file)
        forms = sorted({t.form for s in corpus for t in s.tokens})
        vec_file, other_vec = tmp_path / "vectors.txt", tmp_path / "other-vectors.txt"
        vec_file.write_text("".join(f"{f} {i}.0 1.0\n" for i, f in enumerate(forms)), "utf-8")
        other_vec.write_text("".join(f"{f} {i}.0 2.0\n" for i, f in enumerate(forms)), "utf-8")
        model_file = tmp_path / "model.json"
        small = ("--hidden", "4", "--embed-dim", "4", "--char-dim", "0", "--char-rnn-dim", "0")
        assert run(
            "train", "--train", str(train_file), "--save", str(model_file), "--epochs", "1",
            "--pretrained", str(vec_file), *small,
        ) == 0
        predict = ("predict", "--model-file", str(model_file), "--input", str(train_file),
                   "--output", str(tmp_path / "pred.conll"))
        capsys.readouterr()
        assert run(*predict, "--pretrained", str(other_vec)) == 1
        err = capsys.readouterr().err
        assert f"error: {model_file}: pretrained table" in err
        assert run(*predict, "--pretrained", str(vec_file)) == 0

    @pytest.mark.parametrize(
        "flag, text", [("--pretrained", "a 1.0 2.0\n"), ("--contextual", None)],
        ids=["pretrained", "contextual"],
    )
    def test_vectors_for_a_model_trained_without_them_exit_1(self, tmp_path, capsys, flag, text):
        corpus = synthgrammar.generate(3, seed=9)
        train_file, vec_file = tmp_path / "train.conll", tmp_path / "vectors.txt"
        write_conll(corpus, train_file)
        if text is None:  # a sidecar row per token
            text = "\n\n".join("\n".join("0.5 0.5" for _ in s.tokens) for s in corpus) + "\n"
        vec_file.write_text(text, encoding="utf-8")
        model_file, pred_file = tmp_path / "model.json", tmp_path / "pred.conll"
        assert run(
            "train", "--train", str(train_file), "--save", str(model_file), "--epochs", "1",
            "--hidden", "4", "--embed-dim", "4", "--char-dim", "0", "--char-rnn-dim", "0",
        ) == 0
        capsys.readouterr()
        assert run(
            "predict", "--model-file", str(model_file), "--input", str(train_file),
            "--output", str(pred_file), flag, str(vec_file),
        ) == 1
        err = capsys.readouterr().err
        assert f"error: {flag}: {model_file}" in err and "trained without" in err
        assert not pred_file.exists()

    def test_logged_dev_f1_is_the_f1_of_the_saved_checkpoint(self, tmp_path, capsys):
        train_file, dev_file = tmp_path / "train.conll", tmp_path / "dev.conll"
        write_conll(synthgrammar.generate(12, seed=14), train_file)
        write_conll(synthgrammar.generate(8, seed=15), dev_file)
        model_file, metrics_file = tmp_path / "model.json", tmp_path / "metrics.jsonl"
        assert run(
            "train", "--train", str(train_file), "--dev", str(dev_file), "--save", str(model_file),
            "--metrics", str(metrics_file), "--epochs", "6", "--lr", "1e-2", "--hidden", "8",
            "--embed-dim", "8", "--char-dim", "0", "--char-rnn-dim", "0",
        ) == 0
        lines = metrics_file.read_text(encoding="utf-8").splitlines()
        best = max(json.loads(line)["dev_f1"] for line in lines)
        pred_file = tmp_path / "pred.conll"
        assert run(
            "predict", "--model-file", str(model_file), "--input", str(dev_file),
            "--output", str(pred_file),
        ) == 0
        capsys.readouterr()
        assert run("evaluate", "--gold", str(dev_file), "--pred", str(pred_file), "--json") == 0
        overall = json.loads(capsys.readouterr().out.splitlines()[0])
        assert overall["type"] == "ALL"
        assert overall["f1"] == best

    def test_non_finite_vector_files_exit_1_naming_the_file(self, tmp_path, capsys):
        corpus = synthgrammar.generate(4, seed=9)
        train_file = tmp_path / "train.conll"
        write_conll(corpus, train_file)
        forms = sorted({t.form for s in corpus for t in s.tokens})
        vec_file, bad_vec = tmp_path / "vectors.txt", tmp_path / "bad-vectors.txt"
        vec_file.write_text("".join(f"{f} {i}.0 1.0\n" for i, f in enumerate(forms)), "utf-8")
        bad_vec.write_text("".join(f"{f} nan 1.0\n" for f in forms), "utf-8")
        model_file = tmp_path / "model.json"
        small = ("--hidden", "4", "--embed-dim", "4", "--char-dim", "0", "--char-rnn-dim", "0")
        assert run(
            "train", "--train", str(train_file), "--save", str(model_file), "--epochs", "1",
            "--pretrained", str(vec_file), *small,
        ) == 0
        capsys.readouterr()
        assert run(
            "predict", "--model-file", str(model_file), "--input", str(train_file),
            "--output", str(tmp_path / "pred.conll"),
            "--pretrained", str(bad_vec),
        ) == 1
        assert f"{bad_vec}:1: non-finite" in capsys.readouterr().err

        ctx_file = tmp_path / "train.ctx"
        rows = ["\n".join("0.5 -0.5" for _ in s.tokens) for s in corpus]
        rows[1] = rows[1].replace("0.5 -0.5", "0.5 inf", 1)
        ctx_file.write_text("\n\n".join(rows) + "\n", encoding="utf-8")
        assert run(
            "train", "--train", str(train_file), "--save", str(tmp_path / "ctx.json"),
            "--epochs", "1", "--contextual", str(ctx_file), *small,
        ) == 1
        line = len(corpus.sentences[0].tokens) + 2
        assert f"{ctx_file}:{line}: non-finite" in capsys.readouterr().err

    def test_float32_training(self, tmp_path, monkeypatch):
        """``train`` builds a float32 model; its checkpoint loads as float32
        and predicts."""
        corpus = synthgrammar.generate(6, seed=10)
        train_file = tmp_path / "train.conll"
        write_conll(corpus, train_file)
        built = []
        real = training.build_model

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(training, "build_model", recording)
        model_file = tmp_path / "model.ckpt"
        assert run(
            "train", "--train", str(train_file), "--model", "crf",
            "--save", str(model_file), "--epochs", "2",
            "--hidden", "8", "--embed-dim", "8", "--char-dim", "0", "--char-rnn-dim", "0",
        ) == 0
        assert [model.params.dtype for model in built] == [np.float32]
        assert models.load_model(model_file).params.dtype == np.float32
        assert run(
            "predict", "--model-file", str(model_file), "--input", str(train_file),
            "--output", str(tmp_path / "pred.conll"),
        ) == 0

    def test_contextual_vectors_flow_through(self, tmp_path):
        corpus = synthgrammar.generate(5, seed=12)
        train_file = tmp_path / "train.conll"
        write_conll(corpus, train_file)
        ctx_file = tmp_path / "train.ctx"
        blocks = []
        for s in corpus:
            blocks.append("\n".join("0.5 -0.5" for _ in s.tokens))
        ctx_file.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
        model_file = tmp_path / "model.json"
        assert run(
            "train", "--train", str(train_file), "--model", "crf",
            "--save", str(model_file), "--epochs", "2",
            "--contextual", str(ctx_file),
            "--hidden", "8", "--embed-dim", "8", "--char-dim", "0", "--char-rnn-dim", "0",
        ) == 0
        pred_file = tmp_path / "pred.conll"
        assert run(
            "predict", "--model-file", str(model_file), "--input", str(train_file),
            "--output", str(pred_file), "--contextual", str(ctx_file),
        ) == 0
        # contextual-trained model refuses to predict without the sidecar
        assert run(
            "predict", "--model-file", str(model_file), "--input", str(train_file),
            "--output", str(pred_file),
        ) == 1

    @pytest.mark.parametrize("kind", ["crf", "seq2seq"])
    def test_include_dev_builds_the_model_from_train_and_dev(self, tmp_path, kind):
        """The saved model's vocabulary and alphabet hold dev's forms and
        labels, a dev-only entity type among them, and no dev F1 is logged."""
        dev = TaggedCorpus((
            Sentence((Token("zog"), Token("wump"), Token("near")), {mention("ZZZ", 0, 2)}),
            Sentence((Token("frib"),), {mention("ZZZ", 0, 1), mention("GPE", 0, 1)}),
        ))
        train_file, dev_file = tmp_path / "t.conll", tmp_path / "d.conll"
        write_conll(synthgrammar.generate(8, seed=6), train_file)
        write_conll(dev, dev_file)
        model_file = tmp_path / "m.json"
        metrics_file = tmp_path / "m.jsonl"
        assert run(
            "train", "--train", str(train_file), "--dev", str(dev_file), "--include-dev",
            "--model", kind, "--save", str(model_file), "--metrics", str(metrics_file),
            "--epochs", "2", "--hidden", "8", "--embed-dim", "8",
            "--char-dim", "2", "--char-rnn-dim", "2",
        ) == 0
        lines = metrics_file.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 2 and all("dev_f1" not in r for r in records)
        model = models.load_model(model_file)
        encoded = [codec.encode(s) for s in dev]
        if kind == "crf":
            labels, alphabet = {x for e in encoded for x in e.strings()}, model.alphabet
        else:
            labels, alphabet = {x for e in encoded for x in codec.flatten(e)}, model.components
        assert "B-ZZZ" in labels and labels <= set(alphabet.strings)
        assert {"zog", "wump", "frib"} <= set(model.vocab.forms)

    def test_include_dev_without_dev_exits_1_naming_the_flag(self, tmp_path, capsys):
        train_file = tmp_path / "t.conll"
        write_conll(synthgrammar.generate(4, seed=6), train_file)
        assert run(
            "train", "--train", str(train_file), "--include-dev",
            "--save", str(tmp_path / "m.model"), "--epochs", "1",
        ) == 1
        err = capsys.readouterr().err
        assert "--include-dev needs --dev" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [train_file]

    def test_empty_dev_file_exits_1_naming_it(self, tmp_path, capsys):
        train_file, dev_file = tmp_path / "t.conll", tmp_path / "d.conll"
        write_conll(synthgrammar.generate(4, seed=6), train_file)
        dev_file.write_text("", encoding="utf-8")
        model_file = tmp_path / "m.model"
        assert run(
            "train", "--train", str(train_file), "--dev", str(dev_file), "--save", str(model_file),
            "--epochs", "3", "--hidden", "4", "--embed-dim", "4", "--char-dim", "0",
            "--char-rnn-dim", "0",
        ) == 1
        assert f"error: {dev_file}: dev corpus is empty" in capsys.readouterr().err
        assert not model_file.exists()

    def test_empty_train_file_exits_1_naming_it(self, tmp_path, capsys):
        train_file = tmp_path / "t.conll"
        train_file.write_text("", encoding="utf-8")
        model_file = tmp_path / "m.model"
        assert run(
            "train", "--train", str(train_file), "--save", str(model_file), "--epochs", "1",
            "--hidden", "4", "--embed-dim", "4", "--char-dim", "0", "--char-rnn-dim", "0",
        ) == 1
        assert f"error: {train_file}: training corpus is empty" in capsys.readouterr().err
        assert not model_file.exists()

    def test_lemma_and_pos_columns_flow_through(self, tmp_path):
        # lemmas are lowercased forms, POS alternates; both become extra inputs
        from nestner.core import Sentence as S, Token as T

        sentences = []
        for base in synthgrammar.generate(6, seed=13):
            tokens = tuple(
                T(t.form, lemma=t.form.lower(), pos="N" if i % 2 else "V")
                for i, t in enumerate(base.tokens)
            )
            sentences.append(S(tokens, base.mentions))
        train_file = tmp_path / "t.conll"
        write_conll(TaggedCorpus(tuple(sentences)), train_file, columns="form,lemma,pos,label")
        model_file = tmp_path / "m.json"
        assert run(
            "train", "--train", str(train_file), "--columns", "form,lemma,pos,label",
            "--model", "crf", "--save", str(model_file), "--epochs", "2",
            "--hidden", "8", "--embed-dim", "8", "--lemma-dim", "4", "--pos-onehot",
            "--char-dim", "0", "--char-rnn-dim", "0",
        ) == 0
        pred_file = tmp_path / "p.conll"
        assert run(
            "predict", "--model-file", str(model_file), "--input", str(train_file),
            "--columns", "form,lemma,pos,label", "--output", str(pred_file),
        ) == 0
        first_line = pred_file.read_text(encoding="utf-8").splitlines()[0]
        assert len(first_line.split("\t")) == 4  # form, lemma, pos, predicted label


class TestBadCheckpoints:
    """A damaged checkpoint ends ``predict`` with exit 1 and names what is wrong."""

    @pytest.fixture
    def damaged(self, tmp_path):
        corpus = synthgrammar.generate(4, seed=3)
        train_file = tmp_path / "train.conll"
        write_conll(corpus, train_file)
        model_file = tmp_path / "model.json"
        assert run(
            "train", "--train", str(train_file), "--model", "crf", "--save", str(model_file),
            "--epochs", "1", "--hidden", "4", "--embed-dim", "4",
            "--char-dim", "0", "--char-rnn-dim", "0",
        ) == 0

        def predict_after(damage):
            rewrite_checkpoint(model_file, damage)
            return run(
                "predict", "--model-file", str(model_file), "--input", str(train_file),
                "--output", str(tmp_path / "pred.conll"),
            )

        return predict_after

    def test_missing_vocabulary_exits_1(self, damaged, capsys):
        assert damaged(lambda envelope, members: envelope.pop("vocabulary")) == 1
        assert "'vocabulary'" in capsys.readouterr().err

    def test_missing_transition_matrix_exits_1(self, damaged, capsys):
        def drop_transitions(envelope, members):  # the last parameter: (k+2, k+2) float32
            size = 4 * (len(envelope["alphabets"]["labels"]) + 2) ** 2
            members["parameters.f32"] = members["parameters.f32"][:-size]

        assert damaged(drop_transitions) == 1
        assert "parameter 'crf.trans': parameters.f32 is too short" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda envelope, members: envelope.update(parameters=5),
            lambda envelope, members: envelope.update(parameters=[1, 2]),
            lambda envelope, members: envelope["config"].update(hidden_dim="4"),
            lambda envelope, members: members.update(
                {"parameters.f32": members["parameters.f32"][:6]}
            ),
            set_label("labels", 7),
            set_label("labels", "X-L-ORG"),
        ],
        ids=[
            "parameters-int", "parameters-list", "hidden-dim-str", "member-cut", "labels-int",
            "label-malformed",
        ],
    )
    def test_malformed_envelope_exits_1_naming_the_file(self, damaged, tmp_path, capsys, damage):
        assert damaged(damage) == 1
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'model.json'}: " in err
        assert "Traceback" not in err

    def test_truncated_archive_exits_1_naming_the_file(self, damaged, tmp_path, capsys):
        model_file = tmp_path / "model.json"
        damaged(lambda envelope, members: None)
        model_file.write_bytes(model_file.read_bytes()[:-100])
        assert run(
            "predict", "--model-file", str(model_file), "--input", str(tmp_path / "train.conll"),
            "--output", str(tmp_path / "pred.conll"),
        ) == 1
        err = capsys.readouterr().err
        assert f"error: {model_file}: damaged checkpoint archive" in err
        assert "Traceback" not in err


class TestDiagnostics:
    def test_roundtrip_command(self, capsys):
        assert run("roundtrip", "--max-len", "4", "--types", "2", "--max-mentions", "3") == 0
        out = capsys.readouterr().out
        assert "failures: 0" in out

    def test_roundtrip_reports_crossing_as_warning(self, capsys):
        assert run("roundtrip", "--max-len", "3", "--types", "1",
                   "--max-mentions", "2", "--include-crossing") == 0
        out = capsys.readouterr().out
        assert "crossing" in out

    def test_gradcheck_command(self, capsys):
        assert run("gradcheck", "--seed", "2") == 0
        out = capsys.readouterr().out
        for kind in ("crf", "seq2seq"):
            assert f"== {kind} ==" in out and f"== {kind}, batch of 2 ==" in out
        assert out.count("PASS") == 4 and "FAIL" not in out


class TestErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert run("encode", "--nope") == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_1(self):
        assert run("frobnicate") == 1

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert run("decode", "--input", str(tmp_path / "nope.conll"),
                   "--output", str(tmp_path / "out.spans")) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_form_exits_1_naming_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("a\tO\n\tO\n", encoding="utf-8")
        assert run("decode", "--input", str(bad), "--output", str(tmp_path / "out.spans")) == 1
        assert f"{bad}:2: token form must be non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, data, line",
        [
            ("--pred", b"a\tO\r\n\r\nb\tO\r\nc\xff\tO\r\n", 4),  # read_conll
            ("--contextual", b"0.5 0.5\n\n0.5 \xff\n", 3),  # read_contextual
            ("--pretrained", b"a 0.5 0.5\nb\xe9 0.5 0.5\n", 2),  # load_pretrained
        ],
    )
    def test_input_not_utf8_exits_1_naming_file_and_line(self, tmp_path, capsys, flag, data, line):
        conll = tmp_path / "train.conll"
        write_conll(synthgrammar.generate(2, seed=3), conll)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        if flag == "--pred":
            argv = ("evaluate", "--gold", str(conll), "--pred", str(bad))
        else:
            argv = (
                "train", "--train", str(conll), "--save", str(tmp_path / "model"),
                "--epochs", "1", "--hidden", "4", "--embed-dim", "4", "--char-dim", "0",
                "--char-rnn-dim", "0", flag, str(bad),
            )
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"error: {bad}:{line}: not valid UTF-8" in err and "Traceback" not in err


    @pytest.mark.parametrize(
        "flags, name",
        [
            (("--lr", "nan"), "learning_rate"),
            (("--lr", "1e300"), "learning_rate"),  # beyond float32's range
            (("--embed-dim", "0", "--char-dim", "0", "--char-rnn-dim", "0"), "trainable_dim"),
            (("gradcheck", "--eps", "0"), "epsilon"),
            (("--hidden", "0"), "hidden_dim"),
            (("--hidden", "-1"), "hidden_dim"),
            (("--min-freq", "-5"), "min_freq"),
            (("--pos-onehot",), "use_pos_onehot is set, but the training corpus has no POS tags"),
            (("gradcheck", "--tolerance", "nan"), "tolerance"),
            (("gradcheck", "--tolerance", "0"), "tolerance"),
            (("gradcheck", "--tolerance", "-1"), "tolerance"),
            (("roundtrip", "--max-len", "0"), "max_len"),
            (("roundtrip", "--max-len", "-2"), "max_len"),
            (("roundtrip", "--types", "0"), "n_types"),
            (("roundtrip", "--types", "-1"), "n_types"),
            (("roundtrip", "--max-mentions", "0"), "max_mentions"),
            (("roundtrip", "--max-mentions", "-1"), "max_mentions"),
        ],
    )
    def test_bad_setting_exits_1_naming_it(self, tmp_path, capsys, flags, name):
        if flags[0] in ("gradcheck", "roundtrip"):
            argv = flags
        else:
            train_file = tmp_path / "train.conll"
            write_conll(synthgrammar.generate(4, seed=21), train_file)
            argv = (
                "train", "--train", str(train_file), "--save", str(tmp_path / "model"),
                "--epochs", "1", "--hidden", "4", "--embed-dim", "4", "--char-dim", "0",
                "--char-rnn-dim", "0", *flags,
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error line alone, no numpy warning
            assert run(*argv) == 1
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) in ([], [tmp_path / "train.conll"])  # nothing saved


    @pytest.mark.parametrize(
        "argv",
        [
            ("train", "--train", "{conll}", "--save", "{out}"),
            ("evaluate", "--gold", "{conll}", "--pred", "{conll}"),
            ("decode", "--input", "{conll}", "--output", "{out}"),
            ("convert", "--input", "{conll}", "--output", "{out}", "--to", "bio"),
        ],
        ids=["train", "evaluate", "decode", "convert"],
    )
    def test_columns_without_label_exit_1_naming_the_flag(self, tmp_path, capsys, argv):
        """These commands read labels: without a label column they would score,
        train on or write an all-outside corpus."""
        conll, out = tmp_path / "in.conll", tmp_path / "out"
        write_conll(synthgrammar.generate(2, seed=3), conll)
        argv = [arg.format(conll=conll, out=out) for arg in argv]
        assert run(*argv, "--columns", "form") == 1
        err = capsys.readouterr().err
        assert "argument --columns: 'form' has no 'label' column" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize(
        "argv", [("train", "--train", "{conll}", "--save", "{out}"), ("gradcheck",)],
        ids=["train", "gradcheck"],
    )
    def test_negative_seed_exits_1_naming_flag_and_value(self, tmp_path, capsys, argv):
        conll, out = tmp_path / "in.conll", tmp_path / "out"
        write_conll(synthgrammar.generate(2, seed=3), conll)
        argv = [arg.format(conll=conll, out=out) for arg in argv]
        assert run(*argv, "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert "argument --seed: must be a non-negative integer, got -1" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank"])
    def test_pretrained_file_without_width_exits_1_naming_it(self, tmp_path, capsys, text):
        """A vector file sets its own width; one with no header and no row has none."""
        train_file, vec_file = tmp_path / "train.conll", tmp_path / "empty.vec"
        write_conll(synthgrammar.generate(4, seed=21), train_file)
        vec_file.write_text(text, encoding="utf-8")
        argv = (
            "train", "--train", str(train_file), "--save", str(tmp_path / "model"),
            "--epochs", "1", "--hidden", "4", "--embed-dim", "4", "--char-dim", "0",
            "--char-rnn-dim", "0", "--pretrained", str(vec_file),
        )
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"error: {vec_file}: no header and no rows" in err and "Traceback" not in err
        assert run(*argv, "--pretrained-dim", "2") == 1
        assert "unrecognized arguments: --pretrained-dim 2" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [vec_file, train_file]  # nothing saved


class TestContextualSidecars:
    """A sidecar of the wrong width, or one the model cannot use, stops the
    command before any training or prediction, naming the file and line or
    the flag."""

    SMALL = ("--hidden", "4", "--embed-dim", "4", "--char-dim", "0", "--char-rnn-dim", "0")

    @pytest.fixture
    def files(self, tmp_path):
        corpus = synthgrammar.generate(3, seed=8)
        conll = tmp_path / "train.conll"
        write_conll(corpus, conll)

        def sidecar(name, widths):
            """One row per token; sentence i's rows have widths[i] values."""
            path = tmp_path / name
            blocks = ["\n".join(" ".join(["0.5"] * w) for _ in s.tokens)
                      for s, w in zip(corpus, widths)]
            path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
            return path

        first_of_second = len(corpus.sentences[0].tokens) + 2
        return conll, sidecar, first_of_second

    def _train(self, tmp_path, conll, *extra):
        return run(
            "train", "--train", str(conll), "--save", str(tmp_path / "m.json"),
            "--epochs", "1", *self.SMALL, *extra,
        )

    def test_train_sidecar_with_two_widths(self, tmp_path, files, capsys):
        conll, sidecar, line = files
        ctx = sidecar("train.ctx", [2, 3, 2])
        assert self._train(tmp_path, conll, "--contextual", str(ctx)) == 1
        assert f"{ctx}:{line}: expected 2 values, found 3" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("width", [1, 3])
    def test_dev_sidecar_of_another_width(self, tmp_path, files, capsys, width):
        conll, sidecar, _ = files
        ctx, dev_ctx = sidecar("train.ctx", [2, 2, 2]), sidecar("dev.ctx", [width] * 3)
        assert self._train(
            tmp_path, conll, "--contextual", str(ctx),
            "--dev", str(conll), "--dev-contextual", str(dev_ctx),
        ) == 1
        assert f"{dev_ctx}:1: expected 2 values, found {width}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [("--contextual", "--dev"), ("--dev-contextual", "--dev"),
         ("--contextual", "--dev-contextual")],
    )
    def test_dev_needs_both_sidecars_or_neither(self, tmp_path, files, capsys, flags):
        conll, sidecar, _ = files
        ctx = sidecar("train.ctx", [2, 2, 2])
        paths = {"--contextual": ctx, "--dev-contextual": ctx, "--dev": conll}
        assert self._train(tmp_path, conll, *(x for f in flags for x in (f, str(paths[f])))) == 1
        err = capsys.readouterr().err
        assert "--dev-contextual" in err and "--dev" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag", ["--contextual", "--dev-contextual"])
    def test_include_dev_with_one_sidecar(self, tmp_path, files, capsys, flag):
        conll, sidecar, _ = files
        ctx = sidecar("ctx", [2, 2, 2])
        assert self._train(
            tmp_path, conll, flag, str(ctx), "--dev", str(conll), "--include-dev"
        ) == 1
        assert (
            f"--dev-contextual: {conll}: cannot merge a corpus with contextual vectors "
            "and one without" in capsys.readouterr().err
        )
        assert not (tmp_path / "m.json").exists()

    def test_predict_checks_the_model_width(self, tmp_path, files, capsys):
        conll, sidecar, _ = files
        ctx, wide = sidecar("train.ctx", [2, 2, 2]), sidecar("wide.ctx", [3, 3, 3])
        assert self._train(tmp_path, conll, "--contextual", str(ctx)) == 0
        predict = ("predict", "--model-file", str(tmp_path / "m.json"), "--input", str(conll),
                   "--output", str(tmp_path / "pred.conll"))
        assert run(*predict, "--contextual", str(wide)) == 1
        assert f"{wide}:1: expected 2 values, found 3" in capsys.readouterr().err
        assert run(*predict) == 1
        assert (
            f"--contextual: {tmp_path / 'm.json'}: sentence 0: the model needs contextual "
            "vectors of width 2; none given" in capsys.readouterr().err
        )

    def test_sidecar_with_a_sentence_too_few_names_the_file(self, tmp_path, files, capsys):
        conll, sidecar, _ = files
        ctx = sidecar("train.ctx", [2, 2])
        assert self._train(tmp_path, conll, "--contextual", str(ctx)) == 1
        assert f"{ctx}: sentence 2: 2 contextual blocks for 3 sentences" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "m.json").exists()

    def test_sidecar_with_a_row_too_few_names_the_file(self, tmp_path, files, capsys):
        conll, sidecar, _ = files
        ctx = sidecar("train.ctx", [2, 2, 2])
        n_tokens = len(read_conll(conll).sentences[0].tokens)
        lines = ctx.read_text(encoding="utf-8").split("\n")
        del lines[0]  # the first sentence loses a row
        ctx.write_text("\n".join(lines), encoding="utf-8")
        assert self._train(tmp_path, conll, "--contextual", str(ctx)) == 1
        assert (
            f"{ctx}: sentence 0: {n_tokens - 1} contextual rows for {n_tokens} tokens"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "m.json").exists()

    def test_predict_rejects_a_sidecar_the_model_cannot_use(self, tmp_path, files, capsys):
        conll, sidecar, _ = files
        assert self._train(tmp_path, conll) == 0
        ctx = sidecar("ctx", [2, 2, 2])
        assert run(
            "predict", "--model-file", str(tmp_path / "m.json"), "--input", str(conll),
            "--output", str(tmp_path / "pred.conll"), "--contextual", str(ctx),
        ) == 1
        assert "--contextual" in capsys.readouterr().err
        assert not (tmp_path / "pred.conll").exists()
