import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestner
from nestner.autodiff import (
    ForwardTape, Gradients, Parameters, RowGradient, Tape, _pack, _scaled_span, dropout_mask,
    grad_check,
)
from nestner.models import CrfTagger, Seq2seqTagger


def make_params(entries, seed=0):
    params = Parameters()
    rng = np.random.default_rng(seed)
    for name, shape in entries:
        params.add(name, rng.standard_normal(shape))
    return params


class TestParameters:
    def test_duplicate_name_rejected(self):
        params = Parameters()
        params.zeros("w", (2,))
        with pytest.raises(ValueError):
            params.zeros("w", (2,))

    def test_non_finite_rejected(self):
        params = Parameters()
        with pytest.raises(ValueError):
            params.add("w", np.array([1.0, np.inf]))

    def test_non_finite_rejected_with_nan(self):
        params = Parameters(np.float32)
        with pytest.raises(ValueError, match="non-finite values in parameter w"):
            params.add("w", np.array([[0.5, np.nan]]))
        assert "w" not in params

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_uniform_stores_the_draw_itself(self, dtype):
        params = Parameters(dtype)
        arr = params.uniform("w", (5, 3), np.random.default_rng(4), fan_in=7)
        expected = np.random.default_rng(4).uniform(-(1 / 7) ** 0.5, (1 / 7) ** 0.5, size=(5, 3))
        assert arr.dtype == dtype and params["w"] is arr
        np.testing.assert_array_equal(arr, expected.astype(dtype))
        if dtype == np.float64:
            assert np.array_equal(arr, expected)  # float64: the draw as drawn

    def test_uniform_rejects_a_duplicate_name(self):
        params = Parameters()
        params.zeros("w", (2,))
        with pytest.raises(ValueError, match="duplicate parameter name: w"):
            params.uniform("w", (2,), np.random.default_rng(0))

    def test_uniform_bound_follows_fan_in(self):
        params = Parameters()
        rng = np.random.default_rng(1)
        arr = params.uniform("w", (100, 3), rng)
        assert np.all(np.abs(arr) <= math.sqrt(1 / 100))

    def test_load_state(self):
        params = make_params([("w", (3,))])
        snapshot = Parameters()
        snapshot.add("w", params["w"])  # add copies
        params["w"][:] += 1.0
        assert not np.array_equal(params["w"], snapshot["w"])
        params.load_state(snapshot)
        np.testing.assert_array_equal(params["w"], snapshot["w"])


def _scalar(t, v):
    """Cross-entropy of ``v``, a vector or each row of a matrix, against label
    0: a scalar loss whose gradient reaches every element of ``v``."""
    return t.softmax_cross_entropy(v, 0 if v.value.ndim == 1 else [0] * v.shape[0])


def _column_sum(t, v):
    """The sum of a (T, 1) column, as the log partition of a one-label CRF
    with zero transitions: every path score is the sum of the emissions."""
    return t.crf_nll(v, t.const(np.zeros((3, 3))))


def _cross_entropy_grad(z, target):
    """d/dz of -log softmax(z)[target]."""
    g = np.exp(z - z.max())
    g /= g.sum()
    g[target] -= 1.0
    return g


class TestForwardValues:
    # the CRF log partition is the logsumexp of the path scores
    def test_logsumexp_of_two_zeros(self):
        tape = Tape(Parameters())
        out = tape.crf_nll(tape.const([[0.0, 0.0]]), tape.const(np.zeros((4, 4))))
        assert out.value == pytest.approx(math.log(2), abs=1e-12)

    def test_logsumexp_no_overflow(self):
        tape = Tape(Parameters())
        out = tape.crf_nll(tape.const([[1000.0, 1000.0]]), tape.const(np.zeros((4, 4))))
        assert out.value == pytest.approx(1000.0 + math.log(2), abs=1e-9)

    def test_affine_identity(self):
        tape = Tape(Parameters())
        x = tape.const([1.0, -2.0, 3.0])
        out = tape.affine(x, tape.const(np.eye(3)), tape.const(np.zeros(3)))
        np.testing.assert_array_equal(out.value, x.value)

    def test_softmax_cross_entropy_matches_manual(self):
        tape = Tape(Parameters())
        logits = np.array([0.3, -1.2, 2.0])
        loss = tape.softmax_cross_entropy(tape.const(logits), 1)
        manual = -math.log(np.exp(logits[1]) / np.exp(logits).sum())
        assert float(loss.value) == pytest.approx(manual, abs=1e-12)

    def test_forward_tape_computes_the_same_values_and_records_nothing(self):
        params = make_params([("emb", (5, 3)), ("wx", (3, 8)), ("wh", (2, 8)), ("b", (8,))])

        def run(tape):
            x = tape.lookup("emb", [4, 0, 4])
            pre = tape.affine(x, tape.param("wx"), tape.param("b"))
            out, cells = tape.lstm(pre, tape.param("wh"), lengths=[2, 1])
            return [out.value, cells]

        forward = ForwardTape(params)
        for a, b in zip(run(forward), run(Tape(params))):
            assert a.tobytes() == b.tobytes()
        assert forward.nodes == [] and forward._lookups == []
        with pytest.raises(TypeError):
            forward.backward(forward.const(0.0))

    def test_dropout_mask_statistics(self):
        rng = np.random.default_rng(4)
        mask = dropout_mask(rng, 10000, 0.5)
        kept = mask > 0
        assert 0.45 < kept.mean() < 0.55
        np.testing.assert_allclose(mask[kept], 2.0)
        np.testing.assert_array_equal(dropout_mask(rng, 5, 0.0), np.ones(5))


class TestBackward:
    def test_sum_gives_ones(self):
        params = make_params([("p", (4, 1))])
        tape = Tape(params)
        grads = tape.backward(_column_sum(tape, tape.param("p")))
        np.testing.assert_allclose(grads.dense["p"], np.ones((4, 1)), rtol=0, atol=1e-15)

    def test_unused_parameter_untouched(self):
        params = make_params([("used", (2,)), ("unused", (2,))])
        tape = Tape(params)
        grads = tape.backward(_scalar(tape, tape.param("used")))
        assert grads.touched("used")
        assert not grads.touched("unused")
        np.testing.assert_array_equal(grads.materialize("unused", (2,)), np.zeros(2))

    @pytest.mark.parametrize("tape_type", [Tape, ForwardTape])
    @pytest.mark.parametrize("op", ["lookup", "gather"])
    @pytest.mark.parametrize(
        "rows", [1, np.intp(1), [[0, 1]], np.zeros((1, 2), dtype=int)],
        ids=["int", "numpy-int", "nested-list", "matrix"],
    )
    def test_rows_that_are_not_1d_rejected_at_the_call(self, tape_type, op, rows):
        """A bare int once read one row as a vector, and ``backward`` then
        failed far from the call; now the op refuses it and records nothing."""
        tape = tape_type(make_params([("table", (3, 2))]))
        table = tape.param("table")
        with pytest.raises(ValueError, match=f"^{op}: rows must be a 1-d sequence of ints"):
            tape.lookup("table", rows) if op == "lookup" else tape.gather(table, rows)
        assert tape.nodes == ([] if tape_type is ForwardTape else [table])
        assert tape._lookups == []

    def test_lookup_rows_tracked_sparsely(self):
        params = make_params([("table", (5, 3))])
        tape = Tape(params)
        both = tape.concat([tape.lookup("table", [3]), tape.lookup("table", [1])])
        grads = tape.backward(tape.softmax_cross_entropy(both, [0]))
        g = _cross_entropy_grad(both.value[0], 0)
        np.testing.assert_array_equal(grads.rows["table"].ids, [1, 3])
        np.testing.assert_allclose(grads.rows["table"].values, [g[3:], g[:3]], rtol=0, atol=1e-15)
        assert len(grads.rows["table"]) == 2
        assert "table" not in grads.dense

    def test_repeated_lookup_accumulates(self):
        params = make_params([("table", (2, 2))])
        tape = Tape(params)
        repeated = tape.lookup("table", [0, 0])
        rows = tape.lookup("table", [1, 0])
        # [row 0 | row 1] and [row 0 | row 0]: row 0 is read three times
        both = tape.concat([repeated, rows])
        grads = tape.backward(tape.softmax_cross_entropy(both, [0, 3]))
        g = [_cross_entropy_grad(both.value[0], 0), _cross_entropy_grad(both.value[1], 3)]
        np.testing.assert_array_equal(grads.rows["table"].ids, [0, 1])
        np.testing.assert_allclose(
            grads.rows["table"].values, [g[0][:2] + g[1][:2] + g[1][2:], g[0][2:]],
            rtol=0, atol=1e-15,
        )

    def test_two_layer_net_matches_fd(self):
        params = make_params([("w1", (4, 3)), ("b1", (3,)), ("w2", (3, 2)), ("b2", (2,)), ("x", (4,))])

        def loss_fn(tape):
            h = tape.tanh(tape.affine(tape.param("x"), tape.param("w1"), tape.param("b1")))
            out = tape.affine(h, tape.param("w2"), tape.param("b2"))
            return tape.softmax_cross_entropy(out, 1)

        report = grad_check(loss_fn, params)
        assert report.passed, str(report)
        assert max(report.max_rel_err.values()) < 1e-7

    @pytest.mark.parametrize("epsilon", [0.0, -1e-5, float("nan"), float("inf")])
    def test_grad_check_rejects_a_step_that_is_not_finite_and_positive(self, epsilon):
        params = make_params([("w", (2,))])
        with pytest.raises(ValueError, match="epsilon"):
            grad_check(lambda tape: tape.param("w"), params, epsilon=epsilon)

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan"), float("inf")])
    def test_grad_check_rejects_a_tolerance_that_is_not_finite_and_positive(self, tolerance):
        params = make_params([("w", (2,))])
        with pytest.raises(ValueError, match="tolerance"):
            grad_check(lambda tape: tape.param("w"), params, tolerance=tolerance)

    def test_determinism_bit_identical(self):
        params = make_params([("w", (6, 6)), ("b", (6,)), ("x", (6,))], seed=9)

        def run():
            tape = Tape(params)
            h = tape.tanh(tape.affine(tape.param("x"), tape.param("w"), tape.param("b")))
            loss = tape.softmax_cross_entropy(h, 0)
            grads = tape.backward(loss)
            return float(loss.value), grads.dense["w"].tobytes()

        assert run() == run()


def _lstm_loss(t, reverse=False):
    pre = t.affine(t.param("s43"), t.param("wx38"), t.param("b8"))
    out, _ = t.lstm(pre, t.param("wh28"), t.param("h2"), t.param("c2"), reverse=reverse)
    # a loss on every output row and, four times more, on the final state
    final = t.gather(out, [0 if reverse else 3] * 4)
    return _scalar(t, t.concat([t.tanh(out), final]))


def _gru_loss(t, reverse=False):
    pre = t.affine(t.param("s43"), t.param("wx36"), t.param("b6"))
    return _scalar(t, t.gru(pre, t.param("wh26"), reverse=reverse))


def _final_rows(reverse):
    """The rows of the final states of sequences of lengths [1, 0, 3] (rows
    0 and 1-3): the empty sequence has no row."""
    return [0, 1] if reverse else [0, 3]


def _packed_gru_loss(t, reverse=False):
    # the longest sequence last, so packing reorders; a per-row target, so a
    # final state read from the wrong row changes the loss
    pre = t.affine(t.param("s43"), t.param("wx36"), t.param("b6"))
    h = t.gru(pre, t.param("wh26"), reverse=reverse, lengths=[1, 0, 3])
    return t.softmax_cross_entropy(t.gather(h, _final_rows(reverse)), [1, 0])


def _packed_lstm_loss(t, reverse=False):
    # a state per sequence, the longest last
    pre = t.affine(t.param("s43"), t.param("wx38"), t.param("b8"))
    out, _ = t.lstm(
        pre, t.param("wh28"), t.param("h32"), t.param("c32"), reverse=reverse, lengths=[1, 0, 3]
    )
    # a per-row target on every output row and on every sequence's final state
    finals = t.gather(out, _final_rows(reverse) * 2)
    return t.softmax_cross_entropy(t.concat([t.tanh(out), finals]), [0, 3, 1, 2])


def _identity_packed_loss(t, cell, lengths, reverse):
    """An LSTM or GRU over an identity packing, which is read in place:
    three sequences of one row each, or one sequence of four rows, with a
    loss on every output row."""
    xs, h0, c0 = ("m33", "h32", "c32") if len(lengths) > 1 else ("s43", "h2", "c2")
    if cell == "lstm":
        pre = t.affine(t.param(xs), t.param("wx38"), t.param("b8"))
        out, _ = t.lstm(
            pre, t.param("wh28"), t.param(h0), t.param(c0), reverse=reverse, lengths=lengths
        )
    else:
        pre = t.affine(t.param(xs), t.param("wx36"), t.param("b6"))
        out = t.gru(pre, t.param("wh26"), reverse=reverse, lengths=lengths)
    return _scalar(t, t.tanh(out))


OP_CASES = {
    "scale": lambda t, p: _scalar(t, t.scale(t.param("a3"), -2.5)),
    "affine": lambda t, p: _scalar(t, t.affine(t.param("a3"), t.param("m34"), t.param("b4"))),
    "affine_rows": lambda t, p: _scalar(
        t, t.tanh(t.affine(t.param("m33"), t.param("m34"), t.param("b4")))
    ),
    "affine_shared_weight": lambda t, p: _scalar(t, t.tanh(t.concat([
        t.affine(t.param("a3"), t.param("m34"), t.param("b4")),
        t.affine(t.param("b3"), t.param("m34"), t.param("b4")),
    ]))),
    "tanh": lambda t, p: _scalar(t, t.tanh(t.param("a3"))),
    "concat": lambda t, p: _scalar(t, t.concat([t.param("a3"), t.param("b3")])),
    "concat_rows": lambda t, p: _scalar(t, t.tanh(t.concat([t.param("m33"), t.param("m34")]))),
    "stack": lambda t, p: _scalar(
        t, t.tanh(t.stack([t.param("a3"), t.param("b3"), t.param("a3")]))
    ),
    "gather": lambda t, p: _scalar(t, t.tanh(t.gather(t.param("m34"), [2, 0, 2]))),
    "gather_row": lambda t, p: _scalar(t, t.gather(t.param("m34"), [1])),
    "softmax_cross_entropy": lambda t, p: t.softmax_cross_entropy(t.param("b4"), 2),
    "softmax_cross_entropy_rows": lambda t, p: t.softmax_cross_entropy(
        t.param("m34"), [2, 0, 3]
    ),
    "dropout": lambda t, p: _scalar(t, t.dropout(t.param("a3"), p)),
    "crf_nll": lambda t, p: t.crf_nll(t.param("m34"), t.param("m66"), [1, 3, 1]),
    "crf_nll_one_token": lambda t, p: t.crf_nll(t.gather(t.param("m34"), [2]), t.param("m66"), [0]),
    "crf_nll_repeated_transition": lambda t, p: t.crf_nll(
        t.gather(t.param("m34"), [0, 1, 0, 2, 1]), t.param("m66"), [2, 2, 2, 1, 1]
    ),
    "crf_log_partition": lambda t, p: t.crf_nll(t.param("m34"), t.param("m66")),
    "lookup": lambda t, p: _scalar(t, t.lookup("m34", [1])),
    "lookup_rows": lambda t, p: _scalar(t, t.tanh(t.lookup("m34", [1, 2, 1]))),
    "lstm": lambda t, p: _lstm_loss(t),
    "lstm_reverse": lambda t, p: _lstm_loss(t, reverse=True),
    "lstm_packed": lambda t, p: _packed_lstm_loss(t),
    "lstm_packed_reverse": lambda t, p: _packed_lstm_loss(t, reverse=True),
    "gru": lambda t, p: _gru_loss(t),
    "gru_reverse": lambda t, p: _gru_loss(t, reverse=True),
    "gru_shared_weights": lambda t, p: _scalar(t, t.concat([
        t.gru(t.affine(t.param("s43"), t.param("wx36"), t.param("b6")), t.param("wh26"), reverse=r)
        for r in (False, True)
    ])),
    "gru_packed": lambda t, p: _packed_gru_loss(t),
    "gru_packed_reverse": lambda t, p: _packed_gru_loss(t, reverse=True),
    "lstm_one_row_each": lambda t, p: _identity_packed_loss(t, "lstm", [1, 1, 1], False),
    "lstm_one_row_each_reverse": lambda t, p: _identity_packed_loss(t, "lstm", [1, 1, 1], True),
    "lstm_one_sequence": lambda t, p: _identity_packed_loss(t, "lstm", [4], False),
    "lstm_one_sequence_reverse": lambda t, p: _identity_packed_loss(t, "lstm", [4], True),
    "gru_one_row_each": lambda t, p: _identity_packed_loss(t, "gru", [1, 1, 1], False),
    "gru_one_row_each_reverse": lambda t, p: _identity_packed_loss(t, "gru", [1, 1, 1], True),
    "gru_one_sequence": lambda t, p: _identity_packed_loss(t, "gru", [4], False),
    "gru_one_sequence_reverse": lambda t, p: _identity_packed_loss(t, "gru", [4], True),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_operator_gradients_match_fd_20_seeds(name):
    mask = np.array([2.0, 0.0, 2.0])
    for seed in range(20):
        params = Parameters()
        rng = np.random.default_rng(seed)
        params.add("a3", rng.standard_normal(3))
        params.add("b3", rng.standard_normal(3))
        params.add("b4", rng.standard_normal(4))
        params.add("m34", rng.standard_normal((3, 4)))
        params.add("m33", rng.standard_normal((3, 3)))
        for extra, shape in (
            ("m66", (6, 6)), ("s43", (4, 3)), ("wx38", (3, 8)), ("wh28", (2, 8)), ("b8", (8,)),
            ("wx36", (3, 6)), ("wh26", (2, 6)), ("b6", (6,)), ("h2", (2,)), ("c2", (2,)),
            ("h32", (3, 2)), ("c32", (3, 2)),
        ):
            params.add(extra, rng.standard_normal(shape))
        report = grad_check(lambda t: OP_CASES[name](t, mask), params)
        assert report.passed, f"{name} seed {seed}:\n{report}"
        assert max(report.max_rel_err.values()) < 1e-4


def test_every_tape_op_has_a_caller_in_the_package():
    """An op only tests call is code to trust for nothing: every public
    ``Tape`` method but ``backward`` is called as ``tape.<op>(`` in ``src``."""
    package = Path(nestner.__file__).parent
    called = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tape"
            ):
                called.add(node.func.attr)
    ops = {
        name for name, member in vars(Tape).items()
        if callable(member) and not name.startswith("_") and name != "backward"
    }
    assert ops, "no public Tape methods found"
    assert ops - called == set()


def test_every_tagger_method_has_a_caller_outside_the_tests():
    """Likewise for the taggers: every public method of ``CrfTagger`` and
    ``Seq2seqTagger`` is called as ``<x>.<method>(`` in ``src``, in the
    benchmark or in the acceptance criteria."""
    root = Path(nestner.__file__).parent
    repo = root.parent.parent
    sources = [
        *root.glob("*.py"), *(repo / "bench").glob("*.py"), repo / "tests" / "test_acceptance.py"
    ]
    called = set()
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    methods = {
        name for cls in (CrfTagger, Seq2seqTagger) for name in dir(cls)
        if not name.startswith("_") and callable(getattr(cls, name))
    }
    assert {"predict", "step"} <= methods
    assert methods - called == set()


def _reference_lstm(xs, wx, wh, b, h, c):
    """Step-by-step numpy LSTM: the fused op's definition. Returns the
    hidden and the cell state after each row."""
    hidden = wh.shape[0]
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))  # noqa: E731
    hs, cs = [], []
    for x in xs:
        pre = x @ wx + b + h @ wh
        i, f = sig(pre[:hidden]), sig(pre[hidden : 2 * hidden])
        g, o = np.tanh(pre[2 * hidden : 3 * hidden]), sig(pre[3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        hs.append(h)
        cs.append(c)
    return np.array(hs), np.array(cs)


def _reference_gru(xs, wx, wh, b, h):
    """Step-by-step numpy GRU; returns the state after each row."""
    hidden = wh.shape[0]
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))  # noqa: E731
    hs = []
    for x in xs:
        px, ph = x @ wx + b, h @ wh
        z = sig(px[:hidden] + ph[:hidden])
        r = sig(px[hidden : 2 * hidden] + ph[hidden : 2 * hidden])
        n = np.tanh(px[2 * hidden :] + r * ph[2 * hidden :])
        h = z * h + (1.0 - z) * n
        hs.append(h)
    return np.array(hs).reshape(-1, hidden)


class TestRecurrentCells:
    def _params(self, entries, seed):
        return make_params(entries + [("xs", (4, 3)), ("h", (2,)), ("c", (2,))], seed=seed)

    def test_lstm_zero_weights_zero_state_fixed_point(self):
        params = Parameters()
        params.zeros("wx", (2, 8))
        params.zeros("wh", (2, 8))
        params.zeros("b", (8,))
        tape = Tape(params)
        pre = tape.affine(tape.const([[1.0, -1.0]]), tape.param("wx"), tape.param("b"))
        out, cells = tape.lstm(pre, tape.param("wh"))
        np.testing.assert_array_equal(out.value, np.zeros((1, 2)))
        np.testing.assert_array_equal(cells, np.zeros((1, 2)))

    def test_lstm_three_step_chain_matches_fd(self):
        params = make_params(
            [("wx", (3, 8)), ("wh", (2, 8)), ("b", (8,)),
             ("x0", (3,)), ("x1", (3,)), ("x2", (3,))],
            seed=11,
        )

        def loss_fn(tape):
            xs = tape.stack([tape.param(f"x{i}") for i in range(3)])
            pre = tape.affine(xs, tape.param("wx"), tape.param("b"))
            out, _ = tape.lstm(pre, tape.param("wh"))
            return _scalar(tape, tape.gather(out, [2]))

        report = grad_check(loss_fn, params, epsilon=1e-5, tolerance=1e-4)
        assert report.passed, str(report)

    def test_lstm_matches_stepwise_reference(self):
        p = self._params([("wx", (3, 8)), ("wh", (2, 8)), ("b", (8,))], seed=4)
        tape = Tape(p)
        pre = tape.affine(tape.param("xs"), tape.param("wx"), tape.param("b"))
        args = [pre, *(tape.param(n) for n in ("wh", "h", "c"))]
        out, cells = tape.lstm(*args)
        assert isinstance(cells, np.ndarray)  # the cell states take no gradient
        ref_out, ref_cells = _reference_lstm(p["xs"], p["wx"], p["wh"], p["b"], p["h"], p["c"])
        np.testing.assert_allclose(out.value, ref_out, atol=1e-12)
        np.testing.assert_allclose(cells, ref_cells, atol=1e-12)
        back, back_cells = tape.lstm(*args, reverse=True)
        ref_back, ref_cells = _reference_lstm(
            p["xs"][::-1], p["wx"], p["wh"], p["b"], p["h"], p["c"]
        )
        np.testing.assert_allclose(back.value, ref_back[::-1], atol=1e-12)
        np.testing.assert_allclose(back_cells, ref_cells[::-1], atol=1e-12)

    def test_gru_three_step_chain_matches_fd(self):
        params = make_params(
            [("wx", (3, 6)), ("wh", (2, 6)), ("b", (6,)),
             ("x0", (3,)), ("x1", (3,)), ("x2", (3,))],
            seed=12,
        )

        def loss_fn(tape):
            xs = tape.stack([tape.param(f"x{i}") for i in range(3)])
            pre = tape.affine(xs, tape.param("wx"), tape.param("b"))
            return _scalar(tape, tape.gather(tape.gru(pre, tape.param("wh")), [2]))

        report = grad_check(loss_fn, params, epsilon=1e-5, tolerance=1e-4)
        assert report.passed, str(report)

    def test_gru_matches_stepwise_reference(self):
        p = self._params([("wx", (3, 6)), ("wh", (2, 6)), ("b", (6,))], seed=6)
        tape = Tape(p)
        wx, wh, b = (tape.param(n) for n in ("wx", "wh", "b"))
        pre = tape.affine(tape.param("xs"), wx, b)
        h0 = np.zeros(2)
        ref = _reference_gru(p["xs"], p["wx"], p["wh"], p["b"], h0)
        np.testing.assert_allclose(tape.gru(pre, wh).value, ref, atol=1e-12)
        ref_back = _reference_gru(p["xs"][::-1], p["wx"], p["wh"], p["b"], h0)
        np.testing.assert_allclose(
            tape.gru(pre, wh, reverse=True).value, ref_back[::-1], atol=1e-12
        )
        empty = tape.gru(tape.affine(tape.const(np.zeros((0, 3))), wx, b), wh)
        assert empty.shape == (0, 2)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_packed_gru_matches_separate_calls(self, reverse):
        for lengths in ([2, 4, 0, 3], [1, 1, 1]):
            n = sum(lengths)
            p = make_params([("xs", (n, 3)), ("wx", (3, 6)), ("wh", (2, 6)), ("b", (6,))], seed=8)
            tape = Tape(p)
            wx, wh, b = (tape.param(name) for name in ("wx", "wh", "b"))
            packed = tape.gru(
                tape.affine(tape.param("xs"), wx, b), wh, reverse=reverse, lengths=lengths
            )
            bounds = np.cumsum([0, *lengths])
            separate = [
                tape.gru(tape.affine(tape.const(p["xs"][lo:hi]), wx, b), wh, reverse=reverse).value
                for lo, hi in zip(bounds, bounds[1:])
            ]
            assert packed.shape == (n, 2)
            np.testing.assert_allclose(packed.value, np.concatenate(separate), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_packed_lstm_matches_separate_calls(self, reverse):
        """Hidden and cell states and every gradient of one packed call
        equal those of one call per sequence; an empty sequence adds no
        row, and its initial state takes no gradient."""
        for lengths in ([2, 4, 0, 3], [1, 1, 1]):
            self._check_packed_lstm(reverse, lengths)

    def _check_packed_lstm(self, reverse, lengths):
        n = sum(lengths)
        p = make_params(
            [("xs", (n, 3)), ("wx", (3, 8)), ("wh", (2, 8)), ("b", (8,)),
             ("h0", (len(lengths), 2)), ("c0", (len(lengths), 2))],
            seed=8,
        )
        bounds = np.cumsum([0, *lengths])
        finals = [lo if reverse else hi - 1 for lo, hi in zip(bounds, bounds[1:]) if hi > lo]

        def loss(tape, rows):
            # every output row and every sequence's final state reach the loss,
            # each a (1, 2) row, end to end
            picked = [rows[f] for f in np.resize(finals, n)]
            return tape.softmax_cross_entropy(tape.tanh(tape.concat([*rows, *picked])), [3])

        tape = Tape(p)
        wx, wh, b = (tape.param(name) for name in ("wx", "wh", "b"))
        out, cells = tape.lstm(
            tape.affine(tape.param("xs"), wx, b), wh, tape.param("h0"), tape.param("c0"),
            reverse=reverse, lengths=lengths,
        )
        packed = tape.backward(loss(tape, [tape.gather(out, [r]) for r in range(n)]))
        assert out.shape == cells.shape == (n, 2)
        for i, length in enumerate(lengths):
            assert packed.materialize("h0", p["h0"].shape)[i].any() == (length > 0)

        tape = Tape(p)
        wx, wh, b = (tape.param(name) for name in ("wx", "wh", "b"))
        rows = []
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            one_out, one_cells = tape.lstm(
                tape.affine(tape.gather(tape.param("xs"), list(range(lo, hi))), wx, b), wh,
                tape.gather(tape.param("h0"), [i]), tape.gather(tape.param("c0"), [i]),
                reverse=reverse,
            )
            np.testing.assert_allclose(one_out.value, out.value[lo:hi], rtol=0, atol=1e-15)
            np.testing.assert_allclose(one_cells, cells[lo:hi], rtol=0, atol=1e-15)
            rows.extend(tape.gather(one_out, [t]) for t in range(hi - lo))
        separate = tape.backward(loss(tape, rows))
        for name, arr in p.items():
            np.testing.assert_allclose(
                packed.materialize(name, arr.shape), separate.materialize(name, arr.shape),
                rtol=0, atol=1e-15, err_msg=name,
            )

    def test_identity_packings_are_read_in_place(self):
        """One sequence, or sequences of one row each, are laid out as
        slices, with no sort and no gather; other lengths are sorted."""
        for lengths in (None, [5], [1] * 5):
            for reverse in (False, True):
                pack = _pack(5, lengths, reverse)
                assert isinstance(pack.rows, slice) and isinstance(pack.order, slice)
                one_sequence_reversed = reverse and lengths != [1] * 5
                expected = [4, 3, 2, 1, 0] if one_sequence_reversed else [0, 1, 2, 3, 4]
                assert pack.unpacked(np.arange(5)).tolist() == expected
        pack = _pack(3, [2, 1], False)
        assert isinstance(pack.rows, np.ndarray) and isinstance(pack.order, np.ndarray)
        assert pack.rows.tolist() == [0, 2, 1] and pack.bounds == [0, 2, 3]

    def test_gru_saturated_update_gate_keeps_state(self):
        hidden = 3
        params = Parameters()
        rng = np.random.default_rng(5)
        wx = rng.standard_normal((2, 3 * hidden))
        wx[1, :hidden] = 50.0  # the second input feature saturates the update gate at 1
        params.add("wx", wx)
        params.add("wh", rng.standard_normal((hidden, 3 * hidden)) * 0.1)
        params.zeros("b", (3 * hidden,))
        tape = Tape(params)
        wx, wh, b = (tape.param(name) for name in ("wx", "wh", "b"))
        first = tape.gru(tape.affine(tape.const([[1.0, 0.0]]), wx, b), wh)
        both = tape.gru(tape.affine(tape.const([[1.0, 0.0], [0.0, 1.0]]), wx, b), wh)
        assert np.abs(first.value).min() > 1e-3
        np.testing.assert_allclose(both.value[1], first.value[0], atol=1e-9)


def _enumerated_crf(emissions, trans):
    """log Z of a linear-chain CRF and its gradients, by summing over every
    label path in float64: the definition the forward algorithm computes.

    Returns ``(log_z, d_emissions, d_trans)``; ``d_trans`` is the whole
    (k+2, k+2) matrix, zero in the start column and the stop row, which no
    path uses.
    """
    e = np.asarray(emissions, dtype=np.float64)
    a = np.asarray(trans, dtype=np.float64)
    n, k = e.shape
    paths = np.array(list(itertools.product(range(k), repeat=n)))
    steps = (paths[:, :-1], paths[:, 1:])
    scores = (
        a[k, paths[:, 0]] + e[np.arange(n), paths].sum(axis=1)
        + a[steps].sum(axis=1) + a[paths[:, -1], k + 1]
    )
    top = scores.max()
    weights = np.exp(scores - top)
    log_z = top + np.log(weights.sum())
    prob = weights / weights.sum()
    d_e = np.zeros_like(e)
    for t in range(n):
        np.add.at(d_e[t], paths[:, t], prob)
    d_a = np.zeros_like(a)
    np.add.at(d_a, (k, paths[:, 0]), prob)
    for t in range(n - 1):
        np.add.at(d_a, (paths[:, t], paths[:, t + 1]), prob)
    np.add.at(d_a, (paths[:, -1], k + 1), prob)
    return log_z, d_e, d_a


class TestCrf:
    def test_crf_nll_is_log_partition_minus_gold_score(self):
        rng = np.random.default_rng(3)
        emissions, trans = rng.standard_normal((4, 3)), rng.standard_normal((5, 5))
        tape = Tape(Parameters())
        e, a = tape.const(emissions), tape.const(trans)
        path = [2, 0, 0, 1]
        gold = trans[3, 2] + trans[2, 0] + trans[0, 0] + trans[0, 1] + trans[1, 4]
        gold += sum(emissions[t, p] for t, p in enumerate(path))
        log_z = float(tape.crf_nll(e, a).value)
        assert float(tape.crf_nll(e, a, path).value) == pytest.approx(log_z - gold, abs=1e-12)

    def _fused(self, emissions, trans, dtype=np.float64):
        params = Parameters(dtype)
        params.add("e", emissions)
        params.add("a", trans)
        tape = Tape(params)
        log_z = tape.crf_nll(tape.param("e"), tape.param("a"))
        grads = tape.backward(log_z)
        return log_z.value, grads.dense["e"], grads.dense["a"]

    def test_log_partition_matches_path_enumeration(self):
        rng = np.random.default_rng(8)
        emissions, trans = rng.standard_normal((6, 4)) * 5, rng.standard_normal((6, 6)) * 5
        log_z, d_e, d_a = self._fused(emissions, trans)
        ref_log_z, ref_d_e, ref_d_a = _enumerated_crf(emissions, trans)
        assert float(log_z) == pytest.approx(ref_log_z, abs=1e-10)
        np.testing.assert_allclose(d_e, ref_d_e, rtol=0, atol=1e-10)
        np.testing.assert_allclose(d_a, ref_d_a, rtol=0, atol=1e-10)

    def test_float32_large_gaps_match_path_enumeration(self):
        # gaps of hundreds of nats: exp-space terms underflow in float32
        rng = np.random.default_rng(2)
        emissions = (rng.standard_normal((7, 4)) * 60).astype(np.float32)
        trans = (rng.standard_normal((6, 6)) * 60).astype(np.float32)
        log_z, d_e, d_a = self._fused(emissions, trans, np.float32)
        ref_log_z, ref_d_e, ref_d_a = _enumerated_crf(emissions, trans)

        assert np.isfinite(log_z)
        assert float(log_z) == pytest.approx(ref_log_z, rel=1e-6)
        # the log-space chain runs in float64: only the cast to float32 is off
        close = dict(rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(d_e, ref_d_e, **close)
        np.testing.assert_allclose(d_a, ref_d_a, **close)


class TestPackedCrf:
    """One :meth:`Tape.crf_nll` call over consecutive sentences of mixed
    lengths, against one call per sentence and the enumeration oracle."""

    LENGTHS = [3, 1, 5, 1, 4]

    @staticmethod
    def _run(emissions, trans, lengths, path=None, dtype=np.float64):
        params = Parameters(dtype)
        params.add("e", emissions)
        params.add("a", trans)
        tape = Tape(params)
        out = tape.crf_nll(tape.param("e"), tape.param("a"), path, lengths)
        grads = tape.backward(out)
        return float(out.value), grads.dense["e"], grads.dense["a"]

    @staticmethod
    def _watch_underflow(monkeypatch) -> list:
        """Whether each forward or backward step had an entry that took the
        exact logsumexp fallback, by the op's own criterion."""
        seen = []
        original = nestner.autodiff._log_matmul

        def watched(v, log_w, exp_w, w_max):
            s = np.exp(v - v.max(axis=1, keepdims=True)) @ exp_w
            info = np.finfo(s.dtype)
            seen.append(bool((s < info.tiny / info.eps).any()))
            return original(v, log_w, exp_w, w_max)

        monkeypatch.setattr(nestner.autodiff, "_log_matmul", watched)
        return seen

    @staticmethod
    def _wide(trans, k) -> bool:
        """Whether the transition block is too wide for the counts GEMM, so
        backward sums the step marginals one step at a time."""
        return np.ptp(trans[:k, :k]) >= -0.5 * np.log(np.finfo(trans.dtype).tiny)

    @pytest.mark.parametrize("spread", [1.0, 400.0])
    def test_matches_per_sentence_calls(self, monkeypatch, spread):
        rng = np.random.default_rng(13)
        k, n = 4, sum(self.LENGTHS)
        emissions = rng.standard_normal((n, k)) * spread
        trans = rng.standard_normal((k + 2, k + 2)) * spread
        path = rng.integers(0, k, n)
        seen = self._watch_underflow(monkeypatch)
        value, d_e, d_a = self._run(emissions, trans, self.LENGTHS, path)
        # a spread of 400 takes both exact branches: underflowed entries
        # and per-step marginals
        assert any(seen) == self._wide(trans, k) == (spread > 1.0)
        total, ref_e, ref_a = 0.0, np.zeros_like(d_e), np.zeros_like(d_a)
        bounds = np.cumsum([0, *self.LENGTHS])
        for lo, hi in zip(bounds, bounds[1:]):
            one, one_e, one_a = self._run(emissions[lo:hi], trans, None, path[lo:hi])
            total += one
            ref_e[lo:hi] = one_e
            ref_a += one_a
        assert value == pytest.approx(total, rel=1e-12)
        np.testing.assert_allclose(d_e, ref_e, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_a, ref_a, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "dtype, spread, chain, rel, close",
        [
            (np.float64, 3.0, "_scaled_chain", 1e-12, dict(rtol=0, atol=1e-10)),
            # the log-space chain runs in float64: only the cast to float32 is off
            (np.float32, 60.0, "_log_chain", 1e-6, dict(rtol=1e-6, atol=1e-6)),
        ],
    )
    def test_log_partition_matches_path_enumeration(self, dtype, spread, chain, rel, close):
        rng = np.random.default_rng(21)
        k, n = 4, sum(self.LENGTHS)
        emissions = (rng.standard_normal((n, k)) * spread).astype(dtype)
        trans = (rng.standard_normal((k + 2, k + 2)) * spread).astype(dtype)
        value, d_e, d_a, ran = TestCrfRegimes._run_watched(emissions, trans, self.LENGTHS)
        assert ran == [chain]
        total, ref_e, ref_a = 0.0, np.zeros(d_e.shape), np.zeros(d_a.shape)
        bounds = np.cumsum([0, *self.LENGTHS])
        for lo, hi in zip(bounds, bounds[1:]):
            log_z, one_e, one_a = _enumerated_crf(emissions[lo:hi], trans)
            total += log_z
            ref_e[lo:hi] = one_e
            ref_a += one_a
        assert value == pytest.approx(total, rel=rel)
        np.testing.assert_allclose(d_e, ref_e, **close)
        np.testing.assert_allclose(d_a, ref_a, **close)


def _spanning(rng, shape, span):
    """Uniform values whose largest minus smallest is ``span`` (0 for one value)."""
    x = rng.random(shape)
    spread = x.max() - x.min()
    return rng.normal() + (x - x.min()) * (span / spread if spread else 0.0)


def _path_scale(emissions, trans):
    """The largest magnitude a term of one path's score can have, summed
    over the path: a log Z near zero is a difference of terms this size."""
    return float(np.abs(emissions).max(axis=1).sum() + 2 * len(emissions) * np.abs(trans).max())


@st.composite
def crf_regimes(draw):
    """Packed CRF inputs on both sides of the scaled path's condition: 1-5
    sentences of 1-5 rows, k <= 4, emissions spread up to hundreds of nats,
    and a transition block and a stop column
    spanning just below or just above ``_scaled_span`` of the dtype."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bound = _scaled_span(dtype)
    inner_span, stop_span = (
        bound * draw(st.sampled_from([0.999, 1.001])) for _ in range(2)
    )
    emission_spread = draw(st.sampled_from([0.5, 5.0, 50.0, 300.0]))
    emissions = rng.standard_normal((sum(lengths), k)) * emission_spread
    trans = rng.standard_normal((k + 2, k + 2)) * 3.0
    trans[:k, :k] = _spanning(rng, (k, k), inner_span)
    trans[:k, k + 1] = _spanning(rng, k, stop_span)
    return emissions.astype(dtype), trans.astype(dtype), lengths


class TestCrfRegimes:
    """:meth:`Tape.crf_nll` runs scaled while the transition block spans
    less than ``_scaled_span`` of the dtype, and in log space otherwise;
    both agree with the enumeration oracle, and with each other where both
    apply."""

    @staticmethod
    def _run_watched(emissions, trans, lengths, scaled_span=_scaled_span):
        """The op's value and gradients, and the chain each call ran."""
        ran = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_scaled_chain", "_log_chain"):
                chain = getattr(nestner.autodiff, name)
                patch.setattr(
                    nestner.autodiff, name,
                    lambda *args, chain=chain, name=name: ran.append(name) or chain(*args),
                )
            patch.setattr(nestner.autodiff, "_scaled_span", scaled_span)
            value, d_e, d_a = TestPackedCrf._run(
                emissions, trans, lengths, dtype=emissions.dtype.type
            )
        return value, d_e, d_a, ran

    @given(crf_regimes())
    @settings(max_examples=60, deadline=None)
    def test_log_partition_matches_path_enumeration(self, regime):
        emissions, trans, lengths = regime
        k = emissions.shape[1]
        value, d_e, d_a, ran = self._run_watched(emissions, trans, lengths)
        scaled = np.ptp(trans[:k, :k]) < _scaled_span(trans.dtype)  # the stop column is free
        assert ran == ["_scaled_chain" if scaled else "_log_chain"]
        total, ref_e, ref_a = 0.0, np.zeros(d_e.shape), np.zeros(d_a.shape)
        bounds = np.cumsum([0, *lengths])
        for lo, hi in zip(bounds, bounds[1:]):
            log_z, one_e, one_a = _enumerated_crf(emissions[lo:hi], trans)
            total += log_z
            ref_e[lo:hi] = one_e
            ref_a += one_a
        if emissions.dtype == np.float64:
            rel, close = 1e-12, dict(rtol=0, atol=1e-10)
        else:  # float32 rounding in the scaled chain, the cast after the log chain
            rel, close = 1e-6, dict(rtol=1e-5, atol=1e-5)
        assert value == pytest.approx(total, rel=rel, abs=rel * _path_scale(emissions, trans))
        np.testing.assert_allclose(d_e, ref_e, **close)
        np.testing.assert_allclose(d_a, ref_a, **close)

    @given(crf_regimes())
    @settings(max_examples=60, deadline=None)
    def test_scaled_path_matches_log_space_path(self, regime):
        emissions, trans, lengths = regime
        k = emissions.shape[1]
        if np.ptp(trans[:k, :k]) >= _scaled_span(trans.dtype):
            trans[:k, :k] *= 0.99 * _scaled_span(trans.dtype) / np.ptp(trans[:k, :k])
        value, d_e, d_a, ran = self._run_watched(emissions, trans, lengths)
        log_value, log_e, log_a, log_ran = self._run_watched(
            emissions, trans, lengths, scaled_span=lambda dtype: -np.inf
        )
        assert (ran, log_ran) == (["_scaled_chain"], ["_log_chain"])
        if emissions.dtype == np.float64:
            rel, close = 1e-12, dict(rtol=1e-9, atol=1e-12)
        else:
            rel, close = 1e-6, dict(rtol=1e-5, atol=1e-5)
        assert value == pytest.approx(log_value, rel=rel, abs=rel * _path_scale(emissions, trans))
        np.testing.assert_allclose(d_e, log_e, **close)
        np.testing.assert_allclose(d_a, log_a, **close)


class TestGradCheckReport:
    def test_corrupted_gradient_reported_by_name(self):
        params = make_params([("good", (3,)), ("evil", (3,))], seed=3)

        def loss_fn(tape):
            a = tape.tanh(tape.param("good"))
            b = tape.param("evil")
            # a deliberately wrong backward: claims d(sum(2b))/db == 1
            wrong = tape._new(2.0 * b.value, lambda g, grads: grads.__setitem__(b.idx, g))
            return _scalar(tape, tape.concat([a, wrong]))

        report = grad_check(loss_fn, params)
        assert not report.passed
        assert report.failures == ["evil"]
        assert "FAIL" in str(report)

    def test_linear_model_error_near_machine_precision(self):
        params = make_params([("w", (4, 1)), ("b", (1,))], seed=8)
        x = np.arange(8.0).reshape(2, 4)
        report = grad_check(
            lambda t: _column_sum(t, t.affine(t.const(x), t.param("w"), t.param("b"))), params
        )
        assert max(report.max_rel_err.values()) < 1e-9


class TestGradients:
    def test_nonfinite_names(self):
        grads = Gradients()
        grads.dense["ok"] = np.ones(2)
        grads.dense["bad"] = np.array([1.0, np.nan])
        grads.rows["worse"] = RowGradient(np.array([0]), np.array([[np.inf]]))
        grads.rows["fine"] = RowGradient(np.array([2]), np.array([[1.0]]))
        assert grads.nonfinite_names() == ["bad", "worse"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_nonfinite_value_is_found_in_dense_and_row_gradients(self, bad, dtype):
        grads = Gradients()
        grads.dense["clean"] = np.arange(6, dtype=dtype).reshape(2, 3)
        grads.dense["dense"] = np.arange(6, dtype=dtype).reshape(2, 3)
        grads.dense["dense"][1, 1] = bad
        grads.rows["rows"] = RowGradient(np.array([1, 4]), np.ones((2, 3), dtype=dtype))
        grads.rows["rows"].values[0, 2] = bad
        grads.rows["empty"] = RowGradient(np.zeros(0, np.intp), np.zeros((0, 3), dtype=dtype))
        assert grads.nonfinite_names() == ["dense", "rows"]

    def test_materialize_combines_rows(self):
        grads = Gradients()
        grads.rows["t"] = RowGradient(np.array([0, 2]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = grads.materialize("t", (3, 2))
        np.testing.assert_array_equal(out, [[1, 2], [0, 0], [3, 4]])
