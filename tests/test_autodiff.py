import math

import numpy as np
import pytest

from nestner.autodiff import Gradients, Parameters, RowGradient, Tape, dropout_mask, grad_check


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

    def test_uniform_bound_follows_fan_in(self):
        params = Parameters()
        rng = np.random.default_rng(1)
        arr = params.uniform("w", (100, 3), rng)
        assert np.all(np.abs(arr) <= math.sqrt(1 / 100))

    def test_copy_and_load_state(self):
        params = make_params([("w", (3,))])
        snapshot = params.copy()
        params["w"][:] += 1.0
        assert not np.array_equal(params["w"], snapshot["w"])
        params.load_state(snapshot)
        np.testing.assert_array_equal(params["w"], snapshot["w"])


class TestForwardValues:
    def test_logsumexp_of_two_zeros(self):
        tape = Tape(Parameters())
        out = tape.logsumexp(tape.const([0.0, 0.0]))
        assert out.value == pytest.approx(math.log(2), abs=1e-12)

    def test_logsumexp_no_overflow(self):
        tape = Tape(Parameters())
        out = tape.logsumexp(tape.const([1000.0, 1000.0]))
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

    def test_dropout_mask_statistics(self):
        rng = np.random.default_rng(4)
        mask = dropout_mask(rng, 10000, 0.5)
        kept = mask > 0
        assert 0.45 < kept.mean() < 0.55
        np.testing.assert_allclose(mask[kept], 2.0)
        np.testing.assert_array_equal(dropout_mask(rng, 5, 0.0), np.ones(5))


class TestBackward:
    def test_sum_gives_ones(self):
        params = make_params([("p", (4,))])
        tape = Tape(params)
        grads = tape.backward(tape.sum(tape.param("p")))
        np.testing.assert_array_equal(grads.dense["p"], np.ones(4))

    def test_unused_parameter_untouched(self):
        params = make_params([("used", (2,)), ("unused", (2,))])
        tape = Tape(params)
        grads = tape.backward(tape.sum(tape.param("used")))
        assert grads.touched("used")
        assert not grads.touched("unused")
        np.testing.assert_array_equal(grads.materialize("unused", (2,)), np.zeros(2))

    def test_lookup_rows_tracked_sparsely(self):
        params = make_params([("table", (5, 3))])
        tape = Tape(params)
        loss = tape.sum(tape.add(tape.lookup("table", 3), tape.lookup("table", 1)))
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads.rows["table"].ids, [1, 3])
        np.testing.assert_array_equal(grads.rows["table"].values, np.ones((2, 3)))
        assert len(grads.rows["table"]) == 2
        assert "table" not in grads.dense

    def test_repeated_lookup_accumulates(self):
        params = make_params([("table", (2, 2))])
        tape = Tape(params)
        row = tape.lookup("table", 0)
        rows = tape.lookup("table", [1, 0])
        loss = tape.add(tape.sum(tape.add(row, tape.lookup("table", 0))), tape.sum(rows))
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads.rows["table"].ids, [0, 1])
        np.testing.assert_array_equal(grads.rows["table"].values, [[3.0, 3.0], [1.0, 1.0]])

    def test_two_layer_net_matches_fd(self):
        params = make_params([("w1", (4, 3)), ("b1", (3,)), ("w2", (3, 2)), ("b2", (2,)), ("x", (4,))])

        def loss_fn(tape):
            h = tape.tanh(tape.affine(tape.param("x"), tape.param("w1"), tape.param("b1")))
            out = tape.affine(h, tape.param("w2"), tape.param("b2"))
            return tape.logsumexp(out)

        report = grad_check(loss_fn, params)
        assert report.passed, str(report)
        assert max(report.max_rel_err.values()) < 1e-7

    def test_determinism_bit_identical(self):
        params = make_params([("w", (6, 6)), ("b", (6,)), ("x", (6,))], seed=9)

        def run():
            tape = Tape(params)
            h = tape.tanh(tape.affine(tape.param("x"), tape.param("w"), tape.param("b")))
            loss = tape.logsumexp(h)
            grads = tape.backward(loss)
            return float(loss.value), grads.dense["w"].tobytes()

        assert run() == run()


def _lstm_loss(t, reverse=False):
    out, (h, c) = t.lstm(
        t.param("s43"), t.param("wx38"), t.param("wh28"), t.param("b8"),
        t.param("h2"), t.param("c2"), reverse=reverse,
    )
    return t.add(t.sum(t.tanh(out)), t.logsumexp(t.concat([h, c])))


def _gru_loss(t, reverse=False):
    h = t.gru(t.param("s43"), t.param("wx36"), t.param("wh26"), t.param("b6"), reverse=reverse)
    return t.logsumexp(h)


def _packed_gru_loss(t, reverse=False):
    # the longest sequence last, so packing reorders; a per-row target, so a
    # final state returned to the wrong sequence changes the loss
    h = t.gru(
        t.param("s43"), t.param("wx36"), t.param("wh26"), t.param("b6"),
        reverse=reverse, lengths=[1, 0, 3],
    )
    return t.softmax_cross_entropy(h, [1, 0, 1])


OP_CASES = {
    "add": lambda t, p: t.sum(t.add(t.param("a3"), t.param("b3"))),
    "add_n": lambda t, p: t.sum(t.add_n([t.param("a3"), t.param("b3"), t.param("a3")])),
    "scale": lambda t, p: t.sum(t.scale(t.param("a3"), -2.5)),
    "affine": lambda t, p: t.sum(t.affine(t.param("a3"), t.param("m34"), t.param("b4"))),
    "affine_rows": lambda t, p: t.sum(
        t.tanh(t.affine(t.param("m33"), t.param("m34"), t.param("b4")))
    ),
    "affine_shared_weight": lambda t, p: t.sum(t.tanh(t.add(
        t.affine(t.param("a3"), t.param("m34"), t.param("b4")),
        t.affine(t.param("b3"), t.param("m34"), t.param("b4")),
    ))),
    "tanh": lambda t, p: t.sum(t.tanh(t.param("a3"))),
    "concat": lambda t, p: t.logsumexp(t.concat([t.param("a3"), t.param("b3")])),
    "concat_rows": lambda t, p: t.sum(t.tanh(t.concat([t.param("m33"), t.param("m34")]))),
    "stack": lambda t, p: t.sum(t.tanh(t.stack([t.param("a3"), t.param("b3"), t.param("a3")]))),
    "gather": lambda t, p: t.sum(t.tanh(t.gather(t.param("m34"), [2, 0, 2]))),
    "gather_row": lambda t, p: t.logsumexp(t.gather(t.param("m34"), 1)),
    "sum": lambda t, p: t.sum(t.param("m34_flat")),
    "logsumexp": lambda t, p: t.logsumexp(t.param("a3")),
    "softmax_cross_entropy": lambda t, p: t.softmax_cross_entropy(t.param("b4"), 2),
    "softmax_cross_entropy_rows": lambda t, p: t.softmax_cross_entropy(
        t.param("m34"), [2, 0, 3]
    ),
    "dropout": lambda t, p: t.sum(t.dropout(t.param("a3"), p)),
    "crf_step": lambda t, p: t.sum(t.crf_step(t.param("a3"), t.param("m33"))),
    "crf_nll": lambda t, p: t.crf_nll(t.param("m34"), t.param("m66"), [1, 3, 1]),
    "crf_nll_one_token": lambda t, p: t.crf_nll(t.gather(t.param("m34"), [2]), t.param("m66"), [0]),
    "crf_nll_repeated_transition": lambda t, p: t.crf_nll(
        t.gather(t.param("m34"), [0, 1, 0, 2, 1]), t.param("m66"), [2, 2, 2, 1, 1]
    ),
    "crf_log_partition": lambda t, p: t.crf_nll(t.param("m34"), t.param("m66")),
    "lookup": lambda t, p: t.logsumexp(t.lookup("m34", 1)),
    "lookup_rows": lambda t, p: t.sum(t.tanh(t.lookup("m34", [1, 2, 1]))),
    "lstm": lambda t, p: _lstm_loss(t),
    "lstm_reverse": lambda t, p: _lstm_loss(t, reverse=True),
    "lstm_cell_state_only": lambda t, p: t.logsumexp(
        t.lstm(t.param("a3"), t.param("wx38"), t.param("wh28"), t.param("b8"))[1][1]
    ),
    "gru": lambda t, p: _gru_loss(t),
    "gru_reverse": lambda t, p: _gru_loss(t, reverse=True),
    "gru_shared_weights": lambda t, p: t.add(_gru_loss(t), _gru_loss(t, reverse=True)),
    "gru_packed": lambda t, p: _packed_gru_loss(t),
    "gru_packed_reverse": lambda t, p: _packed_gru_loss(t, reverse=True),
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
        params.add("m34_flat", rng.standard_normal(12))
        for extra, shape in (
            ("m66", (6, 6)), ("s43", (4, 3)), ("wx38", (3, 8)), ("wh28", (2, 8)), ("b8", (8,)),
            ("wx36", (3, 6)), ("wh26", (2, 6)), ("b6", (6,)), ("h2", (2,)), ("c2", (2,)),
        ):
            params.add(extra, rng.standard_normal(shape))
        report = grad_check(lambda t: OP_CASES[name](t, mask), params)
        assert report.passed, f"{name} seed {seed}:\n{report}"
        assert max(report.max_rel_err.values()) < 1e-4


def _reference_lstm(xs, wx, wh, b, h, c):
    """Step-by-step numpy LSTM: the fused op's definition."""
    hidden = wh.shape[0]
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))  # noqa: E731
    out = []
    for x in xs:
        pre = x @ wx + b + h @ wh
        i, f = sig(pre[:hidden]), sig(pre[hidden : 2 * hidden])
        g, o = np.tanh(pre[2 * hidden : 3 * hidden]), sig(pre[3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    return np.array(out), h, c


def _reference_gru(xs, wx, wh, b, h):
    hidden = wh.shape[0]
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))  # noqa: E731
    for x in xs:
        px, ph = x @ wx + b, h @ wh
        z = sig(px[:hidden] + ph[:hidden])
        r = sig(px[hidden : 2 * hidden] + ph[hidden : 2 * hidden])
        n = np.tanh(px[2 * hidden :] + r * ph[2 * hidden :])
        h = z * h + (1.0 - z) * n
    return h


class TestRecurrentCells:
    def _params(self, entries, seed):
        return make_params(entries + [("xs", (4, 3)), ("h", (2,)), ("c", (2,))], seed=seed)

    def test_lstm_zero_weights_zero_state_fixed_point(self):
        params = Parameters()
        params.zeros("wx", (2, 8))
        params.zeros("wh", (2, 8))
        params.zeros("b", (8,))
        tape = Tape(params)
        out, (h, c) = tape.lstm(
            tape.const([1.0, -1.0]), tape.param("wx"), tape.param("wh"), tape.param("b")
        )
        np.testing.assert_array_equal(out.value, np.zeros((1, 2)))
        np.testing.assert_array_equal(h.value, np.zeros(2))
        np.testing.assert_array_equal(c.value, np.zeros(2))

    def test_lstm_three_step_chain_matches_fd(self):
        params = make_params(
            [("wx", (3, 8)), ("wh", (2, 8)), ("b", (8,)),
             ("x0", (3,)), ("x1", (3,)), ("x2", (3,))],
            seed=11,
        )

        def loss_fn(tape):
            xs = tape.stack([tape.param(f"x{i}") for i in range(3)])
            _, (h, _) = tape.lstm(xs, tape.param("wx"), tape.param("wh"), tape.param("b"))
            return tape.logsumexp(h)

        report = grad_check(loss_fn, params, epsilon=1e-5, tolerance=1e-4)
        assert report.passed, str(report)

    def test_lstm_matches_stepwise_reference(self):
        p = self._params([("wx", (3, 8)), ("wh", (2, 8)), ("b", (8,))], seed=4)
        tape = Tape(p)
        args = [tape.param(n) for n in ("xs", "wx", "wh", "b", "h", "c")]
        out, (h, c) = tape.lstm(*args)
        ref_out, ref_h, ref_c = _reference_lstm(p["xs"], p["wx"], p["wh"], p["b"], p["h"], p["c"])
        np.testing.assert_allclose(out.value, ref_out, atol=1e-12)
        np.testing.assert_allclose(h.value, ref_h, atol=1e-12)
        np.testing.assert_allclose(c.value, ref_c, atol=1e-12)
        back, (h_back, c_back) = tape.lstm(*args, reverse=True)
        ref_back, ref_h, ref_c = _reference_lstm(p["xs"][::-1], p["wx"], p["wh"], p["b"], p["h"], p["c"])
        np.testing.assert_allclose(back.value, ref_back[::-1], atol=1e-12)
        np.testing.assert_allclose(h_back.value, ref_h, atol=1e-12)
        np.testing.assert_allclose(c_back.value, ref_c, atol=1e-12)

    def test_gru_three_step_chain_matches_fd(self):
        params = make_params(
            [("wx", (3, 6)), ("wh", (2, 6)), ("b", (6,)),
             ("x0", (3,)), ("x1", (3,)), ("x2", (3,))],
            seed=12,
        )

        def loss_fn(tape):
            xs = tape.stack([tape.param(f"x{i}") for i in range(3)])
            return tape.logsumexp(tape.gru(xs, tape.param("wx"), tape.param("wh"), tape.param("b")))

        report = grad_check(loss_fn, params, epsilon=1e-5, tolerance=1e-4)
        assert report.passed, str(report)

    def test_gru_matches_stepwise_reference(self):
        p = self._params([("wx", (3, 6)), ("wh", (2, 6)), ("b", (6,))], seed=6)
        tape = Tape(p)
        args = [tape.param(n) for n in ("xs", "wx", "wh", "b")]
        h0 = np.zeros(2)
        ref = _reference_gru(p["xs"], p["wx"], p["wh"], p["b"], h0)
        np.testing.assert_allclose(tape.gru(*args).value, ref, atol=1e-12)
        ref_back = _reference_gru(p["xs"][::-1], p["wx"], p["wh"], p["b"], h0)
        np.testing.assert_allclose(tape.gru(*args, reverse=True).value, ref_back, atol=1e-12)
        empty = tape.gru(tape.const(np.zeros((0, 3))), *args[1:])
        np.testing.assert_array_equal(empty.value, np.zeros(2))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_packed_gru_matches_separate_calls(self, reverse):
        p = make_params([("xs", (9, 3)), ("wx", (3, 6)), ("wh", (2, 6)), ("b", (6,))], seed=8)
        lengths = [2, 4, 0, 3]
        tape = Tape(p)
        weights = [tape.param(name) for name in ("wx", "wh", "b")]
        packed = tape.gru(tape.param("xs"), *weights, reverse=reverse, lengths=lengths)
        bounds = np.cumsum([0, *lengths])
        separate = [
            tape.gru(tape.const(p["xs"][a:b]), *weights, reverse=reverse).value
            for a, b in zip(bounds, bounds[1:])
        ]
        assert packed.shape == (4, 2)
        np.testing.assert_allclose(packed.value, np.stack(separate), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(packed.value[2], np.zeros(2))

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
        weights = [tape.param(name) for name in ("wx", "wh", "b")]
        first = tape.gru(tape.const([[1.0, 0.0]]), *weights)
        both = tape.gru(tape.const([[1.0, 0.0], [0.0, 1.0]]), *weights)
        assert np.abs(first.value).min() > 1e-3
        np.testing.assert_allclose(both.value, first.value, atol=1e-9)


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

    def test_log_partition_matches_chained_crf_steps(self):
        rng = np.random.default_rng(8)
        emissions, trans = rng.standard_normal((6, 4)) * 5, rng.standard_normal((6, 6)) * 5
        tape = Tape(Parameters())
        alpha = tape.const(emissions[0] + trans[4, :4])
        for row in emissions[1:]:
            alpha = tape.add(tape.crf_step(alpha, tape.const(trans[:4, :4])), tape.const(row))
        chained = tape.logsumexp(tape.add(alpha, tape.const(trans[:4, 5])))
        fused = tape.crf_nll(tape.const(emissions), tape.const(trans))
        assert float(fused.value) == pytest.approx(float(chained.value), abs=1e-10)


    def test_float32_large_gaps_match_chained_crf_steps(self):
        # gaps of hundreds of nats: exp-space terms underflow in float32
        rng = np.random.default_rng(2)
        emissions = (rng.standard_normal((7, 4)) * 60).astype(np.float32)
        trans = (rng.standard_normal((6, 6)) * 60).astype(np.float32)
        fused_params = Parameters(np.float32)
        fused_params.add("e", emissions)
        fused_params.add("a", trans)
        tape = Tape(fused_params)
        fused = tape.crf_nll(tape.param("e"), tape.param("a"))
        fused_grads = tape.backward(fused)

        ref_params = Parameters()
        ref_params.add("e", emissions)
        ref_params.add("start", trans[4, :4])
        ref_params.add("inner", trans[:4, :4])
        ref_params.add("stop", trans[:4, 5])
        tape = Tape(ref_params)
        e, inner = tape.param("e"), tape.param("inner")
        alpha = tape.add(tape.gather(e, 0), tape.param("start"))
        for t in range(1, 7):
            alpha = tape.add(tape.crf_step(alpha, inner), tape.gather(e, t))
        chained = tape.logsumexp(tape.add(alpha, tape.param("stop")))
        ref_grads = tape.backward(chained)

        assert np.isfinite(fused.value)
        assert float(fused.value) == pytest.approx(float(chained.value), rel=1e-6)
        # float32 log scores near 1e3 carry ~1e-4 relative error into the marginals
        close = dict(rtol=3e-4, atol=1e-5)
        d_e, d_a = fused_grads.dense["e"], fused_grads.dense["a"]
        np.testing.assert_allclose(d_e, ref_grads.dense["e"], **close)
        np.testing.assert_allclose(d_a[4, :4], ref_grads.dense["start"], **close)
        np.testing.assert_allclose(d_a[:4, :4], ref_grads.dense["inner"], **close)
        np.testing.assert_allclose(d_a[:4, 5], ref_grads.dense["stop"], **close)


class TestGradCheckReport:
    def test_corrupted_gradient_reported_by_name(self):
        params = make_params([("good", (3,)), ("evil", (3,))], seed=3)

        def loss_fn(tape):
            a = tape.tanh(tape.param("good"))
            b = tape.param("evil")
            # a deliberately wrong backward: claims d(sum(2b))/db == 1
            wrong = tape._new(2.0 * b.value, lambda g, grads: grads.__setitem__(b.idx, g))
            return tape.sum(tape.add(a, wrong))

        report = grad_check(loss_fn, params)
        assert not report.passed
        assert report.failures == ["evil"]
        assert "FAIL" in str(report)

    def test_linear_model_error_near_machine_precision(self):
        params = make_params([("w", (4, 1)), ("b", (1,))], seed=8)
        x = np.arange(4.0)
        report = grad_check(lambda t: t.sum(t.affine(t.const(x), t.param("w"), t.param("b"))), params)
        assert max(report.max_rel_err.values()) < 1e-9


class TestGradients:
    def test_nonfinite_names(self):
        grads = Gradients()
        grads.dense["ok"] = np.ones(2)
        grads.dense["bad"] = np.array([1.0, np.nan])
        grads.rows["worse"] = RowGradient(np.array([0]), np.array([[np.inf]]))
        grads.rows["fine"] = RowGradient(np.array([2]), np.array([[1.0]]))
        assert grads.nonfinite_names() == ["bad", "worse"]

    def test_materialize_combines_rows(self):
        grads = Gradients()
        grads.rows["t"] = RowGradient(np.array([0, 2]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = grads.materialize("t", (3, 2))
        np.testing.assert_array_equal(out, [[1, 2], [0, 0], [3, 4]])
