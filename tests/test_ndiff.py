"""Autodiff semantics, gradient correctness, optimizer, and checkpoints."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioee import gradcheck, ndiff
from bioee.errors import ShapeError, TrainingError
from bioee.ndiff import (
    DenseParams,
    SGDState,
    absolute,
    affine,
    backward,
    bce,
    concat,
    constant,
    dropout,
    init_dense,
    init_lstm,
    load_tensors,
    lstm_last,
    mul,
    no_grad,
    parameter,
    relu,
    save_tensors,
    sgd_step,
    sigmoid,
    sub,
    sum_all,
    tanh,
    weighted_bce,
)


def _matmul_oracle(A, x):
    """Naive triple-loop matrix product."""
    out = np.zeros(A.shape[0])
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            out[i] += A[i, j] * x[j]
    return out


def _lstm_step_oracle(weights, x, h, c):
    """Independent re-implementation of one forget-gate LSTM step; x, h and c
    are single vectors or row batches."""
    Wi, Wf, Wo, Wg, bi, bf, bo, bg = weights

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = np.concatenate([x, h], axis=-1)
    i = sig(z @ Wi.T + bi)
    f = sig(z @ Wf.T + bf)
    o = sig(z @ Wo.T + bo)
    g = np.tanh(z @ Wg.T + bg)
    c2 = f * c + i * g
    h2 = o * np.tanh(c2)
    return h2, c2


def _lstm_oracle(weights, xs):
    """_lstm_step_oracle folded over a sequence from the zero state."""
    hidden = weights[0].shape[0]
    h = np.zeros(xs[0].shape[:-1] + (hidden,))
    c = np.zeros_like(h)
    for x in xs:
        h, c = _lstm_step_oracle(weights, x, h, c)
    return h


def _per_step_tape_lstm(cell, xs):
    """The per-step tape formulation: one affine per gate over [x, h] at
    every step, differentiated by the generic backward pass."""
    h = c = constant(np.zeros(xs[0].data.shape[:-1] + (cell.hidden_size,)))
    for x in xs:
        z = concat([x, h], axis=-1)
        i = sigmoid(affine(cell.input_gate, z))
        f = sigmoid(affine(cell.forget_gate, z))
        o = sigmoid(affine(cell.output_gate, z))
        g = tanh(affine(cell.candidate, z))
        c = ndiff.add(mul(f, c), mul(i, g))
        h = mul(o, tanh(c))
    return h


def _gates(cell):
    return (cell.input_gate, cell.forget_gate, cell.output_gate, cell.candidate)


def _cell_from_arrays(Wi, Wf, Wo, Wg, bi, bf, bo, bg):
    return ndiff.LSTMCellParams(
        input_gate=DenseParams(parameter(Wi), parameter(bi)),
        forget_gate=DenseParams(parameter(Wf), parameter(bf)),
        output_gate=DenseParams(parameter(Wo), parameter(bo)),
        candidate=DenseParams(parameter(Wg), parameter(bg)),
    )


class TestAffine:
    def test_identity(self):
        p = DenseParams(parameter(np.eye(3)), parameter(np.zeros(3)))
        x = constant([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(affine(p, x).data, [1.0, -2.0, 3.0])

    def test_zero_weight_gives_bias(self):
        p = DenseParams(parameter(np.zeros((2, 3))), parameter([5.0, -1.0]))
        np.testing.assert_array_equal(affine(p, constant([1.0, 2.0, 3.0])).data, [5.0, -1.0])

    def test_random_case_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 2))
        b = rng.standard_normal(3)
        x = rng.standard_normal(2)
        got = affine(DenseParams(parameter(A), parameter(b)), constant(x)).data
        np.testing.assert_allclose(got, _matmul_oracle(A, x) + b, atol=1e-12)

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        X = rng.standard_normal((5, 3))
        p = DenseParams(parameter(A), parameter(b))
        got = affine(p, constant(X)).data
        for i in range(5):
            np.testing.assert_allclose(got[i], _matmul_oracle(A, X[i]) + b, atol=1e-12)

    def test_shape_mismatch(self):
        p = DenseParams(parameter(np.zeros((2, 3))), parameter(np.zeros(2)))
        with pytest.raises(ShapeError):
            affine(p, constant(np.zeros(4)))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(constant([0.0])).data[0] == pytest.approx(0.5)

    def test_abs_of_self_difference_is_zero(self):
        x = constant([1.5, -2.0, 0.25])
        np.testing.assert_array_equal(absolute(sub(x, x)).data, np.zeros(3))

    def test_concat(self):
        got = concat([constant([1.0, 2.0]), constant([3.0])]).data
        np.testing.assert_array_equal(got, [1.0, 2.0, 3.0])

    def test_relu_abs_sub_values(self):
        x = constant([-1.0, 2.0])
        np.testing.assert_array_equal(relu(x).data, [0.0, 2.0])
        np.testing.assert_array_equal(absolute(x).data, [1.0, 2.0])
        np.testing.assert_array_equal(sub(x, constant([1.0, 1.0])).data, [-2.0, 1.0])

    def test_sub_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sub(constant([1.0]), constant([1.0, 2.0]))


class TestLSTM:
    def test_zero_weights_zero_state(self):
        zeros = [np.zeros((4, 7)) for _ in range(4)] + [np.zeros(4) for _ in range(4)]
        cell = _cell_from_arrays(*zeros)
        for steps in (1, 5):
            h = lstm_last(cell, [constant(np.zeros(3)) for _ in range(steps)])
            np.testing.assert_array_equal(h.data, np.zeros(4))

    def test_zero_weights_carried_cell_state(self):
        # All gates sit at 0.5 and the candidate at tanh(atanh(2/3)) = 2/3, so
        # c1 = 1/3 and c2 = 0.5 * c1 + 0.5 * 2/3 = 0.5 from a non-zero c_prev.
        zeros = [np.zeros((4, 7)) for _ in range(4)] + [np.zeros(4) for _ in range(3)]
        cell = _cell_from_arrays(*zeros, np.full(4, math.atanh(2.0 / 3.0)))
        h = lstm_last(cell, [constant(np.zeros(3)) for _ in range(2)])
        np.testing.assert_allclose(h.data, np.full(4, 0.5 * math.tanh(0.5)), atol=1e-15)

    def test_random_cell_matches_independent_oracle(self):
        rng = np.random.default_rng(21)
        Ws = [rng.standard_normal((4, 9)) for _ in range(4)]
        bs = [rng.standard_normal(4) for _ in range(4)]
        cell = _cell_from_arrays(*Ws, *bs)
        for step_shape in ((5,), (3, 5)):
            xs = [rng.standard_normal(step_shape) for _ in range(4)]
            h = lstm_last(cell, [constant(x) for x in xs])
            np.testing.assert_allclose(h.data, _lstm_oracle([*Ws, *bs], xs), atol=1e-12)

    def test_lstm_last_single_step(self):
        rng = np.random.default_rng(3)
        cell = init_lstm(rng, 3, 4, "c")
        x = rng.standard_normal(3)
        h_last = lstm_last(cell, [constant(x)])
        weights = [g.A.data for g in _gates(cell)] + [g.b.data for g in _gates(cell)]
        h_step, _ = _lstm_step_oracle(weights, x, np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(h_last.data, h_step, atol=1e-15)

    def test_fused_matches_per_step_tape_at_model_shape(self):
        B, T, D, H = 32, 11, 200, 128
        rng = np.random.default_rng(17)
        cell = init_lstm(rng, D, H, "c")
        params = cell.params("c")
        xs = [constant(rng.standard_normal((B, D))) for _ in range(T)]
        weights_out = rng.standard_normal((B, H))

        def grads_of(encode):
            h = encode(cell, xs)
            backward(sum_all(mul(h, weights_out)))
            grads = {name: p.grad for name, p in params.items()}
            for p in params.values():
                p.grad = None
            return h.data, grads

        h_fused, g_fused = grads_of(lstm_last)
        h_ref, g_ref = grads_of(_per_step_tape_lstm)
        weights = [g.A.data for g in _gates(cell)] + [g.b.data for g in _gates(cell)]
        np.testing.assert_allclose(h_fused, _lstm_oracle(weights, [x.data for x in xs]), rtol=1e-10)
        np.testing.assert_allclose(h_fused, h_ref, rtol=1e-10)
        for name in params:
            np.testing.assert_allclose(g_fused[name], g_ref[name], rtol=1e-10, err_msg=name)

    def test_step_input_gradients_match_per_step_tape(self):
        rng = np.random.default_rng(18)
        cell = init_lstm(rng, 5, 3, "c")
        for step_shape in ((5,), (2, 5)):
            xs = [parameter(rng.standard_normal(step_shape)) for _ in range(4)]
            grads = []
            for encode in (lstm_last, _per_step_tape_lstm):
                backward(sum_all(mul(encode(cell, xs), 1.3)))
                grads.append([x.grad for x in xs])
                for p in [*xs, *cell.params("c").values()]:
                    p.grad = None
            for fused, ref in zip(*grads):
                np.testing.assert_allclose(fused, ref, rtol=1e-10)

    def test_all_pad_inputs_bounded(self):
        rng = np.random.default_rng(4)
        cell = init_lstm(rng, 3, 4, "c")
        h = lstm_last(cell, [constant(np.zeros(3)) for _ in range(6)])
        assert np.all(np.abs(h.data) < 1.0)

    def test_output_magnitude_bounded_by_one(self):
        # h = o * tanh(c) with o in (0,1), so |h| < 1 for any inputs.
        rng = np.random.default_rng(6)
        cell = init_lstm(rng, 5, 3, "c")
        for _ in range(10):
            seq = [constant(10.0 * rng.standard_normal(5)) for _ in range(7)]
            assert np.all(np.abs(lstm_last(cell, seq).data) < 1.0)

    def test_sequence_reversal_changes_output(self):
        rng = np.random.default_rng(5)
        cell = init_lstm(rng, 3, 4, "c")
        seq = [rng.standard_normal(3) for _ in range(4)]
        fwd = lstm_last(cell, [constant(v) for v in seq]).data
        rev = lstm_last(cell, [constant(v) for v in reversed(seq)]).data
        assert not np.allclose(fwd, rev)

    def test_empty_sequence(self):
        cell = init_lstm(np.random.default_rng(0), 3, 4, "c")
        with pytest.raises(ShapeError):
            lstm_last(cell, [])


class TestInPlaceGateMath:
    """lstm_last runs its gate math in place and halves the sigmoid gates'
    weights instead of their pre-activations. Its output must keep the bits of
    the out-of-place formulation, so checkpoints, reports and predictions do
    not move."""

    @staticmethod
    def _out_of_place(cell, steps):
        gates = _gates(cell)
        H, D = cell.hidden_size, steps.shape[-1]
        Wx = np.concatenate([g.A.data[:, :D] for g in gates])
        Wh = np.concatenate([g.A.data[:, D:] for g in gates])
        b = np.concatenate([g.b.data for g in gates])
        projected = (steps.reshape(-1, D) @ Wx.T + b).reshape(len(steps), -1, 4 * H)
        h = c = np.zeros((steps.shape[1], H))
        for step_input in projected:
            act = h @ Wh.T + step_input
            act[:, : 3 * H] = 0.5 * (1.0 + np.tanh(0.5 * act[:, : 3 * H]))
            act[:, 3 * H :] = np.tanh(act[:, 3 * H :])
            i, f, o, g = np.split(act, 4, axis=1)
            c = f * c + i * g
            h = o * np.tanh(c)
        return h

    @pytest.mark.parametrize("grad", [True, False], ids=["tape", "no_grad"])
    @pytest.mark.parametrize("B, D, H", [(32, 200, 128), (5, 50, 301)])
    def test_output_bits_match_out_of_place_reference(self, grad, B, D, H):
        T = 11
        rng = np.random.default_rng(41)
        cell = init_lstm(rng, D, H, "c")
        steps = rng.standard_normal((T, B, D))
        xs = [constant(s) for s in steps]
        if grad:
            h = lstm_last(cell, xs).data
        else:
            with no_grad():
                h = lstm_last(cell, xs).data
        assert np.array_equal(h, self._out_of_place(cell, steps))


class TestNoGrad:
    def test_outputs_have_no_parents(self):
        rng = np.random.default_rng(30)
        cell = init_lstm(rng, 3, 4, "c")
        dense = init_dense(rng, 4, 2, "d")
        with no_grad():
            h = lstm_last(cell, [constant(rng.standard_normal((2, 3))) for _ in range(3)])
            y = tanh(affine(dense, h))
        for t in (h, y):
            assert t._parents == () and t._backward is None

    def test_mode_restored_after_exception(self):
        x = parameter(np.ones(3))
        with pytest.raises(RuntimeError), no_grad():
            raise RuntimeError("inside no_grad")
        assert tanh(x)._parents == (x,)

    def test_mode_is_per_thread(self):
        entered, release = threading.Event(), threading.Event()

        def infer():
            with no_grad():
                entered.set()
                release.wait(timeout=10)

        worker = threading.Thread(target=infer)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            x = parameter(np.ones(3))
            assert tanh(x)._parents == (x,)
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()

    def test_training_after_no_grad_gets_gradients(self):
        rng = np.random.default_rng(31)
        cell = init_lstm(rng, 3, 4, "c")
        xs = [constant(rng.standard_normal((2, 3))) for _ in range(3)]
        with no_grad():
            lstm_last(cell, xs)
        backward(sum_all(lstm_last(cell, xs)))
        for name, p in cell.params("c").items():
            assert p.grad is not None and np.abs(p.grad).sum() > 0, name


class TestWeightedBCE:
    def test_perfect_prediction_is_near_zero(self):
        loss = weighted_bce(np.array([1.0]), constant([1.0]), 1.0)
        assert 0.0 <= float(loss.data) < 1e-6

    def test_half_probability_is_ln2(self):
        loss = weighted_bce(np.array([1.0]), constant([0.5]), 1.0)
        assert float(loss.data) == pytest.approx(math.log(2), rel=1e-9)

    def test_z_half_is_half_unweighted(self):
        rng = np.random.default_rng(9)
        y = (rng.random(20) > 0.5).astype(float)
        p = rng.uniform(0.05, 0.95, 20)
        halved = float(weighted_bce(y, constant(p), 0.5).data)
        full = float(bce(y, constant(p)).data)
        assert halved == pytest.approx(0.5 * full, rel=1e-12)

    def test_z_out_of_range(self):
        with pytest.raises(ValueError):
            weighted_bce(np.array([1.0]), constant([0.5]), 1.5)

    @given(st.floats(0.01, 0.99), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_weight_identity_property(self, p, z):
        y = np.array([1.0, 0.0])
        probs = constant([p, p])
        lhs = float(weighted_bce(y, probs, z).data)
        manual = -(z * math.log(p) + (1 - z) * math.log(1 - p))
        assert lhs == pytest.approx(manual, rel=1e-9, abs=1e-12)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = parameter(np.arange(6.0).reshape(2, 3))
        backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_disconnected_parameter_has_no_gradient(self):
        x = parameter(np.ones(3))
        unused = parameter(np.ones(3))
        backward(sum_all(mul(x, 2.0)))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        assert unused.grad is None

    def test_non_scalar_loss_rejected(self):
        x = parameter(np.ones(3))
        with pytest.raises(ShapeError):
            backward(mul(x, 1.0))

    def test_tape_cleared_after_backward(self):
        x = parameter(np.ones(3))
        y = sum_all(tanh(x))
        backward(y)
        assert y._parents == () and y._backward is None

    def test_reused_subexpression_accumulates(self):
        x = parameter(np.array([2.0]))
        y = tanh(x)
        loss = sum_all(concat([y, y]))
        backward(loss)
        expected = 2.0 * (1.0 - np.tanh(2.0) ** 2)
        np.testing.assert_allclose(x.grad, [expected], atol=1e-12)

    def test_finite_difference_suite(self):
        results = gradcheck.run_suite()
        worst = max(results.values())
        assert worst <= 1e-4, f"worst op error {worst}"


class TestSGD:
    def test_plain_step_decrements(self):
        p = parameter(np.array([3.0]), name="p")
        state = SGDState(learning_rate=1.0, momentum=0.0)
        p.grad = np.array([1.0])
        sgd_step(state, {"p": p})
        np.testing.assert_array_equal(p.data, [2.0])

    def test_zero_gradient_keeps_params(self):
        p = parameter(np.array([3.0]), name="p")
        state = SGDState(learning_rate=0.5, momentum=0.0)
        p.grad = np.zeros(1)
        sgd_step(state, {"p": p})
        np.testing.assert_array_equal(p.data, [3.0])

    def test_quadratic_bowl_converges(self):
        p = parameter(np.array([5.0, -3.0]), name="p")
        state = SGDState(learning_rate=0.1, momentum=0.0)
        for _ in range(100):
            loss = sum_all(mul(mul(p, p), 1.0))
            backward(loss)
            sgd_step(state, {"p": p})
        assert np.all(np.abs(p.data) < 1e-3)

    def test_non_finite_gradient_names_parameter(self):
        p = parameter(np.array([1.0]), name="weights")
        p.grad = np.array([np.nan])
        with pytest.raises(TrainingError, match="weights"):
            sgd_step(SGDState(), {"weights": p})

    def test_in_place_momentum_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(12)
        p = parameter(rng.standard_normal((4, 5)), name="p")
        expected, v = p.data.copy(), np.zeros((4, 5))
        state = SGDState(learning_rate=0.3, momentum=0.9)
        for _ in range(3):
            g = rng.standard_normal((4, 5))
            v = 0.9 * v - 0.3 * g
            expected = expected + v
            p.grad = g.copy()
            sgd_step(state, {"p": p})
            assert np.array_equal(state.velocity["p"], v)
            assert np.array_equal(p.data, expected)
        p.grad = np.full((4, 5), np.inf)
        with pytest.raises(TrainingError):
            sgd_step(state, {"p": p})

    def test_momentum_accumulates_velocity(self):
        p = parameter(np.array([0.0]), name="p")
        state = SGDState(learning_rate=1.0, momentum=0.5)
        for _ in range(2):
            p.grad = np.array([1.0])
            sgd_step(state, {"p": p})
        # v1 = -1, v2 = -1.5 => p = -2.5
        np.testing.assert_allclose(p.data, [-2.5])


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = constant(np.ones(10))
        assert dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_inference_is_identity(self):
        x = constant(np.ones(10))
        assert dropout(x, 0.9, False, np.random.default_rng(0)) is x

    def test_survivor_fraction(self):
        x = constant(np.ones(100_000))
        y = dropout(x, 0.2, True, np.random.default_rng(12))
        survivors = np.count_nonzero(y.data) / 100_000
        assert abs(survivors - 0.8) < 0.01
        # survivors are scaled by 1/(1-rate)
        np.testing.assert_allclose(y.data[y.data != 0], 1.0 / 0.8)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            dropout(constant(np.ones(3)), 1.0, True, np.random.default_rng(0))


class TestDeterminism:
    def _train_once(self):
        rng = np.random.default_rng(42)
        dense = init_dense(rng, 4, 2, "layer")
        state = SGDState(learning_rate=0.05, momentum=0.9)
        X = np.random.default_rng(1).standard_normal((8, 4))
        y = np.zeros((8, 2))
        trajectory = []
        for _ in range(5):
            out = tanh(affine(dense, constant(X)))
            loss = sum_all(mul(sub(out, constant(y)), sub(out, constant(y))))
            backward(loss)
            sgd_step(state, dense.params("layer"))
            trajectory.append(dense.A.data.copy())
        return np.stack(trajectory)

    def test_bitwise_identical_trajectories(self):
        a = self._train_once()
        b = self._train_once()
        assert a.tobytes() == b.tobytes()


class TestInit:
    def test_glorot_bounds_and_forget_bias(self):
        rng = np.random.default_rng(0)
        cell = init_lstm(rng, 10, 6, "c")
        bound = np.sqrt(6.0 / (16 + 6))
        for gate in (cell.input_gate, cell.output_gate, cell.candidate):
            assert np.all(np.abs(gate.A.data) <= bound)
            np.testing.assert_array_equal(gate.b.data, np.zeros(6))
        np.testing.assert_array_equal(cell.forget_gate.b.data, np.ones(6))

    def test_dense_bias_zero(self):
        dense = init_dense(np.random.default_rng(0), 5, 3, "d")
        np.testing.assert_array_equal(dense.b.data, np.zeros(3))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "layer.A": rng.standard_normal((3, 4)),
            "layer.b": rng.standard_normal(3),
            "scalar": np.array(2.5),
        }
        path = tmp_path / "model.ckpt"
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], np.asarray(tensors[name]))

    def test_byte_identical_rewrites(self, tmp_path):
        tensors = {"w": np.arange(12.0).reshape(3, 4)}
        save_tensors(tmp_path / "a.ckpt", tensors)
        save_tensors(tmp_path / "b.ckpt", tensors)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TrainingError):
            load_tensors(path)


class TestFiniteInvariant:
    def test_check_finite_flag_catches_nan(self):
        ndiff.check_finite = True
        try:
            x = constant(np.array([-1.0]))
            with np.errstate(invalid="ignore"), pytest.raises(TrainingError):
                ndiff.log(x)  # log of a negative value
        finally:
            ndiff.check_finite = False

    def test_ops_finite_on_sane_inputs(self):
        ndiff.check_finite = True
        try:
            x = constant(np.linspace(-5, 5, 11))
            for op in (tanh, sigmoid, relu, absolute):
                assert np.isfinite(op(x).data).all()
        finally:
            ndiff.check_finite = False
