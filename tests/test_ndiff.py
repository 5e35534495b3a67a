"""Layers, hand-written gradients, optimizer, and checkpoints."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioee import gradcheck, ndiff, vecent, vecom
from bioee.errors import ShapeError, TrainingError
from bioee.ndiff import (
    DenseParams,
    SGDState,
    affine,
    dense_grads,
    dropout_mask,
    glorot_uniform,
    init_dense,
    init_lstm,
    load_tensors,
    logistic,
    lstm_bptt,
    lstm_last,
    save_tensors,
    sgd_step,
    weighted_bce,
)
from bioee.embed import EmbeddingTable
from bioee.vecent import ContextWindow

import fixtures


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


def _per_gate_bptt_oracle(weights, steps, grad_out):
    """Textbook LSTM over ``(T, B, D)`` steps from the zero state, with four
    separate gate matrices and no packing or halving, and its BPTT: the
    output ``(B, H)`` and the gradients of the stacked ``A`` and ``b`` for
    the upstream gradient ``grad_out``."""
    Ws, bs = weights[:4], weights[4:]

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = c = np.zeros((steps.shape[1], len(bs[0])))
    record = []
    for x in steps:
        z = np.concatenate([x, h], axis=1)
        pre = [z @ W.T + b for W, b in zip(Ws, bs)]
        i, f, o, g = sig(pre[0]), sig(pre[1]), sig(pre[2]), np.tanh(pre[3])
        c_new = f * c + i * g
        record.append((z, c, i, f, o, g, c_new))
        h, c = o * np.tanh(c_new), c_new
    dWs = [np.zeros_like(W) for W in Ws]
    dbs = [np.zeros_like(b) for b in bs]
    dh, dc = grad_out, np.zeros_like(h)
    D = steps.shape[2]
    for z, c_prev, i, f, o, g, c_new in reversed(record):
        tanh_c = np.tanh(c_new)
        dc = dc + dh * o * (1.0 - tanh_c**2)
        d_pre = [
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            dh * tanh_c * o * (1.0 - o),
            dc * i * (1.0 - g**2),
        ]
        dz = np.zeros_like(z)
        for k, d in enumerate(d_pre):
            dWs[k] += d.T @ z
            dbs[k] += d.sum(axis=0)
            dz += d @ Ws[k]
        dh, dc = dz[:, D:], dc * f
    return h, np.concatenate(dWs), np.concatenate(dbs)


def _identity_ids(slots):
    """A batch of word vectors ``(..., D)`` as ids ``(...)`` into its own rows
    ``(n, D)``, each slot its own word."""
    ids = np.arange(slots.size // slots.shape[-1]).reshape(slots.shape[:-1])
    return ids, slots.reshape(-1, slots.shape[-1])


def _hidden(cell):
    return cell.b.shape[0] // 4


def _blocks(cell):
    """The weights and biases of gates i, f, o and g of a fused cell: gate k
    is row block ``k*H:(k+1)*H`` of ``A`` and ``b``."""
    H = _hidden(cell)
    rows = [slice(k * H, (k + 1) * H) for k in range(4)]
    return [cell.A[r] for r in rows] + [cell.b[r] for r in rows]


def _cell_from_arrays(Wi, Wf, Wo, Wg, bi, bf, bo, bg):
    return DenseParams(np.concatenate([Wi, Wf, Wo, Wg]), np.concatenate([bi, bf, bo, bg]))


class TestAffine:
    def test_identity(self):
        p = DenseParams(np.eye(3), np.zeros(3))
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(affine(p, x), [[1.0, -2.0, 3.0]])

    def test_zero_weight_gives_bias(self):
        p = DenseParams(np.zeros((2, 3)), np.array([5.0, -1.0]))
        np.testing.assert_array_equal(affine(p, np.array([[1.0, 2.0, 3.0]])), [[5.0, -1.0]])

    def test_random_case_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 2))
        b = rng.standard_normal(3)
        x = rng.standard_normal(2)
        got = affine(DenseParams(A, b), x[None, :])
        np.testing.assert_allclose(got[0], _matmul_oracle(A, x) + b, atol=1e-12)

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        X = rng.standard_normal((5, 3))
        got = affine(DenseParams(A, b), X)
        for i in range(5):
            np.testing.assert_allclose(got[i], _matmul_oracle(A, X[i]) + b, atol=1e-12)

    def test_shape_mismatch(self):
        p = DenseParams(np.zeros((2, 3)), np.zeros(2))
        for x in (np.zeros((1, 4)), np.zeros(3)):  # wrong width; a single vector
            with pytest.raises(ShapeError):
                affine(p, x)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert logistic(np.array([0.0]))[0] == 0.5
        with np.errstate(all="raise"):  # the tanh form cannot overflow
            np.testing.assert_array_equal(logistic(np.array([-1e4, 1e4])), [0.0, 1.0])

    def test_concat(self):
        # The BLSTM encoding is the left-to-right state, then the right-to-left.
        rng = np.random.default_rng(35)
        model = vecent.new_argument_model("t", 3, 4, 2, rng=rng)
        batch = rng.standard_normal((2, 2, 5, 3))  # two windows' (left, right) halves
        halves = [
            lstm_last(cell, *_identity_ids(batch[:, k].swapaxes(0, 1)))
            for k, cell in enumerate((model.fwd, model.bwd))
        ]
        np.testing.assert_array_equal(
            vecent._encode(model, *_identity_ids(batch)), np.hstack(halves)
        )

    def test_relu_values(self):
        identity = DenseParams(np.eye(2), np.zeros(2))
        hidden, _ = vecom._relu_head(identity, DenseParams(np.ones((1, 2)), np.zeros(1)),
                                        np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(hidden, [[0.0, 2.0]])


class TestLSTM:
    def test_zero_weights_zero_state(self):
        zeros = [np.zeros((4, 7)) for _ in range(4)] + [np.zeros(4) for _ in range(4)]
        cell = _cell_from_arrays(*zeros)
        for steps in (1, 5):
            h = lstm_last(cell, *_identity_ids(np.zeros((steps, 1, 3))))
            np.testing.assert_array_equal(h, np.zeros((1, 4)))

    def test_zero_weights_carried_cell_state(self):
        # All gates sit at 0.5 and the candidate at tanh(atanh(2/3)) = 2/3, so
        # c1 = 1/3 and c2 = 0.5 * c1 + 0.5 * 2/3 = 0.5 from a non-zero c_prev.
        zeros = [np.zeros((4, 7)) for _ in range(4)] + [np.zeros(4) for _ in range(3)]
        cell = _cell_from_arrays(*zeros, np.full(4, math.atanh(2.0 / 3.0)))
        h = lstm_last(cell, *_identity_ids(np.zeros((2, 1, 3))))
        np.testing.assert_allclose(h, np.full((1, 4), 0.5 * math.tanh(0.5)), atol=1e-15)

    def test_random_cell_matches_independent_oracle(self):
        rng = np.random.default_rng(21)
        Ws = [rng.standard_normal((4, 9)) for _ in range(4)]
        bs = [rng.standard_normal(4) for _ in range(4)]
        cell = _cell_from_arrays(*Ws, *bs)
        for batch in (1, 3):
            steps = rng.standard_normal((4, batch, 5))
            h = lstm_last(cell, *_identity_ids(steps))
            np.testing.assert_allclose(h, _lstm_oracle([*Ws, *bs], steps), atol=1e-12)

    def test_lstm_last_single_step(self):
        rng = np.random.default_rng(3)
        cell = init_lstm(rng, 3, 4).astype(np.float64)
        x = rng.standard_normal(3)
        h_last = lstm_last(cell, *_identity_ids(x[None, None, :]))
        h_step, _ = _lstm_step_oracle(_blocks(cell), x, np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(h_last[0], h_step, atol=1e-15)

    def test_fused_matches_per_gate_oracle_at_model_shape(self):
        B, T, D, H = 32, 11, 200, 128
        rng = np.random.default_rng(17)
        cell = init_lstm(rng, D, H).astype(np.float64)
        steps = rng.standard_normal((T, B, D))
        grad_out = rng.standard_normal((B, H))

        cache = {}
        h_fused = lstm_last(cell, *_identity_ids(steps), cache=cache)
        grads = lstm_bptt(cell, cache, grad_out)
        h_ref, *grads_ref = _per_gate_bptt_oracle(_blocks(cell), steps, grad_out)
        np.testing.assert_allclose(h_fused, _lstm_oracle(_blocks(cell), steps), rtol=1e-10)
        np.testing.assert_allclose(h_fused, h_ref, rtol=1e-10)
        for name, got, ref in zip(("A", "b"), grads, grads_ref):
            np.testing.assert_allclose(got, ref, rtol=1e-10, err_msg=name)

    def test_all_pad_inputs_bounded(self):
        rng = np.random.default_rng(4)
        cell = init_lstm(rng, 3, 4)
        h = lstm_last(cell, *_identity_ids(np.zeros((6, 1, 3))))
        assert np.all(np.abs(h) < 1.0)

    def test_output_magnitude_bounded_by_one(self):
        # h = o * tanh(c) with o in (0,1), so |h| < 1 for any inputs.
        rng = np.random.default_rng(6)
        cell = init_lstm(rng, 5, 3)
        for _ in range(10):
            seq = 10.0 * rng.standard_normal((7, 1, 5))
            assert np.all(np.abs(lstm_last(cell, *_identity_ids(seq))) < 1.0)

    def test_sequence_reversal_changes_output(self):
        rng = np.random.default_rng(5)
        cell = init_lstm(rng, 3, 4)
        seq = rng.standard_normal((4, 1, 3))
        fwd = lstm_last(cell, *_identity_ids(seq))
        rev = lstm_last(cell, *_identity_ids(seq[::-1]))
        assert not np.allclose(fwd, rev)

    def test_empty_sequence(self):
        cell = init_lstm(np.random.default_rng(0), 3, 4)
        with pytest.raises(ShapeError):
            lstm_last(cell, *_identity_ids(np.zeros((0, 1, 3))))
        with pytest.raises(ShapeError):  # one step's ids, not a (T, B) batch
            lstm_last(cell, np.zeros(1, dtype=np.int64), np.zeros((1, 3)))


class TestInPlaceGateMath:
    """lstm_last runs its gate math in place and halves the sigmoid gates'
    weights instead of their pre-activations. Its output must keep the bits of
    the out-of-place formulation, so checkpoints, reports and predictions do
    not move."""

    @staticmethod
    def _out_of_place(cell, steps):
        blocks = _blocks(cell)
        H, D = _hidden(cell), steps.shape[-1]
        Wx = np.concatenate([W[:, :D] for W in blocks[:4]])
        Wh = np.concatenate([W[:, D:] for W in blocks[:4]])
        b = np.concatenate(blocks[4:])
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

    @pytest.mark.parametrize("training", [True, False], ids=["training", "inference"])
    @pytest.mark.parametrize("B, D, H", [(32, 200, 128), (5, 50, 301)])
    def test_output_bits_match_out_of_place_reference(self, training, B, D, H):
        T = 11
        rng = np.random.default_rng(41)
        cell = init_lstm(rng, D, H).astype(np.float64)
        steps = rng.standard_normal((T, B, D))
        h = lstm_last(cell, *_identity_ids(steps), cache={} if training else None)
        assert np.array_equal(h, self._out_of_place(cell, steps))


def _unpacked_lstm(cell, steps, grad_out):
    """The whole-sequence LSTM with every step of every row computed, pad
    steps included: output ``(T, B, D) -> (B, H)`` and the gradients of the
    cell's ``A`` and ``b`` for the upstream gradient ``grad_out``."""
    blocks = _blocks(cell)
    H, D = _hidden(cell), steps.shape[-1]
    Wx = np.concatenate([W[:, :D] for W in blocks[:4]])
    Wh = np.concatenate([W[:, D:] for W in blocks[:4]])
    b = np.concatenate(blocks[4:])
    X = steps.reshape(-1, D)
    half = np.repeat([0.5, 1.0], [3 * H, H])
    projected = (X @ (half[:, None] * Wx).T + half * b).reshape(len(steps), -1, 4 * H)
    h = c = np.zeros((steps.shape[1], H))
    cache = []
    for t, act in enumerate(projected):
        if t:
            act += h @ (half[:, None] * Wh).T
        act = np.tanh(act)
        act[:, : 3 * H] = 0.5 * (act[:, : 3 * H] + 1.0)
        i, f, o, g = np.split(act, 4, axis=1)
        c_next = f * c + i * g
        cache.append((h, c, act, np.tanh(c_next)))
        h, c = o * np.tanh(c_next), c_next
    dh, dc, d_pre = grad_out, 0.0, []
    for t in reversed(range(len(steps))):
        h_prev, c_prev, act, tanh_c = cache[t]
        i, f, o, g = np.split(act, 4, axis=1)
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d = np.concatenate(
            [dc * g * i * (1 - i), dc * c_prev * f * (1 - f), dh * tanh_c * o * (1 - o),
             dc * i * (1 - g * g)],
            axis=1,
        )
        d_pre.insert(0, d)
        dc, dh = dc * f, d @ Wh
    d_pre = np.concatenate(d_pre)
    dW = d_pre.T @ np.concatenate([X, np.concatenate([e[0] for e in cache])], axis=1)
    return h, [dW, d_pre.sum(axis=0)]


def _assert_close(got, ref, err_msg=""):
    """Within 1e-12 of ``ref``'s largest entry: skipping pad steps reorders
    the sums behind each gradient entry, which moves its last bits by a
    fraction of the summands, not of the (possibly cancelled) result."""
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max(), err_msg=err_msg)


def _padded_steps(rng, leads, T, D):
    """Random ``(T, B, D)`` steps whose row r starts with leads[r] zero steps."""
    steps = rng.standard_normal((T, len(leads), D))
    for r, lead in enumerate(leads):
        steps[:lead, r] = 0.0
    return steps


class TestPaddedRows:
    """lstm_last skips each row's leading all-zero steps by packing the rows
    past their padding and starting them from a shared pad-state chain. It
    and lstm_bptt must agree with computing every step of every row."""

    @staticmethod
    def _trained_run(cell, steps, grad_out):
        cache = {}
        h = lstm_last(cell, *_identity_ids(steps), cache=cache)
        return h, list(lstm_bptt(cell, cache, grad_out))

    def test_matches_unpacked_at_model_shape(self):
        B, T, D, H = 32, 11, 200, 128
        rng = np.random.default_rng(51)
        cell = init_lstm(rng, D, H).astype(np.float64)
        leads = rng.integers(0, T + 1, size=B)
        leads[:4] = [T, 0, T - 1, 1]  # all-pad, none, all but the last, one
        steps = _padded_steps(rng, leads, T, D)
        grad_out = rng.standard_normal((B, H))
        h_ref, grads_ref = _unpacked_lstm(cell, steps, grad_out)
        h, grads = self._trained_run(cell, steps, grad_out)
        _assert_close(h, h_ref)
        for name, got, ref in zip(cell.params("c"), grads, grads_ref):
            _assert_close(got, ref, err_msg=name)
        _assert_close(lstm_last(cell, *_identity_ids(steps)), h_ref)

    @pytest.mark.parametrize("lead", [0, 1, 3, 4])
    def test_vector_steps(self, lead):
        T, D, H = 4, 5, 3
        rng = np.random.default_rng(52 + lead)
        cell = init_lstm(rng, D, H).astype(np.float64)
        steps = _padded_steps(rng, [lead], T, D)
        grad_out = rng.standard_normal((1, H))
        h_ref, grads_ref = _unpacked_lstm(cell, steps, grad_out)
        h, grads = self._trained_run(cell, steps, grad_out)
        assert h.shape == (1, H)
        _assert_close(h, h_ref)
        for name, got, ref in zip(cell.params("c"), grads, grads_ref):
            _assert_close(got, ref, err_msg=name)

    def test_float32_narrow_steps_and_late_joins(self):
        # Two chain-only steps, then one row joining at each of three
        # consecutive steps, two at the last step and one all-pad row, so the
        # recurrent products run on 1, 2 and 3 packed rows and the state
        # buffers take in rows at every step but the first.
        T, D, H = 6, 200, 128
        rng = np.random.default_rng(55)
        cell = init_lstm(rng, D, H)
        cell.b[:] = rng.standard_normal(4 * H)  # so the pad chain's state is not zero
        leads = [4, 2, 6, 5, 3, 5]
        steps = _padded_steps(rng, leads, T, D).astype(ndiff.DTYPE)
        grad_out = rng.standard_normal((len(leads), H)).astype(ndiff.DTYPE)
        cache = {}
        h = lstm_last(cell, *_identity_ids(steps), cache=cache)
        grads = lstm_bptt(cell, cache, grad_out)
        assert cache["widths"].tolist() == [1, 1, 2, 3, 4, 6]
        h_ref, grads_ref = _unpacked_lstm(
            cell.astype(np.float64), steps.astype(np.float64), grad_out.astype(np.float64)
        )
        # The float32 rounding bound of test_lstm_matches_float64_oracle_at_model_shape.
        bound = math.sqrt(T * (D + H)) * np.finfo(np.float32).eps
        for name, got, ref in zip(("h", "A", "b"), (h, *grads), (h_ref, *grads_ref)):
            assert got.dtype == ndiff.DTYPE, name
            np.testing.assert_allclose(
                got, ref, rtol=0, atol=bound * np.abs(ref).max(), err_msg=name
            )
        np.testing.assert_array_equal(lstm_last(cell, *_identity_ids(steps)), h)

    def test_output_rows_keep_input_order(self):
        T, D, H = 6, 4, 3
        rng = np.random.default_rng(54)
        cell = init_lstm(rng, D, H)
        leads = [6, 5, 3, 0, 2, 6, 1, 4]  # packing sorts these rows
        steps = _padded_steps(rng, leads, T, D)
        h = lstm_last(cell, *_identity_ids(steps))
        for r in range(len(leads)):
            alone = lstm_last(cell, *_identity_ids(steps[:, r : r + 1]))[0]
            _assert_close(h[r], alone, err_msg=f"row {r}")
        np.testing.assert_array_equal(h[0], h[5])  # both all-pad rows end on the chain


class TestIdInput:
    """lstm_last over ids into a word-vector matrix, which projects each
    distinct word once, equals lstm_last over the gathered rows, and a word
    whose vector is zero (an oov=zero word) pads as the pad id does."""

    B, T, D, H, V = 32, 11, 200, 128, 60  # 60 words for 352 slots: ids repeat

    def _ids(self, rng, oov_zero):
        """(T, B) ids with leads drawn as in the oracle tests, into V words
        of which 0, and with ``oov_zero`` also word 1, have the zero vector;
        the oov word then opens every fourth row after its padding."""
        vectors = rng.standard_normal((self.V, self.D))
        vectors[0] = 0.0
        leads = rng.integers(0, self.T + 1, size=self.B)
        leads[:2] = [self.T, 0]
        ids = rng.integers(2, self.V, size=(self.T, self.B))
        ids[np.arange(self.T)[:, None] < leads] = 0
        if oov_zero:
            vectors[1] = 0.0
            rows = np.flatnonzero(leads < self.T)[::4]
            ids[leads[rows], rows] = 1
        return ids, vectors

    @pytest.mark.parametrize("oov_zero", [False, True], ids=["pad_only", "oov_zero_word"])
    @pytest.mark.parametrize("dtype", [np.float64, ndiff.DTYPE])
    def test_ids_match_gathered_rows(self, dtype, oov_zero):
        rng = np.random.default_rng(71)
        cell = init_lstm(rng, self.D, self.H).astype(dtype)
        ids, vectors = self._ids(rng, oov_zero)
        vectors = vectors.astype(dtype)
        grad_out = rng.standard_normal((self.B, self.H)).astype(dtype)
        runs = []
        for inputs in ((ids, vectors), _identity_ids(vectors[ids])):
            cache = {}
            h = lstm_last(cell, *inputs, cache=cache)
            runs.append((cache, (h, *lstm_bptt(cell, cache, grad_out))))
        (by_id, got), (gathered, ref) = runs
        # The same packing, in which the zero words lengthen the leads.
        lead = np.logical_and.accumulate(np.isin(ids, [0, 1] if oov_zero else [0])).sum(axis=0)
        assert (lead > np.logical_and.accumulate(ids == 0).sum(axis=0)).any() == oov_zero
        widths = [1 + int((lead <= t).sum()) for t in range(self.T)]
        assert by_id["widths"].tolist() == gathered["widths"].tolist() == widths
        assert np.array_equal(by_id["order"], gathered["order"])
        assert np.array_equal(by_id["X"], gathered["X"])
        # The bounds of the float64 oracle and float32 model-shape tests.
        if dtype == np.float64:
            bound = 1e-10
        else:
            bound = math.sqrt(self.T * (self.D + self.H)) * np.finfo(np.float32).eps
        for name, a, b in zip(("h", "A", "b"), got, ref):
            assert a.dtype == dtype, name
            np.testing.assert_allclose(a, b, rtol=0, atol=bound * np.abs(b).max(), err_msg=name)
        np.testing.assert_array_equal(lstm_last(cell, ids, vectors), got[0])

    def test_rejects_ids_that_do_not_fit(self):
        cell = init_lstm(np.random.default_rng(0), 3, 4)
        ids = np.zeros((2, 1), dtype=np.int32)
        with pytest.raises(ShapeError):  # vectors of the wrong width
            lstm_last(cell, ids, np.zeros((1, 4)))
        with pytest.raises(ShapeError):  # a (T, B, D) batch with vectors
            lstm_last(cell, np.zeros((2, 1, 3)), np.zeros((1, 3)))


class TestNoGrad:
    """Inference runs lstm_last with no cache, so it keeps no BPTT state."""

    def test_outputs_have_no_parents(self):
        T, B, D, H = 11, 64, 20, 16
        rng = np.random.default_rng(30)
        cell = init_lstm(rng, D, H)
        steps = _identity_ids(rng.standard_normal((T, B, D)))
        cache = {}
        tracemalloc.start()
        try:
            h = lstm_last(cell, *steps)
            kept_inference = tracemalloc.get_traced_memory()[0]
            lstm_last(cell, *steps, cache=cache)
            kept_training = tracemalloc.get_traced_memory()[0] - kept_inference
        finally:
            tracemalloc.stop()
        # Inference holds only its output, a view of nothing; training keeps
        # at least the four gate activations of every row and step.
        assert h.base is None
        assert kept_inference < h.nbytes + 4096
        assert len(cache["trace"]) == T
        assert kept_training > T * B * 4 * H * 8

    def test_training_after_inference_gets_gradients(self):
        rng = np.random.default_rng(31)
        cell = init_lstm(rng, 3, 4)
        steps = rng.standard_normal((3, 2, 3))
        h_inference = lstm_last(cell, *_identity_ids(steps))
        cache = {}
        h = lstm_last(cell, *_identity_ids(steps), cache=cache)
        assert np.array_equal(h, h_inference)
        for name, grad in zip(cell.params("c"), lstm_bptt(cell, cache, np.ones_like(h))):
            assert np.abs(grad).sum() > 0, name


def _bce_chain_reference(y, p, pos_weight, neg_weight, scale, eps=1e-7):
    """Loss and gradient wrt ``p`` of ``scale`` times weighted BCE as a chain
    of elementwise steps (clamp, log, one-minus, weight, add, sum, negate),
    each differentiated on its own in reverse order."""
    pos = np.asarray(pos_weight, dtype=np.float64) * y
    neg = np.asarray(neg_weight, dtype=np.float64) * (1.0 - y)
    clamped = np.clip(p, eps, 1.0 - eps)
    one_minus = np.asarray(1.0) - clamped
    terms = np.log(clamped) * pos + np.log(one_minus) * neg
    loss = terms.sum() * np.asarray(-1.0) * scale
    d_terms = np.full_like(terms, float(np.ones_like(loss) * scale * np.asarray(-1.0)))
    d_clamped = (d_terms * pos) / clamped
    d_clamped += -((d_terms * neg) / one_minus)
    return loss, d_clamped * ((p > eps) & (p < 1.0 - eps))


class TestWeightedBCE:
    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar_weights", "per_row_weights"])
    def test_matches_elementwise_chain_bit_for_bit(self, per_row):
        rng = np.random.default_rng(16)
        y = (rng.random((64, 1)) > 0.4).astype(float)
        p = rng.uniform(0.0, 1.0, (64, 1))
        p[:4, 0] = [0.0, 1e-9, 1.0 - 1e-9, 1.0]  # at and past both clamp bounds
        if per_row:
            pos_weight, neg_weight = rng.uniform(0.0, 2.0, (2, 64, 1))
        else:
            pos_weight, neg_weight = 0.7, 1.3
        scale = 1.0 / 24  # as a batch mean scales it; not a power of two
        loss, dp = weighted_bce(y, p, pos_weight, neg_weight, scale)
        ref_loss, ref_grad = _bce_chain_reference(y, p, pos_weight, neg_weight, scale)
        np.testing.assert_array_equal(loss * scale, ref_loss)
        np.testing.assert_array_equal(dp, ref_grad)

    def test_saturated_rows_finite_loss_zero_gradient(self):
        y = np.array([[1.0], [0.0], [1.0], [0.0], [1.0]])
        probs = np.array([[0.0], [1.0], [1.0], [0.0], [0.3]])
        loss, dp = weighted_bce(y, probs, 1.0, 1.0)
        assert np.isfinite(loss)
        np.testing.assert_array_equal(dp[:4], 0.0)
        assert dp[4, 0] == pytest.approx(-1.0 / 0.3, rel=1e-12)

    def test_weights_not_shaped_like_labels_rejected(self):
        with pytest.raises(ShapeError):
            weighted_bce(np.ones((3, 1)), np.full((3, 1), 0.5), np.ones(3), 1.0)

    def test_perfect_prediction_is_near_zero(self):
        loss, _ = weighted_bce(np.array([1.0]), np.array([1.0]), 1.0, 0.0)
        assert 0.0 <= float(loss) < 1e-6

    def test_half_probability_is_ln2(self):
        loss, _ = weighted_bce(np.array([1.0]), np.array([0.5]), 1.0, 0.0)
        assert float(loss) == pytest.approx(math.log(2), rel=1e-9)

    def test_z_half_is_half_unweighted(self):
        rng = np.random.default_rng(9)
        y = (rng.random(20) > 0.5).astype(float)
        p = rng.uniform(0.05, 0.95, 20)
        halved = float(weighted_bce(y, p, 0.5, 0.5)[0])
        full = float(weighted_bce(y, p, 1.0, 1.0)[0])
        assert halved == pytest.approx(0.5 * full, rel=1e-12)

    def test_z_out_of_range(self):
        with pytest.raises(ValueError):  # z = 1.5 leaves 1 - z = -0.5 for negatives
            weighted_bce(np.array([1.0]), np.array([0.5]), 1.5, -0.5)

    @given(st.floats(0.01, 0.99), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_weight_identity_property(self, p, z):
        y = np.array([1.0, 0.0])
        lhs = float(weighted_bce(y, np.array([p, p]), z, 1.0 - z)[0])
        manual = -(z * math.log(p) + (1 - z) * math.log(1 - p))
        assert lhs == pytest.approx(manual, rel=1e-9, abs=1e-12)

    def test_per_row_weights_mask_rows(self):
        rng = np.random.default_rng(10)
        y = (rng.random((8, 1)) > 0.5).astype(float)
        p = rng.uniform(0.05, 0.95, (8, 1))
        mask = (np.arange(8) % 3 != 1).astype(float)[:, None]
        keep = mask[:, 0] == 1
        loss, dp = weighted_bce(y, p, mask, mask)
        _, dp_kept = weighted_bce(y[keep], p[keep], 1.0, 1.0)
        manual = -np.sum(y[keep] * np.log(p[keep]) + (1 - y[keep]) * np.log(1 - p[keep]))
        assert float(loss) == pytest.approx(manual, rel=1e-12)
        np.testing.assert_array_equal(dp[~keep], 0.0)
        np.testing.assert_allclose(dp[keep], dp_kept, rtol=1e-15)


class TestBackward:
    def test_disconnected_parameter_has_no_gradient(self):
        # With no event in the batch, the masked direction head is cut off
        # from the loss.
        rng = np.random.default_rng(32)
        model = vecom.new_event_model(input_dim=6, hidden=4, rng=rng)
        composed = rng.standard_normal((5, 6))
        no_events = np.zeros((5, 1))
        _, grads, _ = vecom.event_loss_and_grads(model, composed, no_events, no_events)
        for name, grad in grads.items():
            assert np.all(grad == 0.0) == name.startswith("dir_"), name

    def test_reused_subexpression_accumulates(self):
        # Two rows with the same padded window share the pad chain and every
        # step, so their gradients add up to twice one row's.
        rng = np.random.default_rng(36)
        cell = init_lstm(rng, 3, 4).astype(np.float64)
        one = _padded_steps(rng, [2], 5, 3)
        grad_out = rng.standard_normal((1, 4))
        cache_one, cache_two = {}, {}
        lstm_last(cell, *_identity_ids(one), cache=cache_one)
        lstm_last(cell, *_identity_ids(np.concatenate([one, one], axis=1)), cache=cache_two)
        single = lstm_bptt(cell, cache_one, grad_out)
        double = lstm_bptt(cell, cache_two, np.concatenate([grad_out, grad_out]))
        for got, ref in zip(double, single):
            np.testing.assert_allclose(got, 2.0 * ref, rtol=1e-13, atol=1e-15)

    def test_finite_difference_suite(self):
        results = gradcheck.run_suite()
        assert set(results) == {
            "lstm_last_batch",
            "lstm_last_padded",
            "lstm_last_ids",
            "weighted_bce",
            "composed_argument_loss",
            "composed_event_loss",
        }
        worst = max(results.values())
        assert worst <= 1e-4, f"worst op error {worst}"

    def test_composed_checks_cover_every_model_parameter(self):
        checks = gradcheck.checks(np.random.default_rng(0))
        for name, model_class in (
            ("composed_argument_loss", vecent.ArgumentModel),
            ("composed_event_loss", vecom.EventModel),
        ):
            loss_and_grads, params = checks[name]
            expected = {f"{layer}.{t}" for layer in model_class.LAYERS for t in ("A", "b")}
            assert set(params) == expected, name
            assert set(loss_and_grads()[1]) == expected, name

    def test_gradient_check_rejects_missing_gradient(self):
        params = {"p": np.ones(2), "q": np.ones(2)}
        with pytest.raises(TrainingError, match="not the parameters"):
            ndiff.gradient_check(lambda: (0.0, {"p": np.zeros(2)}), params)


class TestSGD:
    def test_plain_step_decrements(self):
        p = np.array([3.0])
        state = SGDState(learning_rate=1.0, momentum=0.0)
        grads = {"p": np.array([1.0])}
        sgd_step(state, {"p": p}, grads)
        np.testing.assert_array_equal(p, [2.0])
        assert grads == {}  # consumed, so no step's gradients outlive it

    def test_zero_gradient_keeps_params(self):
        p = np.array([3.0])
        state = SGDState(learning_rate=0.5, momentum=0.0)
        sgd_step(state, {"p": p}, {"p": np.zeros(1)})
        np.testing.assert_array_equal(p, [3.0])

    def test_quadratic_bowl_converges(self):
        p = np.array([5.0, -3.0])
        state = SGDState(learning_rate=0.1, momentum=0.0)
        for _ in range(100):
            sgd_step(state, {"p": p}, {"p": 2.0 * p})  # the gradient of sum(p * p)
        assert np.all(np.abs(p) < 1e-3)

    def test_non_finite_gradient_names_parameter(self):
        with pytest.raises(TrainingError, match="weights"):
            sgd_step(
                SGDState(learning_rate=0.01, momentum=0.9),
                {"weights": np.array([1.0])},
                {"weights": np.array([np.nan])},
            )

    def test_missing_gradient_names_parameter(self):
        p = np.array([1.0])
        with pytest.raises(TrainingError, match="no gradient for parameter 'weights'"):
            sgd_step(SGDState(learning_rate=0.01, momentum=0.9), {"weights": p}, {})
        np.testing.assert_array_equal(p, [1.0])

    def test_in_place_momentum_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(12)
        p = rng.standard_normal((4, 5))
        expected, v = p.copy(), np.zeros((4, 5))
        state = SGDState(learning_rate=0.3, momentum=0.9)
        for _ in range(3):
            g = rng.standard_normal((4, 5))
            v = 0.9 * v - 0.3 * g
            expected = expected + v
            sgd_step(state, {"p": p}, {"p": g.copy()})
            assert np.array_equal(state.velocity["p"], v)
            assert np.array_equal(p, expected)
        with pytest.raises(TrainingError):
            sgd_step(state, {"p": p}, {"p": np.full((4, 5), np.inf)})

    def test_momentum_accumulates_velocity(self):
        p = np.array([0.0])
        state = SGDState(learning_rate=1.0, momentum=0.5)
        for _ in range(2):
            sgd_step(state, {"p": p}, {"p": np.array([1.0])})
        # v1 = -1, v2 = -1.5 => p = -2.5
        np.testing.assert_allclose(p, [-2.5])


class TestDropout:
    def test_rate_zero_is_identity(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert dropout_mask(0.0, (3, 4), rng) is None
        assert rng.bit_generator.state == state  # nothing was drawn

    def test_inference_is_identity(self):
        rng = np.random.default_rng(42)
        model = vecent.new_argument_model("t", 6, 5, 4, rng=rng)
        hidden, dropped, _ = vecent._head(model, rng.standard_normal((3, 10)))
        assert dropped is hidden

    def test_survivor_fraction(self):
        keep = dropout_mask(0.2, (100_000,), np.random.default_rng(12))
        survivors = np.count_nonzero(keep) / 100_000
        assert abs(survivors - 0.8) < 0.01
        # survivors are scaled by 1/(1-rate)
        np.testing.assert_allclose(keep[keep != 0], 1.0 / 0.8)

    def test_bad_rate(self):
        for rate in (1.0, -0.1, float("nan")):
            with pytest.raises(ValueError):
                dropout_mask(rate, (3,), np.random.default_rng(0))


class TestDeterminism:
    def _train_once(self):
        rng = np.random.default_rng(42)
        dense = init_dense(rng, 4, 2)
        state = SGDState(learning_rate=0.05, momentum=0.9)
        X = np.random.default_rng(1).standard_normal((8, 4))
        trajectory = []
        for _ in range(5):
            out = np.tanh(affine(dense, X))  # loss: sum(out * out)
            grads = dense_grads("layer", 2.0 * out * (1.0 - out * out), X)
            sgd_step(state, dense.params("layer"), grads)
            trajectory.append(dense.A.copy())
        return np.stack(trajectory)

    def test_bitwise_identical_trajectories(self):
        a = self._train_once()
        b = self._train_once()
        assert a.tobytes() == b.tobytes()


class TestInit:
    def test_glorot_bounds_and_forget_bias(self):
        rng = np.random.default_rng(0)
        cell = init_lstm(rng, 10, 6)
        assert cell.A.shape == (24, 16) and cell.b.shape == (24,)
        # One gate's fan-out H = 6 sets the bound, not the 4H = 24 rows.
        bound = np.sqrt(6.0 / (16 + 6))
        assert np.all(np.abs(cell.A) <= bound)
        assert np.abs(cell.A).max() > np.sqrt(6.0 / (16 + 24))
        np.testing.assert_array_equal(cell.b, np.repeat([0.0, 1.0, 0.0, 0.0], 6))

    def test_matches_stacked_per_gate_draws(self):
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        cell = init_lstm(rng, 10, 6)
        per_gate = [glorot_uniform(reference, 16, 6, (6, 16)) for _ in range(4)]
        assert np.array_equal(cell.A, np.concatenate(per_gate).astype(ndiff.DTYPE))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_dense_bias_zero(self):
        dense = init_dense(np.random.default_rng(0), 5, 3)
        np.testing.assert_array_equal(dense.b, np.zeros(3))


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

    def test_bytes_follow_the_format(self, tmp_path):
        A = np.array([[1.5, -2.0, 0.25]], dtype=np.float32)
        b = np.array([3.0, 1e-3])
        save_tensors(tmp_path / "m.ckpt", {"f1.A": A, "b": b})
        expected = b"BEE1" + struct.pack("<II", 1, 2)
        expected += struct.pack("<H", 4) + b"f1.A" + struct.pack("<BII", 2, 1, 3)
        expected += struct.pack("<3d", 1.5, -2.0, 0.25)
        expected += struct.pack("<H", 1) + b"b" + struct.pack("<BI", 1, 2)
        expected += struct.pack("<2d", 3.0, 1e-3)
        assert (tmp_path / "m.ckpt").read_bytes() == expected

    def test_one_float64_copy_per_tensor(self, tmp_path):
        H, D = 128, 200
        A = np.ones((4 * H, D + H), dtype=np.float32)  # an LSTM cell's weight
        path = tmp_path / "cell.ckpt"
        save_tensors(path, {"fwd.A": A})  # imports and opens anything lazy first
        tracemalloc.start()
        try:
            save_tensors(path, {"fwd.A": A})
            saving = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_tensors(path)["fwd.A"]
            loading = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert saving < 1.5 * loaded.nbytes
        assert loading < 1.5 * loaded.nbytes
        np.testing.assert_array_equal(loaded, A)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TrainingError):
            load_tensors(path)


class TestFiniteInvariant:
    """Both models' loss, probabilities and gradients stay finite on sane
    inputs, and a non-finite value stops training with the parameter named."""

    def test_ops_finite_on_sane_inputs(self):
        rng = np.random.default_rng(33)
        arg_model = vecent.new_argument_model("t", 6, 5, 4, rng=rng)
        batch = rng.standard_normal((7, 2, 4, 6))
        batch[:3, 0, :2] = 0.0  # leading padding of left halves, so the pad chain runs
        labels = (np.arange(7) % 2).astype(float)[:, None]
        event_model = vecom.new_event_model(input_dim=8, hidden=4, rng=rng)
        composed = 5.0 * rng.standard_normal((9, 8))
        y_exist = (np.arange(9) % 3 == 0).astype(float)[:, None]
        results = [
            vecent.argument_loss_and_grads(arg_model, *_identity_ids(batch), labels, 0.3, 0.3, rng),
            vecom.event_loss_and_grads(event_model, composed, y_exist, y_exist),
        ]
        for loss, grads, probs in results:
            assert np.isfinite(loss)
            assert probs.shape[1] == 1 and np.isfinite(probs).all()
            for name, grad in grads.items():
                assert np.isfinite(grad).all(), name

    def test_nan_input_stops_training_naming_a_parameter(self):
        rng = np.random.default_rng(34)
        # Each window reads its own eight rows of one shared matrix.
        ids = np.arange(96).reshape(12, 2, 4)
        vectors = rng.standard_normal((96, 6))
        windows = [ContextWindow(window, vectors) for window in ids]
        labels = (np.arange(12) % 3 == 0).astype(int)
        vectors[ids[5, 0, 2], 1] = np.nan  # in a left half
        hyper = vecent.Hyper(lstm_hidden=4, arg_mlp_hidden=3, batch=4, epochs=1)
        with pytest.raises(TrainingError, match="non-finite gradient for parameter 'fwd.A'"):
            vecent.train_argument_model(windows, labels, hyper, rng=rng)


def _record_training_arrays(
    monkeypatch, module, loss_name, inputs=("input batch",)
) -> dict[str, np.ndarray]:
    """Wrap ``module.loss_name`` (a model's loss-and-gradient function), the
    optimizer step and the LSTM's BPTT so that a training run records every
    array they see, by name: the loss's leading arguments under the names
    ``inputs``, probabilities, LSTM cache entries, gradients, velocities and
    parameters."""
    seen: dict[str, np.ndarray] = {}
    loss_fn, step, bptt = getattr(module, loss_name), ndiff.sgd_step, ndiff.lstm_bptt

    def loss_and_grads(model, *args):
        loss, grads, probs = loss_fn(model, *args)
        seen.update(zip(inputs, args))
        seen["probabilities"] = probs
        return loss, grads, probs

    def lstm_bptt_recorded(cell, cache, grad):
        run = sum(name.endswith(" X") for name in seen)
        seen[f"lstm {run} X"] = cache["X"]
        for t, entry in enumerate(cache["trace"]):
            for name, arr in zip(("h_prev", "c_prev", "act", "tanh_c"), entry):
                seen[f"lstm {run} step {t} {name}"] = arr
        return bptt(cell, cache, grad)

    def sgd_step_recorded(state, params, grads):
        seen.update({f"gradient {name}": g for name, g in grads.items()})
        step(state, params, grads)
        seen.update({f"velocity {name}": v for name, v in state.velocity.items()})
        seen.update({f"parameter {name}": p for name, p in params.items()})

    monkeypatch.setattr(module, loss_name, loss_and_grads)
    monkeypatch.setattr(ndiff, "lstm_bptt", lstm_bptt_recorded)
    monkeypatch.setattr(ndiff, "sgd_step", sgd_step_recorded)
    return seen


def _assert_production_dtype(arrays: dict[str, np.ndarray]):
    wrong = {name: arr.dtype for name, arr in arrays.items() if arr.dtype != ndiff.DTYPE}
    assert not wrong, wrong


class TestFloat32:
    """The models train and infer in ``ndiff.DTYPE``, float32. One float64
    array in a step would upcast all work that depends on it, silently and
    at about twice the cost, so every array a step makes is checked."""

    @staticmethod
    def _windows():
        corpus = fixtures.bgi_corpus()
        return corpus, vecent.build_entity_windows(corpus, 4, EmbeddingTable(12, seed=3))

    def test_argument_training_step(self, monkeypatch):
        _, windows = self._windows()
        labels = np.arange(len(windows)) % 2
        seen = _record_training_arrays(
            monkeypatch, vecent, "argument_loss_and_grads", ("input ids", "input vectors")
        )
        # One batch holds every row, so one epoch is one step; the default
        # dropout draws a mask.
        hyper = vecent.Hyper(window=4, lstm_hidden=6, arg_mlp_hidden=5, batch=1000, epochs=1)
        model, _ = vecent.train_argument_model(
            list(windows.values()), labels, hyper, rng=np.random.default_rng(0)
        )

        names = model.parameters().keys()
        assert {f"gradient {n}" for n in names} | {f"velocity {n}" for n in names} <= seen.keys()
        assert sum(name.endswith(" X") for name in seen) == 2  # both directions' caches
        assert any(w.ids[0, 0] == 0 for w in windows.values())  # the pad chain ran
        # The batch is ids into the windows' own matrix: no slot's vector is copied.
        ids = seen.pop("input ids")
        assert ids.shape == (len(windows), 2, 5) and ids.dtype.kind == "i"
        assert seen["input vectors"] is next(iter(windows.values())).vectors
        _assert_production_dtype(seen)
        _assert_production_dtype({qid: w.vectors for qid, w in windows.items()})
        assert {w.ids.dtype for w in windows.values()} == {np.dtype(np.int32)}
        inputs = list(windows.values())
        _assert_production_dtype(
            {
                "embeddings": vecent.argument_embeddings(model, inputs),
                "probabilities": vecent.predict_probs(model, inputs),
                "no embeddings": vecent.argument_embeddings(model, []),
            }
        )

    def test_event_training_step(self, monkeypatch):
        corpus, windows = self._windows()
        rng = np.random.default_rng(1)
        models = {
            role: vecent.new_argument_model(role, 12, 6, 5, rng=rng) for role in "ST"
        }
        _, pairs = vecom.candidate_pairs(corpus)
        embeddings = vecom.embed_entities(models, windows)
        exists = np.arange(len(pairs)) % 2
        seen = _record_training_arrays(monkeypatch, vecom, "event_loss_and_grads")
        hyper = vecent.Hyper(event_mlp_hidden=4, batch=10_000, epochs=1)
        model, _ = vecom.train_event_model(
            embeddings, pairs, ("S", "T"), exists, exists, "E", hyper, rng=rng
        )

        names = model.parameters().keys()
        assert {f"gradient {n}" for n in names} | {f"velocity {n}" for n in names} <= seen.keys()
        # The one mini-batch, composed from the pair rows as the loss got it.
        assert seen["input batch"].shape == (len(pairs), 2 * 5)
        _assert_production_dtype(seen)
        p_exists, p_forward = vecom.event_forward_batch(model, embeddings, pairs, ("S", "T"))
        _assert_production_dtype(
            {**embeddings, "existence": p_exists, "forward": p_forward}
        )

    def test_checkpoint_round_trip_bit_for_bit(self, tmp_path):
        model = vecent.new_argument_model("t", 7, 5, 4, rng=np.random.default_rng(3))
        f32 = np.finfo(np.float32)
        model.f1.A[0, :4] = [f32.max, f32.smallest_subnormal, -0.0, 1.0 + f32.eps]
        path = tmp_path / "arg.ckpt"
        save_tensors(path, model.parameters())
        assert {t.dtype for t in load_tensors(path).values()} == {np.dtype(np.float64)}
        loaded = ndiff.load_dense_layers(path, vecent.ArgumentModel.LAYERS)
        for name, layer in loaded.items():
            for field in ("A", "b"):
                got, saved = getattr(layer, field), getattr(getattr(model, name), field)
                assert got.dtype == ndiff.DTYPE
                assert got.tobytes() == saved.tobytes(), f"{name}.{field}"

    def test_float64_checkpoint_loads_rounded(self, tmp_path):
        rng = np.random.default_rng(4)
        A, b = rng.standard_normal((3, 4)), rng.standard_normal(3)
        save_tensors(tmp_path / "old.ckpt", {"layer.A": A, "layer.b": b})
        layer = ndiff.load_dense_layers(tmp_path / "old.ckpt", ["layer"])["layer"]
        assert layer.A.tobytes() == A.astype(np.float32).tobytes()
        assert layer.b.tobytes() == b.astype(np.float32).tobytes()

    def test_lstm_matches_float64_oracle_at_model_shape(self):
        # The float64 per-gate oracle on the same (float32-exact) weights and
        # inputs. Each step adds a (D+H)-term dot product, each of whose
        # float32 roundings is within eps of its partial sum; with rounding
        # errors of random sign the error grows like the square root of the
        # T * (D+H) terms behind an output, relative to its largest entry.
        B, T, D, H = 32, 11, 200, 128
        rng = np.random.default_rng(61)
        cell = init_lstm(rng, D, H)
        assert cell.A.dtype == cell.b.dtype == ndiff.DTYPE
        leads = rng.integers(0, T + 1, size=B)
        leads[:2] = [T, 0]
        steps = _padded_steps(rng, leads, T, D).astype(ndiff.DTYPE)
        grad_out = rng.standard_normal((B, H)).astype(ndiff.DTYPE)

        cache = {}
        h = lstm_last(cell, *_identity_ids(steps), cache=cache)
        grads = lstm_bptt(cell, cache, grad_out)
        h_ref, *grads_ref = _per_gate_bptt_oracle(
            _blocks(cell.astype(np.float64)), steps.astype(np.float64), grad_out.astype(np.float64)
        )
        bound = math.sqrt(T * (D + H)) * np.finfo(np.float32).eps
        for name, got, ref in zip(("h", "A", "b"), (h, *grads), (h_ref, *grads_ref)):
            assert got.dtype == ndiff.DTYPE, name
            np.testing.assert_allclose(
                got, ref, rtol=0, atol=bound * np.abs(ref).max(), err_msg=name
            )
