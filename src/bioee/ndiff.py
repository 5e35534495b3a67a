"""Numpy building blocks of the two models and their hand-written gradients.

Dense layers over row batches ``(B, n)``, a whole-sequence LSTM whose one
input form is a step-major batch of word ids ``(T, B)`` into one word-vector
matrix, with its backpropagation through time, a weighted binary
cross-entropy that returns its gradient, momentum SGD, finite-difference
gradient checking and checkpoints. The LSTM hoists the input projection out of the recurrence,
projects each distinct word once, and skips leading all-zero steps by
packing the rows and sharing one pad-state chain. Each model composes these
into one loss-and-gradient function; nothing records a graph.

The models hold ``DTYPE`` (float32) parameters, and every op computes in the
dtype of the parameters it is given, so a float64 model (as the gradient
checks build) runs the same code in float64. Only the loss and its clamp are
computed in float64 whatever the dtype. Checkpoints store float64, which
holds float32 values exactly.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, TrainingError

DTYPE = np.float32  # of model parameters, word vectors and activations
INFERENCE_CHUNK = 256  # rows per inference forward pass; bounds activation memory


def inference_chunks(n: int) -> list[slice]:
    """Row slices of at most INFERENCE_CHUNK rows covering ``range(n)``; one
    empty slice when n is 0, so a forward pass still sees a (0, ...) batch."""
    return [slice(lo, lo + INFERENCE_CHUNK) for lo in range(0, max(n, 1), INFERENCE_CHUNK)]


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), in an overflow-free form."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def dropout_mask(rate: float, shape, rng: np.random.Generator, dtype=np.float64):
    """Inverted-dropout multipliers of ``dtype`` for a training batch: 0 for a
    dropped unit, 1/(1-rate) for a survivor. None at rate 0, which draws
    nothing. The draws are float64 whatever ``dtype``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None
    return ((rng.random(shape) >= rate) / (1.0 - rate)).astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# Dense and LSTM layers


@dataclass
class DenseParams:
    """Fully connected layer y = A x + b."""

    A: np.ndarray
    b: np.ndarray

    def params(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.A": self.A, f"{prefix}.b": self.b}

    def astype(self, dtype) -> DenseParams:
        return DenseParams(self.A.astype(dtype), self.b.astype(dtype))


class Layers:
    """A model made of named dense layers, the fields listed in ``LAYERS``.
    Its parameters, their gradients and the tensors of its checkpoint are
    named ``<layer>.A`` and ``<layer>.b``."""

    LAYERS: tuple[str, ...] = ()

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for layer in self.LAYERS:
            out.update(getattr(self, layer).params(layer))
        return out

    def astype(self, dtype):
        """A copy of the model with every layer's parameters in ``dtype``."""
        return dataclasses.replace(
            self, **{layer: getattr(self, layer).astype(dtype) for layer in self.LAYERS}
        )


def affine(params: DenseParams, x: np.ndarray) -> np.ndarray:
    """``x A^T + b`` over a batch of rows ``(B, in) -> (B, out)``, in the
    dtype of ``A``."""
    A, b = params.A, params.b
    if x.ndim != 2 or x.shape[1] != A.shape[1]:
        raise ShapeError(f"affine: input {x.shape} vs weight {A.shape}")
    out = np.asarray(x, dtype=A.dtype) @ A.T
    out += b
    return out


def dense_grads(prefix: str, g: np.ndarray, x: np.ndarray) -> dict[str, np.ndarray]:
    """The gradients of layer ``prefix`` of ``affine`` over input ``x``, given
    the gradient ``g`` of its output."""
    return {f"{prefix}.A": g.T @ x, f"{prefix}.b": g.sum(axis=0)}


def _fold(grad: np.ndarray, rows: int) -> np.ndarray:
    """Adjoint of rows joining the packed batch from the pad chain (row 0):
    the rows past ``rows`` are summed into row 0, in place, and dropped."""
    if len(grad) > rows:
        grad[0] += grad[rows:].sum(axis=0)
    return grad[:rows]


def _gate_cols(hidden: int) -> list[slice]:
    """The column blocks of gates i, f, o and g in a fused cell's activations."""
    return [slice(k * hidden, (k + 1) * hidden) for k in range(4)]


def lstm_last(
    cell: DenseParams, X: np.ndarray, vectors: np.ndarray, cache: dict | None = None
) -> np.ndarray:
    """Final hidden states ``(B, H)`` of a forget-gate LSTM run from the zero
    state over a constant step-major batch: ``X`` is ``(T, B)`` int ids into
    the rows of the word-vector matrix ``vectors`` ``(V, D)``, its one input
    form: ``(T, B, D)`` rows run as ``arange(T * B).reshape(T, B)`` into
    ``rows.reshape(-1, D)``.

    ``cell`` is one dense layer over ``[x, h]`` for all four gates: ``A`` is
    ``(4H, D+H)`` and ``b`` is ``(4H,)``, in row blocks i, f, o, g. The input
    projection ``Wx = A[:, :D]`` is a single GEMM over the distinct ids of the
    batch, one row per word however many slots it fills, and each step
    gathers its projected rows and adds only ``h @ Wh.T`` with
    ``Wh = A[:, D:]``, from one ``(H, 4H)`` C-contiguous copy of ``Wh.T``
    made per call. Training passes an empty ``cache``, which this fills with
    what ``lstm_bptt`` needs, the packed input rows included; inference keeps
    nothing and holds one step's activations at a time. The input rows, the
    state and the output take the dtype of ``A``.

    No row's leading all-zero steps (window padding, and words whose vector
    is zero) are computed. From the zero state, zero inputs take every row
    through one shared state sequence, the pad chain. Rows are sorted stably
    by their count of leading zero steps, so the rows past their padding at
    step t are a prefix, and only those are packed, step-major. The chain
    runs as packed row 0 on zero input; a row joins at its first non-zero
    step from the chain's state there, and an all-zero row ends in the
    chain's final state.
    """
    A, b = cell.A, cell.b
    hidden = len(b) // 4
    in_dim = A.shape[1] - hidden
    dtype = A.dtype
    if X.ndim != 2 or vectors.ndim != 2 or vectors.shape[1] != in_dim:
        raise ShapeError(
            f"lstm_last: ids {X.shape} into vectors {vectors.shape} vs input size {in_dim}"
        )
    steps, batch = X.shape
    if not steps:
        raise ShapeError("lstm_last: empty sequence")

    # Each distinct id once; slots (step-major) index these rows by ``inv``.
    used, inv = np.unique(X.reshape(-1), return_inverse=True)
    distinct = np.asarray(vectors[used], dtype=dtype)
    pad = (~distinct.any(axis=1))[inv].reshape(steps, batch)  # zero input slots
    lead = np.zeros(batch, dtype=np.int64)  # leading all-zero steps per row
    padded = np.flatnonzero(pad[0])
    if len(padded):  # only rows whose first step is zeros have any
        lead[padded] = np.logical_and.accumulate(pad[:, padded]).sum(axis=0)
    order = np.argsort(lead, kind="stable")
    chain = int(lead.any())  # 1 when some row has padding: packed row 0 is the chain
    step_col = np.arange(steps)[:, None]
    live = lead[order] <= step_col  # (T, B) past its padding: a prefix of each step's rows
    widths = chain + live.sum(axis=1)  # packed rows per step
    if chain:  # else the packing is the identity
        # Each step packs the chain, which reads step 0 of the row with the
        # longest lead (zeros), then the sorted rows past their padding.
        source = np.column_stack([np.full(steps, order[-1]), step_col * batch + order])
        inv = inv[source[np.column_stack([np.ones(steps, dtype=bool), live])]]

    Wx, Wh = A[:, :in_dim], A[:, in_dim:]
    # sigmoid(x) = (1 + tanh(x/2)) / 2. Halving the weight rows and biases of
    # the three sigmoid gates halves their pre-activations exactly (scaling by
    # a power of two rounds the same way unless a value is subnormal), so the
    # forward runs no halving pass; BPTT keeps the unscaled weights.
    half = np.repeat(np.array([0.5, 1.0], dtype=dtype), [3 * hidden, hidden])
    projected = distinct @ (half[:, None] * Wx).T  # one row per distinct id
    projected += half * b
    # The recurrent weight is one C-contiguous (H, 4H) copy per call: each
    # step's product has only the rows past their padding, and at such widths
    # OpenBLAS runs it up to three times faster in this layout than through
    # the transposed view of Wh (9 rows at H=128, float32, one thread of a
    # Xeon vCPU: 11 against 34 us).
    Wh_half = np.ascontiguousarray(Wh.T)
    Wh_half *= half
    gate_cols = _gate_cols(hidden)

    trace = []  # per step, only when training: h_prev, c_prev, activations, tanh(c)
    h = c = np.zeros((widths[0], hidden), dtype=dtype)
    end = 0
    # Each step writes its state into buffers of the next step's width (all
    # packed rows after the last step); the rows joining there start from the
    # chain's state, a copy of row 0.
    next_widths = [*widths[1:].tolist(), chain + batch]
    for t, (width, rows) in enumerate(zip(widths.tolist(), next_widths)):
        act = projected[inv[end : end + width]]  # this step's packed rows: its activations
        end += width
        if t:  # the zero state adds nothing at the first step
            act += h @ Wh_half
        np.tanh(act, out=act)
        sig = act[:, : 3 * hidden]
        sig += 1.0
        sig *= 0.5
        i, f, o, g = (act[:, cols] for cols in gate_cols)
        h_next, c_next = state = np.empty((2, rows, hidden), dtype=dtype)
        np.multiply(f, c, out=c_next[:width])
        c_next[:width] += i * g
        tanh_c = np.tanh(c_next[:width])
        np.multiply(o, tanh_c, out=h_next[:width])
        state[:, width:] = state[:, :1]
        if cache is not None:
            trace.append((h, c, act, tanh_c))
        h, c = h_next, c_next
        del act, sig, i, f, o, g, tanh_c  # inference frees them before the next step gathers
    out = np.empty((batch, hidden), dtype=dtype)
    out[order] = h[chain:]  # all-zero rows end on the chain
    if cache is not None:
        cache.update(trace=trace, X=distinct[inv], order=order, chain=chain, widths=widths)
    return out


def lstm_bptt(cell: DenseParams, cache: dict, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``cell``'s ``A`` and ``b`` by backpropagation through the
    run ``lstm_last`` recorded in ``cache``, given the gradient ``grad`` of its
    ``(B, H)`` output. It runs over the packed layout and sums the gradients
    of joining rows into the pad chain; the input is constant, so it gets no
    gradient."""
    trace, X, order, chain, widths = (
        cache[key] for key in ("trace", "X", "order", "chain", "widths")
    )
    hidden = len(cell.b) // 4
    Wh = cell.A[:, cell.A.shape[1] - hidden :]
    gate_cols = _gate_cols(hidden)
    dh = np.zeros((chain + len(order), hidden), dtype=cell.A.dtype)
    dh[chain:] = grad[order]
    dh = _fold(dh, widths[-1])
    dc = 0.0
    d_pre = []  # gate pre-activation gradients, last step first
    for t in reversed(range(len(trace))):
        h_prev, c_prev, act, tanh_c = trace[t]
        i, f, o, g = (act[:, cols] for cols in gate_cols)
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dh * tanh_c * o * (1.0 - o),
                dc * i * (1.0 - g * g),
            ],
            axis=1,
        )
        d_pre.append(d)
        if t:
            dh = _fold(d @ Wh, widths[t - 1])
            dc = _fold(dc * f, widths[t - 1])
    d_pre = np.concatenate(d_pre[::-1])  # packed rows, step-major like X
    h_prevs = np.concatenate([entry[0] for entry in trace])
    return d_pre.T @ np.concatenate([X, h_prevs], axis=1), d_pre.sum(axis=0)


# ---------------------------------------------------------------------------
# Loss


def weighted_bce(y, p: np.ndarray, pos_weight, neg_weight, scale: float = 1.0, eps: float = 1e-7):
    """-sum_i [w+_i y_i log p_i + w-_i (1-y_i) log(1-p_i)], probabilities
    clamped to [eps, 1-eps], and the gradient with respect to ``p`` of
    ``scale`` times it (a batch mean passes 1/B). Each weight is a scalar or
    an array of per-row weights shaped like ``y`` (a 0/1 array masks rows
    out). A probability at or past a clamp bound gets no gradient.

    The loss and the clamp are computed in float64 whatever the dtype of
    ``p`` (1 - 1e-7 rounds to 1 - 1.2e-7 in float32); the gradient is
    returned in the dtype of ``p``."""
    labels = np.asarray(y, dtype=np.float64)
    dtype, p = p.dtype, np.asarray(p, dtype=np.float64)
    if labels.shape != p.shape:
        raise ShapeError(f"weighted_bce: labels {labels.shape} vs predictions {p.shape}")
    pos_weight = np.asarray(pos_weight, dtype=np.float64)
    neg_weight = np.asarray(neg_weight, dtype=np.float64)
    if (pos_weight < 0).any() or (neg_weight < 0).any():
        raise ValueError("weighted_bce: class weights must be non-negative")
    pos = pos_weight * labels
    neg = neg_weight * (1.0 - labels)
    if pos.shape != labels.shape or neg.shape != labels.shape:
        raise ShapeError(f"weighted_bce: weights do not match labels {labels.shape}")
    q = np.clip(p, eps, 1.0 - eps)
    G = np.full_like(q, float(scale * -1.0))
    inside = (p > eps) & (p < 1.0 - eps)
    dp = ((G * pos) / q - (G * neg) / (1.0 - q)) * inside
    loss = (np.log(q) * pos + np.log(1.0 - q) * neg).sum() * -1.0
    return loss, dp.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# Optimizer


class SGDState:
    """Momentum SGD: v <- mu v - lr g; p <- p + v."""

    def __init__(self, learning_rate: float, momentum: float):
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}


def sgd_step(state: SGDState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
    """Update each parameter in place from its gradient in ``grads``, which
    it consumes: each is scaled in place and taken out of ``grads``, so no
    step's gradients stay alive through the next step's forward pass."""
    for name, p in params.items():
        g = grads.pop(name, None)
        if g is None:
            raise TrainingError(f"no gradient for parameter {name!r}")
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        v = state.velocity.get(name)
        if v is None:
            v = state.velocity[name] = np.zeros_like(p)
        v *= state.momentum
        g *= state.learning_rate
        v -= g
        p += v


# ---------------------------------------------------------------------------
# Initialization


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Float64 draws, whatever dtype the caller then casts them to, so the
    generator's stream does not depend on it."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_dense(rng: np.random.Generator, in_dim: int, out_dim: int) -> DenseParams:
    A = glorot_uniform(rng, in_dim, out_dim, (out_dim, in_dim))
    return DenseParams(A=A.astype(DTYPE), b=np.zeros(out_dim, dtype=DTYPE))


def init_lstm(rng: np.random.Generator, input_dim: int, hidden: int) -> DenseParams:
    """The four gates of an LSTM cell as one dense layer over [input, hidden]
    (see ``lstm_last``): Glorot-uniform with one gate's fan-out, so each row
    block draws as a gate of its own would; zero biases, forget-gate bias +1."""
    total = input_dim + hidden
    bias = np.zeros(4 * hidden, dtype=DTYPE)
    bias[hidden : 2 * hidden] = 1.0
    A = glorot_uniform(rng, total, hidden, (4 * hidden, total))
    return DenseParams(A=A.astype(DTYPE), b=bias)


# ---------------------------------------------------------------------------
# Checkpoints

_MAGIC = b"BEE1"
_VERSION = 1
_BLOCK = 1 << 15  # float64 values per read of load_tensors, bounding its memory


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Versioned little-endian blob of named float64 arrays; float32 arrays
    are stored exactly."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype="<f8", order="C")  # at most one copy, written as is
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr)


def load_tensors(path, dtype=np.float64) -> dict[str, np.ndarray]:
    """The named tensors of a checkpoint, each in ``dtype``: read through one
    block of at most ``_BLOCK`` float64 values at a time, which is cast into
    it as ``astype`` casts, so no float64 copy of a tensor is held."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            # Checked before reading, so a corrupt shape cannot ask for more
            # memory than the file holds.
            if n > file_size - fh.tell():
                raise TrainingError(f"{path}: checkpoint is truncated")
            return fh.read(n)

        if fh.read(4) != _MAGIC:
            raise TrainingError(f"{path}: not a checkpoint file")
        version, count = struct.unpack("<II", read(8))
        if version != _VERSION:
            raise TrainingError(f"{path}: unsupported checkpoint version {version}")
        out = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2))
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise TrainingError(f"{path}: tensor name is not UTF-8") from None
            (ndim,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim)) if ndim else ()
            if 8 * math.prod(shape) > file_size - fh.tell():
                raise TrainingError(f"{path}: checkpoint is truncated")
            out[name] = data = np.empty(shape, dtype=dtype)
            for part in np.split(data.reshape(-1), range(_BLOCK, data.size, _BLOCK)):
                part[:] = np.frombuffer(fh.read(8 * part.size), dtype="<f8")
        return out


def load_dense_layers(path, prefixes) -> dict[str, DenseParams]:
    """The named dense layers of a checkpoint, in ``DTYPE``; each ``A`` must
    be a matrix and its ``b`` hold one entry per row of it."""
    blobs = load_tensors(path, DTYPE)
    layers = {}
    for prefix in prefixes:
        names = (f"{prefix}.A", f"{prefix}.b")
        for name in names:
            if name not in blobs:
                raise TrainingError(f"{path}: checkpoint has no tensor {name!r}")
        A, b = (blobs[name] for name in names)
        if A.ndim != 2 or b.shape != A.shape[:1]:
            raise TrainingError(
                f"{path}: layer {prefix!r} has weight shape {A.shape} and bias shape {b.shape}"
            )
        layers[prefix] = DenseParams(A, b)
    return layers


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


def gradient_check(loss_and_grads, params: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_and_grads()`` must deterministically compute the scalar loss and
    a gradient for each of ``params`` from their current values. Relative
    error uses max(|a|, |n|, 1e-3) as the scale so that zero gradients
    compare clean.
    """
    _, analytic = loss_and_grads()
    if analytic.keys() != params.keys():
        raise TrainingError(
            f"gradients for {sorted(analytic)}, not the parameters {sorted(params)}"
        )
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        numeric = np.zeros(flat.size)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = float(loss_and_grads()[0])
            flat[idx] = orig - eps
            down = float(loss_and_grads()[0])
            flat[idx] = orig
            numeric[idx] = (up - down) / (2.0 * eps)
        a = analytic[name].reshape(-1)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-3)
        err = np.abs(a - numeric) / scale
        if err.size:
            worst = max(worst, float(err.max()))
    return worst
