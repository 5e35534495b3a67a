"""Minimal dense-tensor reverse-mode automatic differentiation.

Exactly the operators the models need: affine maps over row batches
``(B, n)``, tanh, sigmoid and relu, sums, products, concatenation, dropout,
a weighted binary cross-entropy, and a whole-sequence LSTM over a constant
step-major batch ``(T, B, D)``, the last two each recorded as a single node
(the LSTM hoists the input projection out of the recurrence, skips leading
all-zero steps by packing the rows and sharing one pad-state chain, and runs
BPTT by hand), plus momentum SGD.
Values are float64 throughout. Inside ``with no_grad():`` no operation
records a tape.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, TrainingError

check_finite = False  # set True in tests to assert the all-finite invariant


_grad_enabled = True  # False inside no_grad()

INFERENCE_CHUNK = 256  # rows per no-grad forward pass; bounds activation memory


class Tensor:
    """A dense array plus the recorded backward rule that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward_fn

    @property
    def shape(self):
        return self.data.shape


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` into ``t.grad``. A first gradient is copied, because ``g`` may
    alias a live buffer, unless ``fresh`` says that nothing else holds it."""
    if not _wants_grad(t):
        return
    if t.grad is None:
        t.grad = g if fresh else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _records(parents) -> bool:
    return _grad_enabled and any(_wants_grad(p) for p in parents)


def _node(data, parents, backward_fn) -> Tensor:
    if check_finite and not np.isfinite(data).all():
        raise TrainingError("non-finite value produced by an operation")
    if _records(parents):
        return Tensor(data, parents=parents, backward_fn=backward_fn)
    return Tensor(data)


@contextmanager
def no_grad():
    """Inference scope: operations record no parents and keep no backward
    state. The previous mode is restored on exit, also after an exception."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def inference_chunks(n: int) -> list[slice]:
    """Row slices of at most INFERENCE_CHUNK rows covering ``range(n)``; one
    empty slice when n is 0, so a forward pass still sees a (0, ...) batch."""
    return [slice(lo, lo + INFERENCE_CHUNK) for lo in range(0, max(n, 1), INFERENCE_CHUNK)]


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# Operators


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _node(a.data + b.data, (a, b), backward_fn)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with another tensor, an array constant, or a scalar."""
    if isinstance(b, Tensor):
        _same_shape(a, b, "mul")

        def backward_fn(g):
            _accumulate(a, g * b.data)
            _accumulate(b, g * a.data)

        return _node(a.data * b.data, (a, b), backward_fn)

    factor = np.asarray(b, dtype=np.float64)
    if factor.shape not in ((), a.data.shape):
        raise ShapeError(f"mul: constant shape {factor.shape} incompatible with {a.data.shape}")

    def backward_fn(g):
        _accumulate(a, g * factor)

    return _node(a.data * factor, (a,), backward_fn)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward_fn(g):
        _accumulate(x, g * (1.0 - out * out))

    return _node(out, (x,), backward_fn)


def sigmoid(x: Tensor) -> Tensor:
    out = 0.5 * (1.0 + np.tanh(0.5 * x.data))  # overflow-free formulation

    def backward_fn(g):
        _accumulate(x, g * out * (1.0 - out))

    return _node(out, (x,), backward_fn)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # subgradient 0 at 0

    def backward_fn(g):
        _accumulate(x, g * mask)

    return _node(np.where(mask, x.data, 0.0), (x,), backward_fn)


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    ndim = parts[0].data.ndim
    for p in parts:
        if p.data.ndim != ndim:
            raise ShapeError("concat: mixed ranks")
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            _accumulate(p, piece)

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward_fn)


def sum_all(x: Tensor) -> Tensor:
    def backward_fn(g):
        _accumulate(x, np.full_like(x.data, float(g)))

    return _node(x.data.sum(), (x,), backward_fn)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scale survivors by 1/(1-rate); identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)

    def backward_fn(g):
        _accumulate(x, g * keep)

    return _node(x.data * keep, (x,), backward_fn)


# ---------------------------------------------------------------------------
# Dense and LSTM layers


@dataclass
class DenseParams:
    """Fully connected layer y = A x + b."""

    A: Tensor
    b: Tensor

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.A": self.A, f"{prefix}.b": self.b}


class Layers:
    """A model made of named dense layers, the fields listed in ``LAYERS``.
    Its parameters, and the tensors of its checkpoint, are named
    ``<layer>.A`` and ``<layer>.b``."""

    LAYERS: tuple[str, ...] = ()

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for layer in self.LAYERS:
            out.update(getattr(self, layer).params(layer))
        return out


def affine(params: DenseParams, x: Tensor) -> Tensor:
    """``x A^T + b`` over a batch of rows ``(B, in) -> (B, out)``."""
    A, b = params.A, params.b
    if x.data.ndim != 2 or x.data.shape[1] != A.data.shape[1]:
        raise ShapeError(f"affine: input {x.data.shape} vs weight {A.data.shape}")

    def backward_fn(g):
        _accumulate(A, g.T @ x.data)
        _accumulate(b, g.sum(axis=0))
        _accumulate(x, g @ A.data)

    return _node(x.data @ A.data.T + b.data, (A, b, x), backward_fn)


def _grow(state: np.ndarray, rows: int) -> np.ndarray:
    """``state`` with rows appended up to ``rows``, each a copy of row 0: rows
    joining the packed batch start from the pad chain's state."""
    extra = rows - len(state)
    if not extra:
        return state
    return np.concatenate([state, np.broadcast_to(state[:1], (extra, state.shape[1]))])


def _fold(grad: np.ndarray, rows: int) -> np.ndarray:
    """Adjoint of ``_grow``: the rows past ``rows`` are summed into row 0, in
    place, and dropped."""
    if len(grad) > rows:
        grad[0] += grad[rows:].sum(axis=0)
    return grad[:rows]


def lstm_last(cell: DenseParams, X: np.ndarray) -> Tensor:
    """Final hidden states ``(B, H)`` of a forget-gate LSTM run from the zero
    state over ``X``, a constant step-major batch ``(T, B, D)``.

    ``cell`` is one dense layer over ``[x, h]`` for all four gates: ``A`` is
    ``(4H, D+H)`` and ``b`` is ``(4H,)``, in row blocks i, f, o, g. The whole
    sequence is one tape node: the input projection ``Wx = A[:, :D]`` is a
    single GEMM, each step adds only ``h @ Wh.T`` with ``Wh = A[:, D:]``, and
    the backward closure runs BPTT by hand into ``A`` and ``b``. The input is
    constant, so it gets no gradient.

    No row's leading all-zero steps (window padding) are computed. From the
    zero state, zero inputs take every row through one shared state
    sequence, the pad chain. Rows are sorted stably by their count of leading
    zero steps, so the rows past their padding at step t are a prefix, and
    only those are gathered, step-major, and projected. The chain runs as
    packed row 0 on zero input; a row joins at its first non-zero step from
    the chain's state there, and an all-zero row ends in the chain's final
    state. BPTT runs over the same layout and sums the gradients of joining
    rows into the chain.
    """
    A, b = cell.A, cell.b
    hidden = len(b.data) // 4
    in_dim = A.data.shape[1] - hidden
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != in_dim:
        raise ShapeError(f"lstm_last: input shape {X.shape} vs input size {in_dim}")
    steps, batch = X.shape[:2]
    if not steps:
        raise ShapeError("lstm_last: empty sequence")
    keep = _records((A, b))

    lead = np.zeros(batch, dtype=np.int64)  # leading all-zero steps per row
    padded = np.flatnonzero(~X[0].any(axis=1))
    if len(padded):  # only rows whose first step is zeros have any
        lead[padded] = (~np.logical_or.accumulate(X[:, padded].any(axis=2))).sum(axis=0)
    order = np.argsort(lead, kind="stable")
    chain = int(lead.any())  # 1 when some row has padding: packed row 0 is the chain
    step_col = np.arange(steps)[:, None]
    live = lead[order] <= step_col  # (T, B) past its padding: a prefix of each step's rows
    widths = chain + live.sum(axis=1)  # packed rows per step
    X = X.reshape(-1, in_dim)
    if chain:  # else the packing is the identity
        # Each step packs the chain, which reads step 0 of the row with the
        # longest lead (zeros), then the sorted rows past their padding.
        source = np.column_stack([np.full(steps, order[-1]), step_col * batch + order])
        X = X.take(source[np.column_stack([np.ones(steps, dtype=bool), live])], axis=0)

    Wx, Wh = A.data[:, :in_dim], A.data[:, in_dim:]
    # sigmoid(x) = (1 + tanh(x/2)) / 2. Halving the weight rows and biases of
    # the three sigmoid gates halves their pre-activations exactly (scaling by
    # a power of two rounds the same way unless a value is subnormal), so the
    # forward runs no halving pass; BPTT keeps the unscaled weights.
    half = np.repeat([0.5, 1.0], [3 * hidden, hidden])
    projected = X @ (half[:, None] * Wx).T
    projected += half * b.data
    Wh_half = half[:, None] * Wh
    gate_cols = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]

    cache = []  # per step, only when recording: h_prev, c_prev, activations, tanh(c)
    h = c = np.zeros((widths[0], hidden))
    end = 0
    for t, width in enumerate(widths):
        act = projected[end : end + width]  # this step's rows become its activations
        end += width
        h, c = _grow(h, width), _grow(c, width)
        if t:  # the zero state adds nothing at the first step
            act += h @ Wh_half.T
        np.tanh(act, out=act)
        sig = act[:, : 3 * hidden]
        sig += 1.0
        sig *= 0.5
        i, f, o, g = (act[:, cols] for cols in gate_cols)
        c_next = f * c
        c_next += i * g
        tanh_c = np.tanh(c_next)
        if keep:
            cache.append((h, c, act, tanh_c))
        h, c = o * tanh_c, c_next
    out = np.empty((batch, hidden))
    out[order] = _grow(h, chain + batch)[chain:]  # all-zero rows end on the chain
    if not keep:
        return _node(out, (), None)

    def backward_fn(grad):
        dh = np.zeros((chain + batch, hidden))
        dh[chain:] = grad[order]
        dh = _fold(dh, widths[-1])
        dc = 0.0
        d_pre = []  # gate pre-activation gradients, last step first
        for t in reversed(range(steps)):
            h_prev, c_prev, act, tanh_c = cache[t]
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
        h_prevs = np.concatenate([entry[0] for entry in cache])
        _accumulate(A, d_pre.T @ np.concatenate([X, h_prevs], axis=1), fresh=True)
        _accumulate(b, d_pre.sum(axis=0))

    return _node(out, (A, b), backward_fn)


# ---------------------------------------------------------------------------
# Loss


def weighted_bce(y, p: Tensor, pos_weight, neg_weight, eps: float = 1e-7) -> Tensor:
    """-sum_i [w+_i y_i log p_i + w-_i (1-y_i) log(1-p_i)], probabilities
    clamped to [eps, 1-eps], as one tape node. Each weight is a scalar or an
    array of per-row weights shaped like ``y`` (a 0/1 array masks rows out).
    A probability at or past a clamp bound gets no gradient."""
    labels = np.asarray(y, dtype=np.float64)
    if labels.shape != p.data.shape:
        raise ShapeError(f"weighted_bce: labels {labels.shape} vs predictions {p.data.shape}")
    pos_weight = np.asarray(pos_weight, dtype=np.float64)
    neg_weight = np.asarray(neg_weight, dtype=np.float64)
    if (pos_weight < 0).any() or (neg_weight < 0).any():
        raise ValueError("weighted_bce: class weights must be non-negative")
    pos = pos_weight * labels
    neg = neg_weight * (1.0 - labels)
    if pos.shape != labels.shape or neg.shape != labels.shape:
        raise ShapeError(f"weighted_bce: weights do not match labels {labels.shape}")
    q = np.clip(p.data, eps, 1.0 - eps)

    def backward_fn(g):
        G = np.full_like(q, float(g * -1.0))
        inside = (p.data > eps) & (p.data < 1.0 - eps)
        _accumulate(p, ((G * pos) / q - (G * neg) / (1.0 - q)) * inside, fresh=True)

    return _node((np.log(q) * pos + np.log(1.0 - q) * neg).sum() * -1.0, (p,), backward_fn)


# ---------------------------------------------------------------------------
# Backward pass


def backward(loss: Tensor) -> None:
    """Populate .grad on every reachable requires_grad tensor; clears the tape."""
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    for node in topo:
        node._parents = ()
        node._backward = None
        if not node.requires_grad:
            node.grad = None


# ---------------------------------------------------------------------------
# Optimizer


class SGDState:
    """Momentum SGD: v <- mu v - lr g; p <- p + v."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.9):
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}


def sgd_step(state: SGDState, params: dict[str, Tensor]) -> None:
    """Apply one update in place from each tensor's .grad, which it consumes
    (scales in place) and clears."""
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise TrainingError(f"no gradient for parameter {name!r}")
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        v = state.velocity.get(name)
        if v is None:
            v = state.velocity[name] = np.zeros_like(p.data)
        v *= state.momentum
        g *= state.learning_rate
        v -= g
        p.data += v
        p.grad = None


# ---------------------------------------------------------------------------
# Initialization


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_dense(rng: np.random.Generator, in_dim: int, out_dim: int) -> DenseParams:
    return DenseParams(
        A=parameter(glorot_uniform(rng, in_dim, out_dim, (out_dim, in_dim))),
        b=parameter(np.zeros(out_dim)),
    )


def init_lstm(rng: np.random.Generator, input_dim: int, hidden: int) -> DenseParams:
    """The four gates of an LSTM cell as one dense layer over [input, hidden]
    (see ``lstm_last``): Glorot-uniform with one gate's fan-out, so each row
    block draws as a gate of its own would; zero biases, forget-gate bias +1."""
    total = input_dim + hidden
    bias = np.zeros(4 * hidden)
    bias[hidden : 2 * hidden] = 1.0
    return DenseParams(
        A=parameter(glorot_uniform(rng, total, hidden, (4 * hidden, total))),
        b=parameter(bias),
    )


# ---------------------------------------------------------------------------
# Checkpoints

_MAGIC = b"BEE1"
_VERSION = 1


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Versioned little-endian blob of named float64 arrays."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
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
            data = np.frombuffer(read(8 * math.prod(shape)), dtype="<f8").reshape(shape)
            out[name] = np.array(data, dtype=np.float64)
        return out


def load_dense_layers(path, prefixes) -> dict[str, DenseParams]:
    """The named dense layers of a checkpoint, as trainable parameters; each
    ``A`` must be a matrix and its ``b`` hold one entry per row of it."""
    blobs = load_tensors(path)
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
        layers[prefix] = DenseParams(*(parameter(blobs[name]) for name in names))
    return layers


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


def gradient_check(build, params: dict[str, Tensor], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``build`` must deterministically reconstruct the scalar loss from the
    current parameter values. Relative error uses max(|a|, |n|, 1e-3) as
    the scale so that zero-gradient (disconnected) parameters compare clean.
    """
    loss = build()
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    for p in params.values():
        p.grad = None
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros(flat.size)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = float(build().data)
            flat[idx] = orig - eps
            down = float(build().data)
            flat[idx] = orig
            numeric[idx] = (up - down) / (2.0 * eps)
        a = analytic[name].reshape(-1)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-3)
        err = np.abs(a - numeric) / scale
        if err.size:
            worst = max(worst, float(err.max()))
    return worst
