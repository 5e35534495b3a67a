"""Per-argument-type context classifiers over bi-directional LSTM encodings.

Each recognized entity gets a closed-boundary context window: the window
tokens run up to and *including* the entity's anchor token from both sides,
so the entity surface itself contributes to the encoding. A one-vs-all
binary classifier is trained per argument role; its first dense layer output
doubles as the argument embedding consumed by the event classifiers.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import ndiff
from .corpus import Corpus, Entity, Sentence
from .embed import PAD, EmbeddingTable
from .errors import AlignmentError, ShapeError, TrainingError, TrainingSetupError
from .ndiff import DenseParams


@dataclass
class ContextWindow:
    """Word vectors around one entity, u context slots plus the anchor per
    half: row ``ids[k, t]`` of ``vectors``.

    ``ids[0]`` reads toward the anchor from the left; ``ids[1]`` holds the u
    tokens after the anchor in reversed order. Both end with the anchor and
    are padded at the far end with id 0, the zero row. The windows of one
    ``build_entity_windows`` call share one ``vectors`` matrix.
    """

    ids: np.ndarray  # (2, u+1) int32
    vectors: np.ndarray  # (V, dim)


@dataclass
class Hyper:
    """The training settings of both stages, the ``[hyper]`` section of a
    run config, under their config names and with the paper's defaults."""

    window: int = 10  # u, the context tokens on each side of the anchor
    lstm_hidden: int = 128
    arg_mlp_hidden: int = 128
    event_mlp_hidden: int = 64
    batch: int = 32
    epochs: int = 10
    dropout: float = 0.2
    lr: float = 0.01
    momentum: float = 0.9
    oversample_ratio: float = 5.0  # bound on majority/minority after oversampling
    threshold: float = 0.5  # existence probability that decodes an event


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    accuracy: float
    mse: float


@dataclass
class ArgumentModel(ndiff.Layers):
    """Left-to-right and right-to-left LSTM cells (fused gate layers, see
    ``ndiff.lstm_last``) plus a two-layer MLP head with dropout between."""

    LAYERS = ("fwd", "bwd", "f1", "f2")

    arg_type: str
    fwd: DenseParams
    bwd: DenseParams
    f1: DenseParams
    f2: DenseParams

    @property
    def embedding_size(self) -> int:
        return self.f1.A.shape[0]

    @property
    def input_size(self) -> int:
        """The word-vector size D of the LSTM cells, whose ``A`` is (4H, D+H)."""
        rows, cols = self.fwd.A.shape
        return cols - rows // 4


def new_argument_model(
    arg_type: str,
    embed_dim: int,
    lstm_hidden: int,
    mlp_hidden: int,
    rng: np.random.Generator | None = None,
) -> ArgumentModel:
    rng = rng or np.random.default_rng(0)
    return ArgumentModel(
        arg_type=arg_type,
        fwd=ndiff.init_lstm(rng, embed_dim, lstm_hidden),
        bwd=ndiff.init_lstm(rng, embed_dim, lstm_hidden),
        f1=ndiff.init_dense(rng, 2 * lstm_hidden, mlp_hidden),
        f2=ndiff.init_dense(rng, mlp_hidden, 1),
    )


# ---------------------------------------------------------------------------
# Window construction


def _window_halves(sentence: Sentence, entity: Entity, u: int) -> tuple[list[str], list[str]]:
    """The real tokens of both window halves, each read toward the anchor:
    at most u+1 per half, before the far-end padding.

    Only tokens with alphanumeric signal count, plus the anchor even if it
    has none (punctuation-only tokens pad nothing into the LSTMs).
    """
    if u < 1:
        raise ValueError(f"window size must be >= 1, got {u}")
    if entity.token_span is None:
        raise AlignmentError(f"entity {entity.id} has no token alignment")
    anchor = entity.token_span[1]
    toks = [
        t for t in sentence.tokens if any(ch.isalnum() for ch in t.text) or t.index == anchor
    ]
    pos = next(k for k, t in enumerate(toks) if t.index == anchor)
    left = [t.text for t in toks[max(0, pos - u) : pos + 1]]
    right = [t.text for t in reversed(toks[pos : pos + u + 1])]
    return left, right


def _entity_sentences(corpus: Corpus):
    """(qualified id, sentence, entity) for every entity, in document order."""
    for doc in corpus.documents:
        for sent in doc.sentences:
            for ent in sent.entities:
                yield Corpus.qualify(doc.id, ent.id), sent, ent


def build_entity_windows(
    corpus: Corpus, u: int, table: EmbeddingTable
) -> dict[str, ContextWindow]:
    """One closed-boundary window per entity, keyed by qualified id: u tokens
    on each side, each half ending at the anchor, the last token of the
    entity's span.

    The windows share one matrix: the pad vector, then one ``table.lookup``
    per distinct token, in first-seen order.
    """
    row = {PAD: 0}
    ids = {}
    for qid, sent, ent in _entity_sentences(corpus):
        window = np.zeros((2, u + 1), dtype=np.int32)
        for half, tokens in zip(window, _window_halves(sent, ent, u)):
            half[u + 1 - len(tokens) :] = [row.setdefault(t, len(row)) for t in tokens]
        ids[qid] = window
    vectors = np.stack([table.lookup(t) for t in row])
    return {qid: ContextWindow(window, vectors) for qid, window in ids.items()}


def window_padding(corpus: Corpus, u: int) -> dict:
    """How many of the BLSTM steps over all entity windows are leading
    padding, which ``ndiff.lstm_last`` does not compute."""
    steps = pads = 0
    for _, sent, ent in _entity_sentences(corpus):
        left, right = _window_halves(sent, ent, u)
        steps += 2 * (u + 1)
        pads += 2 * (u + 1) - len(left) - len(right)
    return {
        "u": u,
        "steps": steps,
        "leading_pad_steps": pads,
        "leading_pad_share": pads / steps if steps else 0.0,
    }


def argument_labels(corpus: Corpus, qids: list[str]) -> dict[str, np.ndarray]:
    """One-vs-all labels of the entities ``qids`` (qualified ids), per
    argument role: 1 iff the entity plays the role in any gold event; every
    other annotated entity is a negative."""
    roles = corpus.argument_roles()
    return {
        role: np.array([role in roles.get(q, ()) for q in qids], dtype=np.int64)
        for role in corpus.task_schema.argument_types
    }


# ---------------------------------------------------------------------------
# Forward passes


def _gather(windows: list[ContextWindow]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(B, 2, u+1)`` ids of a window batch and the one word-vector
    matrix they index, which the windows of one build share."""
    vectors = windows[0].vectors
    if any(w.vectors is not vectors for w in windows):
        raise ShapeError("window batch mixes the word-vector matrices of several builds")
    return np.stack([w.ids for w in windows]), vectors


def _encode(model: ArgumentModel, ids: np.ndarray, vectors: np.ndarray, caches=(None, None)):
    """BLSTM encoding ``(B, 2H)`` of a ``(B, 2, T)`` batch of window ids into
    the rows of ``vectors``, the left halves through ``fwd`` and the right
    through ``bwd``; training passes two empty ``caches`` for the two LSTMs'
    BPTT."""
    left, right = np.moveaxis(ids, 0, 2)  # each (T, B), step-major
    h_fwd = ndiff.lstm_last(model.fwd, left, vectors, caches[0])
    h_bwd = ndiff.lstm_last(model.bwd, right, vectors, caches[1])
    return np.concatenate([h_fwd, h_bwd], axis=-1)


def _head(model: ArgumentModel, enc: np.ndarray, keep=None):
    """The head's hidden layer, that layer after dropout and the ``(B, 1)``
    probabilities. ``keep`` is the training dropout mask, already scaled by
    1/(1-rate), or None at rate 0."""
    hidden = np.tanh(ndiff.affine(model.f1, enc))
    dropped = hidden if keep is None else hidden * keep
    return hidden, dropped, ndiff.logistic(ndiff.affine(model.f2, dropped))


def argument_embeddings(model: ArgumentModel, windows: list[ContextWindow]) -> np.ndarray:
    """First dense-layer output over the BLSTM encoding, one row per window,
    in bounded chunks; no activation, no dropout, deterministic. This is the
    one inference pass of the encoder: ``embedding_probs`` scores its rows."""
    out = np.empty((len(windows), model.embedding_size), dtype=model.f1.A.dtype)
    if windows:
        for rows in ndiff.inference_chunks(len(windows)):
            out[rows] = ndiff.affine(model.f1, _encode(model, *_gather(windows[rows])))
    return out


def embedding_probs(model: ArgumentModel, embeddings: np.ndarray) -> np.ndarray:
    """The role probabilities of ``argument_embeddings`` rows: the head's
    tanh, then its output layer, without dropout."""
    return ndiff.logistic(ndiff.affine(model.f2, np.tanh(embeddings)))[:, 0]


def predict_probs(model: ArgumentModel, windows: list[ContextWindow]) -> np.ndarray:
    """Inference-mode probabilities for a batch of windows."""
    return embedding_probs(model, argument_embeddings(model, windows))


def argument_loss_and_grads(
    model: ArgumentModel, ids: np.ndarray, vectors: np.ndarray, labels: np.ndarray, z, dropout, rng
):
    """The mean weighted BCE of a training batch of windows, ``(B, 2, T)``
    ids into the rows of ``vectors`` (positives weighted ``z``, negatives
    ``1 - z``), under a dropout mask of rate ``dropout`` drawn from ``rng``,
    the gradient of each of ``model.parameters()``, and the ``(B, 1)``
    probabilities."""
    caches = ({}, {})
    enc = _encode(model, ids, vectors, caches)
    keep = ndiff.dropout_mask(dropout, (len(enc), model.embedding_size), rng, enc.dtype)
    hidden, dropped, probs = _head(model, enc, keep)
    scale = 1.0 / len(labels)
    loss, g = ndiff.weighted_bce(labels, probs, z, 1.0 - z, scale)
    g = g * probs * (1.0 - probs)
    grads = ndiff.dense_grads("f2", g, dropped)
    g = g @ model.f2.A
    if keep is not None:
        g = g * keep
    g = g * (1.0 - hidden * hidden)
    grads.update(ndiff.dense_grads("f1", g, enc))
    g = g @ model.f1.A
    width = g.shape[1] // 2
    for name, cache, part in (("fwd", caches[0], g[:, :width]), ("bwd", caches[1], g[:, width:])):
        grads[f"{name}.A"], grads[f"{name}.b"] = ndiff.lstm_bptt(getattr(model, name), cache, part)
    return loss * scale, grads, probs


# ---------------------------------------------------------------------------
# Training


def class_weight(labels) -> float:
    """Positive-class weight 1 - n/N from the label multiset."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    total = labels.size
    if n_pos == 0 or n_pos == total:
        raise TrainingSetupError(
            f"class weight needs both classes, got {n_pos} positives of {total}"
        )
    return 1.0 - n_pos / total


def oversample(labels, max_ratio: float, rng=None) -> np.ndarray:
    """Training-set indices that duplicate minority-class samples until
    majority/minority <= max_ratio.

    Every original index comes first, in order; duplicates are drawn
    uniformly at random. Never apply this to evaluation samples.
    """
    rng = rng or np.random.default_rng(0)
    labels = np.asarray(labels)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels != 1)
    if not pos.size or not neg.size:
        raise TrainingSetupError("oversample needs both classes present")
    minority, majority = (pos, neg) if pos.size <= neg.size else (neg, pos)
    need = int(np.ceil(majority.size / max_ratio)) - minority.size
    if need <= 0:
        return np.arange(labels.size)
    extra = minority[rng.integers(0, minority.size, size=need)]
    return np.concatenate([np.arange(labels.size), extra])


def train_argument_model(
    windows: list[ContextWindow],
    labels: np.ndarray,
    hyper: Hyper | None = None,
    rng: np.random.Generator | None = None,
    arg_type: str = "",
) -> tuple[ArgumentModel, list[EpochRecord]]:
    """Mini-batch SGD on the weighted binary cross-entropy over the windows
    and their 0/1 ``labels``.

    The positive-class weight comes from the original (pre-duplication)
    label distribution; oversampling then bounds the class ratio.
    """
    hyper = hyper or Hyper()
    rng = rng or np.random.default_rng(0)
    if not windows:
        raise TrainingSetupError("no training samples")
    z = class_weight(labels)
    train_idx = oversample(labels, max_ratio=hyper.oversample_ratio, rng=rng)

    model = new_argument_model(
        arg_type or "argument",
        embed_dim=windows[0].vectors.shape[1],
        lstm_hidden=hyper.lstm_hidden,
        mlp_hidden=hyper.arg_mlp_hidden,
        rng=rng,
    )
    labels = labels[train_idx, None].astype(np.float64)

    def loss_and_grads(idx):
        ids, vectors = _gather([windows[i] for i in train_idx[idx]])
        return argument_loss_and_grads(model, ids, vectors, labels[idx], z, hyper.dropout, rng)

    return model, sgd_epochs(model, hyper, labels, loss_and_grads, rng)


def sgd_epochs(
    model: ndiff.Layers, hyper: Hyper, labels, loss_and_grads, rng
) -> list[EpochRecord]:
    """Mini-batch momentum SGD on ``model`` over the training rows of the
    ``(n, 1)`` ``labels``, for ``hyper.epochs`` epochs of ``hyper.batch``
    rows in a fresh random order.

    ``loss_and_grads(idx)`` returns the mean loss of the rows ``idx``, the
    gradient of each of ``model.parameters()`` and the rows' ``(B, 1)``
    probabilities; the log's accuracy and MSE score those against ``labels``.
    """
    params = model.parameters()
    opt = ndiff.SGDState(learning_rate=hyper.lr, momentum=hyper.momentum)
    n = len(labels)
    log: list[EpochRecord] = []
    for epoch in range(1, hyper.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        sq_err = 0.0
        for start in range(0, n, hyper.batch):
            idx = order[start : start + hyper.batch]
            loss, grads, p = loss_and_grads(idx)
            ndiff.sgd_step(opt, params, grads)
            y = labels[idx]
            loss_sum += float(loss) * len(idx)
            correct += int(((p >= 0.5) == (y == 1)).sum())
            sq_err += float(((p - y) ** 2).sum())
        log.append(
            EpochRecord(epoch=epoch, loss=loss_sum / n, accuracy=correct / n, mse=sq_err / n)
        )
    return log


def epoch_log_csv(log: list[EpochRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "loss", "accuracy", "mse"])
    for rec in log:
        writer.writerow([rec.epoch, f"{rec.loss:.6f}", f"{rec.accuracy:.6f}", f"{rec.mse:.6f}"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Checkpoints


def load_argument_model(path, arg_type: str) -> ArgumentModel:
    """A saved model, for inference: checkpoints hold only the weights. Both
    LSTM layers must be ``(4H, D+H)`` and the head must take their ``2H``
    outputs to one probability."""
    layers = ndiff.load_dense_layers(path, ArgumentModel.LAYERS)
    shapes = {name: layer.A.shape for name, layer in layers.items()}
    rows, cols = shapes["fwd"]
    hidden = rows // 4
    if (
        rows % 4
        or cols <= hidden
        or shapes["bwd"] != shapes["fwd"]
        or shapes["f1"][1] != 2 * hidden
        or shapes["f2"] != (1, shapes["f1"][0])
    ):
        raise TrainingError(f"{path}: layer shapes {shapes} do not form an argument model")
    return ArgumentModel(arg_type=arg_type, **layers)
