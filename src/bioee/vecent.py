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
from .errors import AlignmentError, TrainingSetupError
from .ndiff import DenseParams, LSTMCellParams, Tensor


@dataclass
class ContextWindow:
    """Word vectors around one entity: u context slots plus the anchor.

    ``left`` reads toward the anchor from the left; ``right`` holds the u
    tokens after the anchor in reversed order. Both end with the anchor and
    both have exactly u+1 rows, padded at the far end with the pad vector.
    """

    left_tokens: list[str]
    right_tokens: list[str]
    left: np.ndarray  # (u+1, dim)
    right: np.ndarray  # (u+1, dim)
    u: int
    entity_id: str = ""


@dataclass
class ArgSample:
    window: ContextWindow
    label: int
    entity_id: str


@dataclass
class ArgHyper:
    u: int = 10
    lstm_hidden: int = 128
    mlp_hidden: int = 128
    batch: int = 32
    epochs: int = 10
    dropout: float = 0.2
    lr: float = 0.01
    momentum: float = 0.9
    oversample_ratio: float = 5.0


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    accuracy: float
    mse: float


@dataclass
class ArgumentModel:
    """Forward/backward LSTM cells plus a two-layer MLP head."""

    arg_type: str
    forward_cell: LSTMCellParams
    backward_cell: LSTMCellParams
    f1: DenseParams
    f2: DenseParams
    dropout: float = 0.2

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.forward_cell.params("fwd"))
        out.update(self.backward_cell.params("bwd"))
        out.update(self.f1.params("f1"))
        out.update(self.f2.params("f2"))
        return out

    @property
    def embedding_size(self) -> int:
        return self.f1.A.data.shape[0]


def new_argument_model(
    arg_type: str,
    embed_dim: int,
    lstm_hidden: int = 128,
    mlp_hidden: int = 128,
    dropout: float = 0.2,
    rng: np.random.Generator | None = None,
) -> ArgumentModel:
    rng = rng or np.random.default_rng(0)
    return ArgumentModel(
        arg_type=arg_type,
        forward_cell=ndiff.init_lstm(rng, embed_dim, lstm_hidden, "fwd"),
        backward_cell=ndiff.init_lstm(rng, embed_dim, lstm_hidden, "bwd"),
        f1=ndiff.init_dense(rng, 2 * lstm_hidden, mlp_hidden, "f1"),
        f2=ndiff.init_dense(rng, mlp_hidden, 1, "f2"),
        dropout=dropout,
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


def build_context(
    sentence: Sentence, entity: Entity, u: int, table: EmbeddingTable
) -> ContextWindow:
    """Closed-boundary window of u tokens on each side ending at the anchor.

    The anchor is the last token of the entity's span. The right half is
    emitted in reversed order so that the anchor is again the final element;
    missing context at the far end is padded.
    """
    left, right = _window_halves(sentence, entity, u)
    left_tokens = [PAD] * (u + 1 - len(left)) + left
    right_tokens = [PAD] * (u + 1 - len(right)) + right
    return ContextWindow(
        left_tokens=left_tokens,
        right_tokens=right_tokens,
        left=table.lookup_all(left_tokens),
        right=table.lookup_all(right_tokens),
        u=u,
        entity_id=f"{entity.doc_id}/{entity.id}" if entity.doc_id else entity.id,
    )


def _entity_sentences(corpus: Corpus):
    """(qualified id, sentence, entity) for every entity, in document order."""
    for doc in corpus.documents:
        for ent in corpus.doc_entities(doc.id):
            yield Corpus.qualify(doc.id, ent.id), doc.sentences[ent.sentence_index], ent


def build_entity_windows(
    corpus: Corpus, u: int, table: EmbeddingTable
) -> dict[str, ContextWindow]:
    """One window per entity, keyed by qualified id."""
    return {
        qid: build_context(sent, ent, u, table) for qid, sent, ent in _entity_sentences(corpus)
    }


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


def build_argument_samples(
    corpus: Corpus,
    arg_type: str,
    windows: dict[str, ContextWindow],
) -> list[ArgSample]:
    """One-vs-all samples: label 1 iff the entity plays the role in any gold
    event; every other annotated entity is a negative."""
    roles = corpus.argument_roles()
    samples = []
    for qid in sorted(windows):
        label = 1 if arg_type in roles.get(qid, ()) else 0
        samples.append(ArgSample(window=windows[qid], label=label, entity_id=qid))
    return samples


# ---------------------------------------------------------------------------
# Forward passes


def _encode_arrays(model: ArgumentModel, left: np.ndarray, right: np.ndarray) -> Tensor:
    """BLSTM encoding ``(B, 2H)`` of ``(B, T, dim)`` window batches."""
    h_fwd = ndiff.lstm_last(model.forward_cell, np.moveaxis(left, 1, 0))
    h_bwd = ndiff.lstm_last(model.backward_cell, np.moveaxis(right, 1, 0))
    return ndiff.concat([h_fwd, h_bwd], axis=-1)


def _head(model: ArgumentModel, enc: Tensor, training: bool, rng) -> Tensor:
    hidden = ndiff.tanh(ndiff.affine(model.f1, enc))
    hidden = ndiff.dropout(hidden, model.dropout, training, rng or np.random.default_rng(0))
    return ndiff.sigmoid(ndiff.affine(model.f2, hidden))


def _infer(model: ArgumentModel, windows: list[ContextWindow], head) -> np.ndarray:
    """``head(encoding)`` over the windows, in bounded chunks, with no tape."""
    parts = []
    with ndiff.no_grad():
        for rows in ndiff.inference_chunks(len(windows)):
            chunk = windows[rows]
            left = np.stack([w.left for w in chunk])
            right = np.stack([w.right for w in chunk])
            parts.append(head(_encode_arrays(model, left, right)).data)
    return np.concatenate(parts)


def argument_embeddings(model: ArgumentModel, windows: list[ContextWindow]) -> np.ndarray:
    """First dense-layer output over the BLSTM encoding, one row per window;
    no activation, no dropout, deterministic."""
    if not windows:
        return np.zeros((0, model.embedding_size))
    return _infer(model, windows, lambda enc: ndiff.affine(model.f1, enc))


def predict_probs(model: ArgumentModel, windows: list[ContextWindow]) -> np.ndarray:
    """Inference-mode probabilities for a batch of windows."""
    if not windows:
        return np.zeros(0)
    return _infer(model, windows, lambda enc: _head(model, enc, training=False, rng=None))[:, 0]


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


def oversample(labels, max_ratio: float = 5.0, rng=None) -> np.ndarray:
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
    samples: list[ArgSample],
    hyper: ArgHyper | None = None,
    rng: np.random.Generator | None = None,
    arg_type: str = "",
) -> tuple[ArgumentModel, list[EpochRecord]]:
    """Mini-batch SGD on the weighted binary cross-entropy.

    The positive-class weight comes from the original (pre-duplication)
    label distribution; oversampling then bounds the class ratio.
    """
    hyper = hyper or ArgHyper()
    rng = rng or np.random.default_rng(0)
    if not samples:
        raise TrainingSetupError("no training samples")
    labels = np.array([s.label for s in samples])
    z = class_weight(labels)
    train_idx = oversample(labels, max_ratio=hyper.oversample_ratio, rng=rng)

    dim = samples[0].window.left.shape[1]
    model = new_argument_model(
        arg_type or "argument",
        embed_dim=dim,
        lstm_hidden=hyper.lstm_hidden,
        mlp_hidden=hyper.mlp_hidden,
        dropout=hyper.dropout,
        rng=rng,
    )
    params = model.parameters()
    opt = ndiff.SGDState(learning_rate=hyper.lr, momentum=hyper.momentum)

    lefts = np.stack([samples[i].window.left for i in train_idx])
    rights = np.stack([samples[i].window.right for i in train_idx])
    labels = labels[train_idx, None].astype(np.float64)
    n = train_idx.size

    log: list[EpochRecord] = []
    for epoch in range(1, hyper.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        sq_err = 0.0
        for start in range(0, n, hyper.batch):
            idx = order[start : start + hyper.batch]
            enc = _encode_arrays(model, lefts[idx], rights[idx])
            probs = _head(model, enc, training=True, rng=rng)
            y = labels[idx]
            loss = ndiff.mul(ndiff.weighted_bce(y, probs, z, 1.0 - z), 1.0 / len(idx))
            ndiff.backward(loss)
            ndiff.sgd_step(opt, params)
            p = probs.data
            loss_sum += float(loss.data) * len(idx)
            correct += int(((p >= 0.5) == (y == 1)).sum())
            sq_err += float(((p - y) ** 2).sum())
        log.append(
            EpochRecord(epoch=epoch, loss=loss_sum / n, accuracy=correct / n, mse=sq_err / n)
        )
    return model, log


def epoch_log_csv(log: list[EpochRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "loss", "accuracy", "mse"])
    for rec in log:
        writer.writerow([rec.epoch, f"{rec.loss:.6f}", f"{rec.accuracy:.6f}", f"{rec.mse:.6f}"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Checkpoints


def model_tensors(model: ArgumentModel) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in model.parameters().items()}


def save_argument_model(model: ArgumentModel, path) -> None:
    ndiff.save_tensors(path, model_tensors(model))


def load_argument_model(path, arg_type: str) -> ArgumentModel:
    """A saved model, for inference: checkpoints hold only the weights, so the
    dropout rate is the default."""
    gates = ("input_gate", "forget_gate", "output_gate", "candidate")
    cells = [f"{cell}.{gate}" for cell in ("fwd", "bwd") for gate in gates]
    layers = ndiff.load_dense_layers(path, [*cells, "f1", "f2"])
    return ArgumentModel(
        arg_type=arg_type,
        forward_cell=LSTMCellParams(*(layers[name] for name in cells[:4])),
        backward_cell=LSTMCellParams(*(layers[name] for name in cells[4:])),
        f1=layers["f1"],
        f2=layers["f2"],
    )
