"""Directed-event classifiers composed from frozen argument embeddings.

Every ordered pair of entities in a sentence is a candidate. A corpus's
pairs are one ``(n, 2)`` int array of (first, second) rows into its one
entity order, every entity by qualified id, each sentence's n(n-1) pairs one
slice, in document and sentence order. A pair gets a two-bit label per event
type: one bit for whether the event links the two entities at all, one for
whether it points from the first to the second. The classifier input composes
the pair's argument embeddings with a subtraction, one inference chunk or
training mini-batch at a time; the existence head sees the elementwise
absolute value (so it is exactly symmetric under orientation of the composed
vector), while the direction head sees the signed vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndiff, vecent
from .corpus import Corpus, Entity, Event
from .errors import ConfigurationError, DataError, TrainingError, TrainingSetupError
from .ndiff import DenseParams
from .vecent import ArgumentModel, ContextWindow, EpochRecord, Hyper


@dataclass
class EventModel(ndiff.Layers):
    """Existence and direction MLP heads over the composed pair vector."""

    LAYERS = ("exist_f1", "exist_f2", "dir_f1", "dir_f2")

    exist_f1: DenseParams
    exist_f2: DenseParams
    dir_f1: DenseParams
    dir_f2: DenseParams

    @property
    def input_size(self) -> int:
        """The width of the composed pair vector both heads read."""
        return self.exist_f1.A.shape[1]


def new_event_model(
    input_dim: int, hidden: int, rng: np.random.Generator | None = None
) -> EventModel:
    rng = rng or np.random.default_rng(0)
    return EventModel(
        exist_f1=ndiff.init_dense(rng, input_dim, hidden),
        exist_f2=ndiff.init_dense(rng, hidden, 1),
        dir_f1=ndiff.init_dense(rng, input_dim, hidden),
        dir_f2=ndiff.init_dense(rng, hidden, 1),
    )


def load_event_model(path) -> EventModel:
    """A saved model: each head's f2 must take its f1's outputs to one
    probability, and both f1 layers must read the same input width."""
    layers = ndiff.load_dense_layers(path, EventModel.LAYERS)
    shapes = {name: layer.A.shape for name, layer in layers.items()}
    if (
        shapes["exist_f2"] != (1, shapes["exist_f1"][0])
        or shapes["dir_f2"] != (1, shapes["dir_f1"][0])
        or shapes["exist_f1"][1] != shapes["dir_f1"][1]
    ):
        raise TrainingError(f"{path}: layer shapes {shapes} do not form an event model")
    return EventModel(**layers)


# ---------------------------------------------------------------------------
# Candidates and labels


def _qid(entity: Entity) -> str:
    return Corpus.qualify(entity.doc_id, entity.id)


def candidate_pairs(corpus: Corpus) -> tuple[list[Entity], np.ndarray]:
    """Every entity of the corpus in qualified-id order, the one entity order
    of windows, labels, embeddings and decoding, and the ``(n, 2)`` rows into
    it of every ordered pair of distinct entities of one sentence, n(n-1) per
    sentence, in document and sentence order. An entity alone in its
    sentence is in no pair."""
    groups = [s.entities for doc in corpus.documents for s in doc.sentences]
    entities = sorted((e for group in groups for e in group), key=_qid)
    row = {_qid(e): i for i, e in enumerate(entities)}
    pairs = []
    for group in groups:
        rows = [row[_qid(e)] for e in group]
        pairs.extend((a, b) for a in rows for b in rows if a != b)
    return entities, np.array(pairs, dtype=np.intp).reshape(-1, 2)


def label_pairs(
    entities: list[Entity], pairs: np.ndarray, events: list[Event], event_type: str
) -> tuple[np.ndarray, np.ndarray]:
    """Two-bit labels as ``(exists, forward)`` int arrays over the ``(n, 2)``
    rows ``pairs`` into ``entities``: pair (A, B) gets exists=1 iff an event
    of this type links {A, B}; forward=1 iff that event points A -> B (so
    forward is 0 where exists is)."""
    directed: dict[tuple[str, str, str], set[tuple[str, str]]] = {}
    for ev in events:
        if ev.type != event_type or ev.cross_sentence:
            continue
        lo, hi = sorted((ev.source, ev.target))
        key = (ev.doc_id, lo, hi)
        directed.setdefault(key, set()).add((ev.source, ev.target))
    for (doc_id, lo, hi), arrows in directed.items():
        if len(arrows) > 1:
            raise DataError(
                f"conflicting {event_type} events between {lo} and {hi} in {doc_id}: "
                f"both directions annotated"
            )
    exists = np.zeros(len(pairs), dtype=np.int64)
    forward = np.zeros(len(pairs), dtype=np.int64)
    for i, (a, b) in enumerate(pairs.tolist()):
        first, second = entities[a], entities[b]
        lo, hi = sorted((first.id, second.id))
        arrows = directed.get((first.doc_id, lo, hi))
        if arrows:
            exists[i] = 1
            forward[i] = (first.id, second.id) in arrows
    return exists, forward


# ---------------------------------------------------------------------------
# Pair features


def embed_entities(
    models: dict[str, ArgumentModel], windows: dict[str, ContextWindow]
) -> dict[str, np.ndarray]:
    """Role -> ``(m, E)`` embeddings of the m ``windows`` under that role's
    model, one row per entity in qualified-id order (that of
    ``candidate_pairs``); roles are unknown at prediction time, so each
    entity gets the embedding of each role model."""
    ordered = [windows[q] for q in sorted(windows)]
    return {
        role: vecent.argument_embeddings(model, ordered) for role, model in sorted(models.items())
    }


def compose_pairs(
    embeddings: dict[str, np.ndarray], pairs: np.ndarray, roles: tuple[str, str]
) -> np.ndarray:
    """Subtract layer over a batch of pairs (a, b), the ``(n, 2)`` rows
    ``pairs`` into ``embeddings``, of an event type with roles (s, t):
    ``[R_s(a), R_t(a)] - [R_t(b), R_s(b)]``, shape ``(n, 2E)``."""
    for role in roles:
        if role not in embeddings:
            raise ConfigurationError(f"no argument model for role {role}")
    emb_s, emb_t = (embeddings[role] for role in roles)
    a, b = pairs[:, 0], pairs[:, 1]
    return np.concatenate([emb_s[a] - emb_t[b], emb_t[a] - emb_s[b]], axis=1)


# ---------------------------------------------------------------------------
# Forward and training


def _relu_head(f1: DenseParams, f2: DenseParams, x: np.ndarray):
    """One head over ``x``: its relu hidden layer and ``(B, 1)``
    probabilities."""
    hidden = ndiff.affine(f1, x)
    np.maximum(hidden, 0.0, out=hidden)
    return hidden, ndiff.logistic(ndiff.affine(f2, hidden))


def event_forward_batch(
    model: EventModel, embeddings: dict[str, np.ndarray], pairs: np.ndarray, roles: tuple[str, str]
):
    """(existence, forward) probability arrays for the ``(n, 2)`` rows
    ``pairs`` into ``embeddings``, composed (see ``compose_pairs``) one
    inference chunk at a time: the existence head over ``|composed|`` and
    the direction head over ``composed``. Only each head's probabilities are
    kept, so the existence head's input and hidden layer are freed before
    the direction head runs."""
    p_exists, p_forward = [], []
    for rows in ndiff.inference_chunks(len(pairs)):
        composed = compose_pairs(embeddings, pairs[rows], roles)
        p_exists.append(_relu_head(model.exist_f1, model.exist_f2, np.abs(composed))[1][:, 0])
        p_forward.append(_relu_head(model.dir_f1, model.dir_f2, composed)[1][:, 0])
    return np.concatenate(p_exists), np.concatenate(p_forward)


def event_loss_and_grads(
    model: EventModel, composed: np.ndarray, y_exist: np.ndarray, y_dir: np.ndarray
):
    """The mean joint loss of a training batch, the gradient of each of
    ``model.parameters()``, and the ``(B, 1)`` existence probabilities. The
    heads are those of ``event_forward_batch``; the direction term is masked
    to pairs where the event exists (non-events carry no direction
    information)."""
    scale = 1.0 / len(composed)
    losses, probs, grads = [], [], {}
    for prefix, x, (y, weight) in zip(
        ("exist", "dir"), (np.abs(composed), composed), ((y_exist, 1.0), (y_dir, y_exist))
    ):
        f2 = getattr(model, f"{prefix}_f2")
        hidden, p = _relu_head(getattr(model, f"{prefix}_f1"), f2, x)
        loss, g = ndiff.weighted_bce(y, p, weight, weight, scale)
        losses.append(loss)
        probs.append(p)
        g = g * p * (1.0 - p)
        grads.update(ndiff.dense_grads(f"{prefix}_f2", g, hidden))
        g = (g @ f2.A) * (hidden > 0)
        grads.update(ndiff.dense_grads(f"{prefix}_f1", g, x))
    return (losses[0] + losses[1]) * scale, grads, probs[0]


def train_event_model(
    embeddings: dict[str, np.ndarray],
    pairs: np.ndarray,
    roles: tuple[str, str],
    exists: np.ndarray,
    forward: np.ndarray,
    event_type: str,
    hyper: Hyper | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[EventModel, list[EpochRecord]]:
    """Joint SGD over the two heads on the ``(n, 2)`` rows ``pairs`` into
    ``embeddings``, each mini-batch composed under ``roles`` in the model's
    dtype, and their two-bit labels (see ``event_loss_and_grads``)."""
    hyper = hyper or Hyper()
    rng = rng or np.random.default_rng(0)
    # Composing no pairs checks the roles and gives the input width.
    input_dim = compose_pairs(embeddings, pairs[:0], roles).shape[1]
    if np.unique(exists).size < 2:
        raise TrainingSetupError(
            f"event type {event_type}: existence labels are single-class"
        )
    train_idx = vecent.oversample(exists, max_ratio=hyper.oversample_ratio, rng=rng)

    model = new_event_model(input_dim=input_dim, hidden=hyper.event_mlp_hidden, rng=rng)
    dtype = model.exist_f1.A.dtype
    y_exist = np.asarray(exists, dtype=np.float64)[train_idx, None]
    y_dir = np.asarray(forward, dtype=np.float64)[train_idx, None]

    def loss_and_grads(idx):
        composed = compose_pairs(embeddings, pairs[train_idx[idx]], roles).astype(dtype, copy=False)
        return event_loss_and_grads(model, composed, y_exist[idx], y_dir[idx])

    return model, vecent.sgd_epochs(model, hyper, y_exist, loss_and_grads, rng)


# ---------------------------------------------------------------------------
# Decoding


def decode_events(
    entities: list[Entity],
    pairs: np.ndarray,
    p_exists: np.ndarray,
    p_forward: np.ndarray,
    event_type: str,
    threshold: float,
) -> list[Event]:
    """Two-bit predictions, one existence and one forward probability per
    row of ``pairs`` (into ``entities``), back to directed events; the pairs
    may span any number of sentences and documents.

    For each unordered entity pair whose best existence probability clears
    the threshold, the better-scored ordering wins and its direction bit
    orients the event; ties keep the earlier candidate. Events come in the
    order of each unordered pair's first candidate.
    """
    best: dict[tuple[int, int], tuple[float, int, int, float]] = {}
    scores = zip(pairs.tolist(), np.asarray(p_exists).tolist(), np.asarray(p_forward).tolist())
    for (a, b), e_prob, f_prob in scores:
        key = (min(a, b), max(a, b))
        kept = best.get(key)
        if kept is None or e_prob > kept[0]:
            best[key] = (e_prob, a, b, f_prob)
    events = []
    for e_prob, a, b, f_prob in best.values():
        if e_prob < threshold:
            continue
        source, target = (entities[a], entities[b]) if f_prob >= 0.5 else (entities[b], entities[a])
        events.append(
            Event(
                id="",
                type=event_type,
                source=source.id,
                target=target.id,
                doc_id=source.doc_id,
            )
        )
    return events
