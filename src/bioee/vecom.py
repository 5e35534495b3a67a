"""Directed-event classifiers composed from frozen argument embeddings.

Every ordered pair of entities in a sentence is a candidate. A pair gets a
two-bit label per event type: one bit for whether the event links the two
entities at all, one for whether it points from the first to the second.
The classifier input composes the pair's argument embeddings with a
subtraction; the existence head sees the elementwise absolute value (so it
is exactly symmetric under orientation of the composed vector), while the
direction head sees the signed vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndiff, vecent
from .corpus import Corpus, Entity, Event, Sentence
from .errors import ConfigurationError, DataError, TrainingError, TrainingSetupError
from .ndiff import DenseParams, Tensor
from .vecent import ArgumentModel, ContextWindow, EpochRecord


@dataclass
class CandidatePair:
    doc_id: str
    sentence: Sentence
    first: Entity
    second: Entity

    @property
    def sentence_index(self) -> int:
        return self.first.sentence_index


@dataclass
class PairLabel:
    exists: int
    forward: int  # 0 whenever exists is 0


@dataclass
class EventHyper:
    hidden: int = 64
    batch: int = 32
    epochs: int = 10
    lr: float = 0.01
    momentum: float = 0.9
    oversample_ratio: float = 5.0


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
        return self.exist_f1.A.data.shape[1]


def new_event_model(
    input_dim: int, hidden: int = 64, rng: np.random.Generator | None = None
) -> EventModel:
    rng = rng or np.random.default_rng(0)
    return EventModel(
        exist_f1=ndiff.init_dense(rng, input_dim, hidden, "exist_f1"),
        exist_f2=ndiff.init_dense(rng, hidden, 1, "exist_f2"),
        dir_f1=ndiff.init_dense(rng, input_dim, hidden, "dir_f1"),
        dir_f2=ndiff.init_dense(rng, hidden, 1, "dir_f2"),
    )


def load_event_model(path) -> EventModel:
    """A saved model: each head's f2 must take its f1's outputs to one
    probability, and both f1 layers must read the same input width."""
    layers = ndiff.load_dense_layers(path, EventModel.LAYERS)
    shapes = {name: layer.A.data.shape for name, layer in layers.items()}
    if (
        shapes["exist_f2"] != (1, shapes["exist_f1"][0])
        or shapes["dir_f2"] != (1, shapes["dir_f1"][0])
        or shapes["exist_f1"][1] != shapes["dir_f1"][1]
    ):
        raise TrainingError(f"{path}: layer shapes {shapes} do not form an event model")
    return EventModel(**layers)


# ---------------------------------------------------------------------------
# Candidates and labels


def gen_candidates(sentence: Sentence, entities: list[Entity]) -> list[CandidatePair]:
    """All ordered pairs of distinct entities from one sentence: n(n-1)."""
    pairs = []
    for a in entities:
        for b in entities:
            if a is b:
                continue
            pairs.append(CandidatePair(doc_id=a.doc_id, sentence=sentence, first=a, second=b))
    return pairs


def candidate_pairs(corpus: Corpus) -> list[CandidatePair]:
    """Every ordered pair of each sentence, in document and sentence order."""
    pairs = []
    for doc in corpus.documents:
        for sidx, sent in enumerate(doc.sentences):
            ents = corpus.sentence_entities(doc.id, sidx)
            if len(ents) >= 2:
                pairs.extend(gen_candidates(sent, ents))
    return pairs


def label_pairs(
    pairs: list[CandidatePair], events: list[Event], event_type: str
) -> list[PairLabel]:
    """Two-bit labels: pair (A, B) gets exists=1 iff an event of this type
    links {A, B}; forward=1 iff that event points A -> B."""
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
    labels = []
    for pair in pairs:
        lo, hi = sorted((pair.first.id, pair.second.id))
        arrows = directed.get((pair.doc_id, lo, hi))
        if not arrows:
            labels.append(PairLabel(exists=0, forward=0))
        else:
            forward = int((pair.first.id, pair.second.id) in arrows)
            labels.append(PairLabel(exists=1, forward=forward))
    return labels


# ---------------------------------------------------------------------------
# Pair features


def embed_pair_entities(
    pairs: list[CandidatePair],
    models: dict[str, ArgumentModel],
    windows: dict[str, ContextWindow],
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Embed each distinct entity of ``pairs`` once under every role model.

    Roles are unknown at prediction time, so each entity gets the embedding
    of each role model. Returns role -> ``(m, E)`` embeddings of the m
    distinct entities, in qualified-id order, and the ``(n, 2)`` rows of
    each pair's first and second entity in them.
    """
    qids = [
        (Corpus.qualify(p.doc_id, p.first.id), Corpus.qualify(p.doc_id, p.second.id))
        for p in pairs
    ]
    distinct = sorted({q for pair in qids for q in pair})
    row = {q: i for i, q in enumerate(distinct)}
    rows = np.array([(row[a], row[b]) for a, b in qids], dtype=np.intp).reshape(-1, 2)
    ordered = [windows[q] for q in distinct]
    embeddings = {
        role: vecent.argument_embeddings(model, ordered) for role, model in sorted(models.items())
    }
    return embeddings, rows


def compose_pairs(
    embeddings: dict[str, np.ndarray], rows: np.ndarray, roles: tuple[str, str]
) -> np.ndarray:
    """Subtract layer over a batch of pairs (a, b) of an event type with
    roles (s, t): ``[R_s(a), R_t(a)] - [R_t(b), R_s(b)]``, shape ``(n, 2E)``."""
    for role in roles:
        if role not in embeddings:
            raise ConfigurationError(f"no argument model for role {role}")
    emb_s, emb_t = (embeddings[role] for role in roles)
    a, b = rows[:, 0], rows[:, 1]
    return np.concatenate([emb_s[a] - emb_t[b], emb_t[a] - emb_s[b]], axis=1)


# ---------------------------------------------------------------------------
# Forward and training


def _heads(model: EventModel, v: Tensor) -> tuple[Tensor, Tensor]:
    p_exists = ndiff.sigmoid(
        ndiff.affine(model.exist_f2, ndiff.relu(ndiff.affine(model.exist_f1, ndiff.absolute(v))))
    )
    p_forward = ndiff.sigmoid(
        ndiff.affine(model.dir_f2, ndiff.relu(ndiff.affine(model.dir_f1, v)))
    )
    return p_exists, p_forward


def event_forward_batch(model: EventModel, composed: np.ndarray):
    """(existence, forward) probability arrays for a batch of composed pairs."""
    with ndiff.no_grad():
        chunks = [
            _heads(model, ndiff.constant(composed[rows]))
            for rows in ndiff.inference_chunks(len(composed))
        ]
    p_exists = np.concatenate([pe.data[:, 0] for pe, _ in chunks])
    p_forward = np.concatenate([pf.data[:, 0] for _, pf in chunks])
    return p_exists, p_forward


def train_event_model(
    composed: np.ndarray,
    exists: np.ndarray,
    forward: np.ndarray,
    event_type: str,
    hyper: EventHyper | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[EventModel, list[EpochRecord]]:
    """Joint SGD over the two heads on composed pairs and their two-bit
    labels; the direction term is masked to pairs where the event exists
    (non-events carry no direction information)."""
    hyper = hyper or EventHyper()
    rng = rng or np.random.default_rng(0)
    if np.unique(exists).size < 2:
        raise TrainingSetupError(
            f"event type {event_type}: existence labels are single-class"
        )
    train_idx = vecent.oversample(exists, max_ratio=hyper.oversample_ratio, rng=rng)

    model = new_event_model(input_dim=composed.shape[1], hidden=hyper.hidden, rng=rng)
    composed = composed[train_idx]
    y_exist = np.asarray(exists, dtype=np.float64)[train_idx, None]
    y_dir = np.asarray(forward, dtype=np.float64)[train_idx, None]

    def batch_loss(idx):
        p_exists, p_forward = _heads(model, ndiff.constant(composed[idx]))
        ye = y_exist[idx]
        loss_e = ndiff.weighted_bce(ye, p_exists, 1.0, 1.0)
        loss_d = ndiff.weighted_bce(y_dir[idx], p_forward, ye, ye)  # masked to existing events
        return ndiff.add(loss_e, loss_d), p_exists, ye

    return model, vecent.sgd_epochs(model, hyper, train_idx.size, batch_loss, rng)


# ---------------------------------------------------------------------------
# Decoding


def decode_events(
    pairs: list[CandidatePair],
    predictions: list[tuple[float, float]],
    event_type: str,
    threshold: float = 0.5,
) -> list[Event]:
    """Two-bit predictions back to directed events.

    For each unordered entity pair whose best existence probability clears
    the threshold, the better-scored ordering wins and its direction bit
    orients the event; ties keep the earlier candidate.
    """
    best: dict[tuple[str, int, str, str], tuple[float, CandidatePair, float]] = {}
    for pair, (p_exists, p_forward) in zip(pairs, predictions):
        lo, hi = sorted((pair.first.id, pair.second.id))
        key = (pair.doc_id, pair.sentence_index, lo, hi)
        kept = best.get(key)
        if kept is None or p_exists > kept[0]:
            best[key] = (p_exists, pair, p_forward)
    events = []
    seen = set()
    for p_exists, pair, p_forward in best.values():
        if p_exists < threshold:
            continue
        if p_forward >= 0.5:
            source, target = pair.first.id, pair.second.id
        else:
            source, target = pair.second.id, pair.first.id
        ident = (pair.doc_id, event_type, source, target)
        if ident in seen:
            continue
        seen.add(ident)
        events.append(
            Event(
                id="",
                type=event_type,
                source=source,
                target=target,
                doc_id=pair.doc_id,
            )
        )
    return events
