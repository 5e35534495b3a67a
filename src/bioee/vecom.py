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
from .corpus import Corpus, Entity, Event, Sentence, TaskSchema
from .embed import EmbeddingTable
from .errors import ConfigurationError, DataError, ShapeError, TrainingSetupError
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

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.doc_id, self.first.id, self.second.id)


@dataclass
class PairLabel:
    exists: int
    forward: int  # 0 whenever exists is 0


@dataclass
class PairInput:
    """The two role-conditioned halves for an ordered pair.

    first_half = R_src(first) ++ R_tgt(first); second_half has the model
    order swapped: R_tgt(second) ++ R_src(second).
    """

    first_half: np.ndarray
    second_half: np.ndarray


@dataclass
class PairSample:
    pair: CandidatePair
    x: PairInput
    label: PairLabel


@dataclass
class EventHyper:
    hidden: int = 64
    batch: int = 32
    epochs: int = 10
    lr: float = 0.01
    momentum: float = 0.9
    oversample_ratio: float = 5.0


@dataclass
class EventModel:
    """Existence and direction MLP heads over the composed pair vector."""

    event_type: str
    source_type: str
    target_type: str
    exist_f1: DenseParams
    exist_f2: DenseParams
    dir_f1: DenseParams
    dir_f2: DenseParams

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.exist_f1.params("exist_f1"))
        out.update(self.exist_f2.params("exist_f2"))
        out.update(self.dir_f1.params("dir_f1"))
        out.update(self.dir_f2.params("dir_f2"))
        return out


def new_event_model(
    event_type: str,
    source_type: str,
    target_type: str,
    input_dim: int,
    hidden: int = 64,
    rng: np.random.Generator | None = None,
) -> EventModel:
    rng = rng or np.random.default_rng(0)
    return EventModel(
        event_type=event_type,
        source_type=source_type,
        target_type=target_type,
        exist_f1=ndiff.init_dense(rng, input_dim, hidden, "exist_f1"),
        exist_f2=ndiff.init_dense(rng, hidden, 1, "exist_f2"),
        dir_f1=ndiff.init_dense(rng, input_dim, hidden, "dir_f1"),
        dir_f2=ndiff.init_dense(rng, hidden, 1, "dir_f2"),
    )


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


def pair_input(
    pair: CandidatePair,
    model_s: ArgumentModel,
    model_t: ArgumentModel,
    u: int,
    table: EmbeddingTable,
    windows: dict[str, ContextWindow] | None = None,
) -> PairInput:
    """Both-order argument embeddings for an ordered pair (roles unknown at
    prediction time, so each entity is embedded under both role models)."""
    if model_s is None or model_t is None:
        raise ConfigurationError(f"missing argument model for pair {pair.key}")

    def window_of(ent: Entity) -> ContextWindow:
        qid = Corpus.qualify(pair.doc_id, ent.id)
        if windows is not None and qid in windows:
            return windows[qid]
        return vecent.build_context(pair.sentence, ent, u, table)

    w_first, w_second = window_of(pair.first), window_of(pair.second)
    first_half = np.concatenate(
        [vecent.argument_embedding(model_s, w_first), vecent.argument_embedding(model_t, w_first)]
    )
    second_half = np.concatenate(
        [
            vecent.argument_embedding(model_t, w_second),
            vecent.argument_embedding(model_s, w_second),
        ]
    )
    return PairInput(first_half=first_half, second_half=second_half)


def vecom_compose(x: PairInput) -> np.ndarray:
    """Subtract layer: first half minus second half."""
    if x.first_half.shape != x.second_half.shape:
        raise ShapeError(f"compose: halves {x.first_half.shape} vs {x.second_half.shape}")
    return x.first_half - x.second_half


def build_pair_samples(
    corpus: Corpus,
    event_type: str,
    arg_models: dict[str, ArgumentModel],
    windows: dict[str, ContextWindow],
) -> list[PairSample]:
    """Candidate pairs with features and two-bit labels for one event type."""
    schema = corpus.task_schema
    src_role, tgt_role = schema.roles(event_type)
    model_s = arg_models.get(src_role)
    model_t = arg_models.get(tgt_role)
    if model_s is None or model_t is None:
        raise ConfigurationError(
            f"event type {event_type} needs argument models {src_role} and {tgt_role}"
        )

    pairs: list[CandidatePair] = []
    for doc in corpus.documents:
        for sidx, sent in enumerate(doc.sentences):
            ents = corpus.sentence_entities(doc.id, sidx)
            if len(ents) >= 2:
                pairs.extend(gen_candidates(sent, ents))
    labels = label_pairs(pairs, list(corpus.events.values()), event_type)

    # Embed every involved entity once per role model.
    qids = sorted({Corpus.qualify(p.doc_id, e.id) for p in pairs for e in (p.first, p.second)})
    ordered_windows = [windows[q] for q in qids]
    emb_s = vecent.argument_embeddings(model_s, ordered_windows)
    emb_t = vecent.argument_embeddings(model_t, ordered_windows)
    row = {q: i for i, q in enumerate(qids)}

    samples = []
    for pair, label in zip(pairs, labels):
        qa = Corpus.qualify(pair.doc_id, pair.first.id)
        qb = Corpus.qualify(pair.doc_id, pair.second.id)
        x = PairInput(
            first_half=np.concatenate([emb_s[row[qa]], emb_t[row[qa]]]),
            second_half=np.concatenate([emb_t[row[qb]], emb_s[row[qb]]]),
        )
        samples.append(PairSample(pair=pair, x=x, label=label))
    return samples


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


def event_forward(model: EventModel, x: PairInput) -> tuple[float, float]:
    """(existence probability, forward-direction probability) for one pair."""
    v = ndiff.constant(vecom_compose(x))
    p_exists, p_forward = _heads(model, v)
    return float(p_exists.data[0]), float(p_forward.data[0])


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


def _masked_bce(labels: np.ndarray, probs: Tensor, mask: np.ndarray, eps=1e-7) -> Tensor:
    p = ndiff.clamp(probs, eps, 1.0 - eps)
    pos = ndiff.mul(ndiff.log(p), labels)
    neg = ndiff.mul(ndiff.log(ndiff.rsub(1.0, p)), 1.0 - labels)
    return ndiff.mul(ndiff.sum_all(ndiff.mul(ndiff.add(pos, neg), mask)), -1.0)


def train_event_model(
    samples: list[PairSample],
    event_type: str,
    source_type: str,
    target_type: str,
    hyper: EventHyper | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[EventModel, list[EpochRecord]]:
    """Joint SGD over the two heads; the direction term is masked to pairs
    where the event exists (non-events carry no direction information)."""
    hyper = hyper or EventHyper()
    rng = rng or np.random.default_rng(0)
    exist_labels = [s.label.exists for s in samples]
    if len(set(exist_labels)) < 2:
        raise TrainingSetupError(
            f"event type {event_type}: existence labels are single-class"
        )
    train_set = vecent.oversample(
        samples, max_ratio=hyper.oversample_ratio, rng=rng, label=lambda s: s.label.exists
    )

    dim = train_set[0].x.first_half.shape[0]
    model = new_event_model(
        event_type, source_type, target_type, input_dim=dim, hidden=hyper.hidden, rng=rng
    )
    params = model.parameters()
    opt = ndiff.SGDState(learning_rate=hyper.lr, momentum=hyper.momentum)

    composed = np.stack([vecom_compose(s.x) for s in train_set])
    y_exist = np.array([[s.label.exists] for s in train_set], dtype=np.float64)
    y_dir = np.array([[s.label.forward] for s in train_set], dtype=np.float64)
    n = len(train_set)

    log: list[EpochRecord] = []
    for epoch in range(1, hyper.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        sq_err = 0.0
        for start in range(0, n, hyper.batch):
            idx = order[start : start + hyper.batch]
            v = ndiff.constant(composed[idx])
            p_exists, p_forward = _heads(model, v)
            ye, yd = y_exist[idx], y_dir[idx]
            loss_e = ndiff.bce(ye, p_exists)
            loss_d = _masked_bce(yd, p_forward, ye)
            loss = ndiff.mul(ndiff.add(loss_e, loss_d), 1.0 / len(idx))
            ndiff.backward(loss)
            ndiff.sgd_step(opt, params)
            loss_sum += float(loss.data) * len(idx)
            correct += int(((p_exists.data >= 0.5) == (ye == 1)).sum())
            sq_err += float(((p_exists.data - ye) ** 2).sum())
        log.append(
            EpochRecord(epoch=epoch, loss=loss_sum / n, accuracy=correct / n, mse=sq_err / n)
        )
    return model, log


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


def typed_filter(pairs: list[CandidatePair], schema: TaskSchema, event_type: str):
    """Optional candidate filter: keep pairs whose entity labels are drawn
    from the event's role vocabulary. Only meaningful when the corpus labels
    entities with role names; off by default."""
    src_role, tgt_role = schema.roles(event_type)
    allowed = {src_role, tgt_role}
    return [p for p in pairs if {p.first.label, p.second.label} <= allowed]
