"""Cross-validation planning, classification metrics, and micro-averaged
ROC/PRC curves.

Every class is cross-validated on one fold plan over sentences (or
documents), so no test sentence's entities reach training. Per fold, one
argument model per role is trained and runs one inference pass over every
entity, in the one entity order of ``vecom.candidate_pairs``: the fold's test
entities are scored from the embeddings that feed every event type's heads.
A corpus where some class has few positives drops from 10-fold to 5-fold.
Scores are pooled across folds before metrics and curves are computed
(micro-averaging).

The folds are independent, and each draws from its own seeded generators,
so ``pool.map_in_workers`` runs them in forked worker processes, one per
usable CPU; the parent merges their scores in fold order, and the reports
are the same whatever the number of workers.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import pool, vecent, vecom
from .corpus import Corpus
from .embed import EmbeddingTable
from .errors import PlanningError
from .vecent import Hyper


def child_seed(seed: int, label: str) -> int:
    """Stable per-component seed derivation, independent of execution order."""
    digest = hashlib.sha256(f"{seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def child_rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(child_seed(seed, label))


# ---------------------------------------------------------------------------
# Fold planning


@dataclass
class FoldPlan:
    k: int
    fold_of: dict  # unit -> fold id

    def folds(self, units) -> np.ndarray:
        """The fold id of each sample, given the unit of each."""
        return np.array([self.fold_of[u] for u in units], dtype=np.int64)


def plan_folds(
    classes: dict,
    default_k: int = 10,
    small_k: int = 5,
    small_threshold: int = 20,
    seed: int = 0,
) -> FoldPlan:
    """One fold assignment of units (sentences, or documents) for every class.

    ``classes`` maps a class name to ``(units, labels)``: the unit of each of
    its samples and their 0/1 labels. All samples of a unit share a fold. k
    is ``small_k`` if any class has fewer than ``small_threshold``
    positives. The units holding the positives of the rarest class (fewest
    such units, ties by name) are shuffled and dealt round-robin first, then
    the not yet dealt ones of the next rarest class, then the rest, with one
    running count, so each class's positives spread over the folds.
    """
    held = {}  # (name, label) -> units holding a sample with that label
    k = default_k
    for name, (units, labels) in classes.items():
        positive = np.asarray(labels) == 1
        held[name, 1] = {u for u, y in zip(units, positive) if y}
        held[name, 0] = {u for u, y in zip(units, positive) if not y}
        if positive.sum() < small_threshold:
            k = small_k
    for (name, value), units in sorted(held.items()):
        if len(units) < k:
            noun = "positive" if value else "negative"
            raise PlanningError(
                f"{name}: {noun} instances in {len(units)} units cannot fill {k} folds"
            )

    rng = np.random.default_rng(seed)
    rarest = sorted(classes, key=lambda name: (len(held[name, 1]), name))
    everything = {u for units, _ in classes.values() for u in units}
    groups = [held[name, 1] for name in rarest] + [everything]
    fold_of: dict = {}
    for group in groups:
        fresh = sorted(group - fold_of.keys())
        for j in rng.permutation(len(fresh)):
            fold_of[fresh[j]] = len(fold_of) % k
    for (name, value), units in sorted(held.items()):
        if len({fold_of[u] for u in units}) < 2:
            raise PlanningError(f"{name}: all units with label {value} fell into one fold")
    return FoldPlan(k=k, fold_of=fold_of)


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f_score: float
    support_pos: int
    support_neg: int
    train_time: float = 0.0
    test_time: float = 0.0
    flags: list[str] = field(default_factory=list)


def _counts_report(tp: int, fp: int, fn: int, accuracy: float, support_neg: int) -> MetricsReport:
    """Precision, recall and F from counts; an undefined ratio is 0 and
    flagged."""
    flags = []
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, flags = 0.0, flags + ["precision_zero_division"]
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, flags = 0.0, flags + ["recall_zero_division"]
    if precision + recall > 0:
        f_score = 2 * precision * recall / (precision + recall)
    else:
        f_score, flags = 0.0, flags + ["f_zero_division"]
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f_score=f_score,
        support_pos=tp + fn,
        support_neg=support_neg,
        flags=flags,
    )


def binary_metrics(gold, predicted) -> MetricsReport:
    gold = np.asarray(gold).astype(np.int64)
    predicted = np.asarray(predicted).astype(np.int64)
    if gold.shape != predicted.shape:
        raise ValueError(f"length mismatch: {gold.shape} gold vs {predicted.shape} predicted")
    tp = int(((gold == 1) & (predicted == 1)).sum())
    fp = int(((gold == 0) & (predicted == 1)).sum())
    fn = int(((gold == 1) & (predicted == 0)).sum())
    tn = int(((gold == 0) & (predicted == 0)).sum())
    total = tp + fp + fn + tn
    return _counts_report(tp, fp, fn, (tp + tn) / total if total else 0.0, fp + tn)


# ---------------------------------------------------------------------------
# Curves


@dataclass
class CurveData:
    points: list[tuple[float, float]]
    auc: float


@dataclass
class Curves:
    roc: CurveData
    prc: CurveData


def micro_curves(scores, labels) -> Curves:
    """ROC and PRC from one pooled score/label set, thresholds swept over the
    distinct scores, trapezoidal areas."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    if scores.shape != labels.shape:
        raise ValueError(f"length mismatch: {scores.shape} scores vs {labels.shape} labels")
    n_pos = int((labels == 1).sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise PlanningError("curve construction needs both classes in the pool")

    order = np.argsort(-scores, kind="stable")
    y = labels[order]
    s = scores[order]
    tp = np.cumsum(y)
    fp = np.cumsum(1 - y)
    boundary = np.append(s[1:] != s[:-1], True)  # last index of each distinct score

    roc_points = [(0.0, 0.0)]
    prc_points: list[tuple[float, float]] = []
    for i in np.where(boundary)[0]:
        roc_points.append((fp[i] / n_neg, tp[i] / n_pos))
        prc_points.append((tp[i] / n_pos, tp[i] / (tp[i] + fp[i])))
    prc_points.insert(0, (0.0, prc_points[0][1]))

    roc_auc = float(np.trapezoid([p[1] for p in roc_points], [p[0] for p in roc_points]))
    prc_auc = float(np.trapezoid([p[1] for p in prc_points], [p[0] for p in prc_points]))
    return Curves(
        roc=CurveData(points=roc_points, auc=roc_auc),
        prc=CurveData(points=prc_points, auc=prc_auc),
    )


# ---------------------------------------------------------------------------
# Cross-validation


@dataclass
class ClassResult:
    metrics: MetricsReport
    curves: Curves
    k: int
    n_samples: int


@dataclass
class EventResult:
    pair_metrics: MetricsReport  # existence bit, per candidate pair
    event_metrics: MetricsReport  # decoded event sets vs gold
    curves: Curves
    k: int
    n_pairs: int
    # Entity occurrences of the test pairs, summed over folds, and how many
    # of them are in their fold's argument training pool (the label leak).
    test_entities: int
    test_entities_seen: int


@dataclass
class CrossValReport:
    arguments: dict[str, ClassResult]
    events: dict[str, EventResult]
    seed: int
    micro_arguments: Curves | None = None  # pooled across argument types
    micro_events: Curves | None = None  # pooled across event types
    workers: int = 1  # processes the folds ran in


def _decoded_event_metrics(
    corpus, entities, pairs, p_exists, p_forward, event_type, threshold
) -> MetricsReport:
    """Strict set match of decoded events against within-sentence gold."""
    predicted = {
        (ev.doc_id, ev.source, ev.target)
        for ev in vecom.decode_events(entities, pairs, p_exists, p_forward, event_type, threshold)
    }
    gold = {
        (ev.doc_id, ev.source, ev.target)
        for ev in corpus.events.values()
        if ev.type == event_type and not ev.cross_sentence
    }
    tp = len(predicted & gold)
    fp = len(predicted - gold)
    fn = len(gold - predicted)
    union = tp + fp + fn
    # Accuracy is the set overlap: a set match has no true negatives.
    report = _counts_report(tp, fp, fn, tp / union if union else 0.0, support_neg=0)
    report.flags.append("set_match")
    return report


def cross_validate(
    corpus: Corpus,
    table: EmbeddingTable,
    hyper: Hyper | None = None,
    default_k: int = 10,
    small_k: int = 5,
    small_threshold: int = 20,
    seed: int = 0,
    doc_level: bool = False,
) -> CrossValReport:
    """Full protocol: one fold plan over sentences (documents with
    ``doc_level``) for every class; per fold, oversampled training of one
    argument model per role on the training sentences' entities, frozen,
    then each event type's heads on the training pairs; evaluation pools the
    untouched test scores across folds, decoding events at
    ``hyper.threshold``.

    The folds run in ``pool.worker_count(k)`` forked processes, which
    inherit the windows, pairs and labels and send back only their scores
    and seconds; the parent merges them in fold order. The class timings
    therefore sum worker seconds that overlap in wall time."""
    hyper = hyper or Hyper()
    schema = corpus.task_schema
    windows = vecent.build_entity_windows(corpus, hyper.window, table)
    entities, pairs = vecom.candidate_pairs(corpus)

    def unit(doc_id, sentence_index):
        return doc_id if doc_level else (doc_id, sentence_index)

    qids = sorted(windows)  # the order of ``entities``
    ordered = [windows[q] for q in qids]
    arg_labels = vecent.argument_labels(corpus, qids)
    events = list(corpus.events.values())
    exist, forward = {}, {}
    for et in schema.event_types:
        exist[et], forward[et] = vecom.label_pairs(entities, pairs, events, et)

    entity_units = [unit(e.doc_id, e.sentence_index) for e in entities]
    pair_units = [entity_units[a] for a in pairs[:, 0].tolist()]
    plan = plan_folds(
        {
            **{f"arg:{role}": (entity_units, y) for role, y in arg_labels.items()},
            **{f"event:{et}": (pair_units, y) for et, y in exist.items()},
        },
        default_k=default_k,
        small_k=small_k,
        small_threshold=small_threshold,
        seed=child_seed(seed, "plan"),
    )
    entity_fold = plan.folds(entity_units)
    pair_fold = plan.folds(pair_units)

    def run_fold(fold):
        """The fold's test-entity probabilities per role, and (p_exists,
        p_forward) over its test pairs per event type, each with its
        training and test seconds; and how many test-pair entity occurrences
        are in training."""
        train_ents = np.flatnonzero(entity_fold != fold)
        test_ents = np.flatnonzero(entity_fold == fold)
        train_pairs = np.flatnonzero(pair_fold != fold)
        test_pairs = np.flatnonzero(pair_fold == fold)
        seen = int((entity_fold[pairs[test_pairs]] != fold).sum())

        # One argument model per role, trained on the training units'
        # entities, then one inference pass over every entity: its test rows
        # are scored and all its rows feed every event type's heads.
        train_windows = [ordered[i] for i in train_ents]
        embeddings, arg_out, event_out = {}, {}, {}
        for role, labels in arg_labels.items():
            t0 = time.perf_counter()
            model, _ = vecent.train_argument_model(
                train_windows,
                labels[train_ents],
                hyper,
                rng=child_rng(seed, f"train/arg/{role}/{fold}"),
                arg_type=role,
            )
            t1 = time.perf_counter()
            embeddings[role] = vecent.argument_embeddings(model, ordered)
            probs = vecent.embedding_probs(model, embeddings[role][test_ents])
            arg_out[role] = (probs, t1 - t0, time.perf_counter() - t1)

        for et in exist:
            roles = schema.roles(et)
            t0 = time.perf_counter()
            model, _ = vecom.train_event_model(
                embeddings,
                pairs[train_pairs],
                roles,
                exist[et][train_pairs],
                forward[et][train_pairs],
                et,
                hyper,
                rng=child_rng(seed, f"train/evt/{et}/{fold}/heads"),
            )
            t1 = time.perf_counter()
            pe, pf = vecom.event_forward_batch(model, embeddings, pairs[test_pairs], roles)
            event_out[et] = (pe, pf, t1 - t0, time.perf_counter() - t1)
        return arg_out, event_out, seen

    arg_scores = {role: np.zeros(len(qids)) for role in arg_labels}
    exist_scores = {et: np.zeros(len(pairs)) for et in exist}
    forward_scores = {et: np.zeros(len(pairs)) for et in exist}
    arg_times = {role: [0.0, 0.0] for role in arg_labels}  # train, test seconds
    event_times = {et: [0.0, 0.0] for et in exist}
    seen = 0
    workers = pool.worker_count(plan.k)
    for fold, (arg_out, event_out, fold_seen) in enumerate(
        pool.map_in_workers(run_fold, range(plan.k), workers)
    ):
        test_ents = np.flatnonzero(entity_fold == fold)
        test_pairs = np.flatnonzero(pair_fold == fold)
        for role, (probs, train_s, test_s) in arg_out.items():
            arg_scores[role][test_ents] = probs
            arg_times[role][0] += train_s
            arg_times[role][1] += test_s
        for et, (pe, pf, train_s, test_s) in event_out.items():
            exist_scores[et][test_pairs] = pe
            forward_scores[et][test_pairs] = pf
            event_times[et][0] += train_s
            event_times[et][1] += test_s
        seen += fold_seen

    report = CrossValReport(arguments={}, events={}, seed=seed, workers=workers)
    for role, labels in arg_labels.items():
        metrics = binary_metrics(labels, arg_scores[role] >= 0.5)
        metrics.train_time, metrics.test_time = arg_times[role]
        report.arguments[role] = ClassResult(
            metrics=metrics,
            curves=micro_curves(arg_scores[role], labels),
            k=plan.k,
            n_samples=labels.size,
        )
    for et, labels in exist.items():
        pair_metrics = binary_metrics(labels, exist_scores[et] >= hyper.threshold)
        pair_metrics.train_time, pair_metrics.test_time = event_times[et]
        report.events[et] = EventResult(
            pair_metrics=pair_metrics,
            event_metrics=_decoded_event_metrics(
                corpus, entities, pairs, exist_scores[et], forward_scores[et], et, hyper.threshold
            ),
            curves=micro_curves(exist_scores[et], labels),
            k=plan.k,
            n_pairs=len(pairs),
            test_entities=2 * len(pairs),
            test_entities_seen=seen,
        )
    if arg_labels:
        report.micro_arguments = micro_curves(
            np.concatenate(list(arg_scores.values())), np.concatenate(list(arg_labels.values()))
        )
    if exist:
        report.micro_events = micro_curves(
            np.concatenate(list(exist_scores.values())), np.concatenate(list(exist.values()))
        )
    return report


# ---------------------------------------------------------------------------
# Report serialization


def _metrics_dict(m: MetricsReport) -> dict:
    return {
        "accuracy": m.accuracy,
        "precision": m.precision,
        "recall": m.recall,
        "f_score": m.f_score,
        "support_pos": m.support_pos,
        "support_neg": m.support_neg,
        "flags": list(m.flags),
    }


def report_json(report: CrossValReport) -> dict:
    """Metric payload without wall times (those live in the timing sidecar)."""
    return {
        "seed": report.seed,
        "micro": {
            "arguments_roc_auc": report.micro_arguments.roc.auc if report.micro_arguments else None,
            "arguments_prc_auc": report.micro_arguments.prc.auc if report.micro_arguments else None,
            "events_roc_auc": report.micro_events.roc.auc if report.micro_events else None,
            "events_prc_auc": report.micro_events.prc.auc if report.micro_events else None,
        },
        "arguments": {
            name: {
                "k": r.k,
                "n_samples": r.n_samples,
                "metrics": _metrics_dict(r.metrics),
                "roc_auc": r.curves.roc.auc,
                "prc_auc": r.curves.prc.auc,
            }
            for name, r in sorted(report.arguments.items())
        },
        "events": {
            name: {
                "k": r.k,
                "n_pairs": r.n_pairs,
                "pair_metrics": _metrics_dict(r.pair_metrics),
                "event_metrics": _metrics_dict(r.event_metrics),
                "roc_auc": r.curves.roc.auc,
                "prc_auc": r.curves.prc.auc,
            }
            for name, r in sorted(report.events.items())
        },
    }


def overlap_json(report: CrossValReport) -> dict:
    """Per event type, the test-pair entity occurrences across folds and how
    many of them the fold's argument models were trained on."""
    return {
        name: {
            "test_entity_occurrences": r.test_entities,
            "seen_in_training": r.test_entities_seen,
        }
        for name, r in sorted(report.events.items())
    }


def metrics_csv(report: CrossValReport) -> str:
    """Classes as columns, metric names as rows."""
    columns = [("arg", n, r.metrics) for n, r in sorted(report.arguments.items())]
    columns += [("event", n, r.event_metrics) for n, r in sorted(report.events.items())]
    lines = ["metric," + ",".join(f"{kind}:{name}" for kind, name, _ in columns)]
    for metric in ("accuracy", "precision", "recall", "f_score"):
        row = [metric] + [f"{getattr(m, metric):.6f}" for _, _, m in columns]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def timings_csv(report: CrossValReport) -> str:
    lines = ["class,train_time_s,test_time_s"]
    for name, r in sorted(report.arguments.items()):
        lines.append(f"arg:{name},{r.metrics.train_time:.2f},{r.metrics.test_time:.2f}")
    for name, r in sorted(report.events.items()):
        lines.append(f"event:{name},{r.pair_metrics.train_time:.2f},{r.pair_metrics.test_time:.2f}")
    return "\n".join(lines) + "\n"


def curve_tsv(curve: CurveData) -> str:
    lines = [f"{x:.6f}\t{y:.6f}" for x, y in curve.points]
    lines.append(f"# auc\t{curve.auc:.6f}")
    return "\n".join(lines) + "\n"
