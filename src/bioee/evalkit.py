"""Cross-validation planning, classification metrics, and micro-averaged
ROC/PRC curves.

Per-class one-vs-all classifiers are cross-validated independently; classes
with few positive instances drop from 10-fold to 5-fold so every test fold
still sees both classes. Scores are pooled across folds before metrics and
curves are computed (micro-averaging).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import vecent, vecom
from .corpus import Corpus
from .embed import EmbeddingTable
from .errors import PlanningError
from .vecent import ArgHyper
from .vecom import EventHyper


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
    assignments: np.ndarray  # sample index -> fold id
    seed: int


def plan_folds(
    labels,
    default_k: int = 10,
    small_k: int = 5,
    small_threshold: int = 20,
    seed: int = 0,
) -> FoldPlan:
    """Stratified fold assignment; classes under the small threshold use the
    reduced fold count so no test fold goes single-class."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int(labels.size - n_pos)
    k = small_k if n_pos < small_threshold else default_k
    if n_pos < k:
        raise PlanningError(f"{n_pos} positive instances cannot fill {k} folds")
    if n_neg < k:
        raise PlanningError(f"{n_neg} negative instances cannot fill {k} folds")
    rng = np.random.default_rng(seed)
    assignments = np.empty(labels.size, dtype=np.int64)
    for value in (1, 0):
        idx = np.where(labels == value)[0]
        idx = idx[rng.permutation(idx.size)]
        assignments[idx] = np.arange(idx.size) % k
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def plan_folds_by_document(doc_ids: list[str], labels, k: int, seed: int = 0) -> FoldPlan:
    """Document-level alternative: all samples of a document share a fold.

    Stratified by document: the documents holding only positives, those
    holding both classes and those holding only negatives are each shuffled,
    then dealt round-robin in that order. The documents holding a positive,
    and those holding a negative, each take consecutive turns, so every fold
    gets both classes whenever at least k documents hold each.
    """
    labels = np.asarray(labels)
    unique_docs = sorted(set(doc_ids))
    if len(unique_docs) < k:
        raise PlanningError(f"{len(unique_docs)} documents cannot fill {k} folds")
    with_pos, with_neg = set(), set()
    for doc, y in zip(doc_ids, labels.tolist()):
        (with_pos if y == 1 else with_neg).add(doc)
    groups = (
        [d for d in unique_docs if d not in with_neg],
        [d for d in unique_docs if d in with_pos and d in with_neg],
        [d for d in unique_docs if d not in with_pos],
    )
    rng = np.random.default_rng(seed)
    dealt = [group[j] for group in groups for j in rng.permutation(len(group))]
    doc_fold = {doc: i % k for i, doc in enumerate(dealt)}
    assignments = np.array([doc_fold[d] for d in doc_ids], dtype=np.int64)
    for fold in range(k):
        test = labels[assignments == fold]
        if test.size == 0 or len(set(test.tolist())) < 2:
            raise PlanningError(f"document-level fold {fold} is single-class")
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def _plan(labels, doc_ids, plan_seed, cv_args, doc_level) -> FoldPlan:
    """One class's folds: stratified over its samples, or over the documents
    in ``doc_ids`` (one per sample) with the fold count plan_folds picks."""
    if not doc_level:
        return plan_folds(labels, seed=plan_seed, **cv_args)
    k = cv_args["small_k"] if labels.sum() < cv_args["small_threshold"] else cv_args["default_k"]
    return plan_folds_by_document(doc_ids, labels, k, seed=plan_seed)


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


def _argument_cv(corpus, windows, arg_type, arg_hyper, cv_args, seed, doc_level):
    samples = vecent.build_argument_samples(corpus, arg_type, windows)
    labels = np.array([s.label for s in samples])
    doc_ids = [s.entity_id.split("/", 1)[0] for s in samples]
    plan = _plan(labels, doc_ids, child_seed(seed, f"plan/arg/{arg_type}"), cv_args, doc_level)
    pooled = np.zeros(labels.size)
    train_time = 0.0
    test_time = 0.0
    for fold in range(plan.k):
        test_mask = plan.assignments == fold
        train_samples = [samples[i] for i in np.where(~test_mask)[0]]
        t0 = time.perf_counter()
        model, _ = vecent.train_argument_model(
            train_samples,
            arg_hyper,
            rng=child_rng(seed, f"train/arg/{arg_type}/{fold}"),
            arg_type=arg_type,
        )
        train_time += time.perf_counter() - t0
        t0 = time.perf_counter()
        pooled[test_mask] = vecent.predict_probs(
            model, [samples[i].window for i in np.where(test_mask)[0]]
        )
        test_time += time.perf_counter() - t0
    metrics = binary_metrics(labels, pooled >= 0.5)
    metrics.train_time = train_time
    metrics.test_time = test_time
    return arg_type, ClassResult(
        metrics=metrics,
        curves=micro_curves(pooled, labels),
        k=plan.k,
        n_samples=labels.size,
    ), (pooled, labels)


def _event_cv(corpus, windows, event_type, arg_hyper, event_hyper, threshold, cv_args, seed, doc_level):
    src_role, tgt_role = corpus.task_schema.roles(event_type)
    pairs = vecom.candidate_pairs(corpus)
    labels = vecom.label_pairs(pairs, list(corpus.events.values()), event_type)
    exist = np.array([l.exists for l in labels])
    forward = np.array([l.forward for l in labels])
    plan_seed = child_seed(seed, f"plan/evt/{event_type}")
    plan = _plan(exist, [p.doc_id for p in pairs], plan_seed, cv_args, doc_level)

    qid_of = [
        (Corpus.qualify(p.doc_id, p.first.id), Corpus.qualify(p.doc_id, p.second.id))
        for p in pairs
    ]
    role_samples = {
        role: vecent.build_argument_samples(corpus, role, windows)
        for role in sorted({src_role, tgt_role})
    }
    pooled_exists = np.zeros(len(pairs))
    pooled_forward = np.zeros(len(pairs))
    train_time = 0.0
    test_time = 0.0
    seen = 0
    for fold in range(plan.k):
        test_mask = plan.assignments == fold
        train_idx = np.where(~test_mask)[0]
        test_idx = np.where(test_mask)[0]

        # Argument models are trained per fold from the entities of the
        # training pairs only, then frozen before the event heads train.
        pool = set()
        for i in train_idx:
            pool.update(qid_of[i])
        seen += sum(q in pool for i in test_idx for q in qid_of[i])
        t0 = time.perf_counter()
        arg_models = {}
        for role, samples in role_samples.items():
            rng = child_rng(seed, f"train/evt/{event_type}/{fold}/{role}")
            arg_models[role], _ = vecent.train_argument_model(
                [s for s in samples if s.entity_id in pool], arg_hyper, rng=rng, arg_type=role
            )

        embeddings, rows = vecom.embed_pair_entities(pairs, arg_models, windows)
        composed = vecom.compose_pairs(embeddings, rows, (src_role, tgt_role))
        rng = child_rng(seed, f"train/evt/{event_type}/{fold}/heads")
        model, _ = vecom.train_event_model(
            composed[train_idx], exist[train_idx], forward[train_idx], event_type, event_hyper,
            rng=rng,
        )
        train_time += time.perf_counter() - t0

        t0 = time.perf_counter()
        pe, pf = vecom.event_forward_batch(model, composed[test_idx])
        pooled_exists[test_idx] = pe
        pooled_forward[test_idx] = pf
        test_time += time.perf_counter() - t0

    pair_metrics = binary_metrics(exist, pooled_exists >= threshold)
    pair_metrics.train_time = train_time
    pair_metrics.test_time = test_time

    event_metrics = _decoded_event_metrics(
        corpus, pairs, pooled_exists, pooled_forward, event_type, threshold
    )
    return event_type, EventResult(
        pair_metrics=pair_metrics,
        event_metrics=event_metrics,
        curves=micro_curves(pooled_exists, exist),
        k=plan.k,
        n_pairs=len(pairs),
        test_entities=2 * len(pairs),
        test_entities_seen=seen,
    ), (pooled_exists, exist)


def _decoded_event_metrics(
    corpus, pairs, p_exists, p_forward, event_type, threshold
) -> MetricsReport:
    """Strict set match of decoded events against within-sentence gold."""
    by_sentence: dict[tuple[str, int], list[int]] = {}
    for i, pair in enumerate(pairs):
        by_sentence.setdefault((pair.doc_id, pair.sentence_index), []).append(i)
    predicted = set()
    for key in sorted(by_sentence):
        idxs = by_sentence[key]
        decoded = vecom.decode_events(
            [pairs[i] for i in idxs],
            [(p_exists[i], p_forward[i]) for i in idxs],
            event_type,
            threshold=threshold,
        )
        predicted.update((ev.doc_id, ev.source, ev.target) for ev in decoded)
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
    arg_hyper: ArgHyper | None = None,
    event_hyper: EventHyper | None = None,
    threshold: float = 0.5,
    default_k: int = 10,
    small_k: int = 5,
    small_threshold: int = 20,
    seed: int = 0,
    doc_level: bool = False,
) -> CrossValReport:
    """Full protocol: per class, stratified folds; per fold, oversampled
    training of the argument models, frozen, then the event heads; evaluation
    pools the untouched test scores across folds."""
    arg_hyper = arg_hyper or ArgHyper()
    event_hyper = event_hyper or EventHyper()
    schema = corpus.task_schema
    windows = vecent.build_entity_windows(corpus, arg_hyper.u, table)
    cv_args = {"default_k": default_k, "small_k": small_k, "small_threshold": small_threshold}

    arg_results = [
        _argument_cv(corpus, windows, at, arg_hyper, cv_args, seed, doc_level)
        for at in schema.argument_types
    ]
    evt_results = [
        _event_cv(corpus, windows, et, arg_hyper, event_hyper, threshold, cv_args, seed, doc_level)
        for et in schema.event_types
    ]

    report = CrossValReport(arguments={}, events={}, seed=seed)
    arg_pool_scores, arg_pool_labels = [], []
    for name, result, (scores, labels) in sorted(arg_results, key=lambda r: r[0]):
        report.arguments[name] = result
        arg_pool_scores.append(scores)
        arg_pool_labels.append(labels)
    evt_pool_scores, evt_pool_labels = [], []
    for name, result, (scores, labels) in sorted(evt_results, key=lambda r: r[0]):
        report.events[name] = result
        evt_pool_scores.append(scores)
        evt_pool_labels.append(labels)
    if arg_pool_scores:
        report.micro_arguments = micro_curves(
            np.concatenate(arg_pool_scores), np.concatenate(arg_pool_labels)
        )
    if evt_pool_scores:
        report.micro_events = micro_curves(
            np.concatenate(evt_pool_scores), np.concatenate(evt_pool_labels)
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
