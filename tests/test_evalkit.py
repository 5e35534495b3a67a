"""Fold planning, metrics/curves vs brute-force oracles, cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioee import evalkit, synth, vecom
from bioee.embed import make_hashed_table
from bioee.errors import PlanningError
from bioee.evalkit import (
    binary_metrics,
    child_seed,
    cross_validate,
    metrics_csv,
    micro_curves,
    overlap_json,
    plan_folds,
    plan_folds_by_document,
    report_json,
)
from bioee.vecent import ArgHyper
from bioee.vecom import EventHyper


def _labels(n_pos, n_neg, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.array([1] * n_pos + [0] * n_neg)
    return labels[rng.permutation(labels.size)]


class TestPlanFolds:
    def test_many_positives_use_ten_folds(self):
        plan = plan_folds(_labels(327, 600))
        assert plan.k == 10

    def test_few_positives_drop_to_five_folds(self):
        plan = plan_folds(_labels(15, 200))
        assert plan.k == 5

    def test_too_few_positives_error(self):
        with pytest.raises(PlanningError):
            plan_folds(_labels(4, 50))

    def test_partition_and_stratification(self):
        labels = _labels(40, 200, seed=3)
        plan = plan_folds(labels, seed=5)
        assert plan.assignments.shape == labels.shape
        for fold in range(plan.k):
            mask = plan.assignments == fold
            assert mask.sum() > 0
            assert labels[mask].sum() >= 1  # every fold holds a positive

    def test_deterministic_given_seed(self):
        labels = _labels(40, 100, seed=1)
        a = plan_folds(labels, seed=9).assignments
        b = plan_folds(labels, seed=9).assignments
        np.testing.assert_array_equal(a, b)

    def test_document_level_plan(self):
        doc_ids = [f"D{i // 4}" for i in range(40)]
        labels = np.array([1, 0, 0, 1] * 10)
        plan = plan_folds_by_document(doc_ids, labels, k=5, seed=0)
        by_doc = {}
        for doc, fold in zip(doc_ids, plan.assignments):
            by_doc.setdefault(doc, set()).add(int(fold))
        assert all(len(folds) == 1 for folds in by_doc.values())

    def test_document_level_plan_is_stratified(self):
        # 40 documents, only 10 of them with a positive and 5 of those also
        # with negatives: an unstratified deal leaves some of ten folds
        # without a positive.
        doc_ids, labels = [], []
        for d in range(40):
            doc_labels = [1] * (d % 3 + 1) if d < 5 else [1, 0, 0] if d < 10 else [0] * (d % 4 + 1)
            doc_ids += [f"D{d}"] * len(doc_labels)
            labels += doc_labels
        for seed in range(20):
            order = np.random.default_rng(seed).permutation(len(labels))
            shuffled = np.array(labels)[order]
            plan = plan_folds_by_document([doc_ids[i] for i in order], shuffled, k=10, seed=seed)
            for fold in range(10):
                assert set(shuffled[plan.assignments == fold].tolist()) == {0, 1}

    def test_document_level_plan_rejects_too_few_positive_documents(self):
        doc_ids = [f"D{d}" for d in range(20)]
        labels = np.array([1] * 9 + [0] * 11)
        with pytest.raises(PlanningError, match="single-class"):
            plan_folds_by_document(doc_ids, labels, k=10, seed=0)


def _metrics_oracle(gold, predicted):
    tp = fp = fn = tn = 0
    for g, p in zip(gold, predicted):
        if g == 1 and p == 1:
            tp += 1
        elif g == 0 and p == 1:
            fp += 1
        elif g == 1 and p == 0:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 0.0
    return accuracy, precision, recall, f


class TestBinaryMetrics:
    def test_perfect_predictions(self):
        m = binary_metrics([1, 0, 1], [1, 0, 1])
        assert (m.precision, m.recall, m.f_score) == (1.0, 1.0, 1.0)

    def test_all_negative_predictions(self):
        m = binary_metrics([1, 0, 1], [0, 0, 0])
        assert m.recall == 0.0 and m.f_score == 0.0
        assert "precision_zero_division" in m.flags

    def test_confusion_matrix_arithmetic(self):
        gold = [1, 1, 1, 1, 1, 0, 0, 0]
        pred = [1, 1, 1, 0, 0, 1, 0, 0]  # TP=3 FP=1 FN=2
        m = binary_metrics(gold, pred)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)
        assert m.f_score == pytest.approx(2 / 3, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            binary_metrics([1, 0], [1])

    def test_decoded_event_metrics_share_the_flags(self):
        corpus = synth.make_synthetic_corpus(n_sentences=10, seed=3)
        pairs = vecom.candidate_pairs(corpus)
        nothing = np.zeros(len(pairs))  # no pair clears the threshold
        m = evalkit._decoded_event_metrics(corpus, pairs, nothing, nothing, "Activation", 0.5)
        assert m.flags == ["precision_zero_division", "f_zero_division", "set_match"]
        assert (m.accuracy, m.precision, m.recall, m.f_score) == (0.0, 0.0, 0.0, 0.0)
        assert m.support_pos > 0 and m.support_neg == 0

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            gold = (rng.random(n) > 0.5).astype(int)
            pred = (rng.random(n) > 0.5).astype(int)
            m = binary_metrics(gold, pred)
            acc, p, r, f = _metrics_oracle(gold, pred)
            assert m.accuracy == pytest.approx(acc, abs=1e-12)
            assert m.precision == pytest.approx(p, abs=1e-12)
            assert m.recall == pytest.approx(r, abs=1e-12)
            assert m.f_score == pytest.approx(f, abs=1e-12)


def _curves_oracle(scores, labels):
    """Independent threshold sweep with naive per-threshold counting."""
    n_pos = sum(1 for l in labels if l == 1)
    n_neg = len(labels) - n_pos
    thresholds = sorted(set(scores), reverse=True)
    roc = [(0.0, 0.0)]
    prc = []
    for t in thresholds:
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 0)
        roc.append((fp / n_neg, tp / n_pos))
        prc.append((tp / n_pos, tp / (tp + fp)))
    prc.insert(0, (0.0, prc[0][1]))

    def trapezoid(points):
        area = 0.0
        for (x1, y1), (x2, y2) in zip(points, points[1:]):
            area += (x2 - x1) * (y1 + y2) / 2.0
        return area

    return roc, trapezoid(roc), prc, trapezoid(prc)


class TestMicroCurves:
    def test_perfect_separation_gives_auc_one(self):
        curves = micro_curves([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curves.roc.auc == pytest.approx(1.0)

    def test_constant_scores_give_half(self):
        curves = micro_curves([0.5] * 10, [1, 0] * 5)
        assert curves.roc.auc == pytest.approx(0.5)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(23)
        scores = rng.random(10_000)
        labels = (rng.random(10_000) > 0.5).astype(int)
        curves = micro_curves(scores, labels)
        assert abs(curves.roc.auc - 0.5) < 0.02

    def test_prc_rightmost_precision_is_prevalence(self):
        rng = np.random.default_rng(29)
        scores = rng.random(500)
        labels = (rng.random(500) > 0.7).astype(int)
        curves = micro_curves(scores, labels)
        recall, precision = curves.prc.points[-1]
        assert recall == pytest.approx(1.0)
        assert precision == pytest.approx(labels.mean(), abs=1e-12)

    def test_monotone_transform_leaves_roc_auc(self):
        rng = np.random.default_rng(31)
        scores = rng.standard_normal(300)
        labels = (rng.random(300) > 0.6).astype(int)
        base = micro_curves(scores, labels).roc.auc
        for transform in (np.exp, lambda s: 3 * s + 7, lambda s: s**3):
            assert micro_curves(transform(scores), labels).roc.auc == pytest.approx(
                base, abs=1e-12
            )

    def test_single_class_pool_rejected(self):
        with pytest.raises(PlanningError):
            micro_curves([0.1, 0.9], [1, 1])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(4, 80))
            labels = np.zeros(n, dtype=int)
            labels[: max(1, n // 3)] = 1
            labels = labels[rng.permutation(n)]
            scores = np.round(rng.random(n), 2)  # force score ties
            if labels.min() == labels.max():
                continue
            curves = micro_curves(scores, labels)
            roc, roc_auc, prc, prc_auc = _curves_oracle(scores.tolist(), labels.tolist())
            assert curves.roc.points == pytest.approx(roc, abs=1e-12)
            assert curves.roc.auc == pytest.approx(roc_auc, abs=1e-12)
            assert curves.prc.points == pytest.approx(prc, abs=1e-12)
            assert curves.prc.auc == pytest.approx(prc_auc, abs=1e-12)

    @given(st.lists(st.tuples(st.floats(0, 1), st.booleans()), min_size=4, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_oracle_property(self, pairs):
        scores = [round(s, 3) for s, _ in pairs]
        labels = [int(l) for _, l in pairs]
        if sum(labels) in (0, len(labels)):
            return
        curves = micro_curves(scores, labels)
        _, roc_auc, _, prc_auc = _curves_oracle(scores, labels)
        assert curves.roc.auc == pytest.approx(roc_auc, abs=1e-12)
        assert curves.prc.auc == pytest.approx(prc_auc, abs=1e-12)


def _tiny_settings():
    arg_hyper = ArgHyper(u=2, lstm_hidden=4, mlp_hidden=4, batch=16, epochs=2)
    event_hyper = EventHyper(hidden=4, batch=16, epochs=2)
    return arg_hyper, event_hyper


@pytest.fixture(scope="module")
def small_corpus():
    return synth.make_synthetic_corpus(n_sentences=50, seed=13)


@pytest.fixture(scope="module")
def report(small_corpus):
    arg_hyper, event_hyper = _tiny_settings()
    return cross_validate(
        small_corpus,
        make_hashed_table(dim=8, seed=2),
        arg_hyper=arg_hyper,
        event_hyper=event_hyper,
        seed=99,
    )


class TestCrossValidate:
    def test_report_rows(self, report):
        assert sorted(report.arguments) == ["Activator", "Target"]
        assert sorted(report.events) == ["Activation"]

    def test_metric_ranges(self, report):
        for result in report.arguments.values():
            for value in (result.metrics.accuracy, result.metrics.f_score):
                assert 0.0 <= value <= 1.0
        evt = report.events["Activation"]
        assert 0.0 <= evt.event_metrics.f_score <= 1.0
        assert evt.n_pairs > 0

    def test_micro_pools_present(self, report):
        assert report.micro_arguments is not None
        assert report.micro_events is not None

    def test_deterministic_given_seed(self, small_corpus, report):
        arg_hyper, event_hyper = _tiny_settings()
        again = cross_validate(
            small_corpus,
            make_hashed_table(dim=8, seed=2),
            arg_hyper=arg_hyper,
            event_hyper=event_hyper,
            seed=99,
        )
        assert report_json(again) == report_json(report)

    def test_csv_layout(self, report):
        csv_text = metrics_csv(report)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("metric,")
        assert len(lines) == 5  # header + accuracy/precision/recall/f_score


def _doc_level_report(corpus):
    arg_hyper, event_hyper = _tiny_settings()
    return cross_validate(
        corpus,
        make_hashed_table(dim=8, seed=2),
        arg_hyper=arg_hyper,
        event_hyper=event_hyper,
        seed=99,
        doc_level=True,
        default_k=10,
        small_k=10,
    )


@pytest.fixture(scope="module")
def doc_report(small_corpus):
    return _doc_level_report(small_corpus)


class TestDocumentLevelCrossValidate:
    def test_deterministic_given_seed(self, small_corpus, doc_report):
        assert report_json(_doc_level_report(small_corpus)) == report_json(doc_report)

    def test_folds_keep_documents_whole(self, small_corpus, monkeypatch):
        plans = []
        plan_by_document = evalkit.plan_folds_by_document

        def spy(doc_ids, labels, k, seed=0):
            plan = plan_by_document(doc_ids, labels, k, seed=seed)
            plans.append((doc_ids, plan))
            return plan

        monkeypatch.setattr(evalkit, "plan_folds_by_document", spy)
        _doc_level_report(small_corpus)
        assert len(plans) == 3  # Activator, Target and Activation
        for doc_ids, plan in plans:
            assert plan.k == 10
            fold_of = {}
            for doc_id, fold in zip(doc_ids, plan.assignments.tolist()):
                assert fold_of.setdefault(doc_id, fold) == fold, doc_id
            assert len(fold_of) == len(small_corpus.documents)


class TestTrainTestOverlap:
    def test_pair_level_folds_leak_test_entities(self, report):
        evt = report.events["Activation"]
        assert evt.test_entities == 2 * evt.n_pairs
        assert 0 < evt.test_entities_seen <= evt.test_entities

    def test_document_level_folds_see_no_test_entity(self, doc_report):
        evt = doc_report.events["Activation"]
        assert evt.test_entities == 2 * evt.n_pairs > 0
        assert evt.test_entities_seen == 0

    def test_sidecar_payload(self, report):
        evt = report.events["Activation"]
        assert overlap_json(report) == {
            "Activation": {
                "test_entity_occurrences": evt.test_entities,
                "seen_in_training": evt.test_entities_seen,
            }
        }


class TestSeeds:
    def test_child_seed_is_stable_and_distinct(self):
        assert child_seed(7, "a") == child_seed(7, "a")
        assert child_seed(7, "a") != child_seed(7, "b")
        assert child_seed(7, "a") != child_seed(8, "a")
