"""Fold planning, metrics/curves vs brute-force oracles, cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioee import evalkit, synth, vecent, vecom
from bioee.corpus import Corpus, corpus_from_documents
from bioee.embed import EmbeddingTable
from bioee.errors import PlanningError
from bioee.evalkit import (
    binary_metrics,
    child_seed,
    cross_validate,
    metrics_csv,
    micro_curves,
    overlap_json,
    plan_folds,
    report_json,
)
from bioee.vecent import Hyper


def _labels(n_pos, n_neg, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.array([1] * n_pos + [0] * n_neg)
    return labels[rng.permutation(labels.size)]


def _one_class(labels):
    """A class whose every sample is its own unit."""
    return {"c": (list(range(len(labels))), labels)}


def _sentence_classes(n_sentences, seed):
    """Entity and pair classes over shared sentence units, as crossval builds
    them: a few entities per sentence, a rare and a common entity role, and
    a pair class whose positives sit in about a third of the sentences."""
    rng = np.random.default_rng(seed)
    ent_units, rare, common, pair_units, pair_labels = [], [], [], [], []
    for s in range(n_sentences):
        unit = (f"D{s // 7}", s % 7)
        n = int(rng.integers(1, 4))
        ent_units += [unit] * n
        rare += [int(rng.random() < 0.15) for _ in range(n)]
        common += [int(rng.random() < 0.5) for _ in range(n)]
        has_event = rng.random() < 0.35
        pair_units += [unit] * (n * (n - 1))
        pair_labels += [int(has_event and j < 2) for j in range(n * (n - 1))]
    return {
        "arg:Rare": (ent_units, np.array(rare)),
        "arg:Common": (ent_units, np.array(common)),
        "event:Link": (pair_units, np.array(pair_labels)),
    }


class TestPlanFolds:
    def test_many_positives_use_ten_folds(self):
        plan = plan_folds(_one_class(_labels(327, 600)))
        assert plan.k == 10

    def test_few_positives_drop_to_five_folds(self):
        plan = plan_folds(_one_class(_labels(15, 200)))
        assert plan.k == 5

    def test_one_rare_class_sets_k_for_the_corpus(self):
        classes = _one_class(_labels(100, 200))
        classes["rare"] = (classes["c"][0], _labels(15, 285, seed=1))
        assert plan_folds(classes).k == 5

    def test_too_few_positives_error(self):
        with pytest.raises(PlanningError):
            plan_folds(_one_class(_labels(4, 50)))

    def test_document_level_plan_rejects_too_few_positive_documents(self):
        doc_ids = [f"D{d}" for d in range(20)]
        labels = np.array([1] * 9 + [0] * 11)
        with pytest.raises(PlanningError, match="c: positive instances in 9 units"):
            plan_folds({"c": (doc_ids, labels)}, default_k=10, small_k=10, seed=0)

    def test_negatives_in_too_few_units_error(self):
        units = list(range(40)) + [99] * 10
        labels = np.array([1] * 40 + [0] * 10)
        with pytest.raises(PlanningError, match="c: negative instances in 1 units"):
            plan_folds({"c": (units, labels)})

    def test_partition_and_stratification(self):
        labels = _labels(40, 200, seed=3)
        plan = plan_folds(_one_class(labels), seed=5)
        folds = plan.folds(range(labels.size))
        assert folds.shape == labels.shape
        for fold in range(plan.k):
            mask = folds == fold
            assert mask.sum() > 0
            assert labels[mask].sum() >= 1  # every fold holds a positive

    def test_units_never_split_across_folds(self):
        classes = _sentence_classes(120, seed=4)
        plan = plan_folds(classes, seed=5)
        for units, _ in classes.values():
            fold_of = {}
            for unit, fold in zip(units, plan.folds(units).tolist()):
                assert fold_of.setdefault(unit, fold) == fold, unit
        all_units = {u for units, _ in classes.values() for u in units}
        assert set(plan.fold_of) == all_units
        sizes = np.bincount(list(plan.fold_of.values()), minlength=plan.k)
        assert sizes.max() - sizes.min() <= 1  # one round-robin deal

    def test_deterministic_given_seed(self):
        classes = _sentence_classes(120, seed=1)
        a = plan_folds(classes, seed=9)
        b = plan_folds(classes, seed=9)
        assert a.fold_of == b.fold_of
        assert plan_folds(classes, seed=10).fold_of != a.fold_of

    def test_every_training_part_holds_both_labels(self):
        for seed in range(20):
            classes = _sentence_classes(100, seed=seed)
            plan = plan_folds(classes, seed=seed)
            for name, (units, labels) in classes.items():
                folds = plan.folds(units)
                for fold in range(plan.k):
                    assert set(labels[folds != fold].tolist()) == {0, 1}, (seed, name, fold)

    def test_positives_dealt_into_one_fold_error(self):
        # A and B deal one positive unit into each of 3 folds; C's two
        # shared units can share a fold that C's one fresh unit then joins.
        units = ["a1", "a2", "a3", "b1", "b2", "b3", "c1", "r1", "r2", "r3"]
        positives = {"A": {"a1", "a2", "a3"}, "B": {"b1", "b2", "b3"}, "C": {"a1", "b1", "c1"}}
        classes = {
            name: (units, np.array([int(u in held) for u in units]))
            for name, held in positives.items()
        }
        raised = 0
        for seed in range(100):
            try:
                plan = plan_folds(classes, small_k=3, seed=seed)
            except PlanningError as err:
                assert "C: all units with label 1 fell into one fold" in str(err)
                raised += 1
                continue
            for _, labels in classes.values():
                folds = plan.folds(units)
                for fold in range(3):
                    assert set(labels[folds != fold].tolist()) == {0, 1}
        assert raised > 0

    def test_rarest_class_dealt_first(self):
        # The rarest class's positive units come first in the deal, so with
        # at least k of them every test fold holds one.
        for seed in range(20):
            classes = _sentence_classes(100, seed=seed)
            plan = plan_folds(classes, seed=seed)

            def positive_units(name):
                units, labels = classes[name]
                return len({u for u, y in zip(units, labels.tolist()) if y == 1})

            rarest = min(sorted(classes), key=positive_units)
            units, labels = classes[rarest]
            folds = plan.folds(units)
            for fold in range(plan.k):
                assert labels[folds == fold].sum() >= 1, (seed, fold)

    def test_document_level_plan(self):
        doc_ids = [f"D{i // 4}" for i in range(40)]
        labels = np.array([1, 0, 0, 1] * 10)
        plan = plan_folds({"c": (doc_ids, labels)}, default_k=5, small_k=5, seed=0)
        assert sorted(plan.fold_of) == sorted(set(doc_ids))
        by_doc = {}
        for doc, fold in zip(doc_ids, plan.folds(doc_ids)):
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
            docs = [doc_ids[i] for i in order]
            plan = plan_folds({"c": (docs, shuffled)}, default_k=10, small_k=10, seed=seed)
            folds = plan.folds(docs)
            for fold in range(10):
                assert set(shuffled[folds == fold].tolist()) == {0, 1}


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
        entities, pairs = vecom.candidate_pairs(corpus)
        nothing = np.zeros(len(pairs))  # no pair clears the threshold
        m = evalkit._decoded_event_metrics(
            corpus, entities, pairs, nothing, nothing, "Activation", 0.5
        )
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
    return Hyper(
        window=2, lstm_hidden=4, arg_mlp_hidden=4, event_mlp_hidden=4, batch=16, epochs=2
    )


@pytest.fixture(scope="module")
def small_corpus():
    return synth.make_synthetic_corpus(n_sentences=50, seed=13)


@pytest.fixture(scope="module")
def report(small_corpus):
    hyper = _tiny_settings()
    return cross_validate(
        small_corpus,
        EmbeddingTable(8, seed=2),
        hyper=hyper,
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
        hyper = _tiny_settings()
        again = cross_validate(
            small_corpus,
            EmbeddingTable(8, seed=2),
            hyper=hyper,
            seed=99,
        )
        assert report_json(again) == report_json(report)

    def test_one_argument_model_per_fold_and_role(self, monkeypatch):
        corpus = synth.make_synthetic_corpus(n_sentences=30, seed=13)
        calls = []
        train = vecent.train_argument_model

        def spy(windows, labels, hyper=None, rng=None, arg_type=""):
            calls.append(arg_type)
            return train(windows, labels, hyper, rng=rng, arg_type=arg_type)

        monkeypatch.setattr(vecent, "train_argument_model", spy)
        hyper = _tiny_settings()
        report = cross_validate(
            corpus,
            EmbeddingTable(8, seed=2),
            hyper=hyper,
            default_k=5,
            seed=99,
        )
        roles = corpus.task_schema.argument_types
        assert report.events["Activation"].k == 5
        assert sorted(calls) == sorted(roles * 5)

    def test_csv_layout(self, report):
        csv_text = metrics_csv(report)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("metric,")
        assert len(lines) == 5  # header + accuracy/precision/recall/f_score


def _doc_level_report(corpus):
    hyper = _tiny_settings()
    return cross_validate(
        corpus,
        EmbeddingTable(8, seed=2),
        hyper=hyper,
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
        plan_folds = evalkit.plan_folds

        def spy(classes, **kwargs):
            plan = plan_folds(classes, **kwargs)
            plans.append((classes, plan))
            return plan

        monkeypatch.setattr(evalkit, "plan_folds", spy)
        _doc_level_report(small_corpus)
        assert len(plans) == 1  # one plan for Activator, Target and Activation
        classes, plan = plans[0]
        assert sorted(classes) == ["arg:Activator", "arg:Target", "event:Activation"]
        assert plan.k == 10
        assert sorted(plan.fold_of) == sorted(doc.id for doc in small_corpus.documents)


def _corpus_with_unpaired_entities():
    """The 50-sentence synthetic corpus with a one-entity sentence appended to
    every fifth document: those entities are in no candidate pair."""
    items = []
    for i, (doc_id, text, a1, a2) in enumerate(synth.generate_documents(50, seed=13)):
        if i % 5 == 0:
            start = len(text) + len(" Later ")
            text += " Later gene07 was measured."
            a1 += f"T9\tGene {start} {start + len('gene07')}\tgene07\n"
        items.append((doc_id, text, a1, a2, None, None))
    return corpus_from_documents(items, synth.SYNTH_SCHEMA)


@pytest.fixture(scope="module")
def unpaired_corpus():
    return _corpus_with_unpaired_entities()


class TestOneEncoderPass:
    """Per fold and role, crossval runs the argument encoder once, over the
    pair entities and the fold's test entities, and scores the test rows of
    that pass. Its pooled scores are what ``predict_probs`` gives the fold's
    test windows."""

    @staticmethod
    def _pooled_and_expected(monkeypatch, corpus, doc_level):
        qids = sorted(corpus.entities)
        roles = corpus.task_schema.argument_types
        expected = {role: np.full(len(qids), np.nan) for role in roles}
        windows = {}
        build, train = vecent.build_entity_windows, vecent.train_argument_model

        def keep_windows(*args):
            windows.update(build(*args))
            return windows

        def spy(train_windows, labels, hyper=None, rng=None, arg_type=""):
            model, log = train(train_windows, labels, hyper, rng=rng, arg_type=arg_type)
            trained_on = {id(w) for w in train_windows}
            test = [i for i, q in enumerate(qids) if id(windows[q]) not in trained_on]
            expected[arg_type][test] = vecent.predict_probs(model, [windows[qids[i]] for i in test])
            return model, log

        pooled = []
        curves = evalkit.micro_curves

        def keep_scores(scores, labels):
            pooled.append(np.array(scores))
            return curves(scores, labels)

        monkeypatch.setattr(vecent, "build_entity_windows", keep_windows)
        monkeypatch.setattr(vecent, "train_argument_model", spy)
        monkeypatch.setattr(evalkit, "micro_curves", keep_scores)
        cross_validate(
            corpus, EmbeddingTable(8, seed=2), hyper=_tiny_settings(), seed=99, doc_level=doc_level
        )
        # micro_curves scores the roles first, in schema order.
        return dict(zip(roles, pooled)), expected, qids

    @pytest.mark.parametrize("doc_level", [False, True], ids=["sentences", "documents"])
    def test_pooled_scores_match_predict_probs(self, monkeypatch, small_corpus, doc_level):
        pooled, expected, _ = self._pooled_and_expected(monkeypatch, small_corpus, doc_level)
        for role, scores in pooled.items():
            assert not np.isnan(expected[role]).any(), role  # every entity tested once
            np.testing.assert_allclose(scores, expected[role], rtol=0, atol=1e-6, err_msg=role)

    @pytest.mark.parametrize("doc_level", [False, True], ids=["sentences", "documents"])
    def test_entity_in_no_pair_is_scored(self, monkeypatch, unpaired_corpus, doc_level):
        entities, _ = vecom.candidate_pairs(unpaired_corpus)
        paired = {Corpus.qualify(e.doc_id, e.id) for e in entities}
        pooled, expected, qids = self._pooled_and_expected(
            monkeypatch, unpaired_corpus, doc_level
        )
        unpaired = [i for i, q in enumerate(qids) if q not in paired]
        assert len(unpaired) == 10
        for role, scores in pooled.items():
            assert np.all(scores[unpaired] > 0.0), role
            np.testing.assert_allclose(
                scores[unpaired], expected[role][unpaired], rtol=0, atol=1e-6, err_msg=role
            )


class TestTrainTestOverlap:
    def test_sentence_level_folds_see_no_test_entity(self, report):
        evt = report.events["Activation"]
        assert evt.test_entities == 2 * evt.n_pairs > 0
        assert evt.test_entities_seen == 0

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
