"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -sv`` to see the measured values.
Criterion 7 needs external data (see the skip reasons) and is gated behind
environment variables; criteria 1-6 and 8 are self-contained.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from bioee import evalkit, gradcheck, synth, vecent, vecom
from bioee.cli import main
from bioee.corpus import BB_SCHEMA, corpus_stats, load_corpus_dir
from bioee.embed import PAD, load_table, make_hashed_table
from bioee.evalkit import binary_metrics, cross_validate, micro_curves, plan_folds
from bioee.vecent import ArgHyper, build_context, oversample
from bioee.vecom import EventHyper, decode_events, gen_candidates, label_pairs

import fixtures


def _line(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


class TestCriterion1GradientCorrectness:
    def test_all_operators_and_composed_losses(self):
        start = time.perf_counter()
        results = gradcheck.run_suite(eps=1e-5)
        elapsed = time.perf_counter() - start
        worst = max(results.values())
        _line(
            1,
            worst <= 1e-4 and elapsed < 60.0,
            f"max relative gradient error {worst:.2e} over {len(results)} checks "
            f"(tolerance 1e-4), runtime {elapsed:.1f}s (< 60s)",
        )


class TestCriterion2WindowFidelity:
    def test_worked_example_u3(self):
        corpus = fixtures.bgi_corpus()
        doc = next(d for d in corpus.documents if d.id == "GERE")
        table = make_hashed_table(dim=8, seed=0)
        w4 = build_context(doc.sentences[0], corpus.entity("GERE", "T4"), 3, table)
        w5 = build_context(doc.sentences[0], corpus.entity("GERE", "T5"), 3, table)
        ok = (
            w4.left_tokens == ["adheres", "to", "the", "promoters"]
            and w4.right_tokens == ["and", "cotB", "for", "promoters"]
            and w5.left_tokens == ["the", "promoters", "for", "cotB"]
            and w5.right_tokens == [PAD, "cotC", "and", "cotB"]
        )
        _line(
            2,
            ok,
            "u=3 windows for 'promoters' and 'cotB' reproduced token-for-token, "
            "including the pad slot before 'cotC'",
        )


class TestCriterion3LabelDecodingRoundTrip:
    @staticmethod
    def _discrepancies(corpus):
        bad = 0
        total_gold = 0
        for doc in corpus.documents:
            for sidx, sent in enumerate(doc.sentences):
                ents = corpus.sentence_entities(doc.id, sidx)
                pairs = gen_candidates(sent, ents) if len(ents) >= 2 else []
                for event_type in corpus.task_schema.event_types:
                    gold = {
                        (e.source, e.target)
                        for e in corpus.events.values()
                        if e.doc_id == doc.id
                        and e.type == event_type
                        and not e.cross_sentence
                        and corpus.entity(doc.id, e.source).sentence_index == sidx
                    }
                    total_gold += len(gold)
                    if not pairs:
                        bad += len(gold)
                        continue
                    labels = label_pairs(pairs, list(corpus.events.values()), event_type)
                    preds = [(float(l.exists), float(l.forward)) for l in labels]
                    decoded = {
                        (e.source, e.target) for e in decode_events(pairs, preds, event_type)
                    }
                    bad += len(decoded ^ gold)
        return bad, total_gold

    def test_round_trip_on_both_fixture_corpora(self):
        bad_bgi, n_bgi = self._discrepancies(fixtures.bgi_corpus())
        bad_bb, n_bb = self._discrepancies(fixtures.bb_corpus())
        bad_syn, n_syn = self._discrepancies(synth.make_synthetic_corpus(60, seed=4))
        _line(
            3,
            bad_bgi == bad_bb == bad_syn == 0,
            f"gold labels decode back to the gold event sets with 0 discrepancies "
            f"({n_bgi} + {n_bb} + {n_syn} events across three corpora)",
        )

    def test_case_study_sentence_three_events(self):
        corpus = fixtures.bgi_corpus()
        doc = next(d for d in corpus.documents if d.id == "PMID-10629188")
        pairs = gen_candidates(doc.sentences[0], corpus.sentence_entities(doc.id, 0))
        decoded = set()
        for event_type in corpus.task_schema.event_types:
            labels = label_pairs(pairs, list(corpus.events.values()), event_type)
            preds = [(float(l.exists), float(l.forward)) for l in labels]
            decoded |= {
                (e.type, e.source, e.target)
                for e in decode_events(pairs, preds, event_type)
            }
        expected = {
            ("ActionTarget", "T1", "T2"),
            ("Interaction", "T3", "T2"),
            ("Interaction", "T4", "T2"),
        }
        _line(3, decoded == expected, "case-study sentence decodes to exactly its three events")


class TestCriterion4OversamplingBound:
    def test_bound_exact_on_100_random_multisets(self):
        rng = np.random.default_rng(1234)
        checked = 0
        for _ in range(100):
            n_pos = int(rng.integers(1, 400))
            n_neg = int(rng.integers(1, 400))
            labels = np.array([1] * n_pos + [0] * n_neg)
            out = labels[oversample(labels, max_ratio=5, rng=rng)]
            pos = int((out == 1).sum())
            neg = out.size - pos
            minority, majority = min(pos, neg), max(pos, neg)
            assert majority / minority <= 5, (n_pos, n_neg)
            expected_minority = max(min(n_pos, n_neg), math.ceil(majority / 5))
            assert minority == expected_minority, (n_pos, n_neg)
            assert out.size >= n_pos + n_neg
            checked += 1
        _line(4, checked == 100, "majority/minority <= 5 holds exactly on 100 random multisets")

    def test_evaluation_portions_untouched(self):
        rng = np.random.default_rng(5)
        labels = np.array([1] * 30 + [0] * 300)
        plan = plan_folds(labels, seed=3)
        clean = True
        for fold in range(plan.k):
            test_idx = np.where(plan.assignments == fold)[0]
            train = np.where(plan.assignments != fold)[0]
            duplicated = train[oversample(labels[train], max_ratio=5, rng=rng)]
            clean &= not set(duplicated.tolist()) & set(test_idx.tolist())
        _line(4, clean, "no evaluation sample is ever duplicated into a training portion")


class TestCriterion5SyntheticEndToEnd:
    @pytest.mark.slow
    def test_planted_patterns_reach_f090(self):
        start = time.perf_counter()
        corpus = synth.make_synthetic_corpus(n_sentences=500, seed=21)
        table = make_hashed_table(dim=200, seed=21)
        report = cross_validate(
            corpus,
            table,
            arg_hyper=ArgHyper(),  # full-size defaults: u=10, 128/128, batch 32, 10 epochs
            event_hyper=EventHyper(),  # 64 hidden, batch 32, 10 epochs
            seed=21,
        )
        elapsed = time.perf_counter() - start
        f_score = report.events["Activation"].event_metrics.f_score
        _line(
            5,
            f_score >= 0.90 and elapsed <= 15 * 60,
            f"10-fold CV on the 500-sentence planted-pattern corpus: decoded event "
            f"F = {f_score:.3f} (>= 0.90) in {elapsed / 60:.1f} min (<= 15 min)",
        )


class TestCriterion6Determinism:
    def test_crossval_reports_byte_identical(self, tmp_path):
        schema_path = synth.write_synthetic_corpus(tmp_path / "corpus", n_sentences=40, seed=8)
        flags = [
            "crossval", "--schema", str(schema_path), "--train-dir", str(tmp_path / "corpus"),
            "--embedding", "hashed", "--dim", "8", "--window", "2", "--lstm-hidden", "4",
            "--arg-mlp-hidden", "4", "--event-mlp-hidden", "4", "--epochs", "2",
            "--seed", "31",
        ]
        blobs = []
        for name in ("runA", "runB"):
            out = tmp_path / name
            assert main([*flags, "--out", str(out)]) == 0
            cv = out / "crossval"
            blobs.append(
                {
                    rel: (cv / rel).read_bytes()
                    for rel in (
                        "metrics.json",
                        "metrics.csv",
                        "curves/event_Activation_roc.tsv",
                        "curves/arg_Activator_roc.tsv",
                        "curves/micro_events_prc.tsv",
                    )
                }
            )
        _line(
            6,
            blobs[0] == blobs[1],
            "two crossval runs with the same seed produced byte-identical metric reports",
        )


_BB_DIR = os.environ.get("BIOEE_BB_DIR")
_BB_W2V = os.environ.get("BIOEE_PUBMED_W2V")


class TestCriterion7ExternalReproduction:
    """Environment-gated: needs the bacteria-biotopes corpus and pre-trained
    biomedical word vectors, neither of which ships with this repository.
    Absent those inputs, criteria 1-6 and 8 constitute acceptance."""

    @pytest.mark.skipif(
        not _BB_DIR,
        reason="set BIOEE_BB_DIR to the bacteria-biotopes corpus directory (.txt/.a1/.a2)",
    )
    def test_corpus_statistics_match_known_counts(self):
        corpus = load_corpus_dir(_BB_DIR, BB_SCHEMA)
        stats = corpus_stats(corpus)
        ok = (
            stats["events"]["Lives_In"] == 327
            and stats["arguments"]["Bacteria"] == 168
            and stats["arguments"]["Location"] == 260
        )
        _line(7, ok, f"corpus statistics {stats['events']}, {stats['arguments']}")

    @pytest.mark.skipif(
        not (_BB_DIR and _BB_W2V),
        reason="set BIOEE_BB_DIR and BIOEE_PUBMED_W2V (word2vec file) to run the "
        "full reproduction; without them criteria 1-6 and 8 are the acceptance gate",
    )
    def test_lives_in_f_score(self):
        corpus = load_corpus_dir(_BB_DIR, BB_SCHEMA)
        fmt = os.environ.get("BIOEE_PUBMED_W2V_FORMAT", "binary")
        table = load_table(_BB_W2V, format=fmt)
        report = cross_validate(corpus, table, seed=2016)
        assert sorted(report.arguments) == ["Bacteria", "Location"]
        assert sorted(report.events) == ["Lives_In"]
        f_score = report.events["Lives_In"].event_metrics.f_score
        _line(7, f_score >= 0.77, f"Lives_In cross-validated F = {f_score:.3f} (>= 0.77)")


def _metrics_oracle(gold, pred):
    tp = sum(1 for g, p in zip(gold, pred) if g == 1 and p == 1)
    fp = sum(1 for g, p in zip(gold, pred) if g == 0 and p == 1)
    fn = sum(1 for g, p in zip(gold, pred) if g == 1 and p == 0)
    tn = len(gold) - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return (tp + tn) / len(gold), precision, recall, f


def _curves_oracle(scores, labels):
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    roc = [(0.0, 0.0)]
    prc = []
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 0)
        roc.append((fp / n_neg, tp / n_pos))
        prc.append((tp / n_pos, tp / (tp + fp)))
    prc.insert(0, (0.0, prc[0][1]))

    def trapezoid(points):
        return sum((x2 - x1) * (y1 + y2) / 2.0 for (x1, y1), (x2, y2) in zip(points, points[1:]))

    return trapezoid(roc), trapezoid(prc)


class TestCriterion8MetricSanity:
    def test_1000_random_prediction_sets(self):
        rng = np.random.default_rng(88)
        worst = 0.0
        for i in range(1000):
            n = int(rng.integers(2, 120))
            gold = np.zeros(n, dtype=int)
            gold[: max(1, int(rng.integers(1, n)))] = 1
            gold = gold[rng.permutation(n)]
            if gold.min() == gold.max():
                gold[0] = 1 - gold[0]
            pred = (rng.random(n) > rng.uniform(0.2, 0.8)).astype(int)
            scores = np.round(rng.random(n), 2)

            m = binary_metrics(gold, pred)
            for got, want in zip(
                (m.accuracy, m.precision, m.recall, m.f_score),
                _metrics_oracle(gold.tolist(), pred.tolist()),
            ):
                worst = max(worst, abs(got - want))

            curves = micro_curves(scores, gold)
            roc_auc, prc_auc = _curves_oracle(scores.tolist(), gold.tolist())
            worst = max(worst, abs(curves.roc.auc - roc_auc), abs(curves.prc.auc - prc_auc))
        _line(
            8,
            worst <= 1e-12,
            f"metrics and curves agree with brute-force oracles on 1000 random "
            f"prediction sets (max abs deviation {worst:.2e} <= 1e-12)",
        )
