"""Context windows, argument classifiers, and their training loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioee import ndiff, vecent
from bioee.corpus import Corpus
from bioee.embed import PAD, EmbeddingTable
from bioee.errors import TrainingSetupError
from bioee.vecent import (
    ContextWindow,
    Hyper,
    argument_embeddings,
    argument_labels,
    build_context,
    build_entity_windows,
    class_weight,
    new_argument_model,
    oversample,
    predict_probs,
    train_argument_model,
)

import fixtures


@pytest.fixture(scope="module")
def bgi():
    return fixtures.bgi_corpus()


@pytest.fixture(scope="module")
def table():
    return EmbeddingTable(12, seed=5)


def _gere_sentence(corpus):
    doc = next(d for d in corpus.documents if d.id == "GERE")
    return doc.sentences[0]


def _gere_entity(corpus, tid):
    return corpus.entities[Corpus.qualify("GERE", tid)]


class TestBuildContext:
    def test_promoters_window_u3(self, bgi, table):
        w = build_context(_gere_sentence(bgi), _gere_entity(bgi, "T4"), 3, table)
        assert w.left_tokens == ["adheres", "to", "the", "promoters"]
        assert w.right_tokens == ["and", "cotB", "for", "promoters"]

    def test_cotb_window_has_pad_slot(self, bgi, table):
        w = build_context(_gere_sentence(bgi), _gere_entity(bgi, "T5"), 3, table)
        assert w.left_tokens == ["the", "promoters", "for", "cotB"]
        assert w.right_tokens == [PAD, "cotC", "and", "cotB"]

    def test_sentence_start_pads_left(self, bgi, table):
        # "expression" is the second token of the case-study sentence.
        corpus = bgi
        ent = corpus.entities[Corpus.qualify("PMID-10629188", "T1")]
        doc = next(d for d in corpus.documents if d.id == "PMID-10629188")
        w = build_context(doc.sentences[0], ent, 2, table)
        assert w.left_tokens == [PAD, "The", "expression"]
        assert w.right_tokens == ["rsfA", "of", "expression"]

    def test_anchor_is_last_in_both_halves(self, bgi, table):
        windows = build_entity_windows(bgi, 4, table)
        for qid, w in windows.items():
            assert w.left_tokens[-1] == w.right_tokens[-1]
            assert len(w.left_tokens) == len(w.right_tokens) == 5

    def test_window_vectors_match_lookup(self, bgi, table):
        w = build_context(_gere_sentence(bgi), _gere_entity(bgi, "T5"), 3, table)
        np.testing.assert_array_equal(w.right[0], np.zeros(table.dim))  # pad slot
        np.testing.assert_array_equal(w.left[3], table.lookup("cotB"))

    def test_window_size_must_be_positive(self, bgi, table):
        with pytest.raises(ValueError):
            build_context(_gere_sentence(bgi), _gere_entity(bgi, "T4"), 0, table)

    def test_punctuation_tokens_skipped(self, table):
        # The terminal period is a token but never occupies a window slot.
        corpus = fixtures.bgi_corpus()
        ent = corpus.entities[Corpus.qualify("GERE", "T6")]  # "cotC", last word before "."
        doc = next(d for d in corpus.documents if d.id == "GERE")
        w = build_context(doc.sentences[0], ent, 2, table)
        assert w.right_tokens == [PAD, PAD, "cotC"]


class TestEncode:
    """The BLSTM encoding, seen through the batched inference paths."""

    def test_output_is_twice_hidden(self, bgi, table):
        model = new_argument_model("t", table.dim, lstm_hidden=16, mlp_hidden=8,
                                   dropout=0.2, rng=np.random.default_rng(0))
        w = build_context(_gere_sentence(bgi), _gere_entity(bgi, "T4"), 3, table)
        assert model.f1.A.shape == (8, 32)  # f1 reads the encoding
        assert argument_embeddings(model, [w]).shape == (1, 8)

    def test_all_pad_windows_encode_identically(self, table):
        model = new_argument_model("t", table.dim, lstm_hidden=8, mlp_hidden=4,
                                   dropout=0.2, rng=np.random.default_rng(1))
        pad_vec = np.zeros((4, table.dim))
        w1 = ContextWindow([PAD] * 4, [PAD] * 4, pad_vec, pad_vec)
        w2 = ContextWindow([PAD] * 4, [PAD] * 4, pad_vec.copy(), pad_vec.copy())
        np.testing.assert_array_equal(
            argument_embeddings(model, [w1]), argument_embeddings(model, [w2])
        )
        np.testing.assert_array_equal(predict_probs(model, [w1]), predict_probs(model, [w2]))

    def test_swapping_halves_changes_encoding(self, bgi, table):
        model = new_argument_model("t", table.dim, lstm_hidden=8, mlp_hidden=4,
                                   dropout=0.2, rng=np.random.default_rng(2))
        w = build_context(_gere_sentence(bgi), _gere_entity(bgi, "T4"), 3, table)
        swapped = ContextWindow(w.right_tokens, w.left_tokens, w.right, w.left)
        assert not np.allclose(
            argument_embeddings(model, [w]), argument_embeddings(model, [swapped])
        )


class TestArgForward:
    """Argument-role probabilities from ``predict_probs``."""

    def test_probability_range(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 4, dropout=0.2, rng=np.random.default_rng(3))
        windows = [build_context(_gere_sentence(bgi), ent, 3, table)
                   for ent in _gere_sentence(bgi).entities]
        probs = predict_probs(model, windows)
        assert probs.shape == (len(windows),)
        assert np.all((0.0 < probs) & (probs < 1.0))

    def test_zero_weight_model_gives_half(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 4, dropout=0.2, rng=np.random.default_rng(4))
        for t in model.parameters().values():
            t[...] = 0.0
        w = build_context(_gere_sentence(bgi), _gere_entity(bgi, "T4"), 3, table)
        assert predict_probs(model, [w])[0] == pytest.approx(0.5)

    def test_inference_is_deterministic(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 4, dropout=0.5,
                                   rng=np.random.default_rng(5))
        w = build_context(_gere_sentence(bgi), _gere_entity(bgi, "T4"), 3, table)
        assert predict_probs(model, [w])[0] == predict_probs(model, [w])[0]


class TestClassWeight:
    def test_basic_arithmetic(self):
        assert class_weight([1] * 20 + [0] * 80) == pytest.approx(0.8)

    def test_balanced_gives_half(self):
        assert class_weight([1, 0, 1, 0]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingSetupError):
            class_weight([0, 0, 0])
        with pytest.raises(TrainingSetupError):
            class_weight([1, 1])


class TestOversample:
    def test_bound_reached_exactly(self):
        labels = np.array([0] * 100 + [1] * 10)
        out = labels[oversample(labels, max_ratio=5, rng=np.random.default_rng(0))]
        pos = int((out == 1).sum())
        neg = int((out == 0).sum())
        assert pos == 20  # ceil(100 / 5)
        assert neg == 100
        assert neg / pos <= 5

    def test_within_bound_unchanged(self):
        labels = np.array([0] * 20 + [1] * 10)
        assert len(oversample(labels, 5, np.random.default_rng(0))) == 30

    def test_balanced_unchanged(self):
        labels = np.array([0] * 5 + [1] * 5)
        assert len(oversample(labels, 5, np.random.default_rng(0))) == 10

    def test_originals_all_retained(self):
        labels = np.array([0] * 40 + [1] * 3)
        idx = oversample(labels, 5, np.random.default_rng(1))
        np.testing.assert_array_equal(idx[: labels.size], np.arange(labels.size))  # prefix
        extra = idx[labels.size :]
        assert extra.size > 0
        assert np.all(labels[extra] == 1)  # duplicates point at minority originals

    def test_single_class_rejected(self):
        with pytest.raises(TrainingSetupError):
            oversample(np.array([1]), 5, np.random.default_rng(0))

    @given(st.integers(1, 60), st.integers(1, 60))
    @settings(max_examples=80, deadline=None)
    def test_ratio_bound_property(self, n_pos, n_neg):
        labels = np.array([1] * n_pos + [0] * n_neg)
        out = labels[oversample(labels, 5, np.random.default_rng(7))]
        pos = int((out == 1).sum())
        neg = out.size - pos
        assert max(pos, neg) / min(pos, neg) <= 5
        assert out.size >= labels.size


def _separable_samples(n=200, dim=8, u=2, seed=0):
    """(windows, labels) where the anchor vector's direction determines the
    label; trivially learnable."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(dim)
    windows = []
    labels = np.arange(n) % 2
    for label in labels:
        anchor = base * (2.0 if label else -2.0) + 0.1 * rng.standard_normal(dim)
        ctx = 0.1 * rng.standard_normal((u + 1, dim))
        left = ctx.copy()
        right = ctx.copy()
        left[-1] = anchor
        right[-1] = anchor
        windows.append(ContextWindow(["w"] * (u + 1), ["w"] * (u + 1), left, right))
    return windows, labels


class TestTraining:
    def test_separable_data_reaches_95_accuracy(self):
        hyper = Hyper(window=2, lstm_hidden=8, arg_mlp_hidden=6, batch=16, epochs=10, lr=0.05)
        model, log = train_argument_model(
            *_separable_samples(), hyper, rng=np.random.default_rng(0), arg_type="t"
        )
        assert log[-1].accuracy >= 0.95
        assert log[-1].loss < log[0].loss  # monotone improvement on separable data

    def test_zero_epochs_returns_initialized_model(self):
        hyper = Hyper(window=2, lstm_hidden=8, arg_mlp_hidden=6, epochs=0)
        model, log = train_argument_model(
            *_separable_samples(n=20), hyper, rng=np.random.default_rng(0), arg_type="t"
        )
        assert log == []
        assert model.fwd.A.shape == (4 * 8, 8 + 8)  # (4H, D+H), D = 8

    def test_class_weight_uses_predup_distribution(self, monkeypatch):
        seen = {}
        original = vecent.class_weight

        def spy(labels):
            seen["labels"] = list(labels)
            return original(labels)

        monkeypatch.setattr(vecent, "class_weight", spy)
        windows, labels = _separable_samples(n=40)
        windows, labels = windows[:30], labels[:30]  # 15 pos / 15 neg
        # Drop positives to force oversampling: keep 3 positives.
        keep = [*np.flatnonzero(labels == 0), *np.flatnonzero(labels == 1)[:3]]
        windows, labels = [windows[i] for i in keep], labels[keep]
        hyper = Hyper(window=2, lstm_hidden=4, arg_mlp_hidden=4, epochs=1)
        train_argument_model(windows, labels, hyper, rng=np.random.default_rng(0), arg_type="t")
        assert seen["labels"] == list(labels)  # not the duplicated set

    def test_bgi_fixture_trains_one_model_per_argument_type(self, bgi, table):
        hyper = Hyper(window=3, lstm_hidden=6, arg_mlp_hidden=4, batch=8, epochs=1)
        windows = build_entity_windows(bgi, hyper.window, table)
        qids = sorted(windows)
        models = {}
        for arg_type, labels in argument_labels(bgi, qids).items():
            models[arg_type], _ = train_argument_model(
                [windows[q] for q in qids], labels, hyper, rng=np.random.default_rng(1),
                arg_type=arg_type,
            )
        assert len(models) == 11

    def test_argument_samples_one_vs_all(self, bgi, table):
        qids = sorted(build_entity_windows(bgi, 3, table))
        labels = argument_labels(bgi, qids)["Target"]
        assert len(labels) == len(bgi.entities)
        by_id = dict(zip(qids, labels))
        assert by_id["GERE/T5"] == 1  # cotB is a Target of Interaction
        assert by_id["GERE/T4"] == 0  # promoters never plays Target


class TestArgumentEmbedding:
    def test_dimension_is_mlp_hidden(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 5, dropout=0.2, rng=np.random.default_rng(6))
        w = build_context(_gere_sentence(bgi), _gere_entity(bgi, "T4"), 3, table)
        assert argument_embeddings(model, [w]).shape == (1, 5)

    def test_zero_weight_model_gives_zero_vector(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 5, dropout=0.2, rng=np.random.default_rng(7))
        for t in model.parameters().values():
            t[...] = 0.0
        w = build_context(_gere_sentence(bgi), _gere_entity(bgi, "T4"), 3, table)
        np.testing.assert_array_equal(argument_embeddings(model, [w]), np.zeros((1, 5)))

    def test_identical_windows_identical_embeddings(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 5, dropout=0.5,
                                   rng=np.random.default_rng(8))
        w = build_context(_gere_sentence(bgi), _gere_entity(bgi, "T4"), 3, table)
        np.testing.assert_array_equal(
            argument_embeddings(model, [w]), argument_embeddings(model, [w])
        )

    def test_embedding_is_preactivation(self, bgi, table):
        # Values outside (-1, 1) prove no tanh was applied.
        model = new_argument_model("t", table.dim, 8, 5, dropout=0.2, rng=np.random.default_rng(9))
        model.f1.A *= 50.0
        w = build_context(_gere_sentence(bgi), _gere_entity(bgi, "T4"), 3, table)
        assert np.abs(argument_embeddings(model, [w])).max() > 1.0

    def test_batch_matches_single(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 5, dropout=0.2, rng=np.random.default_rng(10))
        model = model.astype(np.float64)
        windows = [
            build_context(_gere_sentence(bgi), _gere_entity(bgi, tid), 3, table)
            for tid in ("T1", "T4", "T5")
        ]
        batch = argument_embeddings(model, windows)
        for i, w in enumerate(windows):
            np.testing.assert_allclose(batch[i], argument_embeddings(model, [w])[0], atol=1e-12)

    def test_chunked_inference_matches_row_by_row(self, bgi, table, monkeypatch):
        monkeypatch.setattr(ndiff, "INFERENCE_CHUNK", 4)
        model = new_argument_model("t", table.dim, 8, 5, dropout=0.2, rng=np.random.default_rng(11))
        model = model.astype(np.float64)
        windows = list(build_entity_windows(bgi, 3, table).values())[:10]
        assert len(ndiff.inference_chunks(len(windows))) == 3
        emb = vecent.argument_embeddings(model, windows)
        probs = vecent.predict_probs(model, windows)
        assert emb.shape == (10, 5) and probs.shape == (10,)
        for i, w in enumerate(windows):
            np.testing.assert_allclose(
                emb[i], vecent.argument_embeddings(model, [w])[0], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                probs[i], vecent.predict_probs(model, [w])[0], rtol=0, atol=1e-12
            )
