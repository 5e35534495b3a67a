"""Context windows, argument classifiers, and their training loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioee import ndiff, synth, vecent
from bioee.corpus import Corpus
from bioee.embed import PAD, EmbeddingTable
from bioee.errors import ShapeError, TrainingSetupError
from bioee.vecent import (
    ContextWindow,
    Hyper,
    argument_embeddings,
    argument_labels,
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


def _gere_windows(corpus, tids, table, u=3):
    """The windows of GERE's entities ``tids``, from one build, so one batch
    can hold them."""
    windows = build_entity_windows(corpus, u, table)
    return [windows[Corpus.qualify("GERE", tid)] for tid in tids]


def _gere_window(corpus, tid, table, u=3):
    return _gere_windows(corpus, [tid], table, u)[0]


class TestBuildContext:
    def test_promoters_window_u3(self, bgi, table):
        w = _gere_window(bgi, "T4", table)
        assert fixtures.window_holds(
            w, table, ["adheres", "to", "the", "promoters"], ["and", "cotB", "for", "promoters"]
        )

    def test_cotb_window_has_pad_slot(self, bgi, table):
        w = _gere_window(bgi, "T5", table)
        assert fixtures.window_holds(
            w, table, ["the", "promoters", "for", "cotB"], [PAD, "cotC", "and", "cotB"]
        )

    def test_sentence_start_pads_left(self, bgi, table):
        # "expression" is the second token of the case-study sentence.
        w = build_entity_windows(bgi, 2, table)[Corpus.qualify("PMID-10629188", "T1")]
        assert fixtures.window_holds(
            w, table, [PAD, "The", "expression"], ["rsfA", "of", "expression"]
        )

    def test_anchor_is_last_in_both_halves(self, bgi, table):
        windows = build_entity_windows(bgi, 4, table)
        for qid, w in windows.items():
            assert w.ids.shape == (2, 5)
            assert w.ids[0, -1] == w.ids[1, -1] != 0

    def test_window_vectors_match_lookup(self, bgi, table):
        w = _gere_window(bgi, "T5", table)
        assert w.ids[1, 0] == 0  # pad slot
        np.testing.assert_array_equal(w.vectors[w.ids[1, 0]], np.zeros(table.dim))
        np.testing.assert_array_equal(w.vectors[w.ids[0, 3]], table.lookup("cotB"))

    def test_windows_share_one_matrix_of_distinct_words(self, bgi, table):
        windows = build_entity_windows(bgi, 3, table)
        vectors = next(iter(windows.values())).vectors
        assert all(w.vectors is vectors for w in windows.values())
        assert vectors.dtype == ndiff.DTYPE and vectors.shape[1] == table.dim
        used = np.unique(np.concatenate([w.ids.ravel() for w in windows.values()]))
        np.testing.assert_array_equal(used, np.arange(len(vectors)))  # no unused row
        assert len(np.unique(vectors[1:], axis=0)) == len(vectors) - 1  # one row per word

    def test_window_size_must_be_positive(self, bgi, table):
        with pytest.raises(ValueError):
            build_entity_windows(bgi, 0, table)

    def test_punctuation_tokens_skipped(self, bgi, table):
        # The terminal period is a token but never occupies a window slot.
        w = _gere_window(bgi, "T6", table, u=2)  # "cotC", last word before "."
        assert fixtures.window_holds(w, table, ["cotB", "and", "cotC"], [PAD, PAD, "cotC"])


class TestWindowMemory:
    def test_windows_hold_under_2kb_per_entity(self):
        # The benchmark's window and embedding size. Each window is 2(u+1)
        # token ids; the word vectors are held once per distinct word.
        corpus = synth.make_synthetic_corpus(n_sentences=2000, seed=3)
        table = EmbeddingTable(200, seed=1)
        tracemalloc.start()
        try:
            windows = build_entity_windows(corpus, 10, table)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(windows) == len(corpus.entities)
        assert held / len(windows) < 2048


class TestEncode:
    """The BLSTM encoding, seen through the batched inference paths."""

    def test_output_is_twice_hidden(self, bgi, table):
        model = new_argument_model("t", table.dim, lstm_hidden=16, mlp_hidden=8,
                                   rng=np.random.default_rng(0))
        w = _gere_window(bgi, "T4", table)
        assert model.f1.A.shape == (8, 32)  # f1 reads the encoding
        assert argument_embeddings(model, [w]).shape == (1, 8)

    def test_all_pad_windows_encode_identically(self, table):
        model = new_argument_model("t", table.dim, lstm_hidden=8, mlp_hidden=4,
                                   rng=np.random.default_rng(1))
        pads = np.zeros((2, 4), dtype=np.int32)
        w1 = ContextWindow(pads, np.zeros((1, table.dim)))
        w2 = ContextWindow(pads.copy(), np.zeros((3, table.dim), dtype=np.float32))
        np.testing.assert_array_equal(
            argument_embeddings(model, [w1]), argument_embeddings(model, [w2])
        )
        np.testing.assert_array_equal(predict_probs(model, [w1]), predict_probs(model, [w2]))

    def test_batch_mixing_matrices_is_rejected(self, bgi, table):
        # A batch's ids index the one matrix its windows share. Two builds
        # from one table hold equal but distinct matrices, and a batch may
        # not mix them.
        model = new_argument_model("t", table.dim, lstm_hidden=8, mlp_hidden=4,
                                   rng=np.random.default_rng(6))
        calls = [list(build_entity_windows(bgi, 3, table).values()) for _ in range(2)]
        assert calls[0][0].vectors is not calls[1][0].vectors
        np.testing.assert_array_equal(calls[0][0].vectors, calls[1][0].vectors)
        ids, vectors = vecent._gather(calls[0])
        assert vectors is calls[0][0].vectors
        np.testing.assert_array_equal(ids, np.stack([w.ids for w in calls[0]]))
        mixed = [w for pair in zip(*calls) for w in pair]
        with pytest.raises(ShapeError):
            vecent._gather(mixed)
        with pytest.raises(ShapeError):
            argument_embeddings(model, mixed)

    def test_swapping_halves_changes_encoding(self, bgi, table):
        model = new_argument_model("t", table.dim, lstm_hidden=8, mlp_hidden=4,
                                   rng=np.random.default_rng(2))
        w = _gere_window(bgi, "T4", table)
        swapped = ContextWindow(w.ids[::-1], w.vectors)
        assert not np.allclose(
            argument_embeddings(model, [w]), argument_embeddings(model, [swapped])
        )


class TestArgForward:
    """Argument-role probabilities from ``predict_probs``."""

    def test_probability_range(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 4, rng=np.random.default_rng(3))
        windows = _gere_windows(bgi, [ent.id for ent in _gere_sentence(bgi).entities], table)
        probs = predict_probs(model, windows)
        assert probs.shape == (len(windows),)
        assert np.all((0.0 < probs) & (probs < 1.0))

    def test_zero_weight_model_gives_half(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 4, rng=np.random.default_rng(4))
        for t in model.parameters().values():
            t[...] = 0.0
        w = _gere_window(bgi, "T4", table)
        assert predict_probs(model, [w])[0] == pytest.approx(0.5)

    def test_inference_is_deterministic(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 4, rng=np.random.default_rng(5))
        w = _gere_window(bgi, "T4", table)
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
    label; trivially learnable. The windows share one matrix, each its own
    u+1 rows."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(dim)
    contexts = []
    labels = np.arange(n) % 2
    for label in labels:
        anchor = base * (2.0 if label else -2.0) + 0.1 * rng.standard_normal(dim)
        ctx = 0.1 * rng.standard_normal((u + 1, dim))
        ctx[-1] = anchor  # both halves read the same context toward the anchor
        contexts.append(ctx)
    vectors = np.concatenate(contexts)
    ids = np.arange(n * (u + 1)).reshape(n, 1, u + 1).repeat(2, axis=1)
    return [ContextWindow(window, vectors) for window in ids], labels


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
        model = new_argument_model("t", table.dim, 8, 5, rng=np.random.default_rng(6))
        w = _gere_window(bgi, "T4", table)
        assert argument_embeddings(model, [w]).shape == (1, 5)

    def test_zero_weight_model_gives_zero_vector(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 5, rng=np.random.default_rng(7))
        for t in model.parameters().values():
            t[...] = 0.0
        w = _gere_window(bgi, "T4", table)
        np.testing.assert_array_equal(argument_embeddings(model, [w]), np.zeros((1, 5)))

    def test_identical_windows_identical_embeddings(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 5, rng=np.random.default_rng(8))
        w = _gere_window(bgi, "T4", table)
        np.testing.assert_array_equal(
            argument_embeddings(model, [w]), argument_embeddings(model, [w])
        )

    def test_embedding_is_preactivation(self, bgi, table):
        # Values outside (-1, 1) prove no tanh was applied.
        model = new_argument_model("t", table.dim, 8, 5, rng=np.random.default_rng(9))
        model.f1.A *= 50.0
        w = _gere_window(bgi, "T4", table)
        assert np.abs(argument_embeddings(model, [w])).max() > 1.0

    def test_batch_matches_single(self, bgi, table):
        model = new_argument_model("t", table.dim, 8, 5, rng=np.random.default_rng(10))
        model = model.astype(np.float64)
        windows = _gere_windows(bgi, ["T1", "T4", "T5"], table)
        batch = argument_embeddings(model, windows)
        for i, w in enumerate(windows):
            np.testing.assert_allclose(batch[i], argument_embeddings(model, [w])[0], atol=1e-12)

    def test_chunked_inference_matches_row_by_row(self, bgi, table, monkeypatch):
        monkeypatch.setattr(ndiff, "INFERENCE_CHUNK", 4)
        model = new_argument_model("t", table.dim, 8, 5, rng=np.random.default_rng(11))
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
