"""Candidate pair rows, two-bit labels, event heads, and decoding."""

import tracemalloc

import numpy as np
import pytest

from bioee import ndiff, vecent, vecom
from bioee.corpus import BGI_SCHEMA, Corpus, Entity, corpus_from_documents
from bioee.embed import EmbeddingTable
from bioee.errors import ConfigurationError, DataError, TrainingSetupError
from bioee.vecent import Hyper
from bioee.vecom import (
    candidate_pairs,
    compose_pairs,
    decode_events,
    embed_entities,
    event_forward_batch,
    label_pairs,
    new_event_model,
    train_event_model,
)

import fixtures


@pytest.fixture(scope="module")
def bgi():
    return fixtures.bgi_corpus()


@pytest.fixture(scope="module")
def table():
    return EmbeddingTable(10, seed=9)


def _sentence_pairs(corpus, doc_id, sidx=0):
    """The entities and pair rows of one sentence (see ``fixtures.sentence_pairs``)."""
    doc = next(d for d in corpus.documents if d.id == doc_id)
    return fixtures.sentence_pairs(doc.sentences[sidx].entities)


def _ids(entities, pairs):
    """(first id, second id) of each pair row."""
    return [(entities[a].id, entities[b].id) for a, b in pairs.tolist()]


class TestCandidatePairs:
    def test_case_study_has_twelve_ordered_pairs(self, bgi):
        entities, pairs = _sentence_pairs(bgi, "PMID-10629188")
        assert len(pairs) == 12
        keys = set(_ids(entities, pairs))
        # includes the eight orderings called out for this sentence
        for a, b in [
            ("T1", "T2"), ("T2", "T1"), ("T2", "T3"), ("T3", "T2"),
            ("T2", "T4"), ("T4", "T2"), ("T1", "T3"), ("T1", "T4"),
        ]:
            assert (a, b) in keys

    def test_single_entity_yields_nothing(self, bgi):
        doc = next(d for d in bgi.documents if d.id == "PMID-10629188")
        only = doc.sentences[0].entities[:1]
        assert _ids(*fixtures.sentence_pairs(only)) == []

    def test_gere_sentence_has_thirty_pairs(self, bgi):
        assert len(_sentence_pairs(bgi, "GERE")[1]) == 30

    def test_candidate_pairs_in_document_and_sentence_order(self):
        bb = fixtures.bb_corpus()
        expected = [
            (doc.id, sidx, first, second)
            for doc in bb.documents
            for sidx in range(len(doc.sentences))
            for first, second in _ids(*_sentence_pairs(bb, doc.id, sidx))
        ]
        entities, pairs = candidate_pairs(bb)
        got = [
            (entities[a].doc_id, entities[a].sentence_index, entities[a].id, entities[b].id)
            for a, b in pairs.tolist()
        ]
        assert got == expected
        assert len({(doc_id, sidx) for doc_id, sidx, _, _ in got}) > 1

    def test_every_entity_in_window_order(self, table):
        # BB's sentences hold 2, 3, 1 and 2 entities. Every entity is in the
        # one order of the windows; the lone one is in no pair row.
        bb = fixtures.bb_corpus()
        sentences = [(doc.id, s) for doc in bb.documents for s in doc.sentences]
        assert [len(s.entities) for _, s in sentences] == [2, 3, 1, 2]
        entities, pairs = candidate_pairs(bb)
        qids = sorted(vecent.build_entity_windows(bb, 3, table))
        assert [Corpus.qualify(e.doc_id, e.id) for e in entities] == qids
        row = {q: i for i, q in enumerate(qids)}
        lone = [
            row[Corpus.qualify(doc_id, sent.entities[0].id)]
            for doc_id, sent in sentences
            if len(sent.entities) == 1
        ]
        assert len(lone) == 1 and lone[0] not in pairs
        stop = 0
        for doc_id, sent in sentences:
            rows = [row[Corpus.qualify(doc_id, e.id)] for e in sent.entities]
            start, stop = stop, stop + len(rows) * (len(rows) - 1)
            assert pairs[start:stop].tolist() == [[a, b] for a in rows for b in rows if a != b]
        assert stop == len(pairs)


class TestLabelPairs:
    def _labels(self, corpus, doc_id, event_type):
        entities, pairs = _sentence_pairs(corpus, doc_id)
        exists, forward = label_pairs(entities, pairs, list(corpus.events.values()), event_type)
        return dict(zip(_ids(entities, pairs), zip(exists.tolist(), forward.tolist())))

    def test_action_target_two_bits(self, bgi):
        got = self._labels(bgi, "PMID-10629188", "ActionTarget")
        assert got[("T1", "T2")] == (1, 1)
        assert got[("T2", "T1")] == (1, 0)
        assert got[("T1", "T3")] == (0, 0)

    def test_interaction_case_study_row(self, bgi):
        got = self._labels(bgi, "PMID-10629188", "Interaction")
        expected = {
            ("T1", "T2"): (0, 0), ("T2", "T1"): (0, 0),
            ("T2", "T3"): (1, 0), ("T3", "T2"): (1, 1),
            ("T2", "T4"): (1, 0), ("T4", "T2"): (1, 1),
            ("T1", "T3"): (0, 0), ("T1", "T4"): (0, 0),
        }
        for key, bits in expected.items():
            assert got[key] == bits, key

    def test_absent_event_type_all_zero(self, bgi):
        got = self._labels(bgi, "PMID-10629188", "PromoterOf")
        assert set(got.values()) == {(0, 0)}

    def test_forward_implies_exists(self, bgi):
        for doc in bgi.documents:
            for event_type in bgi.task_schema.event_types:
                entities, pairs = _sentence_pairs(bgi, doc.id)
                exists, forward = label_pairs(
                    entities, pairs, list(bgi.events.values()), event_type
                )
                assert (exists >= forward).all()

    def test_conflicting_directions_rejected(self, bgi):
        entities, pairs = _sentence_pairs(bgi, "PMID-10629188")
        events = list(bgi.events.values())
        flipped = [e for e in events if e.doc_id == "PMID-10629188"][0]
        conflict = type(flipped)(
            id="R9",
            type=flipped.type,
            source=flipped.target,
            target=flipped.source,
            doc_id=flipped.doc_id,
        )
        with pytest.raises(DataError):
            label_pairs(entities, pairs, events + [conflict], flipped.type)

    def test_cross_sentence_events_ignored(self):
        bb = fixtures.bb_corpus()
        pairs = _ids(*_sentence_pairs(bb, "BB-2", sidx=1))  # second sentence: T4 only
        # sentence 2 has a single entity; no pairs at all
        assert pairs == []
        # sentence 1 pairs never see the cross-sentence event T1 -> T4
        entities, pairs = _sentence_pairs(bb, "BB-2", sidx=0)
        exists, _ = label_pairs(entities, pairs, list(bb.events.values()), "Lives_In")
        linked = {
            frozenset(ids)
            for ids, e in zip(_ids(entities, pairs), exists)
            if e
        }
        assert frozenset(("T1", "T4")) not in linked


def _role_models(table, seed_s, seed_t):
    return {
        "Action": vecent.new_argument_model(
            "Action", table.dim, 6, 5, dropout=0.2, rng=np.random.default_rng(seed_s)
        ),
        "Target": vecent.new_argument_model(
            "Target", table.dim, 6, 5, dropout=0.2, rng=np.random.default_rng(seed_t)
        ),
    }


class TestPairInput:
    """Both-order argument embeddings of a pair, composed in one batch."""

    ROLES = ("Action", "Target")

    @staticmethod
    def _case():
        """The case-study document alone: one sentence of four entities."""
        return corpus_from_documents([(*fixtures.case_study_document(), None, None)], BGI_SCHEMA)

    def _composed(self, table, models):
        case = self._case()
        entities, pairs = candidate_pairs(case)
        embeddings = embed_entities(models, vecent.build_entity_windows(case, 3, table))
        return entities, embeddings, pairs, compose_pairs(embeddings, pairs, self.ROLES)

    def test_halves_are_twice_embedding_size(self, table):
        entities, embeddings, pairs, composed = self._composed(table, _role_models(table, 0, 1))
        assert composed.shape == (len(pairs), 10)
        assert pairs.shape == (len(pairs), 2)
        assert {e.shape for e in embeddings.values()} == {(4, 5)}  # four distinct entities

    def test_half_layout_matches_role_models(self, table):
        models = {role: m.astype(np.float64) for role, m in _role_models(table, 2, 3).items()}
        entities, embeddings, pairs, composed = self._composed(table, models)
        i = _ids(entities, pairs).index(("T1", "T2"))
        a, b = pairs[i]
        windows = vecent.build_entity_windows(self._case(), 3, table)
        w_first = windows[Corpus.qualify(entities[a].doc_id, entities[a].id)]
        w_second = windows[Corpus.qualify(entities[b].doc_id, entities[b].id)]

        def emb(role, w):
            return vecent.argument_embeddings(models[role], [w])[0]

        np.testing.assert_allclose(embeddings["Action"][a], emb("Action", w_first), atol=1e-12)
        np.testing.assert_allclose(embeddings["Target"][a], emb("Target", w_first), atol=1e-12)
        np.testing.assert_allclose(embeddings["Target"][b], emb("Target", w_second), atol=1e-12)
        np.testing.assert_allclose(embeddings["Action"][b], emb("Action", w_second), atol=1e-12)
        first_half = np.concatenate([emb("Action", w_first), emb("Target", w_first)])
        second_half = np.concatenate([emb("Target", w_second), emb("Action", w_second)])
        np.testing.assert_allclose(composed[i], first_half - second_half, atol=1e-12)

    def test_deterministic(self, table):
        models = _role_models(table, 4, 5)
        _, _, rows_a, a = self._composed(table, models)
        _, _, rows_b, b = self._composed(table, models)
        np.testing.assert_array_equal(rows_a, rows_b)
        np.testing.assert_array_equal(a, b)


def _compose_one(first_half, second_half):
    """compose_pairs over one pair (a, b) whose halves are given: the rows
    of a hold first_half, the rows of b hold second_half in role order."""
    e = first_half.size // 2
    embeddings = {
        "S": np.stack([first_half[:e], second_half[e:]]),
        "T": np.stack([first_half[e:], second_half[:e]]),
    }
    return compose_pairs(embeddings, np.array([[0, 1]]), ("S", "T"))[0]


class TestCompose:
    def test_equal_halves_give_zero(self):
        v = np.arange(6.0)
        np.testing.assert_array_equal(_compose_one(v, v.copy()), np.zeros(6))

    def test_zero_second_half_is_identity(self):
        v = np.arange(6.0)
        np.testing.assert_array_equal(_compose_one(v, np.zeros(6)), v)

    def test_matches_elementwise_loop_oracle(self):
        rng = np.random.default_rng(11)
        emb_s, emb_t = rng.standard_normal((5, 8)), rng.standard_normal((5, 8))
        rows = rng.integers(0, 5, size=(7, 2))
        got = compose_pairs({"S": emb_s, "T": emb_t}, rows, ("S", "T"))
        for (a, b), row in zip(rows, got):
            first = list(emb_s[a]) + list(emb_t[a])
            second = list(emb_t[b]) + list(emb_s[b])
            expected = np.array([first[i] - second[i] for i in range(16)])
            np.testing.assert_allclose(row, expected, atol=1e-15)

    def test_antisymmetric_under_half_swap(self):
        rng = np.random.default_rng(12)
        embeddings = {"S": rng.standard_normal((2, 8)), "T": rng.standard_normal((2, 8))}
        lhs = compose_pairs(embeddings, np.array([[0, 1]]), ("S", "T"))
        rhs = -compose_pairs(embeddings, np.array([[1, 0]]), ("T", "S"))
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)


STUB_ROLES = ("S", "T")


def _as_pairs(composed):
    """Embeddings under ``STUB_ROLES`` and pair rows that compose to
    ``composed`` exactly: pair i is (i, n), and row n of both roles is zero."""
    n, width = composed.shape
    zero = np.zeros((1, width // 2), dtype=composed.dtype)
    embeddings = {
        "S": np.concatenate([composed[:, : width // 2], zero]),
        "T": np.concatenate([composed[:, width // 2 :], zero]),
    }
    return embeddings, np.stack([np.arange(n), np.full(n, n)], axis=1)


def _forward(model, composed):
    return event_forward_batch(model, *_as_pairs(composed), STUB_ROLES)


def _train(composed, exists, forward, hyper, rng):
    return train_event_model(*_as_pairs(composed), STUB_ROLES, exists, forward, "E", hyper, rng)


class TestEventForward:
    """The event heads through ``event_forward_batch``."""

    def test_existence_invariant_under_sign_flip(self):
        rng = np.random.default_rng(13)
        model = new_event_model(input_dim=8, hidden=4, rng=rng)
        v = rng.standard_normal(8)
        p1, _ = _forward(model, v[None, :])
        p2, _ = _forward(model, -v[None, :])
        assert p1[0] == pytest.approx(p2[0], abs=0)

    def test_zero_weight_model_gives_half_half(self):
        model = new_event_model(input_dim=8, hidden=4, rng=np.random.default_rng(14))
        for t in model.parameters().values():
            t[...] = 0.0
        p_exists, p_forward = _forward(model, np.ones((1, 8)))
        assert p_exists[0] == pytest.approx(0.5)
        assert p_forward[0] == pytest.approx(0.5)

    def test_direction_changes_under_sign_flip(self):
        rng = np.random.default_rng(15)
        model = new_event_model(input_dim=8, hidden=4, rng=rng)
        v = rng.standard_normal(8)
        _, f1 = _forward(model, v[None, :])
        _, f2 = _forward(model, -v[None, :])
        assert f1[0] != pytest.approx(f2[0])

    def test_existence_head_freed_before_direction_head(self):
        # One inference chunk of pairs at the default sizes (E = 128, hidden
        # 64). The forward composes the chunk, which the direction head
        # reads, and the existence head makes |composed|. Holding those and
        # both hidden layers at once is the bound.
        E, hidden = 128, 64
        rng = np.random.default_rng(16)
        model = new_event_model(input_dim=2 * E, hidden=hidden, rng=rng)
        dtype = model.exist_f1.A.dtype
        composed = rng.standard_normal((ndiff.INFERENCE_CHUNK, 2 * E)).astype(dtype)
        embeddings, pairs = _as_pairs(composed)
        both_at_once = 2 * composed.nbytes + 2 * ndiff.INFERENCE_CHUNK * hidden * dtype.itemsize
        tracemalloc.start()
        try:
            p_exists, p_forward = event_forward_batch(model, embeddings, pairs, STUB_ROLES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p_exists.shape == p_forward.shape == (ndiff.INFERENCE_CHUNK,)
        assert peak < both_at_once, (peak, both_at_once)


def _traced_peak(fn, *args):
    """The tracemalloc peak of ``fn(*args)`` above what was allocated
    before, and its result."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1] - start, out
    finally:
        tracemalloc.stop()


class TestPairStageMemory:
    """No stage holds a composed ``(n, 2E)`` matrix of all its pairs, or a
    second copy of the argument embeddings it returns."""

    E = 128
    SIZES = (2 * ndiff.INFERENCE_CHUNK, 8 * ndiff.INFERENCE_CHUNK)  # pair counts

    def test_embedding_peak_is_kept_plus_one_chunk(self):
        rng = np.random.default_rng(18)
        n = 8 * ndiff.INFERENCE_CHUNK
        vectors = rng.standard_normal((50, 8)).astype(ndiff.DTYPE)
        windows = {
            f"D/T{i}": vecent.ContextWindow(rng.integers(0, 50, (2, 4), dtype=np.int32), vectors)
            for i in range(n)
        }
        models = {
            role: vecent.new_argument_model(role, 8, 6, self.E, dropout=0.2, rng=rng)
            for role in STUB_ROLES
        }
        # The working set of one chunk: what embedding one chunk holds
        # beside its result.
        one = list(windows.values())[: ndiff.INFERENCE_CHUNK]
        chunk_peak, chunk = _traced_peak(vecent.argument_embeddings, models["S"], one)
        working_set = chunk_peak - chunk.nbytes
        peak, embeddings = _traced_peak(embed_entities, models, windows)
        kept = sum(e.nbytes for e in embeddings.values())
        assert kept == 2 * n * self.E * ndiff.DTYPE().itemsize
        # Beside those, only the sorted id list and the window list handed
        # to the role models (8 bytes per entity each) and their bookkeeping.
        assert peak <= kept + working_set + 64 * n, (peak, kept, working_set)

    def _pairs(self, n, rng):
        embeddings = {
            role: rng.standard_normal((64, self.E)).astype(ndiff.DTYPE) for role in STUB_ROLES
        }
        return embeddings, rng.integers(0, 64, (n, 2))

    def _growth(self, run):
        """How much the peak of ``run(n)`` grows between the two ``SIZES``
        of n, and a quarter of the growth of an ``(n, 2E)`` composed matrix."""
        small, large = self.SIZES
        run(small)  # one-off allocations of a first call stay out of the peaks
        peaks = [_traced_peak(run, n)[0] for n in (small, large)]
        return peaks[1] - peaks[0], (large - small) * 2 * self.E * ndiff.DTYPE().itemsize // 4

    def test_forward_peak_does_not_grow_by_a_composed_matrix(self):
        rng = np.random.default_rng(19)
        model = new_event_model(input_dim=2 * self.E, hidden=64, rng=rng)
        inputs = {n: self._pairs(n, rng) for n in self.SIZES}

        def run(n):
            return event_forward_batch(model, *inputs[n], STUB_ROLES)

        growth, bound = self._growth(run)
        assert growth < bound, (growth, bound)

    def test_training_peak_does_not_grow_by_a_composed_matrix(self):
        rng = np.random.default_rng(20)
        hyper = Hyper(event_mlp_hidden=64, epochs=1)
        inputs = {}
        for n in self.SIZES:
            embeddings, pairs = self._pairs(n, rng)
            inputs[n] = (embeddings, pairs, np.arange(n) % 2, rng.integers(0, 2, n))

        def run(n):
            embeddings, pairs, exists, forward = inputs[n]
            return train_event_model(
                embeddings, pairs, STUB_ROLES, exists, forward * exists, "E", hyper,
                np.random.default_rng(0),
            )

        growth, bound = self._growth(run)
        assert growth < bound, (growth, bound)


def _stub_entities(*ids):
    """Entities of one sentence of document D, for pair rows to index."""
    return [Entity(id=tid, label="X", span=(0, 1), doc_id="D", sentence_index=0) for tid in ids]


def _separable_pairs(n=160, dim=12, seed=0):
    """(composed, exists, forward) for pairs whose composed vector encodes
    both bits along one direction."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    composed = np.empty((n, dim))
    exists = np.arange(n) % 2
    forward = (np.arange(n) // 2) % 2 * exists
    for i in range(n):
        if exists[i]:
            composed[i] = direction * (3.0 if forward[i] else -3.0) + 0.1 * rng.standard_normal(dim)
        else:
            composed[i] = 0.05 * rng.standard_normal(dim)
    return composed, exists, forward


class TestTrainEventModel:
    def test_separable_pairs_reach_95_accuracy(self):
        hyper = Hyper(event_mlp_hidden=8, batch=16, epochs=10, lr=0.05)
        model, log = _train(*_separable_pairs(), hyper, np.random.default_rng(0))
        assert log[-1].accuracy >= 0.95

    def test_zero_epochs_returns_initialized_model(self):
        hyper = Hyper(event_mlp_hidden=8, epochs=0)
        model, log = _train(*_separable_pairs(n=20), hyper, np.random.default_rng(0))
        assert log == []

    def test_single_class_existence_rejected(self):
        composed, exists, forward = _separable_pairs(n=40)
        keep = exists == 1
        with pytest.raises(TrainingSetupError):
            _train(composed[keep], exists[keep], forward[keep], Hyper(), np.random.default_rng(0))

    def test_direction_learned_on_separable_pairs(self):
        hyper = Hyper(event_mlp_hidden=8, batch=16, epochs=12, lr=0.05)
        composed, exists, forward = _separable_pairs()
        model, _ = _train(composed, exists, forward, hyper, np.random.default_rng(0))
        _, pf = _forward(model, composed[exists == 1])
        assert np.mean((pf >= 0.5) == (forward[exists == 1] == 1)) >= 0.95


class TestDecodeEvents:
    ONE_PAIR = np.array([[0, 1], [1, 0]])  # both orderings of two entities

    def test_forward_bit_orients_first_to_second(self):
        entities = _stub_entities("T1", "T2")
        events = decode_events(entities, self.ONE_PAIR, [1.0, 1.0], [1.0, 0.0], "ActionTarget", 0.5)
        assert len(events) == 1
        assert (events[0].source, events[0].target) == ("T1", "T2")

    def test_zero_bit_orients_second_to_first(self):
        entities = _stub_entities("T2", "T3")
        events = decode_events(entities, self.ONE_PAIR, [0.9, 0.2], [0.0, 0.9], "Interaction", 0.5)
        assert len(events) == 1
        assert (events[0].source, events[0].target) == ("T3", "T2")

    def test_below_threshold_yields_nothing(self):
        entities = _stub_entities("T1", "T2")
        assert decode_events(entities, self.ONE_PAIR, [0.4, 0.3], [1.0, 0.2], "E", 0.5) == []

    def test_higher_existence_ordering_wins(self):
        entities = _stub_entities("T1", "T2")
        events = decode_events(entities, self.ONE_PAIR, [0.6, 0.8], [0.9, 0.9], "E", 0.5)
        assert len(events) == 1
        # (T2, T1) scored higher and its forward bit points T2 -> T1
        assert (events[0].source, events[0].target) == ("T2", "T1")

    def test_tie_keeps_earlier_candidate(self):
        entities = _stub_entities("T1", "T2")
        for pairs, expected in ((self.ONE_PAIR, ("T1", "T2")), (self.ONE_PAIR[::-1], ("T2", "T1"))):
            events = decode_events(entities, pairs, [0.7, 0.7], [1.0, 1.0], "E", 0.5)
            assert [(e.source, e.target) for e in events] == [expected]

    def test_events_in_first_candidate_order(self):
        entities = _stub_entities("T1", "T2", "T3")
        # Unordered pairs first seen in the order {T2, T3}, {T1, T3}, {T1, T2}.
        pairs = np.array([[1, 2], [0, 2], [2, 1], [0, 1], [1, 0], [2, 0]])
        p_exists = [0.6, 0.7, 0.9, 0.8, 0.95, 0.5]
        events = decode_events(entities, pairs, p_exists, [1.0] * 6, "E", 0.5)
        assert [(e.source, e.target) for e in events] == [("T3", "T2"), ("T1", "T3"), ("T2", "T1")]

    def test_whole_corpus_call_equals_per_sentence_calls(self, bgi):
        entities, pairs = candidate_pairs(bgi)
        rng = np.random.default_rng(17)
        p_exists, p_forward = rng.random(len(pairs)), rng.random(len(pairs))
        sentences = {}
        for i, a in enumerate(pairs[:, 0].tolist()):
            sentences.setdefault((entities[a].doc_id, entities[a].sentence_index), []).append(i)
        assert len(sentences) > 1
        for event_type in bgi.task_schema.event_types:
            per_sentence = []
            for idx in sentences.values():
                per_sentence.extend(
                    decode_events(
                        entities, pairs[idx], p_exists[idx], p_forward[idx], event_type, 0.5
                    )
                )
            assert per_sentence
            assert decode_events(entities, pairs, p_exists, p_forward, event_type, 0.5) == (
                per_sentence
            )


class TestGoldRoundTrip:
    def _round_trip(self, corpus):
        """Gold labels as hard predictions must decode to the gold events."""
        events = list(corpus.events.values())
        for doc in corpus.documents:
            for sidx, sent in enumerate(doc.sentences):
                if len(sent.entities) < 2:
                    continue
                entities, pairs = fixtures.sentence_pairs(sent.entities)
                for event_type in corpus.task_schema.event_types:
                    exists, forward = label_pairs(entities, pairs, events, event_type)
                    decoded = {
                        (e.source, e.target)
                        for e in decode_events(entities, pairs, exists, forward, event_type, 0.5)
                    }
                    gold = {
                        (e.source, e.target)
                        for e in corpus.events.values()
                        if e.doc_id == doc.id
                        and e.type == event_type
                        and not e.cross_sentence
                        and corpus.entities[Corpus.qualify(doc.id, e.source)].sentence_index
                        == sidx
                    }
                    assert decoded == gold, (doc.id, event_type)

    def test_bgi_fixture(self, bgi):
        self._round_trip(bgi)

    def test_bb_fixture(self):
        self._round_trip(fixtures.bb_corpus())

    def test_case_study_sentence_three_events(self, bgi):
        entities, pairs = _sentence_pairs(bgi, "PMID-10629188")
        decoded = []
        for event_type in bgi.task_schema.event_types:
            exists, forward = label_pairs(entities, pairs, list(bgi.events.values()), event_type)
            decoded.extend(decode_events(entities, pairs, exists, forward, event_type, 0.5))
        got = {(e.type, e.source, e.target) for e in decoded}
        assert got == {
            ("ActionTarget", "T1", "T2"),
            ("Interaction", "T3", "T2"),
            ("Interaction", "T4", "T2"),
        }


class TestBuildPairSamples:
    """The corpus-wide pairs of one event type: pair rows, composed
    features and two-bit labels, aligned by index."""

    def test_features_and_labels_align(self, bgi, table):
        rng = np.random.default_rng(0)
        arg_models = {
            role: vecent.new_argument_model(role, table.dim, 6, 5, dropout=0.2, rng=rng)
            for role in ("Action", "Target")
        }
        windows = vecent.build_entity_windows(bgi, 3, table)
        entities, pairs = candidate_pairs(bgi)
        embeddings = embed_entities(arg_models, windows)
        composed = compose_pairs(embeddings, pairs, bgi.task_schema.roles("ActionTarget"))
        exists, _ = label_pairs(entities, pairs, list(bgi.events.values()), "ActionTarget")
        positive = [entities[a] for a, e in zip(pairs[:, 0].tolist(), exists) if e]
        assert len(positive) == 2  # both orderings of (T1, T2) in the case doc
        assert {p.doc_id for p in positive} == {"PMID-10629188"}
        assert composed.shape == (len(pairs), 10)

    def test_missing_model_is_configuration_error(self, bgi, table):
        windows = vecent.build_entity_windows(bgi, 3, table)
        _, pairs = candidate_pairs(bgi)
        embeddings = embed_entities({}, windows)
        roles = bgi.task_schema.roles("ActionTarget")
        with pytest.raises(ConfigurationError):
            compose_pairs(embeddings, pairs, roles)
        model = new_event_model(input_dim=10, hidden=4)
        with pytest.raises(ConfigurationError):
            event_forward_batch(model, embeddings, pairs, roles)
        # A missing role is reported before single-class labels are.
        no_events = np.zeros(len(pairs), dtype=np.int64)
        with pytest.raises(ConfigurationError):
            train_event_model(embeddings, pairs, roles, no_events, no_events, "ActionTarget")
