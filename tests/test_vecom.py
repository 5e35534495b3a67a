"""Candidate pairs, two-bit labels, event heads, and decoding."""

import numpy as np
import pytest

from bioee import vecent, vecom
from bioee.embed import make_hashed_table
from bioee.errors import ConfigurationError, DataError, TrainingSetupError
from bioee.vecom import (
    CandidatePair,
    EventHyper,
    candidate_pairs,
    compose_pairs,
    decode_events,
    embed_pair_entities,
    event_forward_batch,
    gen_candidates,
    label_pairs,
    new_event_model,
    train_event_model,
    typed_filter,
)

import fixtures


@pytest.fixture(scope="module")
def bgi():
    return fixtures.bgi_corpus()


@pytest.fixture(scope="module")
def table():
    return make_hashed_table(dim=10, seed=9)


def _sentence_pairs(corpus, doc_id, sidx=0):
    doc = next(d for d in corpus.documents if d.id == doc_id)
    ents = corpus.sentence_entities(doc_id, sidx)
    return gen_candidates(doc.sentences[sidx], ents)


class TestGenCandidates:
    def test_case_study_has_twelve_ordered_pairs(self, bgi):
        pairs = _sentence_pairs(bgi, "PMID-10629188")
        assert len(pairs) == 12
        keys = {(p.first.id, p.second.id) for p in pairs}
        # includes the eight orderings called out for this sentence
        for a, b in [
            ("T1", "T2"), ("T2", "T1"), ("T2", "T3"), ("T3", "T2"),
            ("T2", "T4"), ("T4", "T2"), ("T1", "T3"), ("T1", "T4"),
        ]:
            assert (a, b) in keys

    def test_single_entity_yields_nothing(self, bgi):
        doc = next(d for d in bgi.documents if d.id == "PMID-10629188")
        only = bgi.sentence_entities("PMID-10629188", 0)[:1]
        assert gen_candidates(doc.sentences[0], only) == []

    def test_gere_sentence_has_thirty_pairs(self, bgi):
        assert len(_sentence_pairs(bgi, "GERE")) == 30

    def test_candidate_pairs_in_document_and_sentence_order(self):
        bb = fixtures.bb_corpus()
        expected = [
            (p.doc_id, p.sentence_index, p.first.id, p.second.id)
            for doc in bb.documents
            for sidx in range(len(doc.sentences))
            for p in _sentence_pairs(bb, doc.id, sidx)
        ]
        got = [(p.doc_id, p.sentence_index, p.first.id, p.second.id) for p in candidate_pairs(bb)]
        assert got == expected
        assert len({(doc_id, sidx) for doc_id, sidx, _, _ in got}) > 1


class TestLabelPairs:
    def _labels(self, corpus, doc_id, event_type):
        pairs = _sentence_pairs(corpus, doc_id)
        labels = label_pairs(pairs, list(corpus.events.values()), event_type)
        return {(p.first.id, p.second.id): (l.exists, l.forward) for p, l in zip(pairs, labels)}

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
                pairs = _sentence_pairs(bgi, doc.id)
                for lab in label_pairs(pairs, list(bgi.events.values()), event_type):
                    assert lab.exists >= lab.forward

    def test_conflicting_directions_rejected(self, bgi):
        pairs = _sentence_pairs(bgi, "PMID-10629188")
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
            label_pairs(pairs, events + [conflict], flipped.type)

    def test_cross_sentence_events_ignored(self):
        bb = fixtures.bb_corpus()
        pairs = _sentence_pairs(bb, "BB-2", sidx=1)  # second sentence: T4 only + nothing else
        # sentence 2 has a single entity; no pairs at all
        assert pairs == []
        # sentence 1 pairs never see the cross-sentence event T1 -> T4
        pairs = _sentence_pairs(bb, "BB-2", sidx=0)
        labels = label_pairs(pairs, list(bb.events.values()), "Lives_In")
        linked = {
            frozenset((p.first.id, p.second.id))
            for p, l in zip(pairs, labels)
            if l.exists
        }
        assert frozenset(("T1", "T4")) not in linked


def _role_models(table, seed_s, seed_t):
    return {
        "Action": vecent.new_argument_model(
            "Action", table.dim, 6, 5, rng=np.random.default_rng(seed_s)
        ),
        "Target": vecent.new_argument_model(
            "Target", table.dim, 6, 5, rng=np.random.default_rng(seed_t)
        ),
    }


class TestPairInput:
    """Both-order argument embeddings of a pair, composed in one batch."""

    ROLES = ("Action", "Target")

    def _composed(self, bgi, table, models):
        pairs = _sentence_pairs(bgi, "PMID-10629188")
        windows = vecent.build_entity_windows(bgi, 3, table)
        embeddings, rows = embed_pair_entities(pairs, models, windows)
        return pairs, embeddings, rows, compose_pairs(embeddings, rows, self.ROLES)

    def test_halves_are_twice_embedding_size(self, bgi, table):
        pairs, embeddings, rows, composed = self._composed(bgi, table, _role_models(table, 0, 1))
        assert composed.shape == (len(pairs), 10)
        assert rows.shape == (len(pairs), 2)
        assert {e.shape for e in embeddings.values()} == {(4, 5)}  # four distinct entities

    def test_half_layout_matches_role_models(self, bgi, table):
        models = _role_models(table, 2, 3)
        pairs, embeddings, rows, composed = self._composed(bgi, table, models)
        i = next(k for k, p in enumerate(pairs) if (p.first.id, p.second.id) == ("T1", "T2"))
        pair = pairs[i]
        w_first = vecent.build_context(pair.sentence, pair.first, 3, table)
        w_second = vecent.build_context(pair.sentence, pair.second, 3, table)

        def emb(role, w):
            return vecent.argument_embeddings(models[role], [w])[0]

        a, b = rows[i]
        np.testing.assert_allclose(embeddings["Action"][a], emb("Action", w_first), atol=1e-12)
        np.testing.assert_allclose(embeddings["Target"][a], emb("Target", w_first), atol=1e-12)
        np.testing.assert_allclose(embeddings["Target"][b], emb("Target", w_second), atol=1e-12)
        np.testing.assert_allclose(embeddings["Action"][b], emb("Action", w_second), atol=1e-12)
        first_half = np.concatenate([emb("Action", w_first), emb("Target", w_first)])
        second_half = np.concatenate([emb("Target", w_second), emb("Action", w_second)])
        np.testing.assert_allclose(composed[i], first_half - second_half, atol=1e-12)

    def test_deterministic(self, bgi, table):
        models = _role_models(table, 4, 5)
        _, _, rows_a, a = self._composed(bgi, table, models)
        _, _, rows_b, b = self._composed(bgi, table, models)
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


class TestEventForward:
    """The event heads through ``event_forward_batch``."""

    def test_existence_invariant_under_sign_flip(self):
        rng = np.random.default_rng(13)
        model = new_event_model(input_dim=8, hidden=4, rng=rng)
        v = rng.standard_normal(8)
        p1, _ = event_forward_batch(model, v[None, :])
        p2, _ = event_forward_batch(model, -v[None, :])
        assert p1[0] == pytest.approx(p2[0], abs=0)

    def test_zero_weight_model_gives_half_half(self):
        model = new_event_model(input_dim=8, hidden=4, rng=np.random.default_rng(14))
        for t in model.parameters().values():
            t.data[...] = 0.0
        p_exists, p_forward = event_forward_batch(model, np.ones((1, 8)))
        assert p_exists[0] == pytest.approx(0.5)
        assert p_forward[0] == pytest.approx(0.5)

    def test_direction_changes_under_sign_flip(self):
        rng = np.random.default_rng(15)
        model = new_event_model(input_dim=8, hidden=4, rng=rng)
        v = rng.standard_normal(8)
        _, f1 = event_forward_batch(model, v[None, :])
        _, f2 = event_forward_batch(model, -v[None, :])
        assert f1[0] != pytest.approx(f2[0])


def _pair_stub(doc_id, first_id, second_id):
    from bioee.corpus import Entity, Sentence

    sent = Sentence(id=f"{doc_id}-S1", span=(0, 10))
    mk = lambda tid: Entity(id=tid, label="X", span=(0, 1), doc_id=doc_id, sentence_index=0)
    return CandidatePair(doc_id=doc_id, sentence=sent, first=mk(first_id), second=mk(second_id))


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
        hyper = EventHyper(hidden=8, batch=16, epochs=10, lr=0.05)
        model, log = train_event_model(
            *_separable_pairs(), "E", hyper, rng=np.random.default_rng(0)
        )
        assert log[-1].accuracy >= 0.95

    def test_zero_epochs_returns_initialized_model(self):
        hyper = EventHyper(hidden=8, epochs=0)
        model, log = train_event_model(
            *_separable_pairs(n=20), "E", hyper, rng=np.random.default_rng(0)
        )
        assert log == []

    def test_single_class_existence_rejected(self):
        composed, exists, forward = _separable_pairs(n=40)
        keep = exists == 1
        with pytest.raises(TrainingSetupError):
            train_event_model(
                composed[keep], exists[keep], forward[keep], "E", EventHyper(),
                np.random.default_rng(0),
            )

    def test_direction_learned_on_separable_pairs(self):
        hyper = EventHyper(hidden=8, batch=16, epochs=12, lr=0.05)
        composed, exists, forward = _separable_pairs()
        model, _ = train_event_model(
            composed, exists, forward, "E", hyper, rng=np.random.default_rng(0)
        )
        _, pf = event_forward_batch(model, composed[exists == 1])
        assert np.mean((pf >= 0.5) == (forward[exists == 1] == 1)) >= 0.95


class TestDecodeEvents:
    def test_forward_bit_orients_first_to_second(self):
        pairs = [_pair_stub("D", "T1", "T2"), _pair_stub("D", "T2", "T1")]
        events = decode_events(pairs, [(1.0, 1.0), (1.0, 0.0)], "ActionTarget")
        assert len(events) == 1
        assert (events[0].source, events[0].target) == ("T1", "T2")

    def test_zero_bit_orients_second_to_first(self):
        pairs = [_pair_stub("D", "T2", "T3"), _pair_stub("D", "T3", "T2")]
        events = decode_events(pairs, [(0.9, 0.0), (0.2, 0.9)], "Interaction")
        assert len(events) == 1
        assert (events[0].source, events[0].target) == ("T3", "T2")

    def test_below_threshold_yields_nothing(self):
        pairs = [_pair_stub("D", "T1", "T2"), _pair_stub("D", "T2", "T1")]
        assert decode_events(pairs, [(0.4, 1.0), (0.3, 0.2)], "E") == []

    def test_higher_existence_ordering_wins(self):
        pairs = [_pair_stub("D", "T1", "T2"), _pair_stub("D", "T2", "T1")]
        events = decode_events(pairs, [(0.6, 0.9), (0.8, 0.9)], "E")
        assert len(events) == 1
        # (T2, T1) scored higher and its forward bit points T2 -> T1
        assert (events[0].source, events[0].target) == ("T2", "T1")


class TestGoldRoundTrip:
    def _round_trip(self, corpus):
        """Gold labels as hard predictions must decode to the gold events."""
        for doc in corpus.documents:
            for sidx, sent in enumerate(doc.sentences):
                ents = corpus.sentence_entities(doc.id, sidx)
                if len(ents) < 2:
                    continue
                pairs = gen_candidates(sent, ents)
                for event_type in corpus.task_schema.event_types:
                    labels = label_pairs(pairs, list(corpus.events.values()), event_type)
                    preds = [(float(l.exists), float(l.forward)) for l in labels]
                    decoded = {
                        (e.source, e.target)
                        for e in decode_events(pairs, preds, event_type)
                    }
                    gold = {
                        (e.source, e.target)
                        for e in corpus.events.values()
                        if e.doc_id == doc.id
                        and e.type == event_type
                        and not e.cross_sentence
                        and corpus.entity(doc.id, e.source).sentence_index == sidx
                    }
                    assert decoded == gold, (doc.id, event_type)

    def test_bgi_fixture(self, bgi):
        self._round_trip(bgi)

    def test_bb_fixture(self):
        self._round_trip(fixtures.bb_corpus())

    def test_case_study_sentence_three_events(self, bgi):
        doc = next(d for d in bgi.documents if d.id == "PMID-10629188")
        ents = bgi.sentence_entities("PMID-10629188", 0)
        pairs = gen_candidates(doc.sentences[0], ents)
        decoded = []
        for event_type in bgi.task_schema.event_types:
            labels = label_pairs(pairs, list(bgi.events.values()), event_type)
            preds = [(float(l.exists), float(l.forward)) for l in labels]
            decoded.extend(decode_events(pairs, preds, event_type))
        got = {(e.type, e.source, e.target) for e in decoded}
        assert got == {
            ("ActionTarget", "T1", "T2"),
            ("Interaction", "T3", "T2"),
            ("Interaction", "T4", "T2"),
        }


class TestBuildPairSamples:
    """The corpus-wide pair batch of one event type: pairs, composed
    features and two-bit labels, aligned by index."""

    def test_features_and_labels_align(self, bgi, table):
        rng = np.random.default_rng(0)
        arg_models = {
            role: vecent.new_argument_model(role, table.dim, 6, 5, rng=rng)
            for role in ("Action", "Target")
        }
        windows = vecent.build_entity_windows(bgi, 3, table)
        pairs = candidate_pairs(bgi)
        embeddings, rows = embed_pair_entities(pairs, arg_models, windows)
        composed = compose_pairs(embeddings, rows, bgi.task_schema.roles("ActionTarget"))
        labels = label_pairs(pairs, list(bgi.events.values()), "ActionTarget")
        positive = [p for p, l in zip(pairs, labels) if l.exists]
        assert len(positive) == 2  # both orderings of (T1, T2) in the case doc
        assert {p.doc_id for p in positive} == {"PMID-10629188"}
        assert composed.shape == (len(pairs), 10)

    def test_missing_model_is_configuration_error(self, bgi, table):
        windows = vecent.build_entity_windows(bgi, 3, table)
        pairs = candidate_pairs(bgi)
        embeddings, rows = embed_pair_entities(pairs, {}, windows)
        with pytest.raises(ConfigurationError):
            compose_pairs(embeddings, rows, bgi.task_schema.roles("ActionTarget"))


class TestTypedFilter:
    def test_keeps_only_role_labeled_pairs(self, table):
        from bioee.corpus import BB_SCHEMA, corpus_from_documents

        text = "Vibrio lives in water and mud."
        a1 = (
            "T1\tBacteria 0 6\tVibrio\n"
            "T2\tLocation 16 21\twater\n"
            "T3\tOther 26 29\tmud\n"
        )
        corpus = corpus_from_documents([("D", text, a1, "", None, None)], BB_SCHEMA)
        doc = corpus.documents[0]
        pairs = gen_candidates(doc.sentences[0], corpus.sentence_entities("D", 0))
        kept = [pairs[i] for i in typed_filter(pairs, BB_SCHEMA, "Lives_In")]
        assert {(p.first.id, p.second.id) for p in kept} == {("T1", "T2"), ("T2", "T1")}
