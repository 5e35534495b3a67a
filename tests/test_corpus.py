"""Standoff parsing, tokenization, alignment, and serialization."""

import os
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bioee.corpus import (
    BB_SCHEMA,
    BGI_SCHEMA,
    Corpus,
    Event,
    align_entities,
    corpus_from_documents,
    corpus_stats,
    list_corpus_dir,
    load_corpus_dir,
    load_schema,
    parse_standoff,
    read_corpus_files,
    split_sentences,
    tokenize,
    write_standoff,
)
from bioee.embed import EmbeddingTable
from bioee.errors import AlignmentError, IntegrityError, ParseError, SchemaError
from bioee.vecent import argument_labels, build_entity_windows
from bioee.vecom import candidate_pairs

import fixtures


class TestTokenize:
    def test_terminal_period_detaches(self):
        assert [t.text for t in tokenize("cotB and cotC.")] == ["cotB", "and", "cotC", "."]

    def test_whitespace_offsets(self):
        toks = tokenize("The expression of rsfA")
        assert [t.span for t in toks] == [(0, 3), (4, 14), (15, 17), (18, 22)]

    def test_parenthesized_gene_names_stay_whole(self):
        toks = tokenize("sigma(F) and sigma(G).")
        assert [t.text for t in toks] == ["sigma(F)", "and", "sigma(G)", "."]

    def test_glue_characters_inside_runs(self):
        assert [t.text for t in tokenize("DNA-binding PMID-10629188-S5 spo0A_1")] == [
            "DNA-binding",
            "PMID-10629188-S5",
            "spo0A_1",
        ]

    def test_edge_punctuation_detaches(self):
        assert [t.text for t in tokenize("(GerE) -35")] == ["(", "GerE", ")", "-", "35"]

    def test_empty_text(self):
        assert tokenize("") == []

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_every_token_matches_its_span(self, text):
        for tok in tokenize(text):
            s, e = tok.span
            assert text[s:e] == tok.text
            assert not any(ch.isspace() for ch in tok.text)

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_spans_disjoint_and_ordered(self, text):
        spans = [t.span for t in tokenize(text)]
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        assert all(s < e for s, e in spans)

    @given(
        st.text(alphabet=st.sampled_from(list("aZ9 \t\n()-_.,;é\u03b2\u00df")), max_size=60),
        st.integers(0, 70),
        st.integers(0, 70),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_slice_tokenizes_as_the_shifted_substring(self, text, start, end):
        shifted = [
            (t.text, (t.span[0] + start, t.span[1] + start), t.index)
            for t in tokenize(text[start:end])
        ]
        assert [(t.text, t.span, t.index) for t in tokenize(text, start, end)] == shifted


class TestSplitSentences:
    def test_two_sentences(self):
        assert split_sentences("A b. C d.") == [(0, 4), (5, 9)]

    def test_no_split_without_uppercase(self):
        assert split_sentences("A b. c d.") == [(0, 9)]

    def test_entity_guard_keeps_one_interval(self):
        text = "Grown in E. Coli cultures overnight."
        assert len(split_sentences(text)) == 2
        guarded = split_sentences(text, protected_spans=[(9, 16)])  # "E. Coli"
        assert guarded == [(0, len(text))]

    def test_gere_abstract_is_one_sentence_containing_all_entities(self):
        corpus = fixtures.bgi_corpus()
        doc = next(d for d in corpus.documents if d.id == "GERE")
        assert len(doc.sentences) == 1
        lo, hi = doc.sentences[0].span
        for ent in corpus.entities.values():
            if ent.doc_id == "GERE":
                assert lo <= ent.span[0] and ent.span[1] <= hi

    def test_mark_right_after_entity_splits(self):
        assert split_sentences("Gene cotB. Then", [(5, 9)]) == [(0, 10), (11, 15)]

    def test_digit_starts_new_sentence(self):
        assert len(split_sentences("Done already. 12 strains grew.")) == 2


class TestAlignEntities:
    def _sentence(self, corpus, doc_id, idx=0):
        doc = next(d for d in corpus.documents if d.id == doc_id)
        return doc.sentences[idx]

    def test_phrase_entity_covers_four_tokens(self):
        corpus = fixtures.bgi_corpus()
        ent = corpus.entities[Corpus.qualify("GERE", "T1")]  # "purified product of gerE"
        first, last = ent.token_span
        assert last - first + 1 == 4

    def test_single_token_entity(self):
        corpus = fixtures.bgi_corpus()
        ent = corpus.entities[Corpus.qualify("GERE", "T4")]  # "promoters"
        first, last = ent.token_span
        assert first == last

    def test_partial_token_takes_whole_token_with_flag(self):
        text = "The cotB gene."
        a1 = "T1\tGene 4 7\tcot\n"  # "cot" inside "cotB"
        doc, entities, _ = parse_standoff(text, a1, "", BGI_SCHEMA, doc_id="d")
        ent = entities["T1"]
        assert ent.partial_tokens
        first, last = ent.token_span
        tok = doc.sentences[0].tokens[first]
        assert tok.text == "cotB" and first == last

    def test_span_outside_sentence_raises(self):
        corpus = fixtures.bgi_corpus()
        sent = self._sentence(corpus, "GERE")
        bad = corpus.entities[Corpus.qualify("GERE", "T4")]
        bad = type(bad)(id="TX", label="Gene", span=(sent.span[1] + 1, sent.span[1] + 4))
        with pytest.raises(AlignmentError):
            align_entities(sent, [bad])


class TestParseStandoff:
    def test_gere_sentence_counts(self):
        _, text, a1, a2 = fixtures.gere_document()
        doc, entities, events = parse_standoff(text, a1, a2, BGI_SCHEMA, doc_id="GERE")
        assert len(entities) == 6
        assert len(events) == 4

    def test_empty_event_file(self):
        _, text, a1, _ = fixtures.gere_document()
        _, entities, events = parse_standoff(text, a1, "", BGI_SCHEMA, doc_id="GERE")
        assert len(entities) == 6 and events == {}

    def test_dangling_reference_names_the_entity(self):
        text = "Bacteria live in soil."
        a1 = "T2\tHabitat 17 21\tsoil\n"
        bad = "R1\tLives_In Bacteria:T9 Location:T2\n"
        with pytest.raises(IntegrityError, match="T9"):
            parse_standoff(text, a1, bad, BB_SCHEMA)

    def test_malformed_entity_line_reports_line_number(self):
        text = "Bacteria live in soil."
        with pytest.raises(ParseError, match="line 2"):
            parse_standoff(text, "T1\tHabitat 17 21\tsoil\nT2 broken\n", "", BB_SCHEMA)

    def test_surface_mismatch_is_alignment_error(self):
        text = "Bacteria live in soil."
        with pytest.raises(AlignmentError):
            parse_standoff(text, "T1\tHabitat 17 21\tmud\n", "", BB_SCHEMA)

    def test_unknown_event_type_is_schema_error(self):
        text = "Bacteria live in soil."
        a1 = "T1\tBacteria 0 8\tBacteria\nT2\tHabitat 17 21\tsoil\n"
        with pytest.raises(SchemaError, match="Eats"):
            parse_standoff(text, a1, "R1\tEats Bacteria:T1 Location:T2\n", BB_SCHEMA)

    def test_roles_accepted_in_either_order(self):
        text = "Bacteria live in soil."
        a1 = "T1\tBacteria 0 8\tBacteria\nT2\tHabitat 17 21\tsoil\n"
        _, _, ev1 = parse_standoff(text, a1, "R1\tLives_In Bacteria:T1 Location:T2\n", BB_SCHEMA)
        _, _, ev2 = parse_standoff(text, a1, "R1\tLives_In Location:T2 Bacteria:T1\n", BB_SCHEMA)
        assert ev1["R1"].source == ev2["R1"].source == "T1"
        assert ev1["R1"].target == ev2["R1"].target == "T2"

    def test_event_prefix_line_form(self):
        text = "Bacteria live in soil."
        a1 = "T1\tBacteria 0 8\tBacteria\nT2\tHabitat 17 21\tsoil\n"
        _, _, events = parse_standoff(text, a1, "E1\tLives_In Bacteria:T1 Location:T2\n", BB_SCHEMA)
        assert events["E1"].type == "Lives_In"

    def test_self_link_rejected(self):
        text = "Bacteria live in soil."
        a1 = "T1\tBacteria 0 8\tBacteria\n"
        with pytest.raises(IntegrityError):
            parse_standoff(text, a1, "R1\tLives_In Bacteria:T1 Location:T1\n", BB_SCHEMA)

    def test_duplicate_entity_id_rejected(self):
        text = "Bacteria live in soil."
        a1 = "T1\tBacteria 0 8\tBacteria\nT1\tHabitat 17 21\tsoil\n"
        with pytest.raises(IntegrityError):
            parse_standoff(text, a1, "", BB_SCHEMA)

    def test_discontinuous_entity_takes_covering_hull(self):
        corpus = fixtures.bb_corpus()
        ent = corpus.entities[Corpus.qualify("BB-2", "T3")]
        assert ent.discontinuous
        doc = next(d for d in corpus.documents if d.id == "BB-2")
        assert "dairy" in doc.text[ent.span[0] : ent.span[1]]
        assert "products" in doc.text[ent.span[0] : ent.span[1]]

    def test_cross_sentence_event_flagged(self):
        corpus = fixtures.bb_corpus()
        assert corpus.events[Corpus.qualify("BB-2", "R2")].cross_sentence
        assert not corpus.events[Corpus.qualify("BB-2", "R1")].cross_sentence


# The sentence splitting and entity placement of parse_standoff as they were
# before they became sweeps: a scan of every protected span per punctuation
# mark, of every sentence per entity, and of every token per entity. The
# tests below hold the sweeps to them.


def _split_sentences_scan(text, protected_spans):
    protected = sorted(protected_spans)
    n = len(text)
    cuts = []
    for i, ch in enumerate(text):
        if ch not in ".!?":
            continue
        if any(s <= i < e for s, e in protected):
            continue
        j = i + 1
        if j >= n or not text[j].isspace():
            continue
        while j < n and text[j].isspace():
            j += 1
        if j < n and (text[j].isupper() or text[j].isdigit()):
            cuts.append(i + 1)
    intervals = []
    start = 0
    for cut in cuts + [n]:
        s, e = start, cut
        while s < e and text[s].isspace():
            s += 1
        while e > s and text[e - 1].isspace():
            e -= 1
        if e > s:
            intervals.append((s, e))
        start = cut
    return intervals


def _place_entities_scan(text, spans):
    """(sentence intervals, id -> (sentence_index, token_span,
    partial_tokens)), or the AlignmentError message."""
    intervals = _split_sentences_scan(text, spans)
    sentences = [
        [(t.span[0] + s, t.span[1] + s, t.index) for t in tokenize(text[s:e])]
        for s, e in intervals
    ]
    home = {}
    for n, (s, e) in enumerate(spans, start=1):
        for idx, (ss, se) in enumerate(intervals):
            if s >= ss and e <= se:
                home[f"T{n}"] = idx
                break
        else:
            return f"entity T{n} span {(s, e)} lies in no sentence of doc"
    placed = {}
    for idx, tokens in enumerate(sentences):
        for n, (s, e) in enumerate(spans, start=1):
            if home[f"T{n}"] != idx:
                continue
            covering = [t for t in tokens if t[0] < e and t[1] > s]
            if not covering:
                return f"entity T{n} span {(s, e)} covers no token"
            partial = covering[0][0] < s or covering[-1][1] > e
            placed[f"T{n}"] = (idx, (covering[0][2], covering[-1][2]), partial)
    return intervals, placed


_PIECES = ["ab", "Ab", "B", "1", "a.b", ".", "!", "?", " ", "\n", "(", ")", "-", ". B", "? 1", "!\nAb"]


@st.composite
def _texts_and_spans(draw):
    """A text of word-like pieces, and entity spans that mostly start and
    end at piece boundaries, so they often end right before a mark."""
    pieces = draw(st.lists(st.sampled_from(_PIECES), max_size=40))
    text = "".join(pieces)
    bounds = sorted({0, *(len("".join(pieces[:k])) for k in range(1, len(pieces) + 1))})
    offsets = st.sampled_from(bounds) | st.integers(0, len(text))
    spans = []
    for _ in range(draw(st.integers(0, 8)) if text else 0):
        s, e = sorted((draw(offsets), draw(offsets)))
        if s < e and "\n" not in text[s:e]:  # a surface holds no line break
            spans.append((s, e))
    return text, spans


class TestSweepsMatchScans:
    @given(_texts_and_spans(), st.lists(st.tuples(st.integers(-3, 90), st.integers(-3, 90))))
    @settings(max_examples=300, deadline=None)
    def test_split_sentences(self, doc, extra_spans):
        text, spans = doc
        protected = spans + extra_spans  # overlapping, empty and out-of-range spans too
        assert split_sentences(text, protected) == _split_sentences_scan(text, protected)

    @given(_texts_and_spans())
    @settings(max_examples=300, deadline=None)
    def test_parse_standoff_places_entities(self, doc):
        text, spans = doc
        a1 = "".join(f"T{n}\tGene {s} {e}\t{text[s:e]}\n" for n, (s, e) in enumerate(spans, 1))
        expected = _place_entities_scan(text, spans)
        if isinstance(expected, str):
            with pytest.raises(AlignmentError) as err:
                parse_standoff(text, a1, "", BB_SCHEMA)
            assert str(err.value) == expected
            return
        parsed, entities, _ = parse_standoff(text, a1, "", BB_SCHEMA)
        assert [sent.span for sent in parsed.sentences] == expected[0]
        assert {
            tid: (e.sentence_index, e.token_span, e.partial_tokens) for tid, e in entities.items()
        } == expected[1]


# The entity grouping of the corpus before sentences held their entities: one
# list per (document, sentence index), sorted by span, then id, and the
# one-vs-all argument samples over the sorted qualified ids. The tests below
# hold Sentence.entities, the candidate pairs built from them and
# argument_labels to it.


def _group_entities_scan(corpus):
    groups = {}
    for e in corpus.entities.values():
        groups.setdefault((e.doc_id, e.sentence_index), []).append(e)
    for out in groups.values():
        out.sort(key=lambda e: (e.span, e.id))
    return groups


def _candidate_pairs_scan(corpus):
    groups = _group_entities_scan(corpus)
    pairs = []
    for doc in corpus.documents:
        for sidx in range(len(doc.sentences)):
            ents = groups.get((doc.id, sidx), [])
            pairs.extend((doc.id, sidx, a.id, b.id) for a in ents for b in ents if a is not b)
    return pairs


def _one_vs_all_scan(corpus, arg_type, windows):
    roles = corpus.argument_roles()
    return [(qid, 1 if arg_type in roles.get(qid, ()) else 0) for qid in sorted(windows)]


@st.composite
def _documents(draw):
    """One to three parseable documents whose entity lines list their spans
    in a shuffled order under ids drawn from T1..T30, some spans twice, so
    file order, id order and span order all differ."""
    docs = []
    for n in range(draw(st.integers(1, 3))):
        text, spans = draw(_texts_and_spans())
        if spans:
            twice = draw(st.lists(st.sampled_from(spans), max_size=4))
            spans = draw(st.permutations(spans + twice))
        ids = draw(st.lists(st.integers(1, 30), min_size=len(spans), max_size=len(spans),
                            unique=True))
        a1 = "".join(f"T{i}\tGene {s} {e}\t{text[s:e]}\n" for i, (s, e) in zip(ids, spans))
        try:
            parse_standoff(text, a1, "", BB_SCHEMA)
        except AlignmentError:
            assume(False)
        docs.append((f"d{n}", text, a1, "", None, None))
    return docs


class TestGroupingMatchesIndex:
    @given(_documents())
    @settings(max_examples=300, deadline=None)
    def test_sentence_entities_and_candidate_pairs(self, docs):
        corpus = corpus_from_documents(docs, BB_SCHEMA)
        groups = _group_entities_scan(corpus)
        for doc in corpus.documents:
            for idx, sent in enumerate(doc.sentences):
                expected = groups.pop((doc.id, idx), [])
                assert [e.id for e in sent.entities] == [e.id for e in expected]
                assert all(a is b for a, b in zip(sent.entities, expected))
        assert groups == {}  # no entity outside a sentence
        entities, pairs = candidate_pairs(corpus)
        got = [(entities[a].doc_id, entities[a].sentence_index, entities[a].id, entities[b].id)
               for a, b in pairs.tolist()]
        assert got == _candidate_pairs_scan(corpus)

    def test_argument_labels_match_one_vs_all_samples(self):
        for corpus in (fixtures.bgi_corpus(), fixtures.bb_corpus()):
            windows = build_entity_windows(corpus, 3, EmbeddingTable(4, seed=0))
            qids = sorted(windows)
            labels = argument_labels(corpus, qids)
            assert list(labels) == corpus.task_schema.argument_types
            for role, y in labels.items():
                assert list(zip(qids, y.tolist())) == _one_vs_all_scan(corpus, role, windows)


class TestWriteStandoff:
    def test_lives_in_line(self):
        line = write_standoff(
            [Event(id="", type="Lives_In", source="T3", target="T5")], BB_SCHEMA
        )
        assert line == "R1\tLives_In Bacteria:T3 Location:T5\n"

    def test_empty_list(self):
        assert write_standoff([], BB_SCHEMA) == ""

    def test_two_action_target_events(self):
        out = write_standoff(
            [
                Event(id="", type="ActionTarget", source="T1", target="T2"),
                Event(id="", type="ActionTarget", source="T3", target="T4"),
            ],
            BGI_SCHEMA,
        )
        assert out.splitlines() == [
            "R1\tActionTarget Action:T1 Target:T2",
            "R2\tActionTarget Action:T3 Target:T4",
        ]

    def test_unknown_type_is_schema_error(self):
        with pytest.raises(SchemaError):
            write_standoff([Event(id="", type="Nope", source="T1", target="T2")], BB_SCHEMA)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(BGI_SCHEMA.events)),
                st.sampled_from(["T1", "T2", "T3", "T4", "T5", "T6"]),
                st.sampled_from(["T1", "T2", "T3", "T4", "T5", "T6"]),
            ).filter(lambda t: t[1] != t[2]),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_reproduces_typed_edges(self, triples):
        _, text, a1, _ = fixtures.gere_document()
        events = [Event(id="", type=t, source=s, target=g) for t, s, g in triples]
        emitted = write_standoff(events, BGI_SCHEMA)
        _, _, parsed = parse_standoff(text, a1, emitted, BGI_SCHEMA, doc_id="GERE")
        got = [(e.type, e.source, e.target) for e in parsed.values()]
        assert sorted(got) == sorted((t, s, g) for t, s, g in triples)


class TestCorpusAssembly:
    def test_every_token_matches_document_text(self):
        for corpus in (fixtures.bgi_corpus(), fixtures.bb_corpus()):
            for doc in corpus.documents:
                for sent in doc.sentences:
                    for tok in sent.tokens:
                        assert doc.text[tok.span[0] : tok.span[1]] == tok.text

    def test_entity_token_coverage(self):
        corpus = fixtures.bgi_corpus()
        for doc in corpus.documents:
            for ent in (e for s in doc.sentences for e in s.entities):
                sent = doc.sentences[ent.sentence_index]
                first, last = ent.token_span
                assert sent.tokens[first].span[0] <= ent.span[0]
                assert sent.tokens[last].span[1] >= ent.span[1]

    def test_entity_index_matches_scan(self):
        for corpus in (fixtures.bgi_corpus(), fixtures.bb_corpus()):
            entities = list(corpus.entities.values())
            for doc in corpus.documents:
                scan = sorted((e for e in entities if e.doc_id == doc.id), key=lambda e: e.span)
                in_doc = [e for sent in doc.sentences for e in sent.entities]
                assert [e.id for e in in_doc] == [e.id for e in scan]
                for idx, sent in enumerate(doc.sentences):
                    scan = sorted(
                        (e for e in entities if e.doc_id == doc.id and e.sentence_index == idx),
                        key=lambda e: (e.span, e.id),
                    )
                    assert [e.id for e in sent.entities] == [e.id for e in scan]

    def test_stats_shape(self):
        stats = corpus_stats(fixtures.bgi_corpus())
        assert stats["events"]["PromoterOf"] == 2
        assert stats["events"]["Interaction"] == 4
        assert stats["arguments"]["Target"] == 4  # distinct entities in Target role
        assert set(stats["arguments"]) == set(BGI_SCHEMA.argument_types)

    def test_load_corpus_dir(self, tmp_path):
        fixtures.write_corpus_dir(tmp_path / "bb", fixtures.bb_documents())
        corpus = load_corpus_dir(tmp_path / "bb", BB_SCHEMA)
        assert len(corpus.documents) == 3
        assert corpus_stats(corpus)["events"]["Lives_In"] == 5

    def test_listing_reads_nothing_and_follows_doc_ids(self, tmp_path):
        # "a-b.txt" sorts before "a.txt", but doc id "a" before "a-b".
        for doc_id in ("a-b", "a"):
            (tmp_path / f"{doc_id}.txt").write_text("Bacteria live in soil.", encoding="utf-8")
            (tmp_path / f"{doc_id}.a1").write_text("T1\tBacteria 0 8\tBacteria\n", encoding="utf-8")
        (tmp_path / "a.a2").write_bytes(b"\xff not UTF-8")
        files = list_corpus_dir(tmp_path)
        assert [(f[0], f[3]) for f in files] == [("a", tmp_path / "a.a2"), ("a-b", None)]
        with pytest.raises(ParseError, match="not UTF-8") as err:
            read_corpus_files(files, BB_SCHEMA)
        assert err.value.file == str(tmp_path / "a.a2")
        (tmp_path / "a.a2").unlink()
        corpus = read_corpus_files(list_corpus_dir(tmp_path), BB_SCHEMA)
        assert [doc.id for doc in corpus.documents] == ["a", "a-b"]

    def test_missing_entity_file(self, tmp_path):
        (tmp_path / "d.txt").write_text("Some text.", encoding="utf-8")
        with pytest.raises(ParseError, match="a1"):
            load_corpus_dir(tmp_path, BB_SCHEMA)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(ParseError):
            load_corpus_dir(tmp_path, BB_SCHEMA)

    def test_missing_a2_means_no_events(self, tmp_path):
        (tmp_path / "d.txt").write_text("Bacteria live in soil.", encoding="utf-8")
        (tmp_path / "d.a1").write_text("T1\tBacteria 0 8\tBacteria\n", encoding="utf-8")
        corpus = load_corpus_dir(tmp_path, BB_SCHEMA)
        assert corpus.events == {}

    def test_one_directory_listing_and_no_existence_check(self, tmp_path, monkeypatch):
        fixtures.write_corpus_dir(tmp_path / "bb", fixtures.bb_documents())
        (tmp_path / "bb" / "BB-1.a2").unlink()  # one document without events
        checked, listed = [], []
        exists, scandir = Path.exists, os.scandir
        monkeypatch.setattr(Path, "exists", lambda path: checked.append(path.name) or exists(path))
        monkeypatch.setattr(os, "scandir", lambda path: listed.append(path) or scandir(path))
        corpus = load_corpus_dir(tmp_path / "bb", BB_SCHEMA)
        assert [doc.id for doc in corpus.documents] == ["BB-1", "BB-2", "BB-3"]
        assert not any(ev.doc_id == "BB-1" for ev in corpus.events.values())
        assert (checked, listed) == ([], [tmp_path / "bb"])

    def test_dangling_links_are_missing_files(self, tmp_path):
        (tmp_path / "d.txt").write_text("Bacteria live in soil.", encoding="utf-8")
        (tmp_path / "d.a1").symlink_to(tmp_path / "gone.a1")
        with pytest.raises(ParseError, match="missing entity file"):
            list_corpus_dir(tmp_path)
        (tmp_path / "d.a1").unlink()
        (tmp_path / "d.a1").write_text("T1\tBacteria 0 8\tBacteria\n", encoding="utf-8")
        (tmp_path / "d.a2").symlink_to(tmp_path / "gone.a2")
        assert list_corpus_dir(tmp_path)[0][3] is None

    def test_a_missing_directory_holds_no_documents(self, tmp_path):
        with pytest.raises(ParseError, match="no .txt documents"):
            list_corpus_dir(tmp_path / "absent")


class TestSchema:
    def test_builtin_names(self):
        assert load_schema("bb") is BB_SCHEMA
        assert load_schema("BGI") is BGI_SCHEMA

    def test_json_schema_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"name": "toy", "events": {"Binds": ["Head", "Tail"]}}')
        schema = load_schema(path)
        assert schema.roles("Binds") == ("Head", "Tail")
        assert schema.argument_types == ["Head", "Tail"]

    def test_unknown_schema(self):
        with pytest.raises(SchemaError):
            load_schema("not-a-task")
