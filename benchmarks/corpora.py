"""Seeded benchmark corpora built from the package's synthetic generator.

Sentences come from ``bioee.synth.generate_documents``. Each corpus draws a
fixed number of sentences of each planted kind (two entities with an event,
three entities with an event, two entities without one), so every seed gives
the same amount of model work and only the words change. That keeps timings
comparable across seeds.

Two layouts are written: one document per sentence, and abstract-sized
documents that join several sentences. In the second layout each sentence
starts with a capital letter so that ``split_sentences`` cuts between them;
entity offsets are shifted and the T/R ids renumbered per document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from bioee import synth
from bioee.corpus import load_corpus_dir, load_schema

# Share of each sentence kind, as ``synth`` draws them.
KIND_SHARES = {"pos3": 0.15, "neg": 0.30}


@dataclass
class Sentence:
    text: str
    entities: list[tuple[str, int, int, str]]  # (label, start, end, surface)
    events: list[tuple[str, str, int, str, int]]  # (type, src role, src idx, tgt role, tgt idx)


@dataclass
class CorpusSpec:
    """What the benchmark wrote, kept to check the program's outputs."""

    directory: Path
    schema_path: Path
    # doc id -> entity count of each of its sentences, in order
    sentence_entities: dict[str, list[int]] = field(default_factory=dict)
    # (doc id, event type, source id, target id)
    gold: set[tuple[str, str, str, str]] = field(default_factory=set)

    @property
    def n_sentences(self) -> int:
        return sum(len(v) for v in self.sentence_entities.values())


def _parse_sentence(text: str, a1: str, a2: str) -> Sentence:
    ids = {}
    entities = []
    for line in a1.splitlines():
        tid, spec, surface = line.split("\t")
        label, start, end = spec.split()
        ids[tid] = len(entities)
        entities.append((label, int(start), int(end), surface))
    events = []
    for line in a2.splitlines():
        _, spec = line.split("\t")
        etype, src, tgt = spec.split()
        (src_role, src_id), (tgt_role, tgt_id) = src.split(":"), tgt.split(":")
        events.append((etype, src_role, ids[src_id], tgt_role, ids[tgt_id]))
    return Sentence(text, entities, events)


def _kind(sentence: Sentence) -> str:
    if len(sentence.entities) == 3:
        return "pos3"
    return "pos" if sentence.events else "neg"


def draw_sentences(n: int, seed: int) -> list[Sentence]:
    """n synthetic sentences with a fixed kind composition, content from seed."""
    quota = {kind: round(share * n) for kind, share in KIND_SHARES.items()}
    quota["pos"] = n - sum(quota.values())
    pool = synth.generate_documents(4 * n + 40, seed=seed)
    picked = []
    for _, text, a1, a2 in pool:
        sentence = _parse_sentence(text, a1, a2)
        kind = _kind(sentence)
        if quota[kind] > 0:
            quota[kind] -= 1
            picked.append(sentence)
    if any(quota.values()):
        raise RuntimeError(f"synthetic pool too small for the kind quota: left {quota}")
    return picked


def _schema_json() -> str:
    schema = synth.SYNTH_SCHEMA
    return json.dumps({"name": schema.name, "events": {k: list(v) for k, v in schema.events.items()}})


def _capitalised(sentence: Sentence) -> Sentence:
    text = sentence.text[:1].upper() + sentence.text[1:]
    entities = [
        (label, s, e, text[s:e] if s == 0 else surface) for label, s, e, surface in sentence.entities
    ]
    return Sentence(text, entities, sentence.events)


def write_corpus(directory: Path, sentences: list[Sentence], per_doc: int, prefix: str) -> CorpusSpec:
    """Write ``per_doc`` sentences per document and return what was written."""
    directory.mkdir(parents=True, exist_ok=True)
    spec = CorpusSpec(directory=directory, schema_path=directory / "schema.json")
    spec.schema_path.write_text(_schema_json() + "\n", encoding="utf-8")
    for d, first in enumerate(range(0, len(sentences), per_doc)):
        doc_id = f"{prefix}{d:05d}"
        group = sentences[first : first + per_doc]
        if per_doc > 1:
            group = [_capitalised(s) for s in group]
        texts, a1, a2, counts = [], [], [], []
        shift = 0
        for sentence in group:
            base = sum(counts)
            for n, (label, s, e, surface) in enumerate(sentence.entities, start=base + 1):
                a1.append(f"T{n}\t{label} {s + shift} {e + shift}\t{surface}")
            for etype, src_role, src, tgt_role, tgt in sentence.events:
                source, target = f"T{base + src + 1}", f"T{base + tgt + 1}"
                a2.append(f"R{len(a2) + 1}\t{etype} {src_role}:{source} {tgt_role}:{target}")
                spec.gold.add((doc_id, etype, source, target))
            counts.append(len(sentence.entities))
            texts.append(sentence.text)
            shift += len(sentence.text) + 1
        (directory / f"{doc_id}.txt").write_text(" ".join(texts), encoding="utf-8")
        (directory / f"{doc_id}.a1").write_text("".join(x + "\n" for x in a1), encoding="utf-8")
        (directory / f"{doc_id}.a2").write_text("".join(x + "\n" for x in a2), encoding="utf-8")
        spec.sentence_entities[doc_id] = counts
    return spec


def validate(spec: CorpusSpec) -> list[str]:
    """Load the written corpus with the package and compare it to the spec."""
    corpus = load_corpus_dir(spec.directory, load_schema(spec.schema_path))
    problems = []
    for doc in corpus.documents:
        want = spec.sentence_entities.get(doc.id)
        if want is None or len(doc.sentences) != len(want):
            problems.append(f"{doc.id}: {len(doc.sentences)} sentences, generated {want}")
    n_loaded = sum(len(doc.sentences) for doc in corpus.documents)
    if n_loaded != spec.n_sentences:
        problems.append(f"loaded {n_loaded} sentences, generated {spec.n_sentences}")
    crossing = [qid for qid, ev in corpus.events.items() if ev.cross_sentence]
    if crossing:
        problems.append(f"gold events cross a sentence: {crossing[:5]}")
    return problems
