"""Standoff corpus ingestion: parsing, tokenization, alignment, serialization.

A corpus directory holds one ``<doc>.txt`` (raw UTF-8 text), one ``<doc>.a1``
(entity lines ``Tn<TAB>Label Start End<TAB>Surface``) and optionally one
``<doc>.a2`` (relation lines ``Rn<TAB>Type Role1:Tx Role2:Ty``; an ``En``
prefix is accepted with the same grammar) per document.
"""

from __future__ import annotations

import bisect
import json
import logging
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AlignmentError, IntegrityError, ParseError, SchemaError

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Task schema


@dataclass(frozen=True)
class TaskSchema:
    """Event type -> (source role, target role) for one extraction task."""

    name: str
    events: dict[str, tuple[str, str]]

    @property
    def event_types(self) -> list[str]:
        return sorted(self.events)

    @property
    def argument_types(self) -> list[str]:
        roles = set()
        for src, tgt in self.events.values():
            roles.add(src)
            roles.add(tgt)
        return sorted(roles)

    def roles(self, event_type: str) -> tuple[str, str]:
        try:
            return self.events[event_type]
        except KeyError:
            raise SchemaError(f"unknown event type {event_type!r} in task {self.name!r}") from None


BGI_SCHEMA = TaskSchema(
    "bgi",
    {
        "ActionTarget": ("Action", "Target"),
        "Interaction": ("Agent", "Target"),
        "PromoterDependence": ("Promoter", "Protein"),
        "PromoterOf": ("Promoter", "Gene"),
        "RegulonDependence": ("Regulon", "Target"),
        "RegulonMember": ("Regulon", "Member"),
        "SiteOf": ("Site", "Entity"),
        "TranscriptionBy": ("Transcription", "Agent"),
        "TranscriptionFrom": ("Transcription", "Site"),
    },
)

BB_SCHEMA = TaskSchema("bb", {"Lives_In": ("Bacteria", "Location")})

_BUILTIN_SCHEMAS = {"bgi": BGI_SCHEMA, "bb": BB_SCHEMA}


def load_schema(source: str | Path) -> TaskSchema:
    """Resolve a builtin schema name or load one from a JSON file.

    The file format is ``{"name": ..., "events": {type: [source_role,
    target_role], ...}}``.
    """
    key = str(source).lower()
    if key in _BUILTIN_SCHEMAS:
        return _BUILTIN_SCHEMAS[key]
    path = Path(source)
    if not path.exists():
        raise SchemaError(f"no builtin schema or schema file named {source!r}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise SchemaError(f"schema file {source} is not JSON ({exc})") from None
    declared = raw.get("events", {}) if isinstance(raw, dict) else None
    if not isinstance(declared, dict):
        raise SchemaError(f"schema file {source} is not an object with an 'events' object")
    events = {}
    for etype, roles in declared.items():
        if not isinstance(roles, list) or len(roles) != 2:
            raise SchemaError(
                f"schema file {source}: event {etype!r} must declare exactly [source, target] roles"
            )
        events[etype] = (str(roles[0]), str(roles[1]))
    if not events:
        raise SchemaError(f"schema file {source} declares no event types")
    return TaskSchema(raw.get("name", path.stem), events)


# ---------------------------------------------------------------------------
# Domain types


@dataclass
class Token:
    text: str
    span: tuple[int, int]  # document character offsets, half-open
    index: int  # position within the sentence


@dataclass
class Sentence:
    id: str
    span: tuple[int, int]
    tokens: list[Token] = field(default_factory=list)
    entities: list[Entity] = field(default_factory=list)  # by span, then id


@dataclass
class Document:
    id: str
    text: str
    sentences: list[Sentence] = field(default_factory=list)


@dataclass
class Entity:
    id: str  # T-prefixed, local to the document
    label: str  # type declared in the entity file
    span: tuple[int, int]  # covering hull for discontinuous annotations
    doc_id: str = ""
    sentence_index: int = -1
    token_span: tuple[int, int] | None = None  # inclusive token index range
    text: str = ""
    discontinuous: bool = False
    partial_tokens: bool = False  # span cuts a token; covering tokens kept


@dataclass
class Event:
    id: str  # R- or E-prefixed, local to the document
    type: str
    source: str  # entity id
    target: str  # entity id
    doc_id: str = ""
    cross_sentence: bool = False


@dataclass
class Corpus:
    task_schema: TaskSchema
    documents: list[Document] = field(default_factory=list)
    entities: dict[str, Entity] = field(default_factory=dict)  # "doc/T1" -> Entity
    events: dict[str, Event] = field(default_factory=dict)  # "doc/R1" -> Event

    @staticmethod
    def qualify(doc_id: str, local_id: str) -> str:
        return f"{doc_id}/{local_id}"

    def argument_roles(self) -> dict[str, set[str]]:
        """Qualified entity id -> set of roles it plays in gold events."""
        roles: dict[str, set[str]] = {}
        for ev in self.events.values():
            src_role, tgt_role = self.task_schema.roles(ev.type)
            roles.setdefault(self.qualify(ev.doc_id, ev.source), set()).add(src_role)
            roles.setdefault(self.qualify(ev.doc_id, ev.target), set()).add(tgt_role)
        return roles


# ---------------------------------------------------------------------------
# Tokenization

_GLUE_CHARS = frozenset("()-_.")
_RUN = re.compile(r"\S+")  # a whitespace-free run


def _split_run(run: str, base: int) -> list[tuple[int, int]]:
    """Split one whitespace-free run into token spans (offsets into run+base)."""
    parts: list[tuple[int, int]] = []
    cur = -1  # start of the token under construction, -1 if none
    n = len(run)
    for i, ch in enumerate(run):
        if ch.isalnum():
            if cur < 0:
                cur = i
            continue
        if ch in _GLUE_CHARS and cur >= 0:
            nxt = run[i + 1] if i + 1 < n else ""
            if nxt.isalnum():
                continue  # internal separator: sigma(F, DNA-binding, PMID-10629188
            if ch == ")" and run.count("(", cur, i) > run.count(")", cur, i):
                continue  # closes a parenthesis opened inside this token
        if cur >= 0:
            parts.append((cur + base, i + base))
            cur = -1
        parts.append((i + base, i + 1 + base))
    if cur >= 0:
        parts.append((cur + base, n + base))
    return parts


def tokenize(text: str, start: int = 0, end: int | None = None) -> list[Token]:
    """Split ``text[start:end]`` into tokens whose spans are offsets into
    ``text``, indexed from 0.

    Whitespace always separates; within a run, punctuation detaches except
    for ``( ) - _ .`` kept inside alphanumeric material, preserving surface
    forms like ``sigma(F)`` and ``PMID-10629188-S5``.
    """
    tokens: list[Token] = []
    for m in _RUN.finditer(text, start, len(text) if end is None else end):
        for s, e in _split_run(m.group(), m.start()):
            tokens.append(Token(text=text[s:e], span=(s, e), index=len(tokens)))
    return tokens


# ---------------------------------------------------------------------------
# Sentence splitting

_SENT_PUNCT = re.compile(r"[.!?]")


def split_sentences(
    text: str, protected_spans: list[tuple[int, int]] | None = None
) -> list[tuple[int, int]]:
    """Character intervals of sentences.

    Splits after ``. ! ?`` followed by whitespace and an uppercase letter or
    digit, but never inside any protected (entity) span.
    """
    # One sweep: the marks come in text order, the spans by start, and a
    # mark is protected iff a span started at or before it ends after it.
    protected = sorted(protected_spans or [])
    next_span, reach = 0, -1
    n = len(text)
    cuts = []
    for mark in _SENT_PUNCT.finditer(text):
        i = mark.start()
        while next_span < len(protected) and protected[next_span][0] <= i:
            reach = max(reach, protected[next_span][1])
            next_span += 1
        if i < reach:
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


# ---------------------------------------------------------------------------
# Entity/token alignment


def align_entities(sentence: Sentence, entities: list[Entity]) -> None:
    """Fill token_span with the minimal inclusive token range covering each span."""
    # Tokens are disjoint and in text order, so both their starts and their
    # ends ascend, and the tokens covering [s, e) are one bisected slice.
    starts = [t.span[0] for t in sentence.tokens]
    ends = [t.span[1] for t in sentence.tokens]
    for ent in entities:
        s, e = ent.span
        if s < sentence.span[0] or e > sentence.span[1]:
            raise AlignmentError(
                f"entity {ent.id} span {ent.span} crosses sentence {sentence.id} "
                f"bounds {sentence.span}"
            )
        covering = sentence.tokens[bisect.bisect_right(ends, s) : bisect.bisect_left(starts, e)]
        if not covering:
            raise AlignmentError(f"entity {ent.id} span {ent.span} covers no token")
        ent.token_span = (covering[0].index, covering[-1].index)
        if covering[0].span[0] < s or covering[-1].span[1] > e:
            ent.partial_tokens = True


# ---------------------------------------------------------------------------
# Standoff parsing

_ENTITY_ID_RE = re.compile(r"^T\d+$")
_EVENT_ID_RE = re.compile(r"^[RE]\d+$")


def _parse_entity_line(line: str, lineno: int, text: str, file=None) -> Entity:
    cols = line.rstrip("\n").split("\t")
    if len(cols) != 3:
        raise ParseError(
            f"entity line must have 3 tab-separated columns, got {len(cols)}",
            file=file,
            line=lineno,
        )
    tid, spec, surface = cols
    if not _ENTITY_ID_RE.match(tid):
        raise ParseError(f"bad entity id {tid!r}", file=file, line=lineno)
    head = spec.split(" ", 1)
    if len(head) != 2:
        raise ParseError(f"bad entity annotation {spec!r}", file=file, line=lineno)
    label, offsets = head
    fragments = []
    for frag in offsets.split(";"):
        nums = frag.split()
        if len(nums) != 2 or not all(p.lstrip("-").isdigit() for p in nums):
            raise ParseError(f"bad offset fragment {frag!r}", file=file, line=lineno)
        start, end = int(nums[0]), int(nums[1])
        if not (0 <= start < end <= len(text)):
            raise ParseError(
                f"offsets {start}..{end} outside text of length {len(text)}",
                file=file,
                line=lineno,
            )
        fragments.append((start, end))
    fragments.sort()
    joined = " ".join(text[s:e] for s, e in fragments)
    hull = (fragments[0][0], fragments[-1][1])
    if joined != surface and text[hull[0] : hull[1]] != surface:
        raise AlignmentError(
            f"{tid}: surface {surface!r} does not match text {joined!r} at {offsets}"
        )
    return Entity(
        id=tid,
        label=label,
        span=hull,
        text=surface,
        discontinuous=len(fragments) > 1,
    )


def _parse_event_line(
    line: str, lineno: int, entities: dict[str, Entity], schema: TaskSchema, file=None
) -> Event:
    cols = line.rstrip("\n").split("\t")
    if len(cols) != 2:
        raise ParseError(
            f"event line must have 2 tab-separated columns, got {len(cols)}",
            file=file,
            line=lineno,
        )
    eid, spec = cols
    if not _EVENT_ID_RE.match(eid):
        raise ParseError(f"bad event id {eid!r}", file=file, line=lineno)
    fields = spec.split()
    if len(fields) != 3:
        raise ParseError(
            f"event annotation must be 'Type Role1:Tx Role2:Ty', got {spec!r}",
            file=file,
            line=lineno,
        )
    etype = fields[0]
    if etype not in schema.events:
        raise SchemaError(f"line {lineno}: unknown event type {etype!r} for task {schema.name!r}")
    by_role = {}
    for part in fields[1:]:
        if ":" not in part:
            raise ParseError(f"bad role argument {part!r}", file=file, line=lineno)
        role, ref = part.split(":", 1)
        if role in by_role:
            raise ParseError(f"role {role!r} given twice", file=file, line=lineno)
        by_role[role] = ref
    src_role, tgt_role = schema.roles(etype)
    if set(by_role) != {src_role, tgt_role}:
        raise ParseError(
            f"event type {etype!r} expects roles {src_role}/{tgt_role}, "
            f"got {sorted(by_role)}",
            file=file,
            line=lineno,
        )
    source, target = by_role[src_role], by_role[tgt_role]
    for ref in (source, target):
        if ref not in entities:
            raise IntegrityError(f"line {lineno}: event {eid} references unknown entity {ref}")
    if source == target:
        raise IntegrityError(f"line {lineno}: event {eid} links entity {source} to itself")
    return Event(id=eid, type=etype, source=source, target=target)


def parse_standoff(
    text: str,
    entity_lines: str,
    event_lines: str,
    schema: TaskSchema,
    doc_id: str = "doc",
    entity_file=None,
    event_file=None,
) -> tuple[Document, dict[str, Entity], dict[str, Event]]:
    """Parse one document's raw text plus entity and event annotation blocks.

    Returns the tokenized, sentence-split document with entities aligned to
    token spans and events cross-linked; every surface string is verified
    against the text offsets.
    """
    entities: dict[str, Entity] = {}
    for lineno, line in enumerate(entity_lines.splitlines(), start=1):
        if not line.strip():
            continue
        ent = _parse_entity_line(line, lineno, text, file=entity_file)
        if ent.id in entities:
            raise IntegrityError(f"duplicate entity id {ent.id} in {doc_id}")
        ent.doc_id = doc_id
        entities[ent.id] = ent

    intervals = split_sentences(text, [e.span for e in entities.values()])
    doc = Document(id=doc_id, text=text)
    for idx, (s, e) in enumerate(intervals):
        doc.sentences.append(
            Sentence(id=f"{doc_id}-S{idx + 1}", span=(s, e), tokens=tokenize(text, s, e))
        )

    # Sentences are disjoint and in text order: the only one that can hold an
    # entity is the last one starting at or before it.
    sentence_starts = [s for s, _ in intervals]
    for ent in entities.values():
        home = bisect.bisect_right(sentence_starts, ent.span[0]) - 1
        if home < 0 or ent.span[1] > intervals[home][1]:
            raise AlignmentError(
                f"entity {ent.id} span {ent.span} lies in no sentence of {doc_id}"
            )
        ent.sentence_index = home
        doc.sentences[home].entities.append(ent)
    for sent in doc.sentences:
        align_entities(sent, sent.entities)  # in file order: the first bad one is reported
        sent.entities.sort(key=lambda e: (e.span, e.id))

    events: dict[str, Event] = {}
    for lineno, line in enumerate(event_lines.splitlines(), start=1):
        if not line.strip():
            continue
        ev = _parse_event_line(line, lineno, entities, schema, file=event_file)
        if ev.id in events:
            raise IntegrityError(f"duplicate event id {ev.id} in {doc_id}")
        ev.doc_id = doc_id
        ev.cross_sentence = (
            entities[ev.source].sentence_index != entities[ev.target].sentence_index
        )
        events[ev.id] = ev
    return doc, entities, events


def corpus_from_documents(items, schema: TaskSchema) -> Corpus:
    """Assemble a corpus from (doc_id, text, entity_lines, event_lines) tuples."""
    corpus = Corpus(task_schema=schema)
    for doc_id, text, a1_text, a2_text, a1_name, a2_name in items:
        doc, entities, events = parse_standoff(
            text,
            a1_text,
            a2_text,
            schema,
            doc_id=doc_id,
            entity_file=a1_name,
            event_file=a2_name,
        )
        corpus.documents.append(doc)
        for ent in entities.values():
            corpus.entities[Corpus.qualify(doc_id, ent.id)] = ent
        for ev in events.values():
            corpus.events[Corpus.qualify(doc_id, ev.id)] = ev
    corpus.documents.sort(key=lambda d: d.id)
    n_cross = sum(1 for ev in corpus.events.values() if ev.cross_sentence)
    if n_cross:
        logger.info(
            "%d cross-sentence gold events retained but excluded from training", n_cross
        )
    return corpus


def list_corpus_dir(directory: str | Path) -> list[tuple[str, Path, Path, Path | None]]:
    """The ``(doc id, .txt, .a1, .a2 or None)`` files of each document under
    ``directory``, sorted by doc id, the order of ``Corpus.documents``; every
    ``.txt`` must have its ``.a1``. Nothing is read: one listing gives every
    name, and a dangling link is no file."""
    directory = Path(directory)
    try:
        with os.scandir(directory) as listing:
            entries = list(listing)
    except OSError:
        entries = []  # no directory to list: no documents
    present = {e.name for e in entries if not e.is_symlink() or os.path.exists(e.path)}
    txt_files = sorted(directory / e.name for e in entries if e.name.endswith(".txt"))
    if not txt_files:
        raise ParseError(f"no .txt documents under {directory}")
    files = []
    for txt in txt_files:
        a1 = txt.with_suffix(".a1")
        a2 = txt.with_suffix(".a2")
        if a1.name not in present:
            raise ParseError(f"missing entity file {a1}")
        files.append((txt.stem, txt, a1, a2 if a2.name in present else None))
    return sorted(files, key=lambda f: f[0])


def read_corpus_files(files, schema: TaskSchema) -> Corpus:
    """Read and parse the documents ``list_corpus_dir`` listed into a corpus."""
    items = []
    for doc_id, txt, a1, a2 in files:
        a2_text = _read_text(a2) if a2 else ""
        items.append((doc_id, _read_text(txt), _read_text(a1), a2_text, str(a1), a2 and str(a2)))
    return corpus_from_documents(items, schema)


def load_corpus_dir(directory: str | Path, schema: TaskSchema) -> Corpus:
    """Assemble a corpus from ``*.txt`` / ``*.a1`` / optional ``*.a2`` files."""
    return read_corpus_files(list_corpus_dir(directory), schema)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc})", file=str(path)) from None


# ---------------------------------------------------------------------------
# Serialization and reporting


def write_standoff(events: list[Event], schema: TaskSchema) -> str:
    """Emit relation lines, renumbered R1.. in input order.

    Round-trips through parse_standoff for any valid event list.
    """
    lines = []
    for n, ev in enumerate(events, start=1):
        src_role, tgt_role = schema.roles(ev.type)
        lines.append(f"R{n}\t{ev.type} {src_role}:{ev.source} {tgt_role}:{ev.target}")
    return "".join(line + "\n" for line in lines)


def corpus_stats(corpus: Corpus) -> dict:
    """Counts shaped like the task summary tables: events per type, distinct
    entities per argument role, plus raw entity-label and size tallies."""
    event_counts: dict[str, int] = {t: 0 for t in corpus.task_schema.event_types}
    for ev in corpus.events.values():
        event_counts[ev.type] = event_counts.get(ev.type, 0) + 1
    role_members: dict[str, set[str]] = {t: set() for t in corpus.task_schema.argument_types}
    for qid, roles in corpus.argument_roles().items():
        for role in roles:
            role_members.setdefault(role, set()).add(qid)
    label_counts: dict[str, int] = {}
    for ent in corpus.entities.values():
        label_counts[ent.label] = label_counts.get(ent.label, 0) + 1
    return {
        "task": corpus.task_schema.name,
        "documents": len(corpus.documents),
        "sentences": sum(len(d.sentences) for d in corpus.documents),
        "entities": len(corpus.entities),
        "entity_labels": dict(sorted(label_counts.items())),
        "events": dict(sorted(event_counts.items())),
        "arguments": {role: len(members) for role, members in sorted(role_members.items())},
        "cross_sentence_events": sum(1 for e in corpus.events.values() if e.cross_sentence),
    }
