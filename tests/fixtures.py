"""Hand-built standoff corpora used across the test suite.

The gene-interaction corpus covers all nine event types (so all eleven
argument roles occur); the bacteria-biotope corpus exercises multi-sentence
documents, a discontinuous entity, and a cross-sentence gold event.
"""

from __future__ import annotations

from pathlib import Path

from bioee import vecom
from bioee.corpus import (
    BB_SCHEMA,
    BGI_SCHEMA,
    Corpus,
    Document,
    Entity,
    Sentence,
    corpus_from_documents,
)
from bioee.embed import PAD

GERE_TEXT = (
    "We now report that the purified product of gerE (GerE) is a DNA-binding "
    "protein that adheres to the promoters for cotB and cotC."
)

CASE_TEXT = "The expression of rsfA is under the control of both sigma(F) and sigma(G)."


def _entity_lines(text: str, entities: list[tuple[str, str, str]]) -> str:
    """Build a1 lines by locating each surface string in the text."""
    lines = []
    for tid, label, surface in entities:
        start = text.index(surface)
        lines.append(f"{tid}\t{label} {start} {start + len(surface)}\t{surface}")
    return "".join(line + "\n" for line in lines)


def gere_document() -> tuple[str, str, str, str]:
    a1 = _entity_lines(
        GERE_TEXT,
        [
            ("T1", "Protein", "purified product of gerE"),
            ("T2", "Protein", "GerE"),
            ("T3", "ProteinFamily", "DNA-binding protein"),
            ("T4", "Promoter", "promoters"),
            ("T5", "Gene", "cotB"),
            ("T6", "Gene", "cotC"),
        ],
    )
    a2 = (
        "R1\tPromoterOf Promoter:T4 Gene:T5\n"
        "R2\tPromoterOf Promoter:T4 Gene:T6\n"
        "R3\tInteraction Agent:T2 Target:T5\n"
        "R4\tInteraction Agent:T2 Target:T6\n"
    )
    return "GERE", GERE_TEXT, a1, a2


def case_study_document() -> tuple[str, str, str, str]:
    a1 = _entity_lines(
        CASE_TEXT,
        [
            ("T1", "Action", "expression"),
            ("T2", "Gene", "rsfA"),
            ("T3", "Protein", "sigma(F)"),
            ("T4", "Protein", "sigma(G)"),
        ],
    )
    a2 = (
        "R1\tActionTarget Action:T1 Target:T2\n"
        "R2\tInteraction Agent:T3 Target:T2\n"
        "R3\tInteraction Agent:T4 Target:T2\n"
    )
    return "PMID-10629188", CASE_TEXT, a1, a2


def _extra_bgi_documents() -> list[tuple[str, str, str, str]]:
    docs = []

    text = "The cotD promoter drives CotD production in sporulating cells."
    docs.append(
        (
            "BGI-PD",
            text,
            _entity_lines(
                text,
                [("T1", "Promoter", "cotD promoter"), ("T2", "Protein", "CotD")],
            ),
            "R1\tPromoterDependence Promoter:T1 Protein:T2\n",
        )
    )

    text = "The sigK regulon controls gerE during late sporulation."
    docs.append(
        (
            "BGI-RD",
            text,
            _entity_lines(
                text,
                [("T1", "Regulon", "sigK regulon"), ("T2", "Gene", "gerE")],
            ),
            "R1\tRegulonDependence Regulon:T1 Target:T2\n",
        )
    )

    text = "The sigB regulon includes katE among its members."
    docs.append(
        (
            "BGI-RM",
            text,
            _entity_lines(
                text,
                [("T1", "Regulon", "sigB regulon"), ("T2", "Gene", "katE")],
            ),
            "R1\tRegulonMember Regulon:T1 Member:T2\n",
        )
    )

    text = "The -35 region lies upstream of the katE coding sequence."
    docs.append(
        (
            "BGI-SO",
            text,
            _entity_lines(
                text,
                [("T1", "Site", "-35 region"), ("T2", "Gene", "katE coding sequence")],
            ),
            "R1\tSiteOf Site:T1 Entity:T2\n",
        )
    )

    text = "Transcription of cotB depends on SigK in the mother cell."
    docs.append(
        (
            "BGI-TB",
            text,
            _entity_lines(
                text,
                [("T1", "Transcription", "Transcription of cotB"), ("T2", "Protein", "SigK")],
            ),
            "R1\tTranscriptionBy Transcription:T1 Agent:T2\n",
        )
    )

    text = "Transcription of gerE starts at the P1 site near the terminus."
    docs.append(
        (
            "BGI-TF",
            text,
            _entity_lines(
                text,
                [("T1", "Transcription", "Transcription of gerE"), ("T2", "Site", "P1 site")],
            ),
            "R1\tTranscriptionFrom Transcription:T1 Site:T2\n",
        )
    )
    return docs


def bgi_documents() -> list[tuple[str, str, str, str]]:
    return [gere_document(), case_study_document()] + _extra_bgi_documents()


def bgi_corpus() -> Corpus:
    items = [(d, t, a1, a2, None, None) for d, t, a1, a2 in bgi_documents()]
    return corpus_from_documents(items, BGI_SCHEMA)


def bb_documents() -> list[tuple[str, str, str, str]]:
    docs = []

    text = "Borrelia burgdorferi was detected in Ixodes ticks from two regions."
    docs.append(
        (
            "BB-1",
            text,
            _entity_lines(
                text,
                [
                    ("T1", "Bacteria", "Borrelia burgdorferi"),
                    ("T2", "Habitat", "Ixodes ticks"),
                ],
            ),
            "R1\tLives_In Bacteria:T1 Location:T2\n",
        )
    )

    # Two sentences; R2 crosses the sentence boundary. T3 is discontinuous.
    text = (
        "Listeria monocytogenes persists in soil and in dairy or meat products. "
        "The same pathogen was recovered from refrigerated storage rooms."
    )
    t1 = text.index("Listeria monocytogenes")
    t2 = text.index("soil")
    dairy = text.index("dairy")
    products = text.index("products")
    rooms = text.index("refrigerated storage rooms")
    a1 = (
        f"T1\tBacteria {t1} {t1 + len('Listeria monocytogenes')}\tListeria monocytogenes\n"
        f"T2\tHabitat {t2} {t2 + 4}\tsoil\n"
        f"T3\tHabitat {dairy} {dairy + 5};{products} {products + 8}\tdairy products\n"
        f"T4\tHabitat {rooms} {rooms + len('refrigerated storage rooms')}\trefrigerated storage rooms\n"
    )
    a2 = (
        "R1\tLives_In Bacteria:T1 Location:T2\n"
        "R2\tLives_In Bacteria:T1 Location:T4\n"
        "R3\tLives_In Bacteria:T1 Location:T3\n"
    )
    docs.append(("BB-2", text, a1, a2))

    text = "Campylobacter jejuni colonizes the chicken gut soon after hatching."
    docs.append(
        (
            "BB-3",
            text,
            _entity_lines(
                text,
                [
                    ("T1", "Bacteria", "Campylobacter jejuni"),
                    ("T2", "Habitat", "chicken gut"),
                ],
            ),
            "R1\tLives_In Bacteria:T1 Location:T2\n",
        )
    )
    return docs


def bb_corpus() -> Corpus:
    items = [(d, t, a1, a2, None, None) for d, t, a1, a2 in bb_documents()]
    return corpus_from_documents(items, BB_SCHEMA)


def write_corpus_dir(directory: Path, documents: list[tuple[str, str, str, str]]) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for doc_id, text, a1, a2 in documents:
        (directory / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        (directory / f"{doc_id}.a1").write_text(a1, encoding="utf-8")
        (directory / f"{doc_id}.a2").write_text(a2, encoding="utf-8")
    return directory


def sentence_pairs(entities: list[Entity]):
    """``vecom.candidate_pairs`` of a corpus whose one sentence holds
    ``entities``: those entities by qualified id and the rows of their
    n(n-1) ordered pairs, in the order of ``entities``."""
    sentence = Sentence("S", (0, 0), entities=list(entities))
    return vecom.candidate_pairs(Corpus(BGI_SCHEMA, [Document("D", "", [sentence])]))


def window_holds(window, table, left: list[str], right: list[str]) -> bool:
    """Whether ``window`` holds the tokens ``left`` and ``right``, each half
    read toward the anchor with ``PAD`` for padding: a pad slot is id 0 on
    the zero row, and every other slot's row is ``table.lookup`` of its
    token, bit for bit."""
    if window.vectors[0].any() or len(window.ids) != 2:
        return False
    for ids, tokens in zip(window.ids, (left, right)):
        if len(ids) != len(tokens):
            return False
        for i, token in zip(ids, tokens):
            if (i == 0) != (token == PAD):
                return False
            if window.vectors[i].tobytes() != table.lookup(token).tobytes():
                return False
    return True
