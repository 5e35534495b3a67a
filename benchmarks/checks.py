"""Output checks and scores, computed from the files the CLI wrote.

Every check returns a list of problems; an empty list means the output is
correct. Scores are computed here rather than taken from the program, so a
change to the program's scoring cannot hide a change in its outputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from bioee.corpus import parse_standoff, write_standoff
from bioee.errors import BioeeError

from corpora import CorpusSpec


def digest(root: Path, patterns: list[str]) -> str:
    """sha256 over (relative path, content) of the matching files, in path order."""
    h = hashlib.sha256()
    files = sorted({p for pattern in patterns for p in root.glob(pattern) if p.is_file()})
    for path in files:
        h.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return f"{len(files)}:{h.hexdigest()}"


def roc_auc(scores, labels) -> float:
    """Rank-based ROC AUC (Mann-Whitney U); tied scores share their mean rank."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    if not n_pos or not n_neg:
        raise ValueError("AUC needs both classes")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    ranks = ((last - counts + 1 + last) / 2)[inverse]
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def check_crossval(cv_dir: Path, schema) -> list[str]:
    """metrics.json must name every class, with F-scores and AUCs in [0, 1]."""
    try:
        report = json.loads((cv_dir / "metrics.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"metrics.json unreadable: {exc}"]
    problems = []
    values = {}
    for kind, names, key in (
        ("events", schema.event_types, "event_metrics"),
        ("arguments", schema.argument_types, "metrics"),
    ):
        for name in names:
            entry = report.get(kind, {}).get(name)
            if entry is None:
                problems.append(f"metrics.json lacks {kind} class {name}")
            else:
                values[f"{kind}.{name}.f_score"] = entry.get(key, {}).get("f_score")
    for name, value in report.get("micro", {}).items():
        values[f"micro.{name}"] = value
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            problems.append(f"metrics.json {name} = {value!r}, outside [0, 1]")
    return problems


def check_predictions(out_dir: Path, spec: CorpusSpec, schema) -> list[str]:
    """Each .a2 round-trips through the parser against its input .a1, and
    pairs.tsv holds one row per ordered entity pair and event type."""
    problems = []
    pred_dir = out_dir / "pred"
    for doc_id in spec.sentence_entities:
        pred = pred_dir / f"{doc_id}.a2"
        if not pred.exists():
            problems.append(f"no prediction file for {doc_id}")
            continue
        text = (spec.directory / f"{doc_id}.txt").read_text(encoding="utf-8")
        a1 = (spec.directory / f"{doc_id}.a1").read_text(encoding="utf-8")
        a2 = pred.read_text(encoding="utf-8")
        try:
            _, _, events = parse_standoff(text, a1, a2, schema, doc_id=doc_id)
        except BioeeError as exc:
            problems.append(f"{pred.name} does not parse: {exc}")
            continue
        if write_standoff(list(events.values()), schema) != a2:
            problems.append(f"{pred.name} does not round-trip")
    expected = len(schema.event_types) * sum(
        n * (n - 1) for counts in spec.sentence_entities.values() for n in counts
    )
    try:
        rows = (pred_dir / "pairs.tsv").read_text(encoding="utf-8").splitlines()[1:]
    except OSError as exc:
        return problems + [f"pairs.tsv unreadable: {exc}"]
    if len(rows) != expected:
        problems.append(f"pairs.tsv has {len(rows)} rows, expected {expected}")
    return problems


def predicted_events(out_dir: Path, spec: CorpusSpec) -> set[tuple[str, str, str, str]]:
    found = set()
    for doc_id in spec.sentence_entities:
        for line in (out_dir / "pred" / f"{doc_id}.a2").read_text(encoding="utf-8").splitlines():
            _, fields = line.split("\t")
            etype, source, target = fields.split()
            found.add((doc_id, etype, source.split(":", 1)[1], target.split(":", 1)[1]))
    return found


def event_f(predicted: set, gold: set) -> float:
    tp = len(predicted & gold)
    return 2 * tp / (len(predicted) + len(gold)) if predicted or gold else 0.0


def pair_auc(out_dir: Path, spec: CorpusSpec) -> float:
    """ROC AUC of pairs.tsv existence probabilities against the gold events."""
    linked = {(doc, etype, frozenset((s, t))) for doc, etype, s, t in spec.gold}
    scores, labels = [], []
    lines = (out_dir / "pred" / "pairs.tsv").read_text(encoding="utf-8").splitlines()[1:]
    for line in lines:
        sentence_id, first, second, p_exists, _, etype = line.split("\t")
        doc_id = sentence_id.rsplit("-S", 1)[0]
        scores.append(float(p_exists))
        labels.append((doc_id, etype, frozenset((first, second))) in linked)
    return roc_auc(scores, labels)
