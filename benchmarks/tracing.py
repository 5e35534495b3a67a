"""Outside-in span tracing of the package's public functions.

Each traced function is replaced, for the duration of a ``Tracer.active``
block, by a wrapper that records one span: (layer, start, end, parent span,
run id, rows). The wrapper is installed under every name the function is
looked up by: module attributes in every ``bioee`` module (``cli`` imports
``load_corpus_dir`` and ``write_standoff`` by name), dict entries such as the
CLI's command table, and class attributes for methods. Spans stay in memory
until ``write``; self time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _len_arg(i):
    return lambda args, kwargs: len(args[i])


def _rows_arg(i):
    def rows(args, kwargs):
        data = getattr(args[i], "data", args[i])
        return data.shape[0] if data.ndim == 2 else 1

    return rows


def _rows_seq(args, kwargs):
    first = args[1][0].data
    return first.shape[0] if first.ndim == 2 else 1


# layer name -> (module, attribute path, rows-per-call extractor or None).
# Layers timed in the measured command; the batch size is recorded where the
# function takes a batch.
LAYERS = {
    "cli.cmd_crossval": ("bioee.cli", "cmd_crossval", None),
    "cli.cmd_predict": ("bioee.cli", "cmd_predict", None),
    "corpus.load_corpus_dir": ("bioee.corpus", "load_corpus_dir", None),
    "corpus.parse_standoff": ("bioee.corpus", "parse_standoff", None),
    "corpus.split_sentences": ("bioee.corpus", "split_sentences", None),
    "corpus.Corpus.sentence_entities": ("bioee.corpus", "Corpus.sentence_entities", None),
    "corpus.Corpus.doc_entities": ("bioee.corpus", "Corpus.doc_entities", None),
    "corpus.write_standoff": ("bioee.corpus", "write_standoff", None),
    "embed.EmbeddingTable.lookup_all": ("bioee.embed", "EmbeddingTable.lookup_all", _len_arg(1)),
    "vecent.build_entity_windows": ("bioee.vecent", "build_entity_windows", None),
    "vecent.argument_embeddings": ("bioee.vecent", "argument_embeddings", _len_arg(1)),
    "vecent.predict_probs": ("bioee.vecent", "predict_probs", _len_arg(1)),
    "vecent.train_argument_model": ("bioee.vecent", "train_argument_model", _len_arg(0)),
    "vecent.load_argument_model": ("bioee.vecent", "load_argument_model", None),
    "vecom.gen_candidates": ("bioee.vecom", "gen_candidates", None),
    "vecom.build_pair_samples": ("bioee.vecom", "build_pair_samples", None),
    "vecom.event_forward_batch": ("bioee.vecom", "event_forward_batch", _rows_arg(1)),
    "vecom.decode_events": ("bioee.vecom", "decode_events", None),
    "vecom.train_event_model": ("bioee.vecom", "train_event_model", _len_arg(0)),
    "evalkit.cross_validate": ("bioee.evalkit", "cross_validate", None),
    "evalkit.plan_folds": ("bioee.evalkit", "plan_folds", None),
    "evalkit.micro_curves": ("bioee.evalkit", "micro_curves", None),
    "ndiff.lstm_last": ("bioee.ndiff", "lstm_last", _rows_seq),
    "ndiff.affine": ("bioee.ndiff", "affine", _rows_arg(1)),
    "ndiff.backward": ("bioee.ndiff", "backward", None),
    "ndiff.sgd_step": ("bioee.ndiff", "sgd_step", None),
    "ndiff.load_tensors": ("bioee.ndiff", "load_tensors", None),
}

# Layers reported for the set-up phase (model training for the predict
# workloads, corpus generation for all).
SETUP_LAYERS = {
    "synth.generate_documents": ("bioee.synth", "generate_documents", None),
    "corpus.load_corpus_dir": LAYERS["corpus.load_corpus_dir"],
    "cli.cmd_train_args": ("bioee.cli", "cmd_train_args", None),
    "cli.cmd_train_events": ("bioee.cli", "cmd_train_events", None),
    "vecent.train_argument_model": LAYERS["vecent.train_argument_model"],
    "vecom.train_event_model": LAYERS["vecom.train_event_model"],
    "ndiff.save_tensors": ("bioee.ndiff", "save_tensors", None),
}

TRACED = {**LAYERS, **SETUP_LAYERS}


def _resolve(module: str, path: str):
    """(owner, attribute) of a traced function, or None if the package no
    longer defines it; such a layer then reads 0."""
    owner = sys.modules.get(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self) -> None:
        # (layer, start, end, parent index or -1, run id, rows or None)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.run_id = ""

    def _wrap(self, layer: str, fn, rows_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            try:
                rows = rows_of(args, kwargs) if rows_of else None
            except (IndexError, AttributeError, TypeError):
                rows = None
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.run_id, rows)

        return traced

    @contextmanager
    def active(self, run_id: str):
        """Install the wrappers for one traced run; restore the originals after."""
        self.run_id = run_id
        undo = []
        try:
            for layer, (module, path, rows_of) in TRACED.items():
                found = _resolve(module, path)
                if found is None:
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, rows_of)
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original))
                if isinstance(owner, type):
                    continue
                for name, mod in list(sys.modules.items()):
                    if not (name == "bioee" or name.startswith("bioee.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    value[k] = wrapper
                                    undo.append((value, k, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)
            self.run_id = ""

    def summary(self, run_id: str) -> dict[str, dict[str, float]]:
        """Per layer: calls, total_s, self_s and rows_per_call over one run id."""
        durations = {}
        child_time = {}
        for index, span in enumerate(self.spans):
            if span is None or span[4] != run_id:
                continue
            layer, start, end, parent, _, _ = span
            durations[index] = end - start
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for index, duration in durations.items():
            layer, _, _, _, _, rows = self.spans[index]
            entry = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(index, 0.0)
            entry["rows"] += rows or 0
        for entry in out.values():
            entry["rows_per_call"] = entry.pop("rows") / entry["calls"]
        return out

    def coverage(self, run_id: str) -> float:
        """Share of the top ``cli.cmd_*`` span covered by its direct children."""
        top = [
            (i, s)
            for i, s in enumerate(self.spans)
            if s and s[4] == run_id and s[3] == -1 and s[0].startswith("cli.cmd_")
        ]
        shares = []
        for index, (_, start, end, _, _, _) in top:
            covered = sum(
                s[2] - s[1] for s in self.spans if s and s[4] == run_id and s[3] == index
            )
            shares.append(covered / (end - start))
        return statistics.median(shares) if shares else 0.0

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: layer, start, end, parent, run, rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                layer, start, end, parent, run_id, rows = span
                fh.write(
                    json.dumps([index, layer, round(start, 7), round(end, 7), parent, run_id, rows])
                    + "\n"
                )


def layer_metrics(summaries: list[dict], setup: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metric values: medians over the traced runs of the command,
    plus set-up totals. Layers that never ran read 0."""
    metrics: dict[str, tuple[float, str]] = {}
    for layer, (_, _, rows_of) in LAYERS.items():
        fields = [("calls", "count"), ("total_s", "s"), ("self_s", "s")]
        if rows_of:
            fields.append(("rows_per_call", "rows"))
        for key, unit in fields:
            values = [s.get(layer, {}).get(key, 0.0) for s in summaries]
            metrics[f"{layer}.{key}"] = (statistics.median(values) if values else 0.0, unit)
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.total_s"] = (setup.get(layer, {}).get("total_s", 0.0), "s")
    return metrics


def per_layer_spec() -> list[dict]:
    """The per-layer metric list, as ``BENCHMARK.json`` declares it."""
    better = {"calls": "lower", "total_s": "lower", "self_s": "lower", "rows_per_call": "higher"}
    spec = []
    for name, (_, unit) in layer_metrics([], {}).items():
        spec.append({"name": name, "unit": unit, "better": better[name.rsplit(".", 1)[1]]})
    spec.append({"name": "trace.coverage", "unit": "ratio", "better": "higher"})
    spec.append({"name": "trace.overhead", "unit": "ratio", "better": "lower"})
    return spec
