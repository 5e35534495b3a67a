"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, which writes
under ``setup_dir`` (removed before each repetition), then the timed command
is one ``bioee.cli.main`` call. All three use the full model shape
(context window 10, embeddings 200, LSTM 128, MLPs 128/64, batch 32); the
corpora and epoch counts are small enough that one run of every workload
fits the benchmark's time budget.

- ``crossval``: 10-fold cross-validation of 50 sentences, 1 epoch. Training
  dominates (LSTM forward+backward and SGD at batch 32). The sentences are
  written as five ten-sentence documents, so set-up writes 16 files, not
  151: the latency of creating small files swung several-fold from minute
  to minute on a shared VM and set the one-sentence layout's set-up time.
- ``predict-sentences``: set-up trains on 100 sentences; the timed command
  predicts 400 one-sentence documents. Inference only, with argument
  embeddings computed for 2-3 entities per call.
- ``predict-abstracts``: the same, with the 400 sentences joined into
  40 ten-sentence documents, so sentence splitting cuts real boundaries and
  the per-document embedding cache spans several sentences.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from bioee import cli, embed, vecent
from bioee.corpus import load_corpus_dir, load_schema

import checks
from corpora import CorpusSpec, draw_sentences, validate, write_corpus

MODEL = [
    "--window", "10", "--dim", "200", "--lstm-hidden", "128",
    "--arg-mlp-hidden", "128", "--event-mlp-hidden", "64", "--batch", "32",
    "--seed", "7", "--jobs", "1",
]
# (epochs, learning rate) of each training command. The event heads need
# many more, smaller steps than the argument models; crossval shares one
# setting between both.
CV_TRAINING = ("--epochs", 1, "--lr", 0.3)
CV_SENTENCES = 50
TRAINING = {"train-args": ("--epochs", 2, "--lr", 0.3), "train-events": ("--epochs", 40, "--lr", 0.02)}
TRAIN_SENTENCES = 100
PREDICT_SENTENCES = 400
ABSTRACT_SENTENCES = 10


def call(argv: list[str]) -> int:
    return cli.main([str(a) for a in argv])


class Crossval:
    # Set-up is only corpus generation, tens of milliseconds, so many
    # repetitions per group steady its median at no real cost.
    setup_repeats = 20
    setup_groups = 5

    def __init__(self, work: Path, seed: int):
        self.setup_dir = work / "setup"
        self.out = work / "out"
        self.seed = seed
        self.spec: CorpusSpec | None = None

    @property
    def n_sentences(self) -> int:
        return CV_SENTENCES

    def setup(self) -> list[str]:
        sentences = draw_sentences(CV_SENTENCES, self.seed)
        self.spec = write_corpus(self.setup_dir / "corpus", sentences, ABSTRACT_SENTENCES, "CV")
        return validate(self.spec)

    def setup_digest(self) -> str:
        return checks.digest(self.setup_dir, ["corpus/*"])

    def command(self) -> list[str]:
        shutil.rmtree(self.out, ignore_errors=True)
        return [
            "crossval", "--schema", self.spec.schema_path, "--train-dir", self.spec.directory,
            "--out", self.out, *CV_TRAINING, *MODEL,
        ]

    def check(self) -> list[str]:
        return checks.check_crossval(self.out / "crossval", load_schema(self.spec.schema_path))

    def output_digest(self) -> str:
        return checks.digest(self.out / "crossval", ["metrics.json", "metrics.csv", "curves/*"])

    def quality(self) -> dict[str, float]:
        report = json.loads((self.out / "crossval" / "metrics.json").read_text(encoding="utf-8"))
        f_scores = [e["event_metrics"]["f_score"] for e in report["events"].values()]
        return {
            "event_f": sum(f_scores) / len(f_scores),
            "event_roc_auc": report["micro"]["events_roc_auc"],
            "arg_roc_auc": report["micro"]["arguments_roc_auc"],
        }


class Predict:
    # Set-up trains both models, a few seconds: one repetition per group.
    setup_repeats = 1
    setup_groups = 4

    def __init__(self, work: Path, seed: int, per_doc: int):
        self.per_doc = per_doc
        self.setup_dir = work / "setup"
        self.out = self.setup_dir / "out"
        self.seed = seed
        self.train: CorpusSpec | None = None
        self.input: CorpusSpec | None = None

    @property
    def n_sentences(self) -> int:
        return PREDICT_SENTENCES

    def setup(self) -> list[str]:
        self.train = write_corpus(
            self.setup_dir / "train", draw_sentences(TRAIN_SENTENCES, 2 * self.seed), 1, "TR"
        )
        self.input = write_corpus(
            self.setup_dir / "input",
            draw_sentences(PREDICT_SENTENCES, 2 * self.seed + 1),
            self.per_doc,
            "DOC",
        )
        problems = validate(self.train) + validate(self.input)
        common = ["--schema", self.train.schema_path, "--train-dir", self.train.directory,
                  "--out", self.out, *MODEL]
        for command, training in TRAINING.items():
            rc = call([command, *common, *training])
            if rc != 0:
                problems.append(f"{command} exited with {rc}")
        return problems

    def setup_digest(self) -> str:
        return checks.digest(self.setup_dir, ["train/*", "input/*", "out/args/*", "out/events/*"])

    def command(self) -> list[str]:
        shutil.rmtree(self.out / "pred", ignore_errors=True)
        return [
            "predict", "--schema", self.input.schema_path, "--predict-dir", self.input.directory,
            "--out", self.out, *MODEL,
        ]

    def check(self) -> list[str]:
        return checks.check_predictions(self.out, self.input, load_schema(self.input.schema_path))

    def output_digest(self) -> str:
        return checks.digest(self.out / "pred", ["*.a2", "pairs.tsv"])

    def quality(self) -> dict[str, float]:
        predicted = checks.predicted_events(self.out, self.input)
        return {
            "event_f": checks.event_f(predicted, self.input.gold),
            "event_roc_auc": checks.pair_auc(self.out, self.input),
            "arg_roc_auc": self._argument_auc(),
        }

    def _argument_auc(self) -> float:
        """ROC AUC of the trained argument models on the prediction corpus."""
        schema = load_schema(self.input.schema_path)
        manifest = json.loads((self.out / "args" / "manifest.json").read_text(encoding="utf-8"))
        table = embed.EmbeddingTable(
            dim=manifest["dim"],
            oov_policy=manifest["embedding"]["oov"],
            seed=manifest["embedding"]["seed"],
        )
        corpus = load_corpus_dir(self.input.directory, schema)
        windows = vecent.build_entity_windows(corpus, manifest["u"], table)
        roles: dict[str, set[str]] = {}
        for doc_id, etype, source, target in self.input.gold:
            src_role, tgt_role = schema.roles(etype)
            roles.setdefault(f"{doc_id}/{source}", set()).add(src_role)
            roles.setdefault(f"{doc_id}/{target}", set()).add(tgt_role)
        qids = sorted(windows)
        scores, labels = [], []
        for role in manifest["argument_types"]:
            model = vecent.load_argument_model(self.out / "args" / f"{role}.ckpt", role)
            for start in range(0, len(qids), 256):
                chunk = [windows[q] for q in qids[start : start + 256]]
                scores.extend(vecent.predict_probs(model, chunk).tolist())
            labels.extend(role in roles.get(q, ()) for q in qids)
        return checks.roc_auc(scores, labels)


def make(name: str, work: Path, seed: int):
    if name == "crossval":
        return Crossval(work, seed)
    if name == "predict-sentences":
        return Predict(work, seed, per_doc=1)
    if name == "predict-abstracts":
        return Predict(work, seed, per_doc=ABSTRACT_SENTENCES)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ["crossval", "predict-sentences", "predict-abstracts"]
