"""End-to-end command tests: config handling, artifacts, determinism."""

import argparse
import dataclasses
import json
import logging
import math
import multiprocessing
import os
import platform
import re
import resource
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from bioee import cli, embed, evalkit, ndiff, pool, synth, vecent, vecom
from bioee.cli import RunConfig, config_from_ini, config_to_ini, main
from bioee.corpus import list_corpus_dir, load_corpus_dir, load_schema, write_standoff
from bioee.embed import EmbeddingTable
from bioee.errors import ConfigurationError, ParseError, TrainingError
from bioee.vecent import Hyper

import fixtures

# Hyper-parameters small enough to be fast yet able to overfit the fixtures.
FIT_ARGS = [
    "--embedding", "hashed", "--dim", "24", "--oov-seed", "3",
    "--window", "4", "--lstm-hidden", "12", "--arg-mlp-hidden", "8",
    "--event-mlp-hidden", "8", "--batch", "8", "--lr", "0.05", "--seed", "7",
]


@pytest.fixture(scope="module")
def bgi_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    return fixtures.write_corpus_dir(root / "bgi", fixtures.bgi_documents())


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("predict")
    return fixtures.write_corpus_dir(root / "case", [fixtures.case_study_document()])


class TestConfig:
    def test_default_hyperparameters(self):
        cfg = RunConfig()
        assert cfg.window == 10
        assert cfg.lstm_hidden == 128
        assert cfg.arg_mlp_hidden == 128
        assert cfg.event_mlp_hidden == 64
        assert cfg.batch == 32
        assert cfg.epochs == 10
        assert cfg.dropout == 0.2
        assert cfg.oversample_ratio == 5.0
        assert cfg.threshold == 0.5

    def test_ini_round_trip(self, tmp_path):
        cfg = RunConfig(
            schema="bgi",
            train_dir="/data/x",
            window=4,
            lr=0.05,
            doc_level_cv=True,
        )
        path = tmp_path / "run.ini"
        path.write_text(config_to_ini(cfg), encoding="utf-8")
        reloaded = config_from_ini(path)
        assert dataclasses.asdict(reloaded) == dataclasses.asdict(cfg)

    def test_flags_override_file(self, tmp_path, bgi_dir):
        path = tmp_path / "run.ini"
        path.write_text(config_to_ini(RunConfig(schema="bb", epochs=3)), encoding="utf-8")
        parser_args = ["ingest", "--config", str(path), "--schema", "bgi",
                       "--train-dir", str(bgi_dir), "--out", str(tmp_path / "out")]
        assert main(parser_args) == 0
        effective = config_from_ini(tmp_path / "out" / "effective.ini")
        assert effective.schema == "bgi"
        assert effective.epochs == 3

    def test_percent_sign_taken_literally(self, tmp_path):
        cfg = RunConfig(out="runs/50%-subsample")
        path = tmp_path / "run.ini"
        path.write_text(config_to_ini(cfg), encoding="utf-8")
        assert config_from_ini(path).out == "runs/50%-subsample"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[hyper]\nwarmup = 3\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            config_from_ini(path)

    def test_ini_jobs_key_rejected(self, tmp_path):
        path = tmp_path / "jobs.ini"
        path.write_text("[run]\njobs = 1\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            config_from_ini(path)

    def test_ini_typed_candidates_key_rejected(self, tmp_path):
        path = tmp_path / "typed.ini"
        path.write_text("[run]\ntyped_candidates = true\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            config_from_ini(path)

    def test_jobs_flag_accepts_only_one(self, tmp_path, bgi_dir, capsys):
        base = ["ingest", "--schema", "bgi", "--train-dir", str(bgi_dir), "--out", str(tmp_path)]
        assert main([*base, "--jobs", "1"]) == 0
        effective = (tmp_path / "effective.ini").read_text(encoding="utf-8").splitlines()
        assert not [line for line in effective if line.startswith("jobs")]
        with pytest.raises(SystemExit) as exc:
            main([*base, "--jobs", "2"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_effective_config_reloads_to_equivalent_run(self, tmp_path, bgi_dir):
        out = tmp_path / "out"
        assert main(["ingest", "--schema", "bgi", "--train-dir", str(bgi_dir),
                     "--out", str(out), *FIT_ARGS]) == 0
        effective = config_from_ini(out / "effective.ini")
        assert effective.schema == "bgi"
        assert effective.window == 4
        assert effective.seed == 7


# Field -> (flag, a value out of its range); each once reproduced a traceback
# or a run that exited 0 without training or decoding anything meaningful.
BAD_VALUES = {
    "dim": ("--dim", "0"),
    "window": ("--window", "0"),
    "lstm_hidden": ("--lstm-hidden", "0"),
    "arg_mlp_hidden": ("--arg-mlp-hidden", "-1"),
    "event_mlp_hidden": ("--event-mlp-hidden", "0"),
    "batch": ("--batch", "0"),
    "epochs": ("--epochs", "0"),
    "dropout": ("--dropout", "1.5"),
    "lr": ("--lr", "0"),
    "momentum": ("--momentum", "1.0"),
    "oversample_ratio": ("--oversample-ratio", "0"),
    "threshold": ("--threshold", "nan"),
}


class TestConfigRanges:
    @pytest.mark.parametrize("field, flag, value", [(k, *v) for k, v in BAD_VALUES.items()],
                             ids=BAD_VALUES.keys())
    def test_flag_out_of_range_is_json_error(self, tmp_path, bgi_dir, field, flag, value, capsys):
        rc = main(["ingest", "--schema", "bgi", "--train-dir", str(bgi_dir),
                   "--out", str(tmp_path / "out"), flag, value])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigurationError"
        assert payload["message"].startswith(f"{field} must be")
        assert not (tmp_path / "out").exists()  # stopped before any work

    def test_ini_value_out_of_range_is_json_error(self, tmp_path, bgi_dir, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[hyper]\nbatch = 0\n", encoding="utf-8")
        rc = main(["ingest", "--config", str(path), "--schema", "bgi",
                   "--train-dir", str(bgi_dir), "--out", str(tmp_path / "out")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "ConfigurationError", "message": "batch must be >= 1, got 0"}

    def test_bounds_themselves_accepted(self, tmp_path, bgi_dir):
        assert main(["ingest", "--schema", "bgi", "--train-dir", str(bgi_dir),
                     "--out", str(tmp_path / "out"), "--window", "1", "--batch", "1",
                     "--dropout", "0", "--momentum", "0", "--oversample-ratio", "1",
                     "--threshold", "0", "--epochs", "1"]) == 0


# The effective.ini of a run with every default; a change to it changes what
# every run writes.
DEFAULT_INI = """\
[task]
schema = bb
train_dir = 
predict_dir = 

[embedding]
embedding = hashed
embedding_format = text
oov = hashed
oov_seed = 0
dim = 200

[hyper]
window = 10
lstm_hidden = 128
arg_mlp_hidden = 128
event_mlp_hidden = 64
batch = 32
epochs = 10
dropout = 0.2
lr = 0.01
momentum = 0.9
oversample_ratio = 5.0
threshold = 0.5

[run]
seed = 7
out = out
doc_level_cv = False
"""

# Field -> a valid value other than its default.
NON_DEFAULT = {
    "window": 3,
    "lstm_hidden": 12,
    "arg_mlp_hidden": 9,
    "event_mlp_hidden": 5,
    "batch": 8,
    "epochs": 2,
    "dropout": 0.3,
    "lr": 0.05,
    "momentum": 0.5,
    "oversample_ratio": 2.5,
    "threshold": 0.7,
    "schema": "bgi",
    "train_dir": "corpus/train",
    "predict_dir": "corpus/new",
    "embedding": "vectors.bin",
    "embedding_format": "binary",
    "oov": "zero",
    "oov_seed": 4,
    "dim": 24,
    "seed": 11,
    "out": "runs/a",
    "doc_level_cv": True,
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class TestConfigSurface:
    def test_default_ini_text(self):
        assert config_to_ini(RunConfig()) == DEFAULT_INI

    def test_option_strings(self):
        parser = argparse.ArgumentParser()
        cli._add_common(parser)
        options = {opt for action in parser._actions for opt in action.option_strings}
        fields = {_flag(f.name) for f in dataclasses.fields(RunConfig)}
        assert len(fields) == 22
        assert options == {
            "-h", "--help", "--config", "--jobs", "--verbose", "--no-doc-level-cv", *fields
        }

    def test_every_field_has_a_test_value(self):
        assert NON_DEFAULT.keys() == {f.name for f in dataclasses.fields(RunConfig)}
        for name, value in NON_DEFAULT.items():
            assert value != getattr(RunConfig(), name)

    @pytest.mark.parametrize("name", NON_DEFAULT)
    def test_flag_and_ini_set_field_alike(self, tmp_path, name):
        value = NON_DEFAULT[name]
        flags = [_flag(name)] if value is True else [_flag(name), str(value)]
        by_flag = cli._build_config(cli._parser().parse_args(["ingest", *flags]))
        section = next(sec for sec, keys in cli._INI_LAYOUT.items() if name in keys)
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{name} = {value}\n", encoding="utf-8")
        by_ini = cli._build_config(cli._parser().parse_args(["ingest", "--config", str(path)]))
        assert by_flag == by_ini == RunConfig(**{name: value})

    def test_hyper_defaults_are_the_readme_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = dict(re.findall(r"^\| `(\w+)` +\| ([^ |]+) +\|", readme, flags=re.M))
        hyper = Hyper()
        assert list(table) == [f.name for f in dataclasses.fields(Hyper)]
        for name, text in table.items():
            default = getattr(hyper, name)
            assert type(default)(text) == default, name


# (field, a value outside its choices)
BAD_CHOICES = [("oov", "bogus"), ("embedding_format", "csv")]


class TestConfigChoices:
    @pytest.mark.parametrize("name, value", BAD_CHOICES)
    @pytest.mark.parametrize("source", ["flag", "ini"])
    def test_bad_choice_is_json_error(self, tmp_path, bgi_dir, capsys, name, value, source):
        argv = ["ingest", "--schema", "bgi", "--train-dir", str(bgi_dir),
                "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += [_flag(name), value]
        else:
            path = tmp_path / "run.ini"
            path.write_text(f"[embedding]\n{name} = {value}\n", encoding="utf-8")
            argv += ["--config", str(path)]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigurationError"
        assert payload["message"].startswith(f"{name} must be one of ")
        assert payload["message"].endswith(f"got {value}")
        assert not (tmp_path / "out").exists()  # stopped before any work

    def test_every_choice_accepted(self, tmp_path, bgi_dir):
        for name, choices in cli._CHOICES.items():
            for value in choices:
                assert main(["ingest", "--schema", "bgi", "--train-dir", str(bgi_dir),
                             "--out", str(tmp_path / "out"), _flag(name), value]) == 0


class TestIngest:
    def test_stats_written(self, tmp_path, bgi_dir, capsys):
        out = tmp_path / "out"
        rc = main(["ingest", "--schema", "bgi", "--train-dir", str(bgi_dir), "--out", str(out)])
        assert rc == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["events"]["Interaction"] == 4
        assert stats["arguments"]["Target"] == 4
        assert stats["documents"] == 8

    def test_stats_report_window_padding(self, tmp_path, bgi_dir):
        out = tmp_path / "out"
        assert main(["ingest", "--schema", "bgi", "--train-dir", str(bgi_dir), "--window", "3",
                     "--out", str(out)]) == 0
        padding = json.loads((out / "stats.json").read_text())["window_padding"]
        corpus = load_corpus_dir(bgi_dir, load_schema("bgi"))
        windows = vecent.build_entity_windows(corpus, 3, EmbeddingTable(4))
        halves = [half for win in windows.values() for half in win.ids]
        lead = sum(int((~np.logical_or.accumulate(half != 0)).sum()) for half in halves)
        assert padding == {
            "u": 3,
            "steps": 4 * len(halves),
            "leading_pad_steps": lead,
            "leading_pad_share": lead / (4 * len(halves)),
        }
        assert 0 < lead < 4 * len(halves)

    def test_empty_dir_is_machine_readable_error(self, tmp_path, capsys):
        rc = main(["ingest", "--schema", "bgi", "--train-dir", str(tmp_path / "nothing"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"

    def test_bb_fixture_counts(self, tmp_path):
        bb_dir = fixtures.write_corpus_dir(tmp_path / "bb", fixtures.bb_documents())
        out = tmp_path / "out"
        assert main(["ingest", "--schema", "bb", "--train-dir", str(bb_dir),
                     "--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["events"]["Lives_In"] == 5
        assert stats["cross_sentence_events"] == 1


# id -> (file under the test directory, its content, absent when None, the
# flag that names it, the error reported)
BAD_INPUTS = {
    "missing_ini": ("run.ini", None, "--config", "ConfigurationError"),
    "unknown_ini_key": ("run.ini", "[hyper]\nwarmup = 3\n", "--config", "ConfigurationError"),
    "non_integer_seed": ("run.ini", "[run]\nseed = abc\n", "--config", "ConfigurationError"),
    "no_section_header": ("run.ini", "seed = 3\n", "--config", "ConfigurationError"),
    "schema_not_json": ("schema.json", "{", "--schema", "SchemaError"),
    "schema_roles_not_a_list": (
        "schema.json", '{"events": {"E": "AB"}}', "--schema", "SchemaError"
    ),
    "schema_not_an_object": ("schema.json", "[1, 2]", "--schema", "SchemaError"),
    "text_not_utf8": ("corpus/GERE.txt", b"gerE \xff binds", "--train-dir", "ParseError"),
}


class TestBadInput:
    """Unusable config, schema and corpus text end in the JSON error line."""

    @pytest.mark.parametrize(
        "name, content, flag, error", BAD_INPUTS.values(), ids=BAD_INPUTS.keys()
    )
    def test_ingest_reports_json_error(
        self, tmp_path, bgi_dir, name, content, flag, error, capsys
    ):
        path = tmp_path / name
        if flag == "--train-dir":  # one bad document in an otherwise sound corpus
            shutil.copytree(bgi_dir, path.parent)
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content, encoding="utf-8")
        named = path.parent if flag == "--train-dir" else path
        rc = main(["ingest", "--schema", "bgi", "--train-dir", str(bgi_dir),
                   "--out", str(tmp_path / "out"), flag, str(named)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == error
        assert str(path) in payload["message"]


class TestTrainArgs:
    def test_one_checkpoint_per_argument_type(self, tmp_path, bgi_dir):
        out = tmp_path / "out"
        rc = main(["train-args", "--schema", "bgi", "--train-dir", str(bgi_dir),
                   "--out", str(out), "--epochs", "2", *FIT_ARGS])
        assert rc == 0
        manifest = json.loads((out / "args" / "manifest.json").read_text())
        assert len(manifest["argument_types"]) == 11
        for arg_type in manifest["argument_types"]:
            assert (out / "args" / f"{arg_type}.ckpt").exists()
            log = (out / "args" / f"{arg_type}.log.csv").read_text()
            assert log.startswith("epoch,loss,accuracy,mse")

    def test_same_seed_reproduces_checkpoints(self, tmp_path, bgi_dir):
        outs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            assert main(["train-args", "--schema", "bgi", "--train-dir", str(bgi_dir),
                         "--out", str(out), "--epochs", "2", *FIT_ARGS]) == 0
            outs.append(out)
        a = (outs[0] / "args" / "Target.ckpt").read_bytes()
        b = (outs[1] / "args" / "Target.ckpt").read_bytes()
        assert a == b

    def test_worker_pool_matches_in_process(self, tmp_path, bgi_dir, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="bioee.cli")
        outs, lines = {}, {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "worker_count", lambda n_jobs, w=workers: w)
            caplog.clear()
            out = tmp_path / f"workers{workers}"
            assert main(["train-args", "--schema", "bgi", "--train-dir", str(bgi_dir),
                         "--out", str(out), "--epochs", "2", *FIT_ARGS]) == 0
            run_log = (out / "run.log").read_text().splitlines()[-1]
            assert run_log.endswith(f" workers={workers}")
            outs[workers] = out / "args"
            lines[workers] = [r.getMessage() for r in caplog.records]  # this process's only
        names = sorted(p.name for p in outs[1].iterdir())
        assert names == sorted(p.name for p in outs[2].iterdir())
        assert len(names) == 2 * 11 + 1  # a checkpoint and an epoch log per role, the manifest
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
        assert len(lines[2]) == 11 and lines[2] == lines[1]
        assert multiprocessing.active_children() == []

    def test_malformed_embedding_file_is_json_error(self, tmp_path, bgi_dir, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("2 3\nalpha 1 2 3\nbeta 1 x 3\n", encoding="utf-8")
        rc = main(["train-args", "--schema", "bgi", "--train-dir", str(bgi_dir),
                   "--out", str(tmp_path / "out"), "--embedding", str(vectors)])
        assert rc == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "FormatError"
        assert "row 2" in error["message"]


class TestTrainEvents:
    def test_requires_argument_checkpoints(self, tmp_path, bgi_dir, capsys):
        rc = main(["train-events", "--schema", "bgi", "--train-dir", str(bgi_dir),
                   "--out", str(tmp_path / "out"), *FIT_ARGS])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"

    def test_one_checkpoint_per_event_type(self, tmp_path, bgi_dir):
        out = tmp_path / "out"
        base = ["--schema", "bgi", "--train-dir", str(bgi_dir), "--out", str(out),
                "--epochs", "2", *FIT_ARGS]
        assert main(["train-args", *base]) == 0
        assert main(["train-events", *base]) == 0
        manifest = json.loads((out / "events" / "manifest.json").read_text())
        assert len(manifest["event_types"]) == 9
        assert manifest["skipped"] == {}


@pytest.fixture(scope="module")
def trained_out(tmp_path_factory, bgi_dir):
    """Models overfit to the fixture corpus (argument epochs 30, event 40)."""
    out = tmp_path_factory.mktemp("trained") / "out"
    base = ["--schema", "bgi", "--train-dir", str(bgi_dir), "--out", str(out), *FIT_ARGS]
    assert main(["train-args", *base, "--epochs", "30"]) == 0
    assert main(["train-events", *base, "--epochs", "40"]) == 0
    return out


class TestPredict:
    def test_three_events_for_case_study_sentence(self, tmp_path, bgi_dir, case_dir, trained_out):
        rc = main(["predict", "--schema", "bgi", "--predict-dir", str(case_dir),
                   "--out", str(trained_out), *FIT_ARGS])
        assert rc == 0
        lines = (trained_out / "pred" / "PMID-10629188.a2").read_text().splitlines()
        got = set()
        for line in lines:
            _, spec = line.split("\t")
            etype, a1, a2 = spec.split()
            got.add((etype, a1.split(":")[1], a2.split(":")[1]))
        assert got == {
            ("ActionTarget", "T1", "T2"),
            ("Interaction", "T3", "T2"),
            ("Interaction", "T4", "T2"),
        }

    def test_pair_probability_dump(self, tmp_path, bgi_dir, case_dir, trained_out):
        assert main(["predict", "--schema", "bgi", "--predict-dir", str(case_dir),
                     "--out", str(trained_out), *FIT_ARGS]) == 0
        rows = (trained_out / "pred" / "pairs.tsv").read_text().splitlines()
        assert rows[0] == "sentence_id\tfirst\tsecond\tp_exists\tp_forward\tevent_type"
        # 12 ordered pairs x 9 event types
        assert len(rows) == 1 + 12 * 9
        cells = rows[1].split("\t")
        assert 0.0 <= float(cells[3]) <= 1.0 and 0.0 <= float(cells[4]) <= 1.0

    def test_document_without_pairs_gets_empty_file(self, tmp_path, bgi_dir, trained_out):
        lonely = tmp_path / "lonely"
        lonely.mkdir()
        (lonely / "LONE.txt").write_text("Nothing to pair here.", encoding="utf-8")
        (lonely / "LONE.a1").write_text("T1\tGene 0 7\tNothing\n", encoding="utf-8")
        assert main(["predict", "--schema", "bgi", "--predict-dir", str(lonely),
                     "--out", str(trained_out), *FIT_ARGS]) == 0
        assert (trained_out / "pred" / "LONE.a2").read_text() == ""

    def test_threshold_above_one_emits_nothing(self, tmp_path, bgi_dir, case_dir, trained_out):
        assert main(["predict", "--schema", "bgi", "--predict-dir", str(case_dir),
                     "--out", str(trained_out), "--threshold", "1.01", *FIT_ARGS]) == 0
        assert (trained_out / "pred" / "PMID-10629188.a2").read_text() == ""

    def test_predict_idempotent(self, bgi_dir, case_dir, trained_out):
        args = ["predict", "--schema", "bgi", "--predict-dir", str(case_dir),
                "--out", str(trained_out), *FIT_ARGS]
        assert main(args) == 0
        first = {
            rel: (trained_out / "pred" / rel).read_bytes()
            for rel in ("PMID-10629188.a2", "pairs.tsv")
        }
        assert main(args) == 0
        second = {
            rel: (trained_out / "pred" / rel).read_bytes()
            for rel in ("PMID-10629188.a2", "pairs.tsv")
        }
        assert first == second

    def test_one_chunked_embedding_pass_per_role(
        self, bgi_dir, trained_out, monkeypatch, in_process
    ):
        # Run in this process, so the spies see every shard.
        events = []  # ("shard", corpus) or (role, rows encoded in one pass)
        read, encode = cli.read_corpus_files, vecent._encode

        def reading(files, schema):
            corpus = read(files, schema)
            events.append(("shard", corpus))
            return corpus

        def encoding(model, ids, vectors, caches=(None, None)):
            events.append((model.arg_type, len(ids)))
            return encode(model, ids, vectors, caches)

        monkeypatch.setattr(cli, "read_corpus_files", reading)
        monkeypatch.setattr(vecent, "_encode", encoding)
        assert main(["predict", "--schema", "bgi", "--predict-dir", str(bgi_dir),
                     "--out", str(trained_out), *FIT_ARGS]) == 0
        shards = []  # (corpus, role -> rows per encoder pass)
        for kind, value in events:
            if kind == "shard":
                shards.append((value, {}))
            else:
                shards[-1][1].setdefault(kind, []).append(value)
        whole = load_corpus_dir(bgi_dir, load_schema("bgi"))
        assert len(shards) == min(cli._PREDICT_SHARDS, len(whole.documents)) > 1
        assert [d.id for corpus, _ in shards for d in corpus.documents] == [
            d.id for d in whole.documents
        ]
        roles = {r for et in whole.task_schema.event_types for r in whole.task_schema.roles(et)}
        for corpus, passes in shards:
            n = sum(
                len(sent.entities)
                for doc in corpus.documents
                for sent in doc.sentences
                if len(sent.entities) >= 2
            )
            assert set(passes) == (roles if n else set())
            for role, sizes in passes.items():
                assert sum(sizes) == n, role
                assert len(sizes) <= math.ceil(n / ndiff.INFERENCE_CHUNK), role

    @pytest.fixture(scope="class")
    def many_dir(self, tmp_path_factory):
        """The BGI fixture documents twice over, so that shards hold several
        documents."""
        docs = fixtures.bgi_documents()
        docs += [(f"{doc_id}-copy", *rest) for doc_id, *rest in docs]
        return fixtures.write_corpus_dir(tmp_path_factory.mktemp("many") / "many", docs)

    @staticmethod
    def _fresh_out(trained_out, out):
        for stage in ("args", "events"):
            shutil.copytree(trained_out / stage, out / stage)
        return out

    def test_worker_count_leaves_outputs_unchanged(self, tmp_path, many_dir, trained_out,
                                                   monkeypatch):
        outs = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "worker_count", lambda n_jobs, w=workers: w)
            out = self._fresh_out(trained_out, tmp_path / f"workers{workers}")
            assert main(["predict", "--schema", "bgi", "--predict-dir", str(many_dir),
                         "--out", str(out), *FIT_ARGS]) == 0
            run_log = (out / "run.log").read_text().splitlines()[-1]
            assert run_log.endswith(f" workers={workers}")
            outs[workers] = out / "pred"
        names = sorted(p.name for p in outs[1].iterdir())
        assert names == sorted(p.name for p in outs[2].iterdir())
        assert len(names) == 2 * len(fixtures.bgi_documents()) + 1  # .a2 files, pairs.tsv
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_document_in_last_shard_is_json_error(self, tmp_path, many_dir, trained_out,
                                                      monkeypatch, capsys, workers):
        bad_dir = tmp_path / "bad"
        shutil.copytree(many_dir, bad_dir)
        last = list_corpus_dir(bad_dir)[-1][2]  # the .a1 of the last document by id
        last.write_text(last.read_text() + "T99\tGene 0\n", encoding="utf-8")
        monkeypatch.setattr(pool, "worker_count", lambda n_jobs: workers)
        out = self._fresh_out(trained_out, tmp_path / "out")
        assert main(["predict", "--schema", "bgi", "--predict-dir", str(bad_dir),
                     "--out", str(out), *FIT_ARGS]) == 1
        error = json.loads(capsys.readouterr().err)
        n_lines = len(last.read_text().splitlines())
        message = "entity line must have 3 tab-separated columns, got 2"
        assert error == {
            "error": "ParseError",
            "message": f"{last}:line {n_lines}: {message}",
            "file": str(last),
            "line": n_lines,
        }
        assert not (out / "pred").exists() or list((out / "pred").iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_gold_events_are_not_read(self, tmp_path, many_dir, trained_out):
        # A corrupt gold .a2 next to each document changes nothing: pred/ is
        # byte-identical to that of the same documents without .a2 files.
        preds = {}
        for variant in ("corrupt", "none"):
            corpus_dir = tmp_path / variant
            shutil.copytree(many_dir, corpus_dir)
            for a2 in corpus_dir.glob("*.a2"):
                if variant == "none":
                    a2.unlink()
                else:
                    a2.write_bytes(b"R1\tActivation Source:T404\n\xff\n")
            if variant == "corrupt":
                with pytest.raises(ParseError):
                    load_corpus_dir(corpus_dir, load_schema("bgi"))
            out = self._fresh_out(trained_out, tmp_path / f"out-{variant}")
            assert main(["predict", "--schema", "bgi", "--predict-dir", str(corpus_dir),
                         "--out", str(out), *FIT_ARGS]) == 0
            preds[variant] = {p.name: p.read_bytes() for p in (out / "pred").iterdir()}
        assert len(preds["none"]) == 2 * len(fixtures.bgi_documents()) + 1
        assert preds["corrupt"] == preds["none"]

    def test_sentence_slices_match_per_sentence_decoding(self, tmp_path):
        # BB-2's second sentence holds one entity, between sentences with pairs.
        bb_dir = fixtures.write_corpus_dir(tmp_path / "bb", fixtures.bb_documents())
        out = tmp_path / "out"
        base = ["--schema", "bb", "--out", str(out), *FIT_ARGS]
        assert main(["train-args", "--train-dir", str(bb_dir), *base, "--epochs", "30"]) == 0
        assert main(["train-events", "--train-dir", str(bb_dir), *base, "--epochs", "40"]) == 0
        assert main(["predict", "--predict-dir", str(bb_dir), *base]) == 0
        corpus = load_corpus_dir(bb_dir, load_schema("bb"))
        sizes = [len(sent.entities) for doc in corpus.documents for sent in doc.sentences]
        assert sizes == [2, 3, 1, 2]

        # The whole-corpus scores, as predict computes them.
        table = EmbeddingTable(24, seed=3)
        windows = vecent.build_entity_windows(corpus, 4, table)
        roles = corpus.task_schema.roles("Lives_In")
        arg_models = {r: vecent.load_argument_model(out / "args" / f"{r}.ckpt", r) for r in roles}
        model = vecom.load_event_model(out / "events" / "Lives_In.ckpt")
        entities, pairs = vecom.candidate_pairs(corpus)
        embeddings = vecom.embed_entities(arg_models, windows)
        p_exists, p_forward = vecom.event_forward_batch(model, embeddings, pairs, roles)

        # pairs.tsv: n(n-1) rows per sentence, in document and sentence order.
        rows = [r.split("\t") for r in (out / "pred" / "pairs.tsv").read_text().splitlines()[1:]]
        assert len(rows) == sum(n * (n - 1) for n in sizes)
        assert [(r[0], r[1], r[2], r[5]) for r in rows] == [
            (sent.id, a.id, b.id, "Lives_In")
            for doc in corpus.documents
            for sent in doc.sentences
            for a in sent.entities
            for b in sent.entities
            if a is not b
        ]
        assert [r[3] for r in rows] == [f"{p:.6f}" for p in p_exists.tolist()]

        # Each .a2: the events of each of its sentences, decoded on its own.
        sentence_of = [(entities[a].doc_id, entities[a].sentence_index) for a in pairs[:, 0]]
        n_events = 0
        for doc in corpus.documents:
            events = []
            for sidx in range(len(doc.sentences)):
                idx = [i for i, key in enumerate(sentence_of) if key == (doc.id, sidx)]
                events += vecom.decode_events(
                    entities, pairs[idx], p_exists[idx], p_forward[idx], "Lives_In", 0.5
                )
            n_events += len(events)
            expected = write_standoff(events, corpus.task_schema)
            assert (out / "pred" / f"{doc.id}.a2").read_text() == expected, doc.id
        assert n_events > 0

    def test_missing_event_checkpoints(self, tmp_path, bgi_dir, case_dir, capsys):
        out = tmp_path / "noevents"
        base = ["--schema", "bgi", "--train-dir", str(bgi_dir), "--out", str(out),
                "--epochs", "1", *FIT_ARGS]
        assert main(["train-args", *base]) == 0
        rc = main(["predict", "--schema", "bgi", "--predict-dir", str(case_dir),
                   "--out", str(out), *FIT_ARGS])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"


class TestSavedArgumentModels:
    """A train-args output used the way ``benchmarks/workloads.py`` scores it:
    each role's checkpoint loaded by path and role, then windows scored."""

    def test_load_then_predict_probs(self, bgi_dir, trained_out):
        manifest = json.loads((trained_out / "args" / "manifest.json").read_text())
        table = embed.EmbeddingTable(
            dim=manifest["dim"],
            oov_policy=manifest["embedding"]["oov"],
            seed=manifest["embedding"]["seed"],
        )
        corpus = load_corpus_dir(bgi_dir, load_schema("bgi"))
        windows = vecent.build_entity_windows(corpus, manifest["u"], table)
        qids = sorted(windows)
        roles = corpus.argument_roles()
        for role in manifest["argument_types"]:
            model = vecent.load_argument_model(trained_out / "args" / f"{role}.ckpt", role)
            probs = vecent.predict_probs(model, [windows[q] for q in qids])
            assert probs.shape == (len(qids),) and np.all((probs > 0) & (probs < 1)), role
            positive = np.array([role in roles.get(q, ()) for q in qids])
            assert probs[positive].mean() > probs[~positive].mean(), role


def _without(args, *flags):
    """``args`` without each of ``flags`` and the value after it."""
    out = list(args)
    for flag in flags:
        at = out.index(flag)
        del out[at : at + 2]
    return out


class TestInputsFromManifest:
    """train-events and predict rebuild the argument models' window and word
    vectors from args/manifest.json, whatever their own flags say."""

    @staticmethod
    def _outputs(out):
        paths = sorted(p for stage in ("events", "pred") for p in (out / stage).iterdir())
        return {str(p.relative_to(out)): p.read_bytes() for p in paths}

    @pytest.mark.parametrize(
        "dropped",
        [("--oov-seed",), ("--embedding", "--dim", "--oov-seed", "--window")],
        ids=["oov_seed", "window_and_embedding"],
    )
    def test_later_commands_ignore_embedding_flags(self, tmp_path, bgi_dir, case_dir, dropped):
        trained = tmp_path / "trained"
        base = ["--schema", "bgi", "--train-dir", str(bgi_dir), "--predict-dir", str(case_dir),
                "--epochs", "2"]
        assert main(["train-args", *base, "--out", str(trained), *FIT_ARGS]) == 0
        outputs = {}
        for name, later in (("repeated", FIT_ARGS), ("dropped", _without(FIT_ARGS, *dropped))):
            out = tmp_path / name
            shutil.copytree(trained / "args", out / "args")
            assert main(["train-events", *base, "--out", str(out), *later]) == 0
            assert main(["predict", *base, "--out", str(out), *later]) == 0
            outputs[name] = self._outputs(out)
        assert outputs["dropped"] == outputs["repeated"]

    def test_predict_reads_word2vec_table_of_manifest(self, tmp_path, bgi_dir, case_dir):
        # Every other word of the corpus has a vector; the rest are zero (oov=zero).
        corpus = load_corpus_dir(bgi_dir, load_schema("bgi"))
        words = sorted({t.text for doc in corpus.documents for sent in doc.sentences
                        for t in sent.tokens})[::2]
        rng = np.random.default_rng(5)
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(
            f"{len(words)} 32\n"
            + "".join(w + "".join(f" {v:.4f}" for v in rng.standard_normal(32)) + "\n"
                      for w in words),
            encoding="utf-8",
        )
        embedding = ["--embedding", str(vectors), "--embedding-format", "text", "--oov", "zero"]
        out = tmp_path / "out"
        base = ["--schema", "bgi", "--train-dir", str(bgi_dir), "--predict-dir", str(case_dir),
                "--out", str(out), "--epochs", "2", *_without(FIT_ARGS, "--embedding", "--dim")]
        assert main(["train-args", *base, *embedding]) == 0
        assert json.loads((out / "args" / "manifest.json").read_text())["dim"] == 32
        assert main(["train-events", *base, *embedding]) == 0
        preds = {}
        for name, flags in (("repeated", embedding), ("dropped", [])):
            assert main(["predict", *base, *flags]) == 0
            preds[name] = {p.name: p.read_bytes() for p in (out / "pred").iterdir()}
        assert preds["dropped"] == preds["repeated"]


def _rewrite(edit):
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def _edit_tensors(edit):
    """Rewrite a checkpoint with ``edit(tensors)`` applied to its tensors."""

    def damage(path):
        tensors = ndiff.load_tensors(path)
        edit(tensors)
        ndiff.save_tensors(path, tensors)

    return damage


def _longer_fwd_bias(tensors):
    tensors["fwd.b"] = np.append(tensors["fwd.b"], 0.0)


def _lstm_rows_not_multiple_of_4(tensors):
    """One extra row in both cells: 4H + 1 rows, with every other shape fitting
    H = (4H + 1) // 4."""
    for cell in ("fwd", "bwd"):
        tensors[f"{cell}.A"] = np.vstack([tensors[f"{cell}.A"], tensors[f"{cell}.A"][:1]])
        tensors[f"{cell}.b"] = np.append(tensors[f"{cell}.b"], 0.0)


def _lstm_inputs_one_short(tensors):
    for cell in ("fwd", "bwd"):
        tensors[f"{cell}.A"] = tensors[f"{cell}.A"][:, 1:]


def _per_gate_names(tensors):
    """The layout of earlier versions: one dense layer per LSTM gate."""
    gates = ("input_gate", "forget_gate", "output_gate", "candidate")
    for cell in ("fwd", "bwd"):
        for part in ("A", "b"):
            blocks = np.split(tensors.pop(f"{cell}.{part}"), 4)
            for gate, block in zip(gates, blocks):
                tensors[f"{cell}.{gate}.{part}"] = block


def _exist_f2_one_column_short(tensors):
    tensors["exist_f2.A"] = tensors["exist_f2.A"][:, 1:]


def _dir_f1_input_one_short(tensors):
    tensors["dir_f1.A"] = tensors["dir_f1.A"][:, 1:]


def _event_inputs_one_short(tensors):
    """Both heads still agree, but no longer on two composed embeddings."""
    for head in ("exist_f1", "dir_f1"):
        tensors[f"{head}.A"] = tensors[f"{head}.A"][:, 1:]


def _first_shape(shape):
    """Replace the first tensor's shape header with ``shape``."""

    def damage(path):
        blob = path.read_bytes()
        (name_len,) = struct.unpack_from("<H", blob, 12)
        at = 14 + name_len  # the first tensor's ndim byte
        rest = blob[at + 1 + 4 * blob[at] :]
        path.write_bytes(blob[:at] + struct.pack(f"<B{len(shape)}I", len(shape), *shape) + rest)

    return damage


class TestBadCheckpoints:
    @pytest.mark.parametrize(
        "damage, detail",
        [
            (_rewrite(lambda blob: blob[:10]), None),
            (_rewrite(lambda blob: blob[:14]), None),
            (_rewrite(lambda blob: blob[:-5]), None),
            (_rewrite(lambda blob: blob[:14] + b"\xff" + blob[15:]), None),  # first name byte
            (_edit_tensors(lambda t: t.pop("f2.b")), "'f2.b'"),
            (_first_shape((2**32 - 1, 2**32 - 1)), None),  # its element count wraps in int64
            (_first_shape((2**16,) * 5), None),  # 2**80 elements wrap to 0 in int64
            (_edit_tensors(_longer_fwd_bias), "'fwd'"),
            (_edit_tensors(_lstm_rows_not_multiple_of_4), "argument model"),
            (_edit_tensors(_lstm_inputs_one_short), "manifest's dim"),
            (_edit_tensors(_per_gate_names), "'fwd.A'"),
        ],
        ids=["cut_at_10", "cut_at_14", "five_bytes_short", "name_not_utf8", "missing_f2_b",
             "shape_2x_uint32_max", "shape_5x_2_16", "bias_one_too_long",
             "lstm_rows_not_multiple_of_4", "lstm_input_not_manifest_dim", "per_gate_names"],
    )
    def test_predict_reports_json_error(
        self, tmp_path, case_dir, trained_out, damage, detail, capsys
    ):
        out = tmp_path / "out"
        shutil.copytree(trained_out / "args", out / "args")
        shutil.copytree(trained_out / "events", out / "events")
        damage(out / "args" / "Action.ckpt")
        rc = main(["predict", "--schema", "bgi", "--predict-dir", str(case_dir),
                   "--out", str(out), *FIT_ARGS])
        assert rc == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "TrainingError"
        assert "Action.ckpt" in error["message"]
        assert detail is None or detail in error["message"]

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (_exist_f2_one_column_short, "event model"),
            (_dir_f1_input_one_short, "event model"),
            (_event_inputs_one_short, "composed"),
        ],
        ids=["exist_f2_one_column_short", "dir_f1_input_one_short", "event_inputs_one_short"],
    )
    def test_predict_reports_bad_event_checkpoint(
        self, tmp_path, case_dir, trained_out, edit, detail, capsys
    ):
        out = tmp_path / "out"
        shutil.copytree(trained_out / "args", out / "args")
        shutil.copytree(trained_out / "events", out / "events")
        _edit_tensors(edit)(out / "events" / "Interaction.ckpt")
        rc = main(["predict", "--schema", "bgi", "--predict-dir", str(case_dir),
                   "--out", str(out), *FIT_ARGS])
        assert rc == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "TrainingError"
        assert "Interaction.ckpt" in error["message"]
        assert detail in error["message"]


def _drop_manifest_key(key):
    def damage(manifest):
        manifest.pop(key)
        return json.dumps(manifest)

    return damage


class TestBadManifest:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda _: "{",
            *(_drop_manifest_key(key) for key in ("argument_types", "dim", "u", "embedding")),
        ],
        ids=["not_json", "no_argument_types", "no_dim", "no_u", "no_embedding"],
    )
    def test_predict_reports_json_error(self, tmp_path, case_dir, trained_out, damage, capsys):
        out = tmp_path / "out"
        shutil.copytree(trained_out / "args", out / "args")
        shutil.copytree(trained_out / "events", out / "events")
        path = out / "args" / "manifest.json"
        path.write_text(damage(json.loads(path.read_text())), encoding="utf-8")
        rc = main(["predict", "--schema", "bgi", "--predict-dir", str(case_dir),
                   "--out", str(out), *FIT_ARGS])
        assert rc == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigurationError"
        assert str(path) in error["message"]

    @pytest.mark.parametrize(
        "stage, key, value",
        [
            ("args", "u", 0),
            ("args", "u", "10"),
            ("args", "u", 2.5),
            ("args", "dim", True),
            ("args", "argument_types", 5),
            ("events", "event_types", 5),
            ("args", "embedding", "hashed"),
            ("args", "embedding", {"source": "hashed", "format": "text", "oov": "hashed",
                                   "seed": "3"}),
        ],
        ids=["u_zero", "u_string", "u_float", "dim_bool", "argument_types_int",
             "event_types_int", "embedding_not_object", "embedding_seed_string"],
    )
    def test_bad_values_report_json_error(
        self, tmp_path, case_dir, trained_out, stage, key, value, capsys
    ):
        out = tmp_path / "out"
        shutil.copytree(trained_out / "args", out / "args")
        shutil.copytree(trained_out / "events", out / "events")
        path = out / stage / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        rc = main(["predict", "--schema", "bgi", "--predict-dir", str(case_dir),
                   "--out", str(out), *FIT_ARGS])
        assert rc == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigurationError"
        assert str(path) in error["message"] and repr(key) in error["message"]


class TestCrossval:
    SYNTH_ARGS = [
        "--embedding", "hashed", "--dim", "8", "--window", "2",
        "--lstm-hidden", "4", "--arg-mlp-hidden", "4", "--event-mlp-hidden", "4",
        "--batch", "16", "--epochs", "2", "--seed", "11",
    ]

    @pytest.fixture()
    def synth_dir(self, tmp_path):
        schema_path = synth.write_synthetic_corpus(tmp_path / "synth", n_sentences=50, seed=13)
        return tmp_path / "synth", schema_path

    def _run(self, corpus_dir, schema_path, out, *extra):
        return main(["crossval", "--schema", str(schema_path), "--train-dir", str(corpus_dir),
                     "--out", str(out), *self.SYNTH_ARGS, *extra])

    def test_artifacts_written(self, tmp_path, synth_dir):
        corpus_dir, schema_path = synth_dir
        out = tmp_path / "out"
        assert self._run(corpus_dir, schema_path, out) == 0
        cv = out / "crossval"
        payload = json.loads((cv / "metrics.json").read_text())
        assert set(payload["arguments"]) == {"Activator", "Target"}
        assert set(payload["events"]) == {"Activation"}
        assert (cv / "metrics.csv").exists()
        assert (cv / "timings.csv").exists()
        assert (cv / "curves" / "event_Activation_roc.tsv").exists()
        assert (cv / "curves" / "micro_events_prc.tsv").exists()
        overlap = json.loads((cv / "overlap.json").read_text())
        seen = overlap["Activation"]
        assert seen["test_entity_occurrences"] == 2 * payload["events"]["Activation"]["n_pairs"]
        assert 0 <= seen["seen_in_training"] <= seen["test_entity_occurrences"]

    def test_reports_byte_identical_across_runs(self, tmp_path, synth_dir):
        corpus_dir, schema_path = synth_dir
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert self._run(corpus_dir, schema_path, out) == 0
            outs.append(out / "crossval")
        for rel in ("metrics.json", "metrics.csv", "curves/event_Activation_roc.tsv",
                    "curves/arg_Activator_prc.tsv"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    @pytest.mark.usefixtures("in_process")
    def test_one_embedding_pass_per_fold_and_role(self, tmp_path, synth_dir, monkeypatch):
        calls = {}
        embed_windows = vecent.argument_embeddings

        def counting(model, windows):
            calls.setdefault(model.arg_type, []).append(len(windows))
            return embed_windows(model, windows)

        def scoring_windows(model, windows):
            raise AssertionError("crossval scores the embeddings it already has")

        monkeypatch.setattr(vecent, "argument_embeddings", counting)
        monkeypatch.setattr(vecent, "predict_probs", scoring_windows)
        corpus_dir, schema_path = synth_dir
        out = tmp_path / "out"
        assert self._run(corpus_dir, schema_path, out) == 0
        payload = json.loads((out / "crossval" / "metrics.json").read_text())
        assert set(calls) == set(payload["arguments"]) == {"Activator", "Target"}
        for role, sizes in calls.items():
            assert len(sizes) == payload["arguments"][role]["k"], role
            # Every synthetic sentence holds a pair, so each pass is the pair entities.
            assert set(sizes) == {payload["arguments"][role]["n_samples"]}, role


    @pytest.mark.parametrize("extra", [(), ("--doc-level-cv",)], ids=["sentences", "documents"])
    def test_worker_pool_matches_in_process(self, tmp_path, synth_dir, monkeypatch, extra):
        corpus_dir, schema_path = synth_dir
        outs = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "worker_count", lambda n_jobs, w=workers: w)
            out = tmp_path / f"workers{workers}"
            assert self._run(corpus_dir, schema_path, out, *extra) == 0
            run_log = (out / "run.log").read_text().splitlines()[-1]
            assert run_log.endswith(f" workers={workers}")
            outs[workers] = out / "crossval"
        # timings.csv holds wall seconds, the one file that may differ.
        files = sorted(
            str(p.relative_to(outs[1])) for p in outs[1].rglob("*")
            if p.is_file() and p.name != "timings.csv"
        )
        assert files == sorted(
            str(p.relative_to(outs[2])) for p in outs[2].rglob("*")
            if p.is_file() and p.name != "timings.csv"
        )
        assert {"metrics.json", "metrics.csv", "overlap.json"} < set(files)
        assert len([f for f in files if f.startswith("curves")]) == 10
        for rel in files:
            assert (outs[1] / rel).read_bytes() == (outs[2] / rel).read_bytes(), rel
        assert multiprocessing.active_children() == []

    @staticmethod
    def _act_in_fold_3(monkeypatch, act):
        """``train_argument_model`` calls ``act()`` when it trains a role of
        fold 3, which it tells by the fold's generator; the patch is made
        before the fork, so the workers inherit it."""
        train = vecent.train_argument_model

        def spy(windows, labels, hyper=None, rng=None, arg_type=""):
            fold_3 = evalkit.child_rng(11, f"train/arg/{arg_type}/3")  # SYNTH_ARGS' seed
            if rng.bit_generator.state == fold_3.bit_generator.state:
                act()
            return train(windows, labels, hyper, rng=rng, arg_type=arg_type)

        monkeypatch.setattr(vecent, "train_argument_model", spy)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_in_a_fold_is_json_error(self, tmp_path, synth_dir, monkeypatch, capsys,
                                           workers):
        def diverge():
            raise TrainingError("fold 3 diverged")

        monkeypatch.setattr(pool, "worker_count", lambda n_jobs: workers)
        self._act_in_fold_3(monkeypatch, diverge)
        corpus_dir, schema_path = synth_dir
        assert self._run(corpus_dir, schema_path, tmp_path / "out") == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "TrainingError", "message": "fold 3 diverged"}
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_json_error(self, tmp_path, synth_dir, monkeypatch, capsys):
        monkeypatch.setattr(pool, "worker_count", lambda n_jobs: 2)
        self._act_in_fold_3(monkeypatch, lambda: os._exit(3))
        corpus_dir, schema_path = synth_dir
        assert self._run(corpus_dir, schema_path, tmp_path / "out") == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "TrainingError"
        assert "worker process died" in error["message"]
        assert multiprocessing.active_children() == []


ON_GLIBC = platform.libc_ver()[0] == "glibc"


class TestHeapPolicy:
    def test_run_log_names_heap_policy(self, tmp_path, bgi_dir):
        out = tmp_path / "out"
        assert main(["ingest", "--schema", "bgi", "--train-dir", str(bgi_dir),
                     "--out", str(out)]) == 0
        line = (out / "run.log").read_text().splitlines()[-1]
        assert line.endswith(" heap=pinned" if ON_GLIBC else " heap=default")

    @pytest.mark.skipif(not ON_GLIBC, reason="the heap policy is set through glibc's mallopt")
    def test_freed_arrays_stay_mapped(self):
        assert cli.pin_heap() == cli.pin_heap() == "pinned"

        def churn(rounds):
            for _ in range(rounds):
                arrays = [np.ones(1 << 17) for _ in range(30)]  # 30 touched 1 MiB arrays
                del arrays

        churn(2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        churn(5)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


class TestGradcheckCommand:
    def test_exit_zero_and_report(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "composed_argument_loss" in out
        assert "worst" in out

    def test_wrong_gradient_exits_one(self, monkeypatch, capsys):
        bptt = ndiff.lstm_bptt

        def off_by_a_thousandth(cell, cache, grad):
            dA, db = bptt(cell, cache, grad)
            return dA * 1.001, db

        monkeypatch.setattr(ndiff, "lstm_bptt", off_by_a_thousandth)
        assert main(["gradcheck"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = {line.split()[1] for line in lines if line.startswith("FAIL")}
        assert failed == {
            "lstm_last_batch", "lstm_last_padded", "lstm_last_ids", "composed_argument_loss"
        }
