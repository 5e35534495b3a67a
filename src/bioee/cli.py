"""Pipeline driver: configuration, commands, artifacts on disk.

Commands: ingest, train-args, train-events, predict, crossval, gradcheck.
Every command reads an optional INI config plus flag overrides, dumps the
resolved effective config next to its outputs, and appends a timestamped
line to a sidecar run log (the only place timestamps live, so reruns with
the same seed are byte-identical elsewhere).
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import json
import logging
import math
import platform
import sys
import time
import typing
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from . import embed, evalkit, gradcheck, ndiff, pool, vecent, vecom
from .corpus import Corpus, corpus_stats, list_corpus_dir, load_corpus_dir, load_schema
from .corpus import read_corpus_files, write_standoff
from .errors import BioeeError, ConfigurationError, TrainingError, TrainingSetupError
from .evalkit import child_rng
from .vecent import Hyper

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class RunConfig(Hyper):
    """Every setting of a run: the training settings of ``Hyper`` plus the
    task, embedding and run settings. Each field is one INI key and one
    ``--field-name`` flag."""

    schema: str = "bb"
    train_dir: str = ""
    predict_dir: str = ""
    embedding: str = "hashed"  # "hashed" or a path to a word2vec file
    embedding_format: str = "text"
    oov: str = "hashed"
    oov_seed: int = 0
    dim: int = 200
    seed: int = 7
    out: str = "out"
    doc_level_cv: bool = False


_INI_LAYOUT = {
    "task": ("schema", "train_dir", "predict_dir"),
    "embedding": ("embedding", "embedding_format", "oov", "oov_seed", "dim"),
    "hyper": tuple(f.name for f in dataclasses.fields(Hyper)),
    "run": ("seed", "out", "doc_level_cv"),
}

_FIELD_TYPE = typing.get_type_hints(RunConfig)  # field -> int, float, str or bool


def config_from_ini(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    cfg = base or RunConfig()
    parser = configparser.ConfigParser(interpolation=None)  # values are taken literally
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config file {path} is not an INI file ({exc})") from None
    if not read:
        raise ConfigurationError(f"config file {path} not found or unreadable")
    known = {key: section for section, keys in _INI_LAYOUT.items() for key in keys}
    for section in parser.sections():
        if section not in _INI_LAYOUT:
            raise ConfigurationError(f"{path}: unknown config section [{section}]")
        for key, raw in parser.items(section):
            if known.get(key) != section:
                raise ConfigurationError(f"{path}: unknown config key {key!r} in [{section}]")
            ftype = _FIELD_TYPE[key]
            try:
                value = parser.getboolean(section, key) if ftype is bool else ftype(raw)
            except ValueError:
                raise ConfigurationError(
                    f"{path}: [{section}] {key} = {raw!r} is not a valid {ftype.__name__}"
                ) from None
            setattr(cfg, key, value)
    return cfg


def config_to_ini(cfg: RunConfig) -> str:
    lines = []
    for section, keys in _INI_LAYOUT.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {getattr(cfg, key)}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared plumbing


def _embedding_record(cfg: RunConfig) -> dict:
    """The embedding settings of ``cfg`` as ``train-args`` records them."""
    return dict(source=cfg.embedding, format=cfg.embedding_format, oov=cfg.oov, seed=cfg.oov_seed)


def _resolve_table(embedding: dict, dim: int) -> embed.EmbeddingTable:
    """The table an embedding record names; ``dim`` sizes a hashed table."""
    source, oov, seed = embedding["source"], embedding["oov"], embedding["seed"]
    if source == "hashed":
        return embed.EmbeddingTable(dim=dim, oov_policy=oov, seed=seed)
    return embed.load_table(source, format=embedding["format"], oov_policy=oov, seed=seed)


def _train_corpus(cfg: RunConfig) -> Corpus:
    if not cfg.train_dir:
        raise ConfigurationError("no training corpus directory configured (train_dir)")
    return load_corpus_dir(cfg.train_dir, load_schema(cfg.schema))


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# glibc's mallopt parameters: free() gives the top of the heap back to the
# kernel once more than M_TRIM_THRESHOLD bytes of it are free, and blocks of
# at least M_MMAP_THRESHOLD bytes get a mapping of their own. Both would
# otherwise adapt to the largest block freed so far, so each training step's
# 0.5-5 MB temporaries were unmapped and faulted in again step after step.
# M_ARENA_MAX = 1 gives every thread the main heap: the worker pool's result
# thread unpickles train-args' models, and in an arena of its own that
# memory stayed resident where the main thread could not reuse it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_HEAP_POLICY = (
    (_M_MMAP_THRESHOLD, 32 << 20),
    (_M_TRIM_THRESHOLD, 128 << 20),
    (_M_ARENA_MAX, 1),
)
heap_policy = "default"  # "pinned" once pin_heap() has set _HEAP_POLICY


def pin_heap() -> str:
    """Fix glibc's heap thresholds so freed temporaries stay mapped (up to
    128 MiB of them), and give every thread the main heap; idempotent, and a
    no-op off glibc. Returns the policy now in force, "pinned" or
    "default"."""
    global heap_policy
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        if all(mallopt(param, value) == 1 for param, value in _HEAP_POLICY):
            heap_policy = "pinned"
    return heap_policy


def _finish(cfg: RunConfig, command: str, started: float, workers: int | None = None) -> None:
    """Write the effective config and append the run-log line, which ends
    with ``workers=N`` for a command that runs its jobs in worker processes."""
    out = _outdir(cfg)
    (out / "effective.ini").write_text(config_to_ini(cfg), encoding="utf-8")
    stamp = datetime.now().isoformat(timespec="seconds")
    line = f"{stamp} {command} finished in {time.perf_counter() - started:.2f}s heap={heap_policy}"
    if workers is not None:
        line += f" workers={workers}"
    with open(out / "run.log", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# Manifest entry -> (test, wording) of its valid values.
_NAMES = (lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v), "a list of names")
_COUNT = (lambda v: type(v) is int and v >= 1, "an int >= 1")  # bool is an int subclass
_EMBEDDING = (
    lambda v: isinstance(v, dict)
    and isinstance(v.get("source"), str)
    and v.get("format") in embed.FORMATS
    and v.get("oov") in embed.OOV_POLICIES
    and type(v.get("seed")) is int,
    "an object of a source path or 'hashed', a format, an oov policy and an int seed",
)


def _save_stage(directory: Path, trained: dict, manifest: dict) -> None:
    """Write each trained ``name -> (model, epoch log)`` as ``<name>.ckpt``
    and ``<name>.log.csv``, then the stage's ``manifest.json``."""
    directory.mkdir(exist_ok=True)
    for name, (model, log) in trained.items():
        ndiff.save_tensors(directory / f"{name}.ckpt", model.parameters())
        (directory / f"{name}.log.csv").write_text(vecent.epoch_log_csv(log), encoding="utf-8")
    _write_json(directory / "manifest.json", manifest)


def _load_stage(cfg: RunConfig, stage: str, noun: str, load, required: dict) -> tuple[dict, dict]:
    """Every model that ``train-<stage>`` listed in ``<out>/<stage>/manifest.json``
    under ``<noun>_types``, by name, each read by ``load(path, name, manifest)``,
    and the manifest, whose ``required`` entries must pass their tests."""
    directory = Path(cfg.out) / stage
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ConfigurationError(
            f"no {noun} checkpoints at {directory} (run train-{stage} first)"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigurationError(f"{manifest_path}: not a JSON manifest ({exc})") from None
    for key, (valid, wording) in {f"{noun}_types": _NAMES, **required}.items():
        if not isinstance(manifest, dict) or key not in manifest:
            raise ConfigurationError(f"{manifest_path}: manifest has no {key!r} entry")
        if not valid(manifest[key]):
            raise ConfigurationError(
                f"{manifest_path}: manifest entry {key!r} must be {wording}, "
                f"got {manifest[key]!r}"
            )
    models = {}
    for name in manifest[f"{noun}_types"]:
        path = directory / f"{name}.ckpt"
        if not path.exists():
            raise ConfigurationError(f"missing {noun} checkpoint {path}")
        models[name] = load(path, name, manifest)
    return models, manifest


def _load_argument_models(cfg: RunConfig) -> tuple[dict, int, embed.EmbeddingTable]:
    """The argument models, their window size u and the embedding table
    they were trained on, rebuilt from their manifest, not from ``cfg``."""

    def load(path, name, manifest):
        model, dim = vecent.load_argument_model(path, name), manifest["dim"]
        if model.input_size != dim:
            raise TrainingError(
                f"{path}: LSTM input size {model.input_size} is not the manifest's dim {dim}"
            )
        return model

    required = {"dim": _COUNT, "u": _COUNT, "embedding": _EMBEDDING}
    models, manifest = _load_stage(cfg, "args", "argument", load, required)
    dim = manifest["dim"]
    table = _resolve_table(manifest["embedding"], dim)
    if table.dim != dim:
        raise ConfigurationError(f"embedding dim {table.dim} does not match checkpoints ({dim})")
    return models, manifest["u"], table


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(cfg: RunConfig) -> int:
    started = time.perf_counter()
    corpus = _train_corpus(cfg)
    stats = corpus_stats(corpus)
    stats["window_padding"] = vecent.window_padding(corpus, cfg.window)
    out = _outdir(cfg)
    _write_json(out / "stats.json", stats)
    print(json.dumps(stats, indent=2, sort_keys=True))
    _finish(cfg, "ingest", started)
    return 0


def cmd_train_args(cfg: RunConfig) -> int:
    started = time.perf_counter()
    corpus = _train_corpus(cfg)
    embedding = _embedding_record(cfg)
    table = _resolve_table(embedding, cfg.dim)
    args_dir = _outdir(cfg) / "args"

    windows = vecent.build_entity_windows(corpus, cfg.window, table)
    qids = sorted(windows)
    ordered = [windows[q] for q in qids]
    labels = vecent.argument_labels(corpus, qids)

    def train(arg_type):
        rng = child_rng(cfg.seed, f"cmd/train-args/{arg_type}")
        return vecent.train_argument_model(
            ordered, labels[arg_type], cfg, rng=rng, arg_type=arg_type
        )

    # The roles train in worker processes; this process writes every file.
    workers = pool.worker_count(len(labels))
    trained = dict(zip(labels, pool.map_in_workers(train, list(labels), workers)))
    for arg_type in trained:
        logger.info("trained argument model %s on %d samples", arg_type, len(ordered))
    manifest = {
        "task": cfg.schema,
        "argument_types": list(trained),
        "u": cfg.window,
        "dim": table.dim,
        "lstm_hidden": cfg.lstm_hidden,
        "mlp_hidden": cfg.arg_mlp_hidden,
        "dropout": cfg.dropout,
        "embedding": embedding,
    }
    _save_stage(args_dir, trained, manifest)
    print(f"trained {len(trained)} argument models -> {args_dir}")
    _finish(cfg, "train-args", started, workers=workers)
    return 0


def cmd_train_events(cfg: RunConfig) -> int:
    started = time.perf_counter()
    corpus = _train_corpus(cfg)
    arg_models, u, table = _load_argument_models(cfg)
    events_dir = _outdir(cfg) / "events"

    windows = vecent.build_entity_windows(corpus, u, table)
    entities, pairs = vecom.candidate_pairs(corpus)
    embeddings = vecom.embed_entities(arg_models, windows)

    trained, skipped = {}, {}
    for event_type in corpus.task_schema.event_types:
        exists, forward = vecom.label_pairs(
            entities, pairs, list(corpus.events.values()), event_type
        )
        roles = corpus.task_schema.roles(event_type)
        rng = child_rng(cfg.seed, f"cmd/train-events/{event_type}")
        try:
            trained[event_type] = vecom.train_event_model(
                embeddings, pairs, roles, exists, forward, event_type, cfg, rng=rng
            )
        except TrainingSetupError as exc:
            logger.warning("skipping %s: %s", event_type, exc)
            skipped[event_type] = str(exc)
    if not trained:
        raise TrainingSetupError("no event type had both positive and negative pairs")
    manifest = {
        "task": cfg.schema,
        "event_types": list(trained),
        "skipped": skipped,
        "hidden": cfg.event_mlp_hidden,
    }
    _save_stage(events_dir, trained, manifest)
    print(f"trained {len(trained)} event models -> {events_dir}")
    _finish(cfg, "train-events", started)
    return 0


# predict's documents, by id, form this many contiguous shards, whatever the
# CPU count: embeddings move in their last bits with their batch, so pairs.tsv
# would otherwise follow the CPUs. Each shard repeats its vocabulary look-ups;
# on 2 CPUs, predict-abstracts ran 10% slower in 8 shards than in 4.
_PREDICT_SHARDS = 4


def cmd_predict(cfg: RunConfig) -> int:
    started = time.perf_counter()
    if not cfg.predict_dir:
        raise ConfigurationError("no prediction corpus directory configured (predict_dir)")
    schema = load_schema(cfg.schema)
    # Predictions need no gold events, so no document's .a2 is read.
    files = [(doc_id, txt, a1, None) for doc_id, txt, a1, _ in list_corpus_dir(cfg.predict_dir)]
    arg_models, u, table = _load_argument_models(cfg)

    def load_event_model(path, event_type, _):
        model = vecom.load_event_model(path)
        for role in set(schema.roles(event_type)) & arg_models.keys():
            width = 2 * arg_models[role].embedding_size
            if model.input_size != width:
                raise TrainingError(
                    f"{path}: event heads take {model.input_size} inputs, "
                    f"not the {width} of two composed {role} embeddings"
                )
        return model

    event_models, _ = _load_stage(cfg, "events", "event", load_event_model, {})
    roles = {r for event_type in event_models for r in schema.roles(event_type)}
    role_models = {role: arg_models[role] for role in roles & arg_models.keys()}

    def predict_shard(shard_files):
        """Each document's (id, .a2 text) and the shard's pairs.tsv rows."""
        corpus = read_corpus_files(shard_files, schema)
        windows = vecent.build_entity_windows(corpus, u, table)
        entities, pairs = vecom.candidate_pairs(corpus)
        # One chunked embedding pass per role model over the shard, and one
        # scoring pass per event type.
        embeddings = vecom.embed_entities(role_models, windows)
        scores = {  # event type -> (p_exists, p_forward), each indexed by pair
            name: vecom.event_forward_batch(model, embeddings, pairs, schema.roles(name))
            for name, model in sorted(event_models.items())
        }
        a2_texts, tsv_rows = [], []
        stop = 0
        for doc in corpus.documents:
            doc_events = []
            for sent in doc.sentences:
                start, stop = stop, stop + len(sent.entities) * (len(sent.entities) - 1)
                idx = slice(start, stop)  # this sentence's n(n-1) pairs
                for event_type, (pe, pf) in scores.items():
                    scored = zip(pairs[idx].tolist(), pe[idx].tolist(), pf[idx].tolist())
                    for (a, b), e_prob, f_prob in scored:
                        tsv_rows.append(
                            f"{sent.id}\t{entities[a].id}\t{entities[b].id}"
                            f"\t{e_prob:.6f}\t{f_prob:.6f}\t{event_type}\n"
                        )
                    doc_events.extend(
                        vecom.decode_events(
                            entities, pairs[idx], pe[idx], pf[idx], event_type, cfg.threshold
                        )
                    )
            a2_texts.append((doc.id, write_standoff(doc_events, schema)))
        return a2_texts, "".join(tsv_rows)

    # The shards run in worker processes; once all have finished, this
    # process writes every file, so a bad document leaves no partial output.
    n = min(_PREDICT_SHARDS, len(files))
    shards = [files[i * len(files) // n : (i + 1) * len(files) // n] for i in range(n)]
    workers = pool.worker_count(len(shards))
    results = list(pool.map_in_workers(predict_shard, shards, workers))
    pred_dir = _outdir(cfg) / "pred"
    pred_dir.mkdir(exist_ok=True)
    tsv = ["sentence_id\tfirst\tsecond\tp_exists\tp_forward\tevent_type\n"]
    for a2_texts, tsv_rows in results:
        for doc_id, text in a2_texts:
            (pred_dir / f"{doc_id}.a2").write_text(text, encoding="utf-8")
        tsv.append(tsv_rows)
    (pred_dir / "pairs.tsv").write_text("".join(tsv), encoding="utf-8")
    print(f"wrote predictions for {len(files)} documents -> {pred_dir}")
    _finish(cfg, "predict", started, workers=workers)
    return 0


def cmd_crossval(cfg: RunConfig) -> int:
    started = time.perf_counter()
    corpus = _train_corpus(cfg)
    table = _resolve_table(_embedding_record(cfg), cfg.dim)
    report = evalkit.cross_validate(
        corpus, table, hyper=cfg, seed=cfg.seed, doc_level=cfg.doc_level_cv
    )
    out = _outdir(cfg)
    cv_dir = out / "crossval"
    curves_dir = cv_dir / "curves"
    curves_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cv_dir / "metrics.json", evalkit.report_json(report))
    (cv_dir / "metrics.csv").write_text(evalkit.metrics_csv(report), encoding="utf-8")
    (cv_dir / "timings.csv").write_text(evalkit.timings_csv(report), encoding="utf-8")
    _write_json(cv_dir / "overlap.json", evalkit.overlap_json(report))
    curve_sets = [("arg", name, r.curves) for name, r in sorted(report.arguments.items())]
    curve_sets += [("event", name, r.curves) for name, r in sorted(report.events.items())]
    curve_sets += [
        ("micro", name, curves)
        for name, curves in (("arguments", report.micro_arguments), ("events", report.micro_events))
        if curves
    ]
    for prefix, name, curves in curve_sets:
        for kind in ("roc", "prc"):
            (curves_dir / f"{prefix}_{name}_{kind}.tsv").write_text(
                evalkit.curve_tsv(getattr(curves, kind)), encoding="utf-8"
            )
    print((cv_dir / "metrics.csv").read_text(encoding="utf-8"))
    _finish(cfg, "crossval", started, workers=report.workers)
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    results = gradcheck.run_suite()
    worst = 0.0
    for name in sorted(results):
        err = results[name]
        worst = max(worst, err)
        status = "ok" if err <= 1e-4 else "FAIL"
        print(f"{status:4s} {name:28s} max_rel_err={err:.3e}")
    print(f"worst {worst:.3e} (tolerance 1e-04)")
    return 0 if worst <= 1e-4 else 1


# ---------------------------------------------------------------------------
# Argument parsing


# Field -> its valid values; they are checked with the ranges below.
_CHOICES = {"embedding_format": embed.FORMATS, "oov": embed.OOV_POLICIES}

_HELP = {
    "schema": "builtin task name (bb, bgi) or schema JSON path",
    "embedding": "'hashed' or a word2vec file path",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    """One ``--field-name`` flag per config field, in INI order; a flag left
    out keeps the INI file's value."""
    parser.add_argument("--config", help="INI config file; flags override it")
    for name in (key for keys in _INI_LAYOUT.values() for key in keys):
        flag, ftype = "--" + name.replace("_", "-"), _FIELD_TYPE[name]
        if ftype is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction)
        else:
            metavar = "{" + ",".join(_CHOICES[name]) + "}" if name in _CHOICES else None
            parser.add_argument(flag, type=ftype, metavar=metavar, help=_HELP.get(name))
    parser.add_argument(
        "--jobs", type=int, choices=[1], help="accepted for old command lines; no effect"
    )
    parser.add_argument("--verbose", action="store_true")


# Field -> (test, wording) of its valid values; every test fails on NaN. A
# threshold above 1 stays valid: it decodes no event.
_RANGES = {
    **{
        name: (choices.__contains__, "one of " + ", ".join(choices))
        for name, choices in _CHOICES.items()
    },
    **{
        name: (lambda v: v >= 1, ">= 1")
        for name in ("dim", "window", "lstm_hidden", "arg_mlp_hidden", "event_mlp_hidden",
                     "batch", "epochs")
    },
    "dropout": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "lr": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "momentum": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "oversample_ratio": (lambda v: v >= 1.0, ">= 1"),
    "threshold": (lambda v: v >= 0.0, ">= 0"),
}


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The INI file's config with the flags' overrides, range-checked."""
    cfg = RunConfig()
    if args.config:
        cfg = config_from_ini(args.config, cfg)
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, value)
    for name, (valid, wording) in _RANGES.items():
        if not valid(getattr(cfg, name)):
            raise ConfigurationError(f"{name} must be {wording}, got {getattr(cfg, name)}")
    return cfg


_COMMANDS = {
    "ingest": cmd_ingest,
    "train-args": cmd_train_args,
    "train-events": cmd_train_events,
    "predict": cmd_predict,
    "crossval": cmd_crossval,
    "gradcheck": cmd_gradcheck,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bioee",
        description="Trigger-free bottom-up biomedical event extraction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(sub.add_parser(name))
    return parser


def main(argv=None) -> int:
    pin_heap()
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](_build_config(args))
    except BioeeError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        for attr in ("file", "line"):
            if getattr(exc, attr, None) is not None:
                payload[attr] = getattr(exc, attr)
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
