"""bioee benchmark: one seeded workload, measured for a fixed time.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload crossval --seed 1 --seconds 40 --trace 0

The workload is a closed loop: this process makes one ``bioee.cli.main``
call at a time, with BLAS pinned to one thread. Set-up (corpus generation,
plus model training for the predict workloads) and the timed command
alternate until the next step would overrun ``--seconds``: a group of set-up
repetitions runs before each of the first few repetitions of the command, so
both are sampled across the whole run. ``setup_s`` and ``wall_s`` are the
medians.
Every repetition's outputs are checked and digested; a failed check, a
non-zero exit or a digest that differs from an earlier repetition of the
same seed counts as a failed operation.

With ``--trace 1`` set-up runs once, repetitions alternate untraced and
traced, and the per-layer metrics come from the traced ones. The last line
of standard output is the JSON result; the full record (environment,
digests, per-repetition times) and the spans go under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {
    "wall_s": "s",
    "sentences_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "event_f": "score",
    "event_roc_auc": "score",
    "arg_roc_auc": "score",
}


class Operations:
    """Counts operations attempted and failed, keeping each failure's reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems[:5]))


def env_facts(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "bioee").glob("*.py"))
    )
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "src_bioee_lines": src_lines,
    }


def quiet_call(argv: list) -> int:
    """One CLI call with its own printing kept off this program's stdout."""
    import workloads

    with redirect_stdout(io.StringIO()):
        return workloads.call(argv)


def run_setup(wl, ops: Operations, tracer, trace: bool, times: list, digests: list) -> None:
    """One group of timed set-up repetitions (one traced one under --trace 1).

    Each must build the same inputs and models as the first. Removing the
    previous repetition's files is not timed: a fresh checkout does not pay it.
    """
    gc.collect()
    for _ in range(1 if trace else wl.setup_repeats):
        shutil.rmtree(wl.setup_dir, ignore_errors=True)
        started = time.perf_counter()
        with redirect_stdout(io.StringIO()), (tracer.active("setup") if trace else nullcontext()):
            problems = wl.setup()
        times.append(time.perf_counter() - started)
        digests.append(wl.setup_digest())
        if digests[-1] != digests[0]:
            problems.append("set-up differs from its first repetition")
        ops.record(f"setup {len(times) - 1}", problems)


def run_timed(wl, ops: Operations, tracer, trace: bool, seconds: float):
    """Set up, then repeat the timed command until the next step would
    overrun ``seconds``.

    A group of set-up repetitions runs before each of the first
    ``wl.setup_groups`` repetitions of the command, so set-up is sampled
    across the run, as the command is, and not only at its start. Under
    --trace 1 set-up runs once, traced, and repetitions alternate untraced
    and traced, at least one of each. Returns the set-up times and digest,
    the wall times by traced flag, the output digest and the run ids of the
    traced repetitions.
    """
    setup_times: list[float] = []
    setup_digests: list[str] = []
    groups = 1 if trace else wl.setup_groups
    walls: dict[bool, list[float]] = {False: [], True: []}
    digests, traced_runs = [], []
    started = time.perf_counter()
    i = 0
    while True:
        if i < groups:
            run_setup(wl, ops, tracer, trace, setup_times, setup_digests)
        traced = trace and i % 2 == 1
        if traced:
            traced_runs.append(f"iter{i}")
        argv = wl.command()
        t0 = time.perf_counter()
        try:
            with tracer.active(f"iter{i}") if traced else nullcontext():
                rc = quiet_call(argv)
        except Exception:
            rc = None
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        problems = [] if rc == 0 else [f"{argv[0]} exited with {rc}"]
        if rc == 0:
            problems += wl.check()
            digests.append(wl.output_digest())
            if digests[-1] != digests[0]:
                problems.append("outputs differ from the first repetition")
            walls[traced].append(wall)
        ops.record(f"iteration {i}", problems)
        i += 1
        elapsed = time.perf_counter() - started
        estimate = statistics.median(walls[False] + walls[True] or [wall])
        if i < groups:
            estimate += statistics.median(setup_times) * wl.setup_repeats
        if (not trace or i >= 2) and elapsed + estimate > seconds:
            break
    if not digests:
        raise RuntimeError("no repetition of the timed command succeeded: " + "; ".join(ops.failures))
    return setup_times, setup_digests[0], walls, digests[0], traced_runs


def check_across_runs(store: Path, digests: dict, ops: Operations) -> None:
    """The same workload and seed must give the same digests in every run of
    this checkout; the first run records them."""
    if store.exists():
        earlier = json.loads(store.read_text(encoding="utf-8"))
        ops.record(
            "determinism across runs",
            [] if earlier == digests else [f"digests {digests} differ from an earlier run {earlier}"],
        )
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(digests) + "\n", encoding="utf-8")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set-up, timed repetitions and scoring of one workload.

    Returns the metric values with their units and the run's full record.
    """
    import workloads
    from tracing import Tracer, layer_metrics

    work = WORK / workload_name
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.make(workload_name, work, seed)
    ops = Operations()
    tracer = Tracer()

    setup_times, setup_digest, walls, output_digest, traced_runs = run_timed(
        wl, ops, tracer, trace, seconds
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_across_runs(
        WORK / "digests" / f"{workload_name}-seed{seed}.json",
        {"setup": setup_digest, "outputs": output_digest},
        ops,
    )

    if trace:
        values = layer_metrics(
            [tracer.summary(r) for r in traced_runs], tracer.summary("setup")
        )
        values["trace.coverage"] = (
            statistics.median(tracer.coverage(r) for r in traced_runs),
            "ratio",
        )
        # The first repetition also pays for heap growth; leave it out of
        # the untraced base when there is another.
        untraced = walls[False][1:] or walls[False]
        overhead = (
            statistics.median(walls[True]) / statistics.median(untraced)
            if walls[True] and untraced
            else 0.0
        )
        values["trace.overhead"] = (overhead, "ratio")
        tracer.write(WORK / "results" / f"{workload_name}-seed{seed}-spans.jsonl.gz")
    else:
        wall_s = statistics.median(walls[False])
        values = {
            "wall_s": wall_s,
            "sentences_per_s": wl.n_sentences / wall_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        try:
            values.update(wl.quality())
        except Exception:
            # Outputs too broken to score; report the failure with zero scores.
            traceback.print_exc(file=sys.stderr)
            ops.record("scoring", ["outputs could not be scored"])
            values.update(event_f=0.0, event_roc_auc=0.0, arg_roc_auc=0.0)
        values = {name: (values[name], UNITS[name]) for name in UNITS}
    shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_times_s": setup_times,
        "setup_digest": setup_digest,
        "wall_s": {"untraced": walls[False], "traced": walls[True]},
        "output_digest": output_digest,
        "attempted": ops.attempted,
        "failures": ops.failures,
    }
    return values, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bioee" / "__init__.py").is_file():
        print(f"benchmark: no bioee sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bioee

    if Path(bioee.__file__).resolve().parent != ROOT / "src" / "bioee":
        print(f"benchmark: imported bioee from {bioee.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads
    from tracing import per_layer_spec

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if {m["name"]: m["unit"] for m in declared["end_to_end"]} != UNITS or [
        (m["name"], m["unit"]) for m in declared["per_layer"]
    ] != [(m["name"], m["unit"]) for m in per_layer_spec()]:
        print("benchmark: the metrics it emits differ from BENCHMARK.json", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"benchmark: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2

    facts = env_facts(args.seed)
    values, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = len(record["failures"])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    record.update(env=facts, metrics=metrics)
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# bioee benchmark {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# env {json.dumps(facts, sort_keys=True)}")
    print(f"# setup digest {record['setup_digest']}  output digest {record['output_digest']}")
    print(f"# repetitions {json.dumps(record['wall_s'])}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / record['attempted']:.6g} 1")
    print(f"# record {results}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": record["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
