"""Independent jobs in forked worker processes, one per usable CPU.

``crossval``'s folds and ``train-args``' roles are independent, and each
draws from its own seeded generator, so they run in worker processes forked
from the command: the workers inherit its corpus, windows and labels
copy-on-write, and only the items and the results cross between processes.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Iterable

from .errors import TrainingError


def worker_count(n_jobs: int) -> int:
    """One worker per CPU this process may run on (``taskset`` limits it), at
    most one per job; 1 where the CPU affinity cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(n_jobs, len(os.sched_getaffinity(0))))


# OpenBLAS's thread-count setter, as numpy's wheels (scipy-openblas with 64-
# or 32-bit integers) and a system OpenBLAS name it.
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)


def _one_blas_thread() -> None:
    """Cap each OpenBLAS mapped into this process at one thread, so that N
    workers run N BLAS threads, not N times the CPU count. Does nothing
    where the mapped libraries cannot be listed."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return
    for lib in libs:
        for name in _BLAS_SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                setter(1)


_job = None  # set in each worker process: the function it applies to each item


def _start_worker(fn) -> None:
    global _job
    _one_blas_thread()
    _job = fn


def _run_job(item):
    return _job(item)


def map_in_workers(fn, items, workers: int) -> Iterable:
    """``fn(item)`` for each item, in item order: a list computed in
    ``workers`` forked processes, or, if ``workers`` is 1, computed here as
    the caller iterates, so each result can be consumed before the next job
    runs.

    ``fn`` and everything it reads reach the workers by fork, not by
    pickling; only the items and the results are pickled. An error raised
    by ``fn`` in a worker is raised here; a worker that dies raises
    ``TrainingError``. No worker outlives the call.
    """
    if workers <= 1:
        return map(fn, items)
    # Imported here, not at the top: it adds 0.9 MB of resident memory to
    # every command, predict included.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(fn,),
    )
    try:
        return list(pool.map(_run_job, items))
    except BrokenProcessPool as exc:
        raise TrainingError(f"a worker process died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)

