"""Independent jobs in forked worker processes, one per usable CPU.

``crossval``'s folds, ``train-args``' roles and ``predict``'s document shards
are independent, each fold and role draws from its own seeded generator, and
the shard layout does not follow the CPU count, so they run in worker
processes forked from the command, with results that do not depend on the
worker count. The workers inherit the command's state, the items included,
copy-on-write; only item indices and pickled results cross between
processes, through one pair of pipes per worker. No thread is started.
``pin_process`` sets the BLAS and heap policy of commands and workers.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import platform
import select
import signal
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import TrainingError


def worker_count(n_jobs: int) -> int:
    """One worker per CPU this process may run on (``taskset`` limits it), at
    most one per job; 1 where the CPU affinity cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(n_jobs, len(os.sched_getaffinity(0))))


# glibc's mallopt parameters: free() gives the top of the heap back to the
# kernel once more than M_TRIM_THRESHOLD bytes of it are free, and blocks of
# at least M_MMAP_THRESHOLD bytes get a mapping of their own. Both would
# otherwise adapt to the largest block freed so far, so each training step's
# 0.5-5 MB temporaries were unmapped and faulted in again step after step.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 128 << 20))

# OpenBLAS's thread-count setter, as numpy's wheels (scipy-openblas with 64-
# or 32-bit integers) and a system OpenBLAS name it.
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)


def _blas_setters() -> list:
    """The thread-count setter of each OpenBLAS mapped into this process;
    none where the mapped libraries cannot be listed."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return []
    setters = [getattr(lib, name) for lib in libs for name in _BLAS_SETTERS if hasattr(lib, name)]
    for setter in setters:
        setter.argtypes, setter.restype = (ctypes.c_int,), None
    return setters


policy = "blas=default heap=default"  # what pin_process() set, as run.log records it


def pin_process() -> str:
    """Cap each OpenBLAS mapped here at one thread, so N workers run N BLAS
    threads, and fix glibc's heap thresholds (a no-op off glibc). Forked
    workers inherit both. Idempotent; returns ``pool.policy``."""
    global policy
    setters = _blas_setters()
    for setter in setters:
        setter(1)
    heap = "default"
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        if all(mallopt(param, value) == 1 for param, value in _HEAP_POLICY):
            heap = "pinned"
    policy = f"blas={1 if setters else 'default'} heap={heap}"
    return policy


_HEADER = 8  # bytes of a result frame's length prefix


@dataclass
class _Worker:
    pid: int
    tasks: int  # write end of the pipe of item indices
    results: int  # read end of the pipe of result frames
    item: int | None = None  # the index it is working on
    frame: bytearray = field(default_factory=bytearray)


def _serve(fn, items: list, tasks: int, results: int) -> None:
    """A worker's loop: read an item index, send back one frame holding the
    pickled ``(True, fn(item))`` or ``(False, exception)``; stop at the end
    of the index pipe."""
    while index := os.read(tasks, 4):
        try:
            outcome = True, fn(items[int.from_bytes(index, "little")])
            payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            try:
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            except Exception as err:
                lost = TrainingError(
                    f"a worker raised {type(exc).__name__}: {exc}, which cannot be "
                    f"sent back ({err})"
                )
                payload = pickle.dumps((False, lost), pickle.HIGHEST_PROTOCOL)
        frame = memoryview(len(payload).to_bytes(_HEADER, "little") + payload)
        while frame:
            frame = frame[os.write(results, frame) :]


def _fork_worker(fn, items: list, workers: list[_Worker]) -> _Worker:
    """Fork one worker, which first closes the parent's ends of its
    siblings' pipes, so that each pipe has one process at either end."""
    tasks_r, tasks_w = os.pipe()
    results_r, results_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (tasks_r, tasks_w, results_r, results_w):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in [tasks_w, results_r, *(fd for w in workers for fd in (w.tasks, w.results))]:
                os.close(fd)
            _serve(fn, items, tasks_r, results_w)
            code = 0
        finally:
            for stream in (sys.stdout, sys.stderr):
                try:
                    stream.flush()
                except (OSError, ValueError):  # a closed or broken stream
                    pass
            os._exit(code)
    os.close(tasks_r)
    os.close(results_w)
    return _Worker(pid, tasks_w, results_r)


def map_in_workers(fn, items, workers: int) -> Iterable:
    """``fn(item)`` for each item, in item order: a list computed in
    ``workers`` forked processes, or, if ``workers`` is 1, computed here as
    the caller iterates, so each result can be consumed before the next job
    runs.

    ``fn``, the items and everything they read reach the workers by fork,
    not by pickling; only the results are pickled. Each worker is given its
    next item as it sends back a result, so workers that draw long jobs do
    not hold up the rest. The first error raised by ``fn`` in a worker is
    raised here once every worker is killed; a worker that exits without
    sending back its item's result raises ``TrainingError``. No worker
    outlives the call. Both paths first call ``pin_process``, whose policy
    the workers inherit.
    """
    pin_process()
    if workers <= 1:
        return map(fn, items)
    items = list(items)
    results = [None] * len(items)
    sent = 0  # items handed out so far
    for stream in (sys.stdout, sys.stderr):
        stream.flush()  # or the workers would write out the parent's buffer again
    pool: list[_Worker] = []

    def feed(worker: _Worker) -> None:
        """Send the worker its next item, if any is left, and close its pipe
        of items once none is, so that it exits as soon as it is done."""
        nonlocal sent
        worker.item = None
        if sent < len(items):
            worker.item, sent = sent, sent + 1
            try:
                os.write(worker.tasks, worker.item.to_bytes(4, "little"))
            except BrokenPipeError:
                pass  # it exited; its result pipe's end reports the lost item
        if sent == len(items) and worker.tasks >= 0:
            os.close(worker.tasks)
            worker.tasks = -1

    try:
        for _ in range(min(workers, len(items))):
            pool.append(_fork_worker(fn, items, pool))
            feed(pool[-1])
        by_fd = {w.results: w for w in pool}
        poller = select.poll()
        for fd in by_fd:
            poller.register(fd, select.POLLIN)
        left = len(items)
        while left:
            for fd, _ in poller.poll():
                worker = by_fd[fd]
                chunk = os.read(fd, 1 << 16)  # a pipe holds 64 KiB
                if not chunk:
                    poller.unregister(fd)
                    if worker.item is not None:
                        _, status = os.waitpid(worker.pid, 0)
                        worker.pid = -1
                        raise TrainingError(
                            f"a worker process died (exit code "
                            f"{os.waitstatus_to_exitcode(status)}) before sending back "
                            f"the result of item {worker.item}"
                        )
                    continue
                frame = worker.frame
                frame += chunk
                if len(frame) < _HEADER + int.from_bytes(frame[:_HEADER], "little"):
                    continue  # the frame is not complete yet
                try:
                    ok, value = pickle.loads(memoryview(frame)[_HEADER:])
                except Exception as exc:
                    raise TrainingError(
                        f"the result of item {worker.item} cannot be read back ({exc})"
                    ) from None
                if not ok:
                    raise value
                results[worker.item] = value
                frame.clear()
                left -= 1
                feed(worker)
    except BaseException:
        for worker in pool:
            if worker.pid > 0:
                os.kill(worker.pid, signal.SIGKILL)
        raise
    finally:
        for worker in pool:
            if worker.tasks >= 0:
                os.close(worker.tasks)
        for worker in pool:
            if worker.pid > 0:
                os.waitpid(worker.pid, 0)
            os.close(worker.results)
    return results
