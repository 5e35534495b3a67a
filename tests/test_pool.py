"""Independent jobs in forked worker processes."""

import ctypes
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from bioee import pool
from bioee.errors import ParseError, PlanningError, TrainingError

import fixtures


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


class TestMapInWorkers:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_item_order_from_a_closure(self, workers):
        offsets = np.arange(5.0)  # reaches the workers by fork, not by pickling
        results = pool.map_in_workers(lambda i: offsets * i, range(6), workers)
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result, offsets * i)
        assert fixtures.no_child_left()

    def test_results_do_not_depend_on_worker_count(self):
        def draw(i):
            return np.random.default_rng(i).standard_normal(i + 1)

        runs = [list(pool.map_in_workers(draw, range(7), w)) for w in (1, 2, 3)]
        for run in runs[1:]:
            assert len(run) == 7
            for got, want in zip(run, runs[0]):
                np.testing.assert_array_equal(got, want)

    def test_many_tiny_items_in_order(self):
        assert pool.map_in_workers(lambda i: 2 * i, range(20_000), 2) == list(
            range(0, 40_000, 2)
        )

    def test_worker_error_is_raised_here(self):
        def fail_on_3(i):
            if i == 3:
                raise PlanningError(f"item {i}")
            return i

        fds = _open_fds()
        with pytest.raises(PlanningError, match="item 3"):
            pool.map_in_workers(fail_on_3, range(8), 2)
        assert fixtures.no_child_left()
        assert _open_fds() == fds

    def test_parse_error_keeps_file_and_line(self):
        def bad_line(i):
            raise ParseError("entity line must have 3 columns", file="d.a1", line=i + 1)

        with pytest.raises(ParseError) as caught:
            pool.map_in_workers(bad_line, [4, 4], 2)
        assert (caught.value.file, caught.value.line) == ("d.a1", 5)
        assert str(caught.value) == "d.a1:line 5: entity line must have 3 columns"

    def test_error_kills_a_sleeping_sibling(self):
        def sleep_or_fail(i):
            if i == 0:
                time.sleep(30)
            raise PlanningError(f"item {i}")

        started = time.perf_counter()
        with pytest.raises(PlanningError, match="item 1"):
            pool.map_in_workers(sleep_or_fail, range(2), 2)
        assert time.perf_counter() - started < 5
        assert fixtures.no_child_left()

    def test_worker_that_exits_is_training_error(self):
        def exit_on_1(i):
            if i == 1:
                os._exit(3)
            return i

        fds = _open_fds()
        with pytest.raises(TrainingError, match=r"worker process died \(exit code 3\)"):
            pool.map_in_workers(exit_on_1, range(4), 2)
        assert fixtures.no_child_left()
        assert _open_fds() == fds

    def test_unpicklable_error_is_training_error_naming_it(self):
        class Unsendable(Exception):  # a local class cannot be pickled
            pass

        def fail(i):
            raise Unsendable(f"item {i}")

        with pytest.raises(TrainingError, match="Unsendable: item 0"):
            pool.map_in_workers(fail, range(1), 2)
        assert fixtures.no_child_left()

    def test_fork_sees_no_other_thread(self):
        # Python 3.12 and later warn when os.fork runs while other threads
        # are alive; -W error cannot catch it, as CPython clears that error.
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert pool.map_in_workers(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert [str(w.message) for w in seen] == []

    def test_no_thread_and_no_executor(self):
        """The parent starts no thread and imports neither
        ``multiprocessing`` nor ``concurrent.futures``."""
        script = (
            "import sys, threading\n"
            "def no_thread(self): raise AssertionError('a thread was started')\n"
            "threading.Thread.start = no_thread\n"
            "from bioee import cli, pool\n"
            "assert pool.map_in_workers(abs, [-1, -2, -3], 2) == [1, 2, 3]\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        )
        src = str(Path(pool.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_parent_and_workers_run_one_blas_thread_unpinned(self):
        """With no BLAS variable set, OpenBLAS starts one thread per CPU;
        the map caps the parent's, and the workers inherit the cap."""
        script = (
            "import ctypes, numpy\n"
            "from bioee import pool\n"
            "with open('/proc/self/maps', encoding='utf-8') as maps:\n"
            "    paths = {line.split()[-1] for line in maps if 'openblas' in line}\n"
            "names = ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads')\n"
            "gets = [getattr(lib, name) for lib in map(ctypes.CDLL, paths)\n"
            "        for name in names if hasattr(lib, name)]\n"
            "def threads(_=None):\n"
            "    return [get() for get in gets]\n"
            "workers = pool.map_in_workers(threads, range(2), 2)\n"
            "print([threads(), workers])\n"
        )
        src = str(Path(pool.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        done = subprocess.run([sys.executable, "-c", script], env={**env, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        parent, workers = json.loads(done.stdout)
        if not parent:
            pytest.skip("numpy's BLAS is not an OpenBLAS this test can query")
        assert parent == [1] * len(parent)
        assert workers == [parent, parent]

    def test_worker_count_follows_affinity(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        assert pool.worker_count(1) == 1
        assert pool.worker_count(10) == min(10, cpus)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert pool.worker_count(10) == 1

    def test_workers_run_one_blas_thread(self):
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in paths]
        names = [("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads")]
        controls = [(getattr(lib, get), getattr(lib, put))
                    for lib in libs for get, put in names if hasattr(lib, get)]
        if not controls:
            pytest.skip("numpy's BLAS is not an OpenBLAS this test can query")
        for get, put in controls:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
        before = [get() for get, _ in controls]
        for _, put in controls:
            put(2)  # the workers inherit two threads, whatever the environment pins
        try:
            threads = pool.map_in_workers(lambda _: [get() for get, _ in controls], range(2), 2)
        finally:
            for (_, put), n in zip(controls, before):
                put(n)
        assert threads == [[1] * len(controls)] * 2
