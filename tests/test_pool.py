"""Independent jobs in forked worker processes."""

import ctypes
import multiprocessing
import os

import numpy as np
import pytest

from bioee import pool
from bioee.errors import PlanningError


class TestMapInWorkers:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_item_order_from_a_closure(self, workers):
        offsets = np.arange(5.0)  # reaches the workers by fork, not by pickling
        results = pool.map_in_workers(lambda i: offsets * i, range(6), workers)
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result, offsets * i)
        assert multiprocessing.active_children() == []

    def test_worker_error_is_raised_here(self):
        def fail_on_3(i):
            if i == 3:
                raise PlanningError(f"item {i}")
            return i

        with pytest.raises(PlanningError, match="item 3"):
            pool.map_in_workers(fail_on_3, range(8), 2)
        assert multiprocessing.active_children() == []

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
