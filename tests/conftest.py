"""Fixtures shared by the test modules."""

import pytest

from bioee import pool


@pytest.fixture()
def in_process(monkeypatch):
    """Run crossval's folds and train-args' roles in the test's own process,
    where the spies it installs record their calls."""
    monkeypatch.setattr(pool, "worker_count", lambda n_jobs: 1)
