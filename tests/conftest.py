from concurrent.futures import ThreadPoolExecutor

import pytest

from maxcosine import model


@pytest.fixture
def pass_pool(monkeypatch):
    """A new pool of one worker thread, not yet started, behind
    `model._run_passes`. A test sets `model._WORKERS` to 0 to run the same
    passes serially."""
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(model, "_WORKERS", 1)
    monkeypatch.setattr(model, "_pool", pool)
    yield pool
    pool.shutdown()
