import threading

import pytest

from maxcosine import model


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more threads running than it started with."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture
def one_helper(monkeypatch):
    """`model._run_passes` with one helper thread beside the caller, whatever
    the cores. A test sets `model._WORKERS` to 0 to run the same passes
    serially."""
    monkeypatch.setattr(model, "_WORKERS", 1)
