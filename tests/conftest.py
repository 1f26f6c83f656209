"""The `python -m mixednorm` subprocesses some tests start import the
checkout's `src`, as the tests do, whether or not PYTHONPATH names it.

The `workers` fixture forces the kernel's worker count, and `executors`
records the thread pools the kernel opens."""

import contextlib
import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def workers():
    """workers(n): a context in which the streamed kernel runs its blocks on
    n threads, however few bytes a loop reads (n = None keeps the
    defaults)."""
    from mixednorm import spaces

    @contextlib.contextmanager
    def force(n):
        if n is None:
            yield
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces, "_WORKERS", n)
            mp.setattr(spaces, "_POOL_BYTES", 0)
            yield

    return force


@pytest.fixture
def executors(monkeypatch):
    """The worker count of each concurrent.futures.ThreadPoolExecutor opened
    during the test, in order."""
    import concurrent.futures

    opened, real = [], concurrent.futures.ThreadPoolExecutor

    def spy(max_workers=None, *args, **kwargs):
        opened.append(max_workers)
        return real(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
    return opened
