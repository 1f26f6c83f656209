"""The `python -m mixednorm` subprocesses some tests start import the
checkout's `src`, as the tests do, whether or not PYTHONPATH names it.

The `workers` fixture forces the kernel's thread pool to a worker count."""

import contextlib
import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def workers():
    """workers(n): a context in which the streamed kernel runs its blocks on
    a fresh pool of n threads, however few bytes a loop reads (n = None
    keeps the defaults), shut down on leaving it."""
    from mixednorm import spaces

    @contextlib.contextmanager
    def force(n):
        if n is None:
            yield
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces, "_WORKERS", n)
            mp.setattr(spaces, "_POOL_BYTES", 0)
            mp.setattr(spaces, "_pool", None)
            try:
                yield
            finally:
                if spaces._pool is not None:
                    spaces._pool.shutdown()

    return force
