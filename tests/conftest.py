"""The `python -m mixednorm` subprocesses some tests start import the
checkout's `src`, as the tests do, whether or not PYTHONPATH names it."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
