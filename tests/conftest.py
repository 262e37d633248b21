"""The CLI tests run ``python -m qrel.cli`` in subprocesses; give those the
``src/`` directory that pytest's ``pythonpath`` setting gives this process,
so that ``pytest`` works from a plain checkout."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
