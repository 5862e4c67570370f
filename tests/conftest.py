import importlib
from pathlib import Path

import pytest


@pytest.fixture
def sweep(monkeypatch):
    """The benchmark's synthetic N-room homes (``bench/sweep.py``)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    return importlib.import_module("sweep")
