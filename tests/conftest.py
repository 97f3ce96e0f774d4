import pathlib
import sys

import pytest

# make oracles.py importable from every test module
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from stablesearch import stability  # noqa: E402


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor: maps in-process and records each
    pool's max_workers in the returned list."""
    created = []

    class InProcessPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(stability, "ProcessPoolExecutor", InProcessPool)
    return created
