import concurrent.futures

import pytest


@pytest.fixture
def in_process_pool(monkeypatch):
    """Run campaign blocks in this process instead of a process pool.

    Returns the list of pool sizes requested, one entry per pool started.
    """
    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return requested
