import tracemalloc

import pytest


def _traced_peak(fn) -> int:
    """tracemalloc's peak in bytes over one call of `fn`, counted from the call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
