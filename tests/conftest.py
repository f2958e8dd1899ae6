import os
import tracemalloc

import pytest

# One BLAS thread, as `perfbench` runs: a solve then forks its germ-table producer
# (`sgd._may_fork`).  Set before numpy loads; an explicit setting of either wins, and
# OpenBLAS, which reads its own first, follows an explicit OMP_NUM_THREADS.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", os.environ["OMP_NUM_THREADS"])


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
