import os
import platform
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsgd import GermSampler, HomogeneousLogNormalField, TrigLogNormalField
from pcsgd.random_field import GERM_CHUNK, over_chunks


def test_batch_prefix_stability():
    """Row i of a batch must not depend on how large the batch is."""
    sampler = GermSampler(42, 3)
    big = sampler.sample_batch(5, 1000, "gradient")
    small = sampler.sample_batch(5, 10, "gradient")
    np.testing.assert_array_equal(big[:10], small)


def test_streams_separated_by_iteration_and_purpose():
    sampler = GermSampler(42, 2)
    a = sampler.sample_batch(1, 50, "gradient")
    b = sampler.sample_batch(2, 50, "gradient")
    c = sampler.sample_batch(1, 50, "hessian")
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # but fully reproducible
    np.testing.assert_array_equal(a, GermSampler(42, 2).sample_batch(1, 50, "gradient"))


def test_seed_separation():
    a = GermSampler(0, 2).sample_batch(0, 20, "monitor")
    b = GermSampler(1, 2).sample_batch(0, 20, "monitor")
    assert not np.array_equal(a, b)


def test_single_germ_matches_batch_row():
    """Row 5 is the same germ whether the batch has 8 rows or only 6."""
    sampler = GermSampler(9, 4)
    batch = sampler.sample_batch(3, 8, "pilot")
    np.testing.assert_array_equal(sampler.sample_batch(3, 6, "pilot")[5], batch[5])


def test_trig_field_values_match_direct_formula():
    field = TrigLogNormalField(0.25, 2, 10.0)
    assert field.germ_dim == 4
    rng = np.random.default_rng(3)
    germs = rng.standard_normal((6, 4))
    x = np.linspace(-5.0, 5.0, 11)
    expected = np.empty((6, 11))
    for s in range(6):
        a1, a2, b1, b2 = germs[s]
        v = (
            a1 * np.cos(2 * np.pi * x / 10.0)
            + a2 * np.cos(4 * np.pi * x / 10.0)
            + b1 * np.sin(2 * np.pi * x / 10.0)
            + b2 * np.sin(4 * np.pi * x / 10.0)
        ) / np.sqrt(2.0)
        expected[s] = np.exp(0.25 * v)
    np.testing.assert_allclose(field.values(x, germs), expected, rtol=1e-12)


def test_trig_field_rows_follow_the_grid():
    """Rows are built once per grid; a new grid, or one changed in place, gets its own."""
    field = TrigLogNormalField(0.25, 2, 10.0)
    germs = np.random.default_rng(4).standard_normal((5, 4))
    x = np.linspace(-5.0, 5.0, 11)

    def fresh(points):
        return np.exp(0.25 * (germs @ TrigLogNormalField(0.25, 2, 10.0).rows(points)))

    first = field.values(x, germs)
    np.testing.assert_array_equal(first, fresh(x))
    np.testing.assert_array_equal(field.values(x[:7], germs), fresh(x[:7]))
    x += 0.5
    np.testing.assert_array_equal(field.values(x, germs), fresh(x))
    np.testing.assert_array_equal(field.values(x - 0.5, germs), first)


def test_trig_field_germ_layout_is_cosines_then_sines():
    field = TrigLogNormalField(1.0, 2, 10.0)
    x = np.array([2.5])  # cos(2 pi x / l) = 0, sin = 1 for k=1
    only_b1 = np.array([[0.0, 0.0, 1.0, 0.0]])
    assert field.values(x, only_b1)[0, 0] == pytest.approx(np.exp(1.0 / np.sqrt(2.0)))


def test_field_variance_normalization():
    """V has unit pointwise variance regardless of the number of pairs."""
    rng = np.random.default_rng(8)
    for n_pairs in (1, 3):
        field = TrigLogNormalField(1.0, n_pairs, 7.0)
        germs = rng.standard_normal((200_000, 2 * n_pairs))
        logs = np.log(field.values(np.array([0.31]), germs)[:, 0])
        assert logs.mean() == pytest.approx(0.0, abs=0.02)
        assert logs.var() == pytest.approx(1.0, abs=0.02)


FIELDS = {
    "trig": lambda: TrigLogNormalField(0.3, 2, 10.0),
    "homogeneous": lambda: HomogeneousLogNormalField(),
}


def test_gradient_at_mean_matches_finite_difference():
    x = np.linspace(-4.0, 4.0, 9)
    eps = 1e-6
    for field in (make() for make in FIELDS.values()):
        grad = field.gradient_at_mean(x)
        assert grad.shape == (field.germ_dim, x.size)
        for k in range(field.germ_dim):
            germ = np.zeros((1, field.germ_dim))
            germ[0, k] = eps
            fd = (field.values(x, germ)[0] - field.values(x, -germ)[0]) / (2 * eps)
            np.testing.assert_allclose(grad[k], fd, atol=1e-8)


@pytest.mark.parametrize("name", FIELDS)
def test_field_is_one_at_the_zero_germ(name):
    field = FIELDS[name]()
    x = np.linspace(-4.0, 4.0, 9)
    np.testing.assert_array_equal(field.values(x, np.zeros((1, field.germ_dim))), 1.0)


def test_homogeneous_field_is_constant_in_space():
    field = HomogeneousLogNormalField()
    assert field.germ_dim == 2
    germs = np.array([[0.5, -1.0], [0.0, 0.0]])
    x = np.linspace(-6.0, 6.0, 5)
    values = field.values(x, germs)
    np.testing.assert_allclose(values[0], np.exp(0.2 * (0.5 - 1.0)))
    np.testing.assert_allclose(values[1], 1.0)
    np.testing.assert_allclose(field.scalar_values(germs), values[:, 0])


def test_homogeneous_field_gradient_at_mean():
    field = HomogeneousLogNormalField()
    x = np.array([0.0, 1.0])
    np.testing.assert_allclose(field.gradient_at_mean(x), 0.2)


@pytest.mark.parametrize(
    "n",
    [1, GERM_CHUNK, GERM_CHUNK + 1, 2 * GERM_CHUNK, 2 * GERM_CHUNK + 1, 2 * GERM_CHUNK + 37,
     4 * GERM_CHUNK + 37],
)
def test_over_chunks_matches_one_call(n):
    """Row-wise results, scalar and vector per row, equal one call on all rows,
    and the pooled form equals the serial one bit for bit, also with more
    chunks than a 2-core pool has workers."""
    a = np.random.default_rng(n).standard_normal((n, 3))

    def row_wise(a):
        return np.exp(a) @ np.arange(1.0, 4.0) + a[:, 1] * a[:, 0]

    np.testing.assert_array_equal(over_chunks(row_wise, a), row_wise(a))
    np.testing.assert_array_equal(over_chunks(lambda a: 2.0 * a, a), 2.0 * a)
    for values in (row_wise, lambda a: 2.0 * a):
        np.testing.assert_array_equal(
            over_chunks(values, a, parallel=True), over_chunks(values, a)
        )


@pytest.mark.parametrize("parallel", [False, True])
def test_over_chunks_of_no_germs_is_one_empty_chunk(parallel):
    """A zero-row array is one empty call, so the result keeps each row's shape."""
    calls = []

    def values(a):
        calls.append(a.shape)
        return np.ones((len(a), 5))

    assert over_chunks(values, np.empty((0, 3)), parallel).shape == (0, 5)
    assert calls == [(0, 3)]


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize(
    "size", [1, GERM_CHUNK - 1, GERM_CHUNK, GERM_CHUNK + 1, 2 * GERM_CHUNK + 37]
)
def test_germ_chunks_are_the_rows_of_one_batch(size, dim):
    sampler = GermSampler(11, dim)
    chunks = list(sampler.chunks(3, size, "eval"))
    assert [len(chunk) for chunk in chunks] == [
        min(GERM_CHUNK, size - k) for k in range(0, size, GERM_CHUNK)
    ]
    np.testing.assert_array_equal(np.concatenate(chunks), sampler.sample_batch(3, size, "eval"))


class _ChunkError(Exception):
    pass


def test_pooled_over_chunks_raises_the_error_of_a_middle_chunk(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def values(chunk):
        if chunk[0, 0] == 3.0:
            raise _ChunkError
        return chunk[:, 0]

    chunks = (np.full((GERM_CHUNK, 2), float(k)) for k in range(8))
    with pytest.raises(_ChunkError):
        over_chunks(values, chunks, parallel=True)


def test_over_chunks_runs_one_chunk_inline(monkeypatch):
    """A parallel pass of one chunk, sliced or drawn, builds no pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", None)
    germs = GermSampler(5, 2).sample_batch(0, GERM_CHUNK, "eval")
    drawn = GermSampler(5, 2).chunks(0, GERM_CHUNK, "eval")
    for chunks in (germs, drawn):
        np.testing.assert_array_equal(over_chunks(lambda g: g[:, 0], chunks, True), germs[:, 0])


def test_pooled_over_chunks_holds_two_chunks_per_worker_in_flight(monkeypatch):
    """A chunk is drawn only when it can wait behind at most two chunks per worker
    whose results are not yet in, so a long pass never holds all its germs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    lock = threading.Lock()
    count = {"drawn": 0, "done": 0, "most": 0}

    def chunks():
        for k in range(20):
            with lock:
                count["drawn"] += 1
                count["most"] = max(count["most"], count["drawn"] - count["done"])
            yield np.full((1, 1), float(k))

    def values(chunk):
        time.sleep(0.005)
        with lock:
            count["done"] += 1
        return chunk[:, 0]

    np.testing.assert_array_equal(over_chunks(values, chunks(), parallel=True), np.arange(20.0))
    assert count["most"] <= 2 * 2 + 1  # two per worker, and the one just drawn


class _YieldingField(TrigLogNormalField):
    """Gives up the GIL at every read of the grid memo.

    Under CPython's GIL no thread switch falls between two plain reads of the
    memo in `values`; a free-threaded build or a slower read can switch there.
    """

    @property
    def _grid(self):
        time.sleep(0)
        return self.__dict__.get("memo", (None, None))

    @_grid.setter
    def _grid(self, value):
        self.__dict__["memo"] = value


def test_field_values_are_thread_safe_across_grids():
    """Threads alternating two grids on one field get the serial results."""
    field = _YieldingField(0.5, 2, 10.0)
    germs = np.random.default_rng(6).standard_normal((3, 4))
    grids = [np.linspace(-5.0, 5.0, 9), np.linspace(-5.0, 0.0, 9)]
    expected = [TrigLogNormalField(0.5, 2, 10.0).values(x, germs) for x in grids]

    def alternate(first):
        return all(
            np.array_equal(field.values(grids[k % 2], germs), expected[k % 2])
            for k in range(first, first + 1000)
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            assert all(pool.map(alternate, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_sampling_reproducible_for_any_seed(seed, iteration):
    a = GermSampler(seed, 2).sample_batch(iteration, 5, "eval")
    b = GermSampler(seed, 2).sample_batch(iteration, 5, "eval")
    np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(a))


# Prints the minor page faults of the second of two calls of `step`, in this process.
SECOND_CALL_FAULTS = """
import resource
import numpy as np
import pcsgd

problem = pcsgd.builtin_semilinear_homogeneous_field(12.0, 100, 3)
c = np.zeros(problem.mesh.n_interior * problem.basis.size)
{step}
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""


def _second_call_faults(step: str) -> int:
    """Run SECOND_CALL_FAULTS in a child process with `step` defined on the table3-size
    problem (M=100, p=3) and its zero coefficients `c`."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-c", SECOND_CALL_FAULTS.format(step=step)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc pin is glibc's")
def test_repeated_monte_carlo_pass_takes_no_page_faults():
    """With glibc's malloc thresholds pinned, a second GERM_CHUNK pass of 20,000 germs
    reuses the first one's pages; unpinned, it faults ~45,000 of them in again."""
    energy = "pcsgd.estimate_energy(problem, problem.mesh, problem.basis, c, 20_000, 5)"
    assert _second_call_faults(f"step = lambda: {energy}") < 2000


# A 50-iteration table3 solve: full Hessian, batches of 100.
SHORT_SOLVE = """
config = pcsgd.SgdConfig(
    n_iterations=50, batch_gradient=100, batch_hessian=100, hessian_mode="full",
    schedule=pcsgd.LearningRateSchedule(10.0, 9.0), seed=21, record_stride=50,
)
step = lambda: pcsgd.run(problem, problem.mesh, problem.basis, config)"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc pin is glibc's")
def test_repeated_solve_takes_few_page_faults():
    """The pin also carries the solve: a second 50-iteration solve takes about 1,200 minor
    page faults where its producer forks and a few inline; unpinned, its per-iteration
    temporaries fault ~26,000 in again."""
    assert _second_call_faults(SHORT_SOLVE) < 5000


def test_trig_field_needs_a_harmonic_pair():
    with pytest.raises(ValueError, match="at least one harmonic pair"):
        TrigLogNormalField(0.1, 0, 10.0)
