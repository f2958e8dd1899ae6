import os
import platform
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsgd import (
    GermSampler,
    HomogeneousLogNormalField,
    TrigLogNormalField,
    builtin_linear_homogeneous,
    builtin_linear_nonhomogeneous,
    builtin_semilinear_homogeneous_field,
    empirical_cdf,
    estimate_energy,
    exact_energy_mc,
    pointwise_l2_error,
)
from pcsgd.evaluation import EVAL_PURPOSE, _over_eval_germs
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
    """Row-wise results, scalar and vector per row, equal one call on all rows."""
    a = np.random.default_rng(n).standard_normal((n, 3))

    def row_wise(a):
        return np.exp(a) @ np.arange(1.0, 4.0) + a[:, 1] * a[:, 0]

    np.testing.assert_array_equal(over_chunks(row_wise, a), row_wise(a))
    np.testing.assert_array_equal(over_chunks(lambda a: 2.0 * a, a), 2.0 * a)


# A linear problem with a 2-dimensional germ: the passes below only draw its germs.
LINEAR = builtin_linear_homogeneous(0.1, 1, 10.0, 4, 1)


def _two_cores(monkeypatch) -> list:
    """Two usable cores, so that a pass of two or more chunks forks; the returned list
    gets one item per `os.fork` call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


# A pass forks only in a one-thread Linux process: where BLAS runs its own threads it
# runs inline, and these tests would see no fork.
needs_fork = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.listdir("/proc/self/task")) > 1,
    reason="a pass forks only in a one-thread Linux process",
)


@pytest.mark.parametrize("drawn", [False, True])
def test_over_chunks_of_no_germs_is_one_empty_chunk(drawn, monkeypatch):
    """A zero-row array, or a pass drawing no germs, is one empty call, so the result keeps
    each row's shape; the pass runs it inline."""
    forks, calls = _two_cores(monkeypatch), []

    def values(a):
        calls.append(a.shape)
        return np.ones((len(a), 5))

    if drawn:
        assert _over_eval_germs(LINEAR, 0, 3, values).shape == (0, 5)
        assert calls == [(0, 2)] and forks == []
    else:
        assert over_chunks(values, np.empty((0, 3))).shape == (0, 5)
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


def test_over_chunks_runs_one_chunk_inline(monkeypatch):
    """A pass of one chunk, sliced or drawn, forks nothing."""
    forks = _two_cores(monkeypatch)
    germs = GermSampler(5, 2).sample_batch(0, GERM_CHUNK, EVAL_PURPOSE)
    np.testing.assert_array_equal(over_chunks(lambda g: g[:, 0], germs), germs[:, 0])
    np.testing.assert_array_equal(_over_eval_germs(LINEAR, GERM_CHUNK, 5, lambda g: g[:, 0]),
                                  germs[:, 0])
    assert forks == []


def _passes():
    """Every Monte Carlo pass of the evaluation, each on 4 * GERM_CHUNK + 37 germs."""
    n = 4 * GERM_CHUNK + 37
    semilinear = builtin_semilinear_homogeneous_field(12.0, 20, 2)
    linear = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 6, 2)
    rng = np.random.default_rng(3)
    c = {p.name: 0.1 * rng.standard_normal(p.mesh.n_interior * p.basis.size)
         for p in (semilinear, linear)}

    def on(problem):
        return problem, problem.mesh, problem.basis, c[problem.name]

    def estimate(e):
        return np.array([e.mean, e.standard_error])

    grid = np.linspace(-0.5, 1.5, 7)
    return {
        "energy-with-reaction": lambda: estimate(estimate_energy(*on(semilinear), n, 1)),
        "energy-linear": lambda: estimate(estimate_energy(*on(linear), n, 2)),
        "pointwise-l2": lambda: estimate(pointwise_l2_error(*on(semilinear), 0.5, n, 3)),
        "cdf-one-point": lambda: empirical_cdf(*on(linear), [1.0], [grid], n, 4).probabilities,
        "cdf-two-points": lambda: empirical_cdf(
            *on(linear), [-1.0, 2.0], [grid, grid], n, 5).probabilities,
        "exact-energy": lambda: estimate(exact_energy_mc(semilinear, n, 6)),
    }


PASSES = _passes()


@needs_fork
@pytest.mark.parametrize("name", PASSES)
def test_a_forked_pass_has_the_inline_bits(name, monkeypatch):
    forks = _two_cores(monkeypatch)
    forked = PASSES[name]()
    assert forks == [1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    np.testing.assert_array_equal(forked, PASSES[name]())
    assert forks == [1]


class _ChunkError(Exception):
    pass


def _fails_at_chunk_5(monkeypatch, marker, everywhere: bool):
    """`values` for a forked pass of 8 chunks whose chunk 5 raises _ChunkError in the worker,
    and in the caller too if `everywhere`.  The caller claims nothing until the worker has
    reached chunk 5 and written its pid to `marker`."""
    _two_cores(monkeypatch)
    fork, caller = os.fork, os.getpid()

    def fork_then_wait():
        pid = fork()
        deadline = time.monotonic() + 60
        while pid and not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return pid

    monkeypatch.setattr(os, "fork", fork_then_wait)
    fifth = GermSampler(7, 2).sample_batch(0, 6 * GERM_CHUNK, EVAL_PURPOSE)[5 * GERM_CHUNK :]

    def values(germs):
        if np.array_equal(germs, fifth) and (everywhere or os.getpid() != caller):
            if os.getpid() != caller:
                marker.write_text(str(os.getpid()))
            raise _ChunkError
        return germs[:, 0]

    return values


def _fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_forked_pass_raises_the_error_of_a_middle_chunk(monkeypatch, tmp_path):
    """The worker fails on chunk 5; the caller computes it again and raises its error."""
    before, marker = _fds(), tmp_path / "worker"
    values = _fails_at_chunk_5(monkeypatch, marker, everywhere=True)
    with pytest.raises(_ChunkError):
        _over_eval_germs(LINEAR, 8 * GERM_CHUNK, 7, values)
    assert int(marker.read_text()) != os.getpid()
    _assert_no_child_left()
    assert _fds() == before


@needs_fork
def test_a_worker_error_that_does_not_recur_names_the_workers_exit(monkeypatch, tmp_path):
    values = _fails_at_chunk_5(monkeypatch, tmp_path / "worker", everywhere=False)
    with pytest.raises(RuntimeError, match="worker ended with exit code 1"):
        _over_eval_germs(LINEAR, 8 * GERM_CHUNK, 7, values)
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("ending", [None, ValueError, KeyboardInterrupt])
def test_a_forked_pass_leaves_no_process_or_descriptor(ending, monkeypatch):
    """A pass that ends normally, or whose caller raises an error or is interrupted on its
    first chunk after the fork, leaves no worker and no descriptor; the workers ignore
    SIGINT, as the caller's end ends them."""
    forks, caller, before = _two_cores(monkeypatch), os.getpid(), _fds()

    def values(germs):
        if os.getpid() != caller:
            time.sleep(0.002)
            return np.full(len(germs), float(signal.getsignal(signal.SIGINT) == signal.SIG_IGN))
        if forks and ending is not None:
            raise ending
        return np.ones(len(germs))

    if ending is None:
        assert np.all(_over_eval_germs(LINEAR, 40 * GERM_CHUNK, 1, values) == 1.0)
    else:
        with pytest.raises(ending):
            _over_eval_germs(LINEAR, 40 * GERM_CHUNK, 1, values)
    assert forks == [1]
    _assert_no_child_left()
    assert _fds() == before


# A caller that ends itself on its first chunk after the fork, once its worker has done one;
# the worker, 5 ms a chunk, logs its chunks in a file.
ORPHANED_WORKER = """
import os, sys, time
import pcsgd
from pcsgd.evaluation import _over_eval_germs

os.sched_getaffinity = lambda pid: {0, 1}
log, caller, calls = sys.argv[1], os.getpid(), []


def values(germs):
    if os.getpid() != caller:
        time.sleep(0.005)
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\\n")
    elif calls:
        while not os.path.exists(log):
            time.sleep(0.001)
        os._exit(0)
    calls.append(1)  # the first chunk, computed before the fork
    return germs[:, 0]


_over_eval_germs(pcsgd.builtin_linear_homogeneous(0.1, 1, 10.0, 4, 1), 400 * 512, 1, values)
"""


@needs_fork
def test_a_worker_stops_once_its_caller_is_gone(tmp_path):
    """Between chunks a worker checks its parent: it stops within a chunk of the caller's
    end, not after the pass's 400 chunks."""
    log = tmp_path / "chunks"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-c", ORPHANED_WORKER, str(log)], env=env, timeout=120,
                   check=True)
    [worker] = set(log.read_text().split())
    deadline = time.monotonic() + 60
    while _running(int(worker)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(int(worker))
    assert len(log.read_text().split()) < 50


def _running(pid: int) -> bool:
    """Whether `pid` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


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
