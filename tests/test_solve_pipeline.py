"""`run` builds each iteration's germ tables ahead in a forked producer.

Each case runs in a child process with one BLAS thread and two usable cores,
so that the producer forks; the child counts its `os.fork` calls to show it.
No producer or pipe may outlive `run`, however `run` ends, a producer that
fails must not leave `run` waiting, a producer that cannot start must leave
`run` solving inline, and a forked solve must give the bits of an inline one.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

HEADER = """
import os

import numpy as np
import pcsgd
from pcsgd.estimators import Kernel

os.sched_getaffinity = lambda pid: {0, 1}  # two usable cores, so that `run` forks
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()


def config(**overrides):
    settings = dict(
        n_iterations=12, batch_gradient=16, batch_hessian=8, hessian_mode="full",
        schedule=pcsgd.LearningRateSchedule(2.0, 2.0), record_stride=1, monitor_samples=100,
    )
    return pcsgd.SgdConfig(**{**settings, **overrides})


def solve(problem, settings, on_record=None):
    return pcsgd.run(problem, problem.mesh, problem.basis, settings, on_record)


def fds():
    return len(os.listdir("/proc/self/fd"))


def check_nothing_left(fds_before, forked=True):
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        raise AssertionError("a child process outlived run")
    assert fds() == fds_before, (fds(), fds_before)
    assert forks == [1] * forked, f"run forked {len(forks)} producers"
    forks.clear()
"""

LIFECYCLE = HEADER + """
problem = pcsgd.builtin_semilinear_homogeneous_field(12.0, 10, 2)
before = fds()
solve(problem, config())
check_nothing_left(before)

divergent = config(
    n_iterations=2000, hessian_mode="none", schedule=pcsgd.LearningRateSchedule(1e6, 0.0),
    init="gaussian",
)
linear = pcsgd.builtin_linear_homogeneous(0.1, 1, 10.0, 10, 2)
with np.errstate(over="ignore", invalid="ignore"):
    try:
        solve(linear, divergent)
    except pcsgd.SgdDivergenceError:
        pass
    else:
        raise AssertionError("the solve did not diverge")
check_nothing_left(before)


def third_record_interrupts(n, c, calls=[]):
    calls.append(n)
    if len(calls) == 3:
        raise KeyboardInterrupt


try:
    solve(problem, config(), third_record_interrupts)
except KeyboardInterrupt:
    pass
else:
    raise AssertionError("on_record's error did not reach the caller")
check_nothing_left(before)
"""

# The producer's gradient tables fail at iteration 5; item 1 is built before the fork.
FAILING_PRODUCER = HEADER + """
tables, calls = Kernel.germ_tables, []


def fails_at_iteration_5(self, germs):
    if len(germs) == 16:  # the gradient batch
        calls.append(1)
        if len(calls) == 5:
            raise ValueError("a failing producer")
    return tables(self, germs)


Kernel.germ_tables = fails_at_iteration_5
problem = pcsgd.builtin_semilinear_homogeneous_field(12.0, 10, 2)
before = fds()
try:
    solve(problem, config())
except RuntimeError as err:
    assert "producer" in str(err) and "iteration 5" in str(err), err
else:
    raise AssertionError("run did not raise")
check_nothing_left(before)
"""

# Every Hessian and CV mode, forked and on one core, where `run` builds its tables inline.
INLINE_EQUALS_FORKED = HEADER + """
from pcsgd.sgd import CV_ORDERS, HESSIAN_MODES

problems = [
    pcsgd.builtin_semilinear_homogeneous_field(12.0, 10, 2),  # a source and a reaction
    pcsgd.builtin_semilinear_nonhomogeneous_field(0.2, 1, 4.0, 8, 2),  # the trig field
    pcsgd.builtin_linear_nonhomogeneous(0.2, 1, 10.0, 8, 2),  # boundary data
]
for problem in problems:
    for hessian_mode in HESSIAN_MODES:
        for cv_mode in CV_ORDERS:
            settings = config(
                hessian_mode=hessian_mode, cv_mode=cv_mode, cv_pilot_size=50, n_switch=6,
                init="gaussian", init_scale=0.1, seed=4,
            )
            os.sched_getaffinity = lambda pid: {0, 1}
            forked_trajectory, forked = solve(problem, settings)
            assert forks == [1], (hessian_mode, cv_mode)
            forks.clear()
            os.sched_getaffinity = lambda pid: {0}
            inline_trajectory, inline = solve(problem, settings)
            assert forks == [], (hessian_mode, cv_mode)
            assert forked.tobytes() == inline.tobytes(), (hessian_mode, cv_mode)
            assert (
                forked_trajectory.energy_mean.tobytes() == inline_trajectory.energy_mean.tobytes()
            ), (hessian_mode, cv_mode)
"""

# The ring's mmap, the second pipe or the fork fails: `run` releases what it got and solves
# inline, with the inline bits.
ACQUISITION_FAILS = HEADER + """
import dataclasses
import errno
import mmap

problem = pcsgd.builtin_semilinear_homogeneous_field(12.0, 10, 2)
os.sched_getaffinity = lambda pid: {0}
inline_trajectory, inline = solve(problem, config())
os.sched_getaffinity = lambda pid: {0, 1}


def trajectory_bytes(trajectory):
    return [getattr(trajectory, f.name).tobytes() for f in dataclasses.fields(trajectory)]


before = fds()
for module, name, code, after in [
    (mmap, "mmap", errno.ENOMEM, 0),
    (os, "pipe", errno.EMFILE, 1),  # the second pipe: the first one's ends must be closed
    (os, "fork", errno.EAGAIN, 0),
]:
    real, calls = getattr(module, name), []

    def failing(*args):
        calls.append(args)
        if len(calls) > after:
            raise OSError(code, os.strerror(code))
        return real(*args)

    setattr(module, name, failing)
    try:
        trajectory, c = solve(problem, config())
    finally:
        setattr(module, name, real)
    assert len(calls) == after + 1, (name, calls)  # the failing call, and no later one
    assert c.tobytes() == inline.tobytes(), name
    assert trajectory_bytes(trajectory) == trajectory_bytes(inline_trajectory), name
    check_nothing_left(before, forked=False)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="the fork needs Linux's /proc")
@pytest.mark.parametrize(
    "script",
    [LIFECYCLE, FAILING_PRODUCER, ACQUISITION_FAILS, INLINE_EQUALS_FORKED],
    ids=["lifecycle", "failing-producer", "acquisition-fails", "inline-equals-forked"],
)
def test_solve_pipeline(script):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
