"""A solve and its evaluation must depend on neither the BLAS thread count
nor the number of cores the energy passes' thread pool may use.

Each digest is computed in a child process, because OpenBLAS reads its thread
count from the environment once, when it is loaded.
"""

import functools
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# A shortened table3 solve (M=100, p=3, full Hessian, the preset's seed 21),
# then a short solve-size linear solve with boundary data and an order-1
# control variate, whose batch means are BLAS products with psi, then a
# shortened fig-staged-hessian staged solve: the trig field's point values
# and the full-stage Hessian after the switch at iteration 100.  After each
# solve, an energy estimate and a two-point CDF over 5,000 evaluation germs
# (ten GERM_CHUNK chunks).
SOLVE = """
import hashlib
import numpy as np
import pcsgd

digest = hashlib.sha256()
grid = np.linspace(-0.5, 1.5, 9)


def add(problem, **config):
    config = pcsgd.SgdConfig(**{"record_stride": 50, "monitor_samples": 2000, **config})
    trajectory, c = pcsgd.run(problem, problem.mesh, problem.basis, config)
    digest.update(c.tobytes() + trajectory.energy_mean.tobytes())
    args = (problem, problem.mesh, problem.basis, c)
    energy = pcsgd.estimate_energy(*args, 5000, 7)
    cdf = pcsgd.empirical_cdf(*args, [-2.0, 0.5], [grid, grid], 5000, 7)
    digest.update(np.array([energy.mean, energy.standard_error]).tobytes())
    digest.update(cdf.probabilities.tobytes())


add(
    pcsgd.builtin_semilinear_homogeneous_field(12.0, 100, 3),
    n_iterations=150, batch_gradient=100, batch_hessian=100,
    schedule=pcsgd.LearningRateSchedule(10.0, 0.0), hessian_mode="full", seed=21,
)
add(
    pcsgd.builtin_linear_nonhomogeneous(0.1, 2, 10.0, 50, 3),
    n_iterations=50, batch_gradient=128, batch_hessian=64,
    schedule=pcsgd.LearningRateSchedule(5.0, 2.0), hessian_mode="linear-only",
    cv_mode="order1", cv_pilot_size=1000, seed=3, record_stride=25,
)
add(
    pcsgd.builtin_semilinear_nonhomogeneous_field(0.3, 2, 12.0, 50, 3),
    n_iterations=150, batch_gradient=256, batch_hessian=64,
    schedule=pcsgd.LearningRateSchedule(5.0, 2.0), hessian_mode="staged", n_switch=100,
    init="gaussian", init_scale=0.1, seed=0,
)
print(digest.hexdigest())
"""


@functools.cache
def solve_digest(threads: int, one_core: bool = False) -> str:
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    pin = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    result = subprocess.run(
        [sys.executable, "-c", (pin if one_core else "") + SOLVE],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_solve_is_bit_identical_across_blas_thread_counts():
    assert solve_digest(1) == solve_digest(2)


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two usable cores",
)
def test_solve_is_bit_identical_on_one_core():
    """The energy passes' 5,000 germs run on a pool of one thread per usable core."""
    assert solve_digest(1, one_core=True) == solve_digest(1)
