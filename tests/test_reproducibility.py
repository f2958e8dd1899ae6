"""A solve must not depend on the BLAS thread count.

Each solve runs in a child process, because OpenBLAS reads its thread
count from the environment once, when it is loaded.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# A shortened table3 solve: M=100, p=3, full Hessian, the preset's seed 21.
SOLVE = """
import hashlib
import pcsgd

problem = pcsgd.builtin_semilinear_homogeneous_field(12.0, 100, 3)
config = pcsgd.SgdConfig(
    n_iterations=150, batch_gradient=100, batch_hessian=100,
    schedule=pcsgd.LearningRateSchedule(10.0, 0.0), hessian_mode="full",
    seed=21, record_stride=50, monitor_samples=2000,
)
trajectory, c = pcsgd.run(problem, problem.mesh, problem.basis, config)
print(hashlib.sha256(c.tobytes() + trajectory.energy_mean.tobytes()).hexdigest())
"""


def solve_digest(threads: int) -> str:
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", SOLVE],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_solve_is_bit_identical_across_blas_thread_counts():
    assert solve_digest(1) == solve_digest(2)
