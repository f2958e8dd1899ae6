"""pcsgd takes LAPACK's `dptsv` from scipy without importing scipy or `scipy.linalg`.

Checked in a child process, so that no other test has imported the package.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = """
import sys
import numpy as np
import pcsgd

problem = pcsgd.builtin_linear_nonhomogeneous(0.2, 1, 10.0, 6, 1)
config = pcsgd.SgdConfig(
    n_iterations=5, batch_gradient=8, batch_hessian=8, hessian_mode="full",
    schedule=pcsgd.LearningRateSchedule(1.0, 1.0), monitor_samples=100,
)
_, c = pcsgd.run(problem, problem.mesh, problem.basis, config)
pcsgd.estimate_energy(problem, problem.mesh, problem.basis, c, 100, 0)
# two stacked (3, 3) blocks, the second not positive definite: the fallback retry runs
blocks = np.array([[[2.0, 2.0, 2.0], [-1.0, -1.0, 0.0]], [[-1.0, 2.0, 2.0], [0.5, 0.5, 0.0]]])
step, fallbacks = pcsgd.precondition_solve(blocks, np.ones(6), 0.0)
assert fallbacks == 1 and np.allclose(step, [1.5, 2.0, 1.5, 1.0, 1.0, 1.0]), (step, fallbacks)
assert "scipy.linalg" not in sys.modules, "pcsgd imported scipy.linalg"
assert "scipy" not in sys.modules, "pcsgd imported scipy"

import scipy.linalg

assert scipy.linalg.lapack.dptsv is pcsgd.sgd.dptsv
"""


def test_pcsgd_solves_without_importing_scipy_linalg():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
