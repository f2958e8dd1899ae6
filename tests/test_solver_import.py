"""`import pcsgd` loads the solver and the evaluation, not the experiment runner.

The import loads neither the experiment layer, with its configparser and
hashlib, nor the thread pool, and a solve and a linear evaluation after it
load neither; only a pooled energy pass imports `concurrent.futures`.  The
solve forks its germ-table producer with `os.fork` and loads no
`multiprocessing`.  Checked in a child process with one BLAS thread, so
that no other test has imported the modules and the solve forks.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = """
import os
import sys
import numpy as np
import pcsgd

unused = {
    "pcsgd.experiments", "pcsgd.cli", "configparser", "hashlib", "concurrent.futures",
    "multiprocessing",
}
assert unused.isdisjoint(sys.modules), sorted(unused.intersection(sys.modules))

# two cores, so that the solve forks its producer and a pooled pass would build its pool
os.sched_getaffinity = lambda pid: {0, 1}
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
problem = pcsgd.builtin_linear_nonhomogeneous(0.2, 1, 10.0, 6, 1)
config = pcsgd.SgdConfig(
    n_iterations=5, batch_gradient=8, batch_hessian=8, hessian_mode="full",
    schedule=pcsgd.LearningRateSchedule(1.0, 1.0), monitor_samples=100,
)
_, c = pcsgd.run(problem, problem.mesh, problem.basis, config)
assert forks == [1], "the solve forked no producer"
pcsgd.estimate_energy(problem, problem.mesh, problem.basis, c, 2000, 0)  # four chunks, inline
unused.remove("hashlib")  # numpy.random, which the germ sampler loads, imports it through secrets
assert unused.isdisjoint(sys.modules), sorted(unused.intersection(sys.modules))

problem = pcsgd.builtin_semilinear_homogeneous_field(12.0, 20, 2)
c = np.random.default_rng(3).standard_normal(problem.mesh.n_interior * problem.basis.size)
args = (problem, problem.mesh, problem.basis, c, 3000, 5)
pooled = pcsgd.estimate_energy(*args)
assert "concurrent.futures" in sys.modules, "the semilinear pass built no pool"
os.sched_getaffinity = lambda pid: {0}
serial = pcsgd.estimate_energy(*args)
assert (pooled.mean, pooled.standard_error) == (serial.mean, serial.standard_error), (pooled, serial)
"""


def test_a_solve_loads_neither_the_experiments_nor_the_thread_pool():
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
