"""The benchmark's calls into pcsgd must keep working.

`perfbench/spans.py` wraps pcsgd functions and methods by name, and
`perfbench/worker.py` calls the builtins and `SgdConfig` with the keywords
in `perfbench/workloads.py`.  Running them in child processes turns a
removed or renamed name, keyword or a value pcsgd now rejects into a test
failure, and keeps the wrappers out of the pytest process.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

# plain data, importable without pcsgd; registered because its dataclass looks itself up
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py")
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

INSTALL = """
import sys
sys.path[:0] = sys.argv[1:]
import pcsgd
import spans
spans.install(pcsgd)
"""

# A traced solve must build its iterations' tables in this process: on one core `run`
# forks no producer, whose spans the parent's tracer would not see.  Where there is no
# `sched_setaffinity`, `run` does not fork either.
ONE_CORE = """
import os
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
"""


def test_benchmark_hook_points_exist():
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            INSTALL,
            PERFBENCH,
            os.path.join(ROOT, "src"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


# A short traced solve (K = 2, p = 2, so a 5^2-node monitor rule and its
# 3^2-node partner); prints the monitor germ count, the rule's node count, the
# number of records, the psi germ count, the gradient and Hessian germ count,
# and the number of `random_field.kappa` spans and of those opened inside one.
MONITOR_COUNT = ONE_CORE + """
import sys
sys.path[:0] = sys.argv[1:]
import pcsgd
import spans
tracer = spans.install(pcsgd)
KAPPA = "random_field.kappa"
problem = pcsgd.builtin_linear_nonhomogeneous(0.2, 1, 10.0, 6, 2)
config = pcsgd.SgdConfig(
    n_iterations=3,
    batch_gradient=8,
    batch_hessian=8,
    schedule=pcsgd.LearningRateSchedule(1.0, 2.0),
    hessian_mode="linear-only",
    monitor_samples=2085,
)
trajectory, _ = pcsgd.run(problem, problem.mesh, problem.basis, config)
print(
    tracer.counts["sgd.monitor_germs"],
    pcsgd.sgd.monitor_points(problem.basis, config.monitor_samples) ** problem.germ_dim,
    len(trajectory.iterations),
    tracer.counts["pc_basis.psi_germs"],
    config.n_iterations * (config.batch_gradient + config.batch_hessian),
    sum(name == KAPPA for name, _, _, _ in tracer.spans),
    sum(
        name == KAPPA and parent >= 0 and tracer.spans[parent][0] == KAPPA
        for name, parent, _, _ in tracer.spans
    ),
)
"""


def test_benchmark_monitor_germ_count():
    """`sgd.monitor_germs` is 0: the monitor reads moment tables, not `Kernel.energies`.

    psi is evaluated once per germ: once for the fixed monitor nodes, once
    per gradient and Hessian germ, so `pc_basis.psi_s` compares across
    commits.  The trig field's `values`, inherited from `LogNormalField`,
    is one `random_field.kappa` span per call, never wrapped twice.
    """
    result = subprocess.run(
        [sys.executable, "-c", MONITOR_COUNT, PERFBENCH, os.path.join(ROOT, "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    counted, rule_nodes, records, psi_germs, batch_germs, kappa, nested = map(
        int, result.stdout.split()
    )
    assert records == 4
    assert rule_nodes == 5**2
    assert counted == 0
    assert psi_germs == 5**2 + 3**2 + batch_germs
    assert kappa >= 1
    assert nested == 0


# A short traced full-Hessian solve with no control variate; prints the number of
# `pc_basis.psi` spans opened directly under `sgd.run` and under
# `estimators.gradient_parts`.
PSI_PARENTS = ONE_CORE + """
import sys
sys.path[:0] = sys.argv[1:]
import pcsgd
import spans
tracer = spans.install(pcsgd)
problem = pcsgd.builtin_semilinear_homogeneous_field(12.0, 20, 2)
config = pcsgd.SgdConfig(
    n_iterations=3,
    batch_gradient=8,
    batch_hessian=8,
    schedule=pcsgd.LearningRateSchedule(1.0, 2.0),
    hessian_mode="full",
)
pcsgd.run(problem, problem.mesh, problem.basis, config)
for parent_name in (spans.RUN, "estimators.gradient_parts"):
    print(sum(
        name == "pc_basis.psi" and parent >= 0 and tracer.spans[parent][0] == parent_name
        for name, parent, _, _ in tracer.spans
    ))
"""


def test_iteration_tables_are_traced_under_the_solve():
    """An iteration's batches' psi (and so their tables) count as `sgd.run`.

    `run` builds each iteration's coefficient-independent tables before it
    calls the kernel, so directly under `sgd.run` sit the monitor rule's psi
    and its partner's, built by `Kernel.rule_moments`, which `spans.py` does
    not wrap, and each iteration's gradient and Hessian batch's psi; none
    sits under `estimators.gradient_parts`.
    """
    result = subprocess.run(
        [sys.executable, "-c", PSI_PARENTS, PERFBENCH, os.path.join(ROOT, "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    under_run, under_gradient_parts = map(int, result.stdout.split())
    assert under_run == 2 + 3 + 3
    assert under_gradient_parts == 0


# The SgdConfig of a round, built as worker.py builds it.
SGD_CONFIG = """
import sys
sys.path[:0] = sys.argv[2:]
import pcsgd
from workloads import WORKLOADS, seeds
w = WORKLOADS[sys.argv[1]]
pcsgd.SgdConfig(
    schedule=pcsgd.LearningRateSchedule(*w.rate), seed=seeds(w, 0)["sgd"], **w.sgd
)
"""


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_workload_sets_up_and_builds_its_sgd_config(workload):
    setup = subprocess.run(
        [
            sys.executable,
            os.path.join(PERFBENCH, "worker.py"),
            "--workload", workload, "--seed", "0", "--mode", "setup",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert setup.returncode == 0, setup.stderr
    assert json.loads(setup.stdout.splitlines()[-1])["setup_s"] > 0
    config = subprocess.run(
        [sys.executable, "-c", SGD_CONFIG, workload, PERFBENCH, os.path.join(ROOT, "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert config.returncode == 0, config.stderr
