"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS line on success (pytest -s shows them; -v shows the
usual per-test verdicts).  The experiment runners already enforce their
own assertions; these tests re-derive the critical numbers from the
emitted CSVs so the checks stay independent of the runners' internal
flags.  A test that runs a preset at its defaults also compares the files
it writes with the sha256 digests in output_digests.json, wherever numpy,
scipy and numpy's CPU dispatch match the record.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest
import scipy

from pcsgd import (
    GermSampler,
    LearningRateSchedule,
    SgdConfig,
    builtin_linear_homogeneous,
    builtin_linear_nonhomogeneous,
    estimate_cv_lambda,
    empirical_cdf,
    kernel_for,
    run,
)
from pcsgd.experiments import (
    default_config,
    make_problem,
    make_sgd_config,
    run_experiment,
    run_fig_batch_study,
    run_fig_cdf,
    run_fig_staged_hessian,
    run_table1,
    run_table2,
    run_table3,
)
from reference import fit_convergence_rate, moment_table, reference_solve_linear

with open(os.path.join(os.path.dirname(__file__), "output_digests.json")) as fh:
    DIGESTS = json.load(fh)


def _cpu_features():
    from numpy._core._multiarray_umath import __cpu_features__

    return sorted(name for name, enabled in __cpu_features__.items() if enabled)


def environment_mismatch() -> str | None:
    """The first recorded field this environment differs in, or None."""
    here = (  # read in turn: numpy._core exists only from numpy 2 on
        ("numpy", lambda: np.__version__),
        ("scipy", lambda: scipy.__version__),
        ("cpu_features", _cpu_features),  # the SIMD loops may round differently
    )
    for field, value in here:
        if value() != DIGESTS[field]:
            return field
    return None


def check_digests(paths):
    """Each file's sha256 equals its recorded digest; nothing to check on another environment."""
    if environment_mismatch() is not None:
        return
    for path in paths:
        name = os.path.basename(path)
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == DIGESTS["files"][name], name


def read_rows(path):
    meta, header, rows = {}, None, []
    for line in open(path):
        line = line.rstrip("\n")
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def test_criterion_1_cv_variance_ordering(tmp_path):
    config = dataclasses.replace(default_config("table1"), out=str(tmp_path))
    [path] = run_table1(config)
    check_digests([path])
    _, rows = read_rows(path)
    stds = {(float(r["beta"]), r["cv_mode"]): float(r["std"]) for r in rows}
    for beta in (0.05, 0.1, 0.2, 0.4):
        assert stds[(beta, "order1")] < stds[(beta, "order0")] < stds[(beta, "none")]
    ratio = stds[(0.05, "order1")] / stds[(0.05, "none")]
    assert ratio <= 0.05
    print(f"\nPASS criterion 1: CV std ordering holds; order1/none at beta=0.05 = {ratio:.4f} <= 0.05")


def test_criterion_2_linear_convergence_with_cv(tmp_path):
    config = dataclasses.replace(default_config("table2"), out=str(tmp_path))
    [path] = run_table2(config)
    check_digests([path])
    _, rows = read_rows(path)
    finals = {(float(r["rate_numerator"]), r["cv_mode"]): float(r["final_j"]) for r in rows}
    flags = {
        (float(r["rate_numerator"]), r["cv_mode"]): r["converged"] == "True"
        for r in rows
    }
    assert finals[(5.0, "order1")] <= 1e-10
    assert finals[(5.0, "none")] >= 10.0 * finals[(5.0, "order1")]
    assert not flags[(100.0, "none")]
    print(
        f"\nPASS criterion 2: 5/(n+2) final J = {finals[(5.0, 'order1')]:.2e} (CV) vs "
        f"{finals[(5.0, 'none')]:.2e} (plain); 100/(n+2) without CV flagged non-convergent"
    )


def test_criterion_3_pce_order_accuracy(tmp_path):
    config = dataclasses.replace(default_config("table3"), out=str(tmp_path))
    [path] = run_table3(config)
    check_digests([path])
    meta, rows = read_rows(path)
    errors = [float(r["l2_error"]) for r in rows]
    energies = [float(r["final_j"]) for r in rows]
    oracle = float(meta["exact_energy_mc"])
    assert errors[0] >= 5.0 * errors[1]
    assert errors[1] >= 5.0 * errors[2]
    assert errors[3] <= 5e-4
    gap = abs(energies[3] - oracle)
    assert gap <= 0.01 * abs(oracle)
    print(
        f"\nPASS criterion 3: l2 errors {errors[0]:.2e} -> {errors[1]:.2e} -> {errors[2]:.2e} "
        f"-> {errors[3]:.2e}; J(p=3) = {energies[3]:.4f} within {100 * gap / abs(oracle):.2f}% "
        f"of oracle {oracle:.4f}"
    )


def test_criterion_4_staged_hessian(tmp_path):
    config = dataclasses.replace(default_config("fig-staged-hessian"), out=str(tmp_path))
    [path] = run_fig_staged_hessian(config)
    check_digests([path])
    meta, rows = read_rows(path)
    final = {r["variant"]: float(r["gap"]) for r in rows}  # last row per variant wins
    assert final["staged"] <= 1e-3
    assert final["full"] > 1e-3
    print(
        f"\nPASS criterion 4: staged gap {final['staged']:.2e} <= 1e-3 by n=500; "
        f"full-from-start gap {final['full']:.2e}"
    )


def test_criterion_5_batch_tolerance(tmp_path):
    config = dataclasses.replace(default_config("fig-batch-study"), out=str(tmp_path))
    [path] = run_fig_batch_study(config)
    check_digests([path])
    _, rows = read_rows(path)
    flags = {
        (float(r["beta"]), int(r["batch_gradient"]), int(r["batch_hessian"])): r["converged"] == "True"
        for r in rows
    }
    assert not flags[(0.4, 128, 128)]
    assert flags[(0.4, 256, 64)]
    print(
        "\nPASS criterion 5: beta=0.4 (N_g=128, N_h=128) fails while (N_g=256, N_h=64) converges"
    )


def test_criterion_6_estimator_unbiasedness():
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 10, 2)
    kernel = kernel_for(problem)
    rng = np.random.default_rng(17)
    c = rng.standard_normal(kernel.dim)
    sampler = GermSampler(3, 2)
    germs = sampler.sample_batch(0, 100_000, "gradient")
    components = rng.choice(kernel.dim, size=10, replace=False)
    eps = 1e-5
    worst = 0.0
    plain = kernel.gradient_batch(c, germs)
    for mode in (None, 0, 1):
        if mode is None:
            batch = plain
        else:
            state = estimate_cv_lambda(kernel, c, mode, 2000, sampler)
            batch = kernel.cv_gradient_batch(c, germs, state)
        mean = batch.mean(axis=0)
        # the CRN finite difference reproduces the plain sample mean, so the
        # right scale for the discrepancy is the SE of (estimator - plain),
        # i.e. the correction term's own fluctuation; for the plain mode
        # that difference is exactly zero and the estimator SE applies.
        se = batch.std(axis=0, ddof=1) / np.sqrt(germs.shape[0])
        if mode is not None:
            diff_se = (batch - plain).std(axis=0, ddof=1) / np.sqrt(germs.shape[0])
            se = np.maximum(se, diff_se)
        for idx in components:
            step = np.zeros(kernel.dim)
            step[idx] = eps
            fd = (
                kernel.energies(c + step, germs).mean()
                - kernel.energies(c - step, germs).mean()
            ) / (2 * eps)
            t = abs(mean[idx] - fd) / max(se[idx], 1e-14)
            worst = max(worst, t)
            assert t <= 5.0, f"mode {mode} component {idx}: {t:.2f} SE"
    print(f"\nPASS criterion 6: gradient means match CRN finite differences, worst |t| = {worst:.2f} <= 5")


def test_criterion_7_convergence_rate():
    problem = builtin_linear_homogeneous(0.1, 1, 1.0, 5, 1)
    config = SgdConfig(
        n_iterations=1000,
        batch_gradient=8,
        batch_hessian=1,
        schedule=LearningRateSchedule(0.3, 4.0),
        hessian_mode="none",
        seed=0,
        init="gaussian",
        record_stride=5,
        monitor_samples=20_000,
    )
    trajectory, _ = run(problem, problem.mesh, problem.basis, config)
    slope = fit_convergence_rate(trajectory, 0.0, (50, 1000))
    assert -1.3 <= slope <= -0.7
    print(f"\nPASS criterion 7: fitted log-log slope {slope:.3f} in [-1.3, -0.7]")


def test_criterion_8_oracle_equivalence():
    # gradient: tensor-factorized vs naive double loop (M=5, N+1=6)
    from test_estimators import naive_gradient
    from pcsgd import builtin_semilinear_homogeneous_field

    problem = builtin_semilinear_homogeneous_field(12.0, 5, 2)
    assert problem.basis.size == 6
    kernel = kernel_for(problem)
    rng = np.random.default_rng(23)
    c = rng.standard_normal(kernel.dim)
    germ = rng.standard_normal(2)
    fast = kernel.gradient_batch(c, np.atleast_2d(germ))[0]
    slow = naive_gradient(problem, c, germ)
    gradient_gap = float(np.max(np.abs(fast - slow)))
    assert gradient_gap < 1e-12

    # FEM: per-sample solve vs closed-form solution with O(h^2) decay
    errors = []
    for m in (10, 20, 40):
        lin = builtin_linear_nonhomogeneous(0.3, 1, 10.0, m, 1)
        germ2 = np.array([0.4, -0.9])
        nodal = reference_solve_linear(lin, lin.mesh, germ2)
        exact = lin.exact_solution(lin.mesh.nodes, np.atleast_2d(germ2))[0]
        errors.append(np.max(np.abs(nodal - exact)))
    assert 3.0 < errors[0] / errors[1] < 5.0
    assert 3.0 < errors[1] / errors[2] < 5.0

    # moments: analytic tables vs Gauss-Hermite quadrature
    from test_pc_basis import gauss_hermite_expectation
    from pcsgd import generate_basis
    from pcsgd.pc_basis import eval_all

    basis = generate_basis(2, 3)
    table = moment_table(basis)
    moment_gap = 0.0
    for a in range(basis.size):
        for b in range(basis.size):
            numeric = gauss_hermite_expectation(
                lambda y: float(np.prod(eval_all(basis, y[None, :])[0, [a, b]]))
                if a != b
                else float(eval_all(basis, y[None, :])[0, a] ** 2),
                2,
            )
            moment_gap = max(moment_gap, abs(table.pair_moments[a, b] - numeric))
    assert moment_gap < 1e-10
    print(
        f"\nPASS criterion 8: gradient oracle gap {gradient_gap:.1e} < 1e-12; FEM error "
        f"ratios {errors[0] / errors[1]:.2f}, {errors[1] / errors[2]:.2f} ~ 4; moment gap "
        f"{moment_gap:.1e} < 1e-10"
    )


def test_criterion_9_cdf_accuracy(tmp_path):
    config = dataclasses.replace(default_config("fig-cdf"), out=str(tmp_path))
    semi_path, lin_path = run_fig_cdf(config)
    check_digests([semi_path, lin_path])
    semi_meta, _ = read_rows(semi_path)
    lin_meta, _ = read_rows(lin_path)
    ks_semi = float(semi_meta["ks_distance"])
    ks_lin = float(lin_meta["ks_distance_x2"])
    assert ks_semi <= 0.07
    assert ks_lin <= 0.07
    print(
        f"\nPASS criterion 9: Kolmogorov distances {ks_semi:.4f} (x=0.5) and "
        f"{ks_lin:.4f} (x=2) <= 0.07 at 1e5 samples"
    )


def test_the_uncovered_presets_write_their_recorded_files(tmp_path):
    """fig-convergence and solve, which no criterion runs at its defaults, against the record."""
    field = environment_mismatch()
    if field is not None:
        pytest.skip(f"{field} differs from the one output_digests.json was recorded with")
    for experiment in ("fig-convergence", "solve"):
        config = dataclasses.replace(default_config(experiment), out=str(tmp_path))
        paths = run_experiment(config)
        assert len(paths) == 2
        check_digests(paths)


def test_criterion_10_determinism(tmp_path):
    base = default_config("table1")
    base = dataclasses.replace(base, n_mc=2000)
    paths_a = run_experiment(dataclasses.replace(base, out=str(tmp_path / "a")))
    paths_b = run_experiment(dataclasses.replace(base, out=str(tmp_path / "b")))
    for pa, pb in zip(paths_a, paths_b):
        assert open(pa, "rb").read() == open(pb, "rb").read()
    print("\nPASS criterion 10: identical config and seed reproduce bit-identical CSV")
