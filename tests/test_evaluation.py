import dataclasses
import os
import warnings

import numpy as np
import pytest

from pcsgd import (
    Kernel,
    Trajectory,
    builtin_linear_homogeneous,
    builtin_linear_nonhomogeneous,
    builtin_semilinear_homogeneous_field,
    builtin_semilinear_nonhomogeneous_field,
    empirical_cdf,
    estimate_energy,
    exact_energy_mc,
    kernel_for,
    pointwise_l2_error,
)
from pcsgd.evaluation import EVAL_PURPOSE, solution_at_points
from pcsgd.fem1d import Mesh1D
from pcsgd.random_field import GERM_CHUNK, GermSampler
from reference import fit_convergence_rate, reference_solve_linear


def test_energy_zero_for_linear_homogeneous_at_zero():
    problem = builtin_linear_homogeneous(0.1, 1, 10.0, 6, 1)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    estimate = estimate_energy(problem, problem.mesh, problem.basis, c, 1000, 0)
    assert estimate.mean == 0.0
    assert estimate.standard_error == 0.0


def test_energy_deterministic_for_semilinear_at_zero():
    """u = 0 makes the integrand -cos(0) per sample: exactly -l, zero SE."""
    problem = builtin_semilinear_nonhomogeneous_field(0.3, 1, 12.0, 6, 1)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    estimate = estimate_energy(problem, problem.mesh, problem.basis, c, 500, 0)
    assert estimate.mean == pytest.approx(-12.0, rel=1e-12)
    assert estimate.standard_error == pytest.approx(0.0, abs=1e-12)


def test_energy_estimate_reproducible():
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 8, 2)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    a = estimate_energy(problem, problem.mesh, problem.basis, c, 2000, 3)
    b = estimate_energy(problem, problem.mesh, problem.basis, c, 2000, 3)
    assert a.mean == b.mean and a.standard_error == b.standard_error


def test_solution_at_point_includes_lifting():
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 4, 1)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    germs = np.zeros((2, 2))
    # with zero coefficients only the lifting remains
    near_right = problem.mesh.nodes[-1]
    u_c = solution_at_points(kernel_for(problem), c, [near_right - 0.25 * problem.mesh.h])
    np.testing.assert_allclose(u_c(germs), 0.75)


def test_solution_at_point_matches_manual_expansion():
    problem = builtin_linear_homogeneous(0.2, 1, 10.0, 4, 1)
    rng = np.random.default_rng(1)
    c = rng.standard_normal(4 * problem.basis.size)
    germs = rng.standard_normal((5, 2))
    points = [0.7, -1.3]
    from pcsgd.estimators import coefficient_matrix
    from pcsgd.pc_basis import eval_all
    from reference import eval_phi

    phi = np.array([[eval_phi(problem.mesh, i, x) for x in points] for i in range(1, 5)])
    psi = eval_all(problem.basis, germs)
    manual = psi @ (coefficient_matrix(c, 4) @ phi)  # (5, 2): one column per point
    np.testing.assert_allclose(
        solution_at_points(kernel_for(problem), c, points)(germs),
        manual,
        atol=1e-13,
    )


def test_l2_error_zero_for_exact_zero_solution():
    problem = builtin_semilinear_nonhomogeneous_field(0.3, 1, 12.0, 6, 1)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    error = pointwise_l2_error(problem, problem.mesh, problem.basis, c, 0.5, 500, 0)
    assert error.mean == 0.0


def test_l2_error_se_scaling():
    """Quadrupling the sample count roughly halves the standard error."""
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 8, 2)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    small = pointwise_l2_error(problem, problem.mesh, problem.basis, c, 2.0, 20_000, 5)
    large = pointwise_l2_error(problem, problem.mesh, problem.basis, c, 2.0, 80_000, 5)
    ratio = large.standard_error / small.standard_error
    assert 0.4 < ratio < 0.6


def test_reference_solve_converges_at_second_order():
    """Criterion 8 (FEM part): nodal error decays like O(h^2)."""
    errors = []
    for m in (8, 16, 32):
        problem = builtin_linear_nonhomogeneous(0.3, 1, 10.0, m, 1)
        germ = np.array([0.8, -0.5])
        nodal = reference_solve_linear(problem, problem.mesh, germ)
        exact = problem.exact_solution(problem.mesh.nodes, np.atleast_2d(germ))[0]
        errors.append(np.max(np.abs(nodal - exact)))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.3)


def test_reference_solve_boundary_values():
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 6, 1)
    nodal = reference_solve_linear(problem, problem.mesh, np.zeros(2))
    assert nodal[0] == 0.0 and nodal[-1] == 1.0
    assert nodal.size == 8


def test_reference_solve_rejects_nonlinear():
    problem = builtin_semilinear_nonhomogeneous_field(0.2, 1, 4.0, 4, 1)
    with pytest.raises(ValueError):
        reference_solve_linear(problem, problem.mesh, np.zeros(2))


@pytest.mark.parametrize("germ", [[np.nan, 0.0], [1e4, 0.0]])
def test_reference_solve_rejects_a_germ_with_a_non_finite_system(germ):
    """A NaN germ, or one whose field overflows, is an error, not a NaN solution."""
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 6, 1)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        reference_solve_linear(problem, problem.mesh, np.array(germ))


def test_reference_solve_on_an_overflowing_germ_raises_without_warnings():
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 6, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            reference_solve_linear(problem, problem.mesh, np.array([1e4, 0.0]))


def test_reference_solve_raises_on_a_failed_factorization(monkeypatch):
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 6, 1)
    blocks = Kernel.averaged_hessian_blocks
    monkeypatch.setattr(Kernel, "averaged_hessian_blocks", lambda *a, **k: -blocks(*a, **k))
    with pytest.raises(np.linalg.LinAlgError):
        reference_solve_linear(problem, problem.mesh, np.zeros(2))


def test_reference_solve_on_one_interior_node():
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 1, 1)
    germ = np.array([0.3, -0.2])
    nodal = reference_solve_linear(problem, problem.mesh, germ)
    exact = problem.exact_solution(problem.mesh.nodes, germ[None])[0]
    np.testing.assert_allclose(nodal, exact, atol=1e-6)


def test_empirical_cdf_basic_properties():
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 8, 2)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    grid = np.linspace(-0.5, 1.5, 41)
    cdf = empirical_cdf(
        problem, problem.mesh, problem.basis, c, [2.0], [grid], 5000, 0
    )
    probs = cdf.probabilities
    assert probs.shape == (41,)
    assert np.all(np.diff(probs) >= 0)
    assert probs[0] == 0.0 and probs[-1] == 1.0


def test_empirical_cdf_exact_flag_uses_exact_solution():
    problem = builtin_semilinear_nonhomogeneous_field(0.2, 1, 4.0, 4, 1)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(4 * problem.basis.size)
    grid = np.array([-1e-9, 1e-9])
    cdf = empirical_cdf(
        problem, problem.mesh, problem.basis, c, [0.5], [grid], 1000, 0,
        use_exact_solution=True,
    )
    # the exact solution is identically zero: all mass at 0
    np.testing.assert_array_equal(cdf.probabilities, [0.0, 1.0])


def test_joint_cdf_monotone():
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 8, 2)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    grid = np.linspace(0.0, 1.0, 11)
    cdf = empirical_cdf(
        problem, problem.mesh, problem.basis, c, [-4.0, 2.0], [grid, grid], 4000, 0
    )
    probs = cdf.probabilities
    assert probs.shape == (11, 11)
    assert np.all(np.diff(probs, axis=0) >= 0)
    assert np.all(np.diff(probs, axis=1) >= 0)
    # marginal consistency: F(inf, y2) equals the 1d CDF at x=2
    marginal = empirical_cdf(
        problem, problem.mesh, problem.basis, c, [2.0], [grid], 4000, 0
    )
    np.testing.assert_allclose(probs[-1], marginal.probabilities, atol=1e-12)


def test_exact_energy_mc_on_known_minimum():
    problem = builtin_semilinear_nonhomogeneous_field(0.3, 1, 12.0, 6, 1)
    estimate = exact_energy_mc(problem, 200, 0)
    assert estimate.mean == pytest.approx(-12.0, rel=1e-8)


def test_fit_convergence_rate_on_synthetic_decay():
    n = np.arange(0, 1001, 10)
    gap = np.where(n > 0, 3.0 / np.maximum(n, 1), 10.0)
    trajectory = Trajectory(
        iterations=n,
        rates=np.zeros_like(n, dtype=float),
        energy_mean=1.5 + gap,
        energy_se=np.zeros_like(n, dtype=float),
        gradient_norm=np.zeros_like(n, dtype=float),
        fallback_count=np.zeros_like(n),
    )
    slope = fit_convergence_rate(trajectory, 1.5, (10, 1000))
    assert slope == pytest.approx(-1.0, abs=1e-6)


def test_fit_convergence_rate_warns_on_nonpositive_gap():
    n = np.arange(0, 101, 10)
    energy = np.full(n.size, 2.0)
    energy[5] = 0.5  # below the reference minimum
    trajectory = Trajectory(
        iterations=n,
        rates=np.zeros_like(n, dtype=float),
        energy_mean=energy,
        energy_se=np.zeros_like(n, dtype=float),
        gradient_norm=np.zeros_like(n, dtype=float),
        fallback_count=np.zeros_like(n),
    )
    with pytest.warns(RuntimeWarning):
        fit_convergence_rate(trajectory, 1.0, (10, 100))


def test_estimate_energy_rejects_tiny_sample():
    problem = builtin_linear_homogeneous(0.1, 1, 10.0, 4, 1)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    with pytest.raises(ValueError):
        estimate_energy(problem, problem.mesh, problem.basis, c, 1, 0)


def test_estimate_energy_chunks_match_one_kernel_call():
    """GERM_CHUNK-row calls give the mean and SE of one call on all the germs."""
    problem = builtin_semilinear_homogeneous_field(12.0, 9, 2)
    kernel = kernel_for(problem)
    c = 0.3 * np.random.default_rng(3).standard_normal(kernel.dim)
    n = 2 * GERM_CHUNK + 37
    germs = GermSampler(4, problem.germ_dim).sample_batch(0, n, EVAL_PURPOSE)
    energies = kernel.energies(c, germs)
    estimate = estimate_energy(problem, problem.mesh, problem.basis, c, n, 4)
    np.testing.assert_allclose(estimate.mean, energies.mean(), rtol=1e-14, atol=0)
    np.testing.assert_allclose(
        estimate.standard_error, energies.std(ddof=1) / np.sqrt(n), rtol=1e-14, atol=0
    )


def test_an_estimate_is_the_sample_mean_and_its_standard_error():
    """The mean is numpy's over the per-germ samples, the SE std(ddof=1) / sqrt(n), both
    Python floats; the samples are the kernel's on each GERM_CHUNK-row draw."""
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 8, 2)
    kernel = kernel_for(problem)
    c = np.random.default_rng(4).standard_normal(kernel.dim)
    n = 2 * GERM_CHUNK + 37
    chunks = GermSampler(6, problem.germ_dim).chunks(0, n, EVAL_PURPOSE)
    samples = np.concatenate([kernel.energies(c, germs) for germs in chunks])
    estimate = estimate_energy(problem, problem.mesh, problem.basis, c, n, 6)
    assert isinstance(estimate.mean, float) and isinstance(estimate.standard_error, float)
    assert estimate.mean == samples.mean()
    assert estimate.standard_error == samples.std(ddof=1) / np.sqrt(samples.size)


def test_estimate_energy_memory_is_bounded(traced_peak):
    """Table3 size (M=100, N+1=10) on 2e4 germs: GERM_CHUNK-row temporaries only."""
    problem = builtin_semilinear_homogeneous_field(12.0, 100, 3)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    peak = traced_peak(lambda: estimate_energy(problem, problem.mesh, problem.basis, c, 20_000, 0))
    assert peak < 40 * 2**20


def test_estimate_energy_draws_its_germs_per_chunk(traced_peak, monkeypatch):
    """Staged size (K=4, M=50, p=3) forked on two cores: from 2e4 to 8e4 germs the peak
    grows by less than the 32 B of a germ drawn ahead of its chunk (the per-germ results
    are in the pass's shared mmap, which tracemalloc does not see)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    problem = builtin_semilinear_nonhomogeneous_field(0.3, 2, 12.0, 50, 3)
    c = 0.1 * np.random.default_rng(8).standard_normal(problem.mesh.n_interior * problem.basis.size)
    peaks = [
        traced_peak(lambda: estimate_energy(problem, problem.mesh, problem.basis, c, n, 3))
        for n in (20_000, 20_000, 80_000)  # the first call warms the field's grid memo
    ]
    assert (peaks[2] - peaks[1]) / 60_000 < 16


def test_empirical_cdf_rejects_no_samples():
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 6, 2)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    with pytest.raises(ValueError):
        empirical_cdf(problem, problem.mesh, problem.basis, c, [0.5], [np.zeros(3)], 0, 0)


def test_empirical_cdf_rejects_a_point_outside_the_mesh_on_both_paths():
    """The exact solution would extrapolate past the mesh; both paths raise the same error."""
    problem = builtin_linear_nonhomogeneous(0.1, 2, 10.0, 50, 3)  # on [-5, 5]
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    for use_exact_solution in (False, True):
        with pytest.raises(ValueError, match="evaluation point outside the mesh domain"):
            empirical_cdf(
                problem, problem.mesh, problem.basis, c, [7.0], [np.zeros(3)], 100, 0,
                use_exact_solution=use_exact_solution,
            )


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_empirical_cdf_rejects_a_non_finite_point_on_both_paths(x):
    problem = builtin_linear_nonhomogeneous(0.1, 2, 10.0, 50, 3)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    for use_exact_solution in (False, True):
        with pytest.raises(ValueError, match="outside the mesh domain"):
            empirical_cdf(
                problem, problem.mesh, problem.basis, c, [x], [np.zeros(3)], 100, 0,
                use_exact_solution=use_exact_solution,
            )


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda *args: estimate_energy(*args, 100, 0),
        lambda *args: pointwise_l2_error(*args, 0.5, 100, 0),
        lambda *args: empirical_cdf(*args, [0.5], [np.zeros(3)], 100, 0),
    ],
    ids=["energy", "l2", "cdf"],
)
def test_evaluation_rejects_a_coefficient_vector_of_another_size(evaluate):
    """M coefficients, one per interior node, would otherwise fill every chaos mode."""
    problem = builtin_linear_nonhomogeneous(0.1, 2, 10.0, 50, 3)  # M = 50, dim 1750
    for size in (50, 51, 100):
        with pytest.raises(ValueError, match=f"^{size} coefficients given, the problem has 1750"):
            evaluate(problem, problem.mesh, problem.basis, np.ones(size))


@pytest.mark.parametrize("x", [7.0, float("nan"), float("inf")])
def test_pointwise_l2_error_rejects_a_point_before_evaluating_the_exact_solution(x):
    problem = builtin_linear_nonhomogeneous(0.1, 2, 10.0, 50, 3)  # on [-5, 5]
    calls = []
    exact = problem.exact_solution
    problem = dataclasses.replace(
        problem, exact_solution=lambda points, germs: calls.append(points) or exact(points, germs)
    )
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    with pytest.raises(ValueError, match="outside the mesh domain"):
        pointwise_l2_error(problem, problem.mesh, problem.basis, c, x, 1000, 0)
    assert calls == []


def _records(energies):
    """A trajectory with the given energies recorded at n = 0, 10, 20, ..."""
    zeros = np.zeros(len(energies))
    iterations = 10 * np.arange(len(energies))
    return Trajectory(iterations, zeros, np.array(energies), zeros, zeros, zeros)


NO_EXACT = dataclasses.replace(
    builtin_linear_homogeneous(0.1, 1, 10.0, 4, 1), exact_solution=None
)
CDF_PROBLEM = builtin_linear_homogeneous(0.1, 1, 10.0, 4, 1)
CDF_C = np.zeros(CDF_PROBLEM.mesh.n_interior * CDF_PROBLEM.basis.size)
GRID = np.linspace(0.0, 1.0, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pointwise_l2_error(NO_EXACT, NO_EXACT.mesh, NO_EXACT.basis, CDF_C, 0.5, 10, 0),
         "no exact solution"),
        (lambda: empirical_cdf(NO_EXACT, NO_EXACT.mesh, NO_EXACT.basis, CDF_C, [0.5], [GRID],
                               10, 0, use_exact_solution=True), "no exact solution"),
        (lambda: exact_energy_mc(NO_EXACT, 10, 0), "no exact solution data"),
        (lambda: empirical_cdf(CDF_PROBLEM, CDF_PROBLEM.mesh, CDF_PROBLEM.basis, CDF_C,
                               [-1.0, 0.0, 1.0], [GRID] * 3, 10, 0), "one or two"),
        (lambda: empirical_cdf(CDF_PROBLEM, CDF_PROBLEM.mesh, CDF_PROBLEM.basis, CDF_C,
                               [-1.0, 1.0], [GRID], 10, 0), "one threshold grid per"),
        # one record inside the range: nothing is truncated, so no warning either
        (lambda: fit_convergence_rate(_records([3.0, 2.0]), 1.0, (10, 100)),
         "not enough usable records"),
    ],
    ids=["l2-no-exact", "cdf-no-exact", "energy-no-exact", "three-points", "grid-count",
         "one-usable-record"],
)
def test_evaluation_rejects_invalid_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
