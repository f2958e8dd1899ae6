import dataclasses

import numpy as np
import pytest

from pcsgd import (
    ControlVariateState,
    GermSampler,
    Kernel,
    ProblemInstance,
    builtin_linear_homogeneous,
    builtin_linear_nonhomogeneous,
    builtin_semilinear_homogeneous_field,
    builtin_semilinear_nonhomogeneous_field,
    estimate_cv_lambda,
    estimate_energy,
    generate_basis,
    kernel_for,
)
from pcsgd.estimators import DEFAULT_QUADRATURE_ORDER, coefficient_matrix, flat_index
from pcsgd.fem1d import hat_tables, lifting_tables, quadrature_points
from pcsgd.pc_basis import eval_all, gauss_hermite
from pcsgd.sgd import CV_ORDERS
from reference import LiftingFunction, eval_dphi, eval_phi, moment_table


def dense_from_bands(bands):
    """(N+1, M, M) symmetric tridiagonal blocks from (N+1, 2, M) lower bands."""
    blocks = np.stack([np.diag(b[0]) for b in bands])
    for j, b in enumerate(bands):
        blocks[j] += np.diag(b[1, :-1], -1) + np.diag(b[1, :-1], 1)
    return blocks


def dense_hessian_blocks(problem, c, germs, full):
    """Averaged blocks by dense assembly over the full (P, M) hat tables."""
    mesh = problem.mesh
    rule = quadrature_points(mesh, DEFAULT_QUADRATURE_ORDER)
    x, w = rule.points, rule.weights
    phi, dphi = hat_tables(mesh, rule)
    lift, _ = lifting_tables(mesh, rule, *problem.boundary)
    psi = eval_all(problem.basis, germs)
    psi2 = psi**2 / germs.shape[0]
    wa = (psi2.T @ problem.field.values(x, germs)) * w
    blocks = np.stack([dphi.T @ (row[:, None] * dphi) for row in wa])
    if full and problem.nonlinearity is not None:
        u = psi @ coefficient_matrix(c, mesh.n_interior) @ phi.T + lift
        wb = (psi2.T @ problem.nonlinearity.derivative(u)) * w
        blocks += np.stack([phi.T @ (row[:, None] * phi) for row in wb])
    return blocks


def test_flat_index_layout_round_trip():
    m = 7
    c = np.arange(4 * m, dtype=float)
    matrix = coefficient_matrix(c, m)
    assert matrix.shape == (4, m)
    for j in range(4):
        for i in range(1, m + 1):
            assert matrix[j, i - 1] == c[flat_index(i, j, m)]


def naive_gradient(problem, c, germ, n_quad_per_element=4):
    """Straightforward double-loop gradient: a slow, independent oracle.

    Evaluates every (i, j) entry by per-point quadrature with scalar
    basis-function calls, no vectorized assembly shared with the kernel.
    """
    mesh, basis = problem.mesh, problem.basis
    kernel = kernel_for(problem)
    rule_x = kernel.x
    rule_w = kernel.w
    m = mesh.n_interior
    psi = eval_all(basis, np.atleast_2d(germ))[0]
    kappa = problem.field.values(rule_x, np.atleast_2d(germ))[0]
    lift = LiftingFunction(*problem.boundary)
    grad = np.zeros(m * basis.size)
    # expansion value/derivative at the quadrature points
    u = lift.value(mesh, rule_x).astype(float)
    du = lift.derivative(mesh, rule_x).astype(float)
    cm = coefficient_matrix(c, m)
    for i in range(1, m + 1):
        phi_vals = np.array([eval_phi(mesh, i, x) for x in rule_x])
        dphi_vals = np.array([eval_dphi(mesh, i, x) for x in rule_x])
        for j in range(basis.size):
            u = u + cm[j, i - 1] * phi_vals * psi[j]
            du = du + cm[j, i - 1] * dphi_vals * psi[j]
    reaction = np.zeros_like(u)
    if problem.nonlinearity is not None:
        reaction = problem.nonlinearity.value(u)
    if problem.source is not None:
        reaction = reaction + problem.source(rule_x, np.atleast_2d(germ))[0]
    for i in range(1, m + 1):
        phi_vals = np.array([eval_phi(mesh, i, x) for x in rule_x])
        dphi_vals = np.array([eval_dphi(mesh, i, x) for x in rule_x])
        for j in range(basis.size):
            integrand = kappa * du * dphi_vals * psi[j] + reaction * phi_vals * psi[j]
            grad[flat_index(i, j, m)] = np.sum(rule_w * integrand)
    return grad


@pytest.mark.parametrize(
    "problem",
    [
        builtin_linear_nonhomogeneous(0.3, 1, 10.0, 5, 2),
        builtin_semilinear_homogeneous_field(12.0, 5, 2),
        builtin_semilinear_nonhomogeneous_field(0.3, 1, 12.0, 5, 2),
    ],
    ids=["linear-lifting", "semilinear-source", "semilinear-trig"],
)
def test_gradient_matches_naive_double_loop(problem):
    """Criterion 8 (gradient part): tensor-factorized vs naive to 1e-12."""
    assert problem.basis.size == 6  # M=5, N+1=6 as specified
    kernel = kernel_for(problem)
    rng = np.random.default_rng(12)
    c = rng.standard_normal(kernel.dim)
    germs = rng.standard_normal((3, problem.germ_dim))
    fast = kernel.gradient_batch(c, germs)
    for s in range(3):
        slow = naive_gradient(problem, c, germs[s])
        np.testing.assert_allclose(fast[s], slow, atol=1e-12, rtol=1e-12)


def test_energy_matches_gradient_by_finite_differences():
    """Per-sample d/dc energy equals the gradient sample (same germ)."""
    problem = builtin_semilinear_homogeneous_field(12.0, 6, 2)
    kernel = kernel_for(problem)
    rng = np.random.default_rng(7)
    c = 0.3 * rng.standard_normal(kernel.dim)
    germs = rng.standard_normal((2, 2))
    grad = kernel.gradient_batch(c, germs)
    eps = 1e-6
    for idx in rng.choice(kernel.dim, size=6, replace=False):
        step = np.zeros(kernel.dim)
        step[idx] = eps
        fd = (kernel.energies(c + step, germs) - kernel.energies(c - step, germs)) / (
            2 * eps
        )
        np.testing.assert_allclose(grad[:, idx], fd, atol=1e-7)


def test_hessian_blocks_match_gradient_finite_differences():
    """Diagonal blocks of a one-germ batch against d g / d c within the same psi-block."""
    problem = builtin_semilinear_nonhomogeneous_field(0.2, 1, 4.0, 4, 1)
    kernel = kernel_for(problem)
    rng = np.random.default_rng(8)
    c = 0.2 * rng.standard_normal(kernel.dim)
    germ = rng.standard_normal(2)
    blocks = dense_from_bands(kernel.averaged_hessian_blocks(c, np.atleast_2d(germ), full=True))
    m = problem.mesh.n_interior
    eps = 1e-6
    for j in range(problem.basis.size):
        for col in range(m):
            step = np.zeros(kernel.dim)
            step[flat_index(col + 1, j, m)] = eps
            fd = (
                kernel.gradient_batch(c + step, np.atleast_2d(germ))[0]
                - kernel.gradient_batch(c - step, np.atleast_2d(germ))[0]
            ) / (2 * eps)
            np.testing.assert_allclose(
                blocks[j, :, col], fd[j * m : (j + 1) * m], atol=1e-6
            )


def test_averaged_blocks_equal_mean_of_single_samples():
    """The 5-germ average equals the mean of the five one-germ averages."""
    problem = builtin_semilinear_nonhomogeneous_field(0.2, 1, 4.0, 4, 1)
    kernel = kernel_for(problem)
    rng = np.random.default_rng(9)
    c = 0.1 * rng.standard_normal(kernel.dim)
    germs = rng.standard_normal((5, 2))
    for full in (False, True):
        averaged = kernel.averaged_hessian_blocks(c, germs, full=full)
        assert averaged.shape == (problem.basis.size, 2, problem.mesh.n_interior)
        manual = np.mean(
            [kernel.averaged_hessian_blocks(c, g[None, :], full=full) for g in germs],
            axis=0,
        )
        np.testing.assert_allclose(averaged, manual, atol=1e-12)


@pytest.mark.parametrize(
    "problem",
    [
        builtin_linear_nonhomogeneous(0.3, 1, 10.0, 7, 2),
        builtin_semilinear_homogeneous_field(12.0, 9, 2),
        builtin_semilinear_nonhomogeneous_field(0.3, 1, 12.0, 8, 2),
    ],
    ids=["linear-lifting", "semilinear-source", "semilinear-trig"],
)
def test_hessian_bands_match_dense_assembly(problem):
    """Both stages' bands equal a dense hat-table assembly, which is tridiagonal."""
    kernel = kernel_for(problem)
    rng = np.random.default_rng(13)
    c = 0.5 * rng.standard_normal(kernel.dim)
    germs = rng.standard_normal((11, problem.germ_dim))
    for full in (False, True):
        dense = dense_hessian_blocks(problem, c, germs, full)
        banded = dense_from_bands(kernel.averaged_hessian_blocks(c, germs, full=full))
        assert np.max(np.abs(banded - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_cv_known_mean_matches_monte_carlo():
    """Analytic E[Z] via the moment tables against a large-sample mean."""
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 6, 2)
    kernel = kernel_for(problem)
    rng = np.random.default_rng(10)
    c = rng.standard_normal(kernel.dim)
    germs = rng.standard_normal((400_000, 2))
    for order in (0, 1):
        analytic = kernel.cv_known_mean(c, order)
        z = kernel.cv_auxiliary_batch(c, germs, order)
        se = z.std(axis=0, ddof=1) / np.sqrt(germs.shape[0])
        t = np.abs(z.mean(axis=0) - analytic) / np.maximum(se, 1e-14)
        assert np.max(t) < 6.0


@pytest.mark.parametrize("n_pairs, degree", [(1, 3), (2, 3), (1, 5)])
def test_cv_known_mean_equals_the_dense_moment_contraction(n_pairs, degree):
    """The gather over alpha -/+ e_k gives the dense einsum's bits, for both orders."""
    problem = builtin_linear_nonhomogeneous(0.3, n_pairs, 10.0, 8, degree)
    kernel = kernel_for(problem)
    moments = moment_table(problem.basis)
    rng = np.random.default_rng(degree + 10 * n_pairs)
    for _ in range(5):
        problem.boundary = tuple(rng.standard_normal(2))
        c = rng.standard_normal(kernel.dim) * 10.0 ** rng.uniform(-3, 3)
        slopes = np.diff(kernel.padded_coefficients(c), axis=1) / kernel.mesh.h
        order0 = moments.pair_moments @ kernel._stiffness_rows(kernel._cond0 * slopes)
        rows = kernel._stiffness_rows(kernel._condk[:, None, :] * slopes)
        order1 = order0 + np.einsum("kab,kbi->ai", moments.linear_moments, rows)
        assert np.array_equal(kernel.cv_known_mean(c, 0), order0.ravel())
        assert np.array_equal(kernel.cv_known_mean(c, 1), order1.ravel())


def test_cv_estimator_reduces_variance_and_keeps_mean():
    problem = builtin_linear_nonhomogeneous(0.1, 1, 10.0, 6, 2)
    kernel = kernel_for(problem)
    rng = np.random.default_rng(11)
    c = rng.standard_normal(kernel.dim)
    sampler = GermSampler(4, 2)
    state = estimate_cv_lambda(kernel, c, 1, 2000, sampler)
    germs = sampler.sample_batch(1, 100_000, "gradient")
    plain = kernel.gradient_batch(c, germs)
    reduced = kernel.cv_gradient_batch(c, germs, state)
    # variance collapses on the dominant components
    ratio = reduced[:, 0].std() / plain[:, 0].std()
    assert ratio < 0.2
    # means agree within combined standard errors
    se = np.hypot(
        plain.std(axis=0, ddof=1), reduced.std(axis=0, ddof=1)
    ) / np.sqrt(germs.shape[0])
    t = np.abs(plain.mean(axis=0) - reduced.mean(axis=0)) / np.maximum(se, 1e-14)
    assert np.max(t) < 6.0


def test_lambda_zero_when_auxiliary_degenerate():
    """With zero coefficients and zero boundary the linear part vanishes."""
    problem = builtin_semilinear_nonhomogeneous_field(0.2, 1, 4.0, 4, 1)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    state = estimate_cv_lambda(kernel_for(problem), c, 1, 100, GermSampler(0, 2))
    np.testing.assert_array_equal(state.lam, 0.0)


ALL_BUILTINS = [
    builtin_linear_homogeneous(0.3, 1, 10.0, 7, 2),
    builtin_linear_nonhomogeneous(0.3, 1, 10.0, 7, 2),
    builtin_semilinear_homogeneous_field(12.0, 9, 2),
    builtin_semilinear_nonhomogeneous_field(0.3, 1, 12.0, 8, 2),
]
BUILTIN_IDS = ["linear", "linear-lifting", "semilinear-source", "semilinear-trig"]


@pytest.mark.parametrize("problem", ALL_BUILTINS, ids=BUILTIN_IDS)
@pytest.mark.parametrize("order", CV_ORDERS.values(), ids=CV_ORDERS)
def test_gradient_mean_equals_mean_of_cv_batches(problem, order):
    """The once-projected batch mean equals the mean of the per-sample estimator."""
    kernel = kernel_for(problem)
    rng = np.random.default_rng(14)
    c = 0.5 * rng.standard_normal(kernel.dim)
    sampler = GermSampler(6, problem.germ_dim)
    state = estimate_cv_lambda(kernel, c, order, 200, sampler)
    germs = sampler.sample_batch(1, 64, "gradient")
    expected = kernel.cv_gradient_batch(c, germs, state).mean(axis=0)
    mean = kernel.gradient_mean(c, germs, state)
    assert np.max(np.abs(mean - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("problem", ALL_BUILTINS, ids=BUILTIN_IDS)
@pytest.mark.parametrize("order", [0, 1], ids=["order0", "order1"])
def test_cv_lambda_matches_per_sample_products(problem, order):
    """Fitting one psi_j at a time sums in the order of the full (n, dim) sample arrays."""
    kernel = kernel_for(problem)
    c = 0.5 * np.random.default_rng(16).standard_normal(kernel.dim)
    sampler = GermSampler(7, problem.germ_dim)
    state = estimate_cv_lambda(kernel, c, order, 300, sampler)
    germs = sampler.sample_batch(0, 300, "pilot")
    x = kernel._tensor(eval_all(problem.basis, germs), kernel.gradient_parts(c, germs).linear)
    z = kernel.cv_auxiliary_batch(c, germs, order)
    xc, zc = x - x.mean(axis=0), z - z.mean(axis=0)
    var_z = (zc * zc).sum(axis=0)
    expected = np.where(var_z > 0, -(xc * zc).sum(axis=0) / np.where(var_z > 0, var_z, 1), 0)
    np.testing.assert_array_equal(state.lam, expected)


def test_cv_lambda_memory_is_bounded(traced_peak):
    """Solve size (M=50, N+1=35), 1,000-germ order1 pilot: no (pilot, dim) arrays."""
    problem = builtin_linear_nonhomogeneous(0.1, 2, 10.0, 50, 3)
    c = np.zeros(problem.mesh.n_interior * problem.basis.size)
    peak = traced_peak(
        lambda: estimate_cv_lambda(kernel_for(problem), c, 1, 1000, GermSampler(0, 4))
    )
    assert peak < 16 * 2**20


def test_control_variate_state_needs_fitted_multipliers():
    """A state always has its order and multipliers; no control variate is None."""
    with pytest.raises(TypeError):
        ControlVariateState(1)
    kernel, c, _ = _check_kernel()
    assert estimate_cv_lambda(kernel, c, None, 2, GermSampler(0, 2)) is None


def test_constant_field_conductances_match_quadrature():
    """kappa times the element width equals the quadrature sum over each element."""
    problem = builtin_semilinear_homogeneous_field(12.0, 9, 2)
    kernel = kernel_for(problem)
    germs = np.random.default_rng(15).standard_normal((50, 2))
    q = DEFAULT_QUADRATURE_ORDER
    kappa = problem.field.values(kernel.x, germs)
    quadrature = (kappa * kernel.w).reshape(50, -1, q).sum(axis=2)
    np.testing.assert_allclose(kernel.conductances(germs), quadrature, rtol=1e-14, atol=0)
    assert problem.field.scalar_values(germs) is not None
    assert builtin_linear_homogeneous(0.3, 1, 10.0, 7, 2).field.scalar_values(germs) is None


@pytest.mark.parametrize("problem", ALL_BUILTINS, ids=BUILTIN_IDS)
def test_energies_match_nodal_difference_formula(problem):
    """u' from differenced coefficients gives the energy of u' from differenced nodal values."""
    kernel = kernel_for(problem)
    rng = np.random.default_rng(16)
    c = rng.standard_normal(kernel.dim)
    germs = rng.standard_normal((40, problem.germ_dim))
    psi, conductance, loads = kernel.germ_tables(germs)
    nodal = psi @ kernel.padded_coefficients(c)
    du = np.diff(nodal, axis=1) / problem.mesh.h
    expected = 0.5 * np.sum(conductance * du * du, axis=1)
    if problem.nonlinearity is not None:
        q = DEFAULT_QUADRATURE_ORDER
        t = (kernel.x[:q] - problem.mesh.nodes[0]) / problem.mesh.h
        u = (nodal[:, :-1, None] * (1.0 - t) + nodal[:, 1:, None] * t).reshape(40, -1)
        expected += problem.nonlinearity.antiderivative(u) @ kernel.w
    if loads is not None:
        expected += np.sum(loads * nodal, axis=1)
    np.testing.assert_allclose(kernel.energies(c, germs), expected, rtol=1e-12)


def test_kernel_for_builds_a_new_kernel():
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 5, 1)
    assert isinstance(kernel_for(problem), Kernel)
    assert kernel_for(problem) is not kernel_for(problem)


@pytest.mark.parametrize(
    "problem, change",
    [
        (builtin_semilinear_nonhomogeneous_field(0.3, 2, 12.0, 20, 2), {"nonlinearity": None}),
        (builtin_semilinear_homogeneous_field(12.0, 100, 3), {"source": None}),
    ],
    ids=["no-reaction", "no-source"],
)
def test_replaced_problem_evaluates_its_own_fields(problem, change):
    """dataclasses.replace gives a problem whose energy is that of a freshly built one."""
    mesh, basis = problem.mesh, problem.basis
    c = 0.1 * np.random.default_rng(18).standard_normal(mesh.n_interior * basis.size)
    estimate_energy(problem, mesh, basis, c, 64, 0)  # the parent's kernel exists first
    replaced = dataclasses.replace(problem, **change)
    names = ("name", "field", "nonlinearity", "mesh", "basis", "boundary", "source")
    fresh = ProblemInstance(**{name: getattr(replaced, name) for name in names})
    expected = estimate_energy(fresh, mesh, basis, c, 64, 0)
    assert estimate_energy(replaced, mesh, basis, c, 64, 0).mean == expected.mean


def test_kernel_weight_tables_are_c_contiguous():
    """numpy's matmul takes a slower path for a Fortran-ordered right operand."""
    kernel = kernel_for(builtin_semilinear_homogeneous_field(12.0, 10, 2))
    for table in (kernel._element_w, kernel._shape, kernel._load_w, kernel._mass_w):
        assert table.flags.c_contiguous


def whole_array_rule_energy(kernel, c, nodes, weights):
    """`rule_moments`' a <= b half of G_e and source, and `expected_energy`, with
    every 256-node slice's pair products gathered at once and the reaction
    evaluated on all nodes in one call."""
    psi, conductance, loads = kernel.germ_tables(nodes)
    a, b = np.triu_indices(kernel.basis.size)
    half = np.zeros((conductance.shape[1], len(a)))
    source = None if loads is None else np.zeros((kernel.basis.size, loads.shape[1]))
    for k in range(0, len(nodes), 256):
        chunk = slice(k, k + 256)
        wpsi = weights[chunk, None] * psi[chunk]
        half += np.einsum("se,sp->ep", conductance[chunk], wpsi[:, a] * psi[chunk, b])
        if source is not None:
            source += np.einsum("sa,si->ai", wpsi, loads[chunk])
    stiffness = np.empty((len(half), kernel.basis.size, kernel.basis.size))
    stiffness[:, a, b] = stiffness[:, b, a] = half
    padded = kernel.padded_coefficients(c)
    du = (np.diff(padded, axis=1) / kernel.mesh.h).T
    energy = 0.5 * (np.einsum("eab,eb->ea", stiffness, du) * du).sum()
    if source is not None:
        energy += (source * padded).sum()
    if kernel.problem.nonlinearity is not None:
        energy += weights @ kernel._reaction_energies(psi @ padded)
    return stiffness, source, float(energy)


@pytest.mark.parametrize(
    "problem",
    [
        builtin_semilinear_nonhomogeneous_field(0.3, 2, 12.0, 50, 3),
        builtin_linear_nonhomogeneous(0.1, 2, 10.0, 50, 3),
        builtin_semilinear_homogeneous_field(12.0, 100, 3),
    ],
    ids=["staged", "solve", "table3"],
)
def test_rule_tables_equal_the_whole_array_formulas(problem):
    """Row-by-row pair products and 256-node reaction slices keep every bit."""
    kernel = kernel_for(problem)
    c = 0.1 * np.random.default_rng(2).standard_normal(kernel.dim)
    for n in (6, 4):
        rule = gauss_hermite(n, problem.germ_dim)
        moments = kernel.rule_moments(*rule)
        stiffness, source, energy = whole_array_rule_energy(kernel, c, *rule)
        np.testing.assert_array_equal(moments.stiffness, stiffness)
        if source is not None:
            np.testing.assert_array_equal(moments.source, source)
        assert kernel.expected_energy(c, moments) == energy


def test_monitor_tables_memory_is_bounded(traced_peak):
    """Staged size (K=4, M=50, p=3) on the 6^4 rule: no table over all 1,296
    nodes' pair products, nor over all their quadrature points at once."""
    problem = builtin_semilinear_nonhomogeneous_field(0.3, 2, 12.0, 50, 3)
    kernel = kernel_for(problem)
    c = 0.1 * np.random.default_rng(2).standard_normal(kernel.dim)
    rule = gauss_hermite(6, problem.germ_dim)
    kernel.rule_moments(*rule)  # warms the field's grid memo
    assert traced_peak(lambda: kernel.rule_moments(*rule)) < 3.5 * 2**20
    moments = kernel.rule_moments(*rule)
    assert traced_peak(lambda: kernel.expected_energy(c, moments)) < 2 * 2**20


def _check_kernel():
    problem = builtin_linear_homogeneous(0.3, 1, 10.0, 5, 1)
    kernel = kernel_for(problem)
    return kernel, np.zeros(kernel.dim), np.zeros((4, problem.germ_dim))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda k, c, g: Kernel(k.problem, k.mesh, generate_basis(3, 1)), "germ dimension"),
        (lambda k, c, g: estimate_cv_lambda(k, c, 1, 1, GermSampler(0, 2)),
         "at least two samples"),
    ],
    ids=["basis-germ-dim", "cv-pilot"],
)
def test_estimators_reject_invalid_input(call, message):
    with pytest.raises(ValueError, match=message):
        call(*_check_kernel())


def test_hessian_blocks_take_the_stage_by_keyword_only():
    """A positional stage, such as an old stage string, is a TypeError, not a truthy `full`."""
    kernel, c, germs = _check_kernel()
    with pytest.raises(TypeError):
        kernel.averaged_hessian_blocks(c, germs, "full")
