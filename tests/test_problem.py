import tracemalloc

import numpy as np
import pytest

from pcsgd import (
    builtin_linear_homogeneous,
    builtin_linear_nonhomogeneous,
    builtin_semilinear_homogeneous_field,
    builtin_semilinear_nonhomogeneous_field,
)
from pcsgd.problem import (
    SINE_REACTION,
    _inverse_kappa_integral,
    simpson_grid,
)
from pcsgd.random_field import GERM_CHUNK


def test_reaction_contracts():
    """The half-angle forms track numpy's sin and cos from 1e-6 to the float64 limit."""
    rng = np.random.default_rng(0)
    scales = [1e-6, 0.3, 1.0, 3.0, 100.0, 1e81, 1.7e308]
    u = np.concatenate([rng.uniform(-1.0, 1.0, 4000) * s for s in scales])
    u = np.concatenate([u, np.linspace(-4.0, 4.0, 33), [0.0, -0.0, np.inf, -np.inf, np.nan]])
    before = u.copy()
    with np.errstate(invalid="ignore"):
        value = SINE_REACTION.value(u)
        antiderivative = SINE_REACTION.antiderivative(u)
        derivative = SINE_REACTION.derivative(u)
        sin, cos = np.sin(u), np.cos(u)
    np.testing.assert_array_equal(u, before)
    for computed in (value, antiderivative, derivative):
        np.testing.assert_array_equal(np.isnan(computed), np.isnan(sin))
    finite = np.isfinite(u)
    assert np.all(np.abs(value - sin)[finite] <= 4 * np.spacing(np.abs(sin[finite])))
    assert np.all(np.abs(derivative - cos)[finite] <= 4.5e-16)
    assert np.all(np.abs(antiderivative + cos)[finite] <= 4.5e-16)
    zero = u == 0.0
    assert np.signbit(u[zero]).any() and not np.signbit(u[zero]).all()
    np.testing.assert_array_equal(np.signbit(value[zero]), np.signbit(u[zero]))
    np.testing.assert_array_equal(derivative[zero], 1.0)


@pytest.mark.parametrize("name, arrays", [("value", 2), ("antiderivative", 1), ("derivative", 1)])
def test_reaction_memory_is_bounded(name, arrays):
    """At most `arrays` temporaries of the input's size, plus small slack."""
    u = np.random.default_rng(7).standard_normal((1024, 404))
    reaction = getattr(SINE_REACTION, name)
    reaction(u)  # numpy's first call of a loop may allocate
    tracemalloc.start()
    try:
        reaction(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < arrays * u.nbytes + 2**16


def test_antiderivative_consistency():
    """F' = f checked by central differences for the sine reaction."""
    u = np.linspace(-3.0, 3.0, 25)
    eps = 1e-6
    fd = (
        SINE_REACTION.antiderivative(u + eps)
        - SINE_REACTION.antiderivative(u - eps)
    ) / (2 * eps)
    np.testing.assert_allclose(fd, SINE_REACTION.value(u), atol=1e-9)


def test_linear_homogeneous_shape():
    problem = builtin_linear_homogeneous(0.1, 2, 10.0, 8, 2)
    assert problem.nonlinearity is None
    assert problem.germ_dim == 4
    assert problem.exact_energy == 0.0
    assert problem.boundary == (0.0, 0.0)
    germs = np.zeros((3, 4))
    np.testing.assert_array_equal(problem.exact_solution(1.0, germs), 0.0)


def test_linear_nonhomogeneous_exact_solution_boundary_values():
    problem = builtin_linear_nonhomogeneous(0.2, 2, 10.0, 8, 2)
    rng = np.random.default_rng(0)
    germs = rng.standard_normal((5, 4))
    ends = problem.exact_solution(np.array([-5.0, 5.0]), germs)
    np.testing.assert_allclose(ends[:, 0], 0.0, atol=1e-12)
    np.testing.assert_allclose(ends[:, 1], 1.0, rtol=1e-12)
    # monotone increasing in x for every germ (positive diffusivity)
    left, right = problem.exact_solution(np.array([-1.0, 2.0]), germs).T
    assert np.all(right > left)


def test_inverse_kappa_integral_chunks_match_one_array_formula():
    """Chunking the germs leaves the Simpson sums unchanged.

    They are bit-identical at one BLAS thread; a multi-threaded BLAS may
    sum a row in another order for another matrix shape (1.1e-15 measured
    at two threads), hence the few-ulp tolerance.
    """
    field = builtin_linear_nonhomogeneous(0.2, 2, 10.0, 8, 2).field
    germs = np.random.default_rng(5).standard_normal((2 * GERM_CHUNK + 37, 4))
    x, w = simpson_grid(-5.0, 2.0)
    np.testing.assert_allclose(
        _inverse_kappa_integral(field, -5.0, 2.0, germs),
        (1.0 / field.values(x, germs)) @ w,
        rtol=1e-14,
        atol=0.0,
    )


def test_linear_nonhomogeneous_exact_solution_memory_is_bounded():
    """One call at 1e4 germs stays far below two (n, SIMPSON_POINTS) arrays."""
    problem = builtin_linear_nonhomogeneous(0.1, 2, 10.0, 8, 2)
    germs = np.random.default_rng(6).standard_normal((10_000, 4))
    tracemalloc.start()
    try:
        problem.exact_solution(np.array([2.0]), germs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_linear_nonhomogeneous_flux_is_constant():
    """kappa u' must be x-independent: the PDE is (kappa u')' = 0."""
    problem = builtin_linear_nonhomogeneous(0.3, 1, 10.0, 8, 2)
    rng = np.random.default_rng(1)
    germs = rng.standard_normal((4, 2))
    xs = np.array([-3.7, -0.2, 1.9, 4.4])
    fluxes = problem.field.values(xs, germs) * problem.exact_solution_derivative(xs, germs)
    np.testing.assert_allclose(fluxes, fluxes[:, :1] * np.ones((1, 4)), rtol=1e-6)


def test_semilinear_homogeneous_exact_solution_at_half():
    problem = builtin_semilinear_homogeneous_field(12.0, 20, 2)
    rng = np.random.default_rng(2)
    germs = rng.standard_normal((6, 2))
    kappa = problem.field.scalar_values(germs)
    np.testing.assert_allclose(problem.exact_solution(np.array([0.5]), germs)[:, 0], 1.0 / kappa)


def test_semilinear_homogeneous_strong_residual():
    """-kappa u'' + source + sin(u) vanishes pointwise for the exact u."""
    problem = builtin_semilinear_homogeneous_field(12.0, 20, 2)
    rng = np.random.default_rng(3)
    germs = rng.standard_normal((5, 2))
    kappa = problem.field.scalar_values(germs)
    for x in (-4.3, -0.5, 0.1, 2.8):
        u = problem.exact_solution(np.array([x]), germs)[:, 0]
        u_xx = -np.pi**2 * np.sin(np.pi * x) / kappa
        residual = (
            -kappa * u_xx
            + problem.source(np.array([x]), germs)[:, 0]
            + np.sin(u)
        )
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)


def test_semilinear_homogeneous_source_matches_numpy_sine():
    """The source's half-angle sine agrees with np.sin and leaves its inputs unchanged."""
    problem = builtin_semilinear_homogeneous_field(12.0, 20, 2)
    germs = np.random.default_rng(8).standard_normal((300, 2)) * 3.0
    x = np.linspace(-6.0, 6.0, 401)
    x_before, germs_before = x.copy(), germs.copy()
    sx = np.sin(np.pi * x)[None, :]
    expected = -np.pi**2 * sx - np.sin(sx / problem.field.scalar_values(germs)[:, None])
    # a few ulp of the sine, plus one rounding of a sum up to pi^2 in size
    np.testing.assert_allclose(problem.source(x, germs), expected, rtol=0, atol=4e-15)
    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(germs, germs_before)


def test_semilinear_homogeneous_rejects_odd_length():
    with pytest.raises(ValueError):
        builtin_semilinear_homogeneous_field(11.0, 20, 2)
    with pytest.raises(ValueError):
        builtin_semilinear_homogeneous_field(12.5, 20, 2)


def test_semilinear_nonhomogeneous_minimum():
    problem = builtin_semilinear_nonhomogeneous_field(0.3, 2, 12.0, 10, 2)
    assert problem.exact_energy == -12.0
    assert problem.nonlinearity is SINE_REACTION
    germs = np.ones((2, 4))
    np.testing.assert_array_equal(problem.exact_solution(0.0, germs), 0.0)


def test_exact_derivative_matches_finite_difference():
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 8, 2)
    rng = np.random.default_rng(4)
    germs = rng.standard_normal((4, 2))
    eps = 1e-5
    x = np.array([-2.0, 0.7, 3.1])
    fd = (
        problem.exact_solution(x + eps, germs)
        - problem.exact_solution(x - eps, germs)
    ) / (2 * eps)
    np.testing.assert_allclose(
        problem.exact_solution_derivative(x, germs), fd, rtol=1e-5
    )


BUILTINS = {
    "linear_homogeneous": lambda: builtin_linear_homogeneous(0.2, 2, 10.0, 8, 2),
    "linear_nonhomogeneous": lambda: builtin_linear_nonhomogeneous(0.2, 2, 10.0, 8, 2),
    "semilinear_homogeneous_field": lambda: builtin_semilinear_homogeneous_field(12.0, 20, 2),
    "semilinear_nonhomogeneous_field": lambda: builtin_semilinear_nonhomogeneous_field(
        0.3, 2, 12.0, 10, 2
    ),
}


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("oracle", ["exact_solution", "exact_solution_derivative"])
def test_exact_oracle_columns_are_one_point_calls(name, oracle):
    """Over the exact-energy grid an oracle gives (n, P), each column a one-point call."""
    problem = BUILTINS[name]()
    solution = getattr(problem, oracle)
    half = problem.mesh.length / 2.0
    x, _ = simpson_grid(-half, half)
    germs = np.random.default_rng(7).standard_normal((8, problem.germ_dim))
    values = solution(x, germs)
    assert values.shape == (8, x.size)
    columns = np.stack([solution(x[i : i + 1], germs)[:, 0] for i in range(x.size)], axis=1)
    if (name, oracle) == ("linear_nonhomogeneous", "exact_solution_derivative"):
        # u' = 1 / (kappa * total) takes kappa from one `germs @ rows(x)` product
        # over all points; BLAS may round a column of it otherwise than a
        # one-column product (2.8e-17 apart at 1024 germs)
        np.testing.assert_allclose(values, columns, rtol=1e-15, atol=0.0)
    else:
        np.testing.assert_array_equal(values, columns)


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("oracle", ["exact_solution", "exact_solution_derivative"])
def test_exact_oracles_at_zero_germs_are_empty(name, oracle):
    """No germs give an empty (0, P) array, as `Kernel.energies` gives an empty (0,) one."""
    problem = BUILTINS[name]()
    x = np.linspace(-problem.mesh.length / 2.0, problem.mesh.length / 2.0, 5)
    values = getattr(problem, oracle)(x, np.empty((0, problem.germ_dim)))
    assert values.shape == (0, x.size)
