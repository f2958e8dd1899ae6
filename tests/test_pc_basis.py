import itertools
import math

import numpy as np
import pytest

from pcsgd import eval_all, generate_basis
from pcsgd.pc_basis import gauss_hermite, hermite_table
from reference import moment_table


def binom(n, k):
    return math.comb(n, k)


def test_basis_size_formula():
    for k, p in itertools.product(range(1, 5), range(0, 5)):
        basis = generate_basis(k, p)
        assert basis.size == binom(p + k, k)
        assert basis.germ_dim == k
        assert basis.degree_bound == p


def test_graded_ordering():
    basis = generate_basis(3, 4)
    degrees = [sum(alpha) for alpha in basis.indices]
    assert degrees[0] == 0
    assert all(a <= b for a, b in zip(degrees, degrees[1:]))
    # no duplicates, all within bound
    assert len(set(basis.indices)) == basis.size
    assert max(degrees) == 4


def test_univariate_values_match_explicit_polynomials():
    """First few probabilists' Hermite polynomials, written out by hand."""
    y = np.linspace(-3.0, 3.0, 41)
    explicit = [
        np.ones_like(y),
        y,
        y**2 - 1,
        y**3 - 3 * y,
        y**4 - 6 * y**2 + 3,
        y**5 - 10 * y**3 + 15 * y,
    ]
    table = hermite_table(5, y)
    for n, ref in enumerate(explicit):
        np.testing.assert_allclose(table[..., n], ref, atol=1e-10)


def gauss_hermite_expectation(f, dim, n_nodes=24):
    """E[f(Y)] for standard normal Y via tensor Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    weights = weights / np.sqrt(2.0 * np.pi)
    total = 0.0
    for combo in itertools.product(range(n_nodes), repeat=dim):
        y = np.array([nodes[i] for i in combo])
        w = np.prod([weights[i] for i in combo])
        total += w * f(y)
    return total


def psi_at(basis, y):
    """Every basis function at one germ y, each a product of univariate He_n."""
    table = hermite_table(basis.degree_bound, y)  # (germ_dim, p+1)
    return np.array([np.prod([table[k, n] for k, n in enumerate(alpha)]) for alpha in basis.indices])


def test_pair_moments_against_quadrature():
    """Criterion 8 (moments part): analytic E[Psi_a Psi_b] vs quadrature."""
    basis = generate_basis(2, 3)
    numeric = gauss_hermite_expectation(lambda y: np.outer(psi_at(basis, y), psi_at(basis, y)), 2)
    np.testing.assert_allclose(moment_table(basis).pair_moments, numeric, rtol=0, atol=1e-10)


def test_linear_weighted_moments_against_quadrature():
    basis = generate_basis(2, 3)

    def triple(y):
        psi = psi_at(basis, y)
        return y[:, None, None] * np.outer(psi, psi)

    numeric = gauss_hermite_expectation(triple, 2)
    np.testing.assert_allclose(moment_table(basis).linear_moments, numeric, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n, germ_dim", [(1, 3), (3, 1), (4, 2), (6, 4)])
def test_gauss_hermite_weights_sum_to_one(n, germ_dim):
    nodes, weights = gauss_hermite(n, germ_dim)
    assert nodes.shape == (n**germ_dim, germ_dim)
    assert weights.shape == (n**germ_dim,)
    assert weights.sum() == pytest.approx(1.0, rel=0, abs=1e-14)


@pytest.mark.parametrize("germ_dim, degree", [(1, 4), (2, 3), (3, 2)])
def test_gauss_hermite_reproduces_the_moment_tables(germ_dim, degree):
    """n = p + 1 points are exact up to degree 2n - 1 = 2p + 1 in each component,
    the degree of Y_k psi_a psi_b."""
    basis = generate_basis(germ_dim, degree)
    table = moment_table(basis)
    nodes, weights = gauss_hermite(degree + 1, germ_dim)
    psi = eval_all(basis, nodes)
    pair = np.einsum("n,na,nb->ab", weights, psi, psi)
    linear = np.einsum("n,nk,na,nb->kab", weights, nodes, psi, psi)
    np.testing.assert_allclose(pair, table.pair_moments, rtol=0, atol=1e-12)
    np.testing.assert_allclose(linear, table.linear_moments, rtol=0, atol=1e-12)
    # one point fewer per axis misses the highest pair moment
    nodes, weights = gauss_hermite(degree, germ_dim)
    top = eval_all(basis, nodes)[:, -1]
    assert abs(weights @ top**2 - table.pair_moments[-1, -1]) > 1e-3


def test_orthogonality_off_diagonal():
    pair = moment_table(generate_basis(3, 3)).pair_moments
    np.testing.assert_array_equal(pair - np.diag(np.diag(pair)), 0.0)


def test_moment_table_consistency():
    basis = generate_basis(2, 2)
    table = moment_table(basis)
    assert table.pair_moments.shape == (basis.size, basis.size)
    assert table.linear_moments.shape == (2, basis.size, basis.size)
    # the linear tables are symmetric
    for k in range(2):
        np.testing.assert_array_equal(
            table.linear_moments[k], table.linear_moments[k].T
        )


@pytest.mark.parametrize("degree", [0, 3, 5])
@pytest.mark.parametrize("germ_dim", [1, 2, 4])
def test_raised_neighbours_and_norms_by_brute_force(germ_dim, degree):
    basis = generate_basis(germ_dim, degree)
    assert basis.raised.shape == (germ_dim, basis.size)
    for k in range(germ_dim):
        for a, alpha in enumerate(basis.indices):
            up = tuple(n + (l == k) for l, n in enumerate(alpha))
            found = [b for b, beta in enumerate(basis.indices) if beta == up]
            assert basis.raised[k, a] == (found[0] if found else -1)
            assert (basis.raised[k, a] == -1) == (sum(alpha) == degree)
    exact = [math.prod(math.factorial(n) for n in alpha) for alpha in basis.indices]
    assert basis.norms.tolist() == exact


@pytest.mark.parametrize("germ_dim, degree", [(3, 2), (4, 3), (2, 0)])
def test_eval_all_is_product_of_univariate(germ_dim, degree):
    basis = generate_basis(germ_dim, degree)
    rng = np.random.default_rng(5)
    germs = rng.standard_normal((17, germ_dim))
    values = eval_all(basis, germs)
    assert values.shape == (17, basis.size)
    # on a psi not in C order the downstream products take another BLAS path and round differently
    assert values.flags.c_contiguous
    for j, alpha in enumerate(basis.indices):
        ref = np.ones(17)
        for k, n in enumerate(alpha):
            ref *= hermite_table(n, germs[:, k])[:, n]
        np.testing.assert_array_equal(values[:, j], ref)


def test_empirical_orthonormality():
    """Monte Carlo sanity check on E[Psi_a Psi_b] with large samples."""
    basis = generate_basis(2, 2)
    rng = np.random.default_rng(11)
    germs = rng.standard_normal((400_000, 2))
    psi = eval_all(basis, germs)
    gram = psi.T @ psi / germs.shape[0]
    analytic = moment_table(basis).pair_moments
    assert np.max(np.abs(gram - analytic)) < 0.15


def test_oversized_basis_rejected():
    with pytest.raises(OverflowError):
        generate_basis(30, 12)


def test_eval_all_rejects_a_single_germ_vector():
    basis = generate_basis(2, 2)
    with pytest.raises(ValueError):
        eval_all(basis, np.zeros(2))
    with pytest.raises(ValueError):
        eval_all(basis, np.zeros((3, 3)))


@pytest.mark.parametrize(
    "germ_dim, degree_bound, message",
    [(0, 1, "germ_dim must be >= 1"), (1, -1, "degree_bound must be >= 0")],
)
def test_generate_basis_rejects_invalid_sizes(germ_dim, degree_bound, message):
    with pytest.raises(ValueError, match=message):
        generate_basis(germ_dim, degree_bound)
