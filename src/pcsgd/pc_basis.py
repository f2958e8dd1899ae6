"""Multivariate probabilists' Hermite basis and the structure of its moments.

The stochastic subspace is spanned by products of univariate probabilists'
Hermite polynomials indexed by multi-indices of bounded total degree.  The
basis is un-normalized: the second moment of a basis function with
multi-index ``a`` is ``prod(a_k!)``.  By y He_n = He_{n+1} + n He_{n-1},
E[Y_k psi_a psi_b] is nonzero only where one index is the other raised by
e_k, and there it is the raised one's norm; `PcBasisSet` states both.
`gauss_hermite` is the tensor Gauss-Hermite rule over the germ: the SGD
energy monitor takes its expected energy with it, and the tests check it
and the analytic moments against each other.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

# Basis sets beyond this count are refused outright: the coefficient vector
# would not fit in memory anyway.
MAX_BASIS_SIZE = 10_000_000


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write `total` as an ordered sum of `parts` non-negatives."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@dataclass(eq=False)
class PcBasisSet:
    """Ordered multivariate Hermite basis of total degree <= degree_bound.

    Ordering is graded lexicographic: ascending total degree, lexicographic
    within a degree.  Index 0 is always the constant polynomial.
    """

    germ_dim: int
    degree_bound: int
    indices: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.indices)

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        """The multi-indices as a (germ_dim, size) array, built once per basis."""
        return np.array(self.indices).T

    @functools.cached_property
    def norms(self) -> np.ndarray:
        """E[psi_a^2] = prod_k alpha_k!, shape (size,)."""
        return np.array([math.prod(map(math.factorial, alpha)) for alpha in self.indices], float)

    @functools.cached_property
    def raised(self) -> np.ndarray:
        """Position of alpha_a + e_k, (germ_dim, size); -1 past the degree bound."""
        position = {alpha: a for a, alpha in enumerate(self.indices)}
        up = [[(*a[:k], a[k] + 1, *a[k + 1 :]) for a in self.indices] for k in range(self.germ_dim)]
        return np.array([[position.get(alpha, -1) for alpha in row] for row in up])


def generate_basis(germ_dim: int, degree_bound: int) -> PcBasisSet:
    """Enumerate all multi-indices of total degree <= degree_bound."""
    if germ_dim < 1:
        raise ValueError(f"germ_dim must be >= 1, got {germ_dim}")
    if degree_bound < 0:
        raise ValueError(f"degree_bound must be >= 0, got {degree_bound}")
    count = math.comb(degree_bound + germ_dim, germ_dim)
    if count > MAX_BASIS_SIZE:
        raise OverflowError(
            f"basis of size {count} exceeds the supported maximum {MAX_BASIS_SIZE}"
        )
    indices = tuple(
        m
        for total in range(degree_bound + 1)
        for m in _compositions(total, germ_dim)
    )
    assert len(indices) == count
    return PcBasisSet(germ_dim, degree_bound, indices)


def hermite_table(max_degree: int, y: np.ndarray) -> np.ndarray:
    """He_0..He_max_degree stacked on a trailing axis, shape y.shape + (max_degree+1,)."""
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape + (max_degree + 1,))
    out[..., 0] = 1.0
    if max_degree >= 1:
        out[..., 1] = y
    for n in range(1, max_degree):
        # He_{n+1} = y He_n - n He_{n-1}
        out[..., n + 1] = y * out[..., n] - n * out[..., n - 1]
    return out


def eval_all(basis: PcBasisSet, y) -> np.ndarray:
    """Every basis polynomial at germs y (n, germ_dim) -> (n, size)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != basis.germ_dim:
        raise ValueError(f"germs have shape {y.shape}, basis expects (n, {basis.germ_dim})")
    uni = hermite_table(basis.degree_bound, y.T).transpose(0, 2, 1).copy()  # (K, p+1, n)
    degrees = basis.degrees  # (K, size)
    rows = uni[0, degrees[0]]  # (size, n), gathered as whole rows
    for table, a in zip(uni[1:], degrees[1:]):
        rows *= table[a]
    return rows.T.copy()  # C order: psi's products downstream round by its memory layout


def gauss_hermite(n: int, germ_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule for E[g(Y)], Y ~ N(0, I): nodes (n^K, K) and weights (n^K,).

    n probabilists' Gauss-Hermite points per germ component, exact for
    polynomials of degree 2n - 1 in each component; the weights sum to 1.
    """
    points, weights = hermegauss(n)
    weights = weights / np.sqrt(2.0 * np.pi)
    nodes = np.array(list(itertools.product(points, repeat=germ_dim)))
    return nodes, np.prod(list(itertools.product(weights, repeat=germ_dim)), axis=1)
