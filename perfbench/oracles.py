"""Reference values the benchmark checks pcsgd's outputs against.

Written with numpy and scipy only, apart from pcsgd's finite-element and
polynomial-chaos code, so that a fault there cannot hide in its own check.
The field and basis conventions (trigonometric log-normal field, graded
lexicographic Hermite basis, stochastic-major coefficient layout) are the
documented ones of pcsgd.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.special
from numpy.polynomial.hermite_e import hermegauss

# Composite Gauss-Legendre in x: the integrands are entire and at most a few
# periods long, so 8 panels of 16 nodes reach rounding level.
PANELS = 8
PANEL_NODES = 16
# Per germ dimension for the 4-dim linear expectation; at beta = 0.1 the value
# agrees to every printed digit from 8 nodes on.
HERMITE_NODES = 10


def oracle_germs(seed: int, n: int, dim: int) -> np.ndarray:
    """Standard-normal germs from the oracle's own stream, independent of pcsgd's."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0AC1E]))
    return rng.standard_normal((n, dim))


def gauss_legendre(a: float, b: float, panels: int = PANELS, nodes: int = PANEL_NODES):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    w = (half[:, None] * ref_w[None, :]).ravel()
    return x, w


# -- semilinear problem with a spatially constant field ----------------------


def homogeneous_kappa(germs: np.ndarray, coefficient: float = 0.2) -> np.ndarray:
    """Spatially constant kappa = exp(coefficient (Y_1 + Y_2))."""
    return np.exp(coefficient * (germs[:, 0] + germs[:, 1]))


def semilinear_full_solution(x: float, kappa: np.ndarray) -> np.ndarray:
    """Closed-form solution u* = sin(pi x) / kappa."""
    return np.sin(np.pi * x) / kappa


def semilinear_full_energy_at(z: np.ndarray, length: float) -> np.ndarray:
    """Energy of u* = z sin(pi x) on [-length/2, length/2], z = 1/kappa.

    Over whole periods the averages of cos(z sin t) and sin t sin(z sin t) are
    J0(z) and J1(z), which gives -(length/4) pi^2 z - length J0(z) - length z J1(z).
    """
    z = np.asarray(z, dtype=float)
    return (
        -0.25 * length * np.pi**2 * z
        - length * scipy.special.j0(z)
        - length * z * scipy.special.j1(z)
    )


def semilinear_full_expected_energy(
    length: float, coefficient: float = 0.2, nodes: int = 64
) -> float:
    """E over the germ of the exact energy; log z ~ N(0, 2 coefficient^2)."""
    t, w = hermegauss(nodes)
    z = np.exp(math.sqrt(2.0) * coefficient * t)
    return float(w @ semilinear_full_energy_at(z, length) / math.sqrt(2.0 * np.pi))


# -- linear problem with boundary data (0, 1) --------------------------------


def trig_harmonics(x: np.ndarray, n_pairs: int, period: float) -> np.ndarray:
    """Rows of V(x, Y) = Y @ H(x): cos then sin of 2 pi k x / period, scaled 1/sqrt(n)."""
    k = np.arange(1, n_pairs + 1)[:, None]
    angles = 2.0 * np.pi * k * np.atleast_1d(x)[None, :] / period
    return np.concatenate([np.cos(angles), np.sin(angles)]) / math.sqrt(n_pairs)


def inverse_kappa_integral(
    germs: np.ndarray, a: float, b: float, beta: float, n_pairs: int, period: float
) -> np.ndarray:
    """Per-germ integral of 1/kappa = exp(-beta V) over [a, b]."""
    x, w = gauss_legendre(a, b)
    return np.exp(-beta * (germs @ trig_harmonics(x, n_pairs, period))) @ w


def linear_solution(
    x: float, germs: np.ndarray, beta: float, n_pairs: int, length: float
) -> np.ndarray:
    """u*(x, Y) = int_{-l/2}^x 1/kappa / int_{-l/2}^{l/2} 1/kappa."""
    half = length / 2.0
    num = inverse_kappa_integral(germs, -half, x, beta, n_pairs, length)
    den = inverse_kappa_integral(germs, -half, half, beta, n_pairs, length)
    return num / den


def linear_energy_at(germs: np.ndarray, beta: float, n_pairs: int, length: float) -> np.ndarray:
    """Per-germ exact energy: the flux is constant, so J = 1/2 / int 1/kappa."""
    half = length / 2.0
    return 0.5 / inverse_kappa_integral(germs, -half, half, beta, n_pairs, length)


def tensor_hermite(dim: int, nodes: int = HERMITE_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite rule for the standard normal in `dim` dimensions."""
    t, w = hermegauss(nodes)
    w = w / math.sqrt(2.0 * np.pi)
    points = np.array(list(itertools.product(t, repeat=dim)))
    weights = np.prod(np.array(list(itertools.product(w, repeat=dim))), axis=1)
    return points, weights


def linear_expected_energy(
    beta: float, n_pairs: int, length: float, nodes: int = HERMITE_NODES
) -> float:
    """E[1/2 / int 1/kappa] by tensor Gauss-Hermite quadrature."""
    points, weights = tensor_hermite(2 * n_pairs, nodes)
    return float(weights @ linear_energy_at(points, beta, n_pairs, length))


# -- the expansion, evaluated without pcsgd ----------------------------------


def graded_multi_indices(dim: int, degree_bound: int) -> list[tuple[int, ...]]:
    """Multi-indices of total degree <= bound, by degree, then lexicographic."""
    return sorted(
        (a for a in itertools.product(range(degree_bound + 1), repeat=dim)
         if sum(a) <= degree_bound),
        key=lambda a: (sum(a), a),
    )


def hermite_basis(germs: np.ndarray, degree_bound: int) -> np.ndarray:
    """Un-normalized probabilists' Hermite products, shape (n, basis size)."""
    germs = np.atleast_2d(germs)
    he = [np.ones_like(germs), germs]
    for n in range(1, degree_bound):
        he.append(germs * he[n] - n * he[n - 1])
    out = []
    for alpha in graded_multi_indices(germs.shape[1], degree_bound):
        col = np.ones(germs.shape[0])
        for k, a in enumerate(alpha):
            col = col * he[a][:, k]
        out.append(col)
    return np.stack(out, axis=1)


def hats_at(x: float, length: float, n_interior: int) -> np.ndarray:
    """Interior hat functions at x, shape (n_interior,)."""
    h = length / (n_interior + 1)
    centers = -length / 2.0 + h * np.arange(1, n_interior + 1)
    return np.maximum(0.0, 1.0 - np.abs(x - centers) / h)


def expansion_at(
    c: np.ndarray, x: float, germs: np.ndarray, length: float, n_interior: int,
    degree_bound: int, boundary: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """u_c(x, Y) for coefficients c[j*M + i-1] of hat i times basis polynomial j."""
    spatial = np.asarray(c).reshape(-1, n_interior) @ hats_at(x, length, n_interior)
    h = length / (n_interior + 1)
    half = length / 2.0
    lift = boundary[0] * max(0.0, 1.0 - abs(x + half) / h) + boundary[1] * max(
        0.0, 1.0 - abs(x - half) / h
    )
    return hermite_basis(germs, degree_bound) @ spatial + lift


# -- checks on distributions -------------------------------------------------


def kolmogorov(cdf: np.ndarray, values: np.ndarray, grid: np.ndarray) -> float:
    """Largest gap on `grid` between a reported CDF and the empirical CDF of values."""
    exact = np.searchsorted(np.sort(values), grid, side="right") / values.size
    return float(np.max(np.abs(np.asarray(cdf) - exact)))
