"""Uniform linear-element mesh on [-l/2, l/2] with Gauss-Legendre quadrature.

The mesh carries M interior hat functions on M+1 elements.  Quadrature
points never coincide with mesh nodes, so the piecewise-constant hat
derivatives are unambiguous inside every element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class Mesh1D:
    """Equispaced nodes on [-length/2, length/2] with n_interior free hats."""

    length: float
    n_interior: int

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError("length must be finite and positive")
        if self.n_interior < 1:
            raise ValueError("need at least one interior basis function")

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        half = self.length / 2.0
        return np.linspace(-half, half, self.n_interior + 2)


@dataclass(eq=False)
class QuadratureRule:
    """Per-element Gauss-Legendre points mapped to the physical mesh."""

    points: np.ndarray  # (n_elements * q,)
    weights: np.ndarray


def quadrature_points(mesh: Mesh1D, points_per_element: int) -> QuadratureRule:
    if points_per_element < 1:
        raise ValueError("need at least one point per element")
    ref_x, ref_w = np.polynomial.legendre.leggauss(points_per_element)
    nodes = mesh.nodes
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    half = 0.5 * mesh.h
    pts = (mid[:, None] + half * ref_x[None, :]).ravel()
    wts = np.tile(half * ref_w, mesh.n_interior + 1)
    return QuadratureRule(pts, wts)


def _check_domain(mesh: Mesh1D, x: np.ndarray):
    half = mesh.length / 2.0
    tol = 1e-12 * mesh.length
    if not np.all((x >= -half - tol) & (x <= half + tol)):  # NaN fails both
        raise ValueError("evaluation point outside the mesh domain")


def element_hats(mesh: Mesh1D, x) -> tuple[np.ndarray, np.ndarray]:
    """Elements e (n,) holding points x (n,), between nodes e and e+1, and their hats (n, 2)."""
    x = np.asarray(x, dtype=float)
    _check_domain(mesh, x)
    elements = np.minimum(((x + mesh.length / 2.0) / mesh.h).astype(int), mesh.n_interior)
    t = (x - mesh.nodes[elements]) / mesh.h
    return elements, np.stack([1.0 - t, t], axis=-1)


def _nodal_tables(mesh: Mesh1D, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives, (n, M+2) each, of all nodal hats at x: a point in element e
    has hats (1 - t, t) and derivatives (-1/h, 1/h) at nodes e and e+1."""
    elements, hats = element_hats(mesh, x)
    rows, columns = np.arange(x.size)[:, None], elements[:, None] + np.array([0, 1])
    values, derivs = np.zeros((2, x.size, mesh.n_interior + 2))
    values[rows, columns] = hats
    derivs[rows, columns] = np.array([-1.0, 1.0]) / mesh.h
    return values, derivs


def hat_tables(mesh: Mesh1D, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Interior hats' values and derivatives at the quadrature points, (n_points, M) each."""
    return tuple(table[:, 1:-1] for table in _nodal_tables(mesh, rule.points))


def lifting_tables(
    mesh: Mesh1D, rule: QuadratureRule, left_value: float, right_value: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lifting values and derivatives at the quadrature points: the end nodes' hats times the
    boundary data, as in `Kernel.padded_coefficients`."""
    values, derivs = _nodal_tables(mesh, rule.points)
    return tuple(left_value * t[:, 0] + right_value * t[:, -1] for t in (values, derivs))
