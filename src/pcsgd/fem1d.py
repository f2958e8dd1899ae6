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


def eval_phi(mesh: Mesh1D, i: int, x):
    """Hat function i (1-based interior numbering) at point(s) x."""
    if not 1 <= i <= mesh.n_interior:
        raise ValueError(f"basis index {i} out of range 1..{mesh.n_interior}")
    x = np.asarray(x, dtype=float)
    _check_domain(mesh, x)
    center = mesh.nodes[i]
    return np.maximum(0.0, 1.0 - np.abs(x - center) / mesh.h)


def eval_dphi(mesh: Mesh1D, i: int, x):
    """Derivative of hat i; at a node, the left-element value is used."""
    if not 1 <= i <= mesh.n_interior:
        raise ValueError(f"basis index {i} out of range 1..{mesh.n_interior}")
    x = np.asarray(x, dtype=float)
    _check_domain(mesh, x)
    center = mesh.nodes[i]
    slope = 1.0 / mesh.h
    rising = (x > center - mesh.h) & (x <= center)
    falling = (x > center) & (x <= center + mesh.h)
    return np.where(rising, slope, 0.0) + np.where(falling, -slope, 0.0)


def element_hats(mesh: Mesh1D, x) -> tuple[np.ndarray, np.ndarray]:
    """Elements e (n,) holding points x (n,), between nodes e and e+1, and their hats (n, 2)."""
    x = np.asarray(x, dtype=float)
    _check_domain(mesh, x)
    elements = np.minimum(((x + mesh.length / 2.0) / mesh.h).astype(int), mesh.n_interior)
    t = (x - mesh.nodes[elements]) / mesh.h
    return elements, np.stack([1.0 - t, t], axis=-1)


def hat_tables(mesh: Mesh1D, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Dense tables of hat values/derivatives at all quadrature points.

    Returns (values, derivatives), each of shape (n_points, n_interior).
    """
    n_pts = rule.points.size
    values = np.zeros((n_pts, mesh.n_interior))
    derivs = np.zeros((n_pts, mesh.n_interior))
    for i in range(1, mesh.n_interior + 1):
        values[:, i - 1] = eval_phi(mesh, i, rule.points)
        derivs[:, i - 1] = eval_dphi(mesh, i, rule.points)
    return values, derivs


@dataclass(eq=False)
class LiftingFunction:
    """Boundary-data interpolant supported on the first and last element.

    Equals left_value at -l/2 and right_value at +l/2, zero at every
    interior node; adding it to a zero-boundary expansion yields the
    non-homogeneous Dirichlet data exactly.
    """

    left_value: float
    right_value: float

    def value(self, mesh: Mesh1D, x):
        x = np.asarray(x, dtype=float)
        _check_domain(mesh, x)
        half = mesh.length / 2.0  # the end nodes are -half and half
        left_hat = np.maximum(0.0, 1.0 - np.abs(x + half) / mesh.h)
        right_hat = np.maximum(0.0, 1.0 - np.abs(x - half) / mesh.h)
        return self.left_value * left_hat + self.right_value * right_hat

    def derivative(self, mesh: Mesh1D, x):
        x = np.asarray(x, dtype=float)
        _check_domain(mesh, x)
        nodes = mesh.nodes
        slope = 1.0 / mesh.h
        on_first = x <= nodes[1]
        on_last = x > nodes[-2]
        return (
            -self.left_value * slope * on_first
            + self.right_value * slope * on_last
        )


def lifting_tables(
    mesh: Mesh1D, rule: QuadratureRule, left_value: float, right_value: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lifting values and derivatives at the quadrature points."""
    lift = LiftingFunction(left_value, right_value)
    return lift.value(mesh, rule.points), lift.derivative(mesh, rule.points)
