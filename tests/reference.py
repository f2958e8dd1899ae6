"""Test instruments: pointwise hats and lifting, a deterministic FEM solve at one
germ, a log-log rate fit, the Hermite moments as dense tables and the control
variate's multipliers from fresh arrays.

None is part of the method; the tests use them to check the hat tables and the
kernel's discretization, the SGD's convergence rate, the basis's moment
structure against quadrature and the in-place pilot loop.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from pcsgd.estimators import kernel_for
from pcsgd.fem1d import Mesh1D
from pcsgd.pc_basis import PcBasisSet
from pcsgd.problem import ProblemInstance
from pcsgd.sgd import Trajectory, precondition_solve


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


def reference_solve_linear(
    problem: ProblemInstance, mesh: Mesh1D, germ: np.ndarray
) -> np.ndarray:
    """Deterministic FEM solve of the sampled linear problem at one germ.

    Returns nodal solution values including the boundary nodes.
    """
    if problem.nonlinearity is not None:
        raise ValueError("reference solve only applies to linear problems")
    kernel = kernel_for(problem, mesh, problem.basis)
    germ, zero = np.atleast_2d(germ), np.zeros(kernel.dim)
    # The energy is quadratic.  At one germ, block 0 (psi_0 = 1) of its Hessian
    # is the stiffness and of its gradient at c = 0 the lifting's residual.
    # An overflow or NaN on the way leaves a non-finite system, rejected below.
    with np.errstate(all="ignore"):
        bands = kernel.averaged_hessian_blocks(zero, germ, full=False)[0]
        rhs = -kernel.gradient_parts(zero, germ).total[0]
    if not (np.isfinite(bands).all() and np.isfinite(rhs).all()):
        raise ValueError("reference system is not finite at this germ")
    interior, fallbacks = precondition_solve(bands[None], rhs, 0.0)
    if fallbacks:
        raise np.linalg.LinAlgError("stiffness matrix not positive definite")
    return np.concatenate([[problem.boundary[0]], interior, [problem.boundary[1]]])


def fit_convergence_rate(
    trajectory: Trajectory,
    j_star: float,
    n_range: tuple[int, int],
) -> float:
    """Least-squares slope of log(J(c_n) - j_star) against log(n)."""
    n = trajectory.iterations
    gap = trajectory.energy_mean - j_star
    mask = (n >= n_range[0]) & (n <= n_range[1]) & (n > 0)
    positive = mask & (gap > 0)
    if positive.sum() < mask.sum():
        warnings.warn(
            "non-positive energy gap inside the fit range; range truncated",
            RuntimeWarning,
        )
    if positive.sum() < 2:
        raise ValueError("not enough usable records to fit a rate")
    slope, _ = np.polyfit(np.log(n[positive]), np.log(gap[positive]), 1)
    return float(slope)


class MomentTable(NamedTuple):
    """Dense E[psi_a psi_b] (N+1, N+1) and E[Y_k psi_a psi_b] (K, N+1, N+1)."""

    pair_moments: np.ndarray
    linear_moments: np.ndarray


def moment_table(basis: PcBasisSet) -> MomentTable:
    """The basis's moments spelled out from its `norms` and `raised` neighbours."""
    linear = np.zeros((basis.germ_dim, basis.size, basis.size))
    k, a = np.nonzero(basis.raised >= 0)
    b = basis.raised[k, a]  # psi_b is psi_a raised in Y_k
    linear[k, a, b] = linear[k, b, a] = basis.norms[b]
    return MomentTable(np.diag(basis.norms), linear)


def cv_lambda_reference(kernel, c: np.ndarray, order: int, pilot_size: int, sampler) -> np.ndarray:
    """`estimate_cv_lambda`'s multipliers from new arrays at every step of its psi_j loop."""
    rows = kernel.gradient_parts(c, sampler.sample_batch(0, pilot_size, "pilot"), order)
    sums = np.empty((2, kernel.basis.size, kernel.mesh.n_interior))
    for j, psi_j in enumerate(rows.psi.T[:, :, None]):
        x_j, z_j = psi_j * rows.linear, psi_j * rows.surrogate  # X, Z on psi_j's block
        xc, zc = x_j - x_j.mean(axis=0), z_j - z_j.mean(axis=0)
        sums[:, j] = (zc * zc).sum(axis=0), (xc * zc).sum(axis=0)
    var_z, cov_xz = sums.reshape(2, kernel.dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(var_z > 0.0, -cov_xz / np.where(var_z > 0.0, var_z, 1.0), 0.0)
