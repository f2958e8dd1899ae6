"""Batched gradient / block-Hessian estimators and control variates.

All heavy lifting happens in `Kernel`, which precomputes the quadrature
tables for one (problem, mesh, basis) triple and evaluates whole germ
batches with dense linear algebra.

Coefficient layout: flat vector of length M*(N+1) in stochastic-major
blocks, c[j*M + (i-1)] multiplying phi_i * psi_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem1d import Mesh1D, QuadratureRule, hat_tables, lifting_tables, quadrature_points
from .pc_basis import MomentTable, PcBasisSet, eval_all, moment_table
from .problem import ProblemInstance

DEFAULT_QUADRATURE_ORDER = 4

CV_MODES = ("none", "order0", "order1")


def zero_coefficients(mesh: Mesh1D, basis: PcBasisSet) -> np.ndarray:
    return np.zeros(mesh.n_interior * basis.size)


def coefficient_matrix(c: np.ndarray, n_interior: int) -> np.ndarray:
    """View the flat vector as (n_stochastic, n_interior)."""
    return np.asarray(c).reshape(-1, n_interior)


def flat_index(i: int, j: int, n_interior: int) -> int:
    """Flat position of the coefficient for phi_i (1-based) and psi_j."""
    return j * n_interior + (i - 1)


@dataclass(eq=False)
class ControlVariateState:
    """Fitted per-component multipliers for the linear-part control variate."""

    mode: str
    lam: np.ndarray | None = None
    pilot_size: int = 0


class Kernel:
    """Precomputed evaluation tables for one (problem, mesh, basis) triple."""

    def __init__(self, problem: ProblemInstance, mesh: Mesh1D, basis: PcBasisSet):
        if basis.germ_dim != problem.germ_dim:
            raise ValueError("basis germ dimension does not match the field")
        self.problem = problem
        self.mesh = mesh
        self.basis = basis
        self.rule: QuadratureRule = quadrature_points(mesh, DEFAULT_QUADRATURE_ORDER)
        self.x = self.rule.points
        self.w = self.rule.weights
        self.phi, self.dphi = hat_tables(mesh, self.rule)
        self.lift_vals, self.lift_dvals = lifting_tables(
            mesh, self.rule, *problem.boundary
        )
        self.has_lifting = problem.boundary != (0.0, 0.0)
        self.moments: MomentTable = moment_table(basis)
        self.dim = mesh.n_interior * basis.size
        # mean-point field data for the control variates
        self.kappa0 = problem.field.value_at_mean(self.x)  # (P,)
        self.kappa_grad0 = problem.field.gradient_at_mean(self.x)  # (K, P)
        # deterministic stiffness actions T[i, i2] = sum_t w * weight_t * dphi dphi
        self._stiff0 = self.dphi.T @ (self.w[:, None] * self.kappa0[:, None] * self.dphi)
        self._stiffk = np.einsum(
            "pi,kp,pj->kij", self.dphi, self.w * self.kappa_grad0, self.dphi
        )
        self._lift0 = self.dphi.T @ (self.w * self.kappa0 * self.lift_dvals)
        self._liftk = (self.w * self.kappa_grad0 * self.lift_dvals) @ self.dphi

    # -- field / solution evaluation -------------------------------------

    def psi(self, germs: np.ndarray) -> np.ndarray:
        return eval_all(self.basis, np.atleast_2d(germs))

    def kappa(self, germs: np.ndarray) -> np.ndarray:
        return self.problem.field.values(self.x, np.atleast_2d(germs))

    def solution_values(
        self, c: np.ndarray, germs: np.ndarray, psi: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """u and u' at the quadrature points, lifting included, shape (n, P)."""
        if psi is None:
            psi = self.psi(germs)
        spatial = psi @ coefficient_matrix(c, self.mesh.n_interior)  # (n, M)
        u = spatial @ self.phi.T + self.lift_vals
        du = spatial @ self.dphi.T + self.lift_dvals
        return u, du

    # -- energies ---------------------------------------------------------

    def energies(self, c: np.ndarray, germs: np.ndarray) -> np.ndarray:
        """Per-germ spatial integral of the energy density, shape (n,)."""
        germs = np.atleast_2d(germs)
        u, du = self.solution_values(c, germs)
        kap = self.kappa(germs)
        density = 0.5 * kap * du**2
        nl = self.problem.nonlinearity
        if not nl.is_zero:
            density = density + nl.antiderivative(self.x, u)
        if self.problem.source is not None:
            density = density + self.problem.source(self.x, germs) * u
        return density @ self.w

    # -- gradients --------------------------------------------------------

    def gradient_parts(
        self, c: np.ndarray, germs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Linear and nonlinear gradient parts, each (n, dim)."""
        germs = np.atleast_2d(germs)
        psi = self.psi(germs)
        u, du = self.solution_values(c, germs, psi)
        kap = self.kappa(germs)
        v1 = (self.w * kap * du) @ self.dphi  # (n, M)
        g1 = (psi[:, :, None] * v1[:, None, :]).reshape(germs.shape[0], self.dim)
        nl = self.problem.nonlinearity
        reaction = None
        if not nl.is_zero:
            reaction = nl.value(self.x, u)
        if self.problem.source is not None:
            src = self.problem.source(self.x, germs)
            reaction = src if reaction is None else reaction + src
        if reaction is None:
            g2 = np.zeros_like(g1)
        else:
            v2 = (self.w * reaction) @ self.phi
            g2 = (psi[:, :, None] * v2[:, None, :]).reshape(germs.shape[0], self.dim)
        return g1, g2

    def gradient_batch(self, c: np.ndarray, germs: np.ndarray) -> np.ndarray:
        g1, g2 = self.gradient_parts(c, germs)
        return g1 + g2

    # -- control variates -------------------------------------------------

    def cv_auxiliary_batch(
        self, c: np.ndarray, germs: np.ndarray, order: str
    ) -> np.ndarray:
        """Linear-part gradient with kappa replaced by its mean-point surrogate."""
        germs = np.atleast_2d(germs)
        psi = self.psi(germs)
        _, du = self.solution_values(c, germs, psi)
        if order == "order0":
            surrogate = self.kappa0[None, :]
        elif order == "order1":
            surrogate = self.kappa0[None, :] + germs @ self.kappa_grad0
        else:
            raise ValueError(f"unknown control-variate order {order!r}")
        v1 = (self.w * surrogate * du) @ self.dphi
        return (psi[:, :, None] * v1[:, None, :]).reshape(germs.shape[0], self.dim)

    def cv_known_mean(self, c: np.ndarray, order: str) -> np.ndarray:
        """Analytic expectation of the auxiliary estimator at coefficients c."""
        C = coefficient_matrix(c, self.mesh.n_interior)
        pair = self.moments.pair_moments
        mean = pair @ (C @ self._stiff0)
        if self.has_lifting:
            mean = mean + np.outer(pair[:, 0], self._lift0)
        if order == "order1":
            for k in range(self.basis.germ_dim):
                lin_k = self.moments.linear_moments[k]
                mean = mean + lin_k @ (C @ self._stiffk[k])
                if self.has_lifting:
                    mean = mean + np.outer(lin_k[:, 0], self._liftk[k])
        elif order != "order0":
            raise ValueError(f"unknown control-variate order {order!r}")
        return mean.reshape(self.dim)

    def cv_gradient_batch(
        self, c: np.ndarray, germs: np.ndarray, state: ControlVariateState
    ) -> np.ndarray:
        if state.mode == "none":
            return self.gradient_batch(c, germs)
        if state.lam is None:
            raise ValueError("control-variate multipliers not estimated yet")
        g1, g2 = self.gradient_parts(c, germs)
        aux = self.cv_auxiliary_batch(c, germs, state.mode)
        known = self.cv_known_mean(c, state.mode)
        return g1 + g2 + state.lam * (aux - known[None, :])

    # -- Hessian blocks ---------------------------------------------------

    def averaged_hessian_blocks(
        self, c: np.ndarray, germs: np.ndarray, stage: str
    ) -> np.ndarray:
        """Mini-batch mean of the diagonal Hessian blocks, shape (N+1, M, M).

        The mean over samples s of psi_j(s)^2 * A(s) collapses into one
        weighted assembly per block, avoiding per-sample M x M outer
        products.
        """
        if stage not in ("linear-only", "full"):
            raise ValueError(f"unknown Hessian stage {stage!r}")
        germs = np.atleast_2d(germs)
        n = germs.shape[0]
        psi2 = self.psi(germs) ** 2  # (n, N+1)
        kap = self.kappa(germs)  # (n, P)
        wa = (psi2.T @ kap) * (self.w[None, :] / n)  # (N+1, P)
        n_blocks = self.basis.size
        m = self.mesh.n_interior
        blocks = np.empty((n_blocks, m, m))
        for j in range(n_blocks):
            blocks[j] = self.dphi.T @ (wa[j][:, None] * self.dphi)
        if stage == "full" and not self.problem.nonlinearity.is_zero:
            u, _ = self.solution_values(c, germs)
            dfu = self.problem.nonlinearity.derivative(self.x, u)  # (n, P)
            wb = (psi2.T @ dfu) * (self.w[None, :] / n)
            for j in range(n_blocks):
                blocks[j] += self.phi.T @ (wb[j][:, None] * self.phi)
        return blocks


def kernel_for(
    problem: ProblemInstance,
    mesh: Mesh1D | None = None,
    basis: PcBasisSet | None = None,
) -> Kernel:
    """Kernel for the triple, cached on the problem instance."""
    mesh = mesh if mesh is not None else problem.mesh
    basis = basis if basis is not None else problem.basis
    key = (id(mesh), id(basis))
    kernel = problem._cache.get(key)
    if kernel is None:
        kernel = Kernel(problem, mesh, basis)
        problem._cache[key] = kernel
    return kernel


def estimate_cv_lambda(
    problem: ProblemInstance,
    mesh: Mesh1D,
    basis: PcBasisSet,
    c: np.ndarray,
    mode: str,
    pilot_size: int,
    sampler,
) -> ControlVariateState:
    """Fit per-component multipliers from a pilot batch at coefficients c.

    lam = -Cov(X, Z) / Var(Z) with X the linear gradient part and Z its
    mean-point surrogate; components with a degenerate pilot variance get
    lam = 0 so the estimator falls back to the plain one there.
    """
    if mode == "none":
        return ControlVariateState(mode="none", lam=None, pilot_size=0)
    if mode not in CV_MODES:
        raise ValueError(f"unknown control-variate mode {mode!r}")
    if pilot_size < 2:
        raise ValueError("pilot batch needs at least two samples")
    kernel = kernel_for(problem, mesh, basis)
    germs = sampler.sample_batch(0, pilot_size, "pilot")
    x_batch, _ = kernel.gradient_parts(c, germs)
    z_batch = kernel.cv_auxiliary_batch(c, germs, mode)
    xc = x_batch - x_batch.mean(axis=0)
    zc = z_batch - z_batch.mean(axis=0)
    var_z = (zc * zc).sum(axis=0)
    cov_xz = (xc * zc).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(var_z > 0.0, -cov_xz / np.where(var_z > 0.0, var_z, 1.0), 0.0)
    return ControlVariateState(mode=mode, lam=lam, pilot_size=pilot_size)
