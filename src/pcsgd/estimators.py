"""Batched gradient / block-Hessian estimators and control variates.

All heavy lifting happens in `Kernel`, which evaluates whole germ batches
element by element on the P1 mesh (M interior nodes, M+1 elements); the
README's "Kernel data layout" section describes its arrays.  Coefficients
are a flat vector of length M*(N+1) in stochastic-major blocks,
c[j*M + (i-1)] multiplying phi_i * psi_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fem1d import Mesh1D, element_hats, quadrature_points
from .pc_basis import PcBasisSet, eval_all
from .problem import ProblemInstance

DEFAULT_QUADRATURE_ORDER = 4

# Rule nodes per slice in `rule_moments` and `expected_energy`: it bounds the pair buffer
# and the reaction's (nodes, points) temporaries, which lowers a solve's peak memory.
NODE_SLICE = 256


def coefficient_matrix(c: np.ndarray, n_interior: int) -> np.ndarray:
    """View the flat vector as (n_stochastic, n_interior)."""
    return np.asarray(c).reshape(-1, n_interior)


def flat_index(i: int, j: int, n_interior: int) -> int:
    """Flat position of the coefficient for phi_i (1-based) and psi_j."""
    return j * n_interior + (i - 1)


@dataclass(eq=False)
class ControlVariateState:
    """A control variate's order and its fitted per-component multipliers."""

    order: int  # the Taylor degree of kappa's mean-point surrogate
    lam: np.ndarray


class GermTables(NamedTuple):
    psi: np.ndarray  # (n, N+1)
    conductance: np.ndarray  # integrals of kappa over each element, (n, M+1)
    loads: np.ndarray | None  # the source's nodal loads (n, M+2), if it has one


class RuleMoments(NamedTuple):
    """A fixed rule's tables for `Kernel.expected_energy`."""
    stiffness: np.ndarray  # G_e = sum_s w_s cond_se psi_s psi_s', (M+1, N+1, N+1)
    source: np.ndarray | None  # sum_s w_s psi_s loads_s', (N+1, M+2), if there is a source
    reaction: tuple | None  # the weights and psi (n, N+1), if there is a reaction


class GradientRows(NamedTuple):
    """Per-germ psi and spatial rows (n, M); a part's sample s is psi[s] times its row."""
    psi: np.ndarray  # (n, N+1)
    linear: np.ndarray  # integrals of kappa u' phi_i'
    total: np.ndarray  # linear plus the reaction and source loads
    surrogate: np.ndarray | None  # linear with kappa's mean-point surrogate, for a CV order


class Kernel:
    """Element-local evaluation for one (problem, mesh, basis) triple."""

    def __init__(self, problem: ProblemInstance, mesh: Mesh1D, basis: PcBasisSet):
        if basis.germ_dim != problem.germ_dim:
            raise ValueError("basis germ dimension does not match the field")
        self.problem, self.mesh, self.basis = problem, mesh, basis
        rule = quadrature_points(mesh, DEFAULT_QUADRATURE_ORDER)
        self.x, self.w = rule.points, rule.weights
        # an element's weights, and its left and right node's hats at its points
        w = self._element_w = self.w[:DEFAULT_QUADRATURE_ORDER]
        hats = element_hats(mesh, self.x[:DEFAULT_QUADRATURE_ORDER])[1]
        n0, n1 = self._shape = np.ascontiguousarray(hats.T)  # (2, q)
        self._load_w = np.ascontiguousarray(w[:, None] * self._shape.T)  # matmul's fast path
        self._mass_w = w[:, None] * np.stack([n0 * n0, n0 * n1, n1 * n1], axis=1)
        # E[Y_k psi_a psi_b] is nonzero only at the b of alpha -/+ e_k, where it is the raised
        # one's norm: their k, b and moment, (2K, N+1), over k, lower b first, as einsum sums
        # over (k, b); a missing neighbour has b = 0 and moment 0
        self._norms = basis.norms[:, None]
        up = basis.raised  # (K, N+1)
        down = np.zeros_like(up)
        k, a = np.nonzero(up >= 0)
        down[k, up[k, a]] = a
        b = np.stack([down, np.maximum(up, 0)], axis=1).reshape(2 * len(up), -1)
        lower = np.where(basis.degrees > 0, basis.norms, 0.0)
        moment = np.stack([lower, np.where(up >= 0, basis.norms[up], 0.0)], axis=1)
        self._neighbours = np.arange(len(b))[:, None] // 2, b, moment.reshape(b.shape)
        self.dim = mesh.n_interior * basis.size
        # element conductances of the mean-point surrogates for the control
        # variates; kappa is 1 at the germ mean
        self._cond0 = self._per_element(np.ones((1, self.x.size)), w)[0]
        self._condk = self._per_element(problem.field.gradient_at_mean(self.x), w)

    # -- germ tables --------------------------------------------------------

    def _per_element(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Sums of point values (rows, P) over each element with weights (q,) or (q, r)."""
        sums = values.reshape(-1, DEFAULT_QUADRATURE_ORDER) @ weights
        return sums.reshape(values.shape[0], self.mesh.n_interior + 1, *weights.shape[1:])

    def _loads(self, values: np.ndarray) -> np.ndarray:
        """Nodal loads (n, M+2): integrals of point values (n, P) against each hat."""
        ends = self._per_element(values, self._load_w)
        loads = np.zeros((len(ends), self.mesh.n_interior + 2))
        loads[:, :-1] = ends[..., 0]
        loads[:, 1:] += ends[..., 1]
        return loads

    def conductances(self, germs: np.ndarray) -> np.ndarray:
        """Per-germ integrals of kappa over each element, (n, M+1)."""
        field = self.problem.field
        scalar = field.scalar_values(germs)
        if scalar is not None:  # constant in x: kappa times each element's width
            return np.multiply.outer(scalar, np.full(self.mesh.n_interior + 1, self.mesh.h))
        return self._per_element(field.values(self.x, germs), self._element_w)

    def germ_tables(self, germs: np.ndarray) -> GermTables:
        source = self.problem.source
        loads = None if source is None else self._loads(source(self.x, germs))
        return GermTables(eval_all(self.basis, germs), self.conductances(germs), loads)

    # -- solution evaluation ------------------------------------------------

    def solution_values(self, c: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nodal values padded with the boundary data (n, M+2), and u' per element (n, M+1)."""
        nodal = psi @ self.padded_coefficients(c)
        return nodal, np.diff(nodal, axis=1) / self.mesh.h

    def _at_points(self, nodal: np.ndarray) -> np.ndarray:
        """u at the quadrature points, (n, P): each element's two end values times its hats."""
        ends = np.stack((nodal[:, :-1], nodal[:, 1:]), axis=2).reshape(-1, 2)  # (n * (M+1), 2)
        return (ends @ self._shape).reshape(nodal.shape[0], -1)

    def _stiffness_rows(self, flux: np.ndarray) -> np.ndarray:
        """Integrals of flux * phi_i', (..., M), from per-element fluxes (..., M+1)."""
        return (flux[..., :-1] - flux[..., 1:]) / self.mesh.h

    def _tensor(self, psi: np.ndarray, spatial: np.ndarray) -> np.ndarray:
        """Rows psi_j * v_i in the flat coefficient layout, (n, dim)."""
        return (psi[:, :, None] * spatial[:, None, :]).reshape(psi.shape[0], self.dim)

    def padded_coefficients(self, c: np.ndarray) -> np.ndarray:
        """(N+1, M+2) coefficients; row 0, psi_0 = 1, carries the boundary data."""
        if np.size(c) != self.dim:  # else M coefficients would broadcast over every mode
            raise ValueError(f"{np.size(c)} coefficients given, the problem has {self.dim}")
        padded = np.zeros((self.basis.size, self.mesh.n_interior + 2))
        padded[:, 1:-1] = coefficient_matrix(c, self.mesh.n_interior)
        padded[0, 0], padded[0, -1] = self.problem.boundary
        return padded

    # -- energies and gradients ---------------------------------------------

    def _reaction_energies(self, nodal: np.ndarray) -> np.ndarray:
        """Per-germ integrals of the reaction's antiderivative F(u), (n,)."""
        return self.problem.nonlinearity.antiderivative(self._at_points(nodal)) @ self.w

    def energies(self, c: np.ndarray, germs: np.ndarray) -> np.ndarray:
        """Per-germ energy integral (n,)."""
        psi, conductance, loads = self.germ_tables(germs)
        padded = self.padded_coefficients(c)
        du = psi @ (np.diff(padded, axis=1) / self.mesh.h)  # nodal values only if needed
        energy = 0.5 * np.einsum("ne,ne->n", conductance, du * du)
        nl = self.problem.nonlinearity
        if nl is not None or loads is not None:
            nodal = psi @ padded
        if nl is not None:
            energy += self._reaction_energies(nodal)
        if loads is not None:
            energy += np.einsum("ni,ni->n", loads, nodal)
        return energy

    def rule_moments(self, nodes: np.ndarray, weights: np.ndarray) -> RuleMoments:
        """Tables of `expected_energy` for the rule (nodes, weights).

        np.einsum sums G_e (its a <= b half) and the source over NODE_SLICE nodes
        per call, not BLAS, whose rounding can depend on its thread count.
        """
        psi, conductance, loads = self.germ_tables(nodes)
        n = self.basis.size
        first = np.r_[0, np.cumsum(np.arange(n, 0, -1))]  # row j's start in the a <= b half
        half = np.zeros((conductance.shape[1], first[-1]))
        buffer = np.empty((min(len(nodes), NODE_SLICE), first[-1]))  # one slice's pairs
        source = None if loads is None else np.zeros((n, loads.shape[1]))
        for k in range(0, len(nodes), NODE_SLICE):
            chunk = slice(k, k + NODE_SLICE)
            wpsi = weights[chunk, None] * psi[chunk]
            pairs = buffer[: len(wpsi)]
            for j, (lo, hi) in enumerate(zip(first, first[1:])):
                np.multiply(wpsi[:, j, None], psi[chunk, j:], out=pairs[:, lo:hi])
            half += np.einsum("se,sp->ep", conductance[chunk], pairs)
            if source is not None:
                source += np.einsum("sa,si->ai", wpsi, loads[chunk])
        a, b = np.nonzero(np.less_equal.outer(np.arange(n), np.arange(n)))  # the a <= b half
        stiffness = np.empty((len(half), n, n))
        stiffness[:, a, b] = stiffness[:, b, a] = half
        reaction = None if self.problem.nonlinearity is None else (weights, psi)
        return RuleMoments(stiffness, source, reaction)

    def expected_energy(self, c: np.ndarray, moments: RuleMoments) -> float:
        """A rule's `weights @ energies(c, nodes)`, from its `rule_moments`.

        The sum of d_e' G_e d_e / 2 over the elements, d = diff(padded) / h,
        plus source : padded and the reaction's node energies.
        """
        padded = self.padded_coefficients(c)
        du = (np.diff(padded, axis=1) / self.mesh.h).T  # (M+1, N+1)
        energy = 0.5 * (np.einsum("eab,eb->ea", moments.stiffness, du) * du).sum()
        if moments.source is not None:
            energy += (moments.source * padded).sum()
        if moments.reaction is not None:
            weights, psi = moments.reaction
            # one product, as BLAS rows can round by the row count, then node slices
            slices = np.split(psi @ padded, range(NODE_SLICE, len(psi), NODE_SLICE))
            energy += weights @ np.concatenate([self._reaction_energies(s) for s in slices])
        return float(energy)

    def gradient_parts(self, c, germs, order: int | None = None, *, tables=None) -> GradientRows:
        """Per-germ psi and gradient rows, with the CV surrogate's for a CV `order`.

        `tables` are `germ_tables(germs)` if the caller has built them.
        """
        psi, conductance, loads = self.germ_tables(germs) if tables is None else tables
        nodal, du = self.solution_values(c, psi)
        linear = self._stiffness_rows(conductance * du)
        nl = self.problem.nonlinearity
        if nl is not None:
            reaction = self._loads(nl.value(self._at_points(nodal)))
            loads = reaction if loads is None else reaction + loads
        total = linear if loads is None else linear + loads[:, 1:-1]
        if order is None:
            return GradientRows(psi, linear, total, None)
        surrogate = self._cond0 + (germs @ self._condk if order >= 1 else 0.0)
        return GradientRows(psi, linear, total, self._stiffness_rows(surrogate * du))

    def gradient_batch(self, c: np.ndarray, germs: np.ndarray) -> np.ndarray:
        rows = self.gradient_parts(c, germs)
        return self._tensor(rows.psi, rows.total)

    # -- control variates -------------------------------------------------

    def cv_auxiliary_batch(self, c, germs, order: int):
        """Linear-part gradient with kappa replaced by its mean-point surrogate, (n, dim)."""
        rows = self.gradient_parts(c, germs, order)
        return self._tensor(rows.psi, rows.surrogate)

    def cv_known_mean(self, c: np.ndarray, order: int) -> np.ndarray:
        """Analytic expectation of the auxiliary estimator at coefficients c."""
        slopes = np.diff(self.padded_coefficients(c), axis=1) / self.mesh.h
        mean = self._norms * self._stiffness_rows(self._cond0 * slopes)
        if order >= 1:
            rows = self._stiffness_rows(self._condk[:, None, :] * slopes)  # (K, N+1, M)
            k, b, moment = self._neighbours
            mean += (moment[..., None] * rows[k, b]).sum(axis=0)  # (2K, N+1, M) summed
        return mean.reshape(self.dim)

    def cv_gradient_batch(self, c, germs, state: ControlVariateState | None):
        """Per-sample gradients (n, dim) of the estimator with control variate `state`, if any."""
        if state is None:
            return self.gradient_batch(c, germs)
        rows = self.gradient_parts(c, germs, state.order)
        aux = self._tensor(rows.psi, rows.surrogate) - self.cv_known_mean(c, state.order)
        return self._tensor(rows.psi, rows.total) + state.lam * aux

    def gradient_mean(self, c, germs, state: ControlVariateState | None, *, tables=None):
        """Batch mean (dim,) of `cv_gradient_batch`: each part's rows projected onto psi once."""
        order = None if state is None else state.order
        psi, _, total, surrogate = self.gradient_parts(c, germs, order, tables=tables)
        mean = (psi.T @ total).reshape(self.dim) / len(psi)
        if state is None:
            return mean
        aux = (psi.T @ surrogate).reshape(self.dim) / len(psi)
        return mean + state.lam * (aux - self.cv_known_mean(c, order))

    # -- Hessian blocks ---------------------------------------------------

    def hessian_tables(self, germs: np.ndarray) -> tuple:
        """psi, its squares over the batch size and the blocks' conductance bands: the parts of
        a Hessian batch's blocks that do not depend on the coefficients."""
        psi = eval_all(self.basis, germs)
        weights = psi**2 / germs.shape[0]
        conductance = weights.T @ self.conductances(germs) / self.mesh.h**2  # (N+1, M+1)
        bands = np.zeros((self.basis.size, 2, self.mesh.n_interior))
        bands[:, 0] = conductance[:, :-1] + conductance[:, 1:]
        bands[:, 1, :-1] = -conductance[:, 1:-1]
        return psi, weights, bands

    def averaged_hessian_blocks(self, c: np.ndarray, germs: np.ndarray, *, full: bool, tables=None):
        """Mini-batch mean of the diagonal Hessian blocks as (N+1, 2, M) lower bands.

        The mean over samples of psi_j^2 * A collapses into per-block element
        weights: conductances and, if `full`, f'(u) times the element's hat products.
        `tables` are `hessian_tables(germs)` if the caller has built them.
        """
        psi, weights, bands = self.hessian_tables(germs) if tables is None else tables
        nl = self.problem.nonlinearity
        if full and nl is not None:
            nodal = psi @ self.padded_coefficients(c)
            dfu = nl.derivative(self._at_points(nodal))
            mass = self._per_element(weights.T @ dfu, self._mass_w)  # (N+1, M+1, 3)
            bands = bands.copy()
            bands[:, 0] += mass[:, :-1, 2] + mass[:, 1:, 0]
            bands[:, 1, :-1] += mass[:, 1:-1, 1]
        return bands


def kernel_for(
    problem: ProblemInstance,
    mesh: Mesh1D | None = None,
    basis: PcBasisSet | None = None,
) -> Kernel:
    """A new Kernel for the triple; the mesh and basis default to the problem's."""
    return Kernel(problem, mesh or problem.mesh, basis or problem.basis)


def estimate_cv_lambda(
    kernel: Kernel, c: np.ndarray, order: int | None, pilot_size: int, sampler
) -> ControlVariateState | None:
    """The control variate of `order` (None for none), fitted on a pilot batch at c.

    lam = -Cov(X, Z) / Var(Z) with X the linear gradient part and Z its
    mean-point surrogate; components with a degenerate pilot variance get
    lam = 0 so the estimator falls back to the plain one there.
    """
    if order is None:
        return None
    if pilot_size < 2:
        raise ValueError("pilot batch needs at least two samples")
    germs = sampler.sample_batch(0, pilot_size, "pilot")
    rows = kernel.gradient_parts(c, germs, order)
    # centered Z·Z and X·Z sums per psi_j
    sums = np.empty((2, kernel.basis.size, kernel.mesh.n_interior))
    for j, psi_j in enumerate(rows.psi.T[:, :, None]):
        x_j, z_j = psi_j * rows.linear, psi_j * rows.surrogate  # X, Z on psi_j's block
        xc, zc = x_j - x_j.mean(axis=0), z_j - z_j.mean(axis=0)
        sums[:, j] = (zc * zc).sum(axis=0), (xc * zc).sum(axis=0)
    var_z, cov_xz = sums.reshape(2, kernel.dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(var_z > 0.0, -cov_xz / np.where(var_z > 0.0, var_z, 1.0), 0.0)
    return ControlVariateState(order, lam)
