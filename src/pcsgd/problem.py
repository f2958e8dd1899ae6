"""Built-in semilinear problem instances and their exact solutions.

Each instance bundles a diffusivity field, a reaction nonlinearity, an
optional deterministic-in-u source term, Dirichlet boundary data, and the
FEM/PC discretization it is meant to be solved on.  Exact solutions are
attached where known so the evaluation module can measure errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fem1d import Mesh1D
from .pc_basis import PcBasisSet, generate_basis
from .random_field import (
    HomogeneousLogNormalField,
    LogNormalField,
    TrigLogNormalField,
    over_chunks,
)


@dataclass(eq=False)
class Nonlinearity:
    """Reaction term f(u) with antiderivative and derivative.

    `antiderivative` satisfies d/du antiderivative = value and writes into `out=`, if given.
    """

    value: Callable[[np.ndarray], np.ndarray]
    antiderivative: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]


# sin and cos of an array through t = tan(u / 2): numpy's SIMD float64 tan loop
# costs a fraction of its sin or cos (README, "Sine through the half-angle
# tangent").  None of these helpers writes into u unless given it as `out`.
def _half_tan(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """t = tan(u / 2) in `out`, or in a new array when `out` is None."""
    t = np.multiply(u, 0.5, out=out)
    return np.tan(t, out=t)


def _sin(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sin u = 2t / (1 + t^2), in `out` and one temporary the size of u."""
    t = _half_tan(u, out)
    denominator = np.square(t)
    denominator += 1.0
    t += t
    return np.divide(t, denominator, out=t)


def _cos(u: np.ndarray, negated: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """cos u = 2 / (1 + t^2) - 1, or -cos u = 1 - 2 / (1 + t^2), in `out` or one new array."""
    c = _half_tan(u, out)
    np.square(c, out=c)
    c += 1.0
    np.divide(2.0, c, out=c)
    return np.subtract(1.0, c, out=c) if negated else np.subtract(c, 1.0, out=c)


SINE_REACTION = Nonlinearity(
    value=_sin,
    antiderivative=lambda u, out=None: _cos(u, negated=True, out=out),
    derivative=_cos,
)


@dataclass(eq=False)
class ProblemInstance:
    """A semilinear elliptic problem bound to its discretization.

    Every callable of x maps (points (P,), germs (n, K)) to per-germ values
    (n, P), as `field.values` does.  `source` enters the energy as
    source * u and the gradient as its projection onto the basis.
    `nonlinearity` is None, the default, for a linear problem.  `exact_solution` and
    `exact_solution_derivative` give u and u' where they are known.
    """

    name: str
    field: LogNormalField
    mesh: Mesh1D
    basis: PcBasisSet
    nonlinearity: Nonlinearity | None = None
    boundary: tuple[float, float] = (0.0, 0.0)
    source: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    exact_solution: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    exact_solution_derivative: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    exact_energy: float | None = None

    @property
    def germ_dim(self) -> int:
        return self.field.germ_dim


# Points of the composite Simpson rule behind the exact-solution oracles;
# Simpson needs an odd count.
SIMPSON_POINTS = 801


def simpson_grid(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Simpson grid and weights on [a, b]."""
    x = np.linspace(a, b, SIMPSON_POINTS)
    w = np.ones(SIMPSON_POINTS)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / (SIMPSON_POINTS - 1) / 3.0
    return x, w


def _zero_solution(x: np.ndarray, germs: np.ndarray) -> np.ndarray:
    return np.zeros((len(germs), np.size(x)))


def _inverse_kappa_integral(
    field: LogNormalField, a: float, b: float, germs: np.ndarray
) -> np.ndarray:
    """Per-germ integral of 1/kappa over [a, b] by composite Simpson."""
    if b <= a:
        return np.zeros(len(germs))
    x, w = simpson_grid(a, b)
    return over_chunks(lambda g: (1.0 / field.values(x, g)) @ w, germs)


def _instance(
    name: str, field: LogNormalField, length: float, n_interior: int, degree_bound: int, **data
) -> ProblemInstance:
    """`name` on P1 elements over [-length/2, length/2] times a total-degree Hermite basis."""
    mesh, basis = Mesh1D(length, n_interior), generate_basis(field.germ_dim, degree_bound)
    return ProblemInstance(name=name, field=field, mesh=mesh, basis=basis, **data)


def builtin_linear_homogeneous(
    beta: float, n_pairs: int, length: float, n_interior: int, degree_bound: int
) -> ProblemInstance:
    """Linear diffusion, zero source, zero boundary: the minimizer is u = 0."""
    field = TrigLogNormalField(beta, n_pairs, length)
    return _instance(
        "linear_homogeneous", field, length, n_interior, degree_bound,
        exact_solution=_zero_solution, exact_solution_derivative=_zero_solution,
        exact_energy=0.0,
    )


def builtin_linear_nonhomogeneous(
    beta: float, n_pairs: int, length: float, n_interior: int, degree_bound: int
) -> ProblemInstance:
    """Linear diffusion with boundary data (0, 1).

    The per-germ solution is the quotient of cumulative over total
    inverse-diffusivity integrals; constant flux kappa * u' follows.
    """
    field = TrigLogNormalField(beta, n_pairs, length)
    half = length / 2.0

    def exact(x: np.ndarray, germs: np.ndarray) -> np.ndarray:
        den = _inverse_kappa_integral(field, -half, half, germs)
        # one Simpson sum per point, so a point's value does not depend on the others
        num = [_inverse_kappa_integral(field, -half, b, germs) for b in x]
        return np.stack(num, axis=1) / den[:, None]

    def exact_derivative(x: np.ndarray, germs: np.ndarray) -> np.ndarray:
        den = _inverse_kappa_integral(field, -half, half, germs)
        return 1.0 / field.values(x, germs) / den[:, None]

    return _instance(
        "linear_nonhomogeneous", field, length, n_interior, degree_bound,
        boundary=(0.0, 1.0),
        exact_solution=exact, exact_solution_derivative=exact_derivative,
    )


def builtin_semilinear_homogeneous_field(
    length: float, n_interior: int, degree_bound: int
) -> ProblemInstance:
    """Sine reaction with a spatially constant log-normal diffusivity.

    The source is the unique choice making u = sin(pi x) / kappa an exact
    solution of -(kappa u')' + source + sin(u) = 0, namely
    source(x, y) = -pi^2 sin(pi x) - sin(sin(pi x) / kappa(y)).
    """
    if length != int(length) or int(length) % 2 != 0:
        raise ValueError("length must be an even integer so sin(pi x) vanishes on the boundary")
    field = HomogeneousLogNormalField()

    def source(x: np.ndarray, germs: np.ndarray) -> np.ndarray:
        kap = field.scalar_values(germs)[:, None]
        sx = np.sin(np.pi * np.asarray(x, dtype=float))[None, :]
        reaction = np.divide(sx, kap)
        _sin(reaction, out=reaction)
        return np.subtract(-np.pi**2 * sx, reaction, out=reaction)

    def exact(x: np.ndarray, germs: np.ndarray) -> np.ndarray:
        return np.sin(np.pi * x) / field.scalar_values(germs)[:, None]

    def exact_derivative(x: np.ndarray, germs: np.ndarray) -> np.ndarray:
        return np.pi * np.cos(np.pi * x) / field.scalar_values(germs)[:, None]

    return _instance(
        "semilinear_homogeneous_field", field, length, n_interior, degree_bound,
        nonlinearity=SINE_REACTION, source=source,
        exact_solution=exact, exact_solution_derivative=exact_derivative,
    )


def builtin_semilinear_nonhomogeneous_field(
    beta: float, n_pairs: int, length: float, n_interior: int, degree_bound: int
) -> ProblemInstance:
    """Sine reaction with the trigonometric log-normal diffusivity.

    u = 0 solves the problem; the minimum energy is the integral of
    -cos(0), i.e. -length.
    """
    field = TrigLogNormalField(beta, n_pairs, length)
    return _instance(
        "semilinear_nonhomogeneous_field", field, length, n_interior, degree_bound,
        nonlinearity=SINE_REACTION,
        exact_solution=_zero_solution, exact_solution_derivative=_zero_solution,
        exact_energy=-length,
    )
