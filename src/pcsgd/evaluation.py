"""Post-hoc analysis: energies, pointwise errors, CDFs.

Monte Carlo estimates are reproducible given (seed, n_samples) and always
carry a standard error.  Evaluation germ streams use their own purpose tag
so they never collide with optimization streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .estimators import Kernel, kernel_for
from .fem1d import Mesh1D, _check_domain, element_hats
from .pc_basis import PcBasisSet, eval_all
from .problem import ProblemInstance, _simpson_grid
from .random_field import GermSampler, mean_and_se, over_chunks

EVAL_PURPOSE = "eval"


@dataclass(eq=False)
class EnergyEstimate:
    mean: float
    standard_error: float


@dataclass(eq=False)
class CdfEstimate:
    probabilities: np.ndarray


def _over_eval_germs(problem: ProblemInstance, n_samples: int, seed: int, values, parallel=False):
    """`values(germs)` over n_samples evaluation germs, in chunks (see `over_chunks`)."""
    germs = GermSampler(seed, problem.germ_dim).chunks(0, n_samples, EVAL_PURPOSE)
    return over_chunks(values, germs, parallel)


def _mc_estimate(problem: ProblemInstance, n_samples: int, seed: int, values, parallel=False):
    """Mean and standard error of `values(germs)` over n_samples evaluation germs."""
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    mean, se = mean_and_se(_over_eval_germs(problem, n_samples, seed, values, parallel))
    return EnergyEstimate(mean=mean, standard_error=se)


def estimate_energy(
    problem: ProblemInstance,
    mesh: Mesh1D,
    basis: PcBasisSet,
    c: np.ndarray,
    n_samples: int,
    seed: int,
) -> EnergyEstimate:
    """MC estimate of the energy at coefficients c; with a reaction, on every core."""
    kernel = kernel_for(problem, mesh, basis)
    pooled = problem.nonlinearity is not None  # a linear pass gained nothing on threads
    return _mc_estimate(problem, n_samples, seed, lambda g: kernel.energies(c, g), pooled)


def solution_at_points(kernel: Kernel, c: np.ndarray, points: Sequence[float]):
    """u_c(x, Y), lifting included, at the points, as a function of a germ batch -> (n, P)."""
    padded = kernel.padded_coefficients(c)
    # each point's (N+1,) chaos coefficients, once per call
    rows = [padded[:, e : e + 2] @ hats for e, hats in zip(*element_hats(kernel.mesh, points))]

    def values(germs: np.ndarray) -> np.ndarray:
        psi = eval_all(kernel.basis, germs)
        return np.stack([psi @ row for row in rows], 1)

    return values


def pointwise_l2_error(
    problem: ProblemInstance,
    mesh: Mesh1D,
    basis: PcBasisSet,
    c: np.ndarray,
    x: float,
    n_samples: int,
    seed: int,
) -> EnergyEstimate:
    """MC estimate of E[(u*(x, Y) - u_c(x, Y))^2]."""
    if problem.exact_solution is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    u_c = solution_at_points(kernel_for(problem, mesh, basis), c, [x])  # checks x

    def squared_error(germs):
        return (problem.exact_solution(np.array([x]), germs)[:, 0] - u_c(germs)[:, 0]) ** 2

    return _mc_estimate(problem, n_samples, seed, squared_error)


def _empirical_cdf_of_values(
    values: Sequence[np.ndarray], thresholds: tuple[np.ndarray, ...]
) -> np.ndarray:
    if len(values) == 1:
        sorted_vals = np.sort(values[0])
        return np.searchsorted(sorted_vals, thresholds[0], side="right") / sorted_vals.size
    v1, v2 = values
    grid1, grid2 = thresholds
    n = v1.size
    probs = np.empty((grid1.size, grid2.size))
    order = np.argsort(v1)
    v1s, v2s = v1[order], v2[order]
    for a, t1 in enumerate(grid1):
        m = np.searchsorted(v1s, t1, side="right")
        probs[a] = np.searchsorted(np.sort(v2s[:m]), grid2, side="right") / n
    return probs


def empirical_cdf(
    problem: ProblemInstance,
    mesh: Mesh1D,
    basis: PcBasisSet,
    c: np.ndarray,
    points: Sequence[float],
    thresholds: Sequence[np.ndarray],
    n_samples: int,
    seed: int,
    use_exact_solution: bool = False,
) -> CdfEstimate:
    """Empirical (joint) CDF of the solution at one or two spatial points.

    With `use_exact_solution` the attached per-germ exact solution is
    sampled instead of the expansion, giving the reference CDF.
    """
    if not 1 <= len(points) <= 2:
        raise ValueError("one or two evaluation points supported")
    if len(thresholds) != len(points):
        raise ValueError("need one threshold grid per evaluation point")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if use_exact_solution and problem.exact_solution is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    points = np.asarray(points, dtype=float)
    _check_domain(mesh, points)  # the exact path would extrapolate
    if use_exact_solution:
        solution = partial(problem.exact_solution, points)
    else:
        solution = solution_at_points(kernel_for(problem, mesh, basis), c, points)
    values = _over_eval_germs(problem, n_samples, seed, solution)
    grids = tuple(np.asarray(t, dtype=float) for t in thresholds)
    return CdfEstimate(_empirical_cdf_of_values(list(values.T), grids))


def exact_energy_mc(
    problem: ProblemInstance,
    n_samples: int,
    seed: int,
) -> EnergyEstimate:
    """MC energy of the attached exact solution on an independent Simpson grid.

    Deliberately avoids the FEM quadrature tables so it can serve as an
    oracle for the expansion-based energy estimates.  Chunks run on every core.
    """
    if problem.exact_solution is None or problem.exact_solution_derivative is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution data")
    half = problem.mesh.length / 2.0
    x, w = _simpson_grid(-half, half)

    def energies(germs):
        u = problem.exact_solution(x, germs)
        du = problem.exact_solution_derivative(x, germs)
        kap = problem.field.values(x, germs)
        density = 0.5 * kap * du**2
        if problem.nonlinearity is not None:
            density = density + problem.nonlinearity.antiderivative(u)
        if problem.source is not None:
            density = density + problem.source(x, germs) * u
        return density @ w

    return _mc_estimate(problem, n_samples, seed, energies, parallel=True)
