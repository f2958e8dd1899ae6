"""Post-hoc analysis: energies, pointwise errors, CDFs.

Monte Carlo estimates are reproducible given (seed, n_samples) and always
carry a standard error.  Evaluation germ streams use their own purpose tag
so they never collide with optimization streams.
"""

from __future__ import annotations

import os
import signal
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .estimators import Kernel, kernel_for
from .fem1d import Mesh1D, element_hats
from .pc_basis import PcBasisSet, eval_all
from .problem import ProblemInstance, simpson_grid
from .random_field import GERM_CHUNK, GermSampler, fork, may_fork

EVAL_PURPOSE = "eval"


@dataclass(eq=False)
class EnergyEstimate:
    mean: float
    standard_error: float


@dataclass(eq=False)
class CdfEstimate:
    probabilities: np.ndarray


def _over_eval_germs(problem: ProblemInstance, n_samples: int, seed: int, values):
    """`values(germs)` over n_samples evaluation germs drawn GERM_CHUNK at a time (none are one
    empty chunk), rows concatenated; where `may_fork`, split with workers forked for the call
    (README, "Monte Carlo passes on every core"), with the one-process bits."""
    stream = partial(GermSampler(seed, problem.germ_dim).chunks, 0, n_samples, EVAL_PURPOSE)
    chunks = enumerate(stream())
    head = values(next(chunks)[1])  # computed before any fork: it lays out the rows
    count = len(range(0, n_samples or 1, GERM_CHUNK))
    if count == 1 or not may_fork():
        return np.concatenate([head, *(values(chunk) for _, chunk in chunks)])
    import fcntl
    import mmap

    size, caller, pids = n_samples * head[:1].nbytes, os.getpid(), []
    shared = mmap.mmap(-1, size + count)  # anonymous, so shared with the workers
    rows = np.ndarray((n_samples, *head.shape[1:]), head.dtype, shared)
    done = np.ndarray(count, bool, shared, size)
    rows[:GERM_CHUNK], done[0] = head, True
    claims, tokens = os.pipe()

    def claim():
        for token in iter(partial(os.read, claims, 4), b""):
            k = int.from_bytes(token, "little")
            chunk = next(chunk for j, chunk in chunks if j == k)  # drawn on this process's copy
            rows[k * GERM_CHUNK :][: len(chunk)] = values(chunk)
            done[k] = True
            if caller not in (os.getpid(), os.getppid()):  # a worker whose caller is gone
                break

    try:
        with open(tokens, "wb") as pipe:  # closed before any fork: a drained pipe reads EOF
            fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, 4 * count)  # so that the write cannot block
            pipe.write(np.arange(1, count, dtype="<i4").tobytes())
        with suppress(OSError):  # EAGAIN, ENOMEM: this process claims what no worker does
            for _ in range(min(len(os.sched_getaffinity(0)), count) - 1):
                pids.append(fork(claim))
        claim()
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims)
        exits = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if not done.all():
        values(next(chunk for j, chunk in enumerate(stream()) if not done[j]))  # raises its error
        raise RuntimeError(f"a Monte Carlo pass worker ended with exit code {max(exits, key=abs)}")
    return rows


def _mc_estimate(problem: ProblemInstance, n_samples: int, seed: int, values):
    """Mean of `values(germs)` over n_samples evaluation germs and its standard error
    std(ddof=1) / sqrt(n)."""
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    samples = _over_eval_germs(problem, n_samples, seed, values)
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    return EnergyEstimate(mean=float(samples.mean()), standard_error=float(se))


def estimate_energy(
    problem: ProblemInstance,
    mesh: Mesh1D,
    basis: PcBasisSet,
    c: np.ndarray,
    n_samples: int,
    seed: int,
) -> EnergyEstimate:
    """MC estimate of the energy at coefficients c."""
    kernel = kernel_for(problem, mesh, basis)
    return _mc_estimate(problem, n_samples, seed, lambda g: kernel.energies(c, g))


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
    element_hats(mesh, points)  # checks the points: the exact path would extrapolate
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
    oracle for the expansion-based energy estimates.
    """
    if problem.exact_solution is None or problem.exact_solution_derivative is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution data")
    half = problem.mesh.length / 2.0
    x, w = simpson_grid(-half, half)

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

    return _mc_estimate(problem, n_samples, seed, energies)
