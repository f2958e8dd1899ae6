"""Fast self-test of the oracles against brute-force quadrature, at reduced size.

    python3 perfbench/selftest.py

run.py also runs it before it checks a workload, so a broken oracle makes
the result incorrect rather than silently passing a wrong program.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import oracles


def simpson(f: np.ndarray, x: np.ndarray) -> float:
    w = np.ones(x.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(f @ w * (x[1] - x[0]) / 3.0)


def normal_trapezoid(g, half_width=12.0, n=20001) -> float:
    t = np.linspace(-half_width, half_width, n)
    return float(np.trapezoid(g(t) * np.exp(-0.5 * t * t), t) / math.sqrt(2.0 * np.pi))


def fd_linear_solve(kappa, length: float, cells: int = 4000):
    """Finite-volume solve of -(kappa u')' = 0, u(-l/2) = 0, u(l/2) = 1, and its energy."""
    x = np.linspace(-length / 2, length / 2, cells + 1)
    dx = x[1] - x[0]
    k_mid = kappa(0.5 * (x[:-1] + x[1:]))
    # constant flux q: u increments are q dx / k_mid and must sum to 1
    q = 1.0 / np.sum(dx / k_mid)
    u = np.concatenate([[0.0], np.cumsum(q * dx / k_mid)])
    energy = 0.5 * np.sum(k_mid * (np.diff(u) / dx) ** 2 * dx)
    return x, u, energy


def checks() -> list[tuple[str, float, float]]:
    """(name, error, tolerance) for every oracle."""
    out = []
    length = 4.0
    x = np.linspace(-length / 2, length / 2, 4001)

    # semilinear, constant field: closed-form energy and solution
    worst = 0.0
    for z in (0.5, 1.0, 1.7):
        kappa = 1.0 / z
        u, du = z * np.sin(np.pi * x), z * np.pi * np.cos(np.pi * x)
        source = -np.pi**2 * np.sin(np.pi * x) - np.sin(z * np.sin(np.pi * x))
        brute = simpson(0.5 * kappa * du**2 - np.cos(u) + source * u, x)
        worst = max(worst, abs(brute - oracles.semilinear_full_energy_at(z, length)))
        xs, h = np.array([-0.7, 0.2, 1.3]), 1e-4
        u_star = lambda p: oracles.semilinear_full_solution(p, kappa)  # noqa: E731
        residual = (-kappa * (u_star(xs + h) - 2 * u_star(xs) + u_star(xs - h)) / h**2
                    - np.pi**2 * np.sin(np.pi * xs) - np.sin(z * np.sin(np.pi * xs))
                    + np.sin(u_star(xs)))
        out.append((f"semilinear u* PDE residual, z={z}", float(np.max(np.abs(residual))), 1e-4))
    out.append(("semilinear energy closed form vs Simpson", worst, 1e-9))
    s = math.sqrt(2.0) * 0.2
    brute = normal_trapezoid(lambda t: oracles.semilinear_full_energy_at(np.exp(s * t), length))
    out.append(("semilinear expected energy, Gauss-Hermite vs trapezoid",
                abs(brute - oracles.semilinear_full_expected_energy(length)), 1e-10))

    # linear with boundary data, one harmonic pair, a rough field
    beta, pairs = 0.5, 1
    germs = oracles.oracle_germs(7, 3, 2 * pairs)
    worst_energy, worst_u = 0.0, 0.0
    for y in germs:
        kappa = lambda p: np.exp(beta * (y @ oracles.trig_harmonics(p, pairs, length)))  # noqa: E731
        xf, uf, energy = fd_linear_solve(kappa, length)
        exact = oracles.linear_energy_at(y[None, :], beta, pairs, length)[0]
        worst_energy = max(worst_energy, abs(energy - exact) / exact)
        at = 0.9
        worst_u = max(worst_u, abs(np.interp(at, xf, uf)
                                   - oracles.linear_solution(at, y[None, :], beta, pairs, length)[0]))
    out.append(("linear energy 1/2 / int 1/kappa vs finite volumes", worst_energy, 1e-6))
    out.append(("linear solution vs finite volumes", worst_u, 1e-6))
    t = np.linspace(-8.0, 8.0, 321)
    ya, yb = np.meshgrid(t, t, indexing="ij")
    grid = np.stack([ya.ravel(), yb.ravel()], axis=1)
    pdf = np.exp(-0.5 * (grid**2).sum(axis=1)) / (2.0 * np.pi)
    wt = np.full(t.size, t[1] - t[0])
    wt[[0, -1]] *= 0.5
    brute = float(np.sum(oracles.linear_energy_at(grid, beta, pairs, length) * pdf
                         * np.outer(wt, wt).ravel()))
    out.append(("linear expected energy, Gauss-Hermite vs trapezoid",
                abs(brute - oracles.linear_expected_energy(beta, pairs, length, 16)) / brute, 1e-9))

    # semilinear, trigonometric field: u = 0 gives -length, nothing gives less
    rng = np.random.default_rng(5)
    lowest = np.inf
    for _ in range(20):
        y = rng.standard_normal(2 * pairs)
        kap = np.exp(0.3 * (y @ oracles.trig_harmonics(x, pairs, length)))
        a = rng.normal(scale=0.5, size=4)
        k = np.arange(1, 5)[:, None]
        phase = k * np.pi * (x[None, :] + length / 2) / length
        v, dv = a @ np.sin(phase), a @ (k * np.pi / length * np.cos(phase))
        lowest = min(lowest, simpson(0.5 * kap * dv**2 - np.cos(v), x) + length)
    out.append(("trig-field energy at u=0 minus -length", abs(simpson(-np.ones_like(x), x) + length),
                1e-10))
    out.append(("trig-field energy above -length (negative part)", max(0.0, -lowest), 1e-10))

    # the expansion: Hermite orthogonality and the hats' partition of unity
    points, weights = oracles.tensor_hermite(2, 8)
    psi = oracles.hermite_basis(points, 3)
    norms = [math.prod(math.factorial(a) for a in alpha)
             for alpha in oracles.graded_multi_indices(2, 3)]
    out.append(("Hermite basis Gram matrix vs diag(prod alpha!)",
                float(np.max(np.abs(psi.T @ (weights[:, None] * psi) - np.diag(norms)))), 1e-10))
    ones = [oracles.expansion_at(np.ones(9), p, np.zeros((1, 2)), length, 9, 0, (1.0, 1.0))[0]
            for p in np.linspace(-length / 2, length / 2, 37)]
    out.append(("hats plus lifting sum to one", float(np.max(np.abs(np.array(ones) - 1.0))), 1e-12))
    return out


def main() -> int:
    failed = 0
    for name, error, tol in checks():
        ok = error <= tol
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {error:.3g} (tolerance {tol:g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
