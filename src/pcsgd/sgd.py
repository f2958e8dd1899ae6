"""Mini-batch SGD with block-diagonal Hessian preconditioning.

One iteration draws a gradient batch and a Hessian batch from separate
germ streams, averages them, solves the per-block symmetric systems, and
applies the diminishing-rate update.  The nonlinear Hessian part can be
deferred for a number of iterations ("staged" mode) because it depends on
the coefficients and is therefore very noisy while the iterates are.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import isfinite

import numpy as np
from scipy.linalg.lapack import dptsv

from .estimators import CV_MODES, Kernel, estimate_cv_lambda, kernel_for
from .fem1d import Mesh1D
from .pc_basis import PcBasisSet, gauss_hermite
from .problem import ProblemInstance
from .random_field import GermSampler

HESSIAN_MODES = ("none", "linear-only", "staged", "full")

# Relative diagonal shift of every Hessian block, as a share of its mean
# diagonal entry.
RIDGE = 1e-8


@dataclass(eq=False)
class LearningRateSchedule:
    """Diminishing rate numerator / (offset + n)."""

    numerator: float
    offset: float = 0.0

    def __post_init__(self):
        if not (isfinite(self.numerator) and self.numerator > 0):
            raise ValueError("rate numerator must be finite and positive")
        if not (isfinite(self.offset) and self.offset + 1 > 0):
            raise ValueError("offset must be finite and keep the first rate finite")

    def rate(self, n: int) -> float:
        return self.numerator / (self.offset + n)


@dataclass(eq=False)
class SgdConfig:
    n_iterations: int
    batch_gradient: int
    batch_hessian: int
    schedule: LearningRateSchedule
    cv_mode: str = "none"
    cv_pilot_size: int = 1000
    hessian_mode: str = "staged"
    n_switch: int = 100
    seed: int = 0
    init: str = "zero"
    init_scale: float = 1.0
    record_stride: int = 1
    monitor_samples: int = 10_000

    def __post_init__(self):
        if self.n_iterations < 0:
            raise ValueError("iteration count must be non-negative")
        if self.batch_gradient < 1 or self.batch_hessian < 1:
            raise ValueError("batch sizes must be at least 1")
        if self.cv_mode not in CV_MODES:
            raise ValueError(f"unknown cv_mode {self.cv_mode!r}")
        if self.cv_pilot_size < 2:
            raise ValueError("cv_pilot_size must be >= 2")
        if self.hessian_mode not in HESSIAN_MODES:
            raise ValueError(f"unknown hessian_mode {self.hessian_mode!r}")
        if self.n_switch < 0:
            raise ValueError("n_switch must be non-negative")
        if self.hessian_mode == "staged" and self.n_switch > max(self.n_iterations, 1):
            raise ValueError("n_switch must not exceed the iteration count")
        if self.init not in ("zero", "gaussian"):
            raise ValueError(f"unknown init rule {self.init!r}")
        if not isfinite(self.init_scale):
            raise ValueError("init_scale must be finite")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.monitor_samples < 3:  # the smallest rule has 3 points per axis
            raise ValueError("monitor_samples must be >= 3")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(eq=False)
class Trajectory:
    iterations: np.ndarray
    rates: np.ndarray
    energy_mean: np.ndarray
    energy_se: np.ndarray  # |Q_n - Q_(n-2)|, the monitor rule's error estimate
    gradient_norm: np.ndarray
    fallback_count: np.ndarray  # block fallbacks since the previous record
    monitor_samples: int  # nodes of the monitor rule


class SgdDivergenceError(RuntimeError):
    """Raised when an update produces non-finite coefficients."""

    def __init__(self, iteration: int, seed: int):
        self.iteration = iteration
        self.seed = seed
        super().__init__(
            f"non-finite update at iteration {iteration}; "
            f"germ streams derive from seed {seed}"
        )


def precondition_solve(
    blocks: np.ndarray, gradient: np.ndarray, ridge: float
) -> tuple[np.ndarray, int]:
    """Solve the block systems (B_j + ridge tr(B_j)/M I) s_j = g_j.

    `blocks` holds each tridiagonal B_j as lower bands, shape (N+1, 2, M).
    LAPACK's `dptsv` solves them stacked, uncoupled by zeros between blocks.
    Blocks that are not finite or fail the factorization fall back to
    identity scaling (s_j = g_j); the count of such blocks is returned.
    """
    m = blocks.shape[2]
    failed = ~np.isfinite(blocks).all(axis=(1, 2))
    bands = np.where(failed[:, None, None], 0.0, blocks)
    diagonal = bands[:, 0] + ridge * np.abs(bands[:, 0].sum(axis=1, keepdims=True)) / m
    sub = np.where(np.arange(m) < m - 1, bands[:, 1], 0.0)  # no coupling to the next block
    while True:
        diagonal[failed], sub[failed] = 1.0, 0.0
        # dptsv wants len(e) >= 1
        _, _, step, info = dptsv(diagonal.ravel(), sub.ravel()[: max(sub.size - 1, 1)], gradient)
        if info == 0:
            return step, int(failed.sum())
        # pivot `info` is not positive; identity pivots stay 1, so no block fails twice
        failed[(info - 1) // m] = True


def monitor_points(basis: PcBasisSet, budget: int) -> int:
    """Points per axis of the monitor's rule: p + 3, fewer if its n^K nodes exceed `budget`."""
    k = basis.germ_dim
    if budget < 3**k:  # 3 points, so that the (n - 2)-point partner rule has one
        raise ValueError(f"monitor_samples={budget} is below 3^{k}, the smallest monitor rule")
    return next(n for n in range(basis.degree_bound + 3, 2, -1) if n**k <= budget)


def _initial_coefficients(kernel: Kernel, config: SgdConfig) -> np.ndarray:
    if config.init == "zero":
        return np.zeros(kernel.dim)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0, 0x1A17))
    )
    return config.init_scale * rng.standard_normal(kernel.dim)


def _hessian_stage(config: SgdConfig, n: int) -> str:
    if config.hessian_mode == "linear-only":
        return "linear-only"
    if config.hessian_mode == "staged" and n <= config.n_switch:
        return "linear-only"
    return "full"


def run(
    problem: ProblemInstance,
    mesh: Mesh1D,
    basis: PcBasisSet,
    config: SgdConfig,
    on_record: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[Trajectory, np.ndarray]:
    """Execute the preconditioned mini-batch SGD iteration.

    Returns the recorded trajectory and the final coefficient vector.  On a
    non-finite update the partial trajectory is attached to the raised
    SgdDivergenceError as `.trajectory`.

    The trajectory holds per-record scalars only.  A caller that wants the
    iterates passes `on_record(n, c)`: it is called right after each
    record, in iteration order, with the iteration and the iterate itself,
    so also at n = 0, at the final iteration and at every record before a
    divergence.  `run` rebinds `c` on each update and never writes into it,
    so the callable may keep the array it is handed; `run` keeps none.
    """
    kernel = kernel_for(problem, mesh, basis)
    sampler = GermSampler(config.seed, problem.germ_dim)
    c = _initial_coefficients(kernel, config)

    # The monitor records E[J(c; Y)] on a fixed Gauss-Hermite rule, and the
    # distance to its partner with n - 2 points per axis as the error estimate,
    # each from moment tables built once.
    n_points = monitor_points(basis, config.monitor_samples)
    rules = [
        kernel.rule_moments(*gauss_hermite(n, problem.germ_dim)) for n in (n_points, n_points - 2)
    ]

    cv_state = estimate_cv_lambda(kernel, c, config.cv_mode, config.cv_pilot_size, sampler)

    records: list[tuple] = []  # one row per record, in Trajectory's field order

    def record(n: int, eta: float, grad_norm: float, fallbacks: int):
        energy, partner = (kernel.expected_energy(c, rule) for rule in rules)
        records.append((n, eta, energy, abs(energy - partner), grad_norm, fallbacks))
        if on_record is not None:
            on_record(n, c)

    record(0, 0.0, np.nan, 0)
    fallbacks_since_record = 0

    def build_trajectory() -> Trajectory:
        columns = (np.array(column) for column in zip(*records))
        nodes = n_points**problem.germ_dim
        return Trajectory(*columns, monitor_samples=nodes)

    for n in range(1, config.n_iterations + 1):
        eta = config.schedule.rate(n)
        germs_g = sampler.sample_batch(n, config.batch_gradient, "gradient")
        grad = kernel.gradient_mean(c, germs_g, cv_state)

        if config.hessian_mode == "none":
            step = grad
        else:
            stage = _hessian_stage(config, n)
            germs_h = sampler.sample_batch(n, config.batch_hessian, "hessian")
            blocks = kernel.averaged_hessian_blocks(c, germs_h, stage)
            step, fallbacks = precondition_solve(blocks, grad, RIDGE)
            fallbacks_since_record += fallbacks

        c = c - eta * step
        if not np.all(np.isfinite(c)):
            err = SgdDivergenceError(iteration=n, seed=config.seed)
            err.trajectory = build_trajectory()
            raise err

        if n % config.record_stride == 0 or n == config.n_iterations:
            record(n, eta, float(np.linalg.norm(grad)), fallbacks_since_record)
            fallbacks_since_record = 0

    return build_trajectory(), c
