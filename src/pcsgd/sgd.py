"""Mini-batch SGD with block-diagonal Hessian preconditioning.

One iteration draws a gradient batch and a Hessian batch from separate
germ streams, averages them, solves the per-block symmetric systems, and
applies the diminishing-rate update.  The nonlinear Hessian part can be
deferred for a number of iterations ("staged" mode) because it depends on
the coefficients and is therefore very noisy while the iterates are.
"""

from __future__ import annotations

import functools
import itertools
import os
import signal
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from math import isfinite

import numpy as np
import scipy

from .estimators import Kernel, estimate_cv_lambda, kernel_for
from .fem1d import Mesh1D
from .pc_basis import PcBasisSet, gauss_hermite
from .problem import ProblemInstance
from .random_field import GermSampler, fork, may_fork

# LAPACK's dptsv from scipy's f2py extension file, without `scipy.linalg` (0.2 s and 19 MiB
# of import, README); extension modules are cached, so `scipy.linalg` gets the same objects.
_spec = PathFinder.find_spec("scipy.linalg._flapack", [os.path.join(scipy.__path__[0], "linalg")])
_flapack = module_from_spec(_spec)
_spec.loader.exec_module(_flapack)
dptsv = _flapack.dptsv

HESSIAN_MODES = ("none", "linear-only", "staged", "full")
# Each cv_mode's order: the Taylor degree of kappa's mean-point surrogate, None for no CV.
CV_ORDERS = {"none": None, "order0": 0, "order1": 1}

# Relative diagonal shift of every Hessian block, as a share of its mean
# diagonal entry.
RIDGE = 1e-8

# Slots of the germ-table producer's ring, each one iteration's tables (0.15-0.25 MiB).
# `run` hands them back half a ring at a time, so the producer wakes once per four
# iterations: where the host gave both processes one core, a `linear-cv-monitored` solve
# cost 5% more than inline so, against 9% with 4 slots two at a time and 15% with 3 singly.
RING_DEPTH = 8


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
        if self.cv_mode not in CV_ORDERS:
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


class SgdDivergenceError(RuntimeError):
    """Raised when an update produces non-finite coefficients; carries the records before it."""

    def __init__(self, iteration: int, seed: int, trajectory: Trajectory):
        self.iteration = iteration
        self.seed = seed
        self.trajectory = trajectory
        super().__init__(
            f"non-finite update at iteration {iteration}; "
            f"germ streams derive from seed {seed}"
        )


def precondition_solve(
    blocks: np.ndarray, gradient: np.ndarray, ridge: float
) -> tuple[np.ndarray, int]:
    """Solve the block systems (B_j + ridge tr(B_j)/M I) s_j = g_j.

    `blocks` holds each tridiagonal B_j as lower bands, shape (N+1, 2, M).
    LAPACK's `dptsv`, loaded without `scipy.linalg` (see above), solves them
    stacked, uncoupled by zeros between blocks.  Non-finite or unfactorizable
    blocks fall back to identity scaling (s_j = g_j); their count is returned.
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


def _iteration_tables(kernel: Kernel, sampler, config: SgdConfig, n: int) -> tuple:
    """Iteration n's germs and tables that do not depend on c: the gradient batch and its
    `germ_tables`, then, unless hessian_mode is "none", the Hessian batch and its
    `hessian_tables`, in one flat tuple."""
    germs = sampler.sample_batch(n, config.batch_gradient, "gradient")
    item = (germs, *kernel.germ_tables(germs))
    if config.hessian_mode != "none":
        germs = sampler.sample_batch(n, config.batch_hessian, "hessian")
        item += (germs, *kernel.hessian_tables(germs))
    return item


def _fork_producer(build: Callable[[int], tuple], count: int, first: tuple):
    """Fork a producer of build(2), ..., build(count) into a ring laid out like `first`: its
    pid, slots and this side's pipe ends, or None, with all released, where the mmap, a pipe
    or the fork fails (EAGAIN, ENOMEM, EMFILE)."""
    import mmap

    starts = np.cumsum([0] + [0 if a is None else a.nbytes for a in first])
    fds = []
    try:
        ring = mmap.mmap(-1, RING_DEPTH * int(starts[-1]))  # anonymous, so shared with the child
        slots = [
            tuple(None if a is None else np.ndarray(a.shape, a.dtype, ring, k * starts[-1] + start)
                  for a, start in zip(first, starts))
            for k in range(RING_DEPTH)
        ]
        for _ in range(2):
            fds += os.pipe()
        ready_r, ready_w, free_r, free_w = fds
        os.write(free_w, bytes(RING_DEPTH))  # every slot starts free

        def produce():
            os.close(ready_r)
            os.close(free_w)
            with suppress(BrokenPipeError):  # the loop has ended
                for n in range(2, count + 1):
                    if not os.read(free_r, 1):
                        break
                    for view, array in zip(slots[(n - 2) % RING_DEPTH], build(n)):
                        if view is not None:
                            np.copyto(view, array)
                    os.write(ready_w, bytes(1))

        pid = fork(produce)  # no one reads its status: the parent kills and reaps it
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    os.close(ready_w)  # so that the producer's exit reads as EOF
    return pid, slots, (ready_r, free_r, free_w)


@contextmanager
def _built_ahead(build: Callable[[int], tuple], count: int):
    """build(1), ..., build(count), tuples of arrays or None: built ahead by a forked producer
    where one can run beside the loop (`may_fork`) and start, else each when it is asked for.

    Iteration n uses slot (n - 2) % RING_DEPTH; each pipe carries one token byte per slot in
    order, filled slots to the loop and free ones back half a ring at a time.  The producer
    exits on EOF or EPIPE from either pipe, and leaving the block kills and reaps it.
    """
    items = map(build, range(1, count + 1))
    head = list(itertools.islice(items, 1))  # built before any fork: it lays out the ring
    producer = _fork_producer(build, count, head[0]) if count > 1 and may_fork() else None
    if producer is None:
        yield itertools.chain(head, items)
        return
    pid, slots, (ready_r, free_r, free_w) = producer

    def filled():
        for n in range(2, count + 1):
            if not os.read(ready_r, 1):
                raise RuntimeError(f"the germ-table producer ended before iteration {n}")
            yield slots[(n - 2) % RING_DEPTH]
            if (n - 1) % (RING_DEPTH // 2) == 0:  # free_r stays open here: never EPIPE
                os.write(free_w, bytes(RING_DEPTH // 2))

    try:
        yield itertools.chain(head, filled())
    finally:
        for fd in (ready_r, free_r, free_w):
            os.close(fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _initial_coefficients(kernel: Kernel, config: SgdConfig) -> np.ndarray:
    if config.init == "zero":
        return np.zeros(kernel.dim)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0, 0x1A17))
    )
    return config.init_scale * rng.standard_normal(kernel.dim)


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

    Where this process has one thread and two usable cores, a child process
    forked for the call builds each iteration's germs and coefficient-free
    tables ahead of the loop; the results are the same bits either way.
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

    order = CV_ORDERS[config.cv_mode]
    cv_state = estimate_cv_lambda(kernel, c, order, config.cv_pilot_size, sampler)

    records: list[tuple] = []  # one row per record, in Trajectory's field order

    def record(n: int, eta: float, grad_norm: float, fallbacks: int):
        energy, partner = (kernel.expected_energy(c, rule) for rule in rules)
        records.append((n, eta, energy, abs(energy - partner), grad_norm, fallbacks))
        if on_record is not None:
            on_record(n, c)

    record(0, 0.0, np.nan, 0)
    fallbacks_since_record = 0

    def build_trajectory() -> Trajectory:
        return Trajectory(*(np.array(column) for column in zip(*records)))

    mode = config.hessian_mode
    build = functools.partial(_iteration_tables, kernel, sampler, config)
    with _built_ahead(build, config.n_iterations) as items:
        for n, item in enumerate(items, 1):
            eta = config.schedule.rate(n)
            grad = kernel.gradient_mean(c, item[0], cv_state, tables=item[1:4])

            if mode == "none":
                step = grad
            else:
                full = mode == "full" or (mode == "staged" and n > config.n_switch)
                blocks = kernel.averaged_hessian_blocks(c, item[4], full=full, tables=item[5:])
                step, fallbacks = precondition_solve(blocks, grad, RIDGE)
                fallbacks_since_record += fallbacks

            c = c - eta * step
            if not np.all(np.isfinite(c)):
                raise SgdDivergenceError(n, config.seed, build_trajectory())

            if n % config.record_stride == 0 or n == config.n_iterations:
                record(n, eta, float(np.linalg.norm(grad)), fallbacks_since_record)
                fallbacks_since_record = 0

    return build_trajectory(), c
