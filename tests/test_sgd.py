import gc
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dptsv

from pcsgd import (
    Kernel,
    LearningRateSchedule,
    SgdConfig,
    SgdDivergenceError,
    builtin_linear_homogeneous,
    builtin_linear_nonhomogeneous,
    builtin_semilinear_homogeneous_field,
    builtin_semilinear_nonhomogeneous_field,
    estimate_energy,
    generate_basis,
    kernel_for,
    precondition_solve,
    run,
)
from pcsgd.pc_basis import gauss_hermite
from pcsgd.sgd import CV_ORDERS, monitor_points


def small_config(**overrides):
    kwargs = dict(
        n_iterations=50,
        batch_gradient=16,
        batch_hessian=8,
        schedule=LearningRateSchedule(2.0, 2.0),
        hessian_mode="linear-only",
        seed=0,
        record_stride=5,
        monitor_samples=500,
    )
    kwargs.update(overrides)
    return SgdConfig(**kwargs)


class IterateLog:
    """An `on_record` that keeps each array it is handed and a copy taken at the call."""

    def __init__(self):
        self.iterations, self.handed, self.copies = [], [], []

    def __call__(self, n, c):
        self.iterations.append(n)
        self.handed.append(c)
        self.copies.append(c.copy())


def test_schedule_values():
    schedule = LearningRateSchedule(5.0, 2.0)
    assert schedule.rate(1) == pytest.approx(5.0 / 3.0)
    assert schedule.rate(98) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        LearningRateSchedule(0.0)
    with pytest.raises(ValueError):
        LearningRateSchedule(1.0, -1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: LearningRateSchedule(float("nan")),
        lambda: LearningRateSchedule(float("inf")),
        lambda: LearningRateSchedule(1.0, float("nan")),
        lambda: LearningRateSchedule(1.0, float("inf")),
        lambda: small_config(init="gaussian", init_scale=float("nan")),
        lambda: small_config(init="gaussian", init_scale=float("inf")),
    ],
    ids=["nan-numerator", "inf-numerator", "nan-offset", "inf-offset", "nan-scale", "inf-scale"],
)
def test_non_finite_sgd_settings_are_rejected(make):
    """`nan <= 0` is false, so each would otherwise surface as a divergence at iteration 1."""
    with pytest.raises(ValueError, match="finite"):
        make()


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(batch_gradient=0)
    with pytest.raises(ValueError):
        small_config(cv_mode="order2")
    with pytest.raises(ValueError):
        small_config(hessian_mode="mystery")
    with pytest.raises(ValueError):
        small_config(hessian_mode="staged", n_switch=100, n_iterations=50)
    with pytest.raises(ValueError):  # it would run the full Hessian from iteration 1
        small_config(hessian_mode="staged", n_switch=-3)
    with pytest.raises(ValueError):
        small_config(init="constant")
    with pytest.raises(ValueError):
        small_config(record_stride=0)
    with pytest.raises(ValueError):  # the smallest monitor rule has 3 points per axis
        small_config(monitor_samples=2)
    with pytest.raises(ValueError):  # so does the pilot's covariance
        small_config(cv_mode="order1", cv_pilot_size=1)
    with pytest.raises(ValueError, match="iteration count must be non-negative"):
        small_config(n_iterations=-1)
    with pytest.raises(ValueError):  # numpy's SeedSequence takes no negative entropy
        small_config(seed=-1)


def random_spd_bands(rng, n_blocks, m):
    """Lower bands of diagonally dominant, hence SPD, tridiagonals."""
    bands = np.zeros((n_blocks, 2, m))
    bands[:, 1, :-1] = rng.standard_normal((n_blocks, m - 1))
    bands[:, 0] = 2.5 + rng.random((n_blocks, m)) * 2.0
    return bands


def test_precondition_solve_spd_blocks():
    """The banded solve agrees with a dense Cholesky solve of each block."""
    rng = np.random.default_rng(0)
    for m in (1, 6):  # one interior node leaves no sub-diagonal
        bands = random_spd_bands(rng, 3, m)
        g = rng.standard_normal(3 * m)
        step, fallbacks = precondition_solve(bands, g, 0.0)
        assert fallbacks == 0
        for j in range(3):
            sub = bands[j, 1, :-1]
            dense = np.diag(bands[j, 0]) + np.diag(sub, -1) + np.diag(sub, 1)
            gj, sj = g[m * j : m * (j + 1)], step[m * j : m * (j + 1)]
            np.testing.assert_allclose(dense @ sj, gj, atol=1e-10)
            expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(dense), gj)
            np.testing.assert_allclose(sj, expected, rtol=1e-14, atol=1e-14)


def test_precondition_solve_fallback_on_bad_block():
    identity = np.array([[1.0, 1.0], [0.0, 0.0]])  # diagonal (1, 1), zero sub-diagonal
    blocks = np.stack([identity, -identity, np.full((2, 2), np.nan)])
    g = np.ones(6)
    step, fallbacks = precondition_solve(blocks, g, 0.0)
    assert fallbacks == 2
    np.testing.assert_allclose(step[:2], 1.0)  # solved
    np.testing.assert_allclose(step[2:], 1.0)  # identity fallbacks


def per_block_solve(blocks, gradient, ridge):
    """One dptsv call per block, each failed or non-finite block left as the identity."""
    n_blocks, _, m = blocks.shape
    step = gradient.reshape(n_blocks, m).copy()
    fallbacks = 0
    for j, (diagonal, sub) in enumerate(blocks):
        info = 1
        if np.all(np.isfinite(blocks[j])):
            shift = ridge * abs(diagonal.sum()) / m
            _, _, solution, info = dptsv(diagonal + shift, sub[:-1], step[j])
        if info == 0:
            step[j] = solution
        else:
            fallbacks += 1
    return step.reshape(-1), fallbacks


def test_stacked_solve_is_bit_identical_to_per_block_solves():
    """One stacked dptsv call, retried after each failed block, equals the block-by-block solves."""
    rng = np.random.default_rng(5)
    fallback_cases = 0
    for _ in range(300):
        n_blocks, m = rng.integers(1, 36), rng.integers(2, 60)
        bands = random_spd_bands(rng, n_blocks, m)
        bands *= 10.0 ** rng.uniform(-3, 3, (n_blocks, 1, 1))
        kind = rng.integers(0, 6, n_blocks)
        bands[kind == 0, 0] -= 3.0 * bands[:, 0].max()  # indefinite
        bands[kind == 1, 0, rng.integers(0, m)] = np.nan
        g = rng.standard_normal(n_blocks * m)
        step, fallbacks = precondition_solve(bands, g, 1e-8)
        expected, expected_fallbacks = per_block_solve(bands, g, 1e-8)
        np.testing.assert_array_equal(step, expected)
        assert fallbacks == expected_fallbacks
        fallback_cases += fallbacks > 0
    assert fallback_cases > 200


def test_run_is_deterministic():
    problem = builtin_linear_nonhomogeneous(0.1, 1, 10.0, 6, 1)
    config = small_config()
    traj_a, c_a = run(problem, problem.mesh, problem.basis, config)
    traj_b, c_b = run(problem, problem.mesh, problem.basis, config)
    np.testing.assert_array_equal(c_a, c_b)
    np.testing.assert_array_equal(traj_a.energy_mean, traj_b.energy_mean)
    np.testing.assert_array_equal(traj_a.gradient_norm, traj_b.gradient_norm)


def test_trajectory_recording():
    problem = builtin_linear_nonhomogeneous(0.1, 1, 10.0, 6, 1)
    config = small_config(n_iterations=23, record_stride=5)
    log = IterateLog()
    trajectory, c = run(problem, problem.mesh, problem.basis, config, log)
    np.testing.assert_array_equal(
        trajectory.iterations, [0, 5, 10, 15, 20, 23]
    )
    assert trajectory.rates[0] == 0.0
    assert log.iterations == [0, 5, 10, 15, 20, 23]
    np.testing.assert_array_equal(log.handed[-1], c)
    nodes = monitor_points(problem.basis, config.monitor_samples) ** problem.germ_dim
    assert nodes == 4**2  # p + 3 points on each of K = 2 axes


def test_on_record_gets_every_recorded_iterate_unmodified():
    """Called at each record in order, from the initial c to the returned one; never written."""
    problem = builtin_linear_nonhomogeneous(0.1, 1, 10.0, 6, 1)
    config = small_config(n_iterations=23, record_stride=5, init="gaussian")
    log = IterateLog()
    trajectory, c = run(problem, problem.mesh, problem.basis, config, log)
    assert log.iterations == trajectory.iterations.tolist()
    start = small_config(n_iterations=0, init="gaussian")
    _, initial = run(problem, problem.mesh, problem.basis, start)
    np.testing.assert_array_equal(log.handed[0], initial)
    np.testing.assert_array_equal(log.handed[-1], c)
    for handed, copy in zip(log.handed, log.copies, strict=True):
        np.testing.assert_array_equal(handed, copy)
    assert not np.array_equal(log.handed[0], log.handed[1])


def test_monitored_run_memory_does_not_grow_with_its_length():
    """Memory held after `run` returns, with its result alive, grows by per-record scalars only."""
    problem = builtin_linear_nonhomogeneous(0.1, 1, 10.0, 50, 3)  # dim 500, 4 KB per iterate

    def held_after_run(n_iterations):
        config = small_config(n_iterations=n_iterations, record_stride=1)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = run(problem, problem.mesh, problem.basis, config)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - start, result
        finally:
            tracemalloc.stop()

    held_after_run(20)  # warms the field's grid memo
    short, _ = held_after_run(20)
    long, (trajectory, _) = held_after_run(100)
    assert trajectory.iterations.size == 101
    assert long - short < 64 * 1024


@pytest.mark.parametrize(
    "problem, init",
    [
        (builtin_linear_nonhomogeneous(0.3, 1, 10.0, 7, 2), "zero"),
        (builtin_semilinear_homogeneous_field(12.0, 9, 2), "zero"),
        # u = 0 is a critical point of this one, so it starts elsewhere
        (builtin_semilinear_nonhomogeneous_field(0.3, 1, 12.0, 9, 2), "gaussian"),
    ],
    ids=["linear-lifting", "semilinear-source", "semilinear-trig"],
)
def test_monitor_records_the_gauss_hermite_rule(problem, init):
    """Each record is w @ energies on the 5^2-node rule, its SE the distance to the 3^2 rule.

    The monitor takes them from moment tables; the last iterate scaled by
    1e3 checks those tables far from the minimizer too.
    """
    config = small_config(n_iterations=4, record_stride=2, init=init, init_scale=0.5)
    log = IterateLog()
    trajectory, c = run(problem, problem.mesh, problem.basis, config, log)
    assert monitor_points(problem.basis, config.monitor_samples) ** problem.germ_dim == 25
    kernel = kernel_for(problem)
    rules = gauss_hermite(5, 2), gauss_hermite(3, 2)
    moments = [kernel.rule_moments(*rule) for rule in rules]
    assert log.iterations == trajectory.iterations.tolist()
    records = list(zip(trajectory.energy_mean, trajectory.energy_se, log.handed, strict=True))
    energy, partner = (kernel.expected_energy(1e3 * c, m) for m in moments)
    for monitored, se, iterate in records + [(energy, abs(energy - partner), 1e3 * c)]:
        q, q_partner = (w @ kernel.energies(iterate, nodes) for nodes, w in rules)
        np.testing.assert_allclose(monitored, q, rtol=1e-14, atol=0)
        np.testing.assert_allclose(se, abs(q - q_partner), rtol=1e-10, atol=1e-15)
    estimate = estimate_energy(problem, problem.mesh, problem.basis, c, 100_000, 3)
    assert abs(trajectory.energy_mean[-1] - estimate.mean) <= 4 * estimate.standard_error


@pytest.mark.parametrize(
    "germ_dim, degree, budget, nodes",
    [(4, 3, 10_000, 6**4), (4, 3, 2000, 6**4), (4, 3, 100, 3**4), (2, 3, 10_000, 6**2)],
)
def test_monitor_rule_fits_the_node_budget(germ_dim, degree, budget, nodes):
    """p + 3 points per axis, fewer when n^K exceeds monitor_samples."""
    assert monitor_points(generate_basis(germ_dim, degree), budget) ** germ_dim == nodes


def test_monitor_budget_below_the_smallest_rule_is_rejected():
    """K = 4 needs 3^4 = 81 nodes for a 3-point rule beside its 1-point partner."""
    problem = builtin_linear_nonhomogeneous(0.1, 2, 10.0, 6, 1)
    with pytest.raises(ValueError, match="3\\^4"):
        run(problem, problem.mesh, problem.basis, small_config(monitor_samples=80))
    config = small_config(n_iterations=2, monitor_samples=81)
    run(problem, problem.mesh, problem.basis, config)
    assert monitor_points(problem.basis, config.monitor_samples) ** problem.germ_dim == 81


def test_fallback_count_sums_fallbacks_between_records():
    """Each record counts every block fallback since the previous record."""
    problem = builtin_semilinear_homogeneous_field(12.0, 10, 1)
    totals = []
    for stride in (5, 1):
        config = small_config(
            n_iterations=40,
            schedule=LearningRateSchedule(10.0, 0.0),
            hessian_mode="full",
            init="gaussian",
            record_stride=stride,
            monitor_samples=100,
        )
        trajectory, _ = run(problem, problem.mesh, problem.basis, config)
        totals.append(int(trajectory.fallback_count.sum()))
    assert totals[1] > 0
    assert totals[0] == totals[1]


def test_converges_on_linear_problem():
    """Preconditioned SGD drives the quadratic benchmark energy to ~0."""
    problem = builtin_linear_homogeneous(0.1, 1, 10.0, 10, 2)
    config = small_config(
        n_iterations=200,
        schedule=LearningRateSchedule(5.0, 2.0),
        init="gaussian",
        record_stride=200,
    )
    trajectory, c = run(problem, problem.mesh, problem.basis, config)
    assert trajectory.energy_mean[-1] < 1e-4
    assert np.linalg.norm(c) < 1e-2


def test_zero_iterations_returns_initialization():
    problem = builtin_linear_homogeneous(0.1, 1, 10.0, 6, 1)
    config = small_config(n_iterations=0, init="gaussian")
    log = IterateLog()
    trajectory, c = run(problem, problem.mesh, problem.basis, config, log)
    np.testing.assert_array_equal(trajectory.iterations, [0])
    assert log.iterations == [0]
    np.testing.assert_array_equal(log.handed[0], c)
    assert c.any()  # gaussian init is not the zero vector


def test_gaussian_init_depends_only_on_seed():
    problem = builtin_linear_homogeneous(0.1, 1, 10.0, 6, 1)
    config = small_config(n_iterations=0, init="gaussian", seed=3)
    _, c_a = run(problem, problem.mesh, problem.basis, config)
    _, c_b = run(problem, problem.mesh, problem.basis, config)
    _, c_other = run(
        problem, problem.mesh, problem.basis, small_config(n_iterations=0, init="gaussian", seed=4)
    )
    np.testing.assert_array_equal(c_a, c_b)
    assert not np.array_equal(c_a, c_other)


def test_first_order_divergence_raises_with_partial_trajectory():
    """An aggressive unpreconditioned rate overflows and is reported."""
    problem = builtin_linear_homogeneous(0.1, 1, 10.0, 10, 2)
    config = small_config(
        n_iterations=2000,
        hessian_mode="none",
        schedule=LearningRateSchedule(1e6, 0.0),
        init="gaussian",
        record_stride=1,
    )
    log = IterateLog()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SgdDivergenceError) as info:
            run(problem, problem.mesh, problem.basis, config, log)
    err = info.value
    assert err.iteration >= 1
    assert err.trajectory.iterations[-1] < err.iteration + 1
    assert err.seed == config.seed and str(err) == (
        f"non-finite update at iteration {err.iteration}; germ streams derive from seed 0"
    )
    assert log.iterations == err.trajectory.iterations.tolist()  # one call per record


def test_staged_equals_linear_only_before_switch():
    problem = builtin_semilinear_nonhomogeneous_field(0.2, 1, 4.0, 5, 1)
    base = dict(
        n_iterations=10,
        batch_gradient=8,
        batch_hessian=4,
        schedule=LearningRateSchedule(1.0, 2.0),
        seed=5,
        init="gaussian",
        record_stride=1,
        monitor_samples=200,
    )
    staged = SgdConfig(hessian_mode="staged", n_switch=10, **base)
    linear = SgdConfig(hessian_mode="linear-only", **base)
    _, c_staged = run(problem, problem.mesh, problem.basis, staged)
    _, c_linear = run(problem, problem.mesh, problem.basis, linear)
    np.testing.assert_array_equal(c_staged, c_linear)


def test_staged_differs_from_linear_only_after_switch():
    problem = builtin_semilinear_nonhomogeneous_field(0.2, 1, 4.0, 5, 1)
    base = dict(
        n_iterations=20,
        batch_gradient=8,
        batch_hessian=4,
        schedule=LearningRateSchedule(1.0, 2.0),
        seed=5,
        init="gaussian",
        record_stride=1,
        monitor_samples=200,
    )
    staged = SgdConfig(hessian_mode="staged", n_switch=5, **base)
    linear = SgdConfig(hessian_mode="linear-only", **base)
    _, c_staged = run(problem, problem.mesh, problem.basis, staged)
    _, c_linear = run(problem, problem.mesh, problem.basis, linear)
    assert not np.array_equal(c_staged, c_linear)


@pytest.mark.parametrize(
    "mode, n_switch, expected",
    [
        ("none", 100, []),
        ("linear-only", 100, [False] * 8),
        ("full", 100, [True] * 8),
        ("staged", 3, [False] * 3 + [True] * 5),
        ("staged", 8, [False] * 8),
        ("staged", 0, [True] * 8),
    ],
)
def test_run_decides_the_hessian_stage_per_iteration(monkeypatch, mode, n_switch, expected):
    """`full` at each iteration: staged is linear-only for n <= n_switch and full after."""
    blocks, calls = Kernel.averaged_hessian_blocks, []

    def recorded(self, c, germs, *, full, tables=None):
        calls.append(full)
        return blocks(self, c, germs, full=full, tables=tables)

    monkeypatch.setattr(Kernel, "averaged_hessian_blocks", recorded)
    problem = builtin_semilinear_nonhomogeneous_field(0.2, 1, 4.0, 5, 1)
    config = small_config(n_iterations=8, hessian_mode=mode, n_switch=n_switch)
    run(problem, problem.mesh, problem.basis, config)
    assert calls == expected


@pytest.mark.parametrize("cv_mode", CV_ORDERS)
def test_run_decides_the_cv_order_once(monkeypatch, cv_mode):
    """The pilot and every iteration get the mode's order; with no CV, no known mean is taken."""
    parts, known_mean = Kernel.gradient_parts, Kernel.cv_known_mean
    part_orders, mean_orders = [], []

    def recorded_parts(self, c, germs, order=None, *, tables=None):
        part_orders.append(order)
        return parts(self, c, germs, order, tables=tables)

    def recorded_mean(self, c, order):
        mean_orders.append(order)
        return known_mean(self, c, order)

    monkeypatch.setattr(Kernel, "gradient_parts", recorded_parts)
    monkeypatch.setattr(Kernel, "cv_known_mean", recorded_mean)
    problem = builtin_linear_nonhomogeneous(0.2, 1, 10.0, 5, 1)
    config = small_config(n_iterations=8, cv_mode=cv_mode, cv_pilot_size=10)
    run(problem, problem.mesh, problem.basis, config)
    order = CV_ORDERS[cv_mode]
    if order is None:
        assert (part_orders, mean_orders) == ([None] * 8, [])
    else:  # the pilot's call, then one per iteration
        assert (part_orders, mean_orders) == ([order] * 9, [order] * 8)


def test_cv_run_matches_plain_when_lambda_zero():
    """Zero init on a zero-boundary problem: pilot lambda is zero, so the
    CV run must coincide with the plain run step for step."""
    problem = builtin_linear_homogeneous(0.1, 1, 10.0, 6, 1)
    plain = small_config(n_iterations=10)
    with_cv = small_config(n_iterations=10, cv_mode="order1", cv_pilot_size=100)
    _, c_plain = run(problem, problem.mesh, problem.basis, plain)
    _, c_cv = run(problem, problem.mesh, problem.basis, with_cv)
    np.testing.assert_array_equal(c_plain, c_cv)
