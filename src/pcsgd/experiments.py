"""Configuration-driven experiment runner.

Each experiment id maps to a benchmark study: gradient-estimator variance
(table1), learning-rate sweeps on the linear problem (table2), accuracy
versus chaos order (table3), and four figure-style studies emitting
iteration- or grid-indexed CSV for external plotting.  Everything is
reproducible bit-for-bit from (config, seed): every CSV starts with a
metadata comment block carrying the config hash, the seed and the package
version.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace

import numpy as np

from ._version import __version__
from .estimators import CV_MODES, estimate_cv_lambda, flat_index, kernel_for
from .evaluation import (
    empirical_cdf,
    estimate_energy,
    exact_energy_mc,
    pointwise_l2_error,
)
from .problem import (
    ProblemInstance,
    builtin_linear_homogeneous,
    builtin_linear_nonhomogeneous,
    builtin_semilinear_homogeneous_field,
    builtin_semilinear_nonhomogeneous_field,
)
from .random_field import GermSampler, over_chunks
from .sgd import (
    LearningRateSchedule,
    SgdConfig,
    SgdDivergenceError,
    Trajectory,
    monitor_points,
    run,
)

PROBLEMS = {
    "linear_homogeneous": builtin_linear_homogeneous,
    "linear_nonhomogeneous": builtin_linear_nonhomogeneous,
    "semilinear_homogeneous_field": builtin_semilinear_homogeneous_field,
    "semilinear_nonhomogeneous_field": builtin_semilinear_nonhomogeneous_field,
}

# An iterate counts as converged when the monitored energy is this close
# to the known minimum (the energies of diverged runs stay astronomically
# large, so the threshold is not delicate).
CONVERGENCE_GAP = 1e-1


class ExperimentFailure(RuntimeError):
    """An experiment-level assertion on the computed results failed."""


@dataclass
class ExperimentConfig:
    """Flat, fully-populated description of one experiment run.

    Serializes losslessly to an INI file with [experiment], [problem],
    [sgd] and [evaluation] sections; unknown sections or keys are
    rejected on load.
    """

    # [experiment]; each section starts at the key named in _FIRST_KEYS
    experiment: str = "solve"
    seed: int = 0
    out: str = "."
    # [problem]
    problem: str = "linear_homogeneous"
    beta: float = 0.1
    n_v: int = 2
    length: float = 10.0
    m: int = 50
    p: int = 3
    # [sgd]
    n_iterations: int = 500
    batch_gradient: int = 128
    batch_hessian: int = 64
    rate_numerator: float = 5.0
    rate_offset: float = 2.0
    cv_mode: str = "none"
    cv_pilot_size: int = 1000
    hessian_mode: str = "linear-only"
    n_switch: int = 100
    init: str = "zero"
    init_scale: float = 1.0
    record_stride: int = 1
    monitor_samples: int = 10_000
    # [evaluation]
    n_mc: int = 100_000
    points: float = 0.5

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment id {self.experiment!r}")
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.n_mc < 2:
            raise ValueError("n_mc must be >= 2")
        for key, kind in _FIELD_TYPES.items():
            if kind == "float" and not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")


# INI sections by their first key: a section holds the fields from there up to
# the next section's first key, so field order is INI key order, which fixes
# config_hash and every CSV header.
_FIRST_KEYS = {
    "experiment": "experiment",
    "problem": "problem",
    "sgd": "n_iterations",
    "evaluation": "n_mc",
}
_KEYS = [f.name for f in fields(ExperimentConfig)]
_BOUNDS = [_KEYS.index(key) for key in _FIRST_KEYS.values()] + [len(_KEYS)]
_SECTIONS = {
    section: tuple(_KEYS[start:stop])
    for section, start, stop in zip(_FIRST_KEYS, _BOUNDS, _BOUNDS[1:])
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def config_to_ini(config: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    for section, keys in _SECTIONS.items():
        parser[section] = {}
        for key in keys:
            value = getattr(config, key)
            parser[section][key] = repr(value) if isinstance(value, float) else str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind in ("int", int):
        return int(raw)
    if kind in ("float", float):
        return float(raw)
    return raw


def config_from_ini(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse an INI config, starting from `base`, else the INI experiment's defaults.

    Sections and keys not known to ExperimentConfig raise ValueError so a
    misspelled key can never be silently ignored.  A ";" after whitespace
    starts a comment.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ValueError(f"malformed config file: {err}") from err
    updates = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SECTIONS[section]:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")
            updates[key] = _parse_value(key, raw)
    base = base or default_config(updates.get("experiment", ExperimentConfig.experiment))
    return replace(base, **updates)


def apply_override(config: ExperimentConfig, spec: str) -> ExperimentConfig:
    """Apply one `key=value` (or `section.key=value`) override."""
    if "=" not in spec:
        raise ValueError(f"override {spec!r} is not of the form key=value")
    key, raw = spec.split("=", 1)
    key = key.strip()
    if "." in key:
        section, key = key.split(".", 1)
        if section not in _SECTIONS or key not in _SECTIONS[section]:
            raise ValueError(f"unknown override key {section}.{key}")
    elif key not in _FIELD_TYPES:
        raise ValueError(f"unknown override key {key!r}")
    return replace(config, **{key: _parse_value(key, raw.strip())})


def config_hash(config: ExperimentConfig) -> str:
    """Short digest of the config, ignoring where the output lands."""
    canonical = config_to_ini(replace(config, out="."))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def default_config(experiment: str) -> ExperimentConfig:
    """Per-experiment defaults matching the benchmark setups."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment id {experiment!r}")
    _, preset = EXPERIMENTS[experiment]
    return ExperimentConfig(experiment=experiment, **preset)


# -- problem / sgd assembly -------------------------------------------------


def make_problem(config: ExperimentConfig) -> ProblemInstance:
    """The run's problem; raises ValueError on an invalid [problem] value or point."""
    if abs(config.points) > config.length / 2:
        raise ValueError(f"points={config.points} lies outside [-length/2, length/2]")
    builtin = PROBLEMS[config.problem]
    # a spatially constant field has no amplitude beta or harmonic pairs n_v
    field = () if builtin is builtin_semilinear_homogeneous_field else (config.beta, config.n_v)
    return builtin(*field, config.length, config.m, config.p)


# Every SgdConfig field but the schedule has an ExperimentConfig key of its name.
_SGD_KEYS = tuple(f.name for f in fields(SgdConfig) if f.name != "schedule")


def make_sgd_config(config: ExperimentConfig) -> SgdConfig:
    """The run's SgdConfig; raises ValueError on an invalid [sgd] value."""
    return SgdConfig(
        schedule=LearningRateSchedule(config.rate_numerator, config.rate_offset),
        **{key: getattr(config, key) for key in _SGD_KEYS},
    )


def check_config(config: ExperimentConfig) -> None:
    """Raise ValueError on a problem, SGD or monitor setting that a solve of the run rejects."""
    solves = [config, _cdf_linear_config(config)] if config.experiment == "fig-cdf" else [config]
    for solve in solves:
        monitor_points(make_problem(solve).basis, make_sgd_config(solve).monitor_samples)


def _solve(
    problem: ProblemInstance, config: ExperimentConfig, on_record=None
) -> tuple[Trajectory, np.ndarray | None]:
    """One SGD run: its trajectory and final c, or None for c if it diverged.

    A diverged run's trajectory ends at the last record before the
    non-finite update.  `on_record(n, c)` is passed to `run`.  Overflow
    warnings are silenced: divergent trials overflow by design while their
    energies are being monitored.
    """
    sgd_config = make_sgd_config(config)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return run(problem, problem.mesh, problem.basis, sgd_config, on_record)
        except SgdDivergenceError as err:
            return err.trajectory, None


def _known_minimum(problem: ProblemInstance) -> float:
    if problem.exact_energy is None:
        raise ExperimentFailure(f"problem {problem.name!r} has no known minimum energy")
    return problem.exact_energy


# -- CSV plumbing -----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(
    name: str,
    header: list[str],
    rows: Iterable[tuple],
    config: ExperimentConfig,
    extra_meta: dict | None = None,
) -> str:
    """Write the CSV `name` under config.out, after the metadata comment block."""
    lines = [
        f"# config_hash={config_hash(config)}",
        f"# seed={config.seed}",
        f"# version={__version__}",
    ]
    for key, value in (extra_meta or {}).items():
        lines.append(f"# {key}={_fmt(value)}")
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path = os.path.join(config.out, name)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def save_coefficients(path: str, c: np.ndarray, n_interior: int) -> str:
    """Text dump, one `i j hexfloat` line per coefficient; exact round-trip."""
    n_basis = c.size // n_interior
    lines = []
    for j in range(n_basis):
        for i in range(1, n_interior + 1):
            lines.append(f"{i} {j} {float(c[flat_index(i, j, n_interior)]).hex()}")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def load_coefficients(path: str, n_interior: int) -> np.ndarray:
    """Inverse of `save_coefficients`; ValueError unless the dump fills the (i, j) grid once."""
    entries = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            i_str, j_str, hex_str = line.split()
            key = (int(i_str), int(j_str))
            if key in entries:
                raise ValueError(f"{path} repeats the entry (i, j) = {key}")
            entries[key] = float.fromhex(hex_str)
    n_basis = len(entries) // n_interior
    grid = {(i, j) for i in range(1, n_interior + 1) for j in range(n_basis)}
    if n_basis < 1 or entries.keys() != grid:
        raise ValueError(f"{path} is not a coefficient dump for n_interior={n_interior}")
    c = np.zeros(len(entries))
    for (i, j), value in entries.items():
        c[flat_index(i, j, n_interior)] = value
    return c


# -- experiments ------------------------------------------------------------

TABLE1_BETAS = (0.05, 0.1, 0.2, 0.4)


def run_table1(config: ExperimentConfig) -> list[str]:
    """Standard deviation of the first gradient component per CV mode."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0, 0xF1))
    )
    rows = []
    stds: dict[tuple[float, str], float] = {}
    for beta in TABLE1_BETAS:
        problem = make_problem(replace(config, beta=beta))
        kernel = kernel_for(problem)
        c = rng.standard_normal(kernel.dim)
        sampler = GermSampler(config.seed, problem.germ_dim)
        germs = sampler.sample_batch(0, config.n_mc, "gradient")
        for mode in CV_MODES:
            state = estimate_cv_lambda(kernel, c, mode, config.cv_pilot_size, sampler)
            known = None if mode == "none" else kernel.cv_known_mean(c, mode)[0]

            def first_component(chunk):
                # c_1_0 multiplies phi_1 psi_0 = phi_1: its samples are the rows' first column
                rows = kernel.gradient_parts(c, chunk, order=mode)
                if known is None:
                    return rows.total[:, 0]
                return rows.total[:, 0] + state.lam[0] * (rows.surrogate[:, 0] - known)

            std = over_chunks(first_component, germs).std(ddof=1)
            stds[(beta, mode)] = std
            rows.append(
                (beta, mode, "c_1_0", std, std / np.sqrt(2.0 * (config.n_mc - 1)))
            )
    path = write_csv("table1.csv", ["beta", "cv_mode", "component", "std", "se"], rows, config)
    for beta in TABLE1_BETAS:
        if not stds[(beta, "order1")] < stds[(beta, "order0")] < stds[(beta, "none")]:
            raise ExperimentFailure(f"CV variance ordering violated at beta={beta}")
    if stds[(0.05, "order1")] / stds[(0.05, "none")] >= 0.05:
        raise ExperimentFailure("order1/none std ratio at beta=0.05 not below 0.05")
    for mode in CV_MODES:
        if stds[(0.4, mode)] <= stds[(0.05, mode)]:
            raise ExperimentFailure(f"std not increasing in beta for mode {mode}")
    return [path]


TABLE2_RATES = (1.0, 2.0, 5.0, 10.0, 100.0)


def run_table2(config: ExperimentConfig) -> list[str]:
    """Final energies of the linear benchmark across learning rates."""
    problem = make_problem(config)
    minimum = _known_minimum(problem)
    rows = []
    finals: dict[tuple[float, str], float] = {}
    flags: dict[tuple[float, str], bool] = {}
    for numerator in TABLE2_RATES:
        for cv in ("order1", "none"):
            trajectory, c = _solve(
                problem,
                replace(
                    config,
                    rate_numerator=numerator,
                    cv_mode=cv,
                    record_stride=max(config.n_iterations, 1),
                ),
            )
            final = np.nan if c is None else trajectory.energy_mean[-1]
            converged = abs(final - minimum) <= CONVERGENCE_GAP
            finals[(numerator, cv)] = final
            flags[(numerator, cv)] = converged
            rows.append((numerator, cv, final, converged))
    path = write_csv(
        "table2.csv", ["rate_numerator", "cv_mode", "final_j", "converged"], rows, config
    )
    for numerator in TABLE2_RATES:
        plain = finals[(numerator, "none")]
        cv = finals[(numerator, "order1")]
        if np.isfinite(plain) and not cv <= plain:  # a diverged CV run (nan) fails
            raise ExperimentFailure(f"CV run worse than plain at rate {numerator}/(n+2)")
    if flags[(100.0, "none")]:
        raise ExperimentFailure("rate 100/(n+2) without CV unexpectedly converged")
    cv_finals = [finals[(numerator, "order1")] for numerator in TABLE2_RATES]
    if any(not b < a for a, b in zip(cv_finals, cv_finals[1:])):
        raise ExperimentFailure("CV final energies not decreasing in the rate")
    if not cv_finals[2] <= 1e-10:
        raise ExperimentFailure("CV run at 5/(n+2) missed the 1e-10 target")
    return [path]


def run_table3(config: ExperimentConfig) -> list[str]:
    """Accuracy of the semilinear benchmark versus the chaos order."""
    rows = []
    for p in range(config.p + 1):
        problem = make_problem(replace(config, p=p))
        _, c = _solve(problem, config)
        if c is None:
            raise ExperimentFailure(f"the p={p} run diverged")
        energy = estimate_energy(
            problem, problem.mesh, problem.basis, c, config.n_mc, config.seed + 101
        )
        error = pointwise_l2_error(
            problem, problem.mesh, problem.basis, c, config.points, config.n_mc,
            config.seed + 202,
        )
        rows.append((p, energy.mean, energy.standard_error, error.mean))
    oracle_problem = make_problem(config)
    oracle = exact_energy_mc(oracle_problem, config.n_mc, config.seed + 303)
    path = write_csv(
        "table3.csv",
        ["p", "final_j", "se", "l2_error"],
        rows,
        config,
        extra_meta={
            "exact_energy_mc": oracle.mean,
            "exact_energy_se": oracle.standard_error,
        },
    )
    energies = [row[1] for row in rows]
    errors = [row[3] for row in rows]
    # each check is written so that a nan fails it
    if any(not b < a for a, b in zip(energies, energies[1:])):
        raise ExperimentFailure("final energies not decreasing in p")
    for p in range(min(2, len(errors) - 1)):  # the drops 0 -> 1 and 1 -> 2 that ran
        if not errors[p] >= 5.0 * errors[p + 1]:
            raise ExperimentFailure(f"l2 error drop below 5x from p={p} to {p + 1}")
    if not errors[-1] <= 5e-4:
        raise ExperimentFailure("l2 error at the highest order exceeds 5e-4")
    if not abs(energies[-1] - oracle.mean) <= 0.01 * abs(oracle.mean):
        raise ExperimentFailure(
            f"final energy {energies[-1]:.4f} more than 1% from oracle {oracle.mean:.4f}"
        )
    return [path]


def run_fig_convergence(config: ExperimentConfig) -> list[str]:
    """Iteration-indexed energy traces for external log-log plotting.

    Two CSVs: the linear benchmark under first-order / second-order /
    second-order-with-CV variants, and the semilinear benchmark trace
    including one tracked coefficient.  A diverged run contributes its
    records up to the divergence.
    """
    problem = make_problem(config)
    rows = []
    variants = (
        ("first-order", dict(hessian_mode="none")),
        ("second-order", dict()),
        ("second-order-cv", dict(cv_mode="order1")),
    )
    for label, overrides in variants:
        trajectory, _ = _solve(problem, replace(config, **overrides))
        rows.extend(
            (label, n, j, se)
            for n, j, se in zip(
                trajectory.iterations, trajectory.energy_mean, trajectory.energy_se
            )
        )
    linear_path = write_csv(
        "fig-convergence-linear.csv", ["variant", "n", "energy", "se"], rows, config
    )

    semi_config = default_config("table3")
    semi_config = replace(
        semi_config, seed=config.seed, out=config.out, record_stride=10
    )
    tracked = flat_index(1, 2, semi_config.m)
    tracked_values = []
    trajectory, _ = _solve(
        make_problem(semi_config), semi_config, lambda n, c: tracked_values.append(c[tracked])
    )
    semi_rows = list(zip(trajectory.iterations, trajectory.energy_mean, tracked_values))
    semi_path = write_csv(
        "fig-convergence-semilinear.csv", ["n", "energy", "c_1_2"], semi_rows, semi_config
    )
    return [linear_path, semi_path]


def _cdf_pair(problem, c, points, grids, n_samples, seed) -> list[np.ndarray]:
    """CDF probabilities of the expansion and of the exact solution, on the same germs."""
    return [
        empirical_cdf(
            problem, problem.mesh, problem.basis, c, points, grids, n_samples, seed,
            use_exact_solution=exact,
        ).probabilities
        for exact in (False, True)
    ]


def _cdf_linear_config(config: ExperimentConfig) -> ExperimentConfig:
    """fig-cdf's second solve: the linear problem with boundary data."""
    return replace(
        config,
        problem="linear_nonhomogeneous",
        beta=0.1,
        length=10.0,
        m=50,
        n_iterations=500,
        batch_gradient=128,
        batch_hessian=64,
        hessian_mode="linear-only",
        init="zero",
        points=2.0,  # its marginal CDF's point, inside this shorter domain
    )


def run_fig_cdf(config: ExperimentConfig) -> list[str]:
    """Distribution accuracy of converged solutions.

    Emits the marginal CDF comparison at x=0.5 for the semilinear
    benchmark and the joint CDF at (x1, x2) = (-4, 2) for the linear
    nonhomogeneous-boundary benchmark.
    """
    # semilinear, x = 0.5
    problem = make_problem(config)
    _, c = _solve(problem, config)
    if c is None:
        raise ExperimentFailure("the semilinear run diverged")
    grid = np.linspace(0.0, 4.0, 801)
    approx, exact = _cdf_pair(
        problem, c, [config.points], [grid], config.n_mc, config.seed + 11
    )
    ks_semi = np.max(np.abs(approx - exact))
    semi_path = write_csv(
        "fig-cdf-semilinear.csv",
        ["threshold", "cdf_exact", "cdf_approx", "error"],
        zip(grid, exact, approx, exact - approx),
        config,
        extra_meta={"x": config.points, "ks_distance": ks_semi},
    )

    # linear with boundary data, joint CDF at (-4, 2)
    lin_config = _cdf_linear_config(config)
    lin_problem = make_problem(lin_config)
    _, lin_c = _solve(lin_problem, lin_config)
    if lin_c is None:
        raise ExperimentFailure("the linear run diverged")
    joint_grid = np.linspace(0.0, 1.0, 101)
    joint_approx, joint_exact = _cdf_pair(
        lin_problem, lin_c, [-4.0, 2.0], [joint_grid, joint_grid], config.n_mc,
        config.seed + 12,
    )
    lin_approx, lin_exact = _cdf_pair(
        lin_problem, lin_c, [2.0], [np.linspace(0.0, 1.0, 801)], config.n_mc,
        config.seed + 13,
    )
    ks_lin = np.max(np.abs(lin_approx - lin_exact))
    joint_error = joint_exact - joint_approx
    joint_rows = [
        (y1, y2, joint_exact[a, b], joint_approx[a, b], joint_error[a, b])
        for a, y1 in enumerate(joint_grid)
        for b, y2 in enumerate(joint_grid)
    ]
    lin_path = write_csv(
        "fig-cdf-linear.csv",
        ["y1", "y2", "cdf_exact", "cdf_approx", "error"],
        joint_rows,
        lin_config,
        extra_meta={"x1": -4.0, "x2": 2.0, "ks_distance_x2": ks_lin},
    )
    if np.any(np.diff(joint_approx, axis=0) < 0) or np.any(np.diff(joint_approx, axis=1) < 0):
        raise ExperimentFailure("joint CDF not monotone along both axes")
    if ks_semi > 0.07 or ks_lin > 0.07:
        raise ExperimentFailure(
            f"Kolmogorov distance above 0.07 (semilinear {ks_semi:.4f}, linear {ks_lin:.4f})"
        )
    return [semi_path, lin_path]


def run_fig_staged_hessian(config: ExperimentConfig) -> list[str]:
    """Staged versus full-from-start Hessian on the semilinear benchmark."""
    problem = make_problem(config)
    minimum = _known_minimum(problem)
    rows = []
    gaps = {}
    for mode in ("staged", "full"):
        trajectory, c = _solve(problem, replace(config, hessian_mode=mode))
        if c is None:  # a diverged arm is left out of the CSV
            gaps[mode] = np.inf
            continue
        gaps[mode] = abs(trajectory.energy_mean[-1] - minimum)
        rows.extend(
            (mode, n, j, abs(j - minimum))
            for n, j in zip(trajectory.iterations, trajectory.energy_mean)
        )
    path = write_csv(
        "fig-staged-hessian.csv",
        ["variant", "n", "energy", "gap"],
        rows,
        config,
        extra_meta={
            "staged_converged": gaps["staged"] <= 1e-3,
            "full_converged": gaps["full"] <= 1e-3,
        },
    )
    # a nan gap fails both checks; a diverged full arm's infinite gap passes
    if not gaps["staged"] <= 1e-3:
        raise ExperimentFailure(
            f"staged run missed the 1e-3 energy gap (gap {gaps['staged']:.2e})"
        )
    if not gaps["full"] > 1e-3:
        raise ExperimentFailure("full-from-start run unexpectedly converged")
    return [path]


BATCH_STUDY_SIZES = ((128, 64), (128, 128), (256, 64))


def run_fig_batch_study(config: ExperimentConfig) -> list[str]:
    """Mini-batch size sensitivity at two field amplitudes.

    The hard assertion covers the beta=0.4 finding: gradient batch 128
    fails even with a large Hessian batch, while gradient batch 256 with
    a small Hessian batch converges.
    """
    rows = []
    flags = {}
    for beta in (0.3, 0.4):
        beta_config = replace(config, beta=beta)
        problem = make_problem(beta_config)
        minimum = _known_minimum(problem)
        for batch_g, batch_h in BATCH_STUDY_SIZES:
            trajectory, c = _solve(
                problem,
                replace(beta_config, batch_gradient=batch_g, batch_hessian=batch_h),
            )
            gap = np.inf if c is None else abs(trajectory.energy_mean[-1] - minimum)
            converged = gap <= CONVERGENCE_GAP
            flags[(beta, batch_g, batch_h)] = converged
            rows.append((beta, batch_g, batch_h, gap, converged))
    path = write_csv(
        "fig-batch-study.csv",
        ["beta", "batch_gradient", "batch_hessian", "final_gap", "converged"],
        rows,
        config,
    )
    if flags[(0.4, 128, 128)]:
        raise ExperimentFailure("beta=0.4 (128,128) unexpectedly converged")
    if not flags[(0.4, 256, 64)]:
        raise ExperimentFailure("beta=0.4 (256,64) failed to converge")
    return [path]


def run_solve(config: ExperimentConfig) -> list[str]:
    """Generic solve: trajectory CSV plus a reloadable coefficient dump.

    A diverged run writes its trajectory up to the divergence, no dump,
    and fails.
    """
    problem = make_problem(config)
    trajectory, c = _solve(problem, config)
    csv_path = write_csv(
        "solve-trajectory.csv",
        ["n", "eta", "energy", "se", "grad_norm", "fallbacks"],
        zip(
            trajectory.iterations,
            trajectory.rates,
            trajectory.energy_mean,
            trajectory.energy_se,
            trajectory.gradient_norm,
            trajectory.fallback_count,
        ),
        config,
    )
    if c is None:
        raise ExperimentFailure(
            f"non-finite update after iteration {trajectory.iterations[-1]} "
            f"(seed {config.seed}); the trajectory up to there is in {csv_path}"
        )
    coeff_path = save_coefficients(
        os.path.join(config.out, "solve-coefficients.txt"), c, config.m
    )
    return [csv_path, coeff_path]


# Shared presets: table2 and the linear half of fig-convergence solve the same
# problem, fig-cdf runs the table3 solve, and the two staged-Hessian studies
# share their semilinear setup.
_LINEAR = dict(problem="linear_homogeneous", m=50, p=3, init="gaussian")
_TABLE3 = dict(
    problem="semilinear_homogeneous_field",
    length=12.0,
    m=100,
    p=3,
    n_iterations=1000,
    batch_gradient=100,
    batch_hessian=100,
    rate_numerator=10.0,
    rate_offset=9.0,  # eta_1 = 1: larger first steps overshoot into other basins
    hessian_mode="full",
    record_stride=100,
    seed=21,
)
_STAGED_STUDY = dict(
    problem="semilinear_nonhomogeneous_field",
    length=12.0,
    m=50,
    p=3,
    hessian_mode="staged",
    init="gaussian",
    init_scale=0.1,
    monitor_samples=2000,
)

# Experiment id -> (runner, preset over the ExperimentConfig defaults).
EXPERIMENTS = {
    "table1": (run_table1, dict(problem="linear_homogeneous", m=10, p=3)),
    "table2": (run_table2, dict(_LINEAR, seed=1)),
    "table3": (run_table3, _TABLE3),
    "fig-convergence": (run_fig_convergence, dict(_LINEAR, seed=21)),
    "fig-cdf": (run_fig_cdf, dict(_TABLE3, record_stride=200)),
    "fig-staged-hessian": (
        run_fig_staged_hessian,
        dict(_STAGED_STUDY, beta=0.3, batch_gradient=256, batch_hessian=64, record_stride=10),
    ),
    "fig-batch-study": (
        run_fig_batch_study,
        dict(_STAGED_STUDY, beta=0.4, record_stride=50),
    ),
    "solve": (run_solve, dict(problem="linear_nonhomogeneous")),
}
EXPERIMENT_IDS = tuple(EXPERIMENTS)


def run_experiment(config: ExperimentConfig) -> list[str]:
    runner, _ = EXPERIMENTS[config.experiment]
    return runner(config)
