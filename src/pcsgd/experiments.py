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
from .estimators import coefficient_matrix, estimate_cv_lambda, flat_index, kernel_for
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
    CV_ORDERS,
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
    problem: str = "linear_nonhomogeneous"
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
        # each number is stored as its declared type, so 1 and 1.0 write one INI text
        for key, kind in _FIELD_TYPES.items():
            value = getattr(self, key)
            if kind == "float" and not np.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
            if kind == "int" and not float(value).is_integer():
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if kind != "str":
                setattr(self, key, int(value) if kind == "int" else float(value))
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment id {self.experiment!r}")
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.n_mc < 2:
            raise ValueError("n_mc must be >= 2")


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


def _fmt(value) -> str:
    """The one text form of a config, metadata or CSV value; a numpy float prints as a float."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def config_to_ini(config: ExperimentConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        parser[section] = {key: _fmt(getattr(config, key)) for key in keys}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _parse_value(key: str, raw: str):
    """A number as written; __post_init__ makes it its key's type, so m=50.0 gives 50."""
    if _FIELD_TYPES[key] == "str":
        return raw
    for number in (int, float):  # int first, so a large integer keeps every digit
        try:
            return number(raw)
        except ValueError:
            pass
    raise ValueError(f"{key} must be a number, got {raw!r}")


def config_from_ini(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse an INI config, starting from `base`, else the INI experiment's defaults.

    Sections and keys not known to ExperimentConfig raise ValueError so a
    misspelled key can never be silently ignored.  A ";" after whitespace
    starts a comment; a "%" is literal.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ValueError(f"malformed config file: {err}") from err
    if parser.defaults():  # configparser would copy these keys into every section
        raise ValueError(f"unknown config section [{parser.default_section}]")
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
    return ExperimentConfig(experiment=experiment, **EXPERIMENTS[experiment][1])


def study_solves(config: ExperimentConfig) -> list[ExperimentConfig]:
    """The SGD solves that the config's study runs, in run order, each as a full config."""
    return EXPERIMENTS[config.experiment][2](config)


# -- problem / sgd assembly -------------------------------------------------


def make_problem(config: ExperimentConfig) -> ProblemInstance:
    """The run's problem; raises ValueError on an invalid [problem] value or point."""
    builtin = PROBLEMS[config.problem]
    # a spatially constant field has no amplitude beta or harmonic pairs n_v
    field = () if builtin is builtin_semilinear_homogeneous_field else (config.beta, config.n_v)
    problem = builtin(*field, config.length, config.m, config.p)  # validates length first
    if abs(config.points) > config.length / 2:
        raise ValueError(f"points={config.points} lies outside [-length/2, length/2]")
    return problem


# Every SgdConfig field but the schedule has an ExperimentConfig key of its name.
_SGD_KEYS = tuple(f.name for f in fields(SgdConfig) if f.name != "schedule")


def make_sgd_config(config: ExperimentConfig) -> SgdConfig:
    """The run's SgdConfig; raises ValueError on an invalid [sgd] value."""
    return SgdConfig(
        schedule=LearningRateSchedule(config.rate_numerator, config.rate_offset),
        **{key: getattr(config, key) for key in _SGD_KEYS},
    )


def check_config(config: ExperimentConfig) -> None:
    """Raise ValueError on a problem, SGD or monitor setting that the run or a solve rejects."""
    for solve in [config, *study_solves(config)]:
        monitor_points(make_problem(solve).basis, make_sgd_config(solve).monitor_samples)
    if config.experiment in _GAP_STUDIES:
        _known_minimum(make_problem(config))


def _solve(
    config: ExperimentConfig, on_record=None
) -> tuple[ProblemInstance, Trajectory, np.ndarray | None]:
    """One SGD run on the config's problem: that problem, the trajectory and the final c.

    c is None if the run diverged; its trajectory then ends at the last
    record before the non-finite update.  `on_record(n, c)` is passed to
    `run`.  Overflow warnings are silenced: divergent trials overflow by
    design while their energies are being monitored.
    """
    problem, sgd_config = make_problem(config), make_sgd_config(config)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return problem, *run(problem, problem.mesh, problem.basis, sgd_config, on_record)
        except SgdDivergenceError as err:
            return problem, err.trajectory, None


def _known_minimum(problem: ProblemInstance) -> float:
    if problem.exact_energy is None:
        raise ValueError(f"problem {problem.name!r} has no known minimum energy")
    return problem.exact_energy


# -- CSV plumbing -----------------------------------------------------------


def _write_lines(path: str, lines: list[str]) -> str:
    """Write `lines` to `path` with "\\n" endings, creating its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


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
    return _write_lines(os.path.join(config.out, name), lines)


def save_coefficients(path: str, c: np.ndarray, n_interior: int) -> str:
    """Text dump, one `i j hexfloat` line per coefficient; exact round-trip."""
    if n_interior < 1 or c.size % n_interior:
        raise ValueError(f"{c.size} coefficients are not blocks of n_interior={n_interior}")
    grid = coefficient_matrix(c, n_interior)  # row j holds phi_1..phi_M's psi_j coefficients
    if not np.isfinite(grid).all():  # the loader would reject the dump
        j, i = np.argwhere(~np.isfinite(grid))[0]  # the first in the dump's order
        raise ValueError(f"non-finite coefficient (i, j) = {(int(i) + 1, int(j))}")
    lines = [f"{i + 1} {j} {float(value).hex()}" for (j, i), value in np.ndenumerate(grid)]
    return _write_lines(path, lines)


def load_coefficients(path: str, n_interior: int) -> np.ndarray:
    """Inverse of `save_coefficients`; ValueError unless the dump fills the (i, j) grid once."""
    entries = {}
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                i_str, j_str, hex_str = line.split()
                key, value = (int(i_str), int(j_str)), float.fromhex(hex_str)
            except (ValueError, OverflowError) as err:  # fromhex overflows on 0x1p+2000
                raise ValueError(f"{path} line {number} is not `i j hexfloat`: {err}") from None
            if key in entries:
                raise ValueError(f"{path} repeats the entry (i, j) = {key}")
            entries[key] = value
            if not np.isfinite(entries[key]):  # float.fromhex reads nan and inf
                raise ValueError(f"{path} has a non-finite entry (i, j) = {key}")
    n_basis = len(entries) // n_interior if n_interior > 0 else 0
    grid = {(i, j) for i in range(1, n_interior + 1) for j in range(n_basis)}
    if n_basis < 1 or entries.keys() != grid:
        raise ValueError(f"{path} is not a coefficient dump for n_interior={n_interior}")
    c = np.zeros(len(entries))
    for (i, j), value in entries.items():
        c[flat_index(i, j, n_interior)] = value
    return c


# -- experiments ------------------------------------------------------------

_RELATIONS = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def _require(*checks: tuple[str, float, str, float]) -> None:
    """Raise one ExperimentFailure naming each failed check; a nan value or bound fails."""
    failed = [
        f"{message} (got {_fmt(value)}, need {relation} {_fmt(bound)})"
        for message, value, relation, bound in checks
        if not _RELATIONS[relation](value, bound)
    ]
    if failed:
        raise ExperimentFailure("; ".join(failed))


TABLE1_BETAS = (0.05, 0.1, 0.2, 0.4)


def run_table1(config: ExperimentConfig) -> list[str]:
    """Standard deviation of the first gradient component per CV mode."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0, 0xF1))
    )
    rows = []
    for beta in TABLE1_BETAS:
        problem = make_problem(replace(config, beta=beta))
        kernel = kernel_for(problem)
        c = rng.standard_normal(kernel.dim)
        sampler = GermSampler(config.seed, problem.germ_dim)
        germs = sampler.sample_batch(0, config.n_mc, "gradient")
        for mode, order in CV_ORDERS.items():
            state = estimate_cv_lambda(kernel, c, order, config.cv_pilot_size, sampler)
            known = None if state is None else kernel.cv_known_mean(c, order)[0]

            def first_component(chunk):
                # c_1_0 multiplies phi_1 psi_0 = phi_1: its samples are the rows' first column
                rows = kernel.gradient_parts(c, chunk, order)
                if known is None:
                    return rows.total[:, 0]
                return rows.total[:, 0] + state.lam[0] * (rows.surrogate[:, 0] - known)

            std = over_chunks(first_component, germs).std(ddof=1)
            rows.append(
                (beta, mode, "c_1_0", std, std / np.sqrt(2.0 * (config.n_mc - 1)))
            )
    path = write_csv("table1.csv", ["beta", "cv_mode", "component", "std", "se"], rows, config)
    stds = {row[:2]: row[3] for row in rows}
    _require(
        *[(f"CV variance ordering violated at beta={beta}", stds[beta, a], "<", stds[beta, b])
          for beta in TABLE1_BETAS for a, b in (("order1", "order0"), ("order0", "none"))],
        ("order1/none std ratio at beta=0.05 not below 0.05",
         stds[0.05, "order1"] / stds[0.05, "none"], "<", 0.05),
        *[(f"std not increasing in beta for mode {mode}", stds[0.4, mode], ">", stds[0.05, mode])
          for mode in CV_ORDERS],
    )
    return [path]


TABLE2_RATES = (1.0, 2.0, 5.0, 10.0, 100.0)


def run_table2(config: ExperimentConfig) -> list[str]:
    """Final energies of the linear benchmark across learning rates."""
    minimum = _known_minimum(make_problem(config))
    rows = []
    for solve in study_solves(config):
        _, trajectory, c = _solve(solve)
        final = np.nan if c is None else trajectory.energy_mean[-1]
        converged = abs(final - minimum) <= CONVERGENCE_GAP
        rows.append((solve.rate_numerator, solve.cv_mode, final, converged))
    path = write_csv(
        "table2.csv", ["rate_numerator", "cv_mode", "final_j", "converged"], rows, config
    )
    # rows alternate CV and plain arms; a diverged plain arm's nan final counts as infinite
    cv_finals = [row[2] for row in rows[0::2]]
    plain_finals = [np.nan_to_num(row[2], nan=np.inf) for row in rows[1::2]]
    _require(
        *[(f"CV run worse than plain at rate {rate}/(n+2)", cv, "<=", plain)
          for rate, cv, plain in zip(TABLE2_RATES, cv_finals, plain_finals)],
        ("rate 100/(n+2) without CV unexpectedly converged",
         abs(plain_finals[-1] - minimum), ">", CONVERGENCE_GAP),
        *[("CV final energies not decreasing in the rate", b, "<", a)
          for a, b in zip(cv_finals, cv_finals[1:])],
        ("CV run at 5/(n+2) missed the 1e-10 target", cv_finals[2], "<=", 1e-10),
    )
    return [path]


def run_table3(config: ExperimentConfig) -> list[str]:
    """Accuracy of the semilinear benchmark versus the chaos order."""
    rows = []
    for solve in study_solves(config):
        problem, _, c = _solve(solve)
        if c is None:
            raise ExperimentFailure(f"the p={solve.p} run diverged")
        energy = estimate_energy(
            problem, problem.mesh, problem.basis, c, config.n_mc, config.seed + 101
        )
        error = pointwise_l2_error(
            problem, problem.mesh, problem.basis, c, config.points, config.n_mc,
            config.seed + 202,
        )
        rows.append((solve.p, energy.mean, energy.standard_error, error.mean))
    oracle = exact_energy_mc(problem, config.n_mc, config.seed + 303)  # on the p = config.p problem
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
    _require(
        *[("final energies not decreasing in p", b, "<", a)
          for a, b in zip(energies, energies[1:])],
        *[(f"l2 error drop below 5x from p={p} to {p + 1}", errors[p], ">=", 5.0 * errors[p + 1])
          for p in range(min(2, len(errors) - 1))],  # the drops 0 -> 1 and 1 -> 2 that ran
        ("l2 error at the highest order exceeds 5e-4", errors[-1], "<=", 5e-4),
        (f"final energy {energies[-1]:.4f} more than 1% from oracle {oracle.mean:.4f}",
         abs(energies[-1] - oracle.mean), "<=", 0.01 * abs(oracle.mean)),
    )
    return [path]


def run_fig_convergence(config: ExperimentConfig) -> list[str]:
    """Iteration-indexed energy traces for external log-log plotting.

    Two CSVs: the linear benchmark under first-order / second-order /
    second-order-with-CV variants, and the semilinear benchmark trace
    including one tracked coefficient.  A diverged run contributes its
    records up to the divergence.
    """
    *linear, semi_config = study_solves(config)
    rows = []
    for label, solve in zip(("first-order", "second-order", "second-order-cv"), linear):
        _, trajectory, _ = _solve(solve)
        rows.extend(
            (label, n, j, se)
            for n, j, se in zip(
                trajectory.iterations, trajectory.energy_mean, trajectory.energy_se
            )
        )
    linear_path = write_csv(
        "fig-convergence-linear.csv", ["variant", "n", "energy", "se"], rows, config
    )

    tracked = flat_index(1, 2, semi_config.m)
    tracked_values = []
    _, trajectory, _ = _solve(semi_config, lambda n, c: tracked_values.append(c[tracked]))
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


def run_fig_cdf(config: ExperimentConfig) -> list[str]:
    """Distribution accuracy of converged solutions.

    Emits the marginal CDF comparison at x=0.5 for the semilinear
    benchmark and the joint CDF at (x1, x2) = (-4, 2) for the linear
    nonhomogeneous-boundary benchmark.
    """
    semi_config, lin_config = study_solves(config)
    # semilinear, x = 0.5
    problem, _, c = _solve(semi_config)
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
    lin_problem, _, lin_c = _solve(lin_config)
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
    _require(
        ("joint CDF not monotone along both axes",
         np.min([np.diff(joint_approx, axis=axis).min() for axis in (0, 1)]), ">=", 0.0),
        ("Kolmogorov distance above 0.07 (semilinear)", ks_semi, "<=", 0.07),
        ("Kolmogorov distance above 0.07 (linear)", ks_lin, "<=", 0.07),
    )
    return [semi_path, lin_path]


_GAP_STUDIES = ("table2", "fig-staged-hessian", "fig-batch-study")  # gaps to exact_energy


def run_fig_staged_hessian(config: ExperimentConfig) -> list[str]:
    """Staged versus full-from-start Hessian on the semilinear benchmark."""
    minimum = _known_minimum(make_problem(config))
    rows = []
    gaps = {}
    for solve in study_solves(config):
        mode = solve.hessian_mode
        _, trajectory, c = _solve(solve)
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
    _require(
        ("staged run missed the 1e-3 energy gap", gaps["staged"], "<=", 1e-3),
        ("full-from-start run unexpectedly converged", gaps["full"], ">", 1e-3),
    )
    return [path]


def run_fig_batch_study(config: ExperimentConfig) -> list[str]:
    """Mini-batch size sensitivity at two field amplitudes.

    The hard assertion covers the beta=0.4 finding: gradient batch 128
    fails even with a large Hessian batch, while gradient batch 256 with
    a small Hessian batch converges.
    """
    rows = []
    for solve in study_solves(config):
        problem, trajectory, c = _solve(solve)
        gap = np.inf if c is None else abs(trajectory.energy_mean[-1] - _known_minimum(problem))
        rows.append((solve.beta, solve.batch_gradient, solve.batch_hessian, gap,
                     gap <= CONVERGENCE_GAP))
    path = write_csv(
        "fig-batch-study.csv",
        ["beta", "batch_gradient", "batch_hessian", "final_gap", "converged"],
        rows,
        config,
    )
    gaps = {row[:3]: row[3] for row in rows}
    _require(
        ("beta=0.4 (128,128) unexpectedly converged", gaps[0.4, 128, 128], ">", CONVERGENCE_GAP),
        ("beta=0.4 (256,64) failed to converge", gaps[0.4, 256, 64], "<=", CONVERGENCE_GAP),
    )
    return [path]


def run_solve(config: ExperimentConfig) -> list[str]:
    """Generic solve: trajectory CSV plus a reloadable coefficient dump.

    A diverged run writes its trajectory up to the divergence, no dump,
    and fails.
    """
    _, trajectory, c = _solve(config)
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

# fig-cdf's linear solve: the `solve` defaults' problem with boundary data and their SGD setup
_CDF_LINEAR = {
    key: getattr(ExperimentConfig, key)
    for key in ("problem", "beta", "length", "m", "n_iterations", "batch_gradient",
                "batch_hessian", "hessian_mode", "init")
}

# Experiment id -> (runner, preset over the ExperimentConfig defaults, the SGD solves of a run
# config c in run order).  `check_config` validates c and each solve; the runners read their
# solves from here alone.
EXPERIMENTS = {
    "table1": (run_table1, dict(problem="linear_homogeneous", m=10, p=3), lambda c: []),
    "table2": (
        run_table2,
        dict(_LINEAR, seed=1),
        lambda c: [
            replace(c, rate_numerator=rate, cv_mode=cv, record_stride=max(c.n_iterations, 1))
            for rate in TABLE2_RATES for cv in ("order1", "none")
        ],
    ),
    "table3": (run_table3, _TABLE3, lambda c: [replace(c, p=p) for p in range(c.p + 1)]),
    "fig-convergence": (
        run_fig_convergence,
        dict(_LINEAR, seed=21),
        lambda c: [  # three linear variants, then the semilinear trace
            replace(c, hessian_mode="none"), c, replace(c, cv_mode="order1"),
            replace(default_config("table3"), seed=c.seed, out=c.out, record_stride=10),
        ],
    ),
    "fig-cdf": (
        run_fig_cdf,
        dict(_TABLE3, record_stride=200),
        lambda c: [c, replace(c, **_CDF_LINEAR, points=2.0)],  # inside the shorter domain
    ),
    "fig-staged-hessian": (
        run_fig_staged_hessian,
        dict(_STAGED_STUDY, beta=0.3, batch_gradient=256, batch_hessian=64, record_stride=10),
        lambda c: [replace(c, hessian_mode=mode) for mode in ("staged", "full")],
    ),
    "fig-batch-study": (
        run_fig_batch_study,
        dict(_STAGED_STUDY, beta=0.4, record_stride=50),
        lambda c: [
            replace(c, beta=beta, batch_gradient=batch_g, batch_hessian=batch_h)
            for beta in (0.3, 0.4) for batch_g, batch_h in ((128, 64), (128, 128), (256, 64))
        ],
    ),
    "solve": (run_solve, {}, lambda c: [c]),
}
EXPERIMENT_IDS = tuple(EXPERIMENTS)


def run_experiment(config: ExperimentConfig) -> list[str]:
    """Run the config's experiment, after `check_config`; returns the paths it wrote."""
    check_config(config)
    return EXPERIMENTS[config.experiment][0](config)
