import dataclasses
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsgd import EnergyEstimate, Trajectory, experiments
from pcsgd.cli import build_parser, main, resolve_config
from pcsgd.experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    ExperimentFailure,
    apply_override,
    config_from_ini,
    config_hash,
    config_to_ini,
    default_config,
    load_coefficients,
    make_problem,
    run_experiment,
    save_coefficients,
    study_solves,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# config_hash heads every CSV, so these pin the INI text of each preset,
# its key order included.
PRESET_HASHES = {
    "table1": "ca1b2a035f9e",
    "table2": "88c387ced1ae",
    "table3": "0aeb6540ce50",
    "fig-convergence": "55e36859ad4e",
    "fig-cdf": "42b533db62cb",
    "fig-staged-hessian": "f35dd6e817a7",
    "fig-batch-study": "3b364006983d",
    "solve": "39864a36c3e4",
}


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_config_round_trips_through_ini(experiment):
    config = default_config(experiment)
    assert config_from_ini(config_to_ini(config)) == config


def test_config_from_ini_starts_from_the_experiment_defaults():
    assert config_from_ini("[experiment]\nexperiment = solve\n") == default_config("solve")
    assert config_from_ini("[experiment]\nexperiment = table3\n") == default_config("table3")


def test_a_percent_sign_in_an_ini_value_is_literal():
    """configparser's interpolation is off: "%" neither fails to parse nor substitutes."""
    for out in ("run%1", "%(experiment)s", "100%"):
        config = config_from_ini(f"[experiment]\nexperiment = solve\nout = {out}\n")
        assert config.out == out
        assert config_from_ini(config_to_ini(config)) == config


def test_cli_writes_into_an_out_with_a_percent_sign(tmp_path):
    out = tmp_path / "run%1"
    config_path = tmp_path / "run.ini"
    config_path.write_text(
        f"[experiment]\nexperiment = solve\nout = {out}\n"
        "[problem]\nm = 6\np = 1\nn_v = 1\n"
        "[sgd]\nn_iterations = 2\nbatch_gradient = 8\nbatch_hessian = 4\n"
        "monitor_samples = 100\n"
    )
    assert main(["solve", "--config", str(config_path)]) == 0
    assert (out / "solve-coefficients.txt").exists()


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\nseed = 5\nm = 7\n", "[DEFAULT]\nm = 7\n[problem]\np = 1\n"],
    ids=["alone", "beside-a-section"],
)
def test_a_default_section_is_rejected(text, tmp_path, capsys):
    """configparser copies [DEFAULT] keys into every section, or drops them if there is none."""
    with pytest.raises(ValueError, match=re.escape("unknown config section [DEFAULT]")):
        config_from_ini(text)
    config_path = tmp_path / "run.ini"
    config_path.write_text(text)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config section [DEFAULT]") and err.count("\n") == 1
    assert not out.exists()


def test_a_number_is_stored_as_its_declared_type():
    """An int for a float setting and an integral float for an int setting hash and reload alike."""
    config = default_config("solve")
    as_int = dataclasses.replace(config, beta=1)
    assert type(as_int.beta) is float
    assert config_hash(as_int) == config_hash(dataclasses.replace(config, beta=1.0))
    assert config_hash(config_from_ini(config_to_ini(as_int))) == config_hash(as_int)
    as_float = dataclasses.replace(config, m=50.0, seed=np.int64(3))
    assert (type(as_float.m), type(as_float.seed)) == (int, int)
    assert config_from_ini(config_to_ini(as_float)) == as_float


@pytest.mark.parametrize("key, value", [("m", 50.5), ("seed", np.nan), ("n_iterations", np.inf)])
def test_a_non_integral_int_setting_is_rejected(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        dataclasses.replace(default_config("solve"), **{key: value})


def _m_argv(via, value, tmp_path):
    """`pcsgd solve` setting m to the text `value`, by --override or by --config."""
    if via == "override":
        return ["solve", "--override", f"m={value}", "--out", str(tmp_path / "out")]
    (tmp_path / "run.ini").write_text(f"[problem]\nm = {value}\n")
    return ["solve", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("via", ["override", "config"])
def test_an_integral_float_text_sets_an_int_setting(via, tmp_path):
    config = resolve_config(build_parser().parse_args(_m_argv(via, "50.0", tmp_path)))
    assert (type(config.m), config.m) == (int, 50)


@pytest.mark.parametrize(
    "value, message",
    [("50.5", "m must be an integer, got 50.5"), ("abc", "m must be a number, got 'abc'")],
)
@pytest.mark.parametrize("via", ["override", "config"])
def test_an_int_setting_that_is_not_an_integer_is_refused_by_name(
    via, value, message, tmp_path, capsys
):
    assert main(_m_argv(via, value, tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_ini_inline_comments_are_ignored():
    """The README's config block annotates values with ` ; ...` comments."""
    config = config_from_ini("[sgd]\nrate_offset = 3.0   ; numerator / (offset + n)\n")
    assert config.rate_offset == 3.0


def test_readme_config_block_loads_as_the_solve_defaults():
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    assert config_from_ini(block) == default_config("solve")


def test_unknown_section_and_key_rejected():
    with pytest.raises(ValueError, match="unknown config section"):
        config_from_ini("[mystery]\nx = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_ini("[sgd]\nlearning_rate = 5\n")


def test_overrides():
    config = default_config("solve")
    assert apply_override(config, "n_iterations=7").n_iterations == 7
    assert apply_override(config, "problem.beta=0.25").beta == 0.25
    assert apply_override(config, "cv_mode=order1").cv_mode == "order1"
    with pytest.raises(ValueError):
        apply_override(config, "no_equals_sign")
    with pytest.raises(ValueError):
        apply_override(config, "mystery=1")
    with pytest.raises(ValueError):
        apply_override(config, "sgd.beta=0.3")  # beta lives in [problem]
    assert apply_override(config, "points=0.25").points == 0.25
    with pytest.raises(ValueError):
        apply_override(config, "points=0.5,1.0")  # one point, not a list


def test_config_hash_pinned_per_experiment():
    assert {e: config_hash(default_config(e)) for e in EXPERIMENT_IDS} == PRESET_HASHES


def test_the_solve_defaults_are_the_class_defaults():
    """The `solve` preset is empty, and fig-cdf's linear solve reads the same defaults."""
    assert ExperimentConfig() == default_config("solve")
    _, linear = study_solves(default_config("fig-cdf"))
    assert config_hash(linear) == "a218a527ef7a"  # heads fig-cdf-linear.csv


def test_a_numpy_float_config_value_is_written_as_a_float():
    """np.float64 subclasses float, but its repr is not a float literal."""
    config = default_config("solve")
    numpy_valued = dataclasses.replace(config, beta=np.float64(0.1))
    assert "beta = 0.1\n" in config_to_ini(numpy_valued)
    assert config_hash(numpy_valued) == config_hash(config)
    assert config_from_ini(config_to_ini(numpy_valued)) == config


def test_config_hash_sensitivity():
    config = default_config("solve")
    assert config_hash(config) == config_hash(default_config("solve"))
    changed = apply_override(config, "seed=99")
    assert config_hash(changed) != config_hash(config)


def test_invalid_experiment_and_problem_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="table9")
    with pytest.raises(ValueError):
        ExperimentConfig(problem="heat_equation")
    with pytest.raises(ValueError):
        default_config("table9")


def test_make_problem_dispatch():
    for name in (
        "linear_homogeneous",
        "linear_nonhomogeneous",
        "semilinear_homogeneous_field",
        "semilinear_nonhomogeneous_field",
    ):
        config = dataclasses.replace(
            default_config("solve"), problem=name, length=12.0, m=6, p=1
        )
        problem = make_problem(config)
        assert problem.name == name
        assert problem.mesh.n_interior == 6


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=6,
        max_size=6,
    )
)
@settings(max_examples=30, deadline=None)
def test_coefficient_dump_round_trip(values):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/c.txt"
        c = np.array(values)
        save_coefficients(path, c, 3)
        np.testing.assert_array_equal(load_coefficients(path, 3), c)


def test_load_coefficients_rejects_a_dump_of_another_mesh(tmp_path):
    path = str(tmp_path / "c.txt")
    save_coefficients(path, np.arange(3.0), 3)
    with pytest.raises(ValueError):
        load_coefficients(path, 4)


def test_load_coefficients_rejects_a_dump_with_a_missing_line(tmp_path):
    path = tmp_path / "c.txt"
    save_coefficients(str(path), np.arange(6.0), 3)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + lines[3:]))
    with pytest.raises(ValueError):
        load_coefficients(str(path), 3)


def test_load_coefficients_rejects_a_repeated_entry(tmp_path):
    """A second line for (i, j) = (1, 0) must not overwrite the first."""
    path = tmp_path / "c.txt"
    save_coefficients(str(path), np.arange(6.0), 3)
    with open(path, "a") as fh:
        fh.write(f"1 0 {(99.0).hex()}\n")
    with pytest.raises(ValueError, match="repeats"):
        load_coefficients(str(path), 3)


@pytest.mark.parametrize(
    "first, entry", [("nan", "(1, 0)"), ("0x0p0", "(1, 1)")], ids=["nan", "inf"]
)
def test_load_coefficients_rejects_a_non_finite_entry(first, entry, tmp_path):
    """float.fromhex reads nan and inf; a dump holding one is not a coefficient vector."""
    path = tmp_path / "c.txt"
    path.write_text(f"1 0 {first}\n2 0 0x1p0\n1 1 inf\n2 1 -0x1p-1\n")
    with pytest.raises(ValueError, match=re.escape(f"non-finite entry (i, j) = {entry}")):
        load_coefficients(str(path), 2)


@pytest.mark.parametrize(
    "line, error",
    [("1 0 0x1p+2000", "too large"), ("1 0", "not enough values")],
    ids=["overflow", "short"],
)
def test_load_coefficients_names_the_file_and_line_of_a_malformed_entry(line, error, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(f"2 0 0x1p0\n\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 3 .*{error}"):
        load_coefficients(str(path), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_save_coefficients_rejects_a_non_finite_coefficient(bad, tmp_path):
    """The writer refuses what the loader would reject, and names the first such (i, j)."""
    path = tmp_path / "c.txt"
    with pytest.raises(ValueError, match=re.escape("non-finite coefficient (i, j) = (2, 0)")):
        save_coefficients(str(path), np.array([1.0, bad, np.nan, 2.0]), 2)
    assert not path.exists()


def test_save_coefficients_rejects_a_partial_block(tmp_path):
    """11 coefficients do not fill blocks of 5: the 11th would be dropped from the dump."""
    path = tmp_path / "c.txt"
    with pytest.raises(ValueError, match="n_interior=5"):
        save_coefficients(str(path), np.arange(11.0), 5)
    assert not path.exists()


@pytest.mark.parametrize("n_interior", [0, -1])
def test_coefficient_dump_rejects_a_mesh_without_interior_nodes(n_interior, tmp_path):
    path = str(tmp_path / "c.txt")
    with pytest.raises(ValueError):
        save_coefficients(path, np.arange(6.0), n_interior)
    save_coefficients(path, np.arange(6.0), 3)
    with pytest.raises(ValueError):
        load_coefficients(path, n_interior)


def test_load_coefficients_skips_blank_lines(tmp_path):
    path = tmp_path / "c.txt"
    c = np.arange(6.0) - 2.5
    save_coefficients(str(path), c, 3)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + ["\n", "  \n"] + lines[3:] + ["\n"]))
    np.testing.assert_array_equal(load_coefficients(str(path), 3), c)


def test_load_coefficients_rejects_an_empty_dump(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("")
    with pytest.raises(ValueError):
        load_coefficients(str(path), 3)


def _tiny_solve_config(out):
    config = default_config("solve")
    return dataclasses.replace(
        config,
        out=str(out),
        m=6,
        p=1,
        n_v=1,
        n_iterations=5,
        batch_gradient=8,
        batch_hessian=4,
        monitor_samples=200,
        record_stride=1,
    )


def test_solve_writes_trajectory_and_coefficients(tmp_path):
    config = _tiny_solve_config(tmp_path)
    paths = run_experiment(config)
    assert len(paths) == 2
    text = open(paths[0]).read()
    assert text.startswith("# config_hash=")
    assert "n,eta,energy,se,grad_norm,fallbacks" in text
    # zero init: dump of the zero-iteration run equals the initialization
    zero_run = dataclasses.replace(config, n_iterations=0, out=str(tmp_path / "z"))
    zero_paths = run_experiment(zero_run)
    c = load_coefficients(zero_paths[1], config.m)
    assert not c.any()


def test_default_solve_moves_the_coefficients(tmp_path):
    """The `solve` preset has boundary data (0, 1), so its gradient is not zero."""
    config = _tiny_solve_config(tmp_path)
    paths = run_experiment(config)
    assert load_coefficients(paths[1], config.m).any()


def test_experiment_rerun_is_bit_identical(tmp_path):
    config_a = _tiny_solve_config(tmp_path / "a")
    config_b = dataclasses.replace(config_a, out=str(tmp_path / "b"))
    paths_a = run_experiment(config_a)
    paths_b = run_experiment(config_b)
    for pa, pb in zip(paths_a, paths_b):
        assert open(pa, "rb").read() == open(pb, "rb").read()


def test_dump_reload_reproduces_energy(tmp_path):
    from pcsgd import estimate_energy

    config = _tiny_solve_config(tmp_path)
    paths = run_experiment(config)
    problem = make_problem(config)
    c = load_coefficients(paths[1], config.m)
    a = estimate_energy(problem, problem.mesh, problem.basis, c, 500, 0)
    b = estimate_energy(problem, problem.mesh, problem.basis, c.copy(), 500, 0)
    assert a.mean == b.mean


def test_cli_solve_end_to_end(tmp_path, capsys):
    code = main(
        [
            "solve",
            "--out",
            str(tmp_path),
            "--override",
            "m=6",
            "--override",
            "p=1",
            "--override",
            "n_v=1",
            "--override",
            "n_iterations=3",
            "--override",
            "batch_gradient=8",
            "--override",
            "batch_hessian=4",
            "--override",
            "monitor_samples=100",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert (tmp_path / "solve-trajectory.csv").exists()
    assert "# seed=5" in open(out[0]).read()


def test_cli_config_file(tmp_path, capsys):
    config_path = tmp_path / "run.ini"
    config_path.write_text(
        "[experiment]\nexperiment = solve\nseed = 9\n"
        "[problem]\nm = 6\np = 1\nn_v = 1\n"
        "[sgd]\nn_iterations = 2\nbatch_gradient = 8\nbatch_hessian = 4\n"
        "monitor_samples = 100\n"
    )
    code = main(
        ["solve", "--config", str(config_path), "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "solve-coefficients.txt").exists()


def test_cli_rejects_bad_override(capsys):
    assert main(["solve", "--override", "mystery=1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--override", "cv_mode=bogus"],
        ["experiment", "table3", "--override", "init=bogus"],
        ["solve", "--override", "m=0"],
        ["solve", "--override", "monitor_samples=0", "--override", "n_iterations=2"],
        ["solve", "--override", "cv_mode=order1", "--override", "cv_pilot_size=1"],
        ["experiment", "table3", "--override", "n_mc=1"],
        ["experiment", "table3", "--override", "points=7.0"],
        ["solve", "--seed", "-1"],
        ["experiment", "table1", "--seed", "-1"],
        ["solve", "--override", "n_switch=-3"],
        ["solve", "--override", "experiment=table2"],
        ["experiment", "table3", "--override", "experiment=table1"],
        ["solve", "--override", "beta=nan"],
        ["solve", "--override", "rate_numerator=nan"],
        ["solve", "--override", "rate_offset=nan"],
        ["solve", "--override", "length=inf"],
        ["solve", "--override", "init_scale=nan"],
        ["solve", "--override", "points=nan"],
        ["experiment", "table3", "--override", "points=nan"],
        ["solve", "--override", "p=1000"],
        [
            "experiment", "fig-staged-hessian",
            "--override", "hessian_mode=full", "--override", "n_iterations=20",
        ],
    ],
)
def test_cli_rejects_invalid_config_value(argv, tmp_path, capsys):
    """Each is rejected before any solve runs, so nothing lands in --out."""
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ("length=-5", "length must be finite and positive"),
        ("length=0", "length must be finite and positive"),
        ("points=6", "points=6.0 lies outside [-length/2, length/2]"),
    ],
)
def test_cli_names_the_invalid_length_before_the_point(override, message, tmp_path, capsys):
    """A bad length is reported as such, not as every point lying outside the domain."""
    assert main(["solve", "--override", override, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_sgd_values_are_checked_after_all_overrides():
    """Only the final config must be valid: n_switch=100 > n_iterations=4 in between."""
    overrides = ["hessian_mode=staged", "n_iterations=4", "n_switch=2"]
    configs = [
        resolve_config(
            build_parser().parse_args(
                ["solve"] + [arg for o in order for arg in ("--override", o)]
            )
        )
        for order in (overrides, overrides[::-1])
    ]
    assert configs[0] == configs[1]


@pytest.mark.parametrize("experiment", ["table2", "fig-staged-hessian", "fig-batch-study"])
def test_gap_studies_need_a_known_minimum(experiment, tmp_path, capsys):
    """They measure the gap to problem.exact_energy, which linear_nonhomogeneous lacks.

    That is a config error: the CLI exits 2 before anything is solved.
    """
    config = dataclasses.replace(
        default_config(experiment), problem="linear_nonhomogeneous", out=str(tmp_path)
    )
    with pytest.raises(ValueError, match="no known minimum"):
        run_experiment(config)
    assert not any(tmp_path.iterdir())
    argv = ["experiment", experiment, "--override", "problem=linear_nonhomogeneous"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: problem 'linear_nonhomogeneous' has no")
    assert not any(tmp_path.iterdir())


def test_run_experiment_checks_its_config_first(tmp_path):
    """A config that `check_config` rejects fails before the run and writes nothing."""
    config = dataclasses.replace(default_config("table3"), p=-1, out=str(tmp_path))
    with pytest.raises(ValueError, match="degree_bound must be >= 0"):
        run_experiment(config)
    assert not any(tmp_path.iterdir())


def test_table2_fails_when_its_cv_runs_diverge(monkeypatch, tmp_path):
    """A diverged CV arm has a nan final energy, which the CV checks must reject."""

    def cv_arms_diverge(problem, config):
        if config.cv_mode == "order1":
            return one_record(1e300), None
        return one_record(1.0), np.zeros(problem.mesh.n_interior)

    monkeypatch.setattr(experiments, "_solve", on_its_problem(cv_arms_diverge))
    config = dataclasses.replace(default_config("table2"), out=str(tmp_path))
    with pytest.raises(ExperimentFailure, match="CV"):
        run_experiment(config)


def fake_table3_estimates(monkeypatch, nan_energy: bool, nan_error: bool):
    """Passing table3 estimates (oracle -45), with a nan where asked, and no solves."""
    energies = [-40.0, -44.0, -44.9, -45.0]
    errors = [1e-1, 1e-2, 1e-3, 1e-4]

    def estimate(values, nan):
        def fake(problem, mesh, basis, *args):
            value = np.nan if nan else values[basis.degree_bound]
            return EnergyEstimate(mean=value, standard_error=0.01)

        return fake

    monkeypatch.setattr(
        experiments,
        "_solve",
        on_its_problem(lambda problem, config: (None, np.zeros(problem.mesh.n_interior))),
    )
    monkeypatch.setattr(experiments, "estimate_energy", estimate(energies, nan_energy))
    monkeypatch.setattr(experiments, "pointwise_l2_error", estimate(errors, nan_error))
    monkeypatch.setattr(
        experiments,
        "exact_energy_mc",
        lambda *args: EnergyEstimate(mean=-45.0, standard_error=0.01),
    )


@pytest.mark.parametrize(
    "nan_energy, nan_error", [(False, False), (True, False), (False, True), (True, True)]
)
def test_table3_checks_fail_on_nan(nan_energy, nan_error, monkeypatch, tmp_path):
    """nan energies or errors fail table3's checks; the same finite values pass."""
    fake_table3_estimates(monkeypatch, nan_energy, nan_error)
    config = dataclasses.replace(default_config("table3"), out=str(tmp_path))
    if nan_energy or nan_error:
        with pytest.raises(ExperimentFailure):
            run_experiment(config)
    else:
        run_experiment(config)


def test_table3_fails_when_a_run_diverges(monkeypatch, tmp_path):
    """A diverged p=2 run fails table3 before its CSV is written."""
    fake_table3_estimates(monkeypatch, nan_energy=False, nan_error=False)

    def solve(problem, config):
        if problem.basis.degree_bound == 2:
            return one_record(1e300), None
        return one_record(-45.0), np.zeros(problem.mesh.n_interior)

    monkeypatch.setattr(experiments, "_solve", on_its_problem(solve))
    config = dataclasses.replace(default_config("table3"), out=str(tmp_path))
    with pytest.raises(ExperimentFailure, match="^the p=2 run diverged$"):
        run_experiment(config)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("diverged", ["semilinear", "linear"])
def test_fig_cdf_fails_when_a_run_diverges(diverged, monkeypatch, tmp_path):
    """A diverged solve fails fig-cdf; the semilinear CSV exists only if its solve finished."""

    def solve(problem, config):
        if problem.name.startswith(diverged):
            return one_record(1e300), None
        return one_record(0.0), np.zeros(problem.basis.size * problem.mesh.n_interior)

    monkeypatch.setattr(experiments, "_solve", on_its_problem(solve))
    config = dataclasses.replace(default_config("fig-cdf"), n_mc=200, out=str(tmp_path))
    with pytest.raises(ExperimentFailure, match=f"^the {diverged} run diverged$"):
        run_experiment(config)
    assert (tmp_path / "fig-cdf-semilinear.csv").exists() == (diverged == "linear")
    assert not (tmp_path / "fig-cdf-linear.csv").exists()


@pytest.mark.parametrize("p", [0, 1])
def test_table3_below_order_2_checks_only_the_error_drops_that_ran(p, tmp_path, capsys):
    """At p=1 only the 0 -> 1 drop is checked and at p=0 none; a failed check is a FAIL line."""
    argv = ["experiment", "table3", "--out", str(tmp_path)]
    for override in (f"p={p}", "n_iterations=5", "n_mc=200"):
        argv += ["--override", override]
    code = main(argv)
    assert code in (0, 1)
    if code == 1:
        assert capsys.readouterr().err.startswith("FAIL: ")


def test_table2_without_iterations_fails_its_cv_ordering(tmp_path, capsys):
    """With no iterations every arm ends at its start, so the CV finals are all equal."""
    argv = ["experiment", "table2", "--override", "n_iterations=0", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL: CV final energies not decreasing")
    # the one FAIL line goes on past the first failed check
    assert "CV run at 5/(n+2) missed the 1e-10 target" in err.splitlines()[0]


@pytest.mark.parametrize("nan_arm", ["staged", "full"])
def test_fig_staged_hessian_checks_fail_on_nan(nan_arm, monkeypatch, tmp_path):
    """A nan final gap fails the staged arm's check and the full arm's alike."""
    config = dataclasses.replace(default_config("fig-staged-hessian"), out=str(tmp_path))
    minimum = make_problem(config).exact_energy
    passing = {"staged": minimum + 1e-4, "full": minimum + 1.0}

    def solve(problem, config):
        mode = config.hessian_mode
        final = np.nan if mode == nan_arm else passing[mode]
        trajectory = Trajectory(*(np.array([value]) for value in (500, 0.01, final, 0.0, 0.0, 0)))
        return trajectory, np.zeros(problem.mesh.n_interior)

    monkeypatch.setattr(experiments, "_solve", on_its_problem(solve))
    with pytest.raises(ExperimentFailure, match=nan_arm):
        run_experiment(config)


PASSING_PAIRS = {"<": (0.0, 1.0), "<=": (1.0, 1.0), ">": (1.0, 0.0), ">=": (1.0, 1.0)}


@pytest.mark.parametrize("relation", list(PASSING_PAIRS))
def test_require_fails_a_nan_value_or_bound(relation):
    value, bound = PASSING_PAIRS[relation]
    experiments._require(("holds", value, relation, bound))
    for nan_value, nan_bound in ((np.nan, bound), (value, np.nan)):
        with pytest.raises(ExperimentFailure, match=r"^fails \(got"):
            experiments._require(("fails", nan_value, relation, nan_bound))


def test_require_passes_an_infinite_gap_that_must_stay_above_its_bound():
    experiments._require(("diverged arm unexpectedly converged", np.inf, ">", 1e-3))


def test_require_names_every_failed_check_in_order():
    with pytest.raises(ExperimentFailure) as info:
        experiments._require(
            ("first", np.float64(0.5), "<", 0.25),
            ("holds", np.float64(0.1), "<", 0.25),
            ("second", np.float64(np.nan), ">=", np.float64(1e-10)),
            ("third", 3, ">", np.float64(7.5)),
        )
    message = str(info.value)
    assert message == (
        "first (got 0.5, need < 0.25); second (got nan, need >= 1e-10); "
        "third (got 3, need > 7.5)"
    )
    assert "np.float64(" not in message


def one_record(final: float) -> Trajectory:
    """A trajectory whose only record has the energy `final`."""
    values = (500, 0.01, final, 0.0, 0.0, 0)
    return Trajectory(*(np.array([value]) for value in values))


def on_its_problem(solve):
    """A fake `_solve` from `solve(problem, config) -> (trajectory, c)`, on the config's problem."""

    def fake(config, on_record=None):
        problem = make_problem(config)
        return (problem, *solve(problem, config))

    return fake


def test_table2_passes_with_its_non_converging_arm_diverged(monkeypatch, tmp_path):
    """The plain 100/(n+2) arm must not converge; diverging is not converging."""
    cv_finals = dict(zip(experiments.TABLE2_RATES, (1e-3, 1e-6, 1e-11, 1e-12, 1e-13)))

    def solve(problem, config):
        if config.cv_mode == "none" and config.rate_numerator == 100.0:
            return one_record(1e300), None
        final = cv_finals[config.rate_numerator] if config.cv_mode == "order1" else 1.0
        return one_record(final), np.zeros(problem.mesh.n_interior)

    monkeypatch.setattr(experiments, "_solve", on_its_problem(solve))
    [path] = run_experiment(dataclasses.replace(default_config("table2"), out=str(tmp_path)))
    assert "100.0,none,nan,False\n" in open(path).readlines()


def test_fig_batch_study_passes_with_its_non_converging_arm_diverged(monkeypatch, tmp_path):
    """The beta=0.4 (128,128) arm must not converge; diverging is not converging."""

    def solve(problem, config):
        if (config.beta, config.batch_gradient, config.batch_hessian) == (0.4, 128, 128):
            return one_record(1e300), None
        return one_record(problem.exact_energy + 1e-4), np.zeros(problem.mesh.n_interior)

    monkeypatch.setattr(experiments, "_solve", on_its_problem(solve))
    config = dataclasses.replace(default_config("fig-batch-study"), out=str(tmp_path))
    [path] = run_experiment(config)
    assert "0.4,128,128,inf,False\n" in open(path).readlines()


@pytest.mark.parametrize("diverged_arm", ["staged", "full"])
def test_fig_staged_hessian_with_a_diverged_arm(diverged_arm, monkeypatch, tmp_path):
    """A diverged full arm is not converging, so it passes; a diverged staged arm fails."""
    config = dataclasses.replace(default_config("fig-staged-hessian"), out=str(tmp_path))
    passing = {"staged": 1e-4, "full": 1.0}

    def solve(problem, config):
        if config.hessian_mode == diverged_arm:
            return one_record(1e300), None
        final = problem.exact_energy + passing[config.hessian_mode]
        return one_record(final), np.zeros(problem.mesh.n_interior)

    monkeypatch.setattr(experiments, "_solve", on_its_problem(solve))
    if diverged_arm == "staged":
        with pytest.raises(ExperimentFailure, match="^staged run missed the 1e-3 energy gap"):
            run_experiment(config)
    else:
        [path] = run_experiment(config)
        lines = open(path).readlines()
        assert "# full_converged=False\n" in lines
        assert not any(line.startswith("full,") for line in lines)


def test_cli_rejects_an_out_that_is_a_regular_file(tmp_path, capsys):
    """--out must name a directory; a regular file there is a config error before any solve."""
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(["solve", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_text() == "kept\n"


def test_cli_rejects_a_monitor_budget_below_the_smallest_rule(tmp_path, capsys):
    """monitor_samples below 3^K cannot hold a 3-point rule and its 1-point partner."""
    for argv, k in (
        (["solve", "--override", "monitor_samples=80"], 4),
        (["experiment", "table3", "--override", "monitor_samples=8"], 2),
        # fig-cdf's second solve is linear, on K = 2 n_v = 4 germ components
        (["experiment", "fig-cdf", "--override", "monitor_samples=80"], 4),
    ):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"error: monitor_samples={3**k - 1} is below 3^{k}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_reports_divergence_as_fail(tmp_path, capsys):
    overrides = [
        "hessian_mode=none",
        "rate_numerator=1e6",
        "m=6",
        "p=1",
        "n_iterations=100",
        "monitor_samples=100",
    ]
    argv = ["solve", "--out", str(tmp_path)]
    assert main(argv + [arg for o in overrides for arg in ("--override", o)]) == 1
    assert capsys.readouterr().err.startswith("FAIL: non-finite update after iteration")
    assert (tmp_path / "solve-trajectory.csv").exists()
    assert not (tmp_path / "solve-coefficients.txt").exists()


def test_fig_convergence_writes_partial_trajectories(tmp_path):
    """The linear half shrunk so its first-order variant diverges; the
    semilinear half runs the table3 preset."""
    config = dataclasses.replace(
        default_config("fig-convergence"),
        out=str(tmp_path),
        m=6,
        p=1,
        n_v=1,
        n_iterations=100,
        batch_gradient=8,
        batch_hessian=4,
        rate_numerator=1e6,
        monitor_samples=100,
    )
    linear_path, semi_path = run_experiment(config)
    variants = [line.split(",")[0] for line in open(linear_path) if line[0] != "#"]
    counts = {v: variants.count(v) for v in ("first-order", "second-order", "second-order-cv")}
    assert min(counts.values()) >= 1
    assert counts["first-order"] < config.n_iterations + 1  # cut short by the divergence
    semi = [line for line in open(semi_path) if line[0] != "#"]
    assert semi[0] == "n,energy,c_1_2\n"
    assert [int(line.split(",")[0]) for line in semi[1:]] == list(range(0, 1001, 10))


@pytest.mark.parametrize(
    "text",
    [
        "experiment = solve\n",
        "[experiment]\nseed = 1\nseed = 2\n",
        "[experiment]\nseed\n",
    ],
    ids=["no-section-header", "duplicate-key", "key-without-value"],
)
def test_cli_rejects_malformed_config_file(text, tmp_path, capsys):
    config_path = tmp_path / "run.ini"
    config_path.write_text(text)
    assert main(["solve", "--config", str(config_path), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_mismatched_config_experiment(tmp_path, capsys):
    config_path = tmp_path / "run.ini"
    config_path.write_text("[experiment]\nexperiment = table1\n")
    assert main(["solve", "--config", str(config_path)]) == 2


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


# Each study's SGD solves
SOLVE_COUNTS = {
    "table1": 0,
    "table2": 10,
    "table3": 4,
    "fig-convergence": 4,
    "fig-cdf": 2,
    "fig-staged-hessian": 2,
    "fig-batch-study": 6,
    "solve": 1,
}


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_a_study_solves_exactly_its_listed_configs(experiment, monkeypatch, tmp_path):
    """The runner passes `_solve` each listed solve, in order."""
    config = dataclasses.replace(default_config(experiment), n_mc=200, out=str(tmp_path))
    received = []

    def record(problem, config):
        received.append(config)
        return one_record(0.0), np.zeros(problem.basis.size * problem.mesh.n_interior)

    monkeypatch.setattr(experiments, "_solve", on_its_problem(record))
    try:
        run_experiment(config)
    except ExperimentFailure:
        pass  # the fake records need not pass the study's checks
    solves = study_solves(config)
    assert len(solves) == SOLVE_COUNTS[experiment]
    assert received == solves


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_check_config_builds_an_sgd_config_for_the_run_and_each_listed_solve(
    experiment, monkeypatch
):
    config = default_config(experiment)
    built = []
    make_sgd_config = experiments.make_sgd_config
    monkeypatch.setattr(
        experiments, "make_sgd_config", lambda solve: built.append(solve) or make_sgd_config(solve)
    )
    experiments.check_config(config)
    assert built == [config, *study_solves(config)]
