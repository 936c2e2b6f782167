"""CLI: config resolution, CSV artifacts, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import bohm_equilibrium
import bohm_equilibrium.analysis as analysis
import bohm_equilibrium.cli as cli
import bohm_equilibrium.dynamics as dynamics
import bohm_equilibrium.guidance as guidance
from bohm_equilibrium import (
    IntegratorConfig,
    StepUnderflowError,
    TwoParticleState,
    constraint_surface_experiment,
    continuity_convergence,
    equivariance_check,
    mode_coordinates,
    particle_coordinates,
    propagate_ensemble,
    regularization_sweep,
    sample_equilibrium,
)
from bohm_equilibrium.cli import ConfigError, RunConfig, load_config, main, parse_config_file
from bohm_equilibrium.model import mode_density


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_defaults():
    config = load_config(None, {})
    assert config.sigma_narrow == 0.05
    assert config.sigma_wide == 1.0
    assert config.correlation == "sum"
    assert config.dt == 1e-3
    assert config.t_final == 2.0
    assert config.samples == 100_000
    assert config.seed == 42
    assert config.parallel == 1


def test_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("samples = 1000\nseed = 7   # inline comment\n\n# full comment\ndt = 0.01\n")
    config = load_config(str(path), {"samples": 5000})
    assert config.samples == 5000  # flag wins
    assert config.seed == 7
    assert config.dt == 0.01


def test_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("samples = 10\nn_steps = 4\n")
    with pytest.raises(ConfigError, match="run.cfg:2.*n_steps"):
        parse_config_file(str(path))


def test_config_duplicate_key(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("samples = 0\nseed = 3\nsamples = 10\n")
    with pytest.raises(ConfigError, match="run.cfg:3: duplicate key 'samples'.*line 1"):
        parse_config_file(str(path))
    out = tmp_path / "eq.csv"
    assert main(["equivariance", "--config", str(path), "--out", str(out)]) == 2
    assert "duplicate key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, key, value",
    [
        ("equivariance", "times", "0.5,,2"),
        ("sweep", "sweep_widths", "0.4, 0.2,"),
        ("equivariance", "times", ","),
    ],
)
def test_config_list_with_an_empty_entry_exits_2_without_output(
    tmp_path, capsys, subcommand, key, value
):
    # empty entries were dropped: "0.5,,2" ran two report times
    path = tmp_path / "run.cfg"
    path.write_text(f"samples = 1000\n{key} = {value}\n")
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = f"error: {path}:2: invalid value for {key}: empty entry in {value!r}\n"
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "subcommand, key, name", [("equivariance", "times", "times"), ("sweep", "sweep_widths", "widths")]
)
def test_config_list_with_no_entries_is_empty(tmp_path, capsys, subcommand, key, name):
    path = tmp_path / "run.cfg"
    path.write_text(f"samples = 1000\n{key} =\n")
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {name} must be non-empty\n"
    assert list(tmp_path.iterdir()) == [path]


def test_config_parse_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="run.cfg:1"):
        parse_config_file(str(path))
    path.write_text("dt = fast\n")
    with pytest.raises(ConfigError, match="dt"):
        parse_config_file(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(str(tmp_path / "missing.cfg"))


def test_validation_names_offending_key():
    with pytest.raises(ConfigError, match="sigma_narrow"):
        load_config(None, {"sigma_narrow": 0.0})
    with pytest.raises(ConfigError, match="correlation"):
        load_config(None, {"correlation": "diagonal"})
    with pytest.raises(ConfigError, match="samples"):
        load_config(None, {"samples": 0})
    with pytest.raises(ConfigError, match="seed"):
        load_config(None, {"seed": -1})
    config = RunConfig(times=(1.0, 0.5))
    with pytest.raises(ConfigError, match="times"):
        config.validate()
    config = RunConfig(start_y1=0.1)
    with pytest.raises(ConfigError, match="start_y"):
        config.validate()


def test_cli_validation_exit_code(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    code = main(["equivariance", "--sigma-narrow", "0", "--out", str(out)])
    assert code == 2
    assert "sigma_narrow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("hbar", "0"),
        ("mass", "nan"),
        ("sigma_wide", "inf"),
        ("method", "euler"),
        ("dt", "0"),
        ("t_final", "-2"),
        ("tolerance", "1.0"),
        ("record_stride", "-1"),
        ("parallel", "0"),
        ("seed", str(2**64)),
        ("times", "3.0"),
        ("sweep_widths", "-0.1"),
        ("grid_h", "0"),
        ("grid_tau", "inf"),
        ("cm_center", "nan"),
    ],
)
def test_invalid_setting_rejected_at_load(tmp_path, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\nsamples = 10\n")
    with pytest.raises(ConfigError):
        load_config(str(path), {})
    out = tmp_path / "eq.csv"
    assert main(["equivariance", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["equivariance", "ga-constraint", "sweep"])
def test_single_sample_rejected_at_load(tmp_path, capsys, subcommand):
    with pytest.raises(ConfigError, match="samples"):
        load_config(None, {"samples": 1})
    out = tmp_path / "x.csv"
    assert main([subcommand, "--samples", "1", "--out", str(out)]) == 2
    assert "samples must be at least 2" in capsys.readouterr().err
    assert not out.exists()


class _Accepted(Exception):
    """Raised by a stub in place of an entry point's first piece of work."""


def _stop(*args, **kwargs):
    raise _Accepted


def _accepts(call, *args) -> bool:
    try:
        call(*args)
    except _Accepted:
        pass
    except ValueError:  # ConfigError included
        return False
    return True


def _rule_owners(monkeypatch):
    """The library calls that own each setting's rule, stopped before any work."""
    monkeypatch.setattr(analysis, "substream_normals", _stop)
    state, config = TwoParticleState.from_widths(), IntegratorConfig()
    return {
        "times": [lambda v: equivariance_check(state, 2, 42, config, v)],
        "samples": [
            lambda v: equivariance_check(state, v, 42, config, [2.0]),
            lambda v: constraint_surface_experiment(state, v, 42, config),
        ],
        "sweep_widths": [lambda v: regularization_sweep(state, v, 2, 42, config)],
        "seed": [lambda v: sample_equilibrium(state, 2, v)],
        "parallel": [
            lambda v: propagate_ensemble(state, np.zeros((2, 2)), config, parallel_width=v)
        ],
    }


@pytest.mark.parametrize(
    "key, value, valid",
    [
        ("times", (2 + 5e-13,), True),
        ("times", (2 + 1e-11,), False),
        ("times", (-0.0,), True),
        ("times", (1.0, 1.0), False),
        ("times", (), False),
        ("sweep_widths", (0.4, 0.4), False),
        ("sweep_widths", (), False),
        ("sweep_widths", (0.4, 5e-324), False),
        ("sweep_widths", (0.4, 1e-200), False),
        ("sweep_widths", (0.4, 1e-150), True),
        ("seed", 0, True),
        ("seed", 2**64 - 1, True),
        ("seed", 2**64, False),
        ("samples", 1, False),
        ("samples", 2, True),
        ("parallel", 0, False),
        ("parallel", 1, True),
    ],
)
def test_load_accepts_exactly_what_the_library_accepts(monkeypatch, key, value, valid):
    assert _accepts(load_config, None, {key: value}) is valid
    for call in _rule_owners(monkeypatch)[key]:
        assert _accepts(call, value) is valid, call


def test_unwritable_out_exits_2_without_meta(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["equivariance", "--samples", "10", "--out", str(out)]) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert not out.parent.exists()


def _never(*args, **kwargs):
    raise AssertionError("the experiment ran before --out was checked")


def test_missing_out_directory_refused_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "constraint_surface_experiment", _never)
    out = tmp_path / "missing" / "x.csv"
    assert main(["ga-constraint", "--out", str(out)]) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("form", ["flag", "config"])
def test_empty_out_refused_before_the_run(tmp_path, monkeypatch, capsys, form):
    monkeypatch.setattr(cli, "constraint_surface_experiment", _never)
    config = tmp_path / "run.cfg"
    config.write_text("out = \n")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    options = ["--out", ""] if form == "flag" else ["--config", str(config)]
    assert main(["ga-constraint", *options]) == 2
    assert "error: out must be a non-empty path" in capsys.readouterr().err
    assert list(run_dir.iterdir()) == []


@pytest.mark.parametrize("directory", ["x.csv", "x.csv.meta.json"])
def test_directory_in_the_way_refused_before_the_run(tmp_path, monkeypatch, capsys, directory):
    monkeypatch.setattr(cli, "constraint_surface_experiment", _never)
    (tmp_path / directory).mkdir()
    assert main(["ga-constraint", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {tmp_path / directory}: it is a directory" in err
    assert [path.name for path in tmp_path.iterdir()] == [directory]
    assert list((tmp_path / directory).iterdir()) == []


def test_unwritable_meta_is_a_config_error(tmp_path):
    path = tmp_path / "missing" / "x.csv.meta.json"
    with pytest.raises(ConfigError, match=f"^cannot write {path}: "):
        cli.write_meta(str(path), "equivariance", RunConfig())


NON_FINITE_SETTINGS = {
    "cm_center": "cm_center = nan",
    "rel_center": "rel_center = inf",
    "cm_wavenumber": "cm_wavenumber = nan",
    "rel_wavenumber": "rel_wavenumber = nan",
    "times": "times = 0.5, nan",
    "sweep_widths": "sweep_widths = nan",
    "start_y1": "start_y1 = nan\nstart_y2 = 0",
}


@pytest.mark.parametrize("key", NON_FINITE_SETTINGS)
def test_non_finite_setting_names_its_key(tmp_path, capsys, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{NON_FINITE_SETTINGS[key]}\nsamples = 10\n")
    with pytest.raises(ConfigError, match=rf"^{key} must be finite"):
        load_config(str(path), {})
    out = tmp_path / "eq.csv"
    assert main(["equivariance", "--config", str(path), "--out", str(out)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


# a valid value other than the default for every RunConfig field
NON_DEFAULT_SETTINGS = {
    "hbar": ("1.5", 1.5),
    "mass": ("2.0", 2.0),
    "sigma_narrow": ("0.1", 0.1),
    "sigma_wide": ("2.0", 2.0),
    "correlation": ("difference", "difference"),
    "cm_center": ("0.25", 0.25),
    "rel_center": ("-0.5", -0.5),
    "cm_wavenumber": ("1.5", 1.5),
    "rel_wavenumber": ("-2.0", -2.0),
    "method": ("rk45", "rk45"),
    "dt": ("0.005", 0.005),
    "tolerance": ("1e-8", 1e-8),
    "t_final": ("3.0", 3.0),
    "record_stride": ("4", 4),
    "samples": ("500", 500),
    "seed": ("7", 7),
    "parallel": ("8", 8),
    "times": ("0.5, 1.0, 2.5", (0.5, 1.0, 2.5)),
    "sweep_widths": ("0.3, 0.1", (0.3, 0.1)),
    "grid_h": ("0.05", 0.05),
    "grid_tau": ("0.002", 0.002),
    "start_y1": ("0.3", 0.3),
    "start_y2": ("-0.2", -0.2),
    "out": ("result.csv", "result.csv"),
}


def test_every_setting_parses_from_config_file(tmp_path):
    fields = dataclasses.fields(RunConfig)
    assert [field.name for field in fields] == list(NON_DEFAULT_SETTINGS)
    path = tmp_path / "all.cfg"
    lines = [f"{key} = {text}\n" for key, (text, _) in NON_DEFAULT_SETTINGS.items()]
    path.write_text("".join(lines))
    config = load_config(str(path), {})
    for field in fields:
        value = getattr(config, field.name)
        expected = NON_DEFAULT_SETTINGS[field.name][1]
        assert value != field.default
        assert value == expected and type(value) is type(expected), field.name


def test_cli_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_flags_before_the_subcommand_write_the_same_bytes(tmp_path, monkeypatch):
    flags = ["--samples", "2000", "--t-final", "0.5", "--out", "e.csv"]
    for where, argv in (("after", ["equivariance", "--seed", "3", *flags]),
                        ("before", ["--seed", "3", "equivariance", *flags])):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        assert main(argv) == 0
    for name in ("e.csv", "e.csv.meta.json"):
        assert (tmp_path / "before" / name).read_bytes() == (tmp_path / "after" / name).read_bytes()


@pytest.mark.parametrize("subcommand", [[], *([name] for name in cli._SUBCOMMANDS)])
def test_help_names_every_subcommand(capsys, subcommand):
    with pytest.raises(SystemExit) as info:
        main([*subcommand, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for name, (_, help_text) in cli._SUBCOMMANDS.items():
        assert f"  {name} " in out and help_text in out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["equivariance", "--samples", "x"],
        ["equivariance", "--record-stride", "3"],  # a config-file key, not a flag
    ],
)
def test_argparse_refusals_exit_2_without_output(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", "x.csv"])
    assert info.value.code == 2
    assert "bohm-equilibrium: error: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise StepUnderflowError("forced")

    monkeypatch.setattr(cli, "equivariance_check", boom)
    code = main(["equivariance", "--samples", "10", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_equivariance_csv(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    code = main(
        ["equivariance", "--samples", "2000", "--t-final", "1.0", "--out", str(out)]
    )
    assert code == 0
    assert "max KS" in capsys.readouterr().out
    header, rows = read_csv(out)
    assert header == ["t", "observable", "empirical_std", "analytic_std", "ks", "n"]
    assert len(rows) == 4
    assert {row[1] for row in rows} == {"y1", "y2", "y1+y2", "y1-y2"}
    for row in rows:
        # 17 significant digits round-trip
        assert float(row[2]) == pytest.approx(float(row[3]), rel=0.1)
        assert row[5] == "2000"
    meta = json.loads((tmp_path / "eq.csv.meta.json").read_text())
    assert meta["subcommand"] == "equivariance"
    assert meta["config"]["samples"] == 2000
    assert meta["version"]


def test_ga_constraint_csv(tmp_path):
    out = tmp_path / "ga.csv"
    assert main(["ga-constraint", "--samples", "100", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["metric", "value"]
    values = dict(rows)
    assert float(values["max_abs_sum"]) <= 1e-9
    assert float(values["sum_width_equilibrium"]) > 1.0
    assert float(values["width_mismatch_ratio"]) > 1e3


def test_sweep_csv(tmp_path):
    out = tmp_path / "sw.csv"
    config = tmp_path / "run.cfg"
    config.write_text("sweep_widths = 0.4, 0.2\nsamples = 1000\n")
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["delta_y_i", "delta_y_f_analytic", "delta_y_f_empirical", "R", "ks"]
    assert len(rows) == 2
    first = [float(x) for x in rows[0]]
    assert first[0] == 0.4
    assert first[3] * first[0] == pytest.approx(first[1], rel=1e-15)


def test_sweep_stiff_rk4_exits_3_before_any_row(tmp_path, capsys):
    out = tmp_path / "sw.csv"
    config = tmp_path / "run.cfg"
    config.write_text("sweep_widths = 0.02, 0.001\nsamples = 1000\n")
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 3
    assert "method = rk45" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "sw.csv.meta.json").exists()


@pytest.mark.parametrize("subcommand", ["equivariance", "trajectory"])
def test_stiff_rk4_exits_3_without_output(tmp_path, capsys, subcommand):
    # rk4 at dt = 1e-3 moved this equivariance run to KS 0.227 (noise 0.0138)
    # and this trajectory to (32.6, 34.6) instead of the exact (90.6, 92.6)
    out = tmp_path / "x.csv"
    args = [subcommand, "--sigma-narrow", "0.005", "--samples", "20000", "--out", str(out)]
    assert main(args) == 3
    assert "use method = rk45" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand", ["equivariance", "trajectory", "ga-constraint", "sweep"])
@pytest.mark.parametrize(
    "setting, steps",
    # dt = 1e-308 was an OverflowError traceback; the others failed at run
    # time with numpy's "Maximum allowed size exceeded", which names no setting
    [
        (["--dt", "1e-308"], "inf"),
        (["--dt", "1e-200"], "2e+200"),
        (["--t-final", "1e300"], "1e+303"),
    ],
)
def test_rk4_step_count_an_array_cannot_index_exits_2_at_load(
    tmp_path, capsys, subcommand, setting, steps
):
    assert main([subcommand, *setting, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rk4 with t_final = ") and f" takes {steps} steps, " in err
    assert list(tmp_path.iterdir()) == []


def test_record_stride_past_the_step_count_records_the_endpoints(tmp_path):
    # a stride of 2**63 or more was an IndexError traceback from np.arange
    config = tmp_path / "run.cfg"
    config.write_text(f"record_stride = {2**63}\nsamples = 200\nt_final = 0.5\n")
    out = tmp_path / "x.csv"
    assert main(["trajectory", "--config", str(config), "--out", str(out)]) == 0
    assert [row[0] for row in read_csv(out)[1]] == ["0", "0.5"]
    assert main(["ga-constraint", "--config", str(config), "--out", str(out)]) == 0
    assert dict(read_csv(out)[1])["max_abs_sum"] == "0"


def test_ga_constraint_stiff_wide_mode_exits_3_without_output(tmp_path, capsys):
    # rk45 records its maps too, so the remedy named is rk45, as elsewhere
    out = tmp_path / "ga.csv"
    assert main(["ga-constraint", "--sigma-wide", "0.02", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: wide mode sigma0 = 0.02 ")
    assert err.endswith("; use method = rk45\n")
    assert list(tmp_path.iterdir()) == []


def test_ga_constraint_rk45_runs_the_stiff_wide_mode(tmp_path):
    # the run rk4 refuses above: y1+y2 stays at exactly 0, and the wide
    # mode's width is within 5 standard errors of its law (it exited 2 with
    # "method must be 'rk4'" while only fixed steps were recorded)
    config = tmp_path / "run.cfg"
    config.write_text("method = rk45\nsigma_wide = 0.02\nsamples = 20000\n")
    out = tmp_path / "ga.csv"
    assert main(["ga-constraint", "--config", str(config), "--out", str(out)]) == 0
    values = {key: float(value) for key, value in read_csv(out)[1]}
    assert values["max_abs_sum"] == 0.0
    standard_error = values["diff_width_analytic"] / np.sqrt(2 * (20000 - 1))
    assert abs(values["diff_width_empirical"] - values["diff_width_analytic"]) <= 5 * standard_error


def test_stiff_width_in_equilibrium_with_rk45(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("method = rk45\nsigma_narrow = 0.005\nsamples = 20000\n")
    out = tmp_path / "eq.csv"
    assert main(["equivariance", "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert max(float(row[4]) for row in rows) < 1.95 / np.sqrt(20000)


@pytest.mark.parametrize("sigma_narrow", [1e-3, 1e-6, 5e-7, 4.3e-7, 1e-9])
def test_rk45_narrow_widths_exit_0_in_equilibrium(tmp_path, sigma_narrow):
    # each trajectory used to be a lane judged against 1e-9 * (1 + |u|), an
    # absolute floor of 1e-9 for a mode of width 5e-7: max KS read 0.02375
    # there with exit 0, and at 4.3e-7 3 of 20000 lanes fell below the
    # absolute step floor of 1e-12 (exit 3)
    config = tmp_path / "run.cfg"
    config.write_text(f"method = rk45\nsigma_narrow = {sigma_narrow!r}\nsamples = 20000\n")
    out = tmp_path / "eq.csv"
    assert main(["equivariance", "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert max(float(row[4]) for row in rows) < 1.95 / np.sqrt(20000)


@pytest.mark.parametrize(
    "settings", ["hbar = 1e-13", "mass = 1e13", "sigma_narrow = 1e6\nsigma_wide = 1e6"]
)
def test_rk45_trajectory_of_slowly_spreading_states(tmp_path, capsys, settings):
    # spreading times of 1e11 and more once set the rk45 step floor at 0.1
    # or above, past the first trial step of 0.02: exit 3 at t = 0
    config = tmp_path / "run.cfg"
    config.write_text(f"method = rk45\n{settings}\n")
    out = tmp_path / "x.csv"
    assert main(["trajectory", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    (_, *start), (t, *end) = ([float(x) for x in row] for row in (rows[0], rows[-1]))
    # centered modes at rest: each mode coordinate is stretched by sigma(t)/sigma0
    state = load_config(str(config), {}).state()
    stretch = [ev.sigma / ev.sigma0 for ev in state.evolved(t)]
    expected = particle_coordinates(*(s * u for s, u in zip(stretch, mode_coordinates(*start))))
    np.testing.assert_allclose(end, expected, rtol=1e-8)


def test_width_past_the_overflow_of_beta_t(tmp_path, capsys):
    # at sigma_narrow = 1e-150 and t = 1e10, beta * t = 2.5e309 overflows but
    # the narrow width (hbar / (2 m_c sigma0)) * t = 2.5e159 does not: the run
    # was refused at load ("the law of y1 ... is not finite"). Its rk45 map
    # a = sigma(t)/sigma0 = 2.5e309 is past double too, but the maps hold
    # a * 2^-498, a power of two near sigma0, so the run ends on the exact flow
    config = tmp_path / "run.cfg"
    args = ["--config", str(config), "--out", str(tmp_path / "x.csv")]
    for sigma_narrow in (1e-150, 1e-149):
        config.write_text(f"method = rk45\nsigma_narrow = {sigma_narrow!r}\nt_final = 1e10\n")
        assert load_config(str(config), {}).sigma_narrow == sigma_narrow
        assert main(["trajectory", *args]) == 0
        _, rows = read_csv(tmp_path / "x.csv")
        (_, y1, y2), (t, end1, end2) = ([float(x) for x in row] for row in (rows[0], rows[-1]))
        assert t == 1e10 and y1 + y2 == 0.0  # the narrow cm coordinate starts, and stays, at 0
        # the relative mode (beta = 1) stretches y1 - y2 by hypot(1, t)
        expected = np.array([y1, y2]) * np.hypot(1.0, 1e10)
        np.testing.assert_allclose([end1, end2], expected, rtol=1e-8)
        assert end1 + end2 == 0.0
    capsys.readouterr()
    config.write_text("method = rk45\nsigma_narrow = 1e-150\nt_final = 1e10\n")
    (tmp_path / "x.csv").unlink()
    (tmp_path / "x.csv.meta.json").unlink()
    assert main(["continuity", *args]) == 2
    assert "points an array can index" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_subnormal_grid_h_exits_2_without_output(tmp_path, capsys):
    # 5 stds over 5e-324 overflow to inf, and math.ceil raised OverflowError (exit 1)
    config = tmp_path / "run.cfg"
    config.write_text("grid_h = 5e-324\n")
    assert main(["continuity", "--config", str(config), "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: grid of inf x inf points exceeds the 9.22337e+18 points an array can index\n"
    )
    assert list(tmp_path.iterdir()) == [config]


def test_times_past_a_tiny_t_final_exit_2_without_output(tmp_path, capsys):
    # an absolute slack of 1e-12 admitted t = 1e-13, 1e7 times past t_final,
    # and wrote rows there with exit 0
    config = tmp_path / "run.cfg"
    config.write_text("t_final = 1e-20\ntimes = 1e-13\nsamples = 2000\n")
    assert main(["equivariance", "--config", str(config), "--out", str(tmp_path / "e.csv")]) == 2
    assert "times must lie within" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]
    # the slack is relative: at t_final = 2 it is 2e-12
    assert load_config(None, {"t_final": 2.0, "times": (2.0 + 1e-12,)}).times == (2.0 + 1e-12,)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_law_that_overflows_exits_2_at_load(tmp_path, capsys, method):
    # the cm center reaches 1.7e308 at t = 2, so the y1+y2 mean 2 * Y is inf;
    # rk45 printed max KS = 0.9145 and exited 0, rk4 exited 3 behind warnings
    config = tmp_path / "run.cfg"
    config.write_text(f"method = {method}\ncm_wavenumber = 1.7e308\nsamples = 2000\n")
    message = "the law of y1+y2 at t = 2 is not finite in double precision"
    with pytest.raises(ConfigError) as refused:
        load_config(str(config), {})
    assert str(refused.value) == message
    assert main(["equivariance", "--config", str(config), "--out", str(tmp_path / "e.csv")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [config]


def test_observable_whose_std_overflows_exits_3_without_output(tmp_path):
    # the law is finite, but y1 reaches about 1e300, so np.std's square is
    # inf: std inf and KS 1 were written with exit 0 behind numpy's overflow
    # warning, and -W error::RuntimeWarning turned that into a traceback
    config = tmp_path / "run.cfg"
    config.write_text("cm_wavenumber = 1e300\nsamples = 2000\n")
    argv = ["equivariance", "--config", str(config), "--out", str(tmp_path / "e.csv")]
    script = "import sys\nfrom bohm_equilibrium.cli import main\nsys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(bohm_equilibrium.__file__).parents[1])}
    for flags in ([], ["-W", "error::RuntimeWarning"]):
        child = subprocess.run(
            [sys.executable, *flags, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert child.returncode == 3
        assert child.stderr == "numerical failure: empirical std of y1 at t = 2 is not finite\n"
    assert list(tmp_path.iterdir()) == [config]


def test_surface_width_that_overflows_exits_3_without_output(tmp_path):
    # the y1-y2 offsets are about 1e153, so np.std's sum of their squares
    # is inf: diff_width_empirical,inf was written with exit 0, and -W
    # error::RuntimeWarning turned that into a traceback
    argv = ["ga-constraint", "--sigma-wide", "1e153", "--samples", "2000"]
    argv += ["--out", str(tmp_path / "s.csv")]
    script = "import sys\nfrom bohm_equilibrium.cli import main\nsys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(bohm_equilibrium.__file__).parents[1])}
    for flags in ([], ["-W", "error::RuntimeWarning"]):
        child = subprocess.run(
            [sys.executable, *flags, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert (child.returncode, child.stdout) == (3, "")
        assert child.stderr == "numerical failure: empirical std of y1-y2 at t = 2 is not finite\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "subcommand, settings",
    [
        ("equivariance", "sigma_narrow = 1e-200"),  # was a ZeroDivisionError traceback
        ("equivariance", "sigma_narrow = 1e-160"),  # beta = inf: every trajectory failed
        ("continuity", "sigma_narrow = 1e-160"),  # cannot convert float NaN to integer
        ("sweep", "sweep_widths = 0.4, 1e-200"),
        ("sweep", "sweep_widths = 0.4, 5e-324"),  # sum-narrow: cm sigma0 rounds to 0
    ],
)
def test_width_without_finite_spreading_rate_exits_2(tmp_path, capsys, subcommand, settings):
    config = tmp_path / "run.cfg"
    config.write_text(settings + "\n")
    out = tmp_path / "x.csv"
    assert main([subcommand, "--config", str(config), "--out", str(out)]) == 2
    assert "sigma0" in capsys.readouterr().err
    assert not out.exists()


def test_continuity_csv(tmp_path):
    out = tmp_path / "cont.csv"
    assert main(["continuity", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["level", "h", "tau", "max_norm", "l2_norm"]
    assert [row[0] for row in rows] == ["coarse", "fine"]
    ratio = float(rows[0][3]) / float(rows[1][3])
    assert 3.5 < ratio < 4.5


def test_too_coarse_grid_exits_2_without_output(tmp_path):
    # the limit is a quarter of the narrowest feature, the y1-y2 width
    # sqrt(5) at t = 2; the refusal must not depend on how warnings are set
    config = tmp_path / "run.cfg"
    config.write_text("grid_h = 1.0\n")
    argv = ["continuity", "--config", str(config), "--out", str(tmp_path / "c.csv")]
    script = "import sys\nfrom bohm_equilibrium.cli import main\nsys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(bohm_equilibrium.__file__).parents[1])}
    for flags in ([], ["-W", "error::RuntimeWarning"]):
        child = subprocess.run(
            [sys.executable, *flags, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert child.returncode == 2
        assert child.stderr == (
            "error: grid_h = 1 exceeds 0.559, a quarter of the narrowest density "
            "feature at t_final\n"
        )
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "setting, limit",
    # the cm packet drifts 50 of its widths per tau = 1e-3, the relative one 9:
    # the coarse/fine ratio read 0.994 and 0.996 with exit 0
    [("cm_wavenumber = 1e6", "5e-06"), ("rel_wavenumber = 1e4", "2.794e-05")],
)
def test_grid_tau_the_density_outruns_exits_2_without_output(tmp_path, setting, limit):
    config = tmp_path / "run.cfg"
    config.write_text(setting + "\ngrid_tau = 1e-3\n")
    argv = ["continuity", "--config", str(config), "--out", str(tmp_path / "c.csv")]
    script = "import sys\nfrom bohm_equilibrium.cli import main\nsys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(bohm_equilibrium.__file__).parents[1])}
    for flags in ([], ["-W", "error::RuntimeWarning"]):
        child = subprocess.run(
            [sys.executable, *flags, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert child.returncode == 2
        assert child.stderr == (
            f"error: grid_tau = 0.001 exceeds {limit}, the time in which the density "
            "moves a quarter of its width at t_final\n"
        )
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "setting", ["cm_center = 1e13", "cm_center = 1e14", "rel_center = 1e13", "rel_center = 1e15"]
)
def test_continuity_converges_at_far_centers(tmp_path, setting):
    # on grid points at the density's own position the ratio read 1.76, 0.543,
    # 1.26 and 0.458: the points rounded away what the residual resolves
    config = tmp_path / "run.cfg"
    config.write_text(setting + "\n")
    out = tmp_path / "c.csv"
    assert main(["continuity", "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert 3.5 <= float(rows[0][3]) / float(rows[1][3]) <= 4.5


def test_continuity_csv_holds_the_library_norms(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("cm_center = 1e14\ngrid_tau = 5e-4\n")
    out = tmp_path / "c.csv"
    assert main(["continuity", "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    levels = continuity_convergence(RunConfig(cm_center=1e14).state(), 2.0, tau=5e-4)
    assert [[float(value) for value in row[1:]] for row in rows] == [
        [grid.h, grid.tau, res.max_norm, res.l2_norm] for grid, res in levels.values()
    ]
    assert [row[0] for row in rows] == list(levels)


@pytest.mark.parametrize(
    "setting",
    ["cm_center = 1e12", "cm_center = 1e14", "rel_center = 1e13", "sigma_wide = 1e15",
     "sigma_wide = 1e16"],
)
def test_equivariance_at_far_centers_and_wide_ratios(tmp_path, setting):
    config = tmp_path / "run.cfg"
    config.write_text(f"{setting}\nsamples = 20000\n")
    out = tmp_path / "e.csv"
    assert main(["equivariance", "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert max(float(row[4]) for row in rows) < 1.95 / 20000**0.5


@pytest.mark.parametrize(
    "wavenumber, sized",
    # below the bound tau stays 1e-3; past it, tau is the bound (the ratio
    # read 3.84 at tau = 1e-3 for 1e4, and 0.994 for 1e6)
    [(4e3, False), (1e4, True), (1e6, True)],
)
def test_default_grid_tau_follows_a_drifting_density(tmp_path, wavenumber, sized):
    config = tmp_path / "run.cfg"
    config.write_text(f"cm_wavenumber = {wavenumber}\nsamples = 2000\n")
    out = tmp_path / "c.csv"
    assert main(["continuity", "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    limit = guidance._max_grid_tau(RunConfig(cm_wavenumber=wavenumber).state(), 2.0)
    assert float(rows[0][2]) == (limit if sized else 1e-3)
    assert 3.9 < float(rows[0][3]) / float(rows[1][3]) < 4.1
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["config"]["grid_tau"] == float(rows[0][2])
    # the subcommands that never use grid_tau run too
    assert main(["equivariance", "--config", str(config), "--out", str(tmp_path / "e.csv")]) == 0


@pytest.mark.parametrize(
    "width, points",
    [(["--sigma-wide", "1e150"], "1.99998e+150"), (["--sigma-narrow", "1e-150"], "1.78885e+151")],
)
def test_oversized_continuity_grid_exits_2_without_output(tmp_path, capsys, width, points):
    limit = f"{np.iinfo(np.intp).max:.6g}"
    assert main(["continuity", *width, "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: grid of {points} x {points} points exceeds the {limit} points "
        "an array can index\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_continuity_with_non_finite_norms_exits_3_without_output(tmp_path):
    # two 1e-150 modes at t = 1e-300 make a density near 1e300, whose fluxes
    # overflow; the refusal used to come behind six numpy warnings, or as a
    # traceback with exit 1 under -W error
    widths = ["--sigma-narrow", "1e-150", "--sigma-wide", "1e-150"]
    argv = ["continuity", *widths, "--t-final", "1e-300", "--out", str(tmp_path / "c.csv")]
    script = "import sys\nfrom bohm_equilibrium.cli import main\nsys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(bohm_equilibrium.__file__).parents[1])}
    for flags in ([], ["-W", "error::RuntimeWarning"]):
        child = subprocess.run(
            [sys.executable, *flags, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert (child.returncode, child.stdout) == (3, "")
        assert child.stderr == (
            "numerical failure: continuity residual is not finite: "
            "max_norm = nan, l2_norm = nan\n"
        )
    assert list(tmp_path.iterdir()) == []


def test_continuity_converges_past_the_stretch_rates_square_overflow(tmp_path):
    # at t = 2 the 1e-100 cm mode has beta * t = 5e199, whose square
    # overflows; its stretch rate read inf / inf = NaN, and the run exited 3
    argv = ["continuity", "--sigma-wide", "1e100", "--sigma-narrow", "1e-100"]
    out = tmp_path / "c.csv"
    assert main([*argv, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    # both norms: the residual, near 1e-203, has squares that underflow
    for column in (3, 4):
        assert 3.5 <= float(rows[0][column]) / float(rows[1][column]) <= 4.5


@pytest.mark.parametrize(
    "args",
    [
        # before the spreading time 1/beta the stretch rate at t_final is near
        # 0, and a default tau of 5/beta gave ratios 1.04, 3.27 and 1.04; the
        # third ran at --sigma-wide 1 (beta * t = 0.01 all the same), on grids
        # of 100 times the points
        "--t-final 1e-6 --sigma-narrow 0.005",
        "--t-final 1e-5 --sigma-narrow 0.005",
        "--t-final 1e-8 --sigma-narrow 0.0005 --sigma-wide 0.1",
        # a residual near 6e259, whose squares are past the largest double:
        # summed unscaled, l2_norm read inf and the run exited 3
        "--sigma-narrow 1e-78 --sigma-wide 1e-60 --t-final 1e-140",
        # late runs, where tau = 1e-3 left the time difference mostly
        # rounding: max-norm ratios 2.91 and 2.35 (see guidance._min_grid_tau)
        "--t-final 1e10",
        "--sigma-narrow 1e-120 --sigma-wide 1e-120 --t-final 1e10",
        # a slowly spreading state at t = 2, for the same reason: ratio 1.05
        "--sigma-narrow 1e3 --sigma-wide 1e4",
    ],
)
def test_continuity_converges_on_both_norms(tmp_path, args):
    out = tmp_path / "c.csv"
    assert main(["continuity", *args.split(), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    for column in (3, 4):
        assert 3.5 <= float(rows[0][column]) / float(rows[1][column]) <= 4.5


@pytest.mark.parametrize("t_final", [1e9, 1e10, 1e15])
def test_late_default_grid_tau_is_twice_the_shortest_reliable_tau(tmp_path, t_final):
    # the fine grid's tau, half the default, is the shortest the rule admits
    out = tmp_path / "c.csv"
    assert main(["continuity", "--t-final", repr(t_final), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    shortest = guidance._min_grid_tau(RunConfig().state(), t_final)
    assert [float(row[2]) for row in rows] == [2.0 * shortest, shortest]
    assert json.loads(out.with_name("c.csv.meta.json").read_text())["config"]["grid_tau"] == (
        2.0 * shortest
    )


@pytest.mark.parametrize(
    "setting, message",
    [
        # load refuses a grid_tau below the rule
        (
            "t_final = 1e10\ngrid_tau = 1e-3\n",
            "error: grid_tau = 0.001 is below 0.01455, the shortest time in which the "
            "density changes by more than its rounding at t_final\n",
        ),
        # one at or above it whose half, the fine grid's tau, is below
        (
            "t_final = 1e10\ngrid_tau = 0.02\n",
            "error: grid_tau = 0.01 is below 0.01455, the shortest time in which the "
            "density changes by more than its rounding at t_final on the fine grid\n",
        ),
        # long before the spreading time no tau is both long enough to outweigh
        # rounding and short enough for the motion: tau = 1e-3 read ratio 3.42
        (
            "t_final = 1e-13\n",
            "error: grid_tau = 0.00291038 exceeds 0.001, the time in which the density "
            "moves a quarter of its width at t_final on the coarse grid\n",
        ),
    ],
)
def test_grid_tau_too_short_for_rounding_exits_2_without_output(tmp_path, setting, message):
    config = tmp_path / "run.cfg"
    config.write_text(setting)
    argv = ["continuity", "--config", str(config), "--out", str(tmp_path / "c.csv")]
    script = "import sys\nfrom bohm_equilibrium.cli import main\nsys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(bohm_equilibrium.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert (child.returncode, child.stdout, child.stderr) == (2, "", message)
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "width, level, norm",
    # the first printed "0 -> 0 (ratio inf)", the second a subnormal fine norm
    # and ratio 2.26, both with exit 0
    [("1e-149", "coarse", "0"), ("1e-138", "coarse", "1.23855e-308")],
)
def test_continuity_residual_that_underflows_exits_3_without_output(
    tmp_path, capsys, width, level, norm
):
    argv = ["--sigma-narrow", width, "--sigma-wide", width, "--t-final", "1e10"]
    assert main(["continuity", *argv, "--out", str(tmp_path / "c.csv")]) == 3
    assert capsys.readouterr() == (
        "",
        f"numerical failure: continuity residual underflows: the {level} grid's max_norm = "
        f"{norm} is below 2.22507e-308, the smallest normal double\n",
    )
    assert list(tmp_path.iterdir()) == []


def test_worker_memory_error_exits_2_without_output(tmp_path, monkeypatch, capsys):
    # the default grids make 3 and 9 leaves; the second worker's first leaf fails
    def density(evolved, u, out=None):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("stub")
        return mode_density(evolved, u, out=out)

    monkeypatch.setattr(guidance, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(guidance, "mode_density", density)
    before = threading.active_count()
    assert main(["continuity", "--out", str(tmp_path / "c.csv")]) == 2
    assert threading.active_count() == before
    assert capsys.readouterr().err == "error: not enough memory: stub\n"
    assert list(tmp_path.iterdir()) == []


def test_bare_memory_error_says_what_ran_out(tmp_path, monkeypatch, capsys):
    # a MemoryError with no text, as an allocation that fails outside numpy raises
    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(dynamics, "_rk4_maps", no_memory)
    assert main(["equivariance", "--out", str(tmp_path / "e.csv")]) == 2
    err = "error: not enough memory: equivariance could not allocate its working memory\n"
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == []


def test_continuity_grid_past_physical_memory_exits_2_without_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(guidance, "_physical_memory", lambda: 1e6)
    assert main(["continuity", "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory: the continuity residual on a grid of 363 x")
    assert err.endswith(" more than the 0.001 GB of physical memory\n")
    assert list(tmp_path.iterdir()) == []


# ru_maxrss would carry the parent's peak over through fork and exec, so the
# child reports its own high-water mark, VmHWM
_PEAK_RSS_CHILD = """
import sys
from bohm_equilibrium.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    hwm_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, hwm_kb)
"""


def run_child(script: str, *args: str) -> str:
    """Run script in a fresh interpreter that imports this package; return its stdout."""
    src = str(Path(bohm_equilibrium.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True
    )
    return child.stdout


def run_peak_rss_mb(argv) -> float:
    """Run main(argv) in a fresh interpreter; assert exit 0, return its peak RSS in MB."""
    code, hwm_kb = run_child(_PEAK_RSS_CHILD, *argv).split()[-2:]
    assert code == "0"
    return int(hwm_kb) / 1024


def continuity_peak_rss_mb(tmp_path, grid_h: str) -> float:
    config = tmp_path / "run.cfg"
    config.write_text(f"grid_h = {grid_h}\n")
    return run_peak_rss_mb(
        ["continuity", "--config", str(config), "--out", str(tmp_path / "c.csv")]
    )


def test_continuity_fine_grid_peak_memory(tmp_path):
    # grid_h = 0.07 gives 1439^2 and 2877^2 grids; whole-grid stage arrays
    # took 877 MB (VmHWM), row blocks 199 MB, and one residual array squared
    # in place 120 MB; with no array the size of the grid it takes 42 MB
    assert continuity_peak_rss_mb(tmp_path, "0.07") < 80


def test_continuity_finer_grid_peak_memory(tmp_path):
    # grid_h = 0.05 gives 2015^2 and 4029^2 grids: 181 MB with one residual
    # array, 42 MB with none, the same as at 0.07
    assert continuity_peak_rss_mb(tmp_path, "0.05") < 80


def test_continuity_fine_grid_peak_memory_on_many_cpus(tmp_path):
    # each worker holds about 3.2 MB of stage buffers at 2877 columns; with
    # one worker per CPU, 16 CPUs took 123 MB (VmHWM), and _MAX_WORKERS = 4
    # keeps it to 48 MB
    config = tmp_path / "run.cfg"
    config.write_text("grid_h = 0.07\n")
    many_cpus = "import bohm_equilibrium.guidance as g\ng._usable_cpus = lambda: 16\n"
    argv = ["continuity", "--config", str(config), "--out", str(tmp_path / "c.csv")]
    code, hwm_kb = run_child(many_cpus + _PEAK_RSS_CHILD, *argv).split()[-2:]
    assert code == "0"
    assert int(hwm_kb) / 1024 < 80


@pytest.mark.parametrize(
    "subcommand", ["equivariance", "ga-constraint", "sweep", "continuity", "trajectory"]
)
def test_default_size_peak_memory(tmp_path, subcommand):
    # each peaked at 36-42 MB (VmHWM); for ga-constraint's n = 1e5 with all
    # 2001 frames a stacked recording would take 3.2 GB, so its rk4 maps are
    # applied in 16384-start chunks
    assert run_peak_rss_mb([subcommand, "--out", str(tmp_path / "x.csv")]) < 100


def test_million_sample_equivariance_peak_memory(tmp_path):
    # the whole-array sampler's Philox words and ndtri temporaries, with the
    # start ensemble kept to the last snapshot, took 120 MB (VmHWM); chunked
    # sampling and a start freed at the first transport take 71 MB
    argv = ["equivariance", "--samples", "1000000", "--out", str(tmp_path / "e.csv")]
    assert run_peak_rss_mb(argv) < 95


# RLIMIT_AS is set before numpy is imported, so only the run's arrays meet it
_LOW_MEMORY_CHILD = """
import resource
import sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.stderr = sys.stdout
from bohm_equilibrium.cli import main
print(main(sys.argv[1:]))
"""


def test_impossible_allocation_exits_2_without_output(tmp_path):
    # 3e8 samples need a 4.47 GiB array of normals; the Philox words are
    # drawn in chunks
    argv = ["equivariance", "--samples", "300000000", "--out", str(tmp_path / "e.csv")]
    out = run_child(_LOW_MEMORY_CHILD, *argv)
    assert out.startswith("error: not enough memory: Unable to allocate")
    assert out.split()[-1] == "2"
    assert list(tmp_path.iterdir()) == []


_NO_SCIPY_CHILD = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
import numpy
ma_with_numpy = "numpy.ma" in sys.modules
from bohm_equilibrium.cli import main
out = sys.argv[1]
code = main(["equivariance", "--samples", "2000", "--out", out + "/eq.csv"])
code += main(["ga-constraint", "--samples", "2000", "--out", out + "/ga.csv"])
code += main(["sweep", "--samples", "2000", "--out", out + "/sw.csv"])
code += main(["continuity", "--t-final", "0.5", "--out", out + "/co.csv"])
code += main(["trajectory", "--t-final", "0.5", "--out", out + "/tr.csv"])
ma_after_run = "numpy.ma" in sys.modules
print(code, ma_with_numpy, ma_after_run)
"""


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only; numpy.ma, which a scipy import used to
    # load, is not imported lazily inside any subcommand's run either
    out = run_child(_NO_SCIPY_CHILD, str(tmp_path))
    code, ma_with_numpy, ma_after_run = out.split()[-3:]
    assert code == "0"
    assert ma_after_run == ma_with_numpy


def test_trajectory_csv(tmp_path):
    out = tmp_path / "tr.csv"
    config = tmp_path / "run.cfg"
    config.write_text("start_y1 = 0.3\nstart_y2 = -0.2\ndt = 0.01\nt_final = 1.0\n")
    assert main(["trajectory", "--config", str(config), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "y1", "y2"]
    assert len(rows) == 101
    assert float(rows[0][1]) == 0.3
    times = [float(row[0]) for row in rows]
    assert times == sorted(times)
    # 17g output round-trips through float exactly
    y1_final = float(rows[-1][1])
    assert format(y1_final, ".17g") == rows[-1][1]


@pytest.mark.parametrize("y1, y2", [("1e307", "1e307"), ("1e308", "-1e308")])
def test_trajectory_that_overflows_exits_3_without_output(
    tmp_path, tmp_path_factory, capsys, y1, y2
):
    config = tmp_path_factory.mktemp("cfg") / "run.cfg"
    config.write_text(f"start_y1 = {y1}\nstart_y2 = {y2}\n")
    out = tmp_path / "tr.csv"
    assert main(["trajectory", "--config", str(config), "--out", str(out)]) == 3
    assert "position is not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rk45_trajectory_that_overflows_exits_3_without_output(
    tmp_path, tmp_path_factory, capsys
):
    config = tmp_path_factory.mktemp("cfg") / "run.cfg"
    config.write_text("method = rk45\nstart_y1 = 1e307\nstart_y2 = 1e307\n")
    out = tmp_path / "tr.csv"
    assert main(["trajectory", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "position is not finite" in err and "fell below" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_trajectory_that_overflows_prints_only_the_refusal(tmp_path, method):
    # numpy's overflow warnings used to precede the refusal, and to replace
    # it with a traceback and exit 1 under -W error::RuntimeWarning
    config = tmp_path / "run.cfg"
    config.write_text(f"method = {method}\nstart_y1 = 1e307\nstart_y2 = 1e307\n")
    argv = ["trajectory", "--config", str(config), "--out", str(tmp_path / "t.csv")]
    script = "import sys\nfrom bohm_equilibrium.cli import main\nsys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(bohm_equilibrium.__file__).parents[1])}
    for flags in ([], ["-W", "error::RuntimeWarning"]):
        child = subprocess.run(
            [sys.executable, *flags, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert child.returncode == 3
        assert child.stderr.startswith("numerical failure: trajectory ")
        assert child.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_trajectory_defaults_to_equilibrium_draw(tmp_path):
    out = tmp_path / "tr.csv"
    assert main(["trajectory", "--t-final", "0.5", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 501


def test_csv_bytes_identical_across_reruns_and_parallel(tmp_path):
    cfg1 = tmp_path / "p1.cfg"
    cfg8 = tmp_path / "p8.cfg"
    base = "samples = 2000\ndt = 0.005\nt_final = 1.0\n"
    cfg1.write_text(base + "parallel = 1\n")
    cfg8.write_text(base + "parallel = 8\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    assert main(["equivariance", "--config", str(cfg1), "--out", str(out_a)]) == 0
    assert main(["equivariance", "--config", str(cfg1), "--out", str(out_b)]) == 0
    assert main(["equivariance", "--config", str(cfg8), "--out", str(out_c)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() == out_c.read_bytes()


def test_meta_records_the_default_out(tmp_path, monkeypatch):
    # without --out the table goes to <subcommand>.csv, and the meta file says so
    monkeypatch.chdir(tmp_path)
    assert main(["trajectory", "--t-final", "0.1"]) == 0
    meta = json.loads((tmp_path / "trajectory.csv.meta.json").read_text())
    assert meta["config"]["out"] == "trajectory.csv"
    assert (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("subcommand", list(cli._SUBCOMMANDS))
def test_meta_sidecar_deterministic(tmp_path, subcommand):
    out = tmp_path / "run.csv"
    meta = tmp_path / "run.csv.meta.json"
    args = [subcommand, "--samples", "500", "--t-final", "0.5", "--out", str(out)]
    assert main(args) == 0
    first = (out.read_bytes(), meta.read_bytes())
    assert main(args) == 0
    assert (out.read_bytes(), meta.read_bytes()) == first
