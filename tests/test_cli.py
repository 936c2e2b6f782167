"""CLI: config resolution, CSV artifacts, exit codes, determinism."""

import dataclasses
import json

import numpy as np
import pytest

import bohm_equilibrium.cli as cli
from bohm_equilibrium import StepUnderflowError
from bohm_equilibrium.cli import ConfigError, RunConfig, load_config, main, parse_config_file


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


def test_continuity_csv(tmp_path):
    out = tmp_path / "cont.csv"
    assert main(["continuity", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["level", "h", "tau", "max_norm", "l2_norm"]
    assert [row[0] for row in rows] == ["coarse", "fine"]
    ratio = float(rows[0][3]) / float(rows[1][3])
    assert 3.5 < ratio < 4.5


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


def test_meta_sidecar_deterministic(tmp_path):
    out = tmp_path / "eq.csv"
    args = ["equivariance", "--samples", "500", "--t-final", "0.5", "--out", str(out)]
    assert main(args) == 0
    first = (tmp_path / "eq.csv.meta.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "eq.csv.meta.json").read_bytes() == first
