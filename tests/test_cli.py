"""CLI: config resolution, CSV artifacts, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bohm_equilibrium
import bohm_equilibrium.analysis as analysis
import bohm_equilibrium.cli as cli
from bohm_equilibrium import (
    IntegratorConfig,
    StepUnderflowError,
    TwoParticleState,
    constraint_surface_experiment,
    equivariance_check,
    propagate_ensemble,
    regularization_sweep,
    sample_equilibrium,
)
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


def test_config_duplicate_key(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("samples = 0\nseed = 3\nsamples = 10\n")
    with pytest.raises(ConfigError, match="run.cfg:3: duplicate key 'samples'.*line 1"):
        parse_config_file(str(path))
    out = tmp_path / "eq.csv"
    assert main(["equivariance", "--config", str(path), "--out", str(out)]) == 2
    assert "duplicate key" in capsys.readouterr().err
    assert not out.exists()


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
    monkeypatch.setattr(analysis, "sample_equilibrium", _stop)
    monkeypatch.setattr(analysis, "sample_constraint_surface", _stop)
    monkeypatch.setattr(analysis, "_check_rk4_step", _stop)
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


def test_ga_constraint_stiff_wide_mode_exits_3_without_output(tmp_path, capsys):
    # recording needs rk4, so the remedy is a smaller dt, not rk45
    out = tmp_path / "ga.csv"
    assert main(["ga-constraint", "--sigma-wide", "0.02", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "wide mode sigma0 = 0.02" in err and "lower dt" in err
    assert list(tmp_path.iterdir()) == []


def test_ga_constraint_rk45_exits_2_without_output(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("method = rk45\n")
    out = tmp_path / "ga.csv"
    assert main(["ga-constraint", "--config", str(config), "--out", str(out)]) == 2
    assert "method must be 'rk4'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_stiff_width_in_equilibrium_with_rk45(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("method = rk45\nsigma_narrow = 0.005\nsamples = 20000\n")
    out = tmp_path / "eq.csv"
    assert main(["equivariance", "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert max(float(row[4]) for row in rows) < 1.95 / np.sqrt(20000)


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


def test_continuity_fine_grid_peak_memory(tmp_path):
    # grid_h = 0.07 gives 1439^2 and 2877^2 grids; whole-grid stage arrays
    # took 877 MB (VmHWM), row blocks 199 MB with a second grid for the
    # square in l2_norm, and 120 MB with the square taken in place
    config = tmp_path / "run.cfg"
    config.write_text("grid_h = 0.07\n")
    argv = ["continuity", "--config", str(config), "--out", str(tmp_path / "c.csv")]
    assert run_peak_rss_mb(argv) < 160


@pytest.mark.parametrize(
    "subcommand", ["equivariance", "ga-constraint", "sweep", "continuity", "trajectory"]
)
def test_default_size_peak_memory(tmp_path, subcommand):
    # each peaked at 37-60 MB (VmHWM); for ga-constraint's n = 1e5 with all
    # 2001 frames a stacked recording would take 3.2 GB, so its rk4 maps are
    # applied in 16384-start chunks
    assert run_peak_rss_mb([subcommand, "--out", str(tmp_path / "x.csv")]) < 100


# RLIMIT_AS is set before numpy is imported, so only the run's arrays meet it
_LOW_MEMORY_CHILD = """
import resource
import sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.stderr = sys.stdout
from bohm_equilibrium.cli import main
print(main(sys.argv[1:]))
"""


def test_impossible_allocation_exits_2_without_output(tmp_path, tmp_path_factory):
    # grid_h = 0.005 needs a 20127^2 coarse residual (3.0 GiB) and a 40253^2
    # fine one (12.1 GiB)
    config = tmp_path_factory.mktemp("cfg") / "run.cfg"
    config.write_text("grid_h = 0.005\n")
    argv = ["continuity", "--config", str(config), "--out", str(tmp_path / "c.csv")]
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_rk45_trajectory_that_overflows_exits_3_without_output(
    tmp_path, tmp_path_factory, capsys
):
    config = tmp_path_factory.mktemp("cfg") / "run.cfg"
    config.write_text("method = rk45\nstart_y1 = 1e307\nstart_y2 = 1e307\n")
    out = tmp_path / "tr.csv"
    assert main(["trajectory", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "state is not finite" in err and "fell below" not in err
    assert list(tmp_path.iterdir()) == []


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
