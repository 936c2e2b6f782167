"""Command-line front end: run the experiments, write CSV tables.

Subcommands: equivariance, ga-constraint, sweep, continuity, trajectory.
Settings come from built-in defaults, overridden by a flat key=value config
file (--config), overridden by flags. Every run writes one CSV table (17
significant digits, "\\n" line endings, so reruns are byte-identical) plus a
<out>.meta.json sidecar with the resolved settings.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass

from . import __version__, analysis, dynamics, guidance
from .analysis import (
    constraint_surface_experiment,
    equivariance_check,
    regularization_sweep,
)
from .dynamics import (
    EnsembleFailureError,
    IntegratorConfig,
    StepUnderflowError,
    integrate_trajectory,
    sample_equilibrium,
)
from .guidance import continuity_convergence
from .model import (
    OBSERVABLES,
    Correlation,
    PhysicalParams,
    TwoParticleState,
    _require_finite,
    _require_integer,
    _require_positive,
    observable_normal,
)


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or inconsistent settings."""


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",")] if text else []
    if "" in items:
        raise ValueError(f"empty entry in {text!r}")
    return tuple(float(part) for part in items)


@dataclass
class RunConfig:
    """Fully resolved settings for one CLI run."""

    hbar: float = 1.0
    mass: float = 1.0
    sigma_narrow: float = 0.05
    sigma_wide: float = 1.0
    correlation: str = "sum"
    cm_center: float = 0.0
    rel_center: float = 0.0
    cm_wavenumber: float = 0.0
    rel_wavenumber: float = 0.0
    method: str = "rk4"
    dt: float = 1e-3
    tolerance: float = 1e-9
    t_final: float = 2.0
    record_stride: int = 0
    samples: int = 100_000
    seed: int = 42
    parallel: int = 1
    times: tuple[float, ...] | None = None
    sweep_widths: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    grid_h: float | None = None
    grid_tau: float | None = None
    start_y1: float | None = None
    start_y2: float | None = None
    out: str | None = None

    def validate(self):
        try:
            for key, value in dataclasses.asdict(self).items():
                if isinstance(value, (float, tuple)):
                    _require_finite(key, value)
            # checked here, not left to GaussianMode or ResidualGrid, so a bad
            # width or grid step names its key
            for key in ("sigma_narrow", "sigma_wide", "grid_h", "grid_tau"):
                if getattr(self, key) is not None:
                    _require_positive(key, getattr(self, key))
            state = self.state()
            self.integrator()
            analysis._require_samples(self.samples)
            dynamics._check_seed(self.seed)
            _require_integer("parallel_width", self.parallel, 1)
            analysis._check_times(self.resolved_times(), self.t_final)
            for t in (0.0, self.t_final, *self.resolved_times()):
                for name in OBSERVABLES:
                    observable_normal(state, t, name)
            analysis._sweep_states(state, self.sweep_widths)
            verdict = guidance._coarse_grid_verdict(state, self.t_final, self.grid_h, self.grid_tau)
            if verdict is not None:
                raise ValueError(f"{verdict} at t_final")
            # resolved here, so the meta sidecar records the tau continuity uses
            if self.grid_tau is None:
                self.grid_tau = guidance._default_grid_tau(state, self.t_final)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if (self.start_y1 is None) != (self.start_y2 is None):
            raise ConfigError("start_y1 and start_y2 must be set together")

    def state(self) -> TwoParticleState:
        return TwoParticleState.from_widths(
            sigma_narrow=self.sigma_narrow,
            sigma_wide=self.sigma_wide,
            correlation=self.correlation,
            params=PhysicalParams(hbar=self.hbar, mass=self.mass),
            cm_center=self.cm_center,
            rel_center=self.rel_center,
            cm_wavenumber=self.cm_wavenumber,
            rel_wavenumber=self.rel_wavenumber,
        )

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(
            method=self.method,
            dt=self.dt,
            tolerance=self.tolerance,
            t_final=self.t_final,
            record_stride=self.record_stride,
        )

    def resolved_times(self) -> tuple[float, ...]:
        return self.times if self.times is not None else (self.t_final,)


# field types are strings (postponed annotations); the leading name picks the parser
_PARSERS_BY_TYPE = {"float": float, "int": int, "str": str, "tuple": _parse_float_list}
_KEY_PARSERS = {
    field.name: _PARSERS_BY_TYPE[re.match(r"\w+", field.type)[0]]
    for field in dataclasses.fields(RunConfig)
}


def parse_config_file(path: str) -> dict:
    """Read a flat key = value file; '#' starts a comment.

    Unknown and repeated keys fail.
    """
    settings = {}
    key_lines = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in key_lines:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r}, first set on line {key_lines[key]}"
            )
        key_lines[key] = lineno
        try:
            settings[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid value for {key}: {exc}") from exc
    return settings


def load_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then the config file, then flag overrides; validates last."""
    settings = {}
    if config_path is not None:
        settings.update(parse_config_file(config_path))
    settings.update({k: v for k, v in overrides.items() if v is not None})
    config = RunConfig(**settings)
    config.validate()
    return config


def _format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _create(path: str, **options):
    try:
        return open(path, "w", encoding="utf-8", **options)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_csv(path: str, header, rows):
    with _create(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(value) for value in row])


def write_meta(path: str, subcommand: str, config: RunConfig):
    meta = {
        "tool": "bohm-equilibrium",
        "version": __version__,
        "subcommand": subcommand,
        "config": dataclasses.asdict(config),
    }
    with _create(path) as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_equivariance(config: RunConfig):
    reports = equivariance_check(
        config.state(),
        config.samples,
        config.seed,
        config.integrator(),
        config.resolved_times(),
        parallel_width=config.parallel,
    )
    rows = [
        (report.t, stats.observable, stats.empirical_std, stats.analytic_std, stats.ks, stats.n)
        for report in reports
        for stats in report.observables
    ]
    worst = max(report.max_ks for report in reports)
    bound = 1.95 / math.sqrt(config.samples)
    header = ("t", "observable", "empirical_std", "analytic_std", "ks", "n")
    return header, rows, (
        f"equivariance: n={config.samples}, {len(reports)} time(s), "
        f"max KS = {worst:.4g} (noise level ~{bound:.4g})"
    )


def _run_ga_constraint(config: RunConfig):
    report = constraint_surface_experiment(
        config.state(), config.samples, config.seed, config.integrator()
    )
    return ("metric", "value"), dataclasses.asdict(report).items(), (
        f"ga-constraint: max |y1+y2| = {report.max_abs_sum:.3g} over "
        f"[0, {config.t_final:g}]; equilibrium sum width would be "
        f"{report.sum_width_equilibrium:.4g}"
    )


def _run_sweep(config: RunConfig):
    result = regularization_sweep(
        config.state(),
        config.sweep_widths,
        config.samples,
        config.seed,
        config.integrator(),
    )
    rows = [
        (row.delta_y_i, row.delta_y_f, row.delta_y_f_empirical, row.r, row.ks)
        for row in result.rows
    ]
    header = ("delta_y_i", "delta_y_f_analytic", "delta_y_f_empirical", "R", "ks")
    worst = max(row.ks for row in result.rows)
    return header, rows, (
        f"sweep: {len(result.rows)} widths down to {result.rows[-1].delta_y_i:g}, "
        f"R up to {result.rows[-1].r:.4g}, max KS = {worst:.4g}"
    )


def _run_continuity(config: RunConfig):
    levels = continuity_convergence(config.state(), config.t_final, config.grid_h, config.grid_tau)
    rows = [(level, grid.h, grid.tau, res.max_norm, res.l2_norm)
            for level, (grid, res) in levels.items()]
    peak_coarse, peak_fine = (row[3] for row in rows)
    return ("level", "h", "tau", "max_norm", "l2_norm"), rows, (
        f"continuity: max-norm {peak_coarse:.4g} -> {peak_fine:.4g} "
        f"under grid halving (ratio {peak_coarse / peak_fine:.3g}, expect ~4)"
    )


def _run_trajectory(config: RunConfig):
    state = config.state()
    integrator = config.integrator()
    if config.start_y1 is not None:
        start = (config.start_y1, config.start_y2)
    else:
        start = tuple(sample_equilibrium(state, 1, config.seed)[0])
    if integrator.record_stride == 0:
        integrator = dataclasses.replace(integrator, record_stride=1)
    trajectory = integrate_trajectory(state, start, integrator)
    rows = [
        (t, position[0], position[1])
        for t, position in zip(trajectory.times, trajectory.positions)
    ]
    final = trajectory.positions[-1]
    return ("t", "y1", "y2"), rows, (
        f"trajectory: {len(rows)} samples from ({start[0]:.6g}, {start[1]:.6g}) "
        f"to ({final[0]:.6g}, {final[1]:.6g})"
    )


# each runner takes the resolved config and returns (header, rows, summary)
_SUBCOMMANDS = {
    "equivariance": (
        _run_equivariance,
        "sample |psi|^2, transport the ensemble, test the four linear observables",
    ),
    "ga-constraint": (
        _run_ga_constraint,
        "propagate an ensemble started exactly on y1 + y2 = 0",
    ),
    "sweep": (
        _run_sweep,
        "re-run the equivariance test while shrinking the narrow width",
    ),
    "continuity": (
        _run_continuity,
        "measure the discretized continuity-equation residual on two grids",
    ),
    "trajectory": (
        _run_trajectory,
        "integrate and dump a single configuration-space trajectory",
    ),
}


# flags shared by every subcommand; each parses like the config key it sets
_FLAGS = {
    "seed": dict(help="RNG seed (unsigned 64-bit)"),
    "samples": dict(help="ensemble size"),
    "t_final": dict(help="end time"),
    "dt": dict(help="fixed step size for rk4"),
    "sigma_narrow": dict(help="initial width of the narrow mode"),
    "sigma_wide": dict(help="initial width of the wide mode"),
    "correlation": dict(
        help="which combination of y1, y2 is narrow",
        choices=tuple(member.value for member in Correlation),
    ),
    "out": dict(help="output CSV path", metavar="PATH"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohm-equilibrium",
        description="Pilot-wave ensembles for an entangled two-particle Gaussian state",
        epilog="subcommands:\n"
        + "".join(f"  {name:16}{help_text}\n" for name, (_, help_text) in _SUBCOMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=_SUBCOMMANDS, help="one of the subcommands below")
    parser.add_argument("--config", metavar="PATH", help="flat key=value settings file")
    for key, options in _FLAGS.items():
        parser.add_argument("--" + key.replace("_", "-"), type=_KEY_PARSERS[key], **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = dict(vars(args))
    del overrides["subcommand"], overrides["config"]
    try:
        config = load_config(args.config, overrides)
        if config.out is None:
            config.out = f"{args.subcommand}.csv"
        out = config.out
        if not out:
            raise ConfigError("out must be a non-empty path")
        meta = out + ".meta.json"
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ConfigError(f"cannot write {out}: its directory does not exist")
        for path in (out, meta):
            if os.path.isdir(path):
                raise ConfigError(f"cannot write {path}: it is a directory")
        header, rows, summary = _SUBCOMMANDS[args.subcommand][0](config)
        write_csv(out, header, rows)
        write_meta(meta, args.subcommand, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the array it could not allocate; a bare MemoryError names nothing
        reason = str(exc) or f"{args.subcommand} could not allocate its working memory"
        print(f"error: not enough memory: {reason}", file=sys.stderr)
        return 2
    except (StepUnderflowError, EnsembleFailureError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(summary)
    return 0
