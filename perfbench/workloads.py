"""Workload definitions: seeded CLI configs and the physics gate for each.

Every workload is one `bohm-equilibrium <subcommand> --config <file>` call.
The config is a flat key = value file written from the workload seed; the
package sees nothing else. Each gate reads the CSV the call wrote and returns
a list of problems (empty when the answer is physically right).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

# Shared physics and integrator settings of every workload.
BASE = {
    "sigma_narrow": 0.05,
    "sigma_wide": 1.0,
    "correlation": "sum",
    "dt": 1e-3,
    "t_final": 2.0,
    "parallel": 1,
}

# Standard errors allowed between an empirical width and its closed form.
WIDTH_SE = 5.0


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _std_se(std: float, n: int) -> float:
    """Standard error of a normal sample's standard deviation."""
    return std / math.sqrt(2.0 * (n - 1))


def gate_equilibrium(text: str, settings: dict) -> list[str]:
    rows = _rows(text)
    problems = []
    expected = [t for t in settings["times"] for _ in range(4)]
    if [float(r["t"]) for r in rows] != expected:
        problems.append(f"expected 4 observables at each of {settings['times']}")
    for r in rows:
        ks = float(r["ks"])
        dev = abs(float(r["empirical_std"]) / float(r["analytic_std"]) - 1.0)
        tag = f"t={r['t']} {r['observable']}"
        if int(r["n"]) != settings["samples"]:
            problems.append(f"{tag}: n={r['n']}, expected {settings['samples']}")
        if not ks < 0.01:
            problems.append(f"{tag}: KS {ks!r} >= 0.01")
        if not dev < 0.02:
            problems.append(f"{tag}: std off by {dev:.3%} (>= 2%)")
    return problems


def gate_surface(text: str, settings: dict) -> list[str]:
    values = {r["metric"]: float(r["value"]) for r in _rows(text)}
    needed = ("n", "max_abs_sum", "sum_width_empirical", "sum_width_equilibrium",
              "diff_width_empirical", "diff_width_analytic")
    missing = [key for key in needed if key not in values]
    if missing:
        return [f"missing metrics {missing}"]
    n = int(values["n"])
    problems = []
    if n != settings["samples"]:
        problems.append(f"n={n}, expected {settings['samples']}")
    if not values["max_abs_sum"] <= 1e-9:
        problems.append(f"max |y1+y2| {values['max_abs_sum']!r} > 1e-9")
    if not values["sum_width_empirical"] < 1e-9:
        problems.append(f"sum width {values['sum_width_empirical']!r} >= 1e-9")
    if not values["sum_width_equilibrium"] > 1.0:
        problems.append(f"equilibrium sum width {values['sum_width_equilibrium']!r} <= 1")
    analytic = values["diff_width_analytic"]
    off = abs(values["diff_width_empirical"] - analytic) / _std_se(analytic, n)
    if not off <= WIDTH_SE:
        problems.append(f"difference width {off:.3g} standard errors off (> {WIDTH_SE:g})")
    return problems


def gate_continuity(text: str, settings: dict) -> list[str]:
    rows = {r["level"]: r for r in _rows(text)}
    if set(rows) != {"coarse", "fine"}:
        return [f"expected coarse and fine rows, got {sorted(rows)}"]
    problems = []
    for norm in ("max_norm", "l2_norm"):
        ratio = float(rows["coarse"][norm]) / float(rows["fine"][norm])
        if not 3.5 <= ratio <= 4.5:
            problems.append(f"{norm} ratio {ratio!r} outside [3.5, 4.5]")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    sizes: dict  # full-size settings on top of BASE
    tiny: dict  # settings for the seconds-long self-test
    gate: Callable[[str, dict], list[str]]
    # Bound by page faults on fresh memory: its time is rescaled by the
    # page-fault kernel (worker.calibrate); equilibrium's arrays stay in cache.
    page_fault_bound: bool

    def settings(self, seed: int, tiny: bool = False) -> dict:
        """Every config key of this workload, from the workload seed."""
        return {**BASE, **(self.tiny if tiny else self.sizes), "seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "equilibrium",
            "equivariance",
            {"samples": 100_000, "times": (0.5, 1.0, 1.5, 2.0)},
            {"samples": 50_000, "t_final": 0.5, "times": (0.25, 0.5)},
            gate_equilibrium,
            False,
        ),
        Workload(
            "surface",
            "ga-constraint",
            {"samples": 8000},
            {"samples": 500},
            gate_surface,
            True,
        ),
        Workload(
            "continuity-grid",
            "continuity",
            {"grid_h": 0.07},
            {},  # the CLI's default grid
            gate_continuity,
            True,
        ),
    )
}


def config_text(settings: dict) -> str:
    """Render settings as the CLI's flat key = value config format."""
    lines = []
    for key, value in settings.items():
        if isinstance(value, tuple):
            value = ", ".join(repr(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
