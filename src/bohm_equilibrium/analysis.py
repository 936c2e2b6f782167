"""Statistical experiments on trajectory ensembles.

Three experiments: the equivariance check (an equilibrium ensemble stays
distributed as |psi|^2 under the guidance flow), the constraint-surface run
(an ensemble started exactly on the narrow-combination surface stays on it
while an equilibrium ensemble's width grows), and the regularization sweep
(the width ratio R as the narrow packet is squeezed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._normal import ndtr
from .dynamics import (
    IntegratorConfig,
    _check_rk4_step,
    _frame_abs_sum_maxima,
    propagate_ensemble,
    sample_constraint_surface,
    sample_equilibrium,
)
from .model import (
    OBSERVABLES,
    Correlation,
    TwoParticleState,
    _require_positive,
    constraint_width,
    evolve_mode,
    observable_normal,
)


def _require_samples(n: int):
    # an experiment's widths use ddof = 1
    if n < 2:
        raise ValueError(f"samples must be at least 2, got {n!r}")


def _check_times(times, t_final: float) -> list[float]:
    times = [float(t) for t in times]
    if not times:
        raise ValueError("times must be non-empty")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    if not all(0.0 <= t <= t_final + 1e-12 for t in times):
        raise ValueError(f"times must lie within [0, t_final={t_final}]")
    return times


def _sweep_states(state: TwoParticleState, widths) -> list[tuple[float, TwoParticleState]]:
    """(width, state) per sweep row; a width is the narrow combination's initial std.

    For a sum-narrow state y1+y2 = 2Y, so the cm mode gets half the width.
    """
    widths = [float(w) for w in widths]
    if not widths:
        raise ValueError("widths must be non-empty")
    for width in widths:
        _require_positive("widths", width)
    if any(w2 >= w1 for w1, w2 in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly decreasing")
    scale = 0.5 if state.correlation is Correlation.SUM_NARROW else 1.0
    rows = []
    for width in widths:
        try:
            rows.append((width, state.with_narrow_sigma(scale * width)))
        except ValueError as exc:
            raise ValueError(f"widths entry {width!r}: {exc}") from exc
    return rows


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a continuous CDF.

    Uses the sorted-sample form D = max_i max(i/n - F(x_i), F(x_i) - (i-1)/n).
    Returns the statistic only; with n around 1e5, D < 1.95/sqrt(n) holds with
    >= 99.9% probability when the samples follow the reference law.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    _require_samples(n)
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1, dtype=float)
    return float(max(np.max(i / n - f), np.max(f - (i - 1.0) / n)))


def normal_cdf(mean: float, std: float):
    """CDF of N(mean, std^2) as a callable, for ks_statistic."""
    _require_positive("std", std)

    def cdf(x):
        return ndtr((np.asarray(x, dtype=float) - mean) / std)

    return cdf


@dataclass(frozen=True)
class ObservableStats:
    """Per-observable comparison of an ensemble against |psi|^2."""

    observable: str
    n: int
    empirical_std: float
    analytic_std: float
    ks: float


@dataclass(frozen=True)
class EquivarianceReport:
    """Snapshot of the four linear observables at one time."""

    t: float
    observables: tuple[ObservableStats, ...]

    def get(self, observable: str) -> ObservableStats:
        for stats in self.observables:
            if stats.observable == observable:
                return stats
        raise KeyError(observable)

    @property
    def max_ks(self) -> float:
        return max(stats.ks for stats in self.observables)


def _snapshot(state: TwoParticleState, positions: np.ndarray, t: float) -> EquivarianceReport:
    rows = []
    for name, coefficients in OBSERVABLES.items():
        values = positions @ coefficients
        mean, std = observable_normal(state, t, name)
        rows.append(
            ObservableStats(
                observable=name,
                n=values.size,
                empirical_std=float(np.std(values, ddof=1)),
                analytic_std=std,
                ks=ks_statistic(values, normal_cdf(mean, std)),
            )
        )
    return EquivarianceReport(t=t, observables=tuple(rows))


def equivariance_check(
    state: TwoParticleState,
    n: int,
    seed: int,
    config: IntegratorConfig,
    times,
    parallel_width: int = 1,
) -> list[EquivarianceReport]:
    """Sample |psi(.,.,0)|^2, transport the ensemble, compare at each time.

    times must be strictly increasing and lie in [0, config.t_final]. For
    each requested time the four linear observables are tested against
    their exact normal laws. Equivariance predicts every KS statistic stays
    at the sampling-noise level no matter how far the ensemble is pushed.
    Trajectories that fail to integrate (at most 0.1%, see
    propagate_ensemble) are dropped, so ObservableStats.n counts survivors.
    An rk4 step too long for the state raises EnsembleFailureError first.
    """
    _require_samples(n)
    times = _check_times(times, config.t_final)
    _check_rk4_step(state, config)

    positions = sample_equilibrium(state, n, seed)
    reports = []
    t_now = 0.0
    for t in times:
        if t > t_now:
            segment = replace(config, t_final=t - t_now, record_stride=0)
            ensemble = propagate_ensemble(
                state,
                positions,
                segment,
                parallel_width=parallel_width,
                t0=t_now,
                seed=seed,
            )
            positions = ensemble.final_positions
            if ensemble.failed_indices:
                # NaN rows would poison the statistics and the next segment
                positions = np.delete(positions, ensemble.failed_indices, axis=0)
            t_now = t
        reports.append(_snapshot(state, positions, t))
    return reports


@dataclass(frozen=True)
class ConstraintReport:
    """Outcome of the constraint-surface experiment.

    max_abs_sum is the largest |y1+y2| seen over the whole run (all recorded
    times, all trajectories); it staying at the arithmetic floor while
    sum_width_equilibrium grows past unity is the point of the experiment.
    The y1-y2 spread must instead track its equilibrium law.
    """

    n: int
    t_final: float
    max_abs_sum: float
    sum_width_empirical: float
    sum_width_equilibrium: float
    width_mismatch_ratio: float
    diff_width_empirical: float
    diff_width_analytic: float


def constraint_surface_experiment(
    state: TwoParticleState, n: int, seed: int, config: IntegratorConfig
) -> ConstraintReport:
    """Propagate an ensemble started exactly on y1 + y2 = 0.

    Requires a sum-narrow state whose cm mode is centered with zero
    wavenumber, so the surface is invariant under the guidance flow, and
    method 'rk4', since only fixed steps are recorded. Records every step
    (or config.record_stride if set) and reports the worst constraint
    violation together with the width comparison at t_final. The violation
    is measured on every trajectory at every recorded time by
    dynamics._frame_abs_sum_maxima, never on whole frames. An rk4 step too
    long for the wide mode raises EnsembleFailureError before sampling; the
    narrow mode stays exactly at 0 for any step.
    """
    _require_samples(n)
    if state.correlation is not Correlation.SUM_NARROW:
        raise ValueError("constraint experiment requires a sum-narrow state")
    if state.cm_mode.center0 != 0.0 or state.cm_mode.wavenumber != 0.0:
        raise ValueError(
            "constraint experiment requires a centered, zero-wavenumber cm mode"
        )
    if config.method != "rk4":
        raise ValueError(f"method must be 'rk4' to record every step, got {config.method!r}")
    _check_rk4_step(state, config, _surface=True)
    config = replace(config, record_stride=config.record_stride or 1)
    starts = sample_constraint_surface(state, n, seed)
    ensemble = propagate_ensemble(state, starts, config, seed=seed)
    max_abs_sum = float(np.max(_frame_abs_sum_maxima(ensemble)))
    final = ensemble.final_positions
    sum_final = final[:, 0] + final[:, 1]
    diff_final = final[:, 0] - final[:, 1]
    sum_width_empirical = float(np.std(sum_final, ddof=1))
    sum_width_equilibrium = constraint_width(state, config.t_final, "sum")
    if sum_width_empirical == 0.0:
        ratio = math.inf
    else:
        ratio = sum_width_equilibrium / sum_width_empirical
    return ConstraintReport(
        n=n,
        t_final=config.t_final,
        max_abs_sum=max_abs_sum,
        sum_width_empirical=sum_width_empirical,
        sum_width_equilibrium=sum_width_equilibrium,
        width_mismatch_ratio=ratio,
        diff_width_empirical=float(np.std(diff_final, ddof=1)),
        diff_width_analytic=constraint_width(state, config.t_final, "difference"),
    )


@dataclass(frozen=True)
class SweepRow:
    """One regularization width in the sweep.

    delta_y_f is R * delta_y_i by construction (the analytic prediction);
    delta_y_f_empirical is the measured final width of the narrow
    combination; ks is the worst KS statistic over the four observables at
    t_final.
    """

    delta_y_i: float
    r: float
    delta_y_f: float
    delta_y_f_empirical: float
    ks: float


@dataclass(frozen=True)
class SweepResult:
    """One row per width, in the order given; the settings stay the caller's."""

    rows: tuple[SweepRow, ...]


def regularization_sweep(
    state: TwoParticleState,
    widths,
    n: int,
    seed: int,
    config: IntegratorConfig,
) -> SweepResult:
    """Shrink the narrow combination's initial width and re-run equivariance.

    widths are initial stds of the narrow combination (y1+y2 for sum-narrow
    states), strictly decreasing. Each row reports the spreading ratio
    R = sigma_narrow(t_final) / sigma_narrow(0): R grows as the width
    shrinks, keeping the final width R * delta_y_i finite, while the KS
    column certifies the ensemble stayed in equilibrium. The same seed is
    reused across rows (common random numbers). With rk4, every row state
    is checked against _check_rk4_step before the first row runs, and a
    width too narrow for dt raises EnsembleFailureError.
    """
    row_states = _sweep_states(state, widths)
    for _, row_state in row_states:
        _check_rk4_step(row_state, config)
    narrow_name = "y1+y2" if state.correlation is Correlation.SUM_NARROW else "y1-y2"
    rows = []
    for width, row_state in row_states:
        narrow_t = evolve_mode(row_state.narrow_mode, row_state.params, config.t_final)
        report = equivariance_check(
            row_state, n, seed, config, [config.t_final]
        )[0]
        r = narrow_t.sigma / narrow_t.mode.sigma0
        rows.append(
            SweepRow(
                delta_y_i=width,
                r=r,
                delta_y_f=r * width,
                delta_y_f_empirical=report.get(narrow_name).empirical_std,
                ks=report.max_ks,
            )
        )
    return SweepResult(rows=tuple(rows))
