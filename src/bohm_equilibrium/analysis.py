"""Statistical experiments on trajectory ensembles.

Three experiments: the equivariance check (an equilibrium ensemble stays
distributed as |psi|^2 under the guidance flow), the constraint-surface run
(an ensemble started exactly on the narrow-combination surface stays on it
while an equilibrium ensemble's width grows), and the regularization sweep
(the width ratio R as the narrow packet is squeezed). Each carries its
ensemble as (2, n) mode offsets from the start centers (see dynamics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._normal import _SQRT1_2, _ndtr_sorted
from .dynamics import (
    IntegratorConfig,
    _frame_abs_sum_maxima,
    _sample_modes,
    _transport,
    substream_normals,
)
from .model import (
    OBSERVABLES,
    Correlation,
    TwoParticleState,
    _require_integer,
    _require_positive,
    constraint_width,
    evolve_mode,
    narrow_observable,
    observable_normal,
)


def _require_samples(n: int):
    # an experiment's widths use ddof = 1
    if _require_integer("samples", n) < 2:
        raise ValueError(f"samples must be at least 2, got {n!r}")


def _check_times(times, t_final: float) -> list[float]:
    times = [float(t) for t in times]
    if not times:
        raise ValueError("times must be non-empty")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    # a relative slack, so that a tiny t_final admits no time far past it
    if not all(0.0 <= t <= t_final * (1.0 + 1e-12) for t in times):
        raise ValueError(f"times must lie within [0, t_final={t_final}]")
    return times


def _sweep_states(state: TwoParticleState, widths) -> list[tuple[float, TwoParticleState]]:
    """(width, state) per sweep row; a width is the narrow combination's initial std.

    The narrow mode gets the width over its weight there: half for y1+y2 = 2Y.
    """
    widths = [float(w) for w in widths]
    if not widths:
        raise ValueError("widths must be non-empty")
    for width in widths:
        _require_positive("widths", width)
    if any(w2 >= w1 for w1, w2 in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly decreasing")
    weight = narrow_observable(state.correlation)[1]
    rows = []
    for width in widths:
        try:
            rows.append((width, state.with_narrow_sigma(width / weight)))
        except ValueError as exc:
            raise ValueError(f"widths entry {width!r}: {exc}") from exc
    return rows


# For a non-decreasing CDF every term strictly inside a block [s, e] lies at
# least 1/n below the block's bound, (e+1)/n - F(x_s) or F(x_e) - s/n. Where
# the true CDF rises, the computed ndtr falls by one ulp of 1 at most over
# 2e5 consecutive doubles at each _normal._EDGES edge and 1e7 random
# arguments, and by about 2e-15 at most anywhere (it is within 4 ulps of
# scipy); each term rounds by a few ulps of 1. So a block whose bound is
# below a term already found cannot hold D for any n below about 4e14.
_KS_BLOCK = 32


def _ks_ramps(x, cdf, k):
    """F at the sorted samples x[k], and the ramps k/n and (k + 1)/n."""
    f = np.asarray(cdf(x[k]), dtype=float)
    k = k.astype(float)
    return f, k / x.size, (k + 1.0) / x.size


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a continuous CDF.

    D = max_k max((k+1)/n - F(x_k), F(x_k) - k/n) over the sorted samples
    x_0..x_{n-1}. With n around 1e5, D < 1.95/sqrt(n) holds with >= 99.9%
    probability when the samples follow the reference law.

    cdf must be elementwise and non-decreasing; it is called twice, on
    ascending 1-D subsets of a sorted copy of the samples, NaN last, which
    on the reference law hold a median 8.5% of the samples together. The
    terms at both ends of each block of 32 bound D from below, and a block
    [s, e] holds no term above (e+1)/n - F(x_s) or F(x_e) - s/n, so only the
    blocks whose bound reaches that are evaluated in full. D is the largest
    of the same rounded terms as over all n; a NaN sample makes it NaN.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    _require_samples(n)
    starts = np.arange(0, n, _KS_BLOCK)
    ends = np.column_stack([starts, np.minimum(starts + _KS_BLOCK - 1, n - 1)]).ravel()
    f, lo, hi = _ks_ramps(x, cdf, ends)
    d_min = np.maximum(np.max(hi - f), np.max(f - lo))
    bound = np.maximum(hi[1::2] - f[::2], f[1::2] - lo[::2])
    kept = starts[bound >= d_min]  # none when d_min is NaN
    inside = np.minimum(kept[:, None] + np.arange(_KS_BLOCK), n - 1).ravel()
    f, lo, hi = _ks_ramps(x, cdf, inside)
    return float(np.max(np.maximum(hi - f, f - lo), initial=d_min))


def normal_cdf(mean: float, std: float):
    """CDF of N(mean, std^2) as a callable, for ks_statistic.

    cdf(x) is elementwise and non-decreasing up to rounding. It takes a 1-D
    ascending subset of ks_statistic's sorted samples, NaN last; the order
    is not checked, and other input gives wrong values. x is standardized
    in the order (x - mean) / std and is not written to.
    """
    _require_positive("std", std)

    def cdf(x):
        # (x - mean) / std / sqrt(2), the argument of the ndtr kernel
        return _ndtr_sorted((np.asarray(x, dtype=float) - mean) / std * _SQRT1_2)

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


def _empirical_std(values: np.ndarray, name: str, t: float) -> float:
    """The ddof = 1 std of the values of observable name at time t.

    The one home of the rule that an experiment's width is finite: values
    whose squares overflow give an std that is not, which raises
    FloatingPointError naming the observable and the time.
    """
    with np.errstate(over="ignore"):  # values near 1e300 square to inf
        std = float(np.std(values, ddof=1))
    if not math.isfinite(std):
        raise FloatingPointError(f"empirical std of {name} at t = {t:g} is not finite")
    return std


def _snapshot(state: TwoParticleState, u: np.ndarray, t: float) -> EquivarianceReport:
    """The four observables at time t of the (2, n) offsets u from state's start centers.

    Each observable is a*Y + b*y of the offsets with its OBSERVABLES weights,
    so y1+y2 is 2Y and y1-y2 is y, whatever the ratio of the modes' scales.
    The weights are 0, ±1/2, 1 or 2, so both products are exact, and the
    matrix product rounds a*Y + b*y once, as the sum does. Width and KS do
    not see a translation, so both are taken against the law of
    state.at_origin(): a far center costs the statistics no rounding.
    """
    origin = state.at_origin()
    rows = []
    for name, weights in OBSERVABLES.items():
        values = np.array(weights) @ u
        mean, std = observable_normal(origin, t, name)
        rows.append(
            ObservableStats(
                observable=name,
                n=values.size,
                empirical_std=_empirical_std(values, name, t),
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
    Every statistic covers all n samples: a trajectory that fails to
    integrate raises EnsembleFailureError, and so does an rk4 step too long
    for the state on any leg between report times. The ensemble is carried
    as offsets from the start centers, so far centers cost no precision.
    Each leg runs config on its own step grid from the previous report time
    (or 0) to the next, none for a report at 0.
    """
    _require_samples(n)
    times = _check_times(times, config.t_final)
    _require_integer("parallel_width", parallel_width, 1)
    origin = state.at_origin()
    # u is the only name for the ensemble: one between legs, two during a transport
    u = _sample_modes(origin, substream_normals(seed, 0, n))
    reports = []
    for t0, t in zip((0.0, *times), times):
        if t > t0:
            u = _transport(origin, u, replace(config, t_final=t - t0, record_stride=0), t0)[0]
        reports.append(_snapshot(state, u, t))
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
    wavenumber, so the surface is invariant under the guidance flow. Records
    every step of either method (or every config.record_stride-th if set)
    and reports the worst constraint violation together with the width
    comparison at t_final. The violation is |2Y| over every trajectory at
    every recorded time, bit for bit in O(n + frames), never a whole frame
    per recorded time (see dynamics._frame_abs_sum_maxima). An rk4 step too
    long for the wide mode (the narrow one stays at 0 for any step; see
    dynamics._check_rk4_step), or a recorded step map that is not finite,
    raises EnsembleFailureError. An empirical width that is not finite
    raises FloatingPointError.
    """
    _require_samples(n)
    if state.correlation is not Correlation.SUM_NARROW:
        raise ValueError("constraint experiment requires a sum-narrow state")
    if state.cm_mode.center0 != 0.0 or state.cm_mode.wavenumber != 0.0:
        raise ValueError(
            "constraint experiment requires a centered, zero-wavenumber cm mode"
        )
    config = replace(config, record_stride=config.record_stride or 1)
    origin = state.at_origin()
    u0 = _sample_modes(origin, substream_normals(seed, 0, n, columns=1), surface=True)
    final, _, maps = _transport(origin, u0, config)
    max_abs_sum = float(np.max(_frame_abs_sum_maxima(maps, u0)))

    def offset_width(name):  # widths do not see the start centers: as in _snapshot
        return _empirical_std(np.array(OBSERVABLES[name]) @ final, name, config.t_final)

    sum_width_empirical = offset_width("y1+y2")
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
        diff_width_empirical=offset_width("y1-y2"),
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
    column certifies the ensemble stayed in equilibrium. The normals are
    drawn once from the seed and scaled for each row (common random
    numbers); each row then runs equivariance_check's transport and
    snapshot, and with rk4 a width too narrow for dt raises EnsembleFailureError.
    """
    row_states = _sweep_states(state, widths)
    _require_samples(n)
    z = substream_normals(seed, 0, n)
    narrow_name = narrow_observable(state.correlation)[0]
    rows = []
    for width, row_state in row_states:
        narrow_t = evolve_mode(row_state.narrow_mode, row_state.params, config.t_final)
        origin = row_state.at_origin()
        # no name holds a row's ensemble, so the next row does not keep it alive
        report = _snapshot(
            row_state,
            _transport(origin, _sample_modes(origin, z), replace(config, record_stride=0))[0],
            config.t_final,
        )
        r = narrow_t.sigma / row_state.narrow_mode.sigma0
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
