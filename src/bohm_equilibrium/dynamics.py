"""Trajectory integration and deterministic ensemble sampling.

Sampling uses the Philox counter-based generator with one 256-bit counter
block per sample, so sample i sees the same bits no matter how the ensemble
is chunked. The guidance field is affine in each mode coordinate, so one
fixed RK4 step is an affine map u -> alpha*u + beta with scalar
coefficients; the steps are composed once per run and applied to every
trajectory with elementwise arithmetic, which makes ensembles and single
trajectories agree to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .model import (
    Correlation,
    TwoParticleState,
    _require_finite,
    _require_positive,
    mode_coordinates,
    mode_field,
    particle_coordinates,
)

_WORDS_PER_BLOCK = 4  # Philox-4x64 counter advances one block per advance(1)
_MIN_ADAPTIVE_DT = 1e-12
_MAX_FAILED_FRACTION = 1e-3


class SurfaceMismatchError(ValueError):
    """Raised when the requested start surface is not the narrow combination."""


class StepUnderflowError(RuntimeError):
    """Raised when the adaptive controller drives dt below 1e-12."""


class EnsembleFailureError(RuntimeError):
    """Raised when more than 0.1% of ensemble trajectories fail."""


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit word, got {seed}")
    return seed


def substream_uniforms(seed: int, first_sample: int, n: int) -> np.ndarray:
    """Open-interval uniforms for samples [first_sample, first_sample + n).

    Row i holds the 4 uniforms of counter block first_sample + i, so any
    contiguous chunking of an ensemble reads identical bits.
    """
    seed = _check_seed(seed)
    if n < 0 or first_sample < 0:
        raise ValueError("sample indices must be non-negative")
    bitgen = Philox(key=seed)
    bitgen.advance(first_sample)
    raw = bitgen.random_raw(_WORDS_PER_BLOCK * n).reshape(n, _WORDS_PER_BLOCK)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def substream_normals(seed: int, first_sample: int, n: int, columns: int = 2):
    """Standard normals via the inverse CDF, one substream row per sample."""
    if not 1 <= columns <= _WORDS_PER_BLOCK:
        raise ValueError(f"columns must be in [1, {_WORDS_PER_BLOCK}]")
    return ndtri(substream_uniforms(seed, first_sample, n)[:, :columns])


def sample_equilibrium(
    state: TwoParticleState, n: int, seed: int, first_sample: int = 0
) -> np.ndarray:
    """Draw n configurations (y1, y2) from |psi(.,.,0)|^2.

    Uses the factorized normal law of the mode coordinates: columns 0 and 1
    of each sample's substream feed the cm and relative draws respectively.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    z = substream_normals(seed, first_sample, n)
    big_y = state.cm_mode.center0 + state.cm_mode.sigma0 * z[:, 0]
    small_y = state.rel_mode.center0 + state.rel_mode.sigma0 * z[:, 1]
    y1, y2 = particle_coordinates(big_y, small_y)
    return np.column_stack([y1, y2])


def sample_constraint_surface(
    state: TwoParticleState, n: int, seed: int, surface: str | None = None
) -> np.ndarray:
    """Draw n configurations lying exactly on the narrow-combination surface.

    For a sum-narrow state the surface is y1 + y2 = 0: the cm coordinate is
    set to exactly 0.0 and only the relative coordinate is sampled (from its
    marginal), so the constraint holds to the last bit. Difference-narrow
    states use y1 - y2 = 0 analogously. Requesting the surface of the wide
    combination raises SurfaceMismatchError.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    narrow = state.correlation.combination
    if surface is None:
        surface = narrow
    if surface not in ("sum", "difference"):
        raise ValueError(f"surface must be 'sum' or 'difference', got {surface!r}")
    if surface != narrow:
        raise SurfaceMismatchError(
            f"state is {narrow}-narrow; starting on the {surface} surface would "
            "pin the wide combination instead"
        )
    z = substream_normals(seed, 0, n, columns=1)[:, 0]
    if state.correlation is Correlation.SUM_NARROW:
        small_y = state.rel_mode.center0 + state.rel_mode.sigma0 * z
        y1, y2 = particle_coordinates(0.0, small_y)
    else:
        big_y = state.cm_mode.center0 + state.cm_mode.sigma0 * z
        y1, y2 = particle_coordinates(big_y, 0.0)
    return np.column_stack([y1, y2])


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-stepping controls shared by trajectories and ensembles.

    method 'rk4' uses fixed steps of size dt; 'rk45' is the embedded
    Dormand-Prince adaptive pair with relative tolerance `tolerance`.
    record_stride = 0 records nothing but the endpoints; k > 0 records
    every k-th step.
    """

    method: str = "rk4"
    dt: float = 1e-3
    tolerance: float = 1e-9
    t_final: float = 2.0
    record_stride: int = 0

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"method must be 'rk4' or 'rk45', got {self.method!r}")
        _require_positive("dt", self.dt)
        if not 1e-14 < self.tolerance < 1e-2:
            raise ValueError(
                f"tolerance must lie in (1e-14, 1e-2), got {self.tolerance!r}"
            )
        _require_positive("t_final", self.t_final)
        if not isinstance(self.record_stride, int) or self.record_stride < 0:
            raise ValueError(
                f"record_stride must be a non-negative integer, got {self.record_stride!r}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Recorded path of one configuration-space trajectory."""

    times: np.ndarray
    positions: np.ndarray  # shape (len(times), 2)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        if times.ndim != 1 or positions.shape != (times.size, 2):
            raise ValueError("positions must have shape (len(times), 2)")
        if times.size < 1:
            raise ValueError("trajectory needs at least one sample")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)


@dataclass(frozen=True)
class Ensemble:
    """Propagated ensemble with enough metadata to reproduce it."""

    state: TwoParticleState
    config: IntegratorConfig
    seed: int | None
    t0: float
    initial_positions: np.ndarray
    final_positions: np.ndarray
    failed_indices: tuple[int, ...] = ()
    times: np.ndarray | None = None
    recorded_positions: np.ndarray | None = None  # (len(times), n, 2)

    @property
    def n(self) -> int:
        return self.initial_positions.shape[0]


def _mode_rhs(state: TwoParticleState, t: float, u: np.ndarray) -> np.ndarray:
    """Guidance field on stacked mode coordinates u = [[Y...], [y...]]."""
    out = np.empty_like(u)
    for row, mode in enumerate((state.cm_mode, state.rel_mode)):
        out[row] = mode_field(mode, state.params, t).velocity(u[row])
    return out


def _rk4_step(rhs, stages, u, dt: float):
    """One classical RK4 step; stages holds the field at t, t + dt/2, t + dt."""
    start, middle, end = stages
    k1 = rhs(start, u)
    k2 = rhs(middle, u + (0.5 * dt) * k1)
    k3 = rhs(middle, u + (0.5 * dt) * k2)
    k4 = rhs(end, u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _rk4_maps(
    state: TwoParticleState, t0: float, dt: float, steps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 as affine maps: u_j = a[j] * u_0 + b[j] per mode.

    One RK4 step of an affine field is itself affine, u -> alpha*u + beta
    for each mode. alpha comes from the RK4 stage formula on the homogeneous
    field at u = 1, beta from the full field at u = 0, so the maps carry the
    method's truncation error, never the exact flow. The step maps are
    folded in step order up to steps[-1]; a and b have shape (len(steps), 2).
    """
    t = t0 + np.arange(steps[-1]) * dt
    a = np.empty((len(steps), 2))
    b = np.empty((len(steps), 2))
    for row, mode in enumerate((state.cm_mode, state.rel_mode)):
        stages = [mode_field(mode, state.params, s) for s in (t, t + 0.5 * dt, t + dt)]
        alpha = _rk4_step(lambda field, u: field.rate * u, stages, 1.0, dt)
        beta = _rk4_step(lambda field, u: field.velocity(u), stages, 0.0, dt)
        prefix = [(1.0, 0.0)]
        for alpha_k, beta_k in zip(alpha.tolist(), beta.tolist()):
            a_k, b_k = prefix[-1]
            prefix.append((alpha_k * a_k, alpha_k * b_k + beta_k))
        a[:, row], b[:, row] = np.array(prefix)[steps].T
    return a, b


def _mode_positions(a: np.ndarray, b: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Particle coordinates (..., 2) of the mode map (a, b) applied to u0 = (Y, y)."""
    p1, p2 = particle_coordinates(a[0] * u0[0] + b[0], a[1] * u0[1] + b[1])
    return np.stack([p1, p2], axis=-1)


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_DP_ERR = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def _rk45_advance(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y: np.ndarray,
    t0: float,
    t1: float,
    tolerance: float,
    monitor: Callable[[float, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Adaptive Dormand-Prince step loop from t0 to t1.

    Error is measured against tolerance*(1 + |y|) per component; steps
    shrink by at most 5x and grow by at most 5x per attempt. Raises
    StepUnderflowError below dt = 1e-12.
    """
    t = t0
    dt = min((t1 - t0) / 100.0, 0.1)
    while t < t1:
        remaining = t1 - t
        last = dt >= remaining
        h = remaining if last else dt
        if h < _MIN_ADAPTIVE_DT:
            raise StepUnderflowError(
                f"adaptive step fell below {_MIN_ADAPTIVE_DT:g} at t = {t:.6g}"
            )
        k = [rhs(t, y)]
        for stage in range(1, 6):
            yk = y
            for coeff, ki in zip(_DP_A[stage], k):
                yk = yk + (h * coeff) * ki
            k.append(rhs(t + _DP_C[stage] * h, yk))
        y5 = y
        for coeff, ki in zip(_DP_B5, k):
            y5 = y5 + (h * coeff) * ki
        k.append(rhs(t + h, y5))
        err = np.zeros_like(y)
        for coeff, ki in zip(_DP_ERR, k):
            err = err + (h * coeff) * ki
        scale = tolerance * (1.0 + np.abs(y))
        err_norm = float(np.max(np.abs(err) / scale))
        if err_norm <= 1.0:
            t = t1 if last else t + h
            y = y5
            if monitor is not None:
                monitor(t, y)
            factor = 5.0 if err_norm == 0.0 else 0.9 * err_norm**-0.2
        else:
            factor = max(0.2, 0.9 * err_norm**-0.2)
        dt = h * min(5.0, factor)
    return y


def _step_grid(config: IntegratorConfig) -> tuple[int, float]:
    """Number of fixed steps and the effective dt that lands on t_final."""
    n_steps = max(1, int(round(config.t_final / config.dt)))
    return n_steps, config.t_final / n_steps


def _record_steps(config: IntegratorConfig, n_steps: int) -> np.ndarray:
    """Step 0, every record_stride-th step (if any) and the final step."""
    stride = config.record_stride if config.record_stride > 0 else n_steps
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.array(steps)


def integrate_trajectory(
    state: TwoParticleState,
    start: tuple[float, float],
    config: IntegratorConfig,
    t0: float = 0.0,
) -> Trajectory:
    """Integrate one trajectory from configuration `start` at time t0.

    The ODE is solved in mode coordinates where the two components decouple;
    recorded positions are mapped back to (y1, y2).
    """
    _require_finite("start", start)
    u0 = mode_coordinates(float(start[0]), float(start[1]))

    if config.method == "rk4":
        n_steps, dt = _step_grid(config)
        steps = _record_steps(config, n_steps)
        a, b = _rk4_maps(state, t0, dt, steps)
        return Trajectory(times=t0 + steps * dt, positions=_mode_positions(a.T, b.T, u0))

    times = [t0]
    points = [particle_coordinates(*u0)]
    stride = config.record_stride
    accepted = 0

    def monitor(t, y_now):
        nonlocal accepted
        accepted += 1
        if stride > 0 and accepted % stride == 0 and t < t0 + config.t_final:
            times.append(t)
            points.append(particle_coordinates(y_now[0, 0], y_now[1, 0]))

    def rhs(t, y):
        return _mode_rhs(state, t, y)

    u = np.array([[u0[0]], [u0[1]]])
    final = _rk45_advance(rhs, u, t0, t0 + config.t_final, config.tolerance, monitor)
    times.append(t0 + config.t_final)
    points.append(particle_coordinates(final[0, 0], final[1, 0]))
    return Trajectory(times=np.array(times), positions=np.array(points))


def _propagate_rk45(
    state: TwoParticleState, u: np.ndarray, t0: float, config: IntegratorConfig
) -> np.ndarray:
    """Per-trajectory adaptive integration; failed trajectories end as NaN."""
    final = np.empty_like(u)

    def rhs(t, y):
        return _mode_rhs(state, t, y)

    for i in range(u.shape[1]):
        try:
            final[:, i : i + 1] = _rk45_advance(
                rhs, u[:, i : i + 1], t0, t0 + config.t_final, config.tolerance
            )
        except StepUnderflowError:
            final[:, i] = np.nan
    return final


def propagate_ensemble(
    state: TwoParticleState,
    initial_positions: np.ndarray,
    config: IntegratorConfig,
    parallel_width: int = 1,
    t0: float = 0.0,
    seed: int | None = None,
) -> Ensemble:
    """Propagate every row of initial_positions from t0 to t0 + t_final.

    rk4 composes its steps into one affine map per mode and applies it to
    the whole ensemble at once; rk45 integrates trajectory by trajectory.
    parallel_width is validated and kept for compatibility; it does not
    change the arithmetic. Trajectories whose state turns non-finite are
    marked failed; more than 0.1% failures raise EnsembleFailureError.
    """
    positions = np.asarray(initial_positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("initial_positions must have shape (n, 2)")
    if not np.all(np.isfinite(positions)):
        raise ValueError("initial_positions must be finite")
    if not isinstance(parallel_width, int) or parallel_width < 1:
        raise ValueError(f"parallel_width must be a positive integer, got {parallel_width!r}")
    if config.record_stride > 0 and config.method != "rk4":
        raise ValueError("ensemble recording requires the fixed-step rk4 method")

    n = positions.shape[0]
    u0 = np.vstack(mode_coordinates(positions[:, 0], positions[:, 1]))
    times = None
    recorded = None
    if config.method == "rk4":
        n_steps, dt = _step_grid(config)
        steps = _record_steps(config, n_steps)
        a, b = _rk4_maps(state, t0, dt, steps)
        final = _mode_positions(a[-1], b[-1], u0)
        if config.record_stride > 0:
            times = t0 + steps * dt
            recorded = np.empty((len(steps), n, 2))
            for j in range(len(steps)):
                recorded[j] = _mode_positions(a[j], b[j], u0)
    else:
        final_u = _propagate_rk45(state, u0, t0, config)
        final = np.column_stack(particle_coordinates(final_u[0], final_u[1]))

    failed = np.nonzero(~np.all(np.isfinite(final), axis=1))[0]
    if len(failed) > _MAX_FAILED_FRACTION * n:
        raise EnsembleFailureError(
            f"{len(failed)} of {n} trajectories failed to integrate"
        )
    return Ensemble(
        state=state,
        config=config,
        seed=seed,
        t0=t0,
        initial_positions=positions,
        final_positions=final,
        failed_indices=tuple(failed.tolist()),
        times=times,
        recorded_positions=recorded,
    )
