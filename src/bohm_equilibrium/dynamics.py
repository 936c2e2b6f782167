"""Trajectory integration and deterministic ensemble sampling.

Sampling uses the Philox counter-based generator with one 256-bit counter
block per sample, so sample i sees the same bits no matter how the ensemble
is chunked. The guidance field is affine in each mode coordinate, so one
fixed RK4 step is an affine map u -> alpha*u + beta with scalar
coefficients; the steps are composed once per run and applied to every
trajectory with elementwise arithmetic, which makes ensembles and single
trajectories agree to the bit. Adaptive Dormand-Prince runs each trajectory
as one lane of a single step loop, with its own time and step size, so it
agrees to the bit as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.random import Philox

from ._normal import ndtri
from .model import (
    Correlation,
    TwoParticleState,
    _require_finite,
    _require_positive,
    _spread_rate,
    mode_coordinates,
    mode_field,
    particle_coordinates,
)

_WORDS_PER_BLOCK = 4  # Philox-4x64 counter advances one block per advance(1)
_MIN_ADAPTIVE_DT = 1e-12
_MAX_FAILED_FRACTION = 1e-3
_FRAME_CHUNK = 16384  # starts per chunk in _frame_abs_sum_maxima


class StepUnderflowError(RuntimeError):
    """Raised when the adaptive controller drives dt below 1e-12."""


class EnsembleFailureError(RuntimeError):
    """Raised when an ensemble or trajectory cannot be integrated faithfully.

    Either more than 0.1% of an ensemble's trajectories failed, or the fixed
    rk4 step is too long for the state (see _check_rk4_step), or a
    trajectory's state is not finite: an rk4 position at some recorded time,
    or an rk45 step that shrank to the floor on a non-finite error estimate.
    """


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit word, got {seed}")
    return seed


def _check_parallel_width(parallel_width: int):
    if not isinstance(parallel_width, int) or parallel_width < 1:
        raise ValueError(f"parallel_width must be a positive integer, got {parallel_width!r}")


def substream_uniforms(
    seed: int, first_sample: int, n: int, columns: int = _WORDS_PER_BLOCK
) -> np.ndarray:
    """Open-interval uniforms for samples [first_sample, first_sample + n).

    Row i holds the first `columns` of the 4 uniforms of counter block
    first_sample + i, so any contiguous chunking of an ensemble reads
    identical bits.
    """
    seed = _check_seed(seed)
    if n < 1 or first_sample < 0:
        raise ValueError(f"need n >= 1 and first_sample >= 0, got {n} and {first_sample}")
    if not 1 <= columns <= _WORDS_PER_BLOCK:
        raise ValueError(f"columns must be in [1, {_WORDS_PER_BLOCK}]")
    bitgen = Philox(key=seed)
    bitgen.advance(first_sample)
    raw = bitgen.random_raw(_WORDS_PER_BLOCK * n).reshape(n, _WORDS_PER_BLOCK)[:, :columns]
    return _uniforms_from_words(raw)


def _uniforms_from_words(raw: np.ndarray) -> np.ndarray:
    """Map 64-bit words to uniforms in (0, 1) through their top 53 bits k.

    The uniform is (k + 0.5) * 2^-53, the midpoint of bin k. For k >= 2^52
    the + 0.5 rounds to even, and the last bin's midpoint rounds to 1.0, so
    that one value is clamped to 1 - 2^-53, where ndtri is still finite. The
    normal draws are thus bounded unevenly: the smallest is ndtri(2^-54)
    = -8.29, the largest ndtri(1 - 2^-53) = +8.21 (the clamped word; the
    next-largest is +8.13).
    """
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def substream_normals(seed: int, first_sample: int, n: int, columns: int = 2):
    """Standard normals via the inverse CDF, one substream row per sample."""
    return ndtri(substream_uniforms(seed, first_sample, n, columns))


def sample_equilibrium(
    state: TwoParticleState, n: int, seed: int, first_sample: int = 0
) -> np.ndarray:
    """Draw n configurations (y1, y2) from |psi(.,.,0)|^2.

    Uses the factorized normal law of the mode coordinates: columns 0 and 1
    of each sample's substream feed the cm and relative draws respectively.
    """
    z = substream_normals(seed, first_sample, n)
    big_y = state.cm_mode.center0 + state.cm_mode.sigma0 * z[:, 0]
    small_y = state.rel_mode.center0 + state.rel_mode.sigma0 * z[:, 1]
    y1, y2 = particle_coordinates(big_y, small_y)
    return np.column_stack([y1, y2])


def sample_constraint_surface(state: TwoParticleState, n: int, seed: int) -> np.ndarray:
    """Draw n configurations lying exactly on the narrow-combination surface.

    For a sum-narrow state the surface is y1 + y2 = 0: the cm coordinate is
    set to exactly 0.0 and only the relative coordinate is sampled (from its
    marginal), so the constraint holds to the last bit. Difference-narrow
    states use y1 - y2 = 0 analogously.
    """
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
    """Starts and end points of a propagated ensemble.

    A recorded rk4 run keeps its composed step maps; frames() applies them.
    """

    seed: int | None
    initial_positions: np.ndarray
    final_positions: np.ndarray
    failed_indices: tuple[int, ...] = ()
    times: np.ndarray | None = None
    maps: tuple[np.ndarray, np.ndarray] | None = None  # (a, b), each (len(times), 2)

    def frames(self):
        """Yield the (n, 2) positions at each recorded time, one frame at a time."""
        u0 = _mode_starts(self.initial_positions)
        for a_j, b_j in zip(*(self.maps or ())):
            yield _mode_positions(a_j, b_j, u0)


def _mode_rhs(state: TwoParticleState, t, u: np.ndarray) -> np.ndarray:
    """Guidance field on stacked mode coordinates u = [[Y...], [y...]].

    t is one time or one time per column of u.
    """
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


def _step_grid(config: IntegratorConfig) -> tuple[int, float]:
    """Number of fixed steps and the effective dt that lands on t_final."""
    n_steps = max(1, int(round(config.t_final / config.dt)))
    return n_steps, config.t_final / n_steps


def _check_rk4_step(state: TwoParticleState, config: IntegratorConfig, _surface=False):
    """Refuse an rk4 step too long for either mode of the state.

    A mode's stretch rate peaks at beta/2 at t = 1/beta. Past rate * h = 0.5,
    with h the step actually taken, rk4 moves the ensemble visibly off |psi|^2
    (KS 0.227 against a noise level of 0.0138 at sigma_narrow = 0.005,
    n = 2e4), so the run raises EnsembleFailureError instead. rk45 passes.
    With _surface (a run started on the narrow surface, whose narrow mode
    stays exactly at 0 for any step) only the wide mode is checked, and the
    message asks for a smaller dt, since recording every step needs rk4.
    """
    if config.method != "rk4":
        return
    step = _step_grid(config)[1]
    modes = (("narrow", state.narrow_mode), ("wide", state.wide_mode))
    if _surface:
        modes = modes[1:]
    remedy = "lower dt, since recording needs rk4" if _surface else "use method = rk45"
    for label, mode in modes:
        if 0.5 * _spread_rate(mode, state.params) * step > 0.5:
            raise EnsembleFailureError(
                f"{label} mode sigma0 = {mode.sigma0:g} makes the guidance field "
                f"stiff for rk4 with step {step:g}; {remedy}"
            )


def _rk4_maps(
    state: TwoParticleState, config: IntegratorConfig, t0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step RK4 as affine maps: u_j = a[j] * u_0 + b[j] per mode.

    One RK4 step of an affine field is itself affine, u -> alpha*u + beta
    for each mode. alpha comes from the RK4 stage formula on the homogeneous
    field at u = 1, beta from the full field at u = 0, so the maps carry the
    method's truncation error, never the exact flow. Returns (times, a, b)
    at step 0, every record_stride-th step and the last step; a and b have
    shape (len(times), 2) and hold the step maps folded up to each of them.
    """
    n_steps, dt = _step_grid(config)
    steps = np.append(np.arange(0, n_steps, config.record_stride or n_steps), n_steps)
    t = t0 + np.arange(n_steps) * dt
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
    return t0 + steps * dt, a, b


def _mode_starts(positions: np.ndarray) -> np.ndarray:
    """Mode coordinates (2, n), rows Y and y, of the (n, 2) positions."""
    return np.vstack(mode_coordinates(positions[:, 0], positions[:, 1]))


def _mode_positions(a: np.ndarray, b: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Particle coordinates (..., 2) of the mode map (a, b) applied to u0 = (Y, y)."""
    p1, p2 = particle_coordinates(a[0] * u0[0] + b[0], a[1] * u0[1] + b[1])
    return np.stack([p1, p2], axis=-1)


def _frame_abs_sum_maxima(ensemble: Ensemble) -> np.ndarray:
    """max |y1 + y2| over all trajectories at each time of a recorded rk4 run.

    Equal, bit for bit, to np.max(np.abs(f[:, 0] + f[:, 1])) of each frame f
    of ensemble.frames(): the same elementwise operations run in the same
    order, in place on three chunk buffers of _FRAME_CHUNK starts, and the
    chunk maxima are combined with np.maximum, so a NaN anywhere stays NaN.
    The buffers start on 64-byte cache lines: malloc's 16-byte placement
    made the whole kernel up to 30% slower depending on where it fell.
    """
    coeffs = np.hstack(ensemble.maps).tolist()  # rows (a0, a1, b0, b1)
    u0 = _mode_starts(ensemble.initial_positions)
    n = u0.shape[1]
    maxima = np.zeros(len(coeffs))
    chunk_max = np.empty(len(coeffs))
    width = -(-min(n, _FRAME_CHUNK) // 8) * 8  # rows of whole 64-byte cache lines
    raw = np.empty(3 * width + 7)
    skip = -raw.ctypes.data // 8 % 8  # the first row starting on one
    buffers = raw[skip : skip + 3 * width].reshape(3, width)
    for i0 in range(0, n, _FRAME_CHUNK):
        big_y, small_y = u0[:, i0 : i0 + _FRAME_CHUNK]
        cm, half, diff = buffers[:, : big_y.size]
        for j, (a0, a1, b0, b1) in enumerate(coeffs):
            np.multiply(big_y, a0, out=cm)
            cm += b0
            np.multiply(small_y, a1, out=half)
            half += b1
            half *= 0.5
            np.subtract(cm, half, out=diff)  # y2
            cm += half  # y1
            cm += diff
            np.abs(cm, out=cm)
            chunk_max[j] = np.maximum.reduce(cm)
        np.maximum(maxima, chunk_max, out=maxima)
    return maxima


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


def _rk45_lanes(rhs, u: np.ndarray, t0: float, t1: float, tolerance: float, record=False):
    """Adaptive Dormand-Prince from t0 to t1 on every lane (column) of u.

    Each lane keeps its own time, step and accept decision, so it does the
    arithmetic of a one-lane call, bit for bit; rhs(t, u) gets the lanes'
    times and states. Error is measured against tolerance*(1 + |u|) per
    component; steps shrink by at most 5x and grow by at most 5x per
    attempt; a non-finite error norm shrinks the step 5x. A lane whose step
    falls below 1e-12 stops: it ends as inf if the error norm of its last
    attempt was not finite (its state overflows), and as NaN otherwise.
    Returns the final states and, with record, each iteration's accepted
    steps as (t, u) of the lanes that took them.
    """
    y = np.array(u, dtype=float)
    final = np.empty_like(y)
    lanes = np.arange(y.shape[1])
    t = np.full(lanes.size, float(t0))
    dt = np.full(lanes.size, min((t1 - t0) / 100.0, 0.1))
    overflowed = np.zeros(lanes.size, dtype=bool)
    steps = []
    while lanes.size:
        remaining = t1 - t
        last = dt >= remaining
        h = np.where(last, remaining, dt)
        ok = h >= _MIN_ADAPTIVE_DT
        if not ok.all():
            final[:, lanes[~ok]] = np.where(overflowed[~ok], np.inf, np.nan)
            lanes, y, t, h, last = lanes[ok], y[:, ok], t[ok], h[ok], last[ok]
            overflowed = overflowed[ok]
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
        err_norm = np.max(np.abs(err) / scale, axis=0)
        overflowed = ~np.isfinite(err_norm)
        accept = err_norm <= 1.0
        t = np.where(accept, np.where(last, t1, t + h), t)
        y = np.where(accept, y5, y)
        if record and accept.any():
            steps.append((t[accept], y[:, accept]))
        # a zero error gives inf and grows the step 5x; a NaN error shrinks it 5x via fmax
        with np.errstate(divide="ignore"):
            growth = np.power(err_norm, -0.2)
        dt = h * np.minimum(np.fmax(0.9 * growth, 0.2), 5.0)
        live = t < t1
        final[:, lanes[~live]] = y[:, ~live]
        lanes, y, t, dt = lanes[live], y[:, live], t[live], dt[live]
        overflowed = overflowed[live]
    return final, steps


def integrate_trajectory(
    state: TwoParticleState,
    start: tuple[float, float],
    config: IntegratorConfig,
    t0: float = 0.0,
) -> Trajectory:
    """Integrate one trajectory from configuration `start` at time t0.

    The ODE is solved in mode coordinates where the two components decouple;
    recorded positions are mapped back to (y1, y2). A state that is not
    finite raises EnsembleFailureError; an rk45 step below 1e-12 raises
    StepUnderflowError.
    """
    _require_finite("start", start)
    u0 = mode_coordinates(float(start[0]), float(start[1]))

    if config.method == "rk4":
        times, a, b = _rk4_maps(state, config, t0)
        positions = _mode_positions(a.T, b.T, u0)
        finite = np.isfinite(positions).all(axis=1)
        if not finite.all():
            raise EnsembleFailureError(
                f"trajectory position is not finite at t = {times[finite.argmin()]:.6g}"
            )
        return Trajectory(times=times, positions=positions)

    t1 = t0 + config.t_final
    final, steps = _rk45_lanes(
        partial(_mode_rhs, state), np.vstack(u0), t0, t1, config.tolerance, record=True
    )
    t_fail = steps[-1][0][0] if steps else t0
    if np.isinf(final).any():
        raise EnsembleFailureError(
            f"trajectory state is not finite after t = {t_fail:.6g}"
        )
    if np.isnan(final).any():
        raise StepUnderflowError(
            f"adaptive step fell below {_MIN_ADAPTIVE_DT:g} at t = {t_fail:.6g}"
        )
    stride = config.record_stride
    kept = [(t, u) for t, u in steps[stride - 1 :: stride] if t[0] < t1] if stride else []
    times = np.concatenate([[t0], *(t for t, _ in kept), [t1]])
    u = np.hstack([np.vstack(u0), *(u for _, u in kept), final])
    return Trajectory(times=times, positions=np.column_stack(particle_coordinates(*u)))


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
    the whole ensemble at once; with record_stride > 0 it keeps the maps of
    the recorded times, for Ensemble.frames() to apply. rk45 steps every
    trajectory as one lane of a single adaptive loop, each with its own step
    size. parallel_width is validated and kept for compatibility; it does
    not change the arithmetic. Trajectories whose state turns non-finite are
    marked failed; more than 0.1% failures raise EnsembleFailureError.
    """
    positions = np.asarray(initial_positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("initial_positions must have shape (n, 2)")
    if not np.all(np.isfinite(positions)):
        raise ValueError("initial_positions must be finite")
    _check_parallel_width(parallel_width)
    if config.record_stride > 0 and config.method != "rk4":
        raise ValueError("ensemble recording requires the fixed-step rk4 method")

    n = positions.shape[0]
    u0 = _mode_starts(positions)
    times = maps = None
    if config.method == "rk4":
        recorded_times, a, b = _rk4_maps(state, config, t0)
        final = _mode_positions(a[-1], b[-1], u0)
        if config.record_stride > 0:
            times, maps = recorded_times, (a, b)
    else:
        final_u, _ = _rk45_lanes(
            partial(_mode_rhs, state), u0, t0, t0 + config.t_final, config.tolerance
        )
        final = np.column_stack(particle_coordinates(*final_u))

    failed = np.nonzero(~np.all(np.isfinite(final), axis=1))[0]
    if len(failed) > _MAX_FAILED_FRACTION * n:
        raise EnsembleFailureError(
            f"{len(failed)} of {n} trajectories failed to integrate"
        )
    return Ensemble(
        seed=seed,
        initial_positions=positions,
        final_positions=final,
        failed_indices=tuple(failed.tolist()),
        times=times,
        maps=maps,
    )
