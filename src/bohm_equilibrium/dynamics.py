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

Inside the package an ensemble is one (2, n) array of mode coordinates,
rows Y and y: _sample_modes draws it and _transport carries it. The
experiments run on their state translated to the origin, so the rows are
offsets from the start centers. (n, 2) particle positions are formed only
by the public functions and Ensemble.
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
    evolve_mode,
    mode_coordinates,
    particle_coordinates,
)

_WORDS_PER_BLOCK = 4  # Philox-4x64 counter advances one block per advance(1)
# counter blocks drawn and converted at a time by the substream samplers: a
# chunk's words and ndtri temporaries take about 1 MB, whatever n is
_CHUNK_BLOCKS = 1 << 13
_MIN_ADAPTIVE_DT = 1e-12


class StepUnderflowError(RuntimeError):
    """Raised when the adaptive controller drives dt below 1e-12."""


class EnsembleFailureError(RuntimeError):
    """Raised when an ensemble or trajectory cannot be integrated faithfully.

    Either a trajectory of an ensemble ended in a non-finite state, or a
    recorded rk4 step map is not finite, or the fixed rk4 step is too long
    for the state (see _check_rk4_step; the experiments, propagate_ensemble
    and integrate_trajectory refuse it before any step), or a trajectory's
    state is not finite: an rk4 position at some recorded time, or an rk45
    step that shrank to the floor on a non-finite error estimate.
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


def _substream(seed: int, first_sample: int, n: int, columns: int, convert) -> np.ndarray:
    """(n, columns) array of convert(uniforms) for samples [first_sample, first_sample + n).

    Row i holds convert of the first `columns` of the 4 uniforms of counter
    block first_sample + i. The blocks are drawn _CHUNK_BLOCKS at a time,
    each chunk converted into its rows of the result, so no temporary is
    the size of n; Philox's stream continues across the draws, so the bits
    are those of one draw of all n blocks.
    """
    seed = _check_seed(seed)
    if n < 1 or first_sample < 0:
        raise ValueError(f"need n >= 1 and first_sample >= 0, got {n} and {first_sample}")
    if not 1 <= columns <= _WORDS_PER_BLOCK:
        raise ValueError(f"columns must be in [1, {_WORDS_PER_BLOCK}]")
    bitgen = Philox(key=seed)
    bitgen.advance(first_sample)
    out = np.empty((n, columns))
    for start in range(0, n, _CHUNK_BLOCKS):
        rows = out[start : start + _CHUNK_BLOCKS]
        raw = bitgen.random_raw(_WORDS_PER_BLOCK * len(rows))
        rows[...] = convert(_uniforms_from_words(raw.reshape(-1, _WORDS_PER_BLOCK)[:, :columns]))
    return out


def substream_uniforms(
    seed: int, first_sample: int, n: int, columns: int = _WORDS_PER_BLOCK
) -> np.ndarray:
    """Open-interval uniforms for samples [first_sample, first_sample + n).

    Row i holds the first `columns` of the 4 uniforms of counter block
    first_sample + i, so any contiguous chunking of an ensemble reads
    identical bits.
    """
    return _substream(seed, first_sample, n, columns, convert=lambda u: u)


def _uniforms_from_words(raw: np.ndarray) -> np.ndarray:
    """Map 64-bit words to uniforms in (0, 1) through their top 53 bits k.

    The uniform is (k + 0.5) * 2^-53, the midpoint of bin k. For k >= 2^52
    the + 0.5 rounds to even, and the last bin's midpoint rounds to 1.0, so
    that one value is clamped to 1 - 2^-53, where ndtri is still finite. The
    normal draws are thus bounded unevenly: the smallest is ndtri(2^-54)
    = -8.29, the largest ndtri(1 - 2^-53) = +8.21 (the clamped word; the
    next-largest is +8.13).
    """
    u = (raw >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def substream_normals(seed: int, first_sample: int, n: int, columns: int = 2):
    """Standard normals via the inverse CDF, one substream row per sample."""
    return _substream(seed, first_sample, n, columns, convert=ndtri)


def _sample_modes(state: TwoParticleState, z: np.ndarray, surface=False) -> np.ndarray:
    """(2, n) mode coordinates, rows Y and y, each its mode's center0 + sigma0 * z.

    z holds standard normals, a row per sample, and its columns 0 and 1
    feed Y and y. On the surface the narrow row is exactly 0.0 and column 0
    feeds the wide row.
    """
    u = np.zeros((2, len(z)))
    columns = (0, 1)
    if surface:
        columns = (None, 0) if state.correlation is Correlation.SUM_NARROW else (0, None)
    for row, mode, column in zip(u, (state.cm_mode, state.rel_mode), columns):
        if column is not None:
            np.multiply(z[:, column], mode.sigma0, out=row)
            row += mode.center0
    return u


def sample_equilibrium(
    state: TwoParticleState, n: int, seed: int, first_sample: int = 0
) -> np.ndarray:
    """Draw n configurations (y1, y2) from |psi(.,.,0)|^2.

    Uses the factorized normal law of the mode coordinates: columns 0 and 1
    of each sample's substream feed the cm and relative draws respectively.
    """
    return _particle_positions(*_sample_modes(state, substream_normals(seed, first_sample, n)))


def sample_constraint_surface(state: TwoParticleState, n: int, seed: int) -> np.ndarray:
    """Draw n configurations lying exactly on the narrow-combination surface.

    For a sum-narrow state the surface is y1 + y2 = 0: the cm coordinate is
    set to exactly 0.0 and only the relative coordinate is sampled (from its
    marginal), so the constraint holds to the last bit. Difference-narrow
    states use y1 - y2 = 0 analogously.
    """
    z = substream_normals(seed, 0, n, columns=1)
    return _particle_positions(*_sample_modes(state, z, surface=True))


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
        limit = np.iinfo(np.intp).max
        if self.method == "rk4" and self.t_final / self.dt > limit:
            raise ValueError(
                f"rk4 with t_final = {self.t_final:g} and dt = {self.dt:g} takes "
                f"{self.t_final / self.dt:.6g} steps, more than the {limit:.6g} an array "
                "can index"
            )
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
    """Starts and end points of a propagated ensemble, as (n, 2) positions.

    The positions are formed at this boundary from the run's mode
    coordinates. A recorded rk4 run keeps its composed step maps; frames()
    applies them to the starts' modes and forms each frame's positions.
    """

    seed: int | None
    initial_positions: np.ndarray
    final_positions: np.ndarray
    times: np.ndarray | None = None
    maps: tuple[np.ndarray, np.ndarray] | None = None  # (a, b), each (len(times), 2)

    def frames(self):
        """Yield the (n, 2) positions at each recorded time, one frame at a time."""
        u0 = _mode_starts(self.initial_positions)
        for a_j, b_j in zip(*(self.maps or ())):
            yield _particle_positions(*_map_modes(a_j, b_j, u0))


def _mode_rhs(state: TwoParticleState, t, u: np.ndarray) -> np.ndarray:
    """Guidance field on stacked mode coordinates u = [[Y...], [y...]].

    t is one time or one time per column of u.
    """
    out = np.empty_like(u)
    for row, mode in enumerate((state.cm_mode, state.rel_mode)):
        out[row] = evolve_mode(mode, state.params, t).velocity(u[row])
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
    With _surface (a run started on the narrow surface, at the center of a
    narrow mode at rest, where the narrow field is 0 for any step) only the
    wide mode is checked, and the message asks for a smaller dt, since
    recording every step needs rk4.
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
    # a stride at or past n_steps records only the endpoints
    stride = min(config.record_stride or n_steps, n_steps)
    steps = np.append(np.arange(0, n_steps, stride), n_steps)
    t = t0 + np.arange(n_steps) * dt
    a = np.empty((len(steps), 2))
    b = np.empty((len(steps), 2))
    for row, mode in enumerate((state.cm_mode, state.rel_mode)):
        stages = [evolve_mode(mode, state.params, s) for s in (t, t + 0.5 * dt, t + dt)]
        alpha = _rk4_step(lambda field, u: field.stretch_rate * u, stages, 1.0, dt)
        beta = _rk4_step(lambda field, u: field.velocity(u), stages, 0.0, dt)
        # accumulate multiplies left to right, as the recurrence does
        a[:, row] = np.multiply.accumulate(np.append(1.0, alpha))[steps]
        prefix = [0.0]
        for alpha_k, beta_k in zip(alpha.tolist(), beta.tolist()):
            prefix.append(alpha_k * prefix[-1] + beta_k)
        b[:, row] = np.array(prefix)[steps]
    return t0 + steps * dt, a, b


def _mode_starts(positions: np.ndarray) -> np.ndarray:
    """Mode coordinates (2, n), rows Y and y, of the (n, 2) positions."""
    u0 = np.empty((2, len(positions)))
    mode_coordinates(positions[:, 0], positions[:, 1], out=(u0[0], u0[1]))
    return u0


def _particle_positions(cm, rel) -> np.ndarray:
    """particle_coordinates(cm, rel) as the two columns of one new (..., 2) array."""
    out = np.empty(np.broadcast_shapes(np.shape(cm), np.shape(rel)) + (2,))
    particle_coordinates(cm, rel, out=(out[..., 0], out[..., 1]))
    return out


def _map_modes(a: np.ndarray, b: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Row i of the (2, n) modes u0 through the mode map: a[i] * u0[i] + b[i].

    a and b are (2,) for one map, or (2, k) for k maps of one start, u0 (2, 1).
    """
    u = np.reshape(a, (2, -1)) * u0
    u += np.reshape(b, (2, -1))
    return u


def _frame_abs_sum_maxima(maps, u0: np.ndarray) -> np.ndarray:
    """max |2Y| over the columns of u0 at each recorded map; 2Y is y1 + y2 about cm 0.

    Map j sends each Y of the (2, n) modes u0 to fl(fl(a[j, 0] * Y) + b[j, 0]).
    Rounding is monotone, so that is monotone in Y, and its largest |value|
    over all starts is at the smallest or the largest Y, bit for bit: every
    start is measured, through the two that bound it. Both are elements of
    u0, so a NaN start gives NaN on every frame, and an infinite start under
    a zero a gives NaN. Doubling is exact, so 2 * max|Y| is max|2Y|.
    """
    a, b = maps
    ends = np.array([np.min(u0[0]), np.max(u0[0])])
    return 2.0 * np.max(np.abs(a[:, :1] * ends + b[:, :1]), axis=1)


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
    recorded positions are mapped back to (y1, y2). An rk4 step too long for
    the state (see _check_rk4_step) raises EnsembleFailureError before any
    step, and so does a state that is not finite; an rk45 step below 1e-12
    raises StepUnderflowError.
    """
    _require_finite("start", start)
    _check_rk4_step(state, config)
    t1 = t0 + config.t_final
    # a state that overflows is refused by the checks below; numpy's overflow
    # and invalid-value warnings on the way would only repeat that, or stop
    # the run with a traceback where warnings are errors
    with np.errstate(over="ignore", invalid="ignore"):
        u0 = np.vstack(mode_coordinates(float(start[0]), float(start[1])))
        if config.method == "rk4":
            times, a, b = _rk4_maps(state, config, t0)
            positions = _particle_positions(*_map_modes(a.T, b.T, u0))
        else:
            final, steps = _rk45_lanes(
                partial(_mode_rhs, state), u0, t0, t1, config.tolerance, record=True
            )

    if config.method == "rk4":
        finite = np.isfinite(positions).all(axis=1)
        if not finite.all():
            raise EnsembleFailureError(
                f"trajectory position is not finite at t = {times[finite.argmin()]:.6g}"
            )
        return Trajectory(times=times, positions=positions)

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
    u = np.hstack([u0, *(u for _, u in kept), final])
    return Trajectory(times=times, positions=_particle_positions(*u))


def _require_finite_columns(u: np.ndarray):
    """Raise EnsembleFailureError naming how many columns (trajectories) of u are not finite."""
    # a whole-array all() costs about 1/25 of the column reduction, so
    # columns are counted only after it fails
    if not np.isfinite(u).all():
        failed = np.count_nonzero(~np.isfinite(u).all(axis=0))
        raise EnsembleFailureError(f"{failed} of {u.shape[1]} trajectories failed to integrate")


def _transport(state: TwoParticleState, u0: np.ndarray, config: IntegratorConfig, t0=0.0):
    """Carry the (2, n) modes u0 from t0 to t0 + t_final: (final, times, maps).

    rk4 applies its composed step maps to every column at once; with
    record_stride > 0 it also returns the recorded times and maps (a, b),
    each (len(times), 2), else None for both. rk45 steps every column as a
    lane of _rk45_lanes. A recorded map or a final column that is not
    finite raises EnsembleFailureError.
    """
    times = maps = None
    if config.method == "rk4":
        recorded_times, a, b = _rk4_maps(state, config, t0)
        if config.record_stride > 0:
            finite = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
            if not finite.all():
                raise EnsembleFailureError(
                    f"step map is not finite at t = {recorded_times[finite.argmin()]:.6g}"
                )
            times, maps = recorded_times, (a, b)
        final = _map_modes(a[-1], b[-1], u0)
    else:
        final, _ = _rk45_lanes(
            partial(_mode_rhs, state), u0, t0, t0 + config.t_final, config.tolerance
        )
    _require_finite_columns(final)
    return final, times, maps


def propagate_ensemble(
    state: TwoParticleState,
    initial_positions: np.ndarray,
    config: IntegratorConfig,
    parallel_width: int = 1,
    t0: float = 0.0,
    seed: int | None = None,
) -> Ensemble:
    """Propagate every row of initial_positions from t0 to t0 + t_final.

    The rows' mode coordinates go through _transport, and the final modes
    come back as positions; with record_stride > 0 (rk4 only) the Ensemble
    keeps the recorded maps, for Ensemble.frames() to apply. parallel_width
    is validated and kept for compatibility; it does not change the
    arithmetic. An rk4 step too long for the state raises
    EnsembleFailureError before any step (see _check_rk4_step); for starts
    on the narrow surface, whose narrow coordinate all equals a resting
    narrow mode's center0, only the wide mode is judged. An ensemble is all
    or nothing: if any trajectory's final state or final position is not
    finite, EnsembleFailureError names how many of the n failed.
    """
    positions = np.asarray(initial_positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("initial_positions must have shape (n, 2)")
    if not np.all(np.isfinite(positions)):
        raise ValueError("initial_positions must be finite")
    _check_parallel_width(parallel_width)
    if config.record_stride > 0 and config.method != "rk4":
        raise ValueError("ensemble recording requires the fixed-step rk4 method")
    u0 = _mode_starts(positions)
    narrow_row = 0 if state.correlation is Correlation.SUM_NARROW else 1
    narrow = state.narrow_mode
    surface = narrow.wavenumber == 0.0 and bool(np.all(u0[narrow_row] == narrow.center0))
    _check_rk4_step(state, config, _surface=surface)

    final, times, maps = _transport(state, u0, config, t0)
    final = _particle_positions(*final)
    _require_finite_columns(final.T)  # Y +- y/2 can overflow where Y and y do not
    return Ensemble(
        seed=seed,
        initial_positions=positions,
        final_positions=final,
        times=times,
        maps=maps,
    )
