"""Trajectory integration and deterministic ensemble sampling.

Sampling uses the Philox counter-based generator with one 256-bit counter
block per sample, so sample i sees the same bits no matter how the ensemble
is chunked. The guidance field is affine in each mode coordinate, so the
flow of a mode is an affine map u(t) = a(t)*u0 + b(t), and so is every step
of either integrator: fixed-step RK4 composes its steps' maps, and adaptive
Dormand-Prince 5(4) steps each mode's (a, b) on one time grid shared by both
modes, judging each step on the starts that bound the mode's law. Either way
the maps are built once per run and applied to every trajectory with
elementwise arithmetic, which makes ensembles and single trajectories agree
to the bit.

Inside the package an ensemble is one (2, n) array of mode coordinates,
rows Y and y: _sample_modes draws it and _transport carries it. The
experiments run on their state translated to the origin, so the rows are
offsets from the start centers. (n, 2) particle positions are formed only
by the public functions and Ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from ._normal import ndtri
from .model import (
    TwoParticleState,
    _require_finite,
    _require_integer,
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
_MIN_STEP = 1e-12  # the rk45 step floor, relative (see _rk45_maps)
# rk4 steps evaluated at a time by _rk4_maps: a chunk's times, stages and
# step maps take about 4 MB, whatever the step count is
_MAP_CHUNK = 1 << 14
_DRAW_BOUND = 8.3  # no Philox normal draw is farther from 0 (see _uniforms_from_words)


class StepUnderflowError(RuntimeError):
    """Raised when the adaptive controller drives its step below the floor (see _rk45_maps)."""


class EnsembleFailureError(RuntimeError):
    """Raised when an ensemble or trajectory cannot be integrated faithfully:
    a final state, position or step map that is not finite, or an rk4 step
    too long for the state and starts (see _step_maps)."""


def _check_seed(seed: int) -> int:
    seed = _require_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit word, got {seed}")
    return seed


def _substream(seed: int, first_sample: int, n: int, columns: int, convert) -> np.ndarray:
    """(n, columns) array of convert(uniforms) for samples [first_sample, first_sample + n).

    Row i holds convert of the first `columns` of the 4 uniforms of counter
    block first_sample + i. The blocks are drawn _CHUNK_BLOCKS at a time,
    each chunk converted into its rows of the result, so no temporary is
    the size of n; Philox's stream continues across the draws, so the bits
    are those of one draw of all n blocks.
    """
    seed = _check_seed(seed)
    n, first_sample = _require_integer("n", n), _require_integer("first_sample", first_sample)
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
    for row, mode in enumerate(state.modes):
        if not (surface and row == state.correlation.narrow_row):
            np.multiply(z[:, 0 if surface else row], mode.sigma0, out=u[row])
            u[row] += mode.center0
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
    Dormand-Prince adaptive pair with relative tolerance `tolerance`: a
    step's error on the starts that bound each mode's law is at most
    tolerance times their width (see _rk45_maps). Both step each mode's
    affine map u -> a*u + b. record_stride = 0 records nothing but the
    endpoints; k > 0 records every k-th (accepted) step.
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
        stride = _require_integer("record_stride", self.record_stride, 0)
        object.__setattr__(self, "record_stride", stride)


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
    coordinates. A recorded run keeps its step maps; frames() applies them
    to the starts' modes and forms each frame's positions.
    """

    seed: int | None
    initial_positions: np.ndarray
    final_positions: np.ndarray
    times: np.ndarray | None = None
    maps: tuple[np.ndarray, ...] | None = None  # (a, b, scale): see _step_maps

    def frames(self):
        """Yield the (n, 2) positions at each recorded time, one frame at a time."""
        u0 = _mode_starts(self.initial_positions)
        a, b, scale = self.maps or ((), (), None)
        for a_j, b_j in zip(a, b):
            yield _particle_positions(*_map_modes(a_j, b_j, scale, u0))


def _mode_rhs(mode, params, t: float, a: float, b: float) -> tuple[float, float]:
    """Time derivatives (a', b') of one mode's map u = a*u0 + b at time t, in
    floats: rate*a, and the field at b."""
    field = evolve_mode(mode, params, t)
    return field.stretch_rate * a, field.velocity(b)


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


def _check_rk4_step(state: TwoParticleState, config: IntegratorConfig, u0: np.ndarray):
    """Refuse an rk4 step too long for either mode of the state, on the (2, n) starts u0.

    A mode's stretch rate peaks at beta/2 at t = 1/beta. Past rate * h = 0.5,
    with h the step actually taken, rk4 moves the ensemble visibly off |psi|^2
    (KS 0.227 against a noise level of 0.0138 at sigma_narrow = 0.005,
    n = 2e4), so the run raises EnsembleFailureError instead, naming rk45,
    the narrow mode first. A mode at rest whose every start is its center0,
    as on the narrow surface, is not judged: its field there is exactly 0.
    """
    if config.method != "rk4":
        return
    step = _step_grid(config)[1]
    narrow = state.correlation.narrow_row
    for label, row in (("narrow", narrow), ("wide", 1 - narrow)):
        mode = state.modes[row]
        if 0.5 * _spread_rate(mode, state.params) * step > 0.5 and not (
            mode.wavenumber == 0.0 and np.all(u0[row] == mode.center0)
        ):
            raise EnsembleFailureError(
                f"{label} mode sigma0 = {mode.sigma0:g} makes the guidance field "
                f"stiff for rk4 with step {step:g}; use method = rk45"
            )


def _rk4_maps(state: TwoParticleState, config: IntegratorConfig, t0: float) -> tuple:
    """Fixed-step RK4 as affine maps: u_j = (a[j] / scale) * u_0 + b[j] per mode.

    One RK4 step of an affine field is itself affine, u -> alpha*u + beta
    for each mode. alpha comes from the RK4 stage formula on the homogeneous
    field at u = 1, beta from the full field at u = 0, so the maps carry the
    method's truncation error, never the exact flow. Returns (times, a, b,
    scale) at step 0, every record_stride-th step and the last step; a and
    b have shape (len(times), 2) and hold the step maps folded up to each of
    them, a times the mode's scale (_map_scales). The steps are evaluated
    _MAP_CHUNK at a time, each chunk's folds starting from the last chunk's
    (a, b), so memory is one chunk and the recorded rows, and the bits are
    those of one pass over every step.
    """
    n_steps, dt = _step_grid(config)
    scale = _map_scales(state)
    # a stride at or past n_steps records only the endpoints
    stride = min(config.record_stride or n_steps, n_steps)
    steps = np.append(np.arange(0, n_steps, stride), n_steps)
    a = np.empty((len(steps), 2))
    b = np.empty((len(steps), 2))
    a_end, b_end = scale.tolist(), [0.0, 0.0]  # per mode, the map after the steps so far
    first = 0  # the first row of a and b at or past the chunk's first step
    for i0 in range(0, n_steps, _MAP_CHUNK):
        i1 = min(i0 + _MAP_CHUNK, n_steps)
        # rows first..last-1 (steps j * stride) lie in [i0, i1), the last chunk's in [i0, i1]
        last = len(steps) if i1 == n_steps else -(-i1 // stride)
        kept = steps[first:last] - i0
        t = t0 + np.arange(i0, i1) * dt
        stage_times = t, t + 0.5 * dt, t + dt
        for row, mode in enumerate(state.modes):
            stages = [evolve_mode(mode, state.params, s) for s in stage_times]
            alpha = _rk4_step(lambda field, u: field.stretch_rate * u, stages, 1.0, dt)
            beta = _rk4_step(lambda field, u: field.velocity(u), stages, 0.0, dt)
            # accumulate multiplies left to right, as the recurrence does
            products = np.multiply.accumulate(np.concatenate(([a_end[row]], alpha)))
            a[first:last, row] = products[kept]
            a_end[row] = float(products[-1])
            # +0.0 is the one double whose bits are all 0, and a*(+0) + (+0) is +0 for
            # every finite a: a mode at rest folds no b (where an alpha is not finite,
            # so is the folded a, and _step_maps refuses that row as the fold would)
            if not np.append(beta, b_end[row]).view(np.int64).any():
                b[first:last, row] = 0.0
                continue
            prefix = [b_end[row]]
            for alpha_k, beta_k in zip(alpha.tolist(), beta.tolist()):
                prefix.append(alpha_k * prefix[-1] + beta_k)
            b[first:last, row] = np.array(prefix)[kept]
            b_end[row] = prefix[-1]
        first = last
    return t0 + steps * dt, a, b, scale


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


def _map_scales(state: TwoParticleState) -> np.ndarray:
    """Per mode, the power of two in (sigma0, 2 sigma0], or 1 if less: the step maps hold
    a * scale, finite while the width is, and dividing by it is exact until it overflows."""
    return np.array([min(1.0, math.ldexp(1.0, math.frexp(m.sigma0)[1])) for m in state.modes])


def _map_modes(a: np.ndarray, b: np.ndarray, scale: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Row i of the (2, n) modes u0 through the mode map: (a[i] / scale[i]) * u0[i] + b[i].

    a and b are (2,) for one map, or (2, k) for k maps of one start, u0 (2, 1).
    Where a / scale overflows the map is taken as a * (u0 / scale); wherever
    both forms are finite they are exact and agree to the bit.
    """
    a, scale = np.reshape(a, (2, -1)), np.reshape(scale, (2, 1))
    with np.errstate(over="ignore"):
        unscaled = a / scale
    u = unscaled * u0 if np.isfinite(unscaled).all() else a * (u0 / scale)
    u += np.reshape(b, (2, -1))
    return u


def _frame_abs_sum_maxima(maps, u0: np.ndarray) -> np.ndarray:
    """max |2Y| over the columns of u0 at each recorded map; 2Y is y1 + y2 about cm 0.

    Map j sends each Y of the (2, n) modes u0 to fl(fl(a[j, 0] * Y') + b[j, 0]),
    Y' = Y / scale[0] (exact). Rounding is monotone, so that is monotone in Y,
    and its largest |value| over all starts is at the smallest or the largest
    Y, bit for bit: every start is measured, through the two that bound it.
    Both are elements of u0, so a NaN start gives NaN on every frame, and an
    infinite start under a zero a gives NaN. Doubling is exact.
    """
    a, b, scale = maps
    ends = np.array([np.min(u0[0]), np.max(u0[0])]) / scale[0]
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


def _rk45_maps(state: TwoParticleState, config: IntegratorConfig, t0: float) -> tuple:
    """Adaptive Dormand-Prince 5(4) as affine maps, returned as _rk4_maps returns them.

    Each mode's map is stepped in floats as u = a * (u_0 - c) + m from
    (a, m) = (scale, c), with c the mode's center at t0, by DP steps of its
    variational field (_mode_rhs), both modes on one time grid. A step is
    judged on the lanes that bound every draw of each mode's law at t0, m
    and m -+ a * reach with reach = _DRAW_BOUND widths: with (e_a, e_m) its
    error estimate, every start within reach errs by at most
    |e_m| + |e_a| * reach, which must be at most tolerance * (sigma0 +
    a * reach), the lanes' width, plus 2^-50 |m|, the rounding of the
    center's position (all divided by reach, so nothing overflows). The maps
    depend on the state and config alone, so an ensemble and single
    trajectories from its starts agree to the bit. Steps shrink or grow by
    at most 5x per attempt (shrink 5x where not finite), and the first stage
    of an attempt is the last of the accepted step before it, or that of the
    rejected one. A step below _MIN_STEP times the stiffest mode's spreading
    time 1/beta (at most t_final), or times |t| if larger, raises
    EnsembleFailureError if its last attempt was not finite, else
    StepUnderflowError. b = m - a * c / scale.
    """
    modes, params, tolerance = state.modes, state.params, config.tolerance
    t0 = float(t0)
    t1, scale, evolved = t0 + config.t_final, _map_scales(state), state.evolved(t0)
    # per mode, reach in the units of its scaled a, so sigma0 / reach is scaled as a is
    lanes = [(_DRAW_BOUND * ev.sigma / s, ev.sigma0) for ev, s in zip(evolved, scale.tolist())]
    horizon = min(config.t_final, *(1.0 / _spread_rate(mode, params) for mode in modes))

    def rhs(t, y):  # y = [a, m] of the cm mode, then of the rel mode
        return [*_mode_rhs(modes[0], params, t, *y[:2]), *_mode_rhs(modes[1], params, t, *y[2:])]

    def advance(y, h, weights, k):
        return [y_i + sum((h * w) * k_j[i] for w, k_j in zip(weights, k)) for i, y_i in enumerate(y)]

    center = np.array([ev.center for ev in evolved])
    y = np.column_stack([scale, center]).ravel().tolist()
    times, recorded, first = [t0], [y], rhs(t0, y)
    t, dt, accepted, finite = t0, min(config.t_final / 100.0, 0.1), 0, True
    while t < t1:
        remaining = t1 - t
        last = dt >= remaining
        h = remaining if last else dt
        floor = _MIN_STEP * max(horizon, abs(t))
        if h < floor:
            if not finite:
                raise EnsembleFailureError(f"step map is not finite after t = {t:.6g}")
            raise StepUnderflowError(f"adaptive step fell below {floor:.3g} at t = {t:.6g}")
        k = [first]
        for c, row in zip(_DP_C[1:], _DP_A[1:]):
            k.append(rhs(t + c * h, advance(y, h, row, k)))
        y5 = advance(y, h, _DP_B5, k)
        k.append(rhs(t + h, y5))
        error = advance([0.0] * 4, h, _DP_ERR, k)
        finite = all(map(math.isfinite, y5 + error))
        norm = math.nan if not finite else max(
            (abs(e_m) / reach + abs(e_a))
            / (tolerance * (sigma0 / reach + abs(a)) + 2.0**-50 * abs(m) / reach)
            for a, m, e_a, e_m, (reach, sigma0) in zip(y[::2], y[1::2], error[::2], error[1::2], lanes)
        )
        if norm <= 1.0:
            t, y, first, accepted = t1 if last else t + h, y5, k[-1], accepted + 1
            if config.record_stride and accepted % config.record_stride == 0 and t < t1:
                times.append(t)
                recorded.append(y)
        # a zero error grows the step 5x, an infinite or NaN one shrinks it 5x
        growth = 5.0 if norm == 0.0 else 0.9 * norm**-0.2 if norm < math.inf else 0.0
        dt = h * min(max(growth, 0.2), 5.0)
    a, m = np.array([*recorded, y]).reshape(-1, 2, 2).transpose(2, 0, 1)
    return np.array([*times, t1]), a, m - a * (center / scale), scale


def _step_maps(state: TwoParticleState, config: IntegratorConfig, u0: np.ndarray, t0: float):
    """(times, a, b, scale) of _rk4_maps or _rk45_maps from t0, for the (2, n) starts u0.

    The one gate between maps and starts: an rk4 step too long for the state
    and starts (_check_rk4_step) or a map that is not finite raises EnsembleFailureError."""
    _check_rk4_step(state, config, u0)
    times, a, b, scale = (_rk4_maps if config.method == "rk4" else _rk45_maps)(state, config, t0)
    finite = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
    if not finite.all():
        raise EnsembleFailureError(f"step map is not finite at t = {times[finite.argmin()]:.6g}")
    return times, a, b, scale


def integrate_trajectory(
    state: TwoParticleState,
    start: tuple[float, float],
    config: IntegratorConfig,
    t0: float = 0.0,
) -> Trajectory:
    """Integrate one trajectory from configuration `start` at time t0.

    The ODE is solved in mode coordinates where the two components decouple:
    the step maps of config's method carry the start's modes, and the
    recorded positions are mapped back to (y1, y2). A position that is not
    finite raises EnsembleFailureError, as _step_maps's refusals do; an rk45
    step below its floor raises StepUnderflowError.
    """
    _require_finite("start", start)
    # a state that overflows is refused by the check below; numpy's overflow
    # and invalid-value warnings on the way would only repeat that, or stop
    # the run with a traceback where warnings are errors
    with np.errstate(over="ignore", invalid="ignore"):
        u0 = np.vstack(mode_coordinates(float(start[0]), float(start[1])))
        times, a, b, scale = _step_maps(state, config, u0, t0)
        positions = _particle_positions(*_map_modes(a.T, b.T, scale, u0))
    finite = np.isfinite(positions).all(axis=1)
    if not finite.all():
        raise EnsembleFailureError(
            f"trajectory position is not finite at t = {times[finite.argmin()]:.6g}"
        )
    return Trajectory(times=times, positions=positions)


def _require_finite_columns(u: np.ndarray):
    """Raise EnsembleFailureError naming how many columns (trajectories) of u are not finite."""
    # a whole-array all() costs about 1/25 of the column reduction, so
    # columns are counted only after it fails
    if not np.isfinite(u).all():
        failed = np.count_nonzero(~np.isfinite(u).all(axis=0))
        raise EnsembleFailureError(f"{failed} of {u.shape[1]} trajectories failed to integrate")


def _transport(state: TwoParticleState, u0: np.ndarray, config: IntegratorConfig, t0=0.0):
    """Carry the (2, n) modes u0 from t0 to t0 + t_final: (final, times, maps).

    The step maps of config's method (_step_maps) are applied to every
    column at once; with record_stride > 0 the recorded times and maps
    (a, b, scale) are returned too, else None for both. A final column that
    is not finite raises EnsembleFailureError, as _step_maps's refusals do.
    """
    times, a, b, scale = _step_maps(state, config, u0, t0)
    final = _map_modes(a[-1], b[-1], scale, u0)
    _require_finite_columns(final)
    return final, *((times, (a, b, scale)) if config.record_stride > 0 else (None, None))


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
    come back as positions; with record_stride > 0 the Ensemble keeps the
    recorded maps, for Ensemble.frames() to apply. parallel_width
    is validated and kept for compatibility; it does not change the
    arithmetic. An rk4 step too long for the state and starts raises
    EnsembleFailureError before any step (_check_rk4_step judges surface
    starts on the wide mode alone). An ensemble is all or nothing: if any
    trajectory's start modes, final state or final position is not finite,
    EnsembleFailureError names how many of the n failed.
    """
    positions = np.asarray(initial_positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("initial_positions must have shape (n, 2)")
    if not np.all(np.isfinite(positions)):
        raise ValueError("initial_positions must be finite")
    _require_integer("parallel_width", parallel_width, 1)
    # overflow is refused by the checks, as in integrate_trajectory
    with np.errstate(over="ignore", invalid="ignore"):
        final, times, maps = _transport(state, _mode_starts(positions), config, t0)
        final = _particle_positions(*final)
    _require_finite_columns(final.T)  # Y +- y/2 can overflow where Y and y do not
    return Ensemble(seed, positions, final, times, maps)
