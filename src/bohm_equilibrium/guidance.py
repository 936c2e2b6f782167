"""Pilot-wave velocity field and its consistency diagnostics.

The configuration-space velocity is v_k = (hbar/m) * Im(d_k psi / psi).
For the factorized Gaussian state this reduces to independent affine fields
in the mode coordinates; the continuity residual below checks the closed
forms against the density they transport.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    TwoParticleState,
    _require_finite,
    _require_positive,
    evolve_mode,
    mode_coordinates,
    mode_density,
    observable_normal,
    particle_coordinates,
)

# marginal stds of the density that grid_for_state covers and continuity_residual requires
_COVER_STDS = 5.0

# most grid points per leaf of the continuity residual, a leaf being at least
# one whole row; a leaf's stage buffers are about 0.5 MB each instead of 8 B
# per point of the grid
_BLOCK_POINTS = 1 << 16

# most threads that evaluate the continuity residual's leaves: each holds its
# own leaf's stage buffers (about 3.2 MB at 2877 columns), so this bounds peak
# memory whatever the CPU count; the speed-up was measured on 2 CPUs only
_MAX_WORKERS = 4


class VelocityPair(NamedTuple):
    v1: np.ndarray
    v2: np.ndarray


def velocity(state: TwoParticleState, y1, y2, t: float) -> VelocityPair:
    """Particle velocities (v1, v2) at configuration (y1, y2) and time t.

    Computed from the mode fields via dY/dt = v_cm, dy/dt = v_rel and the
    chain rule y1 = Y + y/2, y2 = Y - y/2 of particle_coordinates.
    """
    _require_finite("y1", y1)
    _require_finite("y2", y2)
    _require_finite("t", t)
    cm, rel = state.evolved(t)
    big_y, small_y = mode_coordinates(y1, y2)
    return VelocityPair(*particle_coordinates(cm.velocity(big_y), rel.velocity(small_y)))


@dataclass(frozen=True)
class ResidualGrid:
    """Uniform evaluation grid for the continuity residual.

    The box is [y1_min, y1_min + (n1-1)*h] x [y2_min, y2_min + (n2-1)*h];
    tau is the half-step of the central time difference.
    """

    y1_min: float
    y2_min: float
    n1: int
    n2: int
    h: float
    tau: float

    def __post_init__(self):
        _require_finite("y1_min", self.y1_min)
        _require_finite("y2_min", self.y2_min)
        _require_positive("h", self.h)
        _require_positive("tau", self.tau)
        if self.n1 < 3 or self.n2 < 3:
            raise ValueError("grid needs at least 3 points per axis")
        # refused before any axis is built, with a message that names both
        # point counts: no grid this large can be evaluated
        limit = np.iinfo(np.intp).max
        if self.n1 * self.n2 > limit:
            raise ValueError(
                f"grid of {self.n1:.6g} x {self.n2:.6g} points exceeds the {limit:.6g} "
                "points an array can index"
            )

    @property
    def y1_axis(self) -> np.ndarray:
        return self.y1_min + self.h * np.arange(self.n1)

    @property
    def y2_axis(self) -> np.ndarray:
        return self.y2_min + self.h * np.arange(self.n2)

    def refined(self) -> "ResidualGrid":
        """Same box with h and tau halved (for convergence studies)."""
        return ResidualGrid(
            y1_min=self.y1_min,
            y2_min=self.y2_min,
            n1=2 * self.n1 - 1,
            n2=2 * self.n2 - 1,
            h=0.5 * self.h,
            tau=0.5 * self.tau,
        )


def _max_grid_spacing(state: TwoParticleState, t: float) -> float:
    """Coarsest grid spacing whose residual norms are reliable at time t.

    A quarter of the narrowest density feature along a particle axis: along
    y1 at fixed y2 the density varies through Y on scale 2*sigma_cm, the
    width of y1+y2, and through y on scale sigma_rel, that of y1-y2.
    """
    return min(observable_normal(state, t, name)[1] for name in ("y1+y2", "y1-y2")) / 4.0


def _max_grid_tau(state: TwoParticleState, t: float) -> float:
    """Longest time step tau whose residual norms are reliable at time t.

    The central time difference at a grid point is a central difference
    along the density as it moves past, with step v * tau. At the
    _COVER_STDS reach of its center a mode's density moves at
    v = |drift| + rate * reach, and the rule of _max_grid_spacing, that a
    step moves each mode coordinate by at most a quarter of its width, asks
    v * tau <= sigma / 4 at every time of the window [t - tau, t + tau]
    that the difference spans. Before the spreading time 1/beta the rate at
    t is near 0, but within a window that long it reaches beta / 2. So
    _quarter_time(tau) takes |drift| / sigma at the window point nearest 0,
    where sigma is smallest, and the rate at the window's |s| nearest
    1/beta, since the rate is odd in s and its size rises until s = 1/beta;
    it falls as tau grows. q = _quarter_time(0), the rule at t alone, is at
    least every tau that the rule admits over its own window, and the result
    is the rule over that widest window, _quarter_time(q): it is at most q,
    so the rule holds over its own window too. At that edge a drifting cm
    or relative mode at t = 2 keeps the coarse/fine ratio at 3.95, as
    grid_h's edge does, and a run before the spreading time keeps it at 3.9.
    """
    return _quarter_time(state, t, _quarter_time(state, t, 0.0))


def _quarter_time(state: TwoParticleState, t: float, tau: float) -> float:
    """The quarter rule's tau for the worst motion over [t - tau, t + tau] (see _max_grid_tau)."""
    near, far = max(0.0, abs(t) - tau), abs(t) + tau
    fastest = 0.0
    for mode, at_near in zip(state.modes, state.evolved(near)):
        peak = 1.0 / at_near.beta
        rate = evolve_mode(mode, state.params, min(max(peak, near), far)).stretch_rate
        fastest = max(fastest, abs(at_near.drift) / at_near.sigma + _COVER_STDS * rate)
    return 0.25 / fastest if fastest > 0.0 else math.inf


def _min_grid_tau(state: TwoParticleState, t: float) -> float:
    """Shortest time step tau whose residual norms are reliable at time t: 2^-35 q.

    The central time difference subtracts densities rounded to parts in 1e16
    that differ by about tau / q, q = _quarter_time at t alone, so rounding
    swamps the truncation error as q / tau grows: late, q is t / 20, and at
    tau = 1e-3 the ratio read 2.44 at t = 3e9. Pairs whose fine tau was
    2^-35 q read max-norm ratios of 3.92-4.12 from t = 1e9 to 1e20 and
    widths down to 1e-120, 2^-36 q 3.53-4.08 and 2^-38 q 2.86-4.43. A
    density at rest at t (q infinite) admits any tau.
    """
    q = _quarter_time(state, t, 0.0)
    return 2.0**-35 * q if q < math.inf else 0.0


def _default_grid_tau(state: TwoParticleState, t: float) -> float:
    """1e-3, or _max_grid_tau where the density moves too fast for that, or
    twice _min_grid_tau, which the refined grid's tau meets, where too slowly."""
    return max(2.0 * _min_grid_tau(state, t), min(1e-3, _max_grid_tau(state, t)))


def _coarse_grid_verdict(state: TwoParticleState, t: float, h, tau) -> str | None:
    """Why a grid of spacing h and time half-step tau is too coarse at time t, or None.

    The one home of the rule that h is at most _max_grid_spacing and tau
    between _min_grid_tau and _max_grid_tau. The text names h and tau by the
    CLI's keys, grid_h and grid_tau, and leaves the time to the caller: the
    CLI refuses with it and " at t_final", continuity_residual warns with it
    and " at t = t". h or tau None is grid_for_state's default, which fits
    unless no tau is reliable.
    """
    feature = "a quarter of the narrowest density feature"
    motion = "the time in which the density moves a quarter of its width"
    rounding = "the shortest time in which the density changes by more than its rounding"
    for key, value, limit_of, meaning in (
        ("grid_h", h, _max_grid_spacing, feature),
        ("grid_tau", tau, _max_grid_tau, motion),
    ):
        if value is not None and value > (limit := limit_of(state, t)):
            return f"{key} = {value:g} exceeds {limit:.4g}, {meaning}"
    if tau is not None and tau < (limit := _min_grid_tau(state, t)):
        return f"grid_tau = {tau:g} is below {limit:.4g}, {rounding}"
    return None


def grid_for_state(
    state: TwoParticleState,
    t: float,
    h: float | None = None,
    tau: float | None = None,
) -> ResidualGrid:
    """Grid centered on the density covering the ±_COVER_STDS marginal stds
    that continuity_residual requires.

    Default spacing is half of _max_grid_spacing, so the narrowest feature
    spans 8 points; the default tau is _default_grid_tau.
    """
    if tau is None:
        tau = _default_grid_tau(state, t)
    if h is None:
        h = _max_grid_spacing(state, t) / 2.0
    else:
        _require_positive("h", h)
    mean1, std = observable_normal(state, t, "y1")
    mean2 = observable_normal(state, t, "y2")[0]
    half = math.ceil(_COVER_STDS * std / h) * h
    n = 2 * int(round(half / h)) + 1
    return ResidualGrid(
        y1_min=mean1 - half, y2_min=mean2 - half, n1=n, n2=n, h=h, tau=tau
    )


@dataclass(frozen=True)
class ContinuityResidual:
    """Norms of the discretized continuity-equation defect on a grid.

    The defect d_t rho + d_1(rho v1) + d_2(rho v2) is taken at every grid
    point; max_norm is its sup, l2_norm its area-weighted L2 norm.
    too_coarse flags a grid that _coarse_grid_verdict refuses.
    """

    max_norm: float
    l2_norm: float
    too_coarse: bool


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(leaves: int) -> int:
    """W = min(usable CPUs, _MAX_WORKERS, leaves), the workers of _map_leaves."""
    return min(_usable_cpus(), _MAX_WORKERS, leaves)


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _map_leaves(leaves: int, new_leaf) -> list:
    """[leaf(0), leaf(1), ..., leaf(leaves - 1)], each leaf evaluated once.

    The leaves are dealt round-robin to W = _worker_count(leaves) workers,
    worker 0 on the calling thread; worker j evaluates
    leaves j, j + W, ... with its own leaf from new_leaf(). Each result
    lands in its leaf's slot, so the list does not depend on W or on the
    order in which the workers finish; one worker starts no thread. A
    failing worker makes the others skip their remaining leaves; every
    worker is joined before this returns or raises, and the first failure,
    in worker order, is re-raised.
    """
    workers = _worker_count(leaves)
    results = [None] * leaves
    errors = [None] * workers
    failed = threading.Event()

    def work(j):
        try:
            leaf = new_leaf()
            for k in range(j, leaves, workers):
                if failed.is_set():
                    return
                results[k] = leaf(k)
        except BaseException as exc:  # re-raised on the calling thread below
            errors[j] = exc
            failed.set()

    # a worker sees the caller's context: numpy's errstate lives there
    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(work, j))
        for j in range(1, workers)
    ]
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        work(0)
        for thread in started:
            thread.join()
    except BaseException:  # a thread that did not start, or Ctrl-C in a join
        failed.set()
        for thread in started:
            thread.join()
        raise
    for error in errors:
        if error is not None:
            raise error
    return results


def continuity_residual(
    state: TwoParticleState, grid: ResidualGrid, t: float
) -> ContinuityResidual:
    """Central-difference residual of d_t rho + div(rho v) at time t.

    Both rho and v are evaluated from the analytic state, so a nonzero
    residual measures pure discretization error; it must shrink as
    O(h^2 + tau^2) if the closed forms actually satisfy the continuity
    equation. The grid must cover ±_COVER_STDS marginal stds of the density.

    No array spans the grid. Its rows are cut into leaves of
    max(1, _BLOCK_POINTS // n2) whole rows, the last possibly shorter, the
    same cut whatever the CPU count. A leaf's stages (rho, velocities,
    fluxes, rho at t ± tau) are evaluated on its rows plus one ghost row per
    side, into four ghost-extended and two inner buffers allocated once
    per call and worker. max_norm is the largest of the leaves' maxima. Each
    leaf scales its residual by the power of two that brings its own max
    into [0.5, 1), and returns its np.sum of squares; l2_norm rescales those
    sums to the largest leaf exponent, adds them with math.fsum, which is
    exactly rounded (Shewchuk 1997), takes the root and scales it back.
    Every scaling is by a power of two, so wherever the unscaled squares
    and sums are normal floats l2_norm has their bits, and where they would
    underflow or overflow it still has its value. Both norms keep their bits
    on any number of workers (see _map_leaves). Peak memory is a leaf's
    stages per worker and the ghost y2 axis, whatever the number of grid
    rows; where that exceeds physical memory, MemoryError is raised before
    any of it is allocated.

    A norm that is not finite raises FloatingPointError naming it: the
    fluxes of a density too tall for double precision, for one, overflow. A
    grid that _coarse_grid_verdict refuses warns with its text, which names
    grid_h and grid_tau.
    """
    _require_finite("t", t)
    mean1, std = observable_normal(state, t, "y1")
    mean2 = observable_normal(state, t, "y2")[0]
    n1, n2, h = grid.n1, grid.n2, grid.h
    reach = _COVER_STDS * std
    # the axis ends y_min + h * (n - 1), with the bits of y1_axis[-1] and y2_axis[-1]
    if (
        grid.y1_min > mean1 - reach
        or grid.y1_min + h * (n1 - 1) < mean1 + reach
        or grid.y2_min > mean2 - reach
        or grid.y2_min + h * (n2 - 1) < mean2 + reach
    ):
        raise ValueError(
            f"grid must cover at least ±{_COVER_STDS:g} marginal stds of the density"
        )
    rows = max(1, min(n1, _BLOCK_POINTS // n2))
    leaves = -(-n1 // rows)
    workers, memory = _worker_count(leaves), _physical_memory()
    # each worker's four ghost-extended and two inner stage buffers, and the ghost y2 axis
    need = 8 * (workers * (4 * (rows + 2) * (n2 + 2) + 2 * rows * n2) + n2 + 2)
    if need > memory:
        raise MemoryError(
            f"the continuity residual on a grid of {n1:.6g} x {n2:.6g} points needs "
            f"{need / 1e9:.3g} GB of stage buffers on {workers} worker thread(s), more than "
            f"the {memory / 1e9:.3g} GB of physical memory"
        )

    verdict = _coarse_grid_verdict(state, t, h, grid.tau)
    if verdict is not None:
        warnings.warn(
            f"{verdict} at t = {t:g}; residual norms are unreliable", RuntimeWarning, stacklevel=2
        )

    # the extended axes low + h * k, k = 0 .. n + 1, add one ghost point per side for
    # the flux derivative; they rise with k, so they are finite where their ends are
    low1, low2 = grid.y1_min - h, grid.y2_min - h
    _require_finite("y1", [low1, low1 + h * (n1 + 1)])
    _require_finite("y2", [low2, low2 + h * (n2 + 1)])
    ext2 = low2 + h * np.arange(n2 + 2)
    now = state.evolved(t)
    later = state.evolved(t + grid.tau)
    earlier = state.evolved(t - grid.tau)
    inner = (slice(1, -1), slice(1, -1))

    def residual_rows(i0, i1, ghosted, inner_rows):
        """The residual on grid rows [i0, i1), in the first rows of inner_rows[0]."""
        big_y, small_y, rho, flux1 = (a[: i1 - i0 + 2] for a in ghosted)
        out, term = (a[: i1 - i0] for a in inner_rows)
        ext1 = low1 + h * np.arange(i0, i1 + 2)  # this leaf's rows of the y1 axis
        mode_coordinates(ext1[:, None], ext2[None, :], out=(big_y, small_y))

        # (rho(t + tau) - rho(t - tau)) / (2 tau) at the grid points
        mode_density(later[0], big_y[inner], out=out)
        out *= mode_density(later[1], small_y[inner], out=term)
        mode_density(earlier[0], big_y[inner], out=term)
        # rho's inner rows are free until the fluxes
        term *= mode_density(earlier[1], small_y[inner], out=rho[inner])
        out -= term
        out /= 2.0 * grid.tau

        # rho * v1 and rho * v2 with one ghost point per side, v_cm over Y, v_rel over y;
        # rho * v2 overwrites v_rel
        mode_density(now[0], big_y, out=rho)
        rho *= mode_density(now[1], small_y, out=flux1)
        v_cm = now[0].velocity(big_y, out=big_y)
        v_rel = now[1].velocity(small_y, out=small_y)
        flux1, flux2 = particle_coordinates(v_cm, v_rel, out=(flux1, small_y))
        flux1 *= rho
        flux2 *= rho

        np.subtract(flux1[2:, 1:-1], flux1[:-2, 1:-1], out=term)
        term /= 2.0 * h
        out += term
        np.subtract(flux2[1:-1, 2:], flux2[1:-1, :-2], out=term)
        term /= 2.0 * h
        out += term
        return out

    def new_leaf():
        """leaf(k) -> (m, e, s) over grid rows [k*rows, (k+1)*rows), with its own
        stage buffers, four ghost-extended and two inner: m is max |r|, and s
        the sum of (r * 2**-e)^2, e being the exponent that puts m * 2**-e in
        [0.5, 1) (0 for an m of 0 or one that is not finite)."""
        ghosted = [np.empty((rows + 2, n2 + 2)) for _ in range(4)]
        inner_rows = [np.empty((rows, n2)) for _ in range(2)]

        def leaf(k):
            i0 = k * rows
            out = residual_rows(i0, min(n1, i0 + rows), ghosted, inner_rows)
            peak = np.max(np.abs(out, out=inner_rows[1][: len(out)]))
            exponent = math.frexp(peak)[1]
            np.ldexp(out, -exponent, out=out)
            out *= out
            return peak, exponent, np.sum(out)

        return leaf

    # fluxes that overflow are refused by the norm check below; numpy's overflow
    # and invalid-value warnings on the way would only repeat that, or stop the
    # run with a traceback where warnings are errors. Each leaf sum is rescaled
    # to the largest exponent, so the total stays below the number of points
    with np.errstate(over="ignore", invalid="ignore"):
        peaks, exponents, sums = zip(*_map_leaves(leaves, new_leaf))
        top = max(exponents)
        sum_sq = math.fsum(np.ldexp(sums, [2 * (e - top) for e in exponents]))
        l2_norm = np.ldexp(math.sqrt(sum_sq * h * h), top)
    norms = {"max_norm": float(np.max(peaks)), "l2_norm": float(l2_norm)}
    broken = [f"{name} = {norm}" for name, norm in norms.items() if not math.isfinite(norm)]
    if broken:
        raise FloatingPointError(f"continuity residual is not finite: {', '.join(broken)}")
    return ContinuityResidual(too_coarse=verdict is not None, **norms)
