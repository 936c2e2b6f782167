"""Pilot-wave velocity field and its consistency diagnostics.

The configuration-space velocity is v_k = (hbar/m) * Im(d_k psi / psi).
For the factorized Gaussian state this reduces to independent affine fields
in the mode coordinates; the finite-difference evaluator and the continuity
residual below check the closed forms against psi itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    GaussianMode,
    PhysicalParams,
    TwoParticleState,
    _require_finite,
    _require_positive,
    eval_density,
    eval_psi,
    mode_coordinates,
    mode_field,
    observable_normal,
)

AMPLITUDE_FLOOR = 1e-150

# marginal stds of the density that grid_for_state covers and continuity_residual requires
_COVER_STDS = 5.0

# grid points per row block of the continuity residual; a block's stage
# arrays are about 1 MB each instead of 8 B per point of the whole grid
_BLOCK_POINTS = 1 << 17


class DegenerateAmplitudeError(ValueError):
    """Raised when |psi| at a stencil point is too small to divide by."""


class VelocityPair(NamedTuple):
    v1: np.ndarray
    v2: np.ndarray


def mode_velocity(mode: GaussianMode, params: PhysicalParams, u, t: float):
    """Velocity field of a single Gaussian mode: drift plus radial stretch.

    v(u, t) = hbar*k/m_c + (u - center(t)) * sigma'(t)/sigma(t); trajectories
    of this field scale affinely with the spreading width.
    """
    _require_finite("u", u)
    _require_finite("t", t)
    return mode_field(mode, params, t).velocity(np.asarray(u, dtype=float))


def _pair_velocity(state: TwoParticleState, t: float, y1, y2) -> VelocityPair:
    big_y, small_y = mode_coordinates(y1, y2)
    v_cm = mode_field(state.cm_mode, state.params, t).velocity(big_y)
    v_rel = mode_field(state.rel_mode, state.params, t).velocity(small_y)
    return VelocityPair(v_cm + 0.5 * v_rel, v_cm - 0.5 * v_rel)


def velocity(state: TwoParticleState, y1, y2, t: float) -> VelocityPair:
    """Particle velocities (v1, v2) at configuration (y1, y2) and time t.

    Computed from the mode fields via dY/dt = v_cm, dy/dt = v_rel and the
    chain rule y1 = Y + y/2, y2 = Y - y/2.
    """
    _require_finite("y1", y1)
    _require_finite("y2", y2)
    _require_finite("t", t)
    return _pair_velocity(state, t, y1, y2)


def velocity_fd(
    state: TwoParticleState, y1, y2, t: float, h: float | None = None
) -> VelocityPair:
    """Velocity from central differences of psi itself.

    Independent of the closed-form field: v_k = (hbar/m) * Im(d_k psi / psi)
    with d_k psi approximated by a second-order central stencil of spacing h
    (default 1e-4 times the smaller evolved mode width).
    """
    if h is None:
        cm, rel = state.evolved(t)
        h = 1e-4 * min(cm.sigma, rel.sigma)
    _require_positive("h", h)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    psi0 = eval_psi(state, y1, y2, t)
    stencil = [
        eval_psi(state, y1 + h, y2, t),
        eval_psi(state, y1 - h, y2, t),
        eval_psi(state, y1, y2 + h, t),
        eval_psi(state, y1, y2 - h, t),
    ]
    magnitudes = np.abs(psi0)
    for psi in stencil:
        magnitudes = np.minimum(magnitudes, np.abs(psi))
    if np.any(magnitudes < AMPLITUDE_FLOOR):
        raise DegenerateAmplitudeError(
            f"|psi| below {AMPLITUDE_FLOOR:g} on the stencil; velocity undefined"
        )
    scale = state.params.hbar / state.params.mass
    v1 = scale * np.imag((stencil[0] - stencil[1]) / (2.0 * h * psi0))
    v2 = scale * np.imag((stencil[2] - stencil[3]) / (2.0 * h * psi0))
    return VelocityPair(v1, v2)


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
        _require_positive("h", self.h)
        _require_positive("tau", self.tau)
        if self.n1 < 3 or self.n2 < 3:
            raise ValueError("grid needs at least 3 points per axis")

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


def _feature_scale(state: TwoParticleState, t: float) -> float:
    """Narrowest density feature along a particle axis.

    Along y1 at fixed y2 the density varies through Y on scale 2*sigma_cm,
    the width of y1+y2, and through y on scale sigma_rel, that of y1-y2.
    """
    return min(observable_normal(state, t, name)[1] for name in ("y1+y2", "y1-y2"))


def grid_for_state(
    state: TwoParticleState,
    t: float,
    h: float | None = None,
    tau: float = 1e-3,
) -> ResidualGrid:
    """Grid centered on the density covering the ±_COVER_STDS marginal stds
    that continuity_residual requires.

    Default spacing resolves the narrowest feature with 8 points.
    """
    if h is None:
        h = _feature_scale(state, t) / 8.0
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
    too_coarse flags h above a quarter of the narrowest density feature.
    """

    max_norm: float
    l2_norm: float
    too_coarse: bool


def continuity_residual(
    state: TwoParticleState, grid: ResidualGrid, t: float
) -> ContinuityResidual:
    """Central-difference residual of d_t rho + div(rho v) at time t.

    Both rho and v are evaluated from the analytic state, so a nonzero
    residual measures pure discretization error; it must shrink as
    O(h^2 + tau^2) if the closed forms actually satisfy the continuity
    equation. The grid must cover ±_COVER_STDS marginal stds of the density.

    The stages (rho, velocities, fluxes, rho at t ± tau) are evaluated in
    blocks of whole rows, about 2^17 grid points each, on the block's rows
    plus one ghost row per side, and written into the one residual array;
    max_norm is combined from the blocks' maxima, and l2_norm is summed
    after squaring that array in place. Peak memory is about 8 B per grid
    point plus one block's stages; both norms are bit-identical to
    evaluating the whole grid at once.
    """
    _require_finite("t", t)
    mean1, std = observable_normal(state, t, "y1")
    mean2 = observable_normal(state, t, "y2")[0]
    y1_axis = grid.y1_axis
    y2_axis = grid.y2_axis
    reach = _COVER_STDS * std
    if (
        y1_axis[0] > mean1 - reach
        or y1_axis[-1] < mean1 + reach
        or y2_axis[0] > mean2 - reach
        or y2_axis[-1] < mean2 + reach
    ):
        raise ValueError(
            f"grid must cover at least ±{_COVER_STDS:g} marginal stds of the density"
        )

    too_coarse = grid.h > _feature_scale(state, t) / 4.0
    if too_coarse:
        warnings.warn(
            "grid spacing exceeds a quarter of the narrowest density feature; "
            "residual norms are unreliable",
            RuntimeWarning,
            stacklevel=2,
        )

    # extended axes add one ghost point per side for the flux derivative
    ext1 = (grid.y1_min - grid.h) + grid.h * np.arange(grid.n1 + 2)
    ext2 = (grid.y2_min - grid.h) + grid.h * np.arange(grid.n2 + 2)
    yy2 = ext2[None, :]
    residual = np.empty((grid.n1, grid.n2))
    max_norm = 0.0
    rows = max(1, _BLOCK_POINTS // grid.n2)
    for i0 in range(0, grid.n1, rows):
        i1 = min(i0 + rows, grid.n1)
        yy1 = ext1[i0 : i1 + 2, None]
        rho = eval_density(state, yy1, yy2, t)
        v1, v2 = _pair_velocity(state, t, yy1, yy2)
        flux1 = rho * v1
        flux2 = rho * v2
        rho_plus = eval_density(state, yy1[1:-1], yy2[:, 1:-1], t + grid.tau)
        rho_minus = eval_density(state, yy1[1:-1], yy2[:, 1:-1], t - grid.tau)
        dt_rho = (rho_plus - rho_minus) / (2.0 * grid.tau)
        div1 = (flux1[2:, 1:-1] - flux1[:-2, 1:-1]) / (2.0 * grid.h)
        div2 = (flux2[1:-1, 2:] - flux2[1:-1, :-2]) / (2.0 * grid.h)
        residual[i0:i1] = dt_rho + div1 + div2
        max_norm = np.maximum(max_norm, np.max(np.abs(residual[i0:i1])))

    residual *= residual
    l2_norm = math.sqrt(np.sum(residual) * grid.h * grid.h)
    return ContinuityResidual(float(max_norm), l2_norm, too_coarse)
